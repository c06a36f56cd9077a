"""Differential test: ``vrburst.sim.simulate`` against the event-heap oracle.

Both engines must produce the same :class:`SimulationLog` field for field
(delay samples in the same order, link counters, ``end_time_ns``) and hence
byte-identical metrics reports, for any small scenario, including stations
that tie on every burst instant.
"""

from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sim_oracle import simulate_reference

from vrburst.sim import GeneratorConfig, ScenarioConfig, simulate, summarize


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 6))
    duration_s = draw(st.sampled_from([0.02, 0.05, 0.1, 0.2]))
    if draw(st.booleans()):
        generator = GeneratorConfig(
            model="vr",
            rate_mbps=draw(st.floats(1.0, 30.0)),
            fps=draw(st.sampled_from([30.0, 60.0, 90.0])),
        )
    else:
        size = draw(st.sampled_from(["constant:1", "constant:1254", "constant:5000",
                                     "uniform:1:20000", "normal:8000:6000"]))
        period = draw(st.sampled_from(["constant:0.001", "constant:0.004",
                                       "uniform:0:0.003", "logistic:0.002:0.001"]))
        generator = GeneratorConfig(model="simple", size_dist=size, period_dist=period)
    offsets = draw(st.one_of(
        st.none(),
        st.just([0] * n),  # every station bursts at the same instants
        st.lists(st.integers(0, 3_000_000), min_size=n, max_size=n),
    ))
    return ScenarioConfig(
        generator=generator,
        n_stations=n,
        link_rate_bps=draw(st.one_of(st.sampled_from([10e6, 100e6, 866e6]),
                                     st.floats(5e6, 400e6))),
        propagation_delay_ns=draw(st.sampled_from([0, 1, 20_000])),
        overhead_bytes=draw(st.sampled_from([0, 22])),
        loss_prob=draw(st.sampled_from([0.0, 0.01, 0.3, 1.0])),
        queue_limit=draw(st.sampled_from([0, 1, 2, 7, 50, 400])),
        duration_s=duration_s,
        seed=draw(st.integers(0, 2**32 - 1)),
        fragment_size=draw(st.sampled_from([100, 300, 1278])),
        station_start_offsets_ns=offsets,
    )


TIED = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:5000",
                              period_dist="constant:0.001"),
    n_stations=4, link_rate_bps=100e6, queue_limit=7, loss_prob=0.3,
    duration_s=0.05, seed=9, station_start_offsets_ns=[0, 0, 0, 0],
)


@settings(max_examples=60, deadline=None)
@example(cfg=TIED)
@given(cfg=scenarios())
def test_simulate_matches_event_heap_oracle(cfg):
    expected = simulate_reference(cfg)
    actual = simulate(cfg)
    assert actual.served_bytes == expected.served_bytes
    assert actual.link_busy_ns == expected.link_busy_ns
    assert actual.end_time_ns == expected.end_time_ns
    assert asdict(actual) == asdict(expected)
    assert summarize(actual, cfg).to_json() == summarize(expected, cfg).to_json()
