"""Differential test: ``vrburst.sim.simulate`` against the event-heap oracle.

The oracle logs per-fragment lists; the engine logs per-burst columns. Each
test projects the oracle's log onto what the columns determine and compares
the two there: every delivered fragment's delay in delivery order (the
engine's expanded from its columns by ``sim_oracle.fragment_delays``), the
received bursts' delays overall and per station, each station's burst
outcomes and fragment counts, and the link counters including
``end_time_ns``. The metrics reports must also be byte-identical: the
engine's ``summarize`` against the oracle's list-based
``summarize_reference``. This holds for any small scenario, including
stations that tie on every burst instant.

The engine summarizes fragments from per-burst closed forms; a second
property holds that summary to the one of the expanded delays, on runs too
large or too slow for the event heap.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sim_oracle import delay_summary, fragment_delays, simulate_reference, summarize_reference

from vrburst.generator import BurstDescriptor, save_trace
from vrburst.sim import (
    DISCARDED,
    IN_FLIGHT,
    LOST,
    RECEIVED,
    GeneratorConfig,
    ScenarioConfig,
    simulate,
    summarize,
)

LINK_COUNTERS = ("fragments_sent", "fragments_lost", "fragments_queue_dropped", "served_bytes",
                 "link_busy_ns", "payload_bytes_received", "end_time_ns", "trace_metadata")
OUTCOMES = {"bursts_received": RECEIVED, "bursts_discarded": DISCARDED, "bursts_lost": LOST,
            "bursts_in_flight": IN_FLIGHT}


def project(oracle_log) -> dict:
    """The oracle's per-fragment log, reduced to what the engine's columns determine."""
    stations = [
        {"fragments_sent": s.fragments_sent, "fragments_delivered": s.fragments_delivered,
         "burst_delays_ns": s.burst_delays_ns, **{key: getattr(s, key) for key in OUTCOMES}}
        for s in oracle_log.stations
    ]
    return {"fragment_delays_ns": oracle_log.fragment_delays_ns,
            "burst_delays_ns": oracle_log.burst_delays_ns,
            "stations": stations, **{key: getattr(oracle_log, key) for key in LINK_COUNTERS}}


def view(log, cfg) -> dict:
    """The same reduction of the engine's per-burst columns."""
    received = log.outcome == RECEIVED
    delays = log.departure_ns + cfg.propagation_delay_ns - log.time_ns
    stations = []
    for idx in range(log.n_stations):
        mine = log.station == idx
        stations.append({
            "fragments_sent": int(log.fragments[mine].sum()),
            "fragments_delivered": int(log.delivered[mine].sum()),
            "burst_delays_ns": delays[mine & received].tolist(),
            **{key: int((log.outcome[mine] == code).sum()) for key, code in OUTCOMES.items()},
        })
    return {"fragment_delays_ns": fragment_delays(log, cfg).astype(np.int64).tolist(),
            "burst_delays_ns": delays[received].tolist(),
            "stations": stations, **{key: getattr(log, key) for key in LINK_COUNTERS}}


def assert_matches_oracle(cfg):
    expected = simulate_reference(cfg)
    actual = simulate(cfg)
    assert view(actual, cfg) == project(expected)
    assert json.dumps(summarize(actual, cfg), indent=2) == json.dumps(summarize_reference(expected, cfg), indent=2)
    return actual


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

# A 97 bit/s link serializes a full 65001-byte fragment in an odd
# 5360907216495 ns, so the 3014 fragments' expansion passes 2**53 ns, where
# float64 rounds, while the run, nearly all 1-byte bursts, ends at 3.2e14 ns.
SLOW = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="normal:-100000:60000",
                              period_dist="constant:0.02"),
    link_rate_bps=97.0, duration_s=60.0, fragment_size=65001, seed=1,
)
# The same at seed 2: its 3000 received bursts' delays sum past 2**53 ns,
# where adding them in order gives another mean than np.mean's pairwise sum.
SLOW_SUM = replace(SLOW, seed=2)


# The last burst that delivers anything, the 59th of 60, loses the last two
# of its four fragments, and the 60th delivers nothing. With a 1-ms delay the
# run ends when the 59th burst's second fragment reaches its station.
LAST_LOST = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:5000", period_dist="constant:0.001"),
    n_stations=3, link_rate_bps=100e6, propagation_delay_ns=1_000_000, queue_limit=7, loss_prob=0.3,
    duration_s=0.02, seed=11,
)


# Paths of the tail-drop loop. At 8 Gbit/s a byte takes 1 ns, so a
# 4904-byte burst (three full 1278-byte fragments and a 1166-byte one) takes
# 5000 ns, its period: each burst arrives as the previous one's last fragment
# departs, and with 3 waiting places it fits only once that burst is popped.
EXACT_DEPARTURE = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:4904", period_dist="constant:0.000005"),
    link_rate_bps=8e9, queue_limit=3, duration_s=0.0001, seed=1,
)
# At 10 Mbit/s a full fragment takes 1.02 ms and a 5000-byte burst has 4,
# one per ms, so later bursts meet a full queue while the head is mid-service:
# the second admits nothing.
ZERO_ADMITTED = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:5000", period_dist="constant:0.001"),
    link_rate_bps=10e6, queue_limit=2, duration_s=0.01, seed=3,
)
# Bursts of 4 fragments 10 ms apart, served in 0.8 ms: when the third
# arrives, ``backlog`` still counts the 8 fragments of two departed bursts,
# as many as the 7 waiting places and the link hold, so it fits only once
# they are popped.
IDLE_GAP = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:5000", period_dist="constant:0.01"),
    link_rate_bps=50e6, queue_limit=7, duration_s=0.1, seed=3,
)
# One waiting place, two stations bursting at the same instants.
ONE_PLACE = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:5000", period_dist="constant:0.001"),
    n_stations=2, link_rate_bps=10e6, queue_limit=1, duration_s=0.01, seed=3, station_start_offsets_ns=[0, 0],
)


@settings(max_examples=60, deadline=None)
@example(cfg=TIED)
@example(cfg=SLOW)
@example(cfg=SLOW_SUM)
@example(cfg=LAST_LOST)
@example(cfg=EXACT_DEPARTURE)
@example(cfg=ZERO_ADMITTED)
@example(cfg=IDLE_GAP)
@example(cfg=ONE_PLACE)
@given(cfg=scenarios())
def test_simulate_matches_event_heap_oracle(cfg):
    assert_matches_oracle(cfg)


# One-fragment bursts 10 ms apart, each served in exactly 1 s, with the
# longest propagation delay the run's link times allow: every delay lies
# past 2**62 ns, so the sums take Python ints.
LINK_TIME_BOUND = ScenarioConfig(
    generator=GeneratorConfig(model="simple", size_dist="constant:1254", period_dist="constant:0.01"),
    link_rate_bps=1278 * 8, propagation_delay_ns=2**63 - 1 - 990_000_000 - 101 * 10**9, duration_s=1.0, seed=3,
)


@settings(max_examples=200, deadline=None)
@example(cfg=SLOW)
@example(cfg=SLOW_SUM)
@example(cfg=LAST_LOST)
@example(cfg=ZERO_ADMITTED)
@example(cfg=replace(TIED, loss_prob=1.0))
@example(cfg=LINK_TIME_BOUND)
@given(cfg=scenarios())
def test_closed_form_fragment_summary_equals_the_expansion(cfg):
    log = simulate(cfg)
    delays = fragment_delays(log, cfg).astype(np.int64).tolist()
    expected = delay_summary(delays)
    if delays:  # fmean's, but for delays past 2**53, which it rounds one by one
        expected["mean_delay_ns"] = float(sum(delays)) / len(delays)
    assert summarize(log, cfg)["fragment"] == expected


def test_tie_goes_to_the_burst_whose_predecessor_reached_the_link_first(tmp_path):
    # Station 0 bursts at 0, 7 and 10 us, station 1 at 5 and 10 us. Station
    # 0's second burst reaches the link after station 1's first, so an event
    # heap keyed by (time, push order) serves station 1's burst at 10 us
    # first; a (time, station) sort would not.
    path = tmp_path / "ties.csv"
    periods_us = [7, 3, 1, 5, 1]  # station 1 starts 11 us into the file, at offset 5 us
    save_trace(path, [BurstDescriptor(1000 * (i + 1), p * 1000) for i, p in enumerate(periods_us)])
    cfg = ScenarioConfig(
        generator=GeneratorConfig(model="trace", trace_path=str(path)),
        n_stations=2, link_rate_bps=100e6, duration_s=11e-6, station_start_offsets_ns=[0, 5_000],
    )
    log = assert_matches_oracle(cfg)
    assert log.time_ns.tolist() == [0, 5_000, 7_000, 10_000, 10_000]
    assert log.station.tolist() == [0, 1, 0, 1, 0]
    assert log.burst_size.tolist() == [1000, 4000, 2000, 5000, 3000]
    assert np.all(np.diff(log.start_ns) > 0)


def test_a_run_past_2_52_ns_matches_the_oracle():
    # a run ending after 2**52 ns (52 days) expands its delays as int64
    cfg = ScenarioConfig(
        generator=GeneratorConfig(model="simple", size_dist="constant:5000", period_dist="constant:3e6"),
        n_stations=2, link_rate_bps=10e6, duration_s=1e7, loss_prob=0.3, seed=4,
    )
    log = assert_matches_oracle(cfg)
    assert log.end_time_ns >= 2**52
    assert fragment_delays(log, cfg).dtype == np.int64
