"""Differential test: block-drawn generators against the scalar oracle.

``vrburst`` generators compute bursts a block at a time from one flat array
of uniforms; ``generator_oracle`` draws every burst word by word. Both must
hand out the same :class:`BurstDescriptor` sequence, whether the bursts are
taken one by one through ``generate_burst()`` or as the arrays of
``schedule()``, in chunks that straddle block boundaries, and must raise
:class:`DegenerateModelError` at the same burst. ``schedule()`` must keep the
same bursts as the oracle's generation horizon, and ``schedule_stations``,
which draws the blocks of several VR stations together, the same schedules
as each station alone, also when the stations mix VR models, simple sources
and a trace that runs out. Blocks of any size, as schedule rounds draw them,
give the oracle's bursts too.
"""

import generator_oracle as oracle
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrburst.generator import BLOCK_BURSTS, SimpleBurstGenerator, VrBurstGenerator, schedule_stations
from vrburst.generator import TraceFile, TraceFileBurstGenerator
from vrburst.model import DegenerateModelError, VrModelConstants, VrStreamParams
from vrburst.rv import RngStream, dist_from_spec

SIZE_SPECS = ["constant:1", "constant:5000", "constant:-3.5", "uniform:1:20000",
              "normal:8000:6000", "logistic:3000:2000"]
PERIOD_SPECS = ["constant:0.004", "constant:0", "uniform:0:0.003", "normal:0.002:0.003",
                "logistic:0.002:0.001"]

chunk_lists = st.lists(st.integers(1, 2 * BLOCK_BURSTS), min_size=1, max_size=6)
seeds = st.integers(0, 2**32 - 1)


def take(generator, chunks, expected):
    """Bursts taken alternately through generate_burst() and schedule(), one
    chunk at a time, and whether the generator raised DegenerateModelError.

    A schedule() chunk of n bursts asks for the horizon at which the
    ``expected`` bursts put exactly n bursts; past the end of ``expected``
    (the oracle raised there), for one burst more.
    """
    bursts = []
    try:
        for k, size in enumerate(chunks):
            if k % 2:
                offset = 1000 * k
                ahead = expected[len(bursts):len(bursts) + size]
                steps = [max(1, burst.next_period_ns) for burst in ahead]
                horizon = offset + sum(steps[:size - 1]) + 1 if len(ahead) == size else offset + sum(steps) + 1
                times, sizes, periods = generator.schedule(horizon, offset)
                assert times.dtype == sizes.dtype == periods.dtype == np.int64
                assert times.tolist() == (offset + np.cumsum([0, *steps])[:len(times)]).tolist()
                bursts.extend(zip(sizes.tolist(), periods.tolist()))
            else:
                for _ in range(size):
                    bursts.append(generator.generate_burst())
    except DegenerateModelError:
        # a schedule() that raised keeps the bursts it computed next in line;
        # a generator raising later than the oracle would have scheduled one
        # burst more instead
        try:
            for _ in range(len(expected) - len(bursts)):
                bursts.append(generator.generate_burst())
        except DegenerateModelError:
            pass
        return bursts, True
    return bursts, False


def take_oracle(generator, n):
    bursts = []
    try:
        for _ in range(n):
            bursts.append(generator.generate_burst())
    except DegenerateModelError:
        return bursts, True
    return bursts, False


@settings(max_examples=40, deadline=None)
@given(rate_mbps=st.floats(0.2, 200.0), fps=st.floats(15.0, 120.0), seed=seeds, chunks=chunk_lists)
@example(rate_mbps=0.3, fps=60.0, seed=1, chunks=[700, 300, 500])
@example(rate_mbps=1.0, fps=60.0, seed=2, chunks=[1, 255, 2, 511])
def test_vr_bursts_match_the_scalar_walk(rate_mbps, fps, seed, chunks):
    params = VrStreamParams(rate_mbps * 1e6, fps)
    want = take_oracle(oracle.VrBurstGenerator(params, RngStream(seed, 1)), sum(chunks))
    got = take(VrBurstGenerator(params, RngStream(seed, 1)), chunks, want[0])
    assert got == want


@settings(max_examples=25, deadline=None)
@given(iframe_slope=st.floats(15.0, 40.0), seed=seeds, chunks=chunk_lists)
@example(iframe_slope=1e9, seed=3, chunks=[5])
def test_vr_degenerate_model_raises_at_the_same_burst(iframe_slope, seed, chunks):
    # the low component is a point mass at 0, always rejected, and the high
    # one has weight 1 / iframe_slope, so now and then 100 draws in a row fail
    constants = VrModelConstants(iframe_mean_slope=iframe_slope, pframe_mean_slope=0.0,
                                 iframe_std_coeff=0.0, pframe_std_coeff=0.0)
    params = VrStreamParams(5e6, 60)
    chunks = chunks + [4 * BLOCK_BURSTS]
    want = take_oracle(oracle.VrBurstGenerator(params, RngStream(seed, 1), constants), sum(chunks))
    got = take(VrBurstGenerator(params, RngStream(seed, 1), constants), chunks, want[0])
    assert got == want


# the low component is a point mass at 0 and the high one has weight 1/20:
# about 19 redraws a frame, and now and then 100 in a row fail
ONE_IN_TWENTY = VrModelConstants(iframe_mean_slope=20.0, pframe_mean_slope=0.0, iframe_std_coeff=0.0,
                                 pframe_std_coeff=0.0)


def sources(kind, seed, rate_mbps):
    """A block-drawn generator and the oracle of the same stream: VR at
    ``rate_mbps`` and 60 FPS, the ``ONE_IN_TWENTY`` VR model, or a simple source."""
    if kind == "simple":
        specs = ("normal:8000:6000", "uniform:0:0.003")
        return (SimpleBurstGenerator(*map(dist_from_spec, specs), RngStream(seed, 1)),
                oracle.SimpleBurstGenerator(*map(oracle.dist_from_spec, specs), RngStream(seed, 1)))
    params = VrStreamParams(rate_mbps * 1e6, 60)
    constants = ONE_IN_TWENTY if kind == "one-in-twenty" else VrModelConstants()
    return (VrBurstGenerator(params, RngStream(seed, 1), constants),
            oracle.VrBurstGenerator(params, RngStream(seed, 1), constants))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["vr", "one-in-twenty", "simple"]), rate_mbps=st.floats(0.2, 200.0), seed=seeds,
       rounds=st.lists(st.integers(1, 4096), min_size=1, max_size=3))
# the first round leaves a 97-word carry, more than the next row of 16 bursts
@example(kind="one-in-twenty", rate_mbps=5.0, seed=0, rounds=[16, 16, 1])
# a degenerate frame starts 168 words before the end of round 4 and raises in round 5
@example(kind="one-in-twenty", rate_mbps=5.0, seed=0, rounds=[100] * 5)
# at 1 Mbit/s about one draw in 15 is non-positive: 297 redraws in one row
@example(kind="vr", rate_mbps=1.0, seed=2, rounds=[4096])
def test_blocks_of_any_size_match_the_scalar_walk(kind, rate_mbps, seed, rounds):
    generator, reference = sources(kind, seed, rate_mbps)
    got, raised = [], False
    try:
        for size in rounds:
            sizes, periods, (n,) = generator._draw_blocks([generator], size)
            assert n >= 1
            got += zip(sizes[0, :n].tolist(), periods[0, :n].tolist())
    except DegenerateModelError:
        raised = True
    # the oracle raises at the burst where the blocks did
    assert take_oracle(reference, len(got) + raised) == (got, raised)


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(SIZE_SPECS), period=st.sampled_from(PERIOD_SPECS), seed=seeds,
       chunks=chunk_lists)
def test_simple_bursts_match_the_scalar_walk(size, period, seed, chunks):
    want = take_oracle(
        oracle.SimpleBurstGenerator(oracle.dist_from_spec(size), oracle.dist_from_spec(period), RngStream(seed, 1)),
        sum(chunks),
    )
    generator = SimpleBurstGenerator(dist_from_spec(size), dist_from_spec(period), RngStream(seed, 1))
    got = take(generator, chunks, want[0])
    assert got == want


@settings(max_examples=20, deadline=None)
@given(rate_mbps=st.floats(0.2, 200.0), seed=seeds, duration_s=st.floats(0.001, 12.0))
@example(rate_mbps=1.0, seed=7, duration_s=12.0)  # 720 bursts: three rounds of one short row
def test_schedule_keeps_the_bursts_of_the_generation_horizon(rate_mbps, seed, duration_s):
    params = VrStreamParams(rate_mbps * 1e6, 60)
    times, sizes, periods = VrBurstGenerator(params, RngStream(seed, 1)).schedule(round(duration_s * 1e9))
    bursts = list(zip(sizes.tolist(), periods.tolist()))
    assert bursts == oracle.collect_bursts(oracle.VrBurstGenerator(params, RngStream(seed, 1)), duration_s)
    assert times[0] == 0
    assert (np.diff(times) == np.maximum(periods[:-1], 1)).all()


def test_schedule_of_zero_periods_still_advances():
    gen = SimpleBurstGenerator(dist_from_spec("constant:10"), dist_from_spec("constant:0"), RngStream(1))
    assert gen.schedule(5, offset_ns=2)[0].tolist() == [2, 3, 4]


@settings(max_examples=20, deadline=None)
@given(rate_mbps=st.floats(0.2, 200.0), seed=seeds, duration_s=st.floats(0.01, 12.0),
       offsets=st.lists(st.integers(0, 3_000_000_000), min_size=2, max_size=5))
@example(rate_mbps=0.3, seed=1, duration_s=10.0, offsets=[0, 0, 7, 2_000_000_000])
# the first round's rows hold 255, 254, 256, 256 and 256 bursts: redraws shorten two
@example(rate_mbps=5.0, seed=1, duration_s=10.0, offsets=[0, 0, 0, 0, 0])
def test_stations_scheduled_together_match_each_alone(rate_mbps, seed, duration_s, offsets):
    params = VrStreamParams(rate_mbps * 1e6, 60)
    horizon = round(duration_s * 1e9)
    together = [VrBurstGenerator(params, RngStream(seed, i + 1)) for i in range(len(offsets))]
    alone = [VrBurstGenerator(params, RngStream(seed, i + 1)) for i in range(len(offsets))]
    got = schedule_stations(together, horizon, offsets)
    want = [g.schedule(horizon, offset) for g, offset in zip(alone, offsets)]
    assert [[a.tolist() for a in s] for s in got] == [[a.tolist() for a in s] for s in want]
    assert [g.generate_burst() for g in together] == [g.generate_burst() for g in alone]


def station(kind, seed, i):
    """Station i of a mixed scenario: VR at 20 or 1 Mbit/s, a simple source,
    or a 2.1-s trace replayed from 0.5 s."""
    if kind == "trace":
        rows = [(1000 + 7 * k, 7_000_000) for k in range(300)]
        return TraceFileBurstGenerator(TraceFile(rows), start_time_s=0.5)
    rng = RngStream(seed, i + 1)
    if kind == "simple":
        return SimpleBurstGenerator(dist_from_spec("uniform:1:20000"), dist_from_spec("normal:0.002:0.003"), rng)
    return VrBurstGenerator(VrStreamParams({"vr20": 20e6, "vr1": 1e6}[kind], 60), rng)


def next_burst(generator):
    return generator.generate_burst() if generator.has_next_burst() else None


@settings(max_examples=20, deadline=None)
@given(kinds=st.lists(st.sampled_from(["vr20", "vr1", "simple", "trace"]), min_size=2, max_size=6),
       seed=seeds, duration_s=st.floats(0.01, 6.0), offsets=st.lists(st.integers(0, 3_000_000_000), min_size=6))
@example(kinds=["vr1", "simple", "vr20", "trace", "vr1", "vr20"], seed=5, duration_s=4.0, offsets=[0, 7, 0, 0, 1, 0])
def test_mixed_stations_scheduled_together_match_each_alone(kinds, seed, duration_s, offsets):
    horizon = round(duration_s * 1e9)
    offsets = offsets[:len(kinds)]
    together = [station(kind, seed, i) for i, kind in enumerate(kinds)]
    alone = [station(kind, seed, i) for i, kind in enumerate(kinds)]
    got = schedule_stations(together, horizon, offsets)
    want = [g.schedule(horizon, offset) for g, offset in zip(alone, offsets)]
    assert [[a.tolist() for a in s] for s in got] == [[a.tolist() for a in s] for s in want]
    assert [next_burst(g) for g in together] == [next_burst(g) for g in alone]
