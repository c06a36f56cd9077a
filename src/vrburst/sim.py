"""Deterministic bottleneck-link scenario runner.

N stations each run a burst generator and hand every burst, all of its
fragments at once, to a shared FIFO bottleneck link at its generation instant.
The link serves one fragment at a time for ``(wire + overhead) * 8 /
link_rate`` (rounded up to whole nanoseconds) and delivers to the station
after the propagation delay. Random losses corrupt fragments on the link (they
still consume link time); a finite queue tail-drops arrivals instead.

The run is computed on arrays, one row per burst. Each station's schedule
(:meth:`~vrburst.generator.BurstGenerator.schedule`) is merged into link
order: by time, and on a tie in the order an event heap keyed by (time, push
order) pops them, each station pushing its next burst when its current one
pops. So a station's first burst goes before the others, in station order,
and other tied bursts go by when their station's previous burst reached the
link; a plain (time, station) sort gets this wrong.

A burst's fragments arrive together and leave back to back, so the link
follows Lindley's recursion per burst: burst j arriving at ``A_j`` starts
service at ``max(A_j, D_{j-1})``, ``D_{j-1}`` being the departure of the
previous burst's last admitted fragment. With an unbounded queue it has the
closed form ``D = C + max(0, max_{i<=j} A_i - C_{i-1})``, C being the
cumulative service time, exact in int64. With a queue limit the recursion
runs burst by burst; a departure at instant t precedes an arrival at t and
frees its queue slot for it. A burst whose fragments fit beside every
admitted fragment of the bursts not yet seen to depart is admitted whole
without looking at the queue. Losses are geometric gaps between lost
fragments, drawn by inversion, one uniform per loss, over the fragments sent
in link order, tail-dropped fragments included; the hits are mapped to their
bursts, and those of tail-dropped fragments dropped.

The :class:`SimulationLog` keeps per-burst columns and the lost fragments;
:func:`summarize` takes the fragment delays' sums and p95 from per-burst
closed forms, and every mean and std by :func:`mean_std` from :func:`exact_sums`.

Time is integer nanoseconds end to end, so a (config, seed) pair always
produces the same report; a config or run whose link times could pass int64
raises :class:`~vrburst.rv.ParameterError` instead. Stations stop generating
at the configured duration and the link then drains; delivered stragglers
still count toward the metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .generator import NS_PER_S, GeneratorConfig, build_generators, schedule_stations
from .model import DEFAULT_CONSTANTS, VrModelConstants
from .rv import RNG_ALGORITHM, ParameterError, RngStream
from .wire import DEFAULT_FRAGMENT_SIZE, HEADER_LEN, fragment_layout
from .wire import fragment_burst  # noqa: F401  (perfbench/tracer.py patches it under this name)

# Stream ids carved out of one scenario seed: 0 for link losses, i+1 for
# station i's generator.
_LOSS_STREAM_ID = 0


def nearest_rank(p: float, n):
    """The place, from 1, of the nearest-rank p-th percentile among n samples: ceil(p * n / 100), n an int or array."""
    return -(-p * n // 100)


def percentile(samples, p: float):
    """The nearest-rank ``p``-th percentile of ``samples``, a sequence or an
    ndarray of numbers, as a Python int or float."""
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample set is undefined")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    rank = int(nearest_rank(p, n))
    value = np.partition(np.asarray(samples), rank - 1)[rank - 1]
    return value.item() if isinstance(value, np.generic) else value  # ints beyond int64 stay objects


def mean_std(n: int, total: int, total_sq: int) -> tuple[float, float]:
    """Mean and sample std of ``n`` whole numbers from their exact sum and
    sum of squares: ``float(total) / n``, which is ``statistics.fmean``'s
    below 2**53, and the bytes of Python 3.11's ``statistics.stdev`` (0.0 for
    one number), the correctly rounded root of (n total_sq - total**2) /
    (n (n - 1)), from an integer root of 54 bits or more rounded to odd."""
    std = 0.0
    if n > 1:
        num, den = n * total_sq - total * total, n * (n - 1)
        q = (num.bit_length() - den.bit_length() - 109) // 2
        num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
        root = math.isqrt(num // den)
        std = math.ldexp(root | (root * root * den != num), q)
    return float(total) / n, std


def exact_sums(top, terms, *columns, heads=(0,)) -> list[list[int]]:
    """The exact sums, as Python ints, of the segments that start at ``heads``
    (increasing, from 0) of each array ``terms(*columns)`` returns, ``top``
    bounding the magnitude of every value formed. This is the one rule for
    exact sums: the columns stay int64 while ``top`` is below 2**62, else
    become Python ints, and a segment is summed in int64 pieces of at most
    ``2**62 // top`` values, whose sums are added as Python ints."""
    if top >= 2**62:
        columns = [column.astype(object) for column in columns]
    step, sums = max(1, int(2**62 // max(top, 1))), []
    for values in terms(*columns):
        if 0 < len(values) <= step:  # one piece a segment
            sums.append(np.add.reduceat(values, heads).tolist())
        else:
            ends = [*heads[1:], len(values)]  # pieces of step values within each segment
            sums.append([sum(np.add.reduceat(values[a:b], range(0, b - a, step)).tolist())
                         for a, b in zip(heads, ends)])
    return sums


@dataclass
class ScenarioConfig:
    n_stations: int = 1
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    link_rate_bps: float = 866e6
    propagation_delay_ns: int = 0
    overhead_bytes: int = 0
    loss_prob: float = 0.0
    queue_limit: int = 0  # waiting fragments; 0 = unbounded
    duration_s: float = 10.0
    seed: int = 1
    fragment_size: int = DEFAULT_FRAGMENT_SIZE
    station_start_offsets_ns: list[int] | None = None
    constants: VrModelConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if self.n_stations < 1:
            raise ParameterError(f"need at least one station, got {self.n_stations}")
        if not 0 < self.link_rate_bps < math.inf:
            raise ParameterError(f"link rate must be positive and finite, got {self.link_rate_bps}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ParameterError(f"loss probability must lie in [0, 1], got {self.loss_prob}")
        if self.queue_limit < 0:
            raise ParameterError(f"queue limit must be non-negative, got {self.queue_limit}")
        if not (0 < self.duration_s * NS_PER_S < math.inf and round(self.duration_s * NS_PER_S) >= 1):
            raise ParameterError(f"duration must be finite and at least 1 ns, got {self.duration_s} s")
        if not 0 <= self.propagation_delay_ns < 2**63 or self.overhead_bytes < 0:
            raise ParameterError("propagation delay must lie in [0, 2**63) ns and overhead be non-negative")
        # link times are int64 ns, computed from a fragment's bits times NS_PER_S
        bits_ns = (self.fragment_size + self.overhead_bytes) * 8 * NS_PER_S
        if bits_ns >= 2**63 or bits_ns / self.link_rate_bps >= 2**63:
            raise ParameterError(f"a fragment of {self.fragment_size} + {self.overhead_bytes} overhead bytes "
                                 f"at {self.link_rate_bps} bit/s overflows int64 ns")
        if self.station_start_offsets_ns is not None and len(self.station_start_offsets_ns) != self.n_stations:
            raise ParameterError("station_start_offsets_ns must list one offset per station")

    def to_dict(self) -> dict:
        """The fields in declaration order; the generator and constants as their own dicts."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value.to_dict() if hasattr(value, "to_dict") else value for name, value in values}


# Burst outcomes, the values of SimulationLog.outcome
RECEIVED, DISCARDED, LOST, IN_FLIGHT = range(4)


def _ints():
    return np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class SimulationLog:
    """Per-burst columns and the link's counters, aggregated by :func:`summarize`.

    Row j of every column is the j-th burst to reach the link: its station,
    generation time, size, fragment count, fragments admitted by the queue
    and delivered to the station, the link's service start and departure of
    its last admitted fragment (both equal to ``time_ns`` when none was
    admitted), and its outcome. ``fragment_lost`` holds the sorted positions of the lost
    fragments among all admitted ones in link order, or None without losses.
    """

    n_stations: int = 0
    station: np.ndarray = field(default_factory=_ints)
    time_ns: np.ndarray = field(default_factory=_ints)
    burst_size: np.ndarray = field(default_factory=_ints)
    fragments: np.ndarray = field(default_factory=_ints)
    admitted: np.ndarray = field(default_factory=_ints)
    delivered: np.ndarray = field(default_factory=_ints)
    start_ns: np.ndarray = field(default_factory=_ints)
    departure_ns: np.ndarray = field(default_factory=_ints)
    outcome: np.ndarray = field(default_factory=_ints)
    fragment_lost: np.ndarray | None = None
    fragments_sent: int = 0
    fragments_lost: int = 0
    fragments_queue_dropped: int = 0
    served_bytes: int = 0
    link_busy_ns: int = 0
    payload_bytes_received: int = 0
    end_time_ns: int = 0
    trace_metadata: dict | None = None


def _serialization_ns(wire_bytes, overhead: int, link_rate_bps: float):
    """Whole ns to serialize ``wire_bytes`` (an int or an int64 array) plus
    the overhead, rounded up."""
    bits = (wire_bytes + overhead) * 8
    if float(link_rate_bps).is_integer():
        rate = min(int(link_rate_bps), 2**63 - 1)  # exact: every bits * NS_PER_S is below 2**63
        return -(-(bits * NS_PER_S) // rate)
    if isinstance(bits, np.ndarray):
        return np.ceil(bits * NS_PER_S / link_rate_bps).astype(np.int64)
    return math.ceil(bits * NS_PER_S / link_rate_bps)


def _link_order(times: np.ndarray, counts: list[int]) -> np.ndarray:
    """The order in which the bursts reach the link, as indices into ``times``
    (every station's times, station after station).

    Bursts go by time. A tie goes the way an event heap keyed by (time, push
    order) pops it, where each station pushes its next burst when its
    current one pops: first bursts before the others, in station order; the
    others by when their station's previous burst reached the link.
    """
    n = len(times)
    counts = np.asarray(counts)
    # key 2t for a station's first burst and 2t + 1 for the others; equal keys go by station
    key = 2 * times + 1
    key[(np.cumsum(counts) - counts)[counts > 0]] -= 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    tied = (key[1:] == key[:-1]) & (key[1:] % 2 == 1)
    if not tied.any():
        return order
    # resolve each run of tied later bursts by when their predecessors (the
    # bursts before them in times) reached the link
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    edges = np.diff(np.concatenate(([False], tied, [False])).astype(np.int8))
    for a, b in zip(np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) + 1).tolist()):
        members = order[a:b]
        order[a:b] = members = members[np.argsort(rank[members - 1])]
        rank[members] = np.arange(a, b)
    return order


def simulate(cfg: ScenarioConfig) -> SimulationLog:
    """Run the scenario and collect the per-burst log."""
    fragment_layout(1, cfg.fragment_size)  # raises for a fragment size with no room for payload
    duration_ns = round(cfg.duration_s * NS_PER_S)
    generators, trace_metadata = build_generators(
        cfg.generator, cfg.n_stations, cfg.seed, cfg.duration_s, cfg.constants
    )
    offsets = cfg.station_start_offsets_ns or [0] * cfg.n_stations
    schedules = schedule_stations(generators, duration_ns, offsets)
    counts = [len(times) for times, _, _ in schedules]
    times, sizes, _ = map(np.concatenate, zip(*schedules))
    order = _link_order(times, counts)
    times, sizes = times[order], sizes[order]
    station = np.repeat(np.arange(cfg.n_stations), counts)[order]

    n_bursts = len(times)
    fsize, overhead = cfg.fragment_size, cfg.overhead_bytes
    if n_bursts:  # raises if the headers cannot describe the largest burst
        fragment_layout(int(sizes.max()), fsize)
    capacity = fsize - HEADER_LEN
    frags = -(-sizes // capacity)
    last_wire = HEADER_LEN + sizes - (frags - 1) * capacity
    full_ser = _serialization_ns(fsize, overhead, cfg.link_rate_bps)
    fragments_sent = int(frags.sum())
    # no link time passes the last burst's time plus every fragment's service and the delay
    if n_bursts and int(times[-1]) + (fragments_sent + 1) * full_ser + cfg.propagation_delay_ns >= 2**63:
        raise ParameterError(f"the run's link times pass 2**63 ns at {cfg.link_rate_bps} bit/s")
    service = (frags - 1) * full_ser + _serialization_ns(last_wire, overhead, cfg.link_rate_bps)

    if cfg.queue_limit:
        admitted, start, departure = _tail_drop_link(times, frags, service, full_ser, cfg.queue_limit)
        last_wire = np.where(admitted == frags, last_wire, fsize)
        service = departure - start
    else:
        # Lindley's recursion D_j = max(A_j, D_{j-1}) + S_j in closed form:
        # with C the cumulative service, D = C + max(0, max_{i<=j} A_i - C_{i-1})
        admitted = frags
        done = np.cumsum(service)
        departure = done + np.maximum(np.maximum.accumulate(times - done + service), 0)
        start = departure - service

    delivered, lost = admitted, None
    if cfg.loss_prob > 0:
        # over the fragments sent, in link order, tail-dropped ones included
        expected = cfg.loss_prob * fragments_sent
        hit = _loss_hits(RngStream(cfg.seed, _LOSS_STREAM_ID), cfg.loss_prob, fragments_sent,
                         int(expected + 4 * math.sqrt(expected)) + 16)
        sent_end = np.cumsum(frags)
        burst = np.searchsorted(sent_end, hit, side="right")
        index = hit - (sent_end - frags)[burst]  # within the burst
        if cfg.queue_limit:  # keep the draws of the admitted fragments, the first of each burst
            kept = index < admitted[burst]
            burst, index = burst[kept], index[kept]
        first = np.cumsum(admitted) - admitted  # each burst's first admitted fragment
        lost = first[burst] + index
        delivered = admitted - np.bincount(burst, minlength=n_bursts)

    live = delivered > 0
    outcome = np.where(live, np.where(delivered == frags, RECEIVED, DISCARDED), LOST)
    # an incomplete burst is discarded once a newer burst of its station
    # delivers a fragment; the last such burst of a station is still in flight
    last_live = np.full(cfg.n_stations, -1)
    np.maximum.at(last_live, station[live], np.flatnonzero(live))
    newest = last_live[last_live >= 0]
    outcome[newest[outcome[newest] == DISCARDED]] = IN_FLIGHT

    # the run ends at the last burst, the last departure or the last delivery,
    # whichever is latest; the link delivers in FIFO order, and fragment i of
    # a burst reaches its station at start + (i+1)*full_ser + prop
    end_time_ns = max(int(times[-1]), int(departure.max())) if n_bursts else 0
    if live.any():
        j = int(np.flatnonzero(live)[-1])
        i = int(admitted[j]) - 1
        if lost is not None:  # step back over the burst's last fragments that were lost
            k = int(np.searchsorted(lost, first[j] + i, side="right"))
            while k and lost[k - 1] == first[j] + i:
                k, i = k - 1, i - 1
        arrival = departure[j] if i == admitted[j] - 1 else start[j] + (i + 1) * full_ser
        end_time_ns = max(end_time_ns, int(arrival) + cfg.propagation_delay_ns)

    return SimulationLog(
        n_stations=cfg.n_stations,
        station=station,
        time_ns=times,
        burst_size=sizes,
        fragments=frags,
        admitted=admitted,
        delivered=delivered,
        start_ns=start,
        departure_ns=departure,
        outcome=outcome,
        fragment_lost=lost,
        fragments_sent=fragments_sent,
        fragments_lost=0 if lost is None else len(lost),
        fragments_queue_dropped=int((frags - admitted).sum()),
        # a burst with no fragment admitted adds 0 to both
        served_bytes=int(((admitted - 1) * (fsize + overhead) + last_wire + overhead).sum()),
        link_busy_ns=int(service.sum()),
        payload_bytes_received=int(sizes[outcome == RECEIVED].sum()),
        end_time_ns=end_time_ns,
        trace_metadata=trace_metadata,
    )


def _loss_hits(rng: RngStream, p: float, n: int, chunk: int) -> np.ndarray:
    """Sorted positions of the lost ones among ``n`` fragments, each lost
    with probability ``p``: geometric gaps ``floor(log U / log1p(-p)) + 1``
    by inversion (Devroye, *Non-Uniform Random Variate Generation*, 1986),
    the uniforms drawn ``chunk`` at a time, which does not change the gaps.
    A quotient past ``n + 2``, which ends the run either way, is capped
    there, so it stays finite for the tiniest ``p``.
    """
    scale = np.log1p(-p) if p < 1 else -np.inf  # at p = 1 every gap is 1
    hits, end = [], -1
    while end < n:
        gaps = np.floor(np.maximum(np.log(rng.uniform(chunk)), (n + 2) * scale) / scale).astype(np.int64) + 1
        hits.append(end + np.cumsum(gaps))
        end = int(hits[-1][-1])
    hits = np.concatenate(hits)
    return hits[: np.searchsorted(hits, n)]


def _tail_drop_link(times, frags, service, full_ser: int, limit: int):
    """Fragments admitted, service start and last departure of each burst
    through a queue of ``limit`` waiting fragments (start and departure are
    the arrival for a burst with none admitted). ``service`` is each burst's
    service time with every fragment admitted.

    A departure at instant t precedes an arrival at t and frees its slot.
    ``backlog`` counts the fragments of the bursts from ``head`` on, some of
    which may have left, so it bounds what waits or is in service; only an
    arrival that might not fit pops the departed bursts and counts the head
    burst's fragments that have left. The head has not departed, and no
    fragment serializes for longer than a full one, so that count,
    ``(now - start) // full_ser``, stays below the head's admitted count.
    """
    arrivals = times.tolist()
    counts, start, departure = frags.tolist(), arrivals.copy(), arrivals.copy()
    head = 0  # first burst not popped
    backlog = 0  # fragments admitted to the bursts from head on
    link_free = 0
    room = limit + 1  # waiting places plus the one in service
    for j, now, n, ser in zip(range(len(arrivals)), arrivals, counts, service.tolist()):
        if backlog + n > room:
            while head < j and departure[head] <= now:
                backlog -= counts[head]
                head += 1
            a = room - backlog
            if head < j:  # busy: the head burst's fragments that have left wait no more
                a += (now - start[head]) // full_ser
            if a < n:
                counts[j] = n = a
                if not a:
                    continue
                ser = a * full_ser
        begin = now if now > link_free else link_free
        start[j] = begin
        departure[j] = link_free = begin + ser
        backlog += n
    return np.array(counts, dtype=np.int64), np.array(start, dtype=np.int64), np.array(departure, dtype=np.int64)


def _fragment_summary(log: SimulationLog, cfg: ScenarioConfig) -> dict:
    """Count, mean, std and nearest-rank p95 of the delivered fragments'
    delays in O(bursts + losses). A burst's admitted fragment k <= m (from
    1) has delay ``base + k * full_ser``, on level ``base // full_ser + k`` of
    ``delay // full_ser``, and its last, the largest, ``last``. The sums are
    the progressions' and the lasts' less the lost delays; the p95's level is
    found by counting the values below many levels at once."""
    full_ser = _serialization_ns(cfg.fragment_size, cfg.overhead_bytes, cfg.link_rate_bps)
    prop = cfg.propagation_delay_ns
    served = log.admitted > 0
    m = log.admitted[served] - 1
    base = (log.start_ns + prop - log.time_ns)[served]
    last = (log.departure_ns + prop - log.time_ns)[served]
    lost = _ints()
    if log.fragment_lost is not None:
        ends = np.cumsum(m + 1)
        burst = np.searchsorted(ends, log.fragment_lost, side="right")
        k = log.fragment_lost - (ends - m - 1)[burst] + 1
        lost = np.sort(np.where(k > m[burst], last[burst], base[burst] + k * full_ser))
    n = int(m.sum()) + len(m) - len(lost)
    if not n:
        return {"count": 0, "mean_delay_ns": None, "std_delay_ns": None, "p95_delay_ns": None}

    def moments(b, j, z, x):  # each burst's sums of delays and of their squares, and the lost delays
        t1, t2 = j * (j + 1) // 2, j * (j + 1) * (2 * j + 1) // 6  # the sums of k and of k**2
        return j * b + t1 * full_ser + z, j * b * b + b * t1 * full_ser * 2 + t2 * full_ser * full_ser + z * z, x, x * x

    top = float(((m + 1) * last.astype(float) ** 2).max())  # no burst's sum of squares passes it
    [total], [total_sq], [lost_sum], [lost_sq] = exact_sums(top, moments, base, m, last, lost)
    mean, std = mean_std(n, total - lost_sum, total_sq - lost_sq)

    first = base // full_ser + 1  # the level of k = 1
    starts, stops, last = np.sort(first), np.sort(first + m), np.sort(last)
    start_sums, stop_sums = (np.concatenate(([0], np.cumsum(v))) for v in (starts, stops))
    rank = nearest_rank(95, n)
    lo, hi, under = 0, int(last[-1]) // full_ser + 1, 0
    while hi - lo > 1:  # under, the values below level lo, < rank <= the values below level hi
        # the values under level * full_ser: clip(level - first, 0, m) a burst, summed over sorted
        # starts and stops, plus the lasts, less the lost; terms may wrap in int64, the count fits
        levels = np.arange(lo, hi, -(-(hi - lo) // 64))
        i, e, at = np.searchsorted(starts, levels), np.searchsorted(stops, levels), levels * full_ser
        counts = (i - e) * levels - start_sums[i] + stop_sums[e] + np.searchsorted(last, at) - np.searchsorted(lost, at)
        i = int(np.searchsorted(counts, rank))  # at least 1, as counts[0] = under
        lo, under, hi = int(levels[i - 1]), int(counts[i - 1]), int(levels[i]) if i < len(levels) else hi
    # rank the values on level lo, dropping one per lost delay, equal ones at successive places
    k = lo - first + 1
    on = (k >= 1) & (k <= m)
    (a, c), (d, e) = (np.searchsorted(v, (lo * full_ser, hi * full_ser)) for v in (last, lost))
    values = np.sort(np.concatenate((base[on] + k[on] * full_ser, last[a:c])))
    gone = lost[d:e]
    values = np.delete(values, np.searchsorted(values, gone) + np.arange(len(gone)) - np.searchsorted(gone, gone))
    return {"count": n, "mean_delay_ns": mean, "std_delay_ns": std, "p95_delay_ns": int(values[rank - under - 1])}


def summarize(log: SimulationLog, cfg: ScenarioConfig) -> dict:
    """Aggregate a run log into the report ``simulate`` writes, in its key
    order, with ``trace_metadata`` only for a trace source.

    Burst delays are last-fragment arrival minus the burst timestamp and only
    successfully reassembled bursts contribute delay samples; fragment delays
    cover every delivered fragment.
    """
    n = log.n_stations
    # outcomes[s, o]: bursts of station s with outcome o
    outcomes = np.bincount(log.station * 4 + log.outcome, minlength=4 * n).reshape(n, 4)
    count, outcomes = outcomes[:, RECEIVED], outcomes.tolist()
    frags_sent = np.bincount(log.station, log.fragments, minlength=n).tolist()
    frags_delivered = np.bincount(log.station, log.delivered, minlength=n).tolist()
    received = log.outcome == RECEIVED
    delays = (log.departure_ns + cfg.propagation_delay_ns - log.time_ns)[received]
    station = log.station[received]
    # per station: the delay sum, and the nearest-rank p95 from the delays sorted within each station
    delays = delays[np.lexsort((delays, station))]
    busy = count > 0
    heads = (np.cumsum(count) - count)[busy]
    n_received = len(delays)
    mean = std = p95 = None
    means = p95s = iter(())
    if n_received:
        sums, squares = exact_sums(int(delays.max()) ** 2, lambda x: (x, x * x), delays, heads=heads)
        mean, std = mean_std(n_received, sum(sums), sum(squares))
        p95 = percentile(delays, 95)
        means = (float(total) / c for total, c in zip(sums, count[busy].tolist()))  # as mean_std takes it
        p95s = iter(delays[heads + nearest_rank(95, count[busy]) - 1].tolist())
    per_station = []
    for idx, counts in enumerate(outcomes):
        per_station.append(
            {
                "station": idx,
                "bursts_sent": sum(counts),
                "bursts_received": counts[RECEIVED],
                "bursts_discarded": counts[DISCARDED],
                "bursts_lost": counts[LOST],
                "bursts_in_flight": counts[IN_FLIGHT],
                "fragments_sent": int(frags_sent[idx]),
                "fragments_delivered": int(frags_delivered[idx]),
                "mean_burst_delay_ns": next(means) if counts[RECEIVED] else None,
                "p95_burst_delay_ns": next(p95s) if counts[RECEIVED] else None,
            }
        )
    sent = len(log.outcome)
    burst = {
        "count": sent,
        "received": n_received,
        "failed": sum(o[DISCARDED] for o in outcomes),
        "lost": sum(o[LOST] for o in outcomes),
        "in_flight": sum(o[IN_FLIGHT] for o in outcomes),
        "mean_delay_ns": mean,
        "std_delay_ns": std,
        "p95_delay_ns": p95,
        "success_ratio": (n_received / sent) if sent else None,
    }
    report = {
        "config": cfg.to_dict(),
        "rng_algorithm": RNG_ALGORITHM,
        "fragment": _fragment_summary(log, cfg),
        "burst": burst,
        "link": {
            "fragments_sent": log.fragments_sent,
            "fragments_lost": log.fragments_lost,
            "fragments_queue_dropped": log.fragments_queue_dropped,
            "served_bytes": log.served_bytes,
            "busy_ns": log.link_busy_ns,
        },
        "throughput_mbps": log.payload_bytes_received * 8 / cfg.duration_s / 1e6,
        "per_station": per_station,
    }
    if log.trace_metadata is not None:
        report["trace_metadata"] = log.trace_metadata
    return report


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Simulate one scenario and return its metrics report, as :func:`summarize` builds it."""
    return summarize(simulate(cfg), cfg)

