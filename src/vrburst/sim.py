"""Deterministic bottleneck-link scenario runner.

N stations each run a burst generator and hand every burst, all of its
fragments at once, to a shared FIFO bottleneck link at its generation instant.
The link serves one fragment at a time for ``(wire + overhead) * 8 /
link_rate`` (rounded up to whole nanoseconds) and delivers to the station
after the propagation delay. Random losses corrupt fragments on the link (they
still consume link time); a finite queue tail-drops arrivals instead.

A burst's fragments arrive together and leave back to back, so the link is
computed per burst with Lindley's recursion: burst j arriving at ``A_j``
starts service at ``max(A_j, D_{j-1})``, ``D_{j-1}`` being the departure of
the previous burst's last admitted fragment. Bursts enter in (time,
generation order); a departure at instant t precedes an arrival at t and frees
its queue slot for it. Each burst draws one loss uniform per fragment when it
is generated, tail-dropped fragments included.

Time is integer nanoseconds end to end, so a (config, seed) pair always
produces the same report. Stations stop generating at the configured duration
and the link then drains; delivered stragglers still count toward the metrics.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import compress, count

import numpy as np

from .generator import NS_PER_S, GeneratorConfig, build_generators
from .model import DEFAULT_CONSTANTS, VrModelConstants
from .rv import RNG_ALGORITHM, ParameterError, RngStream
from .wire import DEFAULT_FRAGMENT_SIZE, HEADER_LEN, fragment_layout
from .wire import fragment_burst  # noqa: F401  (perfbench/tracer.py patches it under this name)

# Stream ids carved out of one scenario seed: 0 for link losses, i+1 for
# station i's generator.
_LOSS_STREAM_ID = 0


def percentile(samples, p: float):
    """Nearest-rank percentile: the sorted sample at index ceil(p*n/100)."""
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample set is undefined")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    rank = math.ceil(p * n / 100.0)
    return sorted(samples)[rank - 1]


@dataclass
class ScenarioConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    n_stations: int = 1
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
        if self.link_rate_bps <= 0:
            raise ParameterError(f"link rate must be positive, got {self.link_rate_bps}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ParameterError(f"loss probability must lie in [0, 1], got {self.loss_prob}")
        if self.queue_limit < 0:
            raise ParameterError(f"queue limit must be non-negative, got {self.queue_limit}")
        if self.duration_s <= 0:
            raise ParameterError(f"duration must be positive, got {self.duration_s}")
        if self.propagation_delay_ns < 0 or self.overhead_bytes < 0:
            raise ParameterError("propagation delay and overhead must be non-negative")
        if self.station_start_offsets_ns is not None and len(self.station_start_offsets_ns) != self.n_stations:
            raise ParameterError("station_start_offsets_ns must list one offset per station")

    def to_dict(self) -> dict:
        return {
            "n_stations": self.n_stations,
            "generator": self.generator.to_dict(),
            "link_rate_bps": self.link_rate_bps,
            "propagation_delay_ns": self.propagation_delay_ns,
            "overhead_bytes": self.overhead_bytes,
            "loss_prob": self.loss_prob,
            "queue_limit": self.queue_limit,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "fragment_size": self.fragment_size,
            "station_start_offsets_ns": self.station_start_offsets_ns,
            "constants": self.constants.to_dict(),
        }


@dataclass
class StationLog:
    """Per-station counters. Every sent burst ends received, lost (no fragment
    delivered), discarded (incomplete, and a newer burst delivered a fragment)
    or in flight (incomplete, and no newer burst delivered one)."""

    bursts_sent: int = 0
    bursts_received: int = 0
    bursts_discarded: int = 0
    bursts_lost: int = 0
    bursts_in_flight: int = 0
    fragments_sent: int = 0
    fragments_delivered: int = 0
    burst_delays_ns: list[int] = field(default_factory=list)


@dataclass
class SimulationLog:
    """Raw per-run samples and counters, aggregated by :func:`summarize`."""

    fragment_delays_ns: list[int] = field(default_factory=list)
    burst_delays_ns: list[int] = field(default_factory=list)
    stations: list[StationLog] = field(default_factory=list)
    fragments_sent: int = 0
    fragments_lost: int = 0
    fragments_queue_dropped: int = 0
    served_bytes: int = 0
    link_busy_ns: int = 0
    payload_bytes_received: int = 0
    end_time_ns: int = 0
    trace_metadata: dict | None = None

    @property
    def bursts_sent(self) -> int:
        return sum(s.bursts_sent for s in self.stations)

    @property
    def bursts_received(self) -> int:
        return sum(s.bursts_received for s in self.stations)

    @property
    def bursts_discarded(self) -> int:
        return sum(s.bursts_discarded for s in self.stations)


def _serialization_ns(wire_bytes: int, overhead: int, link_rate_bps: float) -> int:
    bits = (wire_bytes + overhead) * 8
    if float(link_rate_bps).is_integer():
        rate = int(link_rate_bps)
        return -(-(bits * NS_PER_S) // rate)
    return math.ceil(bits * NS_PER_S / link_rate_bps)


def simulate(cfg: ScenarioConfig) -> SimulationLog:
    """Run the scenario burst by burst and collect the raw log."""
    duration_ns = round(cfg.duration_s * NS_PER_S)
    generators, trace_metadata = build_generators(
        cfg.generator, cfg.n_stations, cfg.seed, cfg.duration_s, cfg.constants
    )
    loss_rng = RngStream(cfg.seed, _LOSS_STREAM_ID) if cfg.loss_prob > 0 else None
    log = SimulationLog(stations=[StationLog() for _ in range(cfg.n_stations)])
    log.trace_metadata = trace_metadata
    limit, prop, overhead = cfg.queue_limit, cfg.propagation_delay_ns, cfg.overhead_bytes
    full_ser = _serialization_ns(cfg.fragment_size, overhead, cfg.link_rate_bps)

    # each station's next burst, popped in (time, push sequence) order
    offsets = cfg.station_start_offsets_ns or [0] * cfg.n_stations
    schedules = [gen.schedule(duration_ns, offset) for gen, offset in zip(generators, offsets)]
    heap: list = []
    pushes = count()

    def push_next(station: int) -> None:
        entry = next(schedules[station], None)
        if entry is not None:
            heapq.heappush(heap, (entry[0], next(pushes), station, entry[1]))

    for station in range(cfg.n_stations):
        push_next(station)

    link_free = 0  # departure of the last admitted fragment
    last_arrival = 0  # sink arrival of the last delivered fragment
    backlog: deque = deque()  # (start, admitted, end) of bursts not fully departed
    backlog_frags = 0
    now = 0

    while heap:
        now, _, station, desc = heapq.heappop(heap)
        n_frags, last_payload = fragment_layout(desc.burst_size, cfg.fragment_size)
        lost = loss_rng.uniform(n_frags) < cfg.loss_prob if loss_rng is not None else None
        st = log.stations[station]
        st.bursts_sent += 1
        st.fragments_sent += n_frags
        log.fragments_sent += n_frags
        push_next(station)

        admitted = n_frags
        if limit:
            while backlog and backlog[0][2] <= now:
                backlog_frags -= backlog.popleft()[1]
            if backlog:  # busy: every fragment not yet departed waits but the one in service
                head_start, head_admitted, _ = backlog[0]
                sent = min(head_admitted - 1, (now - head_start) // full_ser)
                admitted = min(n_frags, limit - (backlog_frags - sent - 1))
            else:
                admitted = min(n_frags, limit + 1)
            log.fragments_queue_dropped += n_frags - admitted
            if not admitted:
                st.bursts_lost += 1
                continue

        start = now if now > link_free else link_free
        last_wire = HEADER_LEN + last_payload if admitted == n_frags else cfg.fragment_size
        last_ser = _serialization_ns(last_wire, overhead, cfg.link_rate_bps)
        link_free = start + (admitted - 1) * full_ser + last_ser
        log.link_busy_ns += link_free - start
        log.served_bytes += (admitted - 1) * (cfg.fragment_size + overhead) + last_wire + overhead
        if limit:
            backlog.append((start, admitted, link_free))
            backlog_frags += admitted

        # fragment i of the burst reaches the station at start + (i+1)*full_ser + prop
        first = start + full_ser + prop - now
        delays = list(range(first, first + (admitted - 1) * full_ser, full_ser))
        delays.append(link_free + prop - now)
        if lost is not None:
            delays = list(compress(delays, (~lost[:admitted]).tolist()))
            log.fragments_lost += admitted - len(delays)
        if not delays:
            st.bursts_lost += 1
            continue
        log.fragment_delays_ns.extend(delays)
        last_arrival = now + delays[-1]
        st.fragments_delivered += len(delays)
        if st.bursts_in_flight:  # a newer burst's fragment discards the incomplete one
            st.bursts_discarded += 1
        st.bursts_in_flight = int(len(delays) < n_frags)
        if not st.bursts_in_flight:
            log.burst_delays_ns.append(delays[-1])
            st.burst_delays_ns.append(delays[-1])
            st.bursts_received += 1
            log.payload_bytes_received += desc.burst_size

    log.end_time_ns = max(now, link_free, last_arrival)
    return log


def _delay_summary(delays) -> dict:
    if not delays:
        return {"count": 0, "mean_delay_ns": None, "std_delay_ns": None, "p95_delay_ns": None}
    arr = np.asarray(delays, dtype=float)
    return {
        "count": len(delays),
        "mean_delay_ns": float(arr.mean()),
        "std_delay_ns": float(arr.std()),
        "p95_delay_ns": percentile(delays, 95),
    }


@dataclass
class MetricsReport:
    """Aggregated fragment- and burst-level metrics for one scenario run."""

    config: dict
    rng_algorithm: str
    fragment: dict
    burst: dict
    link: dict
    throughput_mbps: float | None
    per_station: list
    trace_metadata: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)  # field order is the report's key order
        if self.trace_metadata is None:
            del out["trace_metadata"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def summarize(log: SimulationLog, cfg: ScenarioConfig) -> MetricsReport:
    """Aggregate a raw run log into a :class:`MetricsReport`.

    Burst delays are last-fragment arrival minus the burst timestamp and only
    successfully reassembled bursts contribute delay samples; fragment delays
    cover every delivered fragment.
    """
    sent = log.bursts_sent
    burst = _delay_summary(log.burst_delays_ns)
    burst = {
        "count": sent,
        "received": log.bursts_received,
        "failed": log.bursts_discarded,
        "lost": sum(s.bursts_lost for s in log.stations),
        "in_flight": sum(s.bursts_in_flight for s in log.stations),
        "mean_delay_ns": burst["mean_delay_ns"],
        "std_delay_ns": burst["std_delay_ns"],
        "p95_delay_ns": burst["p95_delay_ns"],
        "success_ratio": (log.bursts_received / sent) if sent else None,
    }
    per_station = []
    for idx, st in enumerate(log.stations):
        delays = st.burst_delays_ns
        per_station.append(
            {
                "station": idx,
                "bursts_sent": st.bursts_sent,
                "bursts_received": st.bursts_received,
                "bursts_discarded": st.bursts_discarded,
                "bursts_lost": st.bursts_lost,
                "bursts_in_flight": st.bursts_in_flight,
                "fragments_sent": st.fragments_sent,
                "fragments_delivered": st.fragments_delivered,
                "mean_burst_delay_ns": float(np.mean(delays)) if delays else None,
                "p95_burst_delay_ns": percentile(delays, 95) if delays else None,
            }
        )
    return MetricsReport(
        config=cfg.to_dict(),
        rng_algorithm=RNG_ALGORITHM,
        fragment=_delay_summary(log.fragment_delays_ns),
        burst=burst,
        link={
            "fragments_sent": log.fragments_sent,
            "fragments_lost": log.fragments_lost,
            "fragments_queue_dropped": log.fragments_queue_dropped,
            "served_bytes": log.served_bytes,
            "busy_ns": log.link_busy_ns,
        },
        throughput_mbps=log.payload_bytes_received * 8 / cfg.duration_s / 1e6,
        per_station=per_station,
        trace_metadata=log.trace_metadata,
    )


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Simulate one scenario and return its metrics report."""
    return summarize(simulate(cfg), cfg)


__all__ = [
    "GeneratorConfig",
    "MetricsReport",
    "ScenarioConfig",
    "SimulationLog",
    "StationLog",
    "percentile",
    "run_scenario",
    "simulate",
    "summarize",
]
