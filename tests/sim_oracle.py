"""Reference link simulator for differential tests; not used by the package.

``simulate_reference`` is the per-fragment event-heap loop that
``vrburst.sim.simulate`` replaced with a burst-level recursion: every
fragment becomes a LINK_RX, LINK_DONE and SINK_RX event, carries a validated
header and passes through a real :class:`~vrburst.wire.BurstReassembler`.
Events run in (time, insertion sequence) order. It is slow and obviously
faithful to the model, which is what an oracle should be.

It logs per-fragment lists (:class:`SimulationLog`, the log the package kept
before it moved to per-burst columns), and ``summarize_reference`` is the
list-based aggregation the package ran on that log, with the means and stds
of ``statistics``. A fragment's loss is a countdown of the geometric gaps
the package draws, one uniform at a time from the same stream and through
the same numpy ufuncs, so an ulp of ``log`` cannot move a floor.

``fragment_delays`` expands the package's per-burst columns into every
delivered fragment's delay, the list its closed-form summary stands for.
"""

from __future__ import annotations

import heapq
import math
import statistics
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from vrburst.generator import NS_PER_S, build_generators
from vrburst.rv import RNG_ALGORITHM, RngStream
from vrburst.sim import _LOSS_STREAM_ID, ScenarioConfig, SimulationLog as BurstLog, _serialization_ns
from vrburst.wire import HEADER_LEN, BurstDiscarded, BurstReassembler, BurstReceived, fragment_burst

@dataclass
class StationLog:
    """Per-station counters and the delays of its received bursts."""

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
    """Delay samples in delivery order, per-station counters and link counters."""

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


class GeometricLoss:
    """Per-fragment losses with probability ``p``: a countdown of geometric
    gaps ``floor(log U / log1p(-p)) + 1``. A quotient past 2**62 is capped
    there, past any run, which keeps it finite for the tiniest ``p``."""

    def __init__(self, rng: RngStream, p: float):
        self.rng = rng
        self.scale = np.log1p(-p) if p < 1 else -np.inf
        self.left = self._gap()

    def _gap(self) -> int:
        return int(np.floor(np.maximum(np.log(self.rng.uniform()), 2.0**62 * self.scale) / self.scale)) + 1

    def __call__(self) -> bool:
        """Whether the next fragment is lost."""
        self.left -= 1
        if self.left:
            return False
        self.left = self._gap()
        return True


# event kinds, dequeued in (time, insertion sequence) order
_EV_BURST = 0
_EV_LINK_RX = 1
_EV_LINK_DONE = 2
_EV_SINK_RX = 3


def simulate_reference(cfg: ScenarioConfig) -> SimulationLog:
    """Run the event loop and collect the raw log."""
    duration_ns = round(cfg.duration_s * NS_PER_S)
    generators, trace_metadata = build_generators(
        cfg.generator, cfg.n_stations, cfg.seed, cfg.duration_s, cfg.constants
    )
    loss = GeometricLoss(RngStream(cfg.seed, _LOSS_STREAM_ID), cfg.loss_prob) if cfg.loss_prob > 0 else None
    reassemblers = [BurstReassembler() for _ in range(cfg.n_stations)]
    log = SimulationLog(stations=[StationLog() for _ in range(cfg.n_stations)])
    log.trace_metadata = trace_metadata

    heap: list = []
    next_event_id = 0

    def push(time_ns: int, kind: int, payload) -> None:
        nonlocal next_event_id
        heapq.heappush(heap, (time_ns, next_event_id, kind, payload))
        next_event_id += 1

    offsets = cfg.station_start_offsets_ns or [0] * cfg.n_stations
    for station, offset in enumerate(offsets):
        if offset < duration_ns and generators[station].has_next_burst():
            push(offset, _EV_BURST, station)

    burst_seq = [0] * cfg.n_stations
    link_busy = False
    queue: deque = deque()  # waiting fragments; the one in service is not queued

    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        log.end_time_ns = now

        if kind == _EV_BURST:
            station = payload
            gen = generators[station]
            desc = gen.generate_burst()
            fragments = fragment_burst(
                burst_seq[station] % 2**32, desc.burst_size, now, cfg.fragment_size
            )
            burst_seq[station] += 1
            log.stations[station].bursts_sent += 1
            for frag in fragments:
                lost = loss is not None and loss()
                log.fragments_sent += 1
                log.stations[station].fragments_sent += 1
                push(now, _EV_LINK_RX, (station, frag, lost))
            # clamp zero periods to 1 ns so a pathological generator cannot
            # stall simulated time
            next_ns = now + max(1, desc.next_period_ns)
            if next_ns < duration_ns and gen.has_next_burst():
                push(next_ns, _EV_BURST, station)

        elif kind == _EV_LINK_RX:
            if link_busy:
                if cfg.queue_limit and len(queue) >= cfg.queue_limit:
                    log.fragments_queue_dropped += 1
                else:
                    queue.append(payload)
            else:
                link_busy = True
                ser = _serialization_ns(HEADER_LEN + payload[1].payload_len, cfg.overhead_bytes, cfg.link_rate_bps)
                push(now + ser, _EV_LINK_DONE, (payload, ser))

        elif kind == _EV_LINK_DONE:
            item, ser = payload
            station, frag, lost = item
            log.served_bytes += HEADER_LEN + frag.payload_len + cfg.overhead_bytes
            log.link_busy_ns += ser
            if lost:
                log.fragments_lost += 1
            else:
                push(now + cfg.propagation_delay_ns, _EV_SINK_RX, item)
            if queue:
                nxt = queue.popleft()
                ser = _serialization_ns(HEADER_LEN + nxt[1].payload_len, cfg.overhead_bytes, cfg.link_rate_bps)
                push(now + ser, _EV_LINK_DONE, (nxt, ser))
            else:
                link_busy = False

        else:  # _EV_SINK_RX
            station, frag, _ = payload
            delay = now - frag.header.timestamp_ns
            log.fragment_delays_ns.append(delay)
            log.stations[station].fragments_delivered += 1
            for event in reassemblers[station].on_fragment(frag.header, now, frag.payload_len):
                if isinstance(event, BurstReceived):
                    log.burst_delays_ns.append(event.delay_ns)
                    log.stations[station].burst_delays_ns.append(event.delay_ns)
                    log.stations[station].bursts_received += 1
                    log.payload_bytes_received += event.payload_bytes
                elif isinstance(event, BurstDiscarded):
                    log.stations[station].bursts_discarded += 1

    # outcomes that raise no reassembler event: bursts that delivered no
    # fragment, and the incomplete burst a reassembler still holds
    for st, reassembler in zip(log.stations, reassemblers):
        counters = reassembler.counters
        st.bursts_lost = st.bursts_sent - counters.bursts_started
        st.bursts_in_flight = counters.bursts_started - counters.bursts_received - counters.bursts_failed
    return log


def _percentile(samples, p):
    return sorted(samples)[math.ceil(p * len(samples) / 100.0) - 1]


def delay_summary(delays) -> dict:
    """Count, mean, std and nearest-rank p95 of a list of delays."""
    if not delays:
        return {"count": 0, "mean_delay_ns": None, "std_delay_ns": None, "p95_delay_ns": None}
    return {
        "count": len(delays),
        "mean_delay_ns": statistics.fmean(delays),
        "std_delay_ns": statistics.stdev(delays) if len(delays) > 1 else 0.0,
        "p95_delay_ns": _percentile(delays, 95),
    }


def summarize_reference(log: SimulationLog, cfg: ScenarioConfig) -> dict:
    """Aggregate a per-fragment log into the report ``vrburst.sim.summarize`` writes."""
    sent = sum(s.bursts_sent for s in log.stations)
    received = sum(s.bursts_received for s in log.stations)
    burst = delay_summary(log.burst_delays_ns)
    burst = {
        "count": sent,
        "received": received,
        "failed": sum(s.bursts_discarded for s in log.stations),
        "lost": sum(s.bursts_lost for s in log.stations),
        "in_flight": sum(s.bursts_in_flight for s in log.stations),
        "mean_delay_ns": burst["mean_delay_ns"],
        "std_delay_ns": burst["std_delay_ns"],
        "p95_delay_ns": burst["p95_delay_ns"],
        "success_ratio": (received / sent) if sent else None,
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
                "mean_burst_delay_ns": statistics.fmean(delays) if delays else None,
                "p95_burst_delay_ns": _percentile(delays, 95) if delays else None,
            }
        )
    report = {
        "config": cfg.to_dict(),
        "rng_algorithm": RNG_ALGORITHM,
        "fragment": delay_summary(log.fragment_delays_ns),
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


def fragment_delays(log: BurstLog, cfg: ScenarioConfig) -> np.ndarray:
    """Delay of every fragment ``vrburst.sim.simulate``'s log delivered, in
    the order the link delivered them.

    The delays are whole float64 numbers while every value the expansion
    adds up stays below 2**52 ns, where float64 holds it exactly: the run's
    end plus the propagation delay, and ``(fragments + 1) * full_ser``.
    Otherwise they are int64.
    """
    admitted = log.admitted
    full_ser = _serialization_ns(cfg.fragment_size, cfg.overhead_bytes, cfg.link_rate_bps)
    prop = cfg.propagation_delay_ns
    ends = np.cumsum(admitted)
    total = int(ends[-1]) if len(ends) else 0
    dtype = np.float64 if max(log.end_time_ns + prop, (total + 1) * full_ser) < 2**52 else np.int64
    # fragment k overall, the i-th of its burst, has delay
    # start + (i+1)*full_ser + prop - time, and i + 1 = k + 1 - (end - admitted)
    delays = np.repeat((log.start_ns + prop - log.time_ns - (ends - admitted) * full_ser).astype(dtype), admitted)
    delays += np.arange(full_ser, (total + 1) * full_ser, full_ser, dtype=dtype)
    served = admitted > 0
    delays[ends[served] - 1] = (log.departure_ns + prop - log.time_ns)[served]
    return delays if log.fragment_lost is None else np.delete(delays, log.fragment_lost)
