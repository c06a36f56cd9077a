"""Reference link simulator for differential tests; not used by the package.

``simulate_reference`` is the per-fragment event-heap loop that
``vrburst.sim.simulate`` replaced with a burst-level recursion: every
fragment becomes a LINK_RX, LINK_DONE and SINK_RX event, carries a validated
header and passes through a real :class:`~vrburst.wire.BurstReassembler`.
Events run in (time, insertion sequence) order. It is slow and obviously
faithful to the model, which is what an oracle should be.
"""

from __future__ import annotations

import heapq
from collections import deque

from vrburst.rv import RngStream
from vrburst.sim import (
    _LOSS_STREAM_ID,
    NS_PER_S,
    ScenarioConfig,
    SimulationLog,
    StationLog,
    _build_generators,
    _serialization_ns,
)
from vrburst.wire import BurstDiscarded, BurstReassembler, BurstReceived, fragment_burst

# event kinds, dequeued in (time, insertion sequence) order
_EV_BURST = 0
_EV_LINK_RX = 1
_EV_LINK_DONE = 2
_EV_SINK_RX = 3


def simulate_reference(cfg: ScenarioConfig) -> SimulationLog:
    """Run the event loop and collect the raw log."""
    duration_ns = round(cfg.duration_s * NS_PER_S)
    generators, trace_metadata = _build_generators(cfg)
    loss_rng = RngStream(cfg.seed, _LOSS_STREAM_ID) if cfg.loss_prob > 0 else None
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
                lost = loss_rng is not None and loss_rng.uniform() < cfg.loss_prob
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
                ser = _serialization_ns(payload[1].wire_size, cfg.overhead_bytes, cfg.link_rate_bps)
                push(now + ser, _EV_LINK_DONE, (payload, ser))

        elif kind == _EV_LINK_DONE:
            item, ser = payload
            station, frag, lost = item
            log.served_bytes += frag.wire_size + cfg.overhead_bytes
            log.link_busy_ns += ser
            if lost:
                log.fragments_lost += 1
            else:
                push(now + cfg.propagation_delay_ns, _EV_SINK_RX, item)
            if queue:
                nxt = queue.popleft()
                ser = _serialization_ns(nxt[1].wire_size, cfg.overhead_bytes, cfg.link_rate_bps)
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
