"""Reference burst reassembler for differential tests; not used by the package.

``BurstReassembler`` is the per-fragment state machine that
``vrburst.wire.BurstReassembler.on_datagrams`` replaced with one pass over a
read's bytes: it takes one decoded :class:`~vrburst.wire.FragmentHeader` at a
time, keeps the first header of the current burst as that header, and returns
a fresh list of events per fragment, :class:`~vrburst.wire.LateFragmentIgnored`
included. A fragment that disagrees with its burst's first header raises
:class:`~vrburst.wire.HeaderError` and is counted nowhere.

``receive`` feeds it one datagram at a time, each decoded by
:func:`~vrburst.wire.decode_header`, the way ``vrburst recv`` did before reads
were reassembled whole, and counts the datagrams that fail to decode or
disagree as malformed.
"""

from __future__ import annotations

from dataclasses import replace

from vrburst.wire import (
    HEADER_LEN,
    BurstDiscarded,
    BurstReceived,
    FragmentHeader,
    HeaderError,
    LateFragmentIgnored,
    ReassemblyCounters,
    decode_header,
)

_U32 = 2**32


class BurstReassembler:
    def __init__(self):
        self._first: FragmentHeader | None = None  # first header of the current burst
        self._seen: set[int] = set()  # its fragment indices that arrived
        self._payload = 0  # their payload bytes
        self._counters = ReassemblyCounters()

    @property
    def counters(self) -> ReassemblyCounters:
        return replace(self._counters)

    def on_fragment(self, header: FragmentHeader, arrival_ns: int, payload_len: int = 0) -> list:
        first = self._first
        # RFC 1982 serial order on the u32 sequence: newer iff ahead by 1 .. 2**31 - 1
        ahead = 1 if first is None else (header.burst_seq - first.burst_seq) % _U32
        # header[2:] is (frag_count, burst_size, timestamp_ns)
        if not ahead and header[2:] != first[2:]:
            raise HeaderError(
                f"fragment {header.frag_index} of burst {header.burst_seq} disagrees with the "
                f"burst's first header on (frag_count, burst_size, timestamp_ns): "
                f"{header[2:]} != {first[2:]}"
            )
        counters = self._counters
        counters.fragments_received += 1
        counters.bytes_received += payload_len
        if ahead >= _U32 // 2:
            return [LateFragmentIgnored(header.burst_seq, header.frag_index)]

        events: list = []
        if ahead:
            if first is not None and len(self._seen) < first.frag_count:
                counters.bursts_failed += 1
                events.append(
                    BurstDiscarded(
                        burst_seq=first.burst_seq,
                        burst_size=first.burst_size,
                        frag_count=first.frag_count,
                        fragments_received=len(self._seen),
                    )
                )
            self._first = first = header
            self._seen = set()
            self._payload = 0
            counters.bursts_started += 1

        seen = self._seen
        if header.frag_index in seen:
            counters.fragments_duplicate += 1
            return events  # burst outcome unchanged
        seen.add(header.frag_index)
        self._payload += payload_len
        if len(seen) == first.frag_count:
            counters.bursts_received += 1
            events.append(
                BurstReceived(
                    burst_seq=first.burst_seq,
                    burst_size=first.burst_size,
                    frag_count=first.frag_count,
                    delay_ns=arrival_ns - first.timestamp_ns,
                    payload_bytes=self._payload,
                )
            )
        return events


def receive(reassembler: BurstReassembler, datagrams, arrival_ns: int) -> tuple[list, int, int]:
    """Datagrams that arrived together, one at a time: ``(burst events, malformed, late)``."""
    events: list = []
    malformed = late = 0
    for datagram in datagrams:
        try:
            header = decode_header(datagram)
            out = reassembler.on_fragment(header, arrival_ns, len(datagram) - HEADER_LEN)
        except HeaderError:
            malformed += 1
            continue
        for event in out:
            if isinstance(event, LateFragmentIgnored):
                late += 1
            else:
                events.append(event)
    return events, malformed, late
