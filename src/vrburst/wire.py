"""Fragment wire format and best-effort burst reassembly.

Every fragment carries a fixed 24-byte header (big-endian, fields in wire
order): burst sequence number (u32), fragment index (u16), fragment count
(u16), burst size in bytes (u64), sender timestamp in nanoseconds (u64).
This header is the wire contract shared by the simulator and the live UDP
send/receive path.

Reassembly is best effort: fragments of the current burst are collected in
any order, a burst completes only when every fragment index is present, and
the arrival of a newer burst discards an incomplete older one. There is no
retransmission and at most one in-progress burst per flow.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

HEADER_LEN = 24
# Observed VR streams fragment frames into packets of this size.
DEFAULT_FRAGMENT_SIZE = 1278

_HEADER = struct.Struct("!IHHQQ")
assert _HEADER.size == HEADER_LEN

_U16 = 2**16
_U32 = 2**32
_U64 = 2**64


class HeaderError(ValueError):
    """Raised when a header fails validation on encode or decode."""


class FragmentationError(ValueError):
    """Raised for impossible fragmentation requests."""


@dataclass(frozen=True)
class FragmentHeader:
    burst_seq: int
    frag_index: int
    frag_count: int
    burst_size: int
    timestamp_ns: int

    def __post_init__(self):
        if not 0 <= self.burst_seq < _U32:
            raise HeaderError(f"burst_seq out of u32 range: {self.burst_seq}")
        if not 0 <= self.frag_index < _U16:
            raise HeaderError(f"frag_index out of u16 range: {self.frag_index}")
        if not 1 <= self.frag_count < _U16:
            raise HeaderError(f"frag_count must be in [1, 65535]: {self.frag_count}")
        if self.frag_index >= self.frag_count:
            raise HeaderError(
                f"frag_index {self.frag_index} not below frag_count {self.frag_count}"
            )
        if not 0 <= self.burst_size < _U64:
            raise HeaderError(f"burst_size out of u64 range: {self.burst_size}")
        if not 0 <= self.timestamp_ns < _U64:
            raise HeaderError(f"timestamp_ns out of u64 range: {self.timestamp_ns}")


def encode_header(header: FragmentHeader) -> bytes:
    """Serialize a header to its 24-byte wire form."""
    return _HEADER.pack(
        header.burst_seq,
        header.frag_index,
        header.frag_count,
        header.burst_size,
        header.timestamp_ns,
    )


def decode_header(buf: bytes) -> FragmentHeader:
    """Parse the leading 24 bytes of ``buf``; validates the fragment fields."""
    if len(buf) < HEADER_LEN:
        raise HeaderError(f"buffer too small for header: {len(buf)} < {HEADER_LEN} bytes")
    burst_seq, frag_index, frag_count, burst_size, timestamp_ns = _HEADER.unpack_from(buf)
    if frag_count < 1:
        raise HeaderError("frag_count must be at least 1")
    if frag_index >= frag_count:
        raise HeaderError(f"frag_index {frag_index} not below frag_count {frag_count}")
    return FragmentHeader(burst_seq, frag_index, frag_count, burst_size, timestamp_ns)


@dataclass(frozen=True)
class Fragment:
    header: FragmentHeader
    payload_len: int

    @property
    def wire_size(self) -> int:
        return HEADER_LEN + self.payload_len


def fragment_layout(burst_size: int, fragment_size: int) -> tuple[int, int]:
    """Fragment count and last-fragment payload of a burst, as ``(count, last)``.

    Payload capacity per fragment is ``fragment_size - 24``; all fragments but
    the last carry a full payload and the last carries the remainder. Raises
    :class:`FragmentationError` when the header leaves no room for payload or
    the count would overflow the u16 fragment-count field.
    """
    if fragment_size <= HEADER_LEN:
        raise FragmentationError(
            f"fragment_size must exceed the {HEADER_LEN}-byte header, got {fragment_size}"
        )
    if burst_size < 1:
        raise FragmentationError(f"burst size must be at least 1 byte, got {burst_size}")
    capacity = fragment_size - HEADER_LEN
    count = -(-burst_size // capacity)
    if count >= _U16:
        raise FragmentationError(
            f"burst of {burst_size} B needs {count} fragments at fragment_size "
            f"{fragment_size}, beyond the u16 fragment-count field"
        )
    return count, burst_size - (count - 1) * capacity


def fragment_burst(
    burst_seq: int,
    burst_size: int,
    timestamp_ns: int,
    fragment_size: int = DEFAULT_FRAGMENT_SIZE,
) -> list[Fragment]:
    """Split a burst into header-bearing fragments laid out by :func:`fragment_layout`.

    Every header shares the burst's sequence number, size, timestamp, and count.
    """
    count, last = fragment_layout(burst_size, fragment_size)
    payloads = [fragment_size - HEADER_LEN] * (count - 1) + [last]
    return [
        Fragment(FragmentHeader(burst_seq, index, count, burst_size, timestamp_ns), payload)
        for index, payload in enumerate(payloads)
    ]


# --- reassembly -------------------------------------------------------------


@dataclass(frozen=True)
class BurstReceived:
    burst_seq: int
    burst_size: int
    frag_count: int
    delay_ns: int
    payload_bytes: int


@dataclass(frozen=True)
class BurstDiscarded:
    burst_seq: int
    burst_size: int
    frag_count: int
    fragments_received: int


@dataclass(frozen=True)
class LateFragmentIgnored:
    burst_seq: int
    frag_index: int


@dataclass(frozen=True)
class ReassemblyCounters:
    bursts_started: int
    bursts_received: int
    bursts_failed: int
    fragments_received: int
    bytes_received: int


@dataclass
class _InProgress:
    frag_count: int
    burst_size: int
    timestamp_ns: int
    payloads: dict[int, int] = field(default_factory=dict)  # frag_index -> payload bytes
    complete: bool = False


class BurstReassembler:
    """Per-flow state machine turning fragment arrivals into burst events.

    ``on_fragment`` classifies every arrival: fragments of an older burst are
    ignored, duplicates of the current burst are ignored, completing the
    current burst emits :class:`BurstReceived`, and the first fragment of a
    newer burst discards an incomplete current one (possibly emitting
    :class:`BurstDiscarded` and :class:`BurstReceived` from the same call when
    the newcomer is a single-fragment burst).
    """

    def __init__(self):
        self._current_seq: int | None = None
        self._current: _InProgress | None = None
        self._started = 0
        self._received = 0
        self._failed = 0
        self._fragments = 0
        self._bytes = 0

    @property
    def counters(self) -> ReassemblyCounters:
        return ReassemblyCounters(
            bursts_started=self._started,
            bursts_received=self._received,
            bursts_failed=self._failed,
            fragments_received=self._fragments,
            bytes_received=self._bytes,
        )

    def on_fragment(self, header: FragmentHeader, arrival_ns: int, payload_len: int = 0) -> list:
        """Process one fragment arrival; returns the events it triggered."""
        self._fragments += 1
        self._bytes += payload_len
        events: list = []

        if self._current_seq is not None and header.burst_seq < self._current_seq:
            return [LateFragmentIgnored(header.burst_seq, header.frag_index)]

        if self._current_seq is None or header.burst_seq > self._current_seq:
            current = self._current
            if current is not None and not current.complete and current.payloads:
                self._failed += 1
                events.append(
                    BurstDiscarded(
                        burst_seq=self._current_seq,
                        burst_size=current.burst_size,
                        frag_count=current.frag_count,
                        fragments_received=len(current.payloads),
                    )
                )
            self._current_seq = header.burst_seq
            self._current = _InProgress(
                frag_count=header.frag_count,
                burst_size=header.burst_size,
                timestamp_ns=header.timestamp_ns,
            )
            self._started += 1

        current = self._current
        if current.complete or header.frag_index in current.payloads:
            return events  # duplicate; burst outcome unchanged
        current.payloads[header.frag_index] = payload_len
        if len(current.payloads) == current.frag_count:
            current.complete = True
            self._received += 1
            events.append(
                BurstReceived(
                    burst_seq=self._current_seq,
                    burst_size=current.burst_size,
                    frag_count=current.frag_count,
                    delay_ns=arrival_ns - current.timestamp_ns,
                    payload_bytes=sum(current.payloads.values()),
                )
            )
        return events


__all__ = [
    "BurstDiscarded",
    "BurstReassembler",
    "BurstReceived",
    "DEFAULT_FRAGMENT_SIZE",
    "Fragment",
    "FragmentHeader",
    "FragmentationError",
    "HEADER_LEN",
    "HeaderError",
    "LateFragmentIgnored",
    "ReassemblyCounters",
    "decode_header",
    "encode_header",
    "fragment_burst",
    "fragment_layout",
]
