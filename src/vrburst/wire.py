"""Fragment wire format and best-effort burst reassembly.

Every fragment carries a fixed 24-byte header (big-endian, fields in wire
order): burst sequence number (u32), fragment index (u16), fragment count
(u16), burst size in bytes (u64), sender timestamp in nanoseconds (u64).
This header is the wire contract shared by the simulator and the live UDP
send/receive path.

Headers and fragments are tuples. A :class:`FragmentHeader` is checked when
it is constructed, not again when it is encoded or decoded:
:func:`decode_header` makes the only checks a 24-byte unpack can fail, and
:func:`fragment_burst` and :func:`pack_burst` check the fields a burst's
fragments share once per burst.

Reassembly is best effort: fragments of the current burst are collected in
any order, a burst completes only when every fragment index is present, and
the arrival of a newer burst discards an incomplete older one. The first
header of a burst that arrives fixes its count, size and timestamp; a later
fragment of that burst that disagrees is rejected. There is no
retransmission and at most one in-progress burst per flow.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass, replace

HEADER_LEN = 24
# Observed VR streams fragment frames into packets of this size.
DEFAULT_FRAGMENT_SIZE = 1278

_HEADER = struct.Struct("!IHHQQ")
assert _HEADER.size == HEADER_LEN

_U16 = 2**16
_U32 = 2**32
_U64 = 2**64


class HeaderError(ValueError):
    """Raised when a header fails validation on construction or decode."""


class FragmentationError(ValueError):
    """Raised for impossible fragmentation requests."""


class FragmentHeader(
    namedtuple("FragmentHeader", "burst_seq frag_index frag_count burst_size timestamp_ns")
):
    """The 24-byte fragment header, field for field in wire order.

    Construction checks every field against its wire range and the index
    against the count, and so do ``_make`` and ``_replace``;
    ``tuple.__new__(FragmentHeader, fields)`` skips the checks, for fields
    that already satisfy them.
    """

    __slots__ = ()

    def __new__(cls, burst_seq: int, frag_index: int, frag_count: int, burst_size: int, timestamp_ns: int):
        if not 0 <= burst_seq < _U32:
            raise HeaderError(f"burst_seq out of u32 range: {burst_seq}")
        if not 0 <= frag_index < _U16:
            raise HeaderError(f"frag_index out of u16 range: {frag_index}")
        if not 1 <= frag_count < _U16:
            raise HeaderError(f"frag_count must be in [1, 65535]: {frag_count}")
        if frag_index >= frag_count:
            raise HeaderError(f"frag_index {frag_index} not below frag_count {frag_count}")
        if not 0 <= burst_size < _U64:
            raise HeaderError(f"burst_size out of u64 range: {burst_size}")
        if not 0 <= timestamp_ns < _U64:
            raise HeaderError(f"timestamp_ns out of u64 range: {timestamp_ns}")
        return tuple.__new__(cls, (burst_seq, frag_index, frag_count, burst_size, timestamp_ns))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def encode_header(header: FragmentHeader) -> bytes:
    """Serialize a header to its 24-byte wire form."""
    return _HEADER.pack(*header)


def decode_header(buf: bytes) -> FragmentHeader:
    """Parse the leading 24 bytes of ``buf``; validates the fragment fields."""
    if len(buf) < HEADER_LEN:
        raise HeaderError(f"buffer too small for header: {len(buf)} < {HEADER_LEN} bytes")
    fields = _HEADER.unpack_from(buf)
    # the unpack bounds every field; only the count and the index can be wrong
    if fields[2] < 1:
        raise HeaderError("frag_count must be at least 1")
    if fields[1] >= fields[2]:
        raise HeaderError(f"frag_index {fields[1]} not below frag_count {fields[2]}")
    return tuple.__new__(FragmentHeader, fields)


# One fragment: its header and the payload bytes after it; on the wire it
# takes HEADER_LEN + payload_len bytes.
Fragment = namedtuple("Fragment", "header payload_len")


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
    FragmentHeader(burst_seq, 0, count, burst_size, timestamp_ns)  # checks the shared fields once
    full = fragment_size - HEADER_LEN
    return [
        Fragment(
            tuple.__new__(FragmentHeader, (burst_seq, index, count, burst_size, timestamp_ns)),
            full if index < count - 1 else last,
        )
        for index in range(count)
    ]


def pack_burst(
    burst_seq: int,
    burst_size: int,
    timestamp_ns: int,
    fragment_size: int = DEFAULT_FRAGMENT_SIZE,
) -> bytearray:
    """A burst's datagrams back to back in one buffer, as the send path writes them.

    Datagram ``i`` starts at ``i * fragment_size``: its header, then zero
    payload. Every datagram is ``fragment_size`` bytes long but the last, which
    ends with the burst; the bytes are those of :func:`fragment_burst`'s
    fragments, each header encoded and followed by its payload of zeros.
    """
    count, last = fragment_layout(burst_size, fragment_size)
    FragmentHeader(burst_seq, 0, count, burst_size, timestamp_ns)  # checks the shared fields once
    buf = bytearray((count - 1) * fragment_size + HEADER_LEN + last)
    pack_into = _HEADER.pack_into
    for index in range(count):
        pack_into(buf, index * fragment_size, burst_seq, index, count, burst_size, timestamp_ns)
    return buf


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


@dataclass
class ReassemblyCounters:
    bursts_started: int = 0
    bursts_received: int = 0
    bursts_failed: int = 0
    fragments_received: int = 0
    fragments_duplicate: int = 0
    bytes_received: int = 0


class BurstReassembler:
    """Per-flow state machine turning fragment arrivals into burst events.

    ``on_fragment`` classifies every arrival: fragments of an older burst are
    ignored, duplicates of the current burst are ignored (and counted in
    ``counters.fragments_duplicate``), completing the current burst emits
    :class:`BurstReceived`, and the first fragment of a newer burst discards
    an incomplete current one (possibly emitting :class:`BurstDiscarded` and
    :class:`BurstReceived` from the same call when the newcomer is a
    single-fragment burst). Sequence numbers compare in RFC
    1982 serial order, so 0 follows 2**32 - 1; a burst exactly 2**31 ahead
    counts as older.

    The first header of the current burst to arrive stands for the whole
    burst: a later fragment of it whose count, size or timestamp differs is
    rejected with :class:`HeaderError` and counted nowhere.
    """

    def __init__(self):
        self._first: FragmentHeader | None = None  # first header of the current burst
        self._seen: set[int] = set()  # its fragment indices that arrived
        self._payload = 0  # their payload bytes
        self._counters = ReassemblyCounters()

    @property
    def counters(self) -> ReassemblyCounters:
        """A snapshot of the counters, which later fragments leave unchanged."""
        return replace(self._counters)

    def on_fragment(self, header: FragmentHeader, arrival_ns: int, payload_len: int = 0) -> list:
        """Process one fragment arrival; returns the events it triggered."""
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

