"""Differential tests: one-pass reassembly of reads against the per-fragment oracle.

``vrburst.wire.BurstReassembler.on_datagrams`` takes a read's datagrams in one
pass over its bytes; ``wire_oracle`` decodes and reassembles them one at a
time, the way ``vrburst recv`` did before. On any datagram sequence both must
give the same burst events, malformed and late counts, and counters, read by
read. The sequences hold fragments of a few bursts with drops, duplicates and
reordering, at sequence numbers around 0, 2**31 and 2**32 and up to 2**31
apart; forged fragments that disagree with their burst's first header;
datagrams of 0 to 23 bytes; headers with a count of 0 or an index not below
their count. They are cut into reads wherever GRO could coalesce them: the
datagrams of a read share one segment size, and only the last may be shorter.
"""

import wire_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrburst.wire import HEADER_LEN, BurstReassembler, pack_burst

# burst sequence numbers: a base near a wrap and offsets up to 2**31 either way
BASES = [0, 2**31 - 2, 2**32 - 3]
OFFSETS = [0, 1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1]


def datagrams_of(seq, size, stamp, fragment_size):
    data = bytes(pack_burst(seq, size, stamp, fragment_size))
    return [data[i:i + fragment_size] for i in range(0, len(data), fragment_size)]


def field(datagram, start, stop, value):
    out = bytearray(datagram)
    out[start:stop] = value.to_bytes(stop - start, "big")
    return bytes(out)


@st.composite
def hostile(draw, datagram):
    """A datagram that decodes badly or disagrees with the burst ``datagram`` belongs to."""
    index, count = int.from_bytes(datagram[4:6], "big"), int.from_bytes(datagram[6:8], "big")
    kind = draw(st.sampled_from(["short", "count0", "index", "count", "size", "stamp"]))
    if kind == "short":
        return draw(st.binary(max_size=HEADER_LEN - 1))
    if kind == "count0":
        return field(datagram, 6, 8, 0)
    if kind == "index":
        return field(datagram, 4, 6, draw(st.integers(count, 2**16 - 1)))
    if kind == "count":  # still above the index, so it decodes
        return field(datagram, 6, 8, draw(st.integers(index + 1, 2**16 - 1).filter(lambda c: c != count)))
    start = 8 if kind == "size" else 16
    value = int.from_bytes(datagram[start:start + 8], "big")
    return field(datagram, start, start + 8, draw(st.integers(0, 2**64 - 1).filter(lambda v: v != value)))


@st.composite
def datagram_reads(draw):
    """Reads, each a list of datagrams that GRO could have coalesced."""
    fragment_size = draw(st.integers(HEADER_LEN + 1, 120))
    base = draw(st.sampled_from(BASES))
    sequence = []
    for _ in range(draw(st.integers(1, 4))):
        seq = (base + draw(st.sampled_from(OFFSETS))) % 2**32
        size = draw(st.integers(1, 6 * (fragment_size - HEADER_LEN)))
        burst = datagrams_of(seq, size, draw(st.integers(0, 2**20)), fragment_size)
        order = draw(st.permutations(burst)) if draw(st.booleans()) else burst
        sequence += [d for d in order if draw(st.integers(0, 4))]  # drops about one in five
    for _ in range(draw(st.integers(0, 4)) if sequence else 0):  # duplicates
        sequence.insert(draw(st.integers(0, len(sequence))), draw(st.sampled_from(sequence)))
    genuine = list(sequence)
    for _ in range(draw(st.integers(0, 3)) if genuine else 0):
        bad = draw(hostile(draw(st.sampled_from(genuine))))
        sequence.insert(draw(st.integers(0, len(sequence))), bad)

    reads = []
    for datagram in sequence:
        last = reads[-1] if reads else None
        # GRO appends to a read whose datagrams are all one segment long, and no longer one
        if (last and datagram and len(last[-1]) == len(last[0]) >= len(datagram)
                and draw(st.booleans())):
            last.append(datagram)
        else:
            reads.append([datagram])
    return reads


# a 3-fragment burst that loses a fragment and repeats one, split over two reads,
# then the first fragment of the next burst in the coalesced read
_burst, _follow = datagrams_of(7, 3000, 100, 1278), datagrams_of(8, 3000, 200, 1278)


@settings(max_examples=300, deadline=None)
@given(datagram_reads())
@example([[_burst[2]], [_burst[0], _burst[0], _follow[0]]])
def test_reads_reassemble_as_their_datagrams_one_at_a_time(reads):
    package, reference = BurstReassembler(), oracle.BurstReassembler()
    for k, read in enumerate(reads):
        arrival = 1_000 + 10 * k
        got = package.on_datagrams(b"".join(read), len(read[0]) or 1, arrival)
        assert got == oracle.receive(reference, read, arrival)
        assert package.counters == reference.counters

