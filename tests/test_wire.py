import random

import pytest

from vrburst.wire import (
    DEFAULT_FRAGMENT_SIZE,
    HEADER_LEN,
    BurstDiscarded,
    BurstReassembler,
    BurstReceived,
    FragmentHeader,
    FragmentationError,
    HeaderError,
    LateFragmentIgnored,
    decode_header,
    encode_header,
    fragment_burst,
    fragment_layout,
)


def random_header(rng):
    count = rng.randrange(1, 2**16)
    return FragmentHeader(
        burst_seq=rng.randrange(2**32),
        frag_index=rng.randrange(count),
        frag_count=count,
        burst_size=rng.randrange(2**64),
        timestamp_ns=rng.randrange(2**64),
    )


class TestHeaderCodec:
    def test_zero_header_bytes(self):
        blob = encode_header(FragmentHeader(0, 0, 1, 0, 0))
        expected = b"\x00" * 6 + b"\x00\x01" + b"\x00" * 16
        assert blob == expected

    def test_length_is_always_24(self):
        assert len(encode_header(FragmentHeader(1, 2, 5, 3000, 10**9))) == HEADER_LEN

    def test_round_trip(self):
        h = FragmentHeader(1, 2, 5, 3000, 10**9)
        assert decode_header(encode_header(h)) == h

    def test_random_round_trips(self):
        rng = random.Random(0xC0DEC)
        for _ in range(10_000):
            h = random_header(rng)
            assert decode_header(encode_header(h)) == h

    def test_decode_ignores_trailing_payload(self):
        h = FragmentHeader(7, 0, 1, 10, 123)
        assert decode_header(encode_header(h) + b"payload") == h

    def test_short_buffer_rejected(self):
        with pytest.raises(HeaderError, match="too small"):
            decode_header(b"\x00" * 23)

    def test_bad_fragment_fields_rejected(self):
        import struct

        blob = struct.pack("!IHHQQ", 0, 5, 5, 0, 0)  # index == count
        with pytest.raises(HeaderError):
            decode_header(blob)
        blob = struct.pack("!IHHQQ", 0, 0, 0, 0, 0)  # count == 0
        with pytest.raises(HeaderError):
            decode_header(blob)

    def test_header_field_ranges_validated(self):
        with pytest.raises(HeaderError):
            FragmentHeader(2**32, 0, 1, 0, 0)
        with pytest.raises(HeaderError):
            FragmentHeader(0, 3, 2, 0, 0)


class TestFragmentBurst:
    def test_three_kilobyte_burst_at_default_size(self):
        frags = fragment_burst(0, 3000, 0, DEFAULT_FRAGMENT_SIZE)
        assert [f.payload_len for f in frags] == [1254, 1254, 492]
        assert sum(f.payload_len for f in frags) == 3000
        assert all(f.wire_size <= DEFAULT_FRAGMENT_SIZE for f in frags)

    def test_headers_share_burst_fields(self):
        frags = fragment_burst(9, 3000, 777, 1278)
        assert [f.header.frag_index for f in frags] == [0, 1, 2]
        for f in frags:
            assert f.header.burst_seq == 9
            assert f.header.frag_count == 3
            assert f.header.burst_size == 3000
            assert f.header.timestamp_ns == 777

    def test_single_byte_burst(self):
        frags = fragment_burst(0, 1, 0, 1278)
        assert len(frags) == 1
        assert frags[0].payload_len == 1

    def test_exact_multiple_gives_equal_fragments(self):
        capacity = 1278 - HEADER_LEN
        frags = fragment_burst(0, 4 * capacity, 0, 1278)
        assert [f.payload_len for f in frags] == [capacity] * 4

    def test_tiny_fragment_size(self):
        frags = fragment_burst(0, 3, 0, 25)  # 1 payload byte per fragment
        assert len(frags) == 3

    def test_fragment_size_must_exceed_header(self):
        with pytest.raises(FragmentationError):
            fragment_burst(0, 100, 0, HEADER_LEN)

    def test_zero_burst_rejected(self):
        with pytest.raises(FragmentationError):
            fragment_burst(0, 0, 0, 1278)

    def test_fragment_count_overflow_rejected(self):
        with pytest.raises(FragmentationError, match="u16"):
            fragment_burst(0, 2**16 * 1254 + 1, 0, 1278)

    @pytest.mark.parametrize("burst_size, fragment_size", [(1, 1278), (1254, 1278), (1255, 1278),
                                                          (3000, 1278), (3, 25), (9999, 300)])
    def test_layout_matches_fragments(self, burst_size, fragment_size):
        frags = fragment_burst(0, burst_size, 0, fragment_size)
        assert fragment_layout(burst_size, fragment_size) == (len(frags), frags[-1].payload_len)


def deliver(reassembler, fragments, base_ns=1_000, step_ns=10):
    """Feed fragments in order, 10 ns apart; returns all emitted events."""
    events = []
    for k, frag in enumerate(fragments):
        events.extend(
            reassembler.on_fragment(frag.header, base_ns + k * step_ns, frag.payload_len)
        )
    return events


class TestReassembler:
    def test_in_order_burst_completes(self):
        r = BurstReassembler()
        frags = fragment_burst(7, 3000, 500, 1278)
        events = deliver(r, frags, base_ns=1_000)
        assert len(events) == 1
        ev = events[0]
        assert isinstance(ev, BurstReceived)
        assert ev.burst_seq == 7
        assert ev.delay_ns == (1_000 + 2 * 10) - 500  # last arrival minus timestamp
        assert ev.payload_bytes == 3000

    def test_unordered_fragments_complete(self):
        r = BurstReassembler()
        frags = fragment_burst(1, 3000, 0, 1278)
        events = deliver(r, [frags[2], frags[0], frags[1]])
        assert [type(e) for e in events] == [BurstReceived]

    def test_new_burst_discards_incomplete_previous(self):
        r = BurstReassembler()
        old = fragment_burst(7, 3000, 0, 1278)
        new = fragment_burst(8, 3000, 100, 1278)
        deliver(r, old[:2])
        events = deliver(r, new)
        assert isinstance(events[0], BurstDiscarded)
        assert events[0].burst_seq == 7
        assert events[0].fragments_received == 2
        assert isinstance(events[1], BurstReceived)
        assert events[1].burst_seq == 8

    def test_single_fragment_burst_completes_while_discarding(self):
        r = BurstReassembler()
        deliver(r, fragment_burst(0, 3000, 0, 1278)[:1])
        events = deliver(r, fragment_burst(1, 100, 0, 1278))
        assert [type(e) for e in events] == [BurstDiscarded, BurstReceived]

    def test_late_fragment_ignored(self):
        r = BurstReassembler()
        deliver(r, fragment_burst(5, 100, 0, 1278))
        events = deliver(r, fragment_burst(3, 100, 0, 1278))
        assert [type(e) for e in events] == [LateFragmentIgnored]
        assert r.counters.bursts_received == 1

    def test_duplicates_ignored_but_counted(self):
        r = BurstReassembler()
        frags = fragment_burst(0, 3000, 0, 1278)
        deliver(r, frags)
        before = r.counters
        events = deliver(r, frags[:1])  # replay a fragment of the completed burst
        assert events == []
        after = r.counters
        assert after.fragments_received == before.fragments_received + 1
        assert after.bursts_received == before.bursts_received

    def test_counters_after_one_burst(self):
        r = BurstReassembler()
        deliver(r, fragment_burst(0, 3000, 0, 1278))
        c = r.counters
        assert c.fragments_received == 3
        assert c.bursts_received == 1
        assert c.bursts_failed == 0
        assert c.bytes_received == 3000

    def test_counters_after_discard(self):
        r = BurstReassembler()
        deliver(r, fragment_burst(0, 3000, 0, 1278)[:2])
        deliver(r, fragment_burst(1, 3000, 0, 1278))
        c = r.counters
        assert c.bursts_received == 1
        assert c.bursts_failed == 1
        assert c.bursts_started == 2

    def test_lossless_streams_always_complete(self):
        rng = random.Random(99)
        r = BurstReassembler()
        n_bursts = 200
        received = 0
        for seq in range(n_bursts):
            size = rng.randrange(1, 20_000)
            events = deliver(r, fragment_burst(seq, size, seq * 1000, 1278))
            got = [e for e in events if isinstance(e, BurstReceived)]
            assert len(got) == 1
            assert got[0].payload_bytes == size
            assert not any(isinstance(e, BurstDiscarded) for e in events)
            received += 1
        assert r.counters.bursts_received == n_bursts == received

    def test_dropping_any_single_fragment_discards_exactly_that_burst(self):
        frags = fragment_burst(0, 5000, 0, 1278)
        follow = fragment_burst(1, 5000, 0, 1278)
        for drop in range(len(frags)):
            r = BurstReassembler()
            deliver(r, [f for i, f in enumerate(frags) if i != drop])
            events = deliver(r, follow)
            discards = [e for e in events if isinstance(e, BurstDiscarded)]
            assert [d.burst_seq for d in discards] == [0]
            assert r.counters.bursts_received == 1  # the follow-up burst

    def test_counter_monotonic_invariant(self):
        rng = random.Random(5)
        r = BurstReassembler()
        for seq in range(100):
            frags = fragment_burst(seq, rng.randrange(1, 8000), 0, 1278)
            keep = [f for f in frags if rng.random() > 0.2]
            deliver(r, keep)
            c = r.counters
            assert c.bursts_received + c.bursts_failed <= c.bursts_started
