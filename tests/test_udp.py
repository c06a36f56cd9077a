"""The live UDP path one burst at a time: GSO sends and GRO reads.

Send tests check the datagrams ``send_bursts`` puts on the wire against
``fragment_burst`` + ``encode_header``, with and without UDP segmentation
offload. Receive tests feed ``receive_bursts`` coalesced reads from a fake
socket; ``test_wire_oracle`` holds the reassembly of any cut into reads to
the per-fragment oracle.
"""

import errno
import socket
import sys
import threading
import time

import vrburst.cli
from vrburst.cli import _UDP_GRO, _UDP_SEGMENT, receive_bursts, send_bursts
from vrburst.generator import BurstDescriptor
from vrburst.wire import (
    HEADER_LEN,
    decode_header,
    encode_header,
    fragment_burst,
    pack_burst,
)

# 1, one payload, one payload + 1, a 34-fragment VR frame, 80 fragments
# (more than the 51 one GSO send holds at 1278 B)
SIZES = [1, 1254, 1255, 41_700, 100_000]


class Schedule:
    """A generator that hands out fixed burst sizes, 1 ms apart."""

    def __init__(self, sizes):
        self.sizes = list(sizes)

    def has_next_burst(self):
        return bool(self.sizes)

    def generate_burst(self):
        return BurstDescriptor(self.sizes.pop(0), 1_000_000)


def expected_datagrams(datagrams, sizes, fragment_size):
    """The datagrams of ``sizes`` by the fragment oracle, stamped as ``datagrams`` were."""
    out, at = [], 0
    for seq, size in enumerate(sizes):
        stamp = decode_header(datagrams[at]).timestamp_ns
        frags = fragment_burst(seq, size, stamp, fragment_size)
        out += [encode_header(f.header) + b"\0" * f.payload_len for f in frags]
        at += len(frags)
    return out


class FakeSendSocket:
    """Records each ``sendto`` with the ``UDP_SEGMENT`` size in force at the time."""

    def __init__(self, refuse_gso=False, fail_call=None):
        self.refuse_gso = refuse_gso
        self.fail_call = fail_call  # 1-based GSO send that raises EIO
        self.segment = 0
        self.gso_calls = 0
        self.sends = []  # (payload, segment size)

    def setsockopt(self, level, option, value):
        if (level, option) == (socket.IPPROTO_UDP, _UDP_SEGMENT):
            if self.refuse_gso:
                raise OSError(errno.ENOPROTOOPT, "Protocol not available")
            self.segment = value

    def sendto(self, payload, dest):
        if self.segment and len(payload) > self.segment:
            self.gso_calls += 1
            if self.gso_calls == self.fail_call:
                raise OSError(errno.EIO, "Input/output error")
        self.sends.append((bytes(payload), self.segment))

    def datagrams(self):
        """What the kernel would put on the wire: each send cut at its segment size."""
        out = []
        for payload, segment in self.sends:
            step = segment or len(payload)
            out += [payload[i:i + step] for i in range(0, len(payload), step)]
        return out


def test_datagrams_on_the_wire_are_the_fragments():
    recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)  # GRO stays off: one read, one datagram
    recv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 2**20)
    recv.bind(("127.0.0.1", 0))
    recv.settimeout(1.0)
    try:
        sent = send_bursts(recv.getsockname(), Schedule(SIZES), fragment_size=1278, pacing=False)
        datagrams = [recv.recv(65535) for _ in range(sent["fragments_sent"])]
    finally:
        recv.close()
    assert sent["fragments_sent"] == 1 + 1 + 2 + 34 + 80 == len(datagrams)
    assert datagrams == expected_datagrams(datagrams, SIZES, 1278)
    # four bursts fit one GSO send and the 80-fragment one takes two (51 + 29)
    assert sent["send_calls"] == (6 if sent["gso"] else 118)


def test_socket_refusing_gso_gets_one_datagram_per_call():
    sock = FakeSendSocket(refuse_gso=True)
    sent = send_bursts(("127.0.0.1", 9), Schedule(SIZES), fragment_size=1278, pacing=False, sock=sock)
    assert not sent["gso"]
    assert sent["send_calls"] == sent["fragments_sent"] == len(sock.sends) == 118
    assert all(segment == 0 for _, segment in sock.sends)
    datagrams = sock.datagrams()
    assert datagrams == expected_datagrams(datagrams, SIZES, 1278)


def test_failed_gso_send_falls_back_without_losing_or_repeating_a_burst():
    sock = FakeSendSocket(fail_call=2)
    sent = send_bursts(("127.0.0.1", 9), Schedule(SIZES), fragment_size=1278, pacing=False, sock=sock)
    assert not sent["gso"]
    assert sent["bursts_sent"] == len(SIZES)
    datagrams = sock.datagrams()
    assert datagrams == expected_datagrams(datagrams, SIZES, 1278)
    # burst 2 went as one GSO send; burst 3's failed and went again one by one
    assert [segment for _, segment in sock.sends] == [1278, 1278, 1278] + [0] * (34 + 80)
    assert sent["send_calls"] == len(sock.sends)
    assert sock.segment == 0  # GSO is off for the rest of the run


def test_gso_send_holds_at_most_64_segments():
    sock = FakeSendSocket()
    size = 200 * (100 - HEADER_LEN)  # 200 fragments of 100 B
    sent = send_bursts(("127.0.0.1", 9), Schedule([size]), fragment_size=100, pacing=False, sock=sock)
    assert sent["gso"] and sent["fragments_sent"] == 200
    assert [len(payload) // 100 for payload, _ in sock.sends] == [64, 64, 64, 8]
    datagrams = sock.datagrams()
    assert datagrams == expected_datagrams(datagrams, [size], 100)


def test_one_segment_per_call_where_a_segment_fills_a_datagram():
    sock = FakeSendSocket()
    sent = send_bursts(("127.0.0.1", 9), Schedule([100_000]), fragment_size=40_000, pacing=False, sock=sock)
    assert not sent["gso"] and sent["send_calls"] == sent["fragments_sent"] == 3
    assert sock.segment == 0 and all(segment == 0 for _, segment in sock.sends)


# --- receive ------------------------------------------------------------------


def gro_cmsg(segment_size):
    return [(socket.IPPROTO_UDP, _UDP_GRO, segment_size.to_bytes(4, sys.byteorder))]


class FakeRecvSocket:
    """Hands ``receive_bursts`` the given ``recvmsg`` results, then times out.

    A read is ``(data, ancdata, flags)``, from 127.0.0.1:4000, or
    ``(data, ancdata, flags, addr)``.
    """

    def __init__(self, reads):
        self.reads = list(reads)
        self.options = {}

    def settimeout(self, timeout):
        pass

    def setsockopt(self, level, option, value):
        self.options[(level, option)] = value

    def recvmsg(self, bufsize, ancbufsize):
        if not self.reads:
            time.sleep(0.01)
            raise socket.timeout
        data, ancdata, flags, *addr = self.reads.pop(0)
        return data, ancdata, flags, addr[0] if addr else ("127.0.0.1", 4000)


def receive(tmp_path, reads):
    sock = FakeRecvSocket(reads)
    out = tmp_path / "events.csv"
    result = receive_bursts(("127.0.0.1", 0), out, duration_s=0.2, sock=sock)
    assert sock.options[(socket.IPPROTO_UDP, _UDP_GRO)] == 1
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    return result, rows


def test_coalesced_read_with_a_malformed_segment_delivers_the_rest(tmp_path):
    bad = bytearray(pack_burst(7, 1254, 5))
    bad[6:8] = b"\0\0"  # frag_count 0: does not decode
    data = pack_burst(0, 2 * 1254, 5) + bad + pack_burst(1, 1254 + 100, 5)
    result, rows = receive(tmp_path, [(bytes(data), gro_cmsg(1278), 0)])
    assert result["reads"] == 1 and result["gro"]
    assert result["datagrams"] == 5
    assert result["malformed"] == 1
    assert result["bursts_received"] == 2 and result["bursts_discarded"] == 0
    assert [(seq, outcome, size) for seq, outcome, _, size in rows] == [
        ("0", "received", "2508"), ("1", "received", "1354")
    ]


def test_truncated_read_is_malformed_and_not_split(tmp_path):
    data = bytes(pack_burst(0, 3 * 1254, 5))
    reads = [
        (data[:2000], gro_cmsg(1278), socket.MSG_TRUNC),
        (data, [], socket.MSG_CTRUNC),  # its segment size may be what was cut
        (bytes(pack_burst(1, 10, 5)), [], 0),
    ]
    result, rows = receive(tmp_path, reads)
    assert (result["reads"], result["datagrams"], result["malformed"]) == (3, 3, 2)
    assert result["bursts_received"] == 1 and rows[0][:2] == ["1", "received"]


def test_read_without_segment_size_is_one_datagram(tmp_path):
    two = bytes(pack_burst(0, 2 * 1254, 5))  # two datagrams' bytes, read as one
    result, rows = receive(tmp_path, [(bytes(pack_burst(3, 10, 5)), [], 0), (two, [], 0), (b"", [], 0)])
    assert (result["reads"], result["datagrams"], result["malformed"]) == (3, 3, 1)
    assert result["bursts_received"] == 1 and rows[0][:2] == ["3", "received"]


def test_discarded_burst_is_counted_and_logged(tmp_path):
    first = bytes(pack_burst(0, 2 * 1254, 5))[:1278]  # burst 0 loses its second fragment
    result, rows = receive(tmp_path, [(first, [], 0), (bytes(pack_burst(1, 10, 5)), [], 0)])
    assert (result["bursts_discarded"], result["bursts_received"], result["bursts_in_flight"]) == (1, 1, 0)
    assert [row[:2] for row in rows] == [["0", "discarded"], ["1", "received"]]


def test_burst_incomplete_at_the_end_is_in_flight(tmp_path):
    bursts = [bytes(pack_burst(seq, 5000, 5)) for seq in range(3)]  # 4 datagrams each
    bursts[2] = bursts[2][:3 * 1278]  # burst 2 loses its last datagram
    result, rows = receive(tmp_path, [(data, gro_cmsg(1278), 0) for data in bursts])
    assert (result["bursts_received"], result["bursts_discarded"], result["bursts_in_flight"]) == (2, 0, 1)
    assert [row[:2] for row in rows] == [["0", "received"], ["1", "received"]]


def test_late_and_duplicate_fragments_are_counted(tmp_path):
    one, two = bytes(pack_burst(1, 2 * 1254, 5)), bytes(pack_burst(2, 10, 5))
    old = bytes(pack_burst(0, 10, 5))
    reads = [(one, gro_cmsg(1278), 0), (one[:1278], [], 0), (two, [], 0), (old, [], 0)]
    result, _ = receive(tmp_path, reads)
    assert (result["late"], result["duplicates"], result["bursts_received"]) == (1, 1, 2)
    assert result["datagrams"] == 5 and result["malformed"] == 0


def test_sources_past_the_flow_cap_are_dropped(tmp_path, monkeypatch):
    monkeypatch.setattr(vrburst.cli, "_MAX_FLOWS", 2)
    a, b, c = (("10.0.0.1", 4000), ("10.0.0.2", 4000), ("10.0.0.3", 4000))
    two = bytes(pack_burst(0, 2 * 1254, 5))
    reads = [
        (b"\0" * 10, [], 0, c),  # no valid datagram: no flow, so c takes no place in the table
        (two, gro_cmsg(1278), 0, a),
        (two, gro_cmsg(1278), 0, b),
        (two, gro_cmsg(1278), 0, c),  # the table is full
        (bytes(pack_burst(1, 10, 5)), [], 0, a),  # a source with a flow still gets it
    ]
    result, rows = receive(tmp_path, reads)
    assert (result["flows"], result["datagrams"], result["malformed"], result["datagrams_dropped"]) == (2, 8, 1, 2)
    assert (result["bursts_received"], result["bursts_in_flight"]) == (3, 0)
    assert [row[:2] for row in rows] == [["0", "received"], ["0", "received"], ["1", "received"]]


def test_send_recv_round_trip_one_read_per_burst(tmp_path):
    recv = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    recv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 2**20)
    recv.bind(("127.0.0.1", 0))
    addr = recv.getsockname()
    out = tmp_path / "events.csv"
    result = {}

    def receiver():
        result.update(receive_bursts(addr, out, duration_s=1.5, sock=recv))

    thread = threading.Thread(target=receiver)
    thread.start()
    time.sleep(0.2)  # GRO on before the first burst
    sizes = [41_700] * 20
    sent = send_bursts(addr, Schedule(sizes), fragment_size=1278, pacing=True)
    thread.join()
    recv.close()
    assert result["datagrams"] == sent["fragments_sent"] == 20 * 34
    assert result["bursts_received"] == 20 and result["malformed"] == 0
    if sent["gso"] and result["gro"]:
        assert sent["send_calls"] == result["reads"] == 20  # one send and one read a burst
    else:
        assert result["reads"] == result["datagrams"]
