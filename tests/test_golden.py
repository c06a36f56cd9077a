"""Golden output digests for ``generate``, ``simulate``, ``send`` and ``recv``.

``golden/digests.json`` holds the sha256 of four ``generate`` trace CSVs, of
38 ``simulate`` metrics reports, of the datagram bytes ``send`` packs for 200
VR bursts and of the events file and counters ``recv`` derives from a fixed
script of reads. A report is hashed with only the keys kept per model under
``report_shapes``, and the ``recv`` counters with only the keys kept under
``recv.counter_keys``, so keys added later leave the digests valid while
every byte of the existing ones stays pinned.

The ``generate`` traces are 50 Mbit/s VR, a simple model, and 1 Mbit/s
60 FPS and 0.5 Mbit/s 30 FPS VR, where many frame-size draws are
non-positive and redrawn, which the 50 Mbit/s entries never hit. They were
captured from the per-burst scalar generator that preceded block draws.

The ``simulate`` reports are vr/simple/trace models x N in {1, 4, 8} x loss
in {0, 0.05} x queue limit in {0, 50}, 0.5 s each; a 4-station 1 Mbit/s VR
run; and ``congested-n16``, the benchmark's ``sim-congested`` command (16
stations at 50 Mbit/s 60 FPS on an 866 Mbit/s link, loss 0.001, queue limit
400, 1 s, seed 7): 92% load, so the queue fills and bursts are dropped and
discarded. They were captured from the engine that summarizes fragments by
per-burst closed forms, takes every std by ``sim.mean_std``'s rule and
draws losses as geometric gaps. At loss 0 they differ from the reports of
the engine before only in their std fields.

The ``send`` bytes are :func:`~vrburst.wire.pack_burst` of the first 200
bursts of a 20 Mbit/s 60 FPS VR schedule (seed 5) in 1278-byte fragments,
each stamped with its scheduled send time. The ``recv`` script runs the real
``receive_bursts`` on a scripted socket, with arrivals stamped by a fixed
clock: GRO reads, a burst split over two reads, duplicates, a late fragment,
a discarded burst, a sequence wrap, a header that disagrees with its burst's
first, hostile datagrams, a truncated read and a source that never sends a
valid header.

Regenerate only for an intentional output change recorded in CHANGES.md:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import socket
import sys
import time
from pathlib import Path

import pytest

import vrburst.cli
from vrburst.cli import _UDP_GRO, main, receive_bursts
from vrburst.generator import GeneratorConfig, build_generators
from vrburst.wire import pack_burst

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

GENERATE = {
    "vr_trace.csv": ["--model", "vr", "--rate-mbps", "50", "--fps", "60",
                     "--duration-s", "5", "--seed", "11"],
    "simple_trace.csv": ["--model", "simple", "--size-dist", "normal:30000:8000",
                         "--period-dist", "uniform:0.005:0.02", "--duration-s", "2",
                         "--seed", "12"],
    "vr_1mbps_60fps.csv": ["--model", "vr", "--rate-mbps", "1", "--fps", "60",
                           "--duration-s", "20", "--seed", "13"],
    "vr_0.5mbps_30fps.csv": ["--model", "vr", "--rate-mbps", "0.5", "--fps", "30",
                             "--duration-s", "30", "--seed", "14"],
}

MODELS = {
    "vr": ["--model", "vr", "--rate-mbps", "50", "--fps", "60"],
    "simple": ["--model", "simple", "--size-dist", "uniform:2000:120000",
               "--period-dist", "logistic:0.01:0.002"],
    "trace": ["--model", "trace", "--trace", "vr_trace.csv"],
}

SIMULATE = {
    f"{model}-n{n}-loss{loss}-q{queue}": MODELS[model] + [
        "--stations", str(n), "--loss", str(loss), "--queue-limit", str(queue),
        "--link-mbps", "300", "--prop-delay-us", "20", "--overhead-bytes", "22",
        "--duration-s", "0.5", "--seed", "7",
    ]
    for model in MODELS
    for n in (1, 4, 8)
    for loss in (0, 0.05)
    for queue in (0, 50)
}
SIMULATE["vr1mbps-n4"] = ["--model", "vr", "--rate-mbps", "1", "--fps", "60", "--stations", "4",
                           "--link-mbps", "300", "--duration-s", "5", "--seed", "7"]
SIMULATE["congested-n16"] = ["--model", "vr", "--rate-mbps", "50.0", "--fps", "60.0", "--stations", "16",
                              "--link-mbps", "866.0", "--loss", "0.001", "--queue-limit", "400",
                              "--duration-s", "1.0", "--seed", "7"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shape(obj):
    """Key tree of a report: dicts map key -> shape, lists of dicts keep one element's."""
    if isinstance(obj, dict):
        return {key: _shape(value) for key, value in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [_shape(obj[0])]
    return None


def _project(obj, shape):
    if isinstance(shape, dict):
        return {key: _project(obj[key], sub) for key, sub in shape.items()}
    if isinstance(shape, list):
        return [_project(item, shape[0]) for item in obj]
    return obj


def _run(*argv) -> None:
    assert main(list(argv)) == 0, argv


def _generate(name: str) -> str:
    _run("generate", *GENERATE[name], "--out", name)
    return Path(name).read_text()


def _simulate(case: str) -> dict:
    if case.startswith("trace-"):
        _run("generate", *GENERATE["vr_trace.csv"], "--out", "vr_trace.csv")
    _run("simulate", *SIMULATE[case], "--out", "report.json")
    return json.loads(Path("report.json").read_text())


def _report_digest(report: dict, shape) -> str:
    return _sha256(json.dumps(_project(report, shape), indent=2) + "\n")


def _send_bytes() -> bytes:
    (generator,), _ = build_generators(GeneratorConfig("vr", 20.0, 60.0), 1, 5, 0.0)
    out, stamp = bytearray(), 10**9
    for seq in range(200):
        size, period_ns = generator.generate_burst()
        out += pack_burst(seq, size, stamp, 1278)
        stamp += period_ns
    return bytes(out)


def _gro(step: int) -> list:
    return [(socket.IPPROTO_UDP, _UDP_GRO, step.to_bytes(4, sys.byteorder))]


def _recv_script() -> list:
    """``(data, ancdata, flags, addr)`` of every read, in order."""
    a, b, c = ("10.0.0.1", 4000), ("10.0.0.2", 4000), ("10.0.0.3", 4000)

    def burst(seq, size, stamp=1000):
        data = bytes(pack_burst(seq, size, stamp))
        return [data[i:i + 1278] for i in range(0, len(data), 1278)]

    b0, b1, b2, b4 = burst(0, 3000), burst(1, 5000), burst(2, 3000), burst(4, 2000)
    forged = bytearray(b4[1])
    forged[8:16] = (2001).to_bytes(8, "big")  # burst_size disagrees with fragment 0's
    zero_count = bytearray(burst(5, 1254)[0])
    zero_count[6:8] = b"\0\0"
    index_past = bytearray(burst(5, 10)[0])
    index_past[4:6] = (1).to_bytes(2, "big")  # index 1 of a 1-fragment burst
    mixed = burst(6, 2 * 1254) + [bytes(zero_count)] + burst(7, 1254 + 100)
    near = [burst(2**32 - 2, 3000)[0], *burst(2**32 - 1, 100), *burst(0, 3000, 9000), *burst(1, 100, 9000)]
    return [
        (b"".join(b0), _gro(1278), 0, a),  # a whole burst in one read, the last datagram shorter
        (b"".join(b1[:2]), _gro(1278), 0, a),  # burst 1 over two reads
        (b"".join(b1[2:]), _gro(1278), 0, a),
        (b1[0], [], 0, a),  # duplicate of a completed burst
        (b0[2], [], 0, a),  # late
        (b2[0], [], 0, a),  # burst 2 stays incomplete
        (b"".join(burst(3, 100)), [], 0, a),  # and burst 3 discards it
        (b4[0], [], 0, a),
        (bytes(forged), [], 0, a),  # disagrees with its burst's first header
        (b4[1], [], 0, a),
        (b4[1][:23], [], 0, a),  # 23 bytes
        (bytes(zero_count), [], 0, a),
        (bytes(index_past), [], 0, a),
        (b"".join(mixed), _gro(1278), 0, a),  # a malformed datagram inside a coalesced read
        (b"".join(b2)[:2000], _gro(1278), socket.MSG_TRUNC, a),  # cut points unknown
        (b"".join(b2[:2]), [], 0, a),  # two datagrams' bytes with no segment size: one datagram
        (b"", [], 0, a),
        (b"".join(near[:2]), _gro(1278), 0, b),  # 1 past 2**32 - 2: discards it, then completes 2**32 - 1
        (b"".join(near[2:5]), _gro(1278), 0, b),  # 0 follows 2**32 - 1
        (b"".join(near[5:]), _gro(1278), 0, b),
        (near[1], [], 0, b),  # 2**32 - 1 now precedes the current burst
        (b4[1][:10], [], 0, c),  # a source with no valid header gets no flow
    ]


class _ScriptedSocket:
    def __init__(self, reads):
        self.reads = list(reads)

    def settimeout(self, timeout):
        pass

    def setsockopt(self, level, option, value):
        pass

    def recvmsg(self, bufsize, ancbufsize):
        if not self.reads:
            time.sleep(0.002)
            raise socket.timeout
        return self.reads.pop(0)


def _recv(workdir: Path, monkeypatch) -> tuple[str, dict]:
    clock = iter(range(10**6, 10**9, 1000))
    monkeypatch.setattr(vrburst.cli.time, "monotonic_ns", lambda: next(clock))
    out = workdir / "events.csv"
    counters = receive_bursts(("127.0.0.1", 9000), out, 0.05, sock=_ScriptedSocket(_recv_script()))
    return out.read_text(), counters


def _counters_digest(counters: dict, keys: list) -> str:
    return _sha256(json.dumps({key: counters[key] for key in keys}))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_digest(name, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _sha256(_generate(name)) == golden["generate"][name]


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_simulate_digest(case, golden, tmp_path, monkeypatch, capsys):
    # relative paths keep the echoed trace_path independent of the temp dir
    monkeypatch.chdir(tmp_path)
    report = _simulate(case)
    shape = golden["report_shapes"][case.split("-")[0]]
    assert _report_digest(report, shape) == golden["simulate"][case]


def test_send_digest(golden):
    assert hashlib.sha256(_send_bytes()).hexdigest() == golden["send"]


def test_recv_digest(golden, tmp_path, monkeypatch):
    events, counters = _recv(tmp_path, monkeypatch)
    assert _sha256(events) == golden["recv"]["events"]
    assert _counters_digest(counters, golden["recv"]["counter_keys"]) == golden["recv"]["counters"]


def _capture(workdir: Path) -> dict:
    os.chdir(workdir)
    out = {"generate": {}, "simulate": {}, "report_shapes": {}}
    out["send"] = hashlib.sha256(_send_bytes()).hexdigest()
    with pytest.MonkeyPatch.context() as monkeypatch:
        events, counters = _recv(workdir, monkeypatch)
    keys = list(counters)
    out["recv"] = {"events": _sha256(events), "counters": _counters_digest(counters, keys), "counter_keys": keys}
    for name in sorted(GENERATE):
        out["generate"][name] = _sha256(_generate(name))
    for case in sorted(SIMULATE):
        report = _simulate(case)
        text = Path("report.json").read_text()
        shape = out["report_shapes"].setdefault(case.split("-")[0], _shape(report))
        assert _report_digest(report, shape) == _sha256(text)
        out["simulate"][case] = _sha256(text)
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _capture(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests['generate'])} + {len(digests['simulate'])} + 3 digests to {GOLDEN}",
          file=sys.stderr)
