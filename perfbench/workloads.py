"""The benchmark's four workloads: exact configs, one pass of each, output checks.

Every pass drives vrburst through its public entry points only:
``vrburst.cli.main`` for the trace, simulate and fit commands, and
``vrburst.cli.send_bursts`` plus a child process running
``vrburst.cli.receive_bursts`` (the loop of ``vrburst recv``) for live UDP. A
pass returns a :class:`PassResult` with its host times, the counts the
workload's checks attempted and failed, sha256 digests of its outputs and the
figures the report is built from.

Host times are also given as multiples of a fixed reference loop run next
to them (:class:`RefTimer`). The host this benchmark runs on is shared, and
its speed drifts by tens of percent within seconds; the reference loop sees
the same drift, so the ratio stays steady where the raw time does not. The
ratio still moves in proportion when vrburst itself gets faster or slower,
because the loop is the benchmark's own code. The loop runs in the duty
cycle of the work it is compared with: in one go just before and after each
command that computes without pause, and in short chunks between sleeps
after each paced udp send, since a shared host slows long runs of
computation more than short ones.

Workload sizes are multiplied by ``scale`` (1.0 in a benchmark run) so the
benchmark's own tests can run every workload at a tiny size.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Model constants every generated trace and UDP schedule is drawn from; the
# fit is scored against them. Same values as the package's built-in fit.
GEN_CONSTANTS = {
    "ifi_std_coeff": 0.0827,
    "iframe_mean_slope": 1.1764,
    "pframe_mean_slope": 0.9008,
    "iframe_std_coeff": 26.2065,
    "iframe_std_exp": 0.573,
    "pframe_std_coeff": 9.0399,
    "pframe_std_exp": 0.6251,
}
# The five constants the closed-loop fit acceptance criterion checks.
FIT_SCORED = ("iframe_mean_slope", "pframe_mean_slope", "ifi_std_coeff", "iframe_std_exp", "pframe_std_exp")

# Exact configuration of each workload at scale 1.0.
CONFIGS = {
    # The README's headline sweep, run as one simulate command per station
    # count so the reference loop can run between them. The link stays under
    # half busy, so the per-fragment work dominates: event loop,
    # fragment_burst, reassembly.
    "sim-sweep": {
        "command": "simulate",
        "stations": [1, 2, 3, 4, 5, 6, 7, 8],
        "rate_mbps": 50.0,
        "fps": 60.0,
        "link_mbps": 866.0,
        "loss": 0.0,
        "queue_limit": 0,
        "duration_s": 1.0,
    },
    # 92% offered load with random loss and tail drop: one loss draw per
    # fragment, dropped fragments and discarded bursts.
    "sim-congested": {
        "command": "simulate",
        "stations": [16],
        "rate_mbps": 50.0,
        "fps": 60.0,
        "link_mbps": 866.0,
        "loss": 0.001,
        "queue_limit": 400,
        "duration_s": 1.0,
    },
    # Generator, rv, model, trace I/O and EM without sim or wire. The 1 Mbit/s
    # trace takes the frame-size rejection path; it is read back but not fit.
    "trace-fit": {
        "command": "generate+stats+replay+fit",
        "fit_groups": [[10, 30], [10, 60], [30, 30], [30, 60], [50, 30], [50, 60]],
        "reject_group": [1, 60],
        "frames_per_trace": 3000,
        "replay_window": [0.25, 0.5],
        "em_restarts": 8,
    },
    # Open-loop paced sender in this process; one receiver child for the whole
    # run. The seed gives a `stream_s` long schedule; pass k sends its k-th
    # `segment_s` (cycling) from a new socket, so the receiver sees a new
    # flow, and waits `drain_s` for the last fragments. Successive segments
    # keep a run's burst sizes from resting on one second of the stream.
    # The receive socket asks for a 4 MiB buffer (the kernel caps it at
    # net.core.rmem_max) so a scheduler stall of a shared host does not
    # overflow it; a receiver too slow for the rate still shows as a growing
    # delay.
    "udp-loopback": {
        "command": "send_bursts+receive_bursts",
        "rate_mbps": 20.0,
        "fps": 60.0,
        "fragment_size": 1278,
        "listen": "127.0.0.1",
        "stream_s": 32.0,
        "segment_s": 1.0,
        "drain_s": 0.5,
        "rcvbuf_bytes": 4 * 1024 * 1024,
    },
}

REF_ITERATIONS = 15000  # 15-30 ms on one core of a shared 2.1 GHz Xeon
REF_REUSE_S = 0.05  # a reference run this recent also serves as the next "before"
REF_CHUNKS = 25  # the paced reference runs the loop's iterations in this many chunks
REF_CHUNK_SLEEP_S = 0.01  # before each chunk


def reference_loop(iterations: int) -> float:
    """Fixed pure-Python work of the kind vrburst does: heap pushes and pops,
    dict stores, struct packing and float sums."""
    heap, table, acc = [], {}, 0.0
    pack = struct.Struct("<IHHQ").pack
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 1023] = pack(i, i & 0xFFFF, 7, i * 3)
        acc += (i % 13) * 0.5
    while heap:
        heapq.heappop(heap)
    return acc


@dataclass
class Timing:
    wall: float = 0.0  # host wall seconds of the block
    cpu: float = 0.0  # this process's CPU seconds in the block
    ref_wall: float = 0.0  # mean wall seconds of the reference runs before and after it
    ref_cpu: float = 0.0  # the same in CPU seconds


class RefTimer:
    """Times blocks of work and runs the reference loop just before and after each.

    ``paced_reference`` instead runs the same number of iterations in short
    chunks, each after a sleep, for work that is itself paced."""

    def __init__(self, iterations: int = REF_ITERATIONS):
        self.iterations = iterations
        self.walls: list[float] = []  # wall seconds of every reference run
        self._last = None  # (end, wall, cpu) of the latest reference run

    def reference(self) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_loop(self.iterations)
        end = time.perf_counter()
        wall, cpu = end - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self._last = (end, wall, cpu)
        return wall, cpu

    def paced_reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of the loop's iterations run in sleep-separated chunks.

        Each is the chunk count times the median chunk, so a chunk the
        scheduler preempted does not count."""
        walls, cpus = [], []
        for _ in range(REF_CHUNKS):
            time.sleep(REF_CHUNK_SLEEP_S)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_loop(self.iterations // REF_CHUNKS)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        wall, cpu = REF_CHUNKS * statistics.median(walls), REF_CHUNKS * statistics.median(cpus)
        self.walls.append(wall)
        return wall, cpu

    @contextlib.contextmanager
    def time(self):
        last = self._last
        before = last[1:] if last and time.perf_counter() - last[0] < REF_REUSE_S else self.reference()
        timing = Timing()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        yield timing
        timing.wall = time.perf_counter() - wall0
        timing.cpu = time.process_time() - cpu0
        after = self.reference()
        timing.ref_wall = (before[0] + after[0]) / 2
        timing.ref_cpu = (before[1] + after[1]) / 2


@dataclass
class PassResult:
    wall_s: float = 0.0  # host wall time of the pass's timed commands
    cpu_s: float = 0.0  # host CPU time of the processes running them
    bursts: int = 0  # bursts the commands handled
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # messages of failed output checks
    digests: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # per-burst samples (udp)
    ref_walls: list = field(default_factory=list)  # reference-loop times next to each command
    ref_cpus: list = field(default_factory=list)

    def add(self, timing: Timing) -> None:
        """Count one timed command."""
        self.wall_s += timing.wall
        self.cpu_s += timing.cpu
        self.ref_walls.append(timing.ref_wall)
        self.ref_cpus.append(timing.ref_cpu)

    # A pass's times in reference-loop runs. The median reference of the
    # whole pass is steadier than the two runs next to each command: a long
    # command (fit) would otherwise rest on two samples of a noisy loop.
    @property
    def wall_ref(self) -> float:
        return self.wall_s / statistics.median(self.ref_walls) if self.ref_walls else 0.0

    @property
    def cpu_ref(self) -> float:
        return self.cpu_s / statistics.median(self.ref_cpus) if self.ref_cpus else 0.0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(argv) -> tuple[int, str, str]:
    """Run ``vrburst.cli.main(argv)`` in process, capturing stdout and stderr."""
    import vrburst.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vrburst.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# --- simulate ---------------------------------------------------------------


def check_sim_report(report: dict) -> list[str]:
    """Conservation checks on one simulate report; returns failure messages."""
    link, frag, burst, stations = report["link"], report["fragment"], report["burst"], report["per_station"]
    n = report["config"]["n_stations"]
    failures = []
    accounted = frag["count"] + link["fragments_lost"] + link["fragments_queue_dropped"]
    if accounted != link["fragments_sent"]:
        failures.append(
            f"N={n}: delivered + lost + queue_dropped = {accounted} != fragments_sent {link['fragments_sent']}"
        )
    sums = {
        "fragments_sent": link["fragments_sent"],
        "fragments_delivered": frag["count"],
        "bursts_sent": burst["count"],
        "bursts_received": burst["received"],
        "bursts_discarded": burst["failed"],
    }
    for key, total in sums.items():
        station_sum = sum(st[key] for st in stations)
        if station_sum != total:
            failures.append(f"N={n}: per-station {key} sum {station_sum} != total {total}")
    return failures


def sim_pass(workload: str, seed: int, out: Path, scale: float, timer: RefTimer) -> PassResult:
    """One simulate command per station count of the workload, each checked and digested."""
    cfg = CONFIGS[workload]
    result = PassResult()
    reports = []
    for n in cfg["stations"]:
        path = out / f"simulate_n{n}.json"
        argv = [
            "simulate", "--model", "vr",
            "--stations", str(n),
            "--rate-mbps", repr(cfg["rate_mbps"]),
            "--fps", repr(cfg["fps"]),
            "--link-mbps", repr(cfg["link_mbps"]),
            "--loss", repr(cfg["loss"]),
            "--queue-limit", str(cfg["queue_limit"]),
            "--duration-s", repr(cfg["duration_s"] * scale),
            "--seed", str(seed),
            "--out", str(path),
        ]  # fmt: skip
        with timer.time() as timing:
            code, _, err = call_cli(argv)
        result.add(timing)
        result.attempted += 1
        if code != 0:
            result.fail(f"simulate N={n} exited {code}: {err.strip()}")
            continue
        text = path.read_text(encoding="utf-8")
        report = json.loads(text)
        reports.append(report)
        result.digests[path.name] = sha256_text(text)
        failures = check_sim_report(report)
        if failures:
            result.failed += 1
            result.failures.extend(failures)

    fragments = sum(r["link"]["fragments_sent"] for r in reports)
    result.bursts = sent = sum(r["burst"]["count"] for r in reports)
    received = sum(r["burst"]["received"] for r in reports)
    discarded = sum(r["burst"]["failed"] for r in reports)
    horizon_ns = sum(r["config"]["duration_s"] for r in reports) * 1e9
    result.figures.update(
        {
            "sim_frag_per_s": fragments / result.wall_s,
            "sim.fragments_sent": fragments,
            "sim.fragments_lost": sum(r["link"]["fragments_lost"] for r in reports),
            "sim.fragments_queue_dropped": sum(r["link"]["fragments_queue_dropped"] for r in reports),
            "sim.link_busy_ratio": sum(r["link"]["busy_ns"] for r in reports) / horizon_ns if horizon_ns else 0.0,
            "sim.bursts_unaccounted": sent - received - discarded,
            "sim.burst_p95_delay_ns": max((r["burst"]["p95_delay_ns"] or 0) for r in reports) if reports else 0,
            "sim.success_ratio": received / sent if sent else 0.0,
            "wire.bursts_discarded": discarded,
        }
    )
    return result


# --- generate / stats / replay / fit ------------------------------------------


def _trace_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def check_replay_window(source_rows, window_rows, start_s: float, duration_s: float) -> list[str]:
    """The window must be the run of source bursts falling in [start, start + duration)."""
    if not window_rows:
        return ["replay window is empty"]
    start_us, duration_us = round(start_s * 1e6), round(duration_s * 1e6)
    first, elapsed = 0, 0
    while first < len(source_rows) and elapsed < start_us:
        elapsed += int(source_rows[first].split(",")[1])
        first += 1
    expected, offset = [], 0
    for row in source_rows[first:]:
        if offset >= duration_us:
            break
        expected.append(row)
        offset += int(row.split(",")[1])
    if window_rows != expected:
        return [f"replay window of {len(window_rows)} bursts is not source bursts {first}..{first + len(expected) - 1}"]
    return []


def fit_errors(constants: dict) -> dict:
    return {k: abs(constants[k] / GEN_CONSTANTS[k] - 1.0) for k in FIT_SCORED}


def trace_fit_pass(seed: int, out: Path, scale: float, timer: RefTimer) -> PassResult:
    cfg = CONFIGS["trace-fit"]
    params = out / "gen_constants.json"
    params.write_text(json.dumps(GEN_CONSTANTS), encoding="utf-8")
    frames = max(10, round(cfg["frames_per_trace"] * scale))
    groups = [tuple(g) for g in cfg["fit_groups"]] + [tuple(cfg["reject_group"])]
    result = PassResult()
    norm = str(out)

    def run(argv, name):
        with timer.time() as timing:
            code, stdout, err = call_cli(argv)
        result.add(timing)
        result.attempted += 1
        if code != 0:
            result.fail(f"{name} exited {code}: {err.strip()}")
        return code, stdout, timing.wall

    traces, gen_wall, gen_bursts = [], 0.0, 0
    for index, (rate, fps) in enumerate(groups):
        path = out / f"trace{index}.csv"
        duration = frames / fps
        code, stdout, wall = run(
            ["generate", "--model", "vr", "--rate-mbps", str(rate), "--fps", str(fps),
             "--duration-s", repr(duration), "--seed", str(seed * 1000 + index),
             "--params", str(params), "--out", str(path)],
            f"generate {rate} Mbit/s {fps} FPS",
        )  # fmt: skip
        gen_wall += wall
        text = path.read_text(encoding="utf-8") if code == 0 else ""
        rows = _trace_rows(text)
        gen_bursts += len(rows)
        traces.append((path, duration, rows))
        if code == 0:
            result.digests[path.name] = sha256_text(text)

    io_wall, io_bursts = 0.0, 0
    for path, duration, rows in traces:
        code, stdout, wall = run(["stats", str(path)], f"stats {path.name}")
        io_wall += wall
        io_bursts += len(rows)
        if code == 0:
            stats = json.loads(stdout)
            if stats["bursts"] != len(rows):
                result.fail(f"stats {path.name}: {stats['bursts']} bursts, generate wrote {len(rows)}")
            result.digests[f"stats_{path.stem}.json"] = sha256_text(stdout.replace(norm, "<out>"))

        window = out / f"window_{path.name}"
        start, length = (f * duration for f in cfg["replay_window"])
        code, stdout, wall = run(
            ["replay", "--trace", str(path), "--start-time", repr(start), "--duration-s", repr(length),
             "--out", str(window)],
            f"replay {path.name}",
        )  # fmt: skip
        io_wall += wall
        io_bursts += len(rows)
        if code == 0:
            text = window.read_text(encoding="utf-8")
            failures = check_replay_window(rows, _trace_rows(text), start, length)
            if failures:
                result.failed += 1
                result.failures.extend(f"replay {path.name}: {msg}" for msg in failures)
            result.digests[window.name] = sha256_text(text.replace(norm, "<out>"))

    constants_path, report_path = out / "fitted.json", out / "fit_report.json"
    fit_inputs = [str(path) for path, _, _ in traces[: len(cfg["fit_groups"])]]
    code, _, fit_wall = run(
        ["fit", *fit_inputs, "--em-restarts", str(cfg["em_restarts"]), "--seed", str(seed),
         "--out", str(constants_path), "--report", str(report_path)],
        "fit",
    )  # fmt: skip
    if code == 0:
        report_text = report_path.read_text(encoding="utf-8")
        report = json.loads(report_text)
        constants_text = constants_path.read_text(encoding="utf-8")
        result.digests["fit_report.json"] = sha256_text(report_text)
        result.digests["fitted.json"] = sha256_text(constants_text)
        if not report["slopes_valid"]:
            result.fail("fit report has slopes_valid false")
        gmms = [g["gmm"] for g in report["groups"]]
        result.figures.update(
            {
                "fit_const_rel_err_max": max(fit_errors(json.loads(constants_text)).values()),
                "fit.em.best_iterations": sum(g["n_iterations"] for g in gmms) / len(gmms),
                "fit.em.converged_ratio": sum(bool(g["converged"]) for g in gmms) / len(gmms),
            }
        )

    result.bursts = gen_bursts
    result.figures.update(
        {
            "gen_bursts_per_s": gen_bursts / gen_wall if gen_wall else 0.0,
            "trace_io_bursts_per_s": io_bursts / io_wall if io_wall else 0.0,
            "fit_wall_s": fit_wall,
        }
    )
    return result


# --- live UDP -----------------------------------------------------------------


class ScheduleRecorder:
    """Replays a burst schedule made in advance and notes when each burst left.

    ``send_bursts`` calls ``generate_burst`` once per burst just before it
    stamps and sends the burst, so the return time of each call is the
    burst's actual send time. Burst 0 fixes the schedule's origin; burst k is
    due at origin + the sum of the periods before it.
    """

    def __init__(self, bursts):
        self.bursts = bursts
        self.sent_ns: list[int] = []

    def has_next_burst(self) -> bool:
        return len(self.sent_ns) < len(self.bursts)

    def generate_burst(self):
        burst = self.bursts[len(self.sent_ns)]
        self.sent_ns.append(time.monotonic_ns())
        return burst

    def lateness_ns(self) -> list[int]:
        if not self.sent_ns:
            return []
        due, out = self.sent_ns[0], []
        for burst, sent in zip(self.bursts, self.sent_ns):
            out.append(sent - due)
            due += burst.next_period_ns
        return out


def check_udp_events(rows, bursts) -> tuple[dict, list[str]]:
    """Per-burst receive outcomes keyed by sequence number, and failed checks."""
    outcomes, failures = {}, []
    for row in rows:
        seq, outcome, delay, size = row.split(",")
        seq = int(seq)
        if not 0 <= seq < len(bursts):
            failures.append(f"recv reported burst {seq}, which was never sent")
        elif int(size) != bursts[seq].burst_size:
            failures.append(f"recv reported burst {seq} of {size} B, sent {bursts[seq].burst_size} B")
        elif seq in outcomes:
            failures.append(f"recv reported burst {seq} twice")
        else:
            outcomes[seq] = (outcome, int(delay) if delay else None)
    return outcomes, failures


class UdpReceiver:
    """The receiver child of one run (``recv_child.py``), kept for all its passes.

    The child binds a UDP socket on the configured host and reports its port.
    For each pass it runs ``vrburst.cli.receive_bursts`` on that socket for a
    given time and reports the counters and its CPU time; at the end it
    reports its peak RSS and, when traced, its spans. ``close`` ends it on
    every path out of the run.
    """

    def __init__(self, src: Path, seed: int, scale: float, traced: bool, stderr_path: Path):
        from vrburst.generator import VrBurstGenerator
        from vrburst.model import VrModelConstants, VrStreamParams
        from vrburst.rv import RngStream

        cfg = CONFIGS["udp-loopback"]
        generator = VrBurstGenerator(
            VrStreamParams(cfg["rate_mbps"] * 1e6, cfg["fps"]),
            RngStream(seed, 1),
            VrModelConstants(**GEN_CONSTANTS),
        )
        count = max(1, round(cfg["segment_s"] * scale * cfg["fps"]))
        self.segments = [
            [generator.generate_burst() for _ in range(count)]
            for _ in range(max(1, round(cfg["stream_s"] / cfg["segment_s"])))
        ]
        self.passes = 0  # passes sent so far; pass k sends segment k, cycling
        self.final: dict = {}
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "recv_child.py"), "--src", str(src), "--listen", cfg["listen"],
             "--rcvbuf", str(cfg["rcvbuf_bytes"]), "--trace", "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr, text=True, bufsize=1,
        )  # fmt: skip
        # Sender and receiver each on a core of their own, when there are two:
        # where the scheduler places them otherwise changes from run to run,
        # and the cost of a burst with it.
        self._affinity = os.sched_getaffinity(0)
        if len(self._affinity) >= 2:
            sender_cpu, receiver_cpu = sorted(self._affinity)[:2]
            os.sched_setaffinity(self.child.pid, {receiver_cpu})
            os.sched_setaffinity(0, {sender_cpu})
        line = self.child.stdout.readline().split()
        self.port = int(line[1]) if len(line) == 2 and line[0] == "port" else None

    def receive(self, events: Path, duration_s: float) -> None:
        """Start one receive call; returns once the child is in it."""
        self.child.stdin.write(f"{events}\t{duration_s!r}\n")
        self.child.stdin.flush()
        if self.child.stdout.readline().strip() != "receiving":
            raise RuntimeError("recv child stopped")

    def result(self) -> dict:
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("recv child stopped")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.child.poll() is None:
                self.child.stdin.close()  # the child reports and exits at end of input
                lines = self.child.stdout.read().strip().splitlines()
                self.final = json.loads(lines[-1]) if lines else {}
                self.child.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.child.poll() is None:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()
            self._stderr.close()
            os.sched_setaffinity(0, self._affinity)

    def stderr_text(self) -> str:
        self._stderr.flush()
        return Path(self._stderr.name).read_text(encoding="utf-8").strip()


def udp_pass(out: Path, timer: RefTimer, receiver: UdpReceiver) -> PassResult:
    """Send the receiver's schedule once, paced, from a new socket, and check what arrived."""
    import vrburst.cli

    cfg = CONFIGS["udp-loopback"]
    segment = receiver.passes % len(receiver.segments)
    bursts = receiver.segments[segment]
    receiver.passes += 1
    result = PassResult(bursts=len(bursts), attempted=len(bursts))
    if receiver.port is None or receiver.child.poll() is not None:
        result.fail(f"recv child is not running: {receiver.stderr_text()}", len(bursts))
        return result
    schedule_s = sum(b.next_period_ns for b in bursts) / 1e9
    events = out / "recv_events.csv"
    recorder = ScheduleRecorder(bursts)
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        receiver.receive(events, schedule_s + cfg["drain_s"])
        counters = vrburst.cli.send_bursts(
            (cfg["listen"], receiver.port), recorder, fragment_size=cfg["fragment_size"], pacing=True
        )
        timing = Timing(time.perf_counter() - wall0, time.process_time() - cpu0)
        timing.ref_wall, timing.ref_cpu = timer.paced_reference()  # while the receiver drains
        recv = receiver.result()
    except (OSError, RuntimeError, ValueError) as exc:
        result.fail(f"recv child failed: {exc}: {receiver.stderr_text()}", len(bursts))
        return result
    result.add(timing)
    result.cpu_s += recv["cpu_s"]

    outcomes, failures = check_udp_events(_trace_rows(events.read_text(encoding="utf-8")), bursts)
    if counters["bursts_sent"] != len(bursts):
        failures.append(f"send_bursts sent {counters['bursts_sent']} of {len(bursts)} bursts")
    if recv["malformed"]:
        failures.append(f"recv counted {recv['malformed']} malformed datagrams")
    if recv["datagrams"] > counters["fragments_sent"]:
        failures.append(f"recv counted {recv['datagrams']} datagrams, {counters['fragments_sent']} were sent")
    lateness = recorder.lateness_ns()
    delays = [
        (lateness[seq] + delay) / 1e3
        for seq, (outcome, delay) in sorted(outcomes.items())
        if outcome == "received"
    ]
    result.failures.extend(failures)
    # every burst not reassembled is a failed operation
    result.failed = len(bursts) - len(delays) + len(failures)
    schedule_text = "".join(f"{b.burst_size},{b.next_period_ns}\n" for b in bursts)
    outcome_text = "".join(f"{seq},{o},{bursts[seq].burst_size}\n" for seq, (o, _) in sorted(outcomes.items()))
    result.digests[f"send_schedule_{segment}"] = sha256_text(schedule_text)
    result.digests[f"recv_outcomes_{segment}"] = sha256_text(outcome_text)
    result.samples["burst_delay_us"] = delays
    result.samples["burst_delay_ref"] = [d / 1e6 / timing.ref_wall for d in delays]
    result.samples["lateness_us"] = [x / 1e3 for x in lateness]
    fragments = counters["fragments_sent"]
    result.figures.update(
        {
            "udp_recv_cpu_us_per_frag": recv["cpu_s"] * 1e6 / max(1, recv["datagrams"]),
            "cli.send.ns_per_frag": timing.cpu * 1e9 / max(1, fragments),
            "cli.recv.datagrams": recv["datagrams"],
            "cli.recv.datagrams_lost": fragments - recv["datagrams"],
            "cli.recv.bursts_discarded": recv["bursts_discarded"],
            "wire.bursts_discarded": recv["bursts_discarded"],
            "cli.recv.s_per_call": recv["wall_s"],
        }
    )
    return result


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, the definition vrburst's own reports use."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100.0) - 1)]


def run_pass(workload: str, seed: int, out: Path, scale: float, timer: RefTimer, receiver=None) -> PassResult:
    """One pass of ``workload``; udp-loopback needs the run's :class:`UdpReceiver`."""
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("sim-sweep", "sim-congested"):
        return sim_pass(workload, seed, out, scale, timer)
    if workload == "trace-fit":
        return trace_fit_pass(seed, out, scale, timer)
    return udp_pass(out, timer, receiver)
