"""vrburst benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0

Workloads are sim-sweep, sim-congested, trace-fit and udp-loopback (see
``workloads.CONFIGS``), or ``all`` to run each in its own process. The seed
makes every input; the same seed gives the same inputs and the same output
digests. vrburst is imported from ``src/`` next to this directory, never from
an installed copy.

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the last
line of stdout is a JSON object whose metrics are the ``end_to_end`` list of
BENCHMARK.json. Their host times are multiples of the reference loop run
next to each timed command (see ``workloads.RefTimer``), unit ``ref``. With ``--trace 1`` half the time runs untraced and half with
spans wrapped around vrburst's public functions, and the metrics are the
``per_layer`` list. The lines before it give every figure with its unit,
median, quartiles and sample count, the machine fingerprint, the output
digests, the known-defect counts and any failed check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, SENDER_PATCHES, Tracer
from workloads import CONFIGS, RefTimer, UdpReceiver, percentile, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-sweep", "sim-congested", "trace-fit", "udp-loopback")
SETUP_REPS = 3  # at the start of a run and again at its end

# Figures printed in the summary next to the end-to-end metrics: the
# user-facing numbers of the workloads that run the command they time.
SUMMARY = (
    "sim_frag_per_s",
    "gen_bursts_per_s",
    "trace_io_bursts_per_s",
    "fit_wall_s",
    "fit_const_rel_err_max",
    "udp_burst_delay_p50_us",
    "udp_recv_cpu_us_per_frag",
    "op_latency_ms",
    "cpu_us_per_burst",
    "ref_loop_ms",
)
DEFECTS = ("sim.bursts_unaccounted", "fit.em.converged_ratio")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor (tests use a tiny one)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be non-negative, --seconds and --scale positive")
    return args


def import_vrburst():
    """Import vrburst from this checkout's src/, or exit non-zero without a result."""
    if not (SRC / "vrburst" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'vrburst'} not found; run from a vrburst checkout")
    sys.path.insert(0, str(SRC))
    import vrburst

    if Path(vrburst.__file__).resolve().parent != (SRC / "vrburst").resolve():
        sys.exit(f"error: imported vrburst from {vrburst.__file__}, not from {SRC}")
    return vrburst


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def measure_setup(reps: int = SETUP_REPS, warm_up: bool = True) -> list[float]:
    """Wall seconds from a fresh interpreter to vrburst imported and its CLI parser built.

    With ``warm_up`` one untimed start first writes the bytecode caches."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import vrburst.cli; vrburst.cli.build_parser()"
    times = []
    for rep in range(reps + warm_up):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        if rep >= warm_up:
            times.append(time.perf_counter() - start)
    return times


def fingerprint(vrburst) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rng_algorithm": vrburst.RNG_ALGORITHM,
        "vrburst": vrburst.__version__,
    }


def spread(values) -> dict:
    """Median, quartiles (as statistics.quantiles gives them) and sample count."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_passes(workload, seed, seconds, scale, out, timer, tracer=None):
    """Repeat whole passes of the workload until ``seconds`` have gone by.

    Returns the passes and, for udp-loopback, the receiver child's final
    report (peak RSS, spans)."""
    traced = tracer is not None
    out.mkdir(parents=True, exist_ok=True)
    receiver = None
    if workload == "udp-loopback":
        receiver = UdpReceiver(SRC, seed, scale, traced, out / f"recv_stderr_{int(traced)}.txt")
    passes = []
    try:
        end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < end:
            pass_out = out / f"{'traced' if traced else 'plain'}{len(passes)}"
            gc.collect()  # each pass starts without the previous pass's garbage
            if tracer is None:
                passes.append(run_pass(workload, seed, pass_out, scale, timer, receiver))
            else:
                with tracer.span("bench.pass"):
                    passes.append(run_pass(workload, seed, pass_out, scale, timer, receiver))
            shutil.rmtree(pass_out, ignore_errors=True)
    finally:
        if receiver is not None:
            receiver.close()
    return passes, (receiver.final if receiver else {})


def workload_figures(workload, passes) -> dict:
    """Every figure of the untraced passes, each as a spread over its samples."""
    out = {}
    names = {name for p in passes for name in p.figures}
    for name in sorted(names):
        out[name] = spread(p.figures[name] for p in passes if name in p.figures)
    if workload == "udp-loopback":
        delays = [d for p in passes for d in p.samples["burst_delay_us"]]
        lateness = [x for p in passes for x in p.samples["lateness_us"]]
        if delays:
            out["udp_burst_delay_p50_us"] = spread(delays)
            out["cli.recv.burst_delay_p95_us"] = {"median": percentile(delays, 95), "n": len(delays)}
        out["cli.send.lateness_p50_us"] = {"median": percentile(lateness, 50), "n": len(lateness)}
        out["cli.send.lateness_max_us"] = {"median": max(lateness), "n": len(lateness)}
    return out


def end_to_end(workload, passes, setup, peak_rss_kb) -> dict:
    """The gated metrics. A user's operation is one burst on udp-loopback and one pass elsewhere."""
    if workload == "udp-loopback":
        latency = spread([d for p in passes for d in p.samples.get("burst_delay_ref", [])] or [0.0])
    else:
        latency = spread(p.wall_ref for p in passes)
    return {
        "op_latency_ref": latency,
        "cpu_per_burst_ref": spread(p.cpu_ref / max(1, p.bursts) for p in passes),
        "peak_rss_mb": {"median": peak_rss_kb / 1024, "n": 1},
        "setup_s": spread(setup),
    }


def host_figures(workload, passes, timer) -> dict:
    """The same times in host units, and the reference loop's own time; not gated."""
    if workload == "udp-loopback":
        latency = spread([d / 1e3 for p in passes for d in p.samples.get("burst_delay_us", [])] or [0.0])
    else:
        latency = spread(p.wall_s * 1e3 for p in passes)
    return {
        "op_latency_ms": latency,
        "cpu_us_per_burst": spread(p.cpu_s * 1e6 / max(1, p.bursts) for p in passes),
        "ref_loop_ms": spread(w * 1e3 for w in timer.walls),
    }


def per_layer(plain, traced, tracer, recv_spans, figures) -> dict:
    """Per-layer figures: span-derived ones from the traced passes, the rest from the plain ones."""
    recv = Tracer.from_json(recv_spans)
    n = len(traced)

    def total(name):
        calls, tot, self_ns, work = (a + b for a, b in zip(tracer.totals(name), recv.totals(name)))
        return calls, tot, self_ns, work

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    calls, _, self_ns, words = total("rv.uniform")
    m["rv.uniform.calls"] = calls / n
    m["rv.uniform.words"] = words / n
    m["rv.uniform.self_ns_per_word"] = ratio(self_ns, words)
    frames, frame_ns, _, _ = total("model.sample_vr_frame")
    m["model.sample_vr_frame.ns_per_frame"] = ratio(frame_ns, frames)
    draws, ifi_ns, _, _ = total("model.sample_vr_ifi")
    m["model.sample_vr_ifi.ns_per_draw"] = ratio(ifi_ns, draws)
    frame_words = tracer.work_under("rv.uniform", "model.sample_vr_frame")
    m["model.frame_redraw_ratio"] = ratio(frame_words - 2 * frames, 2 * frames)
    for name, metric in (
        ("generator.generate_burst", "generator.generate_burst.ns_per_burst"),
        ("wire.on_fragment", "wire.on_fragment.ns_per_fragment"),
        ("wire.encode_header", "wire.encode_header.ns_per_call"),
        ("wire.decode_header", "wire.decode_header.ns_per_call"),
        ("fit.group_traces", "fit.group_traces.ns"),
    ):
        calls, tot, _, _ = total(name)
        m[metric] = ratio(tot, calls)
    for name, metric in (
        ("generator.save_trace", "generator.save_trace.ns_per_burst"),
        ("generator.load_trace", "generator.load_trace.ns_per_burst"),
        ("wire.fragment_burst", "wire.fragment_burst.ns_per_fragment"),
        ("sim.summarize", "sim.summarize.ns_per_fragment"),
        ("fit.fit_gmm2_em", "fit.fit_gmm2_em.ns_per_sample_restart"),
    ):
        _, tot, _, work = total(name)
        m[metric] = ratio(tot, work)
    _, _, self_ns, work = total("sim.simulate")
    m["sim.simulate.self_ns_per_fragment"] = ratio(self_ns, work)
    for command in ("generate", "stats", "replay", "simulate", "fit", "send"):
        calls, tot, _, _ = total(f"cli.{command}")
        m[f"cli.{command}.s_per_call"] = ratio(tot, calls) / 1e9

    root_ns = tracer.root_ns()
    layer_self = tracer.layer_self_ns()
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = ratio(layer_self[layer], root_ns)
    m["trace.traced_wall_s"] = root_ns / n / 1e9
    m["trace.self_sum_s"] = sum(layer_self.values()) / n / 1e9
    # overhead on CPU time per burst, in reference-loop units: the paced udp
    # sender's wall time is fixed by its schedule
    def cost(p):
        return p.cpu_ref / max(1, p.bursts)

    m["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in plain)
    m["trace.overhead_ratio"] = ratio(statistics.median(map(cost, traced)), statistics.median(map(cost, plain))) - 1.0

    for name, fig in figures.items():
        m.setdefault(name, fig["median"])
    return m


def digest_consistency(passes) -> list[str]:
    """Passes given the same inputs must write the same outputs (a udp receive outcome may differ)."""
    failures, seen = [], {}
    for index, p in enumerate(passes):
        for name, digest in p.digests.items():
            if not name.startswith("recv_outcomes") and seen.setdefault(name, (index, digest))[1] != digest:
                failures.append(f"pass {index} wrote a different {name} than pass {seen[name][0]}")
    return failures


def all_digests(passes) -> dict:
    """Each output's digest as the first pass that wrote it gave it."""
    out = {}
    for p in passes:
        for name, digest in p.digests.items():
            out.setdefault(name, digest)
    return out


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    vrburst = import_vrburst()
    spec = load_spec()
    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        setup = measure_setup()
        budget = args.seconds / 2 if args.trace else args.seconds
        timer = RefTimer()
        plain, recv_final = run_passes(args.workload, args.seed, budget, args.scale, out, timer)
        traced, tracer, recv_traced = [], None, {}
        if args.trace:
            tracer = Tracer()
            tracer.install(SENDER_PATCHES)
            try:
                traced, recv_traced = run_passes(args.workload, args.seed, budget, args.scale, out, RefTimer(), tracer)
            finally:
                tracer.uninstall()
        setup += measure_setup(warm_up=False)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.is_dir() and not any(out.parent.iterdir()):
            out.parent.rmdir()

    passes = plain + traced
    mismatches = digest_consistency(passes)
    failures = [msg for p in passes for msg in p.failures] + mismatches
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(mismatches)
    peak_rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, recv_final.get("maxrss_kb", 0))
    figures = {**workload_figures(args.workload, plain), **host_figures(args.workload, plain, timer)}
    e2e = end_to_end(args.workload, plain, setup, peak_rss_kb)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"passes {len(plain)} untraced, {len(traced)} traced")  # fmt: skip
    print("config " + json.dumps({**CONFIGS[args.workload], "scale": args.scale}))
    print("fingerprint " + json.dumps(fingerprint(vrburst)))
    print("pass_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in plain))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, s in list(e2e.items()) + [(k, v) for k, v in figures.items() if k in SUMMARY]:
        quart = f" q1 {fmt(s['q1'])} q3 {fmt(s['q3'])}" if "q1" in s else ""
        print(f"metric {name} {fmt(s['median'])} {units[name]}{quart} n {s['n']}")
    for name in DEFECTS:
        if name in figures:
            print(f"defect {name} {fmt(figures[name]['median'])} (reported, not gated)")
    print("digests " + json.dumps(all_digests(passes), sort_keys=True))
    print(f"checks attempted {attempted} failed {failed}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")

    if args.trace:
        values = per_layer(plain, traced, tracer, recv_traced.get("spans", []), figures)
        for row in tracer.to_json():
            print("span " + json.dumps(row))
        chosen = spec["per_layer"]
    else:
        values = {name: s["median"] for name, s in e2e.items()}
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace), "--scale", repr(args.scale)]  # fmt: skip
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
