"""Tests of the benchmark itself: python3 -m pytest perfbench

A tiny run of every workload must pass its output checks and print every
declared metric; a tampered output must be counted as a failure.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )  # fmt: skip


def tiny_run(workload, trace=0, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "0.05")  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_checks_and_prints_every_end_to_end_metric(workload):
    _, result = tiny_run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics_and_accounts_for_wall_time():
    lines, result = tiny_run("sim-congested", trace=1)
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.traced_wall_s"], rel=1e-9)
    shares = [v for k, v in metrics.items() if k.startswith("layer.")]
    assert sum(shares) == pytest.approx(1.0, rel=1e-9)
    assert metrics["wire.fragment_burst.ns_per_fragment"] > 0
    assert metrics["sim.simulate.self_ns_per_fragment"] > 0
    # a blocked-draw refactor must keep the words drawn; loss draws are one per fragment
    assert metrics["rv.uniform.words"] >= metrics["sim.fragments_sent"]
    assert any(line.startswith("span ") for line in lines)


def test_same_seed_same_digests_other_seed_other_digests(tmp_path):
    timer = workloads.RefTimer(100)
    one = workloads.run_pass("sim-congested", 5, tmp_path / "a", 0.05, timer)
    two = workloads.run_pass("sim-congested", 5, tmp_path / "b", 0.05, timer)
    other = workloads.run_pass("sim-congested", 6, tmp_path / "c", 0.05, timer)
    assert one.digests == two.digests
    assert one.digests != other.digests
    assert run.digest_consistency([one, two]) == []
    assert len(run.digest_consistency([one, other])) == 1


def test_broken_conservation_sum_is_a_failure(tmp_path):
    result = workloads.run_pass("sim-sweep", 2, tmp_path, 0.02, workloads.RefTimer(100))
    assert result.attempted == 8 and result.failed == 0
    reports = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(tmp_path.glob("simulate_n*.json"))]
    assert len(reports) == 8
    assert all(workloads.check_sim_report(r) == [] for r in reports)

    tampered = copy.deepcopy(reports[-1])
    tampered["link"]["fragments_lost"] += 1
    assert len(workloads.check_sim_report(tampered)) == 1

    tampered = copy.deepcopy(reports[-1])
    tampered["per_station"][0]["bursts_received"] -= 1
    assert workloads.check_sim_report(tampered) == [
        f"N={tampered['config']['n_stations']}: per-station bursts_received sum "
        f"{tampered['burst']['received'] - 1} != total {tampered['burst']['received']}"
    ]


def test_replay_window_outside_its_source_is_a_failure():
    source = ["100,1000", "200,1000", "300,1000", "400,1000", "500,1000"]
    assert workloads.check_replay_window(source, source[1:3], 0.001, 0.002) == []
    assert workloads.check_replay_window(source, source[1:4], 0.001, 0.002) != []
    assert workloads.check_replay_window(source, ["200,1000", "999,1000"], 0.001, 0.002) != []
    assert workloads.check_replay_window(source, [], 0.001, 0.002) != []


def test_udp_outcome_that_does_not_match_the_schedule_is_a_failure():
    from vrburst.generator import BurstDescriptor

    bursts = [BurstDescriptor(5000, 1_000_000), BurstDescriptor(7000, 1_000_000)]
    outcomes, failures = workloads.check_udp_events(["0,received,900,5000", "1,received,950,7000"], bursts)
    assert failures == [] and len(outcomes) == 2
    _, failures = workloads.check_udp_events(["0,received,900,5001"], bursts)
    assert len(failures) == 1
    _, failures = workloads.check_udp_events(["2,received,900,5000", "0,discarded,,5000", "0,received,9,5000"], bursts)
    assert len(failures) == 2


def test_schedule_recorder_times_bursts_from_when_they_were_due():
    from vrburst.generator import BurstDescriptor

    recorder = workloads.ScheduleRecorder([BurstDescriptor(1, 10), BurstDescriptor(1, 10), BurstDescriptor(1, 10)])
    while recorder.has_next_burst():
        recorder.generate_burst()
    recorder.sent_ns = [1000, 1015, 1020]
    assert recorder.lateness_ns() == [0, 5, 0]


def test_ref_timer_gives_times_as_multiples_of_the_reference_loop():
    timer = workloads.RefTimer(2000)
    with timer.time() as first:
        workloads.reference_loop(4000)
    with timer.time() as second:
        pass
    assert len(timer.walls) == 3  # the run after the first block is the second's "before"
    assert first.wall / first.ref_wall == pytest.approx(2.0, rel=0.5)
    assert second.ref_wall > 0 and second.ref_cpu > 0

    result = workloads.PassResult()
    assert result.wall_ref == result.cpu_ref == 0.0
    result.add(first)
    result.add(second)
    median_wall = (first.ref_wall + second.ref_wall) / 2
    assert result.wall_ref == pytest.approx((first.wall + second.wall) / median_wall)
    assert result.cpu_ref == pytest.approx((first.cpu + second.cpu) / ((first.ref_cpu + second.ref_cpu) / 2))


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sim-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
