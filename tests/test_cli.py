import json
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrburst.cli
from vrburst.cli import _open_receive_socket, build_parser, main, receive_bursts, send_bursts
from vrburst.fit import fit_vr_model, group_traces
from vrburst.generator import BurstDescriptor, SimpleBurstGenerator, load_trace, save_trace
from vrburst.model import VrModelConstants
from vrburst.rv import RngStream, dist_from_spec
from vrburst.wire import FragmentHeader, encode_header


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_vr_trace_row_count_and_mean(self, tmp_path, capsys):
        out = tmp_path / "vr.csv"
        code, stdout, _ = run(
            capsys, "generate", "--model", "vr", "--rate-mbps", "50", "--fps", "60",
            "--duration-s", "60", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        trace = load_trace(out)
        assert len(trace.records) == pytest.approx(3600, rel=0.02)
        mean_size = trace.records[:, 0].mean()
        assert mean_size == pytest.approx(104_167, rel=0.02)
        assert trace.metadata["target_rate_mbps"] == "50.0"
        assert trace.metadata["fps"] == "60.0"
        assert trace.metadata["seed"] == "5"

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate", "--rate-mbps", "20", "--fps", "30",
                "--duration-s", "5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_duration_too_short_for_a_burst_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--duration-s", "1e-10", "--out", str(tmp_path / "x.csv")
        )
        assert code == 3
        assert "empty" in err

    def test_simple_model(self, tmp_path, capsys):
        out = tmp_path / "simple.csv"
        code, _, _ = run(
            capsys, "generate", "--model", "simple", "--size-dist", "constant:500",
            "--period-dist", "constant:0.02", "--duration-s", "1", "--out", str(out),
        )
        assert code == 0
        trace = load_trace(out)
        assert len(trace.records) == 50
        assert (trace.records[:, 0] == 500).all()

    def test_simple_model_requires_dists(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--model", "simple", "--duration-s", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_custom_params_file(self, tmp_path, capsys):
        params = tmp_path / "k.json"
        params.write_text(json.dumps(VrModelConstants(ifi_std_coeff=0.0).to_dict()))
        out = tmp_path / "vr.csv"
        code, _, _ = run(
            capsys, "generate", "--fps", "50", "--duration-s", "1",
            "--params", str(params), "--out", str(out),
        )
        assert code == 0
        # zero IFI spread: every period is exactly 20 ms
        assert (load_trace(out).records[:, 1] == 20_000_000).all()


class TestReplay:
    def test_windowing(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        save_trace(src, [BurstDescriptor(i + 1, 10_000_000) for i in range(10)], {"fps": "100"})
        out = tmp_path / "win.csv"
        code, _, _ = run(
            capsys, "replay", "--trace", str(src), "--start-time", "0.05",
            "--duration-s", "0.03", "--out", str(out),
        )
        assert code == 0
        replayed = load_trace(out)
        assert replayed.records[:, 0].tolist() == [6, 7, 8]
        assert replayed.metadata["fps"] == "100"
        assert replayed.metadata["source"] == "vrburst replay"

    def test_empty_window_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        save_trace(src, [BurstDescriptor(1, 1000)])
        code, _, err = run(
            capsys, "replay", "--trace", str(src), "--start-time", "99",
            "--out", str(tmp_path / "w.csv"),
        )
        assert code == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        code, _, err = run(capsys, "replay", "--trace", str(bad), "--out", str(tmp_path / "w.csv"))
        assert code == 3
        assert "line 1" in err

    def test_non_utf8_trace_is_one_parse_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad8.csv"
        bad.write_bytes(b"# fps: 60\n1000,16667\n10\xff0,16667\n")
        code, out, err = run(capsys, "stats", str(bad))
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: line 3: byte 0xff is not UTF-8 (invalid start byte)"]

    @pytest.mark.parametrize("row", ["1180591620717411303424,16000", "1000,9300000000000000"])
    @pytest.mark.parametrize("command", ["stats", "replay", "simulate"])
    def test_values_beyond_int64_are_parse_errors(self, tmp_path, capsys, command, row):
        # a size, or a period in ns, past 2**63 - 1 names its line in every trace command
        src = tmp_path / "big.csv"
        src.write_text(f"1000,16000\n{row}\n")
        argv = {
            "stats": ["stats", str(src)],
            "replay": ["replay", "--trace", str(src), "--out", str(tmp_path / "w.csv")],
            "simulate": ["simulate", "--model", "trace", "--trace", str(src), "--duration-s", "1"],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert err.startswith("error: line 2: ") and "int64" in err

    @pytest.mark.parametrize("command", ["stats", "replay", "simulate"])
    def test_total_period_beyond_int64_is_parse_error(self, tmp_path, capsys, command):
        # every row fits, but burst times are int64 running totals of the periods
        src = tmp_path / "long.csv"
        src.write_text("1000,9000000000000000\n2000,9000000000000000\n3000,16000\n")
        argv = {
            "stats": ["stats", str(src)],
            "replay": ["replay", "--trace", str(src), "--duration-s", "9500000000",
                       "--out", str(tmp_path / "w.csv")],
            "simulate": ["simulate", "--model", "trace", "--trace", str(src), "--duration-s", "1"],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert err.startswith("error: line 2: ") and "int64" in err
        assert not (tmp_path / "w.csv").exists()


class TestSimulate:
    def test_single_report_to_stdout(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--model", "simple", "--size-dist", "constant:1254",
            "--period-dist", "constant:0.01", "--link-mbps", "10", "--duration-s", "1",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["burst"]["mean_delay_ns"] == 1_022_400

    def test_total_loss(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--model", "vr", "--rate-mbps", "10", "--fps", "30",
            "--duration-s", "1", "--loss", "1.0",
        )
        report = json.loads(stdout)
        assert report["burst"]["success_ratio"] == 0.0

    def test_station_sweep_reports_and_trend(self, capsys):
        code, stdout, _ = run(
            capsys, "simulate", "--stations", "1..3", "--rate-mbps", "50", "--fps", "60",
            "--duration-s", "2", "--seed", "11",
        )
        reports = json.loads(stdout)
        assert len(reports) == 3
        means = [r["burst"]["mean_delay_ns"] for r in reports]
        assert means == sorted(means)

    def test_same_seed_byte_identical_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--rate-mbps", "20", "--fps", "30", "--duration-s", "1",
                "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("stations", ["1", "1..2"])
    def test_out_file_holds_the_bytes_printed(self, tmp_path, capsys, stations):
        args = ["simulate", "--stations", stations, "--duration-s", "1"]
        code, stdout, _ = run(capsys, *args)
        assert code == 0
        assert stdout.endswith("\n") and not stdout.endswith("\n\n")
        out = tmp_path / "r.json"
        assert run(capsys, *args, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_trace_source_echoes_metadata(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        save_trace(src, [BurstDescriptor(1000, 10_000_000)] * 50, {"fps": "60"})
        code, stdout, _ = run(
            capsys, "simulate", "--model", "trace", "--trace", str(src),
            "--duration-s", "0.5", "--link-mbps", "10",
        )
        report = json.loads(stdout)
        assert report["trace_metadata"] == {"fps": "60"}

    def test_bad_stations_spec(self, capsys):
        code, _, err = run(capsys, "simulate", "--stations", "0")
        assert code == 2

    @pytest.mark.parametrize("spec", ["abc", "1..x", "..3", "3..1"])
    def test_unparsable_stations_spec_is_usage_error(self, capsys, spec):
        code, stdout, err = run(capsys, "simulate", "--stations", spec)
        assert (code, stdout, err) == (2, "", f"error: bad --stations spec {spec!r}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--fragment-size", "24"],
             "error: fragment_size must exceed the 24-byte header, got 24\n"),
            (["--model", "simple", "--size-dist", "constant:100000000",
              "--period-dist", "constant:0.01"],
             "error: burst of 100000000 B needs 79745 fragments at fragment_size 1278, "
             "beyond the u16 fragment-count field\n"),
        ],
    )
    def test_impossible_fragmentation_is_data_error(self, capsys, argv, message):
        code, stdout, err = run(capsys, "simulate", "--duration-s", "0.1", *argv)
        assert (code, stdout, err) == (3, "", message)

    @pytest.mark.parametrize("fragment_size", ["10", "-5"])
    def test_fragment_size_without_payload_is_data_error_with_no_burst(self, tmp_path, capsys, fragment_size):
        # the window starts past the trace's end, so no burst is scheduled
        trace = tmp_path / "t.csv"
        save_trace(trace, [BurstDescriptor(1000, 10_000_000)])
        code, stdout, err = run(capsys, "simulate", "--model", "trace", "--trace", str(trace),
                                "--start-time", "1000", "--duration-s", "0.01", "--fragment-size", fragment_size)
        message = f"error: fragment_size must exceed the 24-byte header, got {fragment_size}\n"
        assert (code, stdout, err) == (3, "", message)


class TestStats:
    def test_two_row_trace(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        save_trace(src, [BurstDescriptor(1000, 10_000_000), BurstDescriptor(3000, 10_000_000)])
        code, stdout, _ = run(capsys, "stats", str(src))
        assert code == 0
        stats = json.loads(stdout)
        assert stats["bursts"] == 2
        assert stats["size_bytes"]["mean"] == 2000.0
        assert stats["data_rate_mbps"] == pytest.approx(1.6)

    def test_generated_trace_period(self, tmp_path, capsys):
        out = tmp_path / "vr.csv"
        main(["generate", "--rate-mbps", "30", "--fps", "30", "--duration-s", "30",
              "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        code, stdout, _ = run(capsys, "stats", str(out))
        stats = json.loads(stdout)
        assert stats["period_ns"]["mean"] == pytest.approx(33.333e6, rel=0.005)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", str(tmp_path / "absent.csv"))
        assert code == 4

    # an int64 sum of these sizes wraps without a warning; load_trace bounds only the periods' total
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev rounds correctly from Python 3.11")
    def test_sizes_summing_past_int64(self, tmp_path, capsys):
        sizes = [2**62, 2**62 + 1, 2**63 - 1, 2**53 + 1]
        periods_us = [16667, 16666, 1, 1_000_000]
        src = tmp_path / "huge.csv"
        src.write_text("".join(f"{s},{p}\n" for s, p in zip(sizes, periods_us)))
        code, stdout, _ = run(capsys, "stats", str(src))
        assert code == 0
        stats = json.loads(stdout)
        periods_ns = [p * 1000 for p in periods_us]
        assert sum(sizes) >= 2**63
        assert stats["data_rate_mbps"] == sum(sizes) * 8 / (sum(periods_ns) / 10**9) / 1e6
        assert stats["size_bytes"]["mean"] == statistics.fmean(sizes)
        assert stats["size_bytes"]["std"] == statistics.stdev(sizes)
        assert stats["period_ns"]["mean"] == statistics.fmean(periods_ns)
        assert stats["period_ns"]["std"] == statistics.stdev(periods_ns)

    # the summary keeps the bytes of Python 3.11's correctly rounded stdev
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev rounds correctly from Python 3.11")
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    @example([7])
    @example([1, 2])
    @example([2**63 - 1, 2**63 - 1, 2**63 - 2])  # sums beyond int64
    @example([-(2**63), 2**63 - 1])
    @example([10**18, 3 * 10**18, 9 * 10**18, 2])
    def test_summary_equals_statistics(self, values):
        summary = vrburst.cli._summary(np.array(values, dtype=np.int64))
        assert summary["mean"] == statistics.fmean(values)
        assert summary["std"] == (statistics.stdev(values) if len(values) > 1 else 0.0)


class TestFitCommand:
    def test_fit_emits_loadable_constants(self, tmp_path, capsys):
        traces = []
        for rate, fps in [(10, 30), (50, 30), (20, 60), (50, 60)]:
            path = tmp_path / f"{rate}_{fps}.csv"
            main(["generate", "--rate-mbps", str(rate), "--fps", str(fps),
                  "--duration-s", "60", "--seed", str(rate + fps), "--out", str(path)])
            traces.append(str(path))
        capsys.readouterr()
        out = tmp_path / "constants.json"
        report_path = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, "fit", *traces, "--out", str(out), "--report", str(report_path),
            "--em-restarts", "4", "--seed", "3",
        )
        assert code == 0
        constants = VrModelConstants.load_json(out)
        assert 0.5 < constants.pframe_mean_slope <= 1.0 <= constants.iframe_mean_slope < 2.0
        report = json.loads(report_path.read_text())
        assert len(report["groups"]) == 4
        for group in report["groups"]:
            gmm = group["gmm"]
            assert len(gmm["restarts"]) == 4
            assert all(set(r) == {"iterations", "log_likelihood", "converged"}
                       for r in gmm["restarts"])
            best = max(gmm["restarts"], key=lambda r: r["log_likelihood"])
            assert best["log_likelihood"] == gmm["log_likelihood"]
            assert best["iterations"] == gmm["n_iterations"]
            assert best["converged"] == gmm["converged"]
        unconverged = sum(not g["gmm"]["converged"] for g in report["groups"])
        assert err.count("did not converge") == unconverged

    def test_fit_warns_about_each_unconverged_group(self, tmp_path, capsys, monkeypatch):
        traces = []
        for rate in (10, 50):
            path = tmp_path / f"{rate}.csv"
            main(["generate", "--rate-mbps", str(rate), "--fps", "60",
                  "--duration-s", "20", "--seed", str(rate), "--out", str(path)])
            traces.append(str(path))
        capsys.readouterr()
        fit_vr_model = vrburst.cli.fit_vr_model

        def starved(groups, **kwargs):
            return fit_vr_model(groups, **kwargs, em_max_iter=3)

        monkeypatch.setattr(vrburst.cli, "fit_vr_model", starved)
        report_path = tmp_path / "report.json"
        code, _, err = run(capsys, "fit", *traces, "--report", str(report_path),
                           "--em-restarts", "2")
        assert code == 0
        report = json.loads(report_path.read_text())
        assert [g["gmm"]["converged"] for g in report["groups"]] == [False, False]
        warnings = [line for line in err.splitlines() if "did not converge" in line]
        assert len(warnings) == 2
        assert "10 Mbit/s, 60 FPS" in warnings[0] and "50 Mbit/s, 60 FPS" in warnings[1]

    @staticmethod
    def two_group_traces(tmp_path):
        paths = [str(tmp_path / f"{rate}.csv") for rate in (10, 50)]
        for rate, path in zip((10, 50), paths):
            assert main(["generate", "--rate-mbps", str(rate), "--duration-s", "10", "--out", path]) == 0
        return paths

    def test_out_file_holds_the_bytes_printed(self, tmp_path, capsys):
        traces = self.two_group_traces(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(capsys, "fit", *traces, "--em-restarts", "2")
        assert code == 0
        assert stdout.endswith("\n") and not stdout.endswith("\n\n")
        out, report = tmp_path / "k.json", tmp_path / "report.json"
        code, stdout_out, _ = run(capsys, "fit", *traces, "--em-restarts", "2", "--out", str(out),
                                  "--report", str(report))
        assert (code, stdout_out) == (0, f"wrote model constants to {out}\n")
        assert out.read_bytes() == stdout.encode("utf-8")
        text = report.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_report_is_the_dict_fit_vr_model_returns(self, tmp_path, capsys):
        traces = self.two_group_traces(tmp_path)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "fit", *traces, "--em-restarts", "3", "--seed", "5",
                         "--report", str(report_path))
        assert code == 0
        report = fit_vr_model(group_traces(load_trace(path) for path in traces), em_restarts=3, seed=5)
        assert json.loads(json.dumps(report)) == report
        assert report_path.read_text(encoding="utf-8") == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize(
        "sizes, metadata, message",
        [
            ([1000, 2000, 3000], {"target_rate_mbps": 10, "fps": 60},
             "mixture fit of the 10 Mbit/s, 60 FPS group needs at least 10 samples, got 3"),
            ([1000] * 20, {"target_rate_mbps": 10, "fps": 60},
             "mixture fit of the 10 Mbit/s, 60 FPS group is degenerate: all samples are equal"),
            ([1000, 2000] * 10, {"target_rate_mbps": "ten", "fps": 60},
             "trace metadata target_rate_mbps 'ten' is not a positive number"),
            ([1000, 2000] * 10, {"target_rate_mbps": "nan", "fps": 60},
             "trace metadata target_rate_mbps 'nan' is not a positive number"),
            ([1000, 2000] * 10, {"target_rate_mbps": 10, "fps": 0},
             "trace metadata fps '0' is not a positive number"),
        ],
        ids=["three-rows", "equal-sizes", "rate-not-a-number", "rate-nan", "fps-zero"],
    )
    def test_group_data_error_names_the_group(self, tmp_path, capsys, sizes, metadata, message):
        good, bad = str(tmp_path / "good.csv"), str(tmp_path / "bad.csv")
        assert main(["generate", "--rate-mbps", "50", "--duration-s", "1", "--out", good]) == 0
        save_trace(bad, [BurstDescriptor(size, 16_666_667) for size in sizes], metadata)
        capsys.readouterr()
        code, stdout, err = run(capsys, "fit", good, bad, "--em-restarts", "2")
        assert (code, stdout) == (3, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_is_one_usage_error_line(self, tmp_path, capsys, restarts):
        traces = self.two_group_traces(tmp_path)
        capsys.readouterr()
        code, stdout, err = run(capsys, "fit", *traces, "--em-restarts", restarts)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: mixture fit needs at least 1 restart, got {restarts}"]

    @staticmethod
    def point_mass_traces(tmp_path):
        # A fifth of each group's frames share one size, so one component
        # collapses onto it and its sigma sits on the 1e-6 floor. The E step
        # then adds terms of about 5e15 whose ulp is about one nat, and the
        # likelihood seems to fall, which the monotonicity check raises on.
        paths = []
        for rate, seed in [(10, 0), (30, 1000)]:
            mean = rate * 1e6 / 60 / 8
            normal = np.random.default_rng(seed).normal(mean, 0.15 * mean, 2400)
            sizes = np.concatenate([np.full(600, round(0.5 * mean)), np.rint(normal)]).astype(np.int64)
            paths.append(str(tmp_path / f"r{rate}.csv"))
            save_trace(paths[-1], np.column_stack((sizes, np.full(3000, 16_666_667))),
                       {"target_rate_mbps": rate, "fps": 60})
        return paths

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="E step loses ~1 nat to rounding once a sigma sits on its floor")
    def test_point_mass_groups_fit_without_a_monotonicity_crash(self, tmp_path):
        paths = self.point_mass_traces(tmp_path)
        assert main(["fit", *paths, "--em-restarts", "8", "--out", str(tmp_path / "k.json")]) == 0

    def test_monotonicity_failure_is_one_error_line(self, tmp_path):
        paths = self.point_mass_traces(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "vrburst.cli", "fit", *paths, "--em-restarts", "8",
             "--out", str(tmp_path / "k.json")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )  # fmt: skip
        assert done.returncode == 3
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [done.stderr.strip()]
        assert re.match(r"error: EM log-likelihood of the \d+ Mbit/s, 60 FPS group decreased", done.stderr)

    def test_single_group_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        main(["generate", "--rate-mbps", "50", "--fps", "60", "--duration-s", "10",
              "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        code, _, err = run(capsys, "fit", str(path), "--out", str(tmp_path / "k.json"))
        assert code == 3


class TestUdpLoopback:
    def test_send_recv_round_trip(self, tmp_path):
        recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        # The default buffer (212992 B) holds about 90 of the 400 datagrams. A
        # stall of this process makes the paced sender catch up back to back,
        # and the kernel then drops what the buffer cannot hold.
        recv_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 2**20)
        recv_sock.bind(("127.0.0.1", 0))
        addr = recv_sock.getsockname()
        out = tmp_path / "events.csv"
        result = {}

        def receiver():
            result.update(receive_bursts(addr, out, duration_s=3.0, sock=recv_sock))

        thread = threading.Thread(target=receiver)
        thread.start()
        generator = SimpleBurstGenerator(dist_from_spec("constant:5000"), dist_from_spec("constant:0.001"), RngStream(1))
        sent = send_bursts(addr, generator, fragment_size=1278, pacing=True, max_bursts=100)
        thread.join()
        recv_sock.close()

        assert sent["bursts_sent"] == 100
        assert sent["fragments_sent"] == 400  # ceil(5000 / 1254 B payload) = 4 fragments
        # loopback is practically lossless, but stay flake-tolerant
        assert result["bursts_received"] >= 99
        rows = [
            line for line in out.read_text().splitlines() if line and not line.startswith("#")
        ]
        assert len(rows) >= 99
        seq, outcome, delay_ns, size = rows[0].split(",")
        assert outcome == "received"
        assert int(size) == 5000
        assert int(delay_ns) > 0

    def test_owned_socket_buffer_is_no_smaller_than_the_default(self):
        fresh = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        owned = _open_receive_socket(("127.0.0.1", 0))
        try:
            default = fresh.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            assert owned.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) >= default
            assert owned.getsockname()[1] != 0
        finally:
            fresh.close()
            owned.close()

    def test_owned_socket_closes_when_the_events_file_cannot_open(self, tmp_path, monkeypatch):
        opened = []

        def tracked(listen):
            opened.append(_open_receive_socket(listen))
            return opened[-1]

        monkeypatch.setattr(vrburst.cli, "_open_receive_socket", tracked)
        with pytest.raises(OSError):
            receive_bursts(("127.0.0.1", 0), tmp_path / "missing" / "x.csv", duration_s=0.1)
        assert [sock.fileno() for sock in opened] == [-1]

    def test_recv_without_sender_times_out_empty(self, tmp_path):
        out = tmp_path / "empty.csv"
        result = receive_bursts(("127.0.0.1", 0), out, duration_s=0.5)
        assert result["bursts_received"] == 0
        data_rows = [
            line for line in out.read_text().splitlines() if line and not line.startswith("#")
        ]
        assert data_rows == []

    def test_fragment_disagreeing_with_its_burst_is_malformed(self, tmp_path):
        recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv_sock.bind(("127.0.0.1", 0))
        addr = recv_sock.getsockname()
        out = tmp_path / "events.csv"
        result = {}

        def receiver():
            result.update(receive_bursts(addr, out, duration_s=1.0, sock=recv_sock))

        thread = threading.Thread(target=receiver)
        thread.start()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            for header, payload in [((0, 0, 2, 2000, 100), 1254),
                                    ((0, 5, 10, 9999, 7), 10),  # claims "index 5 of 10"
                                    ((0, 1, 2, 2000, 100), 746)]:
                sender.sendto(encode_header(FragmentHeader(*header)) + b"\x00" * payload, addr)
        thread.join()
        recv_sock.close()
        assert result == {"datagrams": 3, "malformed": 1, "late": 0, "duplicates": 0,
                          "bursts_received": 1, "bursts_discarded": 0, "bursts_in_flight": 0, "flows": 1,
                          "reads": 3, "gro": True}
        seq, outcome, _, size = out.read_text().splitlines()[-1].split(",")
        assert (seq, outcome, size) == ("0", "received", "2000")

    def test_tiny_fragments_on_the_wire(self, tmp_path):
        recv_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        recv_sock.bind(("127.0.0.1", 0))
        addr = recv_sock.getsockname()
        out = tmp_path / "events.csv"
        result = {}

        def receiver():
            result.update(receive_bursts(addr, out, duration_s=2.0, sock=recv_sock))

        thread = threading.Thread(target=receiver)
        thread.start()
        generator = SimpleBurstGenerator(dist_from_spec("constant:3"), dist_from_spec("constant:0.001"), RngStream(2))
        sent = send_bursts(addr, generator, fragment_size=25, pacing=False, max_bursts=10)
        thread.join()
        recv_sock.close()
        assert sent["fragments_sent"] == 30  # 3 one-byte payloads per burst
        assert result["datagrams"] >= 29


class TestCliPlumbing:
    def test_commands_import_no_scipy(self, tmp_path):
        # scipy is a test dependency only: the CLI runs on numpy and the stdlib.
        # Runs the same commands as the CI step that installs without extras.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import vrburst.cli; "
            "vrburst.cli.build_parser(); "
            f"assert vrburst.cli.main(['generate', '--duration-s', '1', '--out', {str(tmp_path / 'vr.csv')!r}]) == 0; "
            "assert vrburst.cli.main(['simulate', '--stations', '2', '--duration-s', '1']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_reused_parser_keeps_calls_apart(self, tmp_path, capsys):
        # main parses every call with one parser; no value of an earlier call,
        # nor a usage error, may reach a later one
        def outputs(tag):
            out = tmp_path / f"{tag}.csv"
            gen = main(["generate", "--rate-mbps", "20", "--fps", "30", "--duration-s", "1",
                        "--seed", "7", "--out", str(out)])
            capsys.readouterr()
            sim = run(capsys, "simulate", "--stations", "2", "--duration-s", "0.5", "--seed", "9")
            return gen, out.read_bytes(), sim

        first = outputs("a")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "3", "--queue-limit", "5", "--stations"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert outputs("b") == first
        assert first[0] == 0 and first[2][0] == 0

    def test_handler_is_looked_up_at_call_time(self, capsys, monkeypatch):
        assert main(["simulate", "--duration-s", "0.01"]) == 0
        calls = []
        monkeypatch.setattr(vrburst.cli, "cmd_simulate", lambda args: calls.append(args) or 17)
        assert main(["simulate", "--seed", "4"]) == 17
        assert [args.seed for args in calls] == [4]

    def test_build_parser_returns_a_fresh_full_parser(self):
        a, b = build_parser(), build_parser()
        assert a is not b
        listed = {line.split()[0] for line in a.format_help().splitlines() if line.startswith("    ")}
        assert {"generate", "replay", "simulate", "stats", "fit", "send", "recv"} <= listed

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_dest_is_usage_error(self, capsys):
        code, _, err = run(capsys, "send", "--dest", "nonsense", "--max-bursts", "1")
        assert code == 2

    def test_send_port_out_of_range_is_usage_error(self, capsys):
        code, stdout, err = run(capsys, "send", "--dest", "127.0.0.1:70000", "--max-bursts", "1")
        assert (code, stdout) == (2, "")
        assert "port in 0-65535" in err

    @pytest.mark.parametrize("argv", [
        ["generate", "--out", "x.csv", "--duration-s", "inf"],
        ["generate", "--out", "x.csv", "--duration-s", "nan"],
        ["simulate", "--duration-s", "inf"],
        ["simulate", "--duration-s", "nan"],
        ["replay", "--trace", "t.csv", "--out", "x.csv", "--start-time", "inf"],
        ["replay", "--trace", "t.csv", "--out", "x.csv", "--start-time", "-1"],
        ["send", "--dest", "127.0.0.1:9", "--max-bursts", "1", "--duration-s", "nan"],
        ["recv", "--listen", "127.0.0.1:0", "--out", "x.csv", "--duration-s", "nan"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_non_finite_or_negative_seconds_are_usage_errors(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        save_trace("t.csv", [(1000, 16_667_000)] * 3)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"vrburst {argv[0]}: error: argument {argv[-2]}: expected seconds >= 0, finite in nanoseconds, "
            f"got {argv[-1]!r}"
        ]

    PARAMS = {
        "deg.json": {"pframe_mean_slope": -1, "iframe_mean_slope": 1000, "pframe_std_coeff": 0, "iframe_std_coeff": 0},
        "huge.json": {"iframe_std_exp": 1e308},
        "null.json": {"ifi_std_coeff": None},
    }
    SIMPLE = ["generate", "--model", "simple", "--duration-s", "1", "--out", "out.csv"]

    @pytest.mark.parametrize("code, argv", [
        # draws that do not fit in int64 used to be cast to garbage, or to leave 1-ns steps
        (2, SIMPLE + ["--size-dist", "constant:nan", "--period-dist", "constant:0.01"]),
        (2, SIMPLE + ["--size-dist", "constant:1e30", "--period-dist", "constant:0.01"]),
        (2, SIMPLE + ["--size-dist", "constant:100", "--period-dist", "constant:1e30"]),
        (2, SIMPLE + ["--size-dist", "constant:100", "--period-dist", "constant:nan"]),
        (2, SIMPLE + ["--size-dist", "constant:100", "--period-dist", "constant:5e9"]),
        # finite specs whose draws overflow used to print numpy warnings first
        (2, SIMPLE + ["--size-dist", "normal:0:1e308", "--period-dist", "constant:0.01"]),
        (2, SIMPLE + ["--size-dist", "constant:100", "--period-dist", "uniform:0:1e308"]),
        # burst times past 2**63 ns used to wrap (the later --duration-s wins)
        (2, SIMPLE + ["--size-dist", "constant:100", "--period-dist", "constant:1e7", "--duration-s", "9e9"]),
        (2, ["simulate", "--fps", "1e-300", "--duration-s", "1"]),
        # a mean frame size past the float range used to print numpy warnings first
        (2, ["generate", "--rate-mbps", "1e300", "--fps", "1e-10", "--duration-s", "1", "--out", "out.csv"]),
        (2, ["simulate", "--rate-mbps", "1e300", "--fps", "1e-10", "--duration-s", "1"]),
        # a run that rounds to 0 ns used to report 0 bursts and exit 0
        (2, ["simulate", "--duration-s", "1e-10"]),
        # link parameters whose int64 ns arithmetic divides by zero or overflows
        (2, ["simulate", "--link-mbps", "inf", "--duration-s", "1"]),
        (2, ["simulate", "--link-mbps", "1e-300", "--duration-s", "1"]),
        (2, ["simulate", "--link-mbps", "nan", "--duration-s", "1"]),
        (2, ["simulate", "--link-mbps", "1e-9", "--duration-s", "1"]),
        (2, ["simulate", "--prop-delay-us", "99999999999999999", "--duration-s", "1"]),
        (2, ["simulate", "--overhead-bytes", "99999999999999999999", "--duration-s", "1"]),
        (3, ["send", "--dest", "127.0.0.1:9", "--max-bursts", "1", "--fragment-size", "0"]),
        # a negative count used to send nothing and exit 0
        (2, ["send", "--dest", "127.0.0.1:9", "--max-bursts", "-1"]),
        # constants whose frame-size mixture draws no positive size
        (3, ["generate", "--params", "deg.json", "--duration-s", "1", "--out", "out.csv"]),
        (3, ["simulate", "--params", "deg.json", "--duration-s", "1"]),
        (3, ["simulate", "--stations", "4", "--params", "deg.json"]),
        (3, ["send", "--params", "deg.json", "--dest", "127.0.0.1:9", "--max-bursts", "1"]),
        # a sigma power law past the float range used to raise OverflowError
        (2, ["simulate", "--params", "huge.json", "--duration-s", "1"]),
        # a constant that is no number used to raise TypeError
        (2, ["simulate", "--params", "null.json", "--duration-s", "1"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_bad_input_is_one_error_line(self, tmp_path, code, argv):
        for name, params in self.PARAMS.items():
            (tmp_path / name).write_text(json.dumps(params))
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "vrburst.cli", *argv], cwd=tmp_path, capture_output=True, text=True,
            timeout=30, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error:")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--out", "x.csv", "--duration-s", "0"],
        ["replay", "--trace", "t.csv", "--out", "x.csv", "--duration-s", "0"],
        ["simulate", "--duration-s", "0"],
        ["send", "--dest", "127.0.0.1:9", "--duration-s", "0"],
        ["recv", "--listen", "127.0.0.1:0", "--out", "x.csv", "--duration-s", "-0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_zero_duration_is_one_usage_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        save_trace("t.csv", [(1000, 16_667_000)] * 3)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"vrburst {argv[0]}: error: argument --duration-s: expected seconds > 0, got {argv[-1]!r}"
        ]
        assert not (tmp_path / "x.csv").exists()

    def test_zero_start_time_is_valid(self, tmp_path, capsys):
        save_trace(tmp_path / "t.csv", [(1000, 16_667_000)] * 3)
        code, _, _ = run(capsys, "replay", "--trace", str(tmp_path / "t.csv"), "--start-time", "0",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert len(load_trace(tmp_path / "x.csv").records) == 3

    def test_recv_port_out_of_range_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "events.csv"
        code, stdout, err = run(capsys, "recv", "--listen", "127.0.0.1:65536", "--out", str(out),
                                "--duration-s", "0.1")
        assert (code, stdout) == (2, "")
        assert "port in 0-65535" in err
        assert not out.exists()
