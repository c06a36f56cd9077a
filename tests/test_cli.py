import json
import socket
import threading

import pytest

from vrburst.cli import main, receive_bursts, send_bursts
from vrburst.generator import BurstDescriptor, SimpleBurstGenerator, load_trace, save_trace
from vrburst.model import VrModelConstants
from vrburst.rv import ConstantDist, RngStream


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
        mean_size = sum(r.burst_size for r in trace.records) / len(trace.records)
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

    def test_zero_duration_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--duration-s", "0", "--out", str(tmp_path / "x.csv")
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
        assert all(r.burst_size == 500 for r in trace.records)

    def test_simple_model_requires_dists(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--model", "simple", "--duration-s", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_custom_params_file(self, tmp_path, capsys):
        params = tmp_path / "k.json"
        VrModelConstants(ifi_std_coeff=0.0).save_json(params)
        out = tmp_path / "vr.csv"
        code, _, _ = run(
            capsys, "generate", "--fps", "50", "--duration-s", "1",
            "--params", str(params), "--out", str(out),
        )
        assert code == 0
        # zero IFI spread: every period is exactly 20 ms
        assert all(r.next_period_ns == 20_000_000 for r in load_trace(out).records)


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
        assert [r.burst_size for r in replayed.records] == [6, 7, 8]
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
        code, stdout, _ = run(
            capsys, "fit", *traces, "--out", str(out), "--report", str(report_path),
            "--em-restarts", "4", "--seed", "3",
        )
        assert code == 0
        constants = VrModelConstants.load_json(out)
        assert 0.5 < constants.pframe_mean_slope <= 1.0 <= constants.iframe_mean_slope < 2.0
        report = json.loads(report_path.read_text())
        assert len(report["groups"]) == 4

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
        generator = SimpleBurstGenerator(ConstantDist(5000), ConstantDist(0.001), RngStream(1))
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

    def test_recv_without_sender_times_out_empty(self, tmp_path):
        out = tmp_path / "empty.csv"
        result = receive_bursts(("127.0.0.1", 0), out, duration_s=0.5)
        assert result["bursts_received"] == 0
        data_rows = [
            line for line in out.read_text().splitlines() if line and not line.startswith("#")
        ]
        assert data_rows == []

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
        generator = SimpleBurstGenerator(ConstantDist(3), ConstantDist(0.001), RngStream(2))
        sent = send_bursts(addr, generator, fragment_size=25, pacing=False, max_bursts=10)
        thread.join()
        recv_sock.close()
        assert sent["fragments_sent"] == 30  # 3 one-byte payloads per burst
        assert result["datagrams"] >= 29


class TestCliPlumbing:
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
