import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrburst.generator import (
    BLOCK_BURSTS,
    NS_PER_S,
    BurstDescriptor,
    GeneratorConfig,
    GeneratorExhaustedError,
    SimpleBurstGenerator,
    TraceFile,
    TraceFileBurstGenerator,
    TraceParseError,
    VrBurstGenerator,
    build_generators,
    load_trace,
    sample_vr_frame,
    sample_vr_ifi,
    save_trace,
    schedule_stations,
)
from vrburst.model import DEFAULT_CONSTANTS, VrStreamParams
from vrburst.rv import ParameterError, RngStream, dist_from_spec


def write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


class TestBurstDescriptor:
    def test_construction_checks_fields(self):
        with pytest.raises(ValueError, match="burst size"):
            BurstDescriptor(0, 1000)
        with pytest.raises(ValueError, match="next period"):
            BurstDescriptor(1, -1)
        assert BurstDescriptor(1, 0).next_period_ns == 0

    def test_make_and_replace_check_fields(self):
        with pytest.raises(ValueError, match="burst size"):
            BurstDescriptor(1, 1)._replace(burst_size=-5)
        with pytest.raises(ValueError, match="next period"):
            BurstDescriptor._make((1, -1))
        assert BurstDescriptor(1, 1)._replace(next_period_ns=7) == BurstDescriptor(1, 7)

    def test_immutable_with_field_equality(self):
        burst = BurstDescriptor(1000, 5_000_000)
        with pytest.raises(AttributeError):
            burst.burst_size = 1
        assert burst == BurstDescriptor(1000, 5_000_000) != BurstDescriptor(1000, 5_000_001)
        assert repr(burst) == "BurstDescriptor(burst_size=1000, next_period_ns=5000000)"

    def test_is_a_size_period_tuple(self):
        burst = BurstDescriptor(1000, 5_000_000)
        assert burst == (1000, 5_000_000)
        size, period = burst
        assert (size, period) == (burst.burst_size, burst.next_period_ns)


class TestSimpleBurstGenerator:
    def test_constant_generator_repeats(self):
        gen = SimpleBurstGenerator(dist_from_spec("constant:10000"), dist_from_spec("constant:0.01"), RngStream(1))
        for _ in range(5):
            assert gen.has_next_burst()
            assert gen.generate_burst() == BurstDescriptor(10_000, 10_000_000)

    def test_sizes_floor_at_one_byte(self):
        gen = SimpleBurstGenerator(dist_from_spec("constant:0.2"), dist_from_spec("constant:0.01"), RngStream(1))
        assert gen.generate_burst().burst_size == 1

    def test_negative_periods_clamp_to_zero(self):
        gen = SimpleBurstGenerator(dist_from_spec("constant:100"), dist_from_spec("constant:-1.0"), RngStream(1))
        assert gen.generate_burst().next_period_ns == 0


class TestVrBurstGenerator:
    def test_long_run_statistics(self):
        params = VrStreamParams(50e6, 60)
        gen = VrBurstGenerator(params, RngStream(7, 1))
        descs = [gen.generate_burst() for _ in range(20_000)]
        mean_size = sum(d.burst_size for d in descs) / len(descs)
        mean_period = sum(d.next_period_ns for d in descs) / len(descs)
        assert mean_size == pytest.approx(104_167, rel=0.01)
        assert mean_period == pytest.approx(16_666_667, rel=0.005)

    def test_never_exhausts(self):
        gen = VrBurstGenerator(VrStreamParams(10e6, 30), RngStream(8))
        assert all(gen.has_next_burst() or True for _ in range(3))
        assert gen.has_next_burst()

    def test_reproducible_for_fixed_stream(self):
        params = VrStreamParams(20e6, 30)
        a = VrBurstGenerator(params, RngStream(9, 4))
        b = VrBurstGenerator(params, RngStream(9, 4))
        assert [a.generate_burst() for _ in range(50)] == [b.generate_burst() for _ in range(50)]

    # at 1 Mbit/s about one frame-size draw in 15 is non-positive and redrawn
    @pytest.mark.parametrize("rate_mbps", [50, 1])
    def test_samplers_read_the_bursts_a_schedule_draws(self, rate_mbps):
        params = VrStreamParams(rate_mbps * 1e6, 60)
        _, sizes, periods = VrBurstGenerator(params, RngStream(11, 2)).schedule(60 * NS_PER_S)
        n = len(sizes)
        assert n > 10 * BLOCK_BURSTS
        np.testing.assert_array_equal(sample_vr_frame(params, DEFAULT_CONSTANTS, RngStream(11, 2), n), sizes)
        np.testing.assert_array_equal(sample_vr_ifi(params, DEFAULT_CONSTANTS, RngStream(11, 2), n),
                                      periods / NS_PER_S)
        assert len(sample_vr_frame(params, DEFAULT_CONSTANTS, RngStream(11, 2), 0)) == 0


class TestScheduleRounds:
    def test_a_one_second_station_draws_at_most_twice_the_words_it_reads(self, monkeypatch):
        calls, uniform = [], RngStream.uniform
        monkeypatch.setattr(RngStream, "uniform", lambda rng, size=None: calls.append(size) or uniform(rng, size))
        _, sizes, _ = VrBurstGenerator(VrStreamParams(50e6, 60), RngStream(3, 1)).schedule(NS_PER_S)
        # one round; a 50 Mbit/s frame is never redrawn, so each burst reads 3 words
        assert len(calls) == 1
        assert 3 * len(sizes) <= calls[0] <= 2 * 3 * len(sizes)

    def test_vr_stations_draw_their_rounds_together(self, monkeypatch):
        # separately built generators of one (rate, fps) stream have equal models, so they form one bank
        calls, draw = [], VrBurstGenerator._draw_blocks
        counted = staticmethod(lambda generators, bursts: calls.append(len(generators)) or draw(generators, bursts))
        monkeypatch.setattr(VrBurstGenerator, "_draw_blocks", counted)
        generators, _ = build_generators(GeneratorConfig(), 16, seed=5, duration_s=1.0)
        schedule_stations(generators, NS_PER_S, [0] * 16)
        assert calls == [16]

    @pytest.mark.parametrize("stations", [1, 2])
    def test_a_long_round_whose_sum_wraps_past_2_63_raises(self, stations):
        # the median period is 0, so the round is 4096 bursts, whose periods
        # (half 0, half up to 3.6e16 ns) sum to about 4 * 2**63: at seed 2 the
        # sum wraps twice and ends past the horizon, so no later round raises
        size, period = dist_from_spec("constant:1000"), dist_from_spec("uniform:-3.6e7:3.6e7")
        generators = [SimpleBurstGenerator(size, period, RngStream(2, 1)) for _ in range(stations)]
        with pytest.raises(ParameterError, match="2\\*\\*63"):
            schedule_stations(generators, 2**55, [0] * stations)


class TestLoadTrace:
    def test_metadata_and_units(self, tmp_path):
        trace = load_trace(write(tmp_path, "# fps: 60\n1000,16667\n"))
        assert trace.metadata == {"fps": "60"}
        assert trace.records.dtype == np.int64
        assert trace.records.tolist() == [[1000, 16_667_000]]

    def test_crlf_endings(self, tmp_path):
        trace = load_trace(write(tmp_path, "# fps: 30\r\n500,1000\r\n600,2000\r\n"))
        assert trace.records[:, 0].tolist() == [500, 600]

    def test_non_integer_size_names_line(self, tmp_path):
        with pytest.raises(TraceParseError, match="line 1"):
            load_trace(write(tmp_path, "abc,5\n"))

    def test_superscript_digit_names_line(self, tmp_path):
        # str.isdigit accepts '²', which int() does not parse
        with pytest.raises(TraceParseError, match="line 1: next period must be an unsigned integer"):
            load_trace(write(tmp_path, "1000,1\u00b2\n"))

    def test_error_line_numbers_count_header(self, tmp_path):
        with pytest.raises(TraceParseError, match="line 3"):
            load_trace(write(tmp_path, "# fps: 60\n10,10\nabc,5\n"))

    def test_negative_field_rejected(self, tmp_path):
        with pytest.raises(TraceParseError, match="unsigned"):
            load_trace(write(tmp_path, "-5,10\n"))

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(TraceParseError, match="line 1"):
            load_trace(write(tmp_path, "1,2,3\n"))

    def test_zero_period_rejected(self, tmp_path):
        with pytest.raises(TraceParseError, match="positive"):
            load_trace(write(tmp_path, "10,0\n"))

    def test_empty_data_rejected(self, tmp_path):
        with pytest.raises(TraceParseError, match="no data rows"):
            load_trace(write(tmp_path, "# fps: 60\n"))

    def test_byte_order_mark_before_metadata_line(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        trace = load_trace(write(tmp_path, "\ufeff# source: excel\n1000,16667\n2000,16667\n"))
        assert trace.metadata == {"source": "excel"}
        assert trace.records.tolist() == [[1000, 16_667_000], [2000, 16_667_000]]

    def test_byte_order_mark_before_data_row(self, tmp_path):
        trace = load_trace(write(tmp_path, "\ufeff1000,16667\r\n2000,16667\r\n"))
        assert trace.records.tolist() == [[1000, 16_667_000], [2000, 16_667_000]]

    @pytest.mark.parametrize("data, lineno", [
        (b"# fps: 60\n1000,16667\n10\xff0,16667\n", 3),
        (b"# fps: 60\r1000,16667\r\n\x85 10,5\n", 3),  # a lone continuation byte; CR ends line 1
        (b"\xef\xbb\xbf# note: caf\xe9\n1,1\n", 1),  # Latin-1, after a byte-order mark
        (b"1,1\n\n2,2\n# \xe2\x80", 4),  # a character cut off at the end
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, lineno):
        # str.splitlines() counts the lines before the first byte that does not decode
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        with pytest.raises(TraceParseError, match=f"^line {lineno}: byte 0x[0-9a-f]{{2}} is not UTF-8"):
            load_trace(path)

    def test_row_count_scales_with_duration(self, tmp_path):
        # a 550 s trace at 60 FPS carries about 33k records
        rows = "\n".join("1000,16667" for _ in range(33_000))
        trace = load_trace(write(tmp_path, rows + "\n"))
        assert len(trace.records) == 33_000
        assert trace.records[:, 1].sum() == pytest.approx(550e9, rel=0.01)


class TestSaveTrace:
    def test_round_trip(self, tmp_path):
        records = [BurstDescriptor(1000, 5_000_000), BurstDescriptor(2000, 7_000_000)]
        path = tmp_path / "out.csv"
        save_trace(path, records, {"fps": "60", "seed": "3"})
        back = load_trace(path)
        assert back.records.tolist() == [list(r) for r in records]
        assert back.metadata == {"fps": "60", "seed": "3"}

    def test_sub_microsecond_periods_floor_at_one(self, tmp_path):
        path = tmp_path / "out.csv"
        save_trace(path, [BurstDescriptor(10, 300)])
        assert load_trace(path).records[0, 1] == 1000

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(1, 2**63 - 1),
                st.one_of(st.integers(0, 999), st.integers(0, 2**63 - 1), st.integers(2**53, 2**63 - 1)),
            ),
            min_size=1,
            max_size=20,
        ),
        as_array=st.booleans(),
    )
    def test_rows_are_written_as_whole_microseconds(self, tmp_path, rows, as_array):
        # the same bytes from an (n, 2) array and from descriptors, periods of
        # 2**53 ns and more included
        path = tmp_path / "out.csv"
        records = np.array(rows, np.int64) if as_array else [BurstDescriptor(*row) for row in rows]
        save_trace(path, records, {"fps": "60"})
        data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert data == [f"{size},{max(1, round(period / 1000))}" for size, period in rows]


class TestTraceReplay:
    def test_replays_rows_in_order(self, tmp_path):
        path = write(tmp_path, "1000,5000\n2000,7000\n")
        gen = TraceFileBurstGenerator(load_trace(path))
        assert gen.has_next_burst()
        assert gen.generate_burst() == BurstDescriptor(1000, 5_000_000)
        assert gen.has_next_burst()
        assert gen.generate_burst() == BurstDescriptor(2000, 7_000_000)
        assert not gen.has_next_burst()

    def test_generate_after_exhaustion_raises(self, tmp_path):
        gen = TraceFileBurstGenerator(load_trace(write(tmp_path, "1,1\n")))
        gen.generate_burst()
        assert not gen.has_next_burst()
        with pytest.raises(GeneratorExhaustedError):
            gen.generate_burst()

    def test_full_replay_matches_file(self, tmp_path):
        rows = [(100 + i, 1000 + i) for i in range(50)]
        text = "\n".join(f"{s},{p}" for s, p in rows) + "\n"
        gen = TraceFileBurstGenerator(load_trace(write(tmp_path, text)))
        out = []
        while gen.has_next_burst():
            out.append(gen.generate_burst())
        assert [(d.burst_size, d.next_period_ns // 1000) for d in out] == rows


class TestSeekStartTime:
    def trace(self):
        # three bursts at t = 0, 5, 10 ms
        return TraceFile(records=[BurstDescriptor(i + 1, 5_000_000) for i in range(3)])

    def test_zero_skips_nothing(self):
        gen = TraceFileBurstGenerator(self.trace(), start_time_s=0.0)
        assert gen.generate_burst().burst_size == 1

    def test_mid_trace_start(self):
        # t0 = 7 ms: first burst at or after it is the third (t = 10 ms)
        gen = TraceFileBurstGenerator(self.trace(), start_time_s=0.007)
        assert gen.generate_burst().burst_size == 3
        assert not gen.has_next_burst()

    def test_consecutive_schedules_replay_consecutive_windows(self):
        trace = TraceFile(records=[BurstDescriptor(i + 1, 10_000_000) for i in range(10)])
        gen = TraceFileBurstGenerator(trace, start_time_s=0.02)
        times, sizes, _ = gen.schedule(25_000_000, offset_ns=5_000_000)
        assert (times.tolist(), sizes.tolist()) == ([5_000_000, 15_000_000], [3, 4])
        assert gen.schedule(30_000_000)[1].tolist() == [5, 6, 7]
        assert gen.generate_burst() == BurstDescriptor(8, 10_000_000)

    def test_seek_past_end_exhausts(self):
        gen = TraceFileBurstGenerator(self.trace(), start_time_s=1.0)
        assert not gen.has_next_burst()

    def test_disjoint_start_times_yield_disjoint_records(self):
        trace = TraceFile(records=[BurstDescriptor(i + 1, 10_000_000) for i in range(10)])
        early = TraceFileBurstGenerator(trace, start_time_s=0.0)
        late = TraceFileBurstGenerator(trace, start_time_s=0.05)

        def window(gen, budget_s):
            out, elapsed = [], 0
            while gen.has_next_burst() and elapsed < budget_s * 1e9:
                d = gen.generate_burst()
                out.append(d.burst_size)
                elapsed += d.next_period_ns
            return out

        first = window(early, 0.05)
        second = window(late, 0.05)
        assert first == [1, 2, 3, 4, 5]
        assert second == [6, 7, 8, 9, 10]
        assert not set(first) & set(second)
