import json

import pytest

from vrburst.generator import BurstDescriptor, save_trace
from vrburst.rv import ParameterError
from vrburst.sim import (
    GeneratorConfig,
    ScenarioConfig,
    SimulationLog,
    percentile,
    run_scenario,
    simulate,
    summarize,
)


def constant_cfg(**overrides):
    base = dict(
        generator=GeneratorConfig(
            model="simple", size_dist="constant:1254", period_dist="constant:0.01"
        ),
        n_stations=1,
        link_rate_bps=10e6,
        duration_s=1.0,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def vr_cfg(**overrides):
    base = dict(
        generator=GeneratorConfig(model="vr", rate_mbps=50, fps=60),
        n_stations=1,
        link_rate_bps=866e6,
        duration_s=2.0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestPercentile:
    def test_nearest_rank_at_95(self):
        assert percentile(list(range(1, 101)), 95) == 95

    def test_single_sample(self):
        assert percentile([42], 50) == 42
        assert percentile([42], 99.9) == 42

    def test_median_of_three(self):
        assert percentile([30, 10, 20], 50) == 20

    def test_p100_is_max(self):
        assert percentile([3, 1, 2], 100) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 95)

    @pytest.mark.parametrize("p", [0, -5, 101])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(ValueError):
            percentile([1], p)


class TestSerializationOnly:
    def test_hand_computed_delay(self):
        # 1254 B payload + 24 B header = 1278 B on the wire at 10 Mbit/s
        report = run_scenario(constant_cfg())
        assert report.burst["mean_delay_ns"] == 1_022_400
        assert report.burst["p95_delay_ns"] == 1_022_400
        assert report.fragment["mean_delay_ns"] == 1_022_400
        assert report.burst["count"] == 100

    def test_propagation_delay_adds_constant(self):
        base = run_scenario(constant_cfg())
        bumped = run_scenario(constant_cfg(propagation_delay_ns=5_000))
        assert bumped.burst["mean_delay_ns"] == base.burst["mean_delay_ns"] + 5_000

    def test_overhead_slows_serialization(self):
        report = run_scenario(constant_cfg(overhead_bytes=22))
        assert report.burst["mean_delay_ns"] == (1278 + 22) * 8 * 100  # 10 Mbit/s = 100 ns/bit


class TestLossAndQueue:
    def test_total_loss_receives_nothing(self):
        report = run_scenario(constant_cfg(loss_prob=1.0))
        assert report.burst["received"] == 0
        assert report.burst["success_ratio"] == 0.0

    def test_no_loss_under_capacity_succeeds_fully(self):
        report = run_scenario(vr_cfg())
        assert report.burst["success_ratio"] == 1.0
        assert report.link["fragments_lost"] == 0

    def test_partial_loss_discards_some_bursts(self):
        report = run_scenario(vr_cfg(loss_prob=0.01))
        assert 0.0 < report.burst["success_ratio"] < 1.0
        assert report.burst["received"] + report.burst["failed"] <= report.burst["count"]

    def test_queue_limit_drops_fragments(self):
        # 50 Mbit/s VR into a 20 Mbit/s link with a 10-fragment queue
        report = run_scenario(vr_cfg(link_rate_bps=20e6, queue_limit=10, duration_s=1.0))
        assert report.link["fragments_queue_dropped"] > 0
        assert report.burst["success_ratio"] < 1.0

    def test_unbounded_queue_never_drops(self):
        report = run_scenario(vr_cfg(link_rate_bps=20e6, duration_s=1.0))
        assert report.link["fragments_queue_dropped"] == 0
        assert report.burst["success_ratio"] == 1.0  # drained after the horizon


class TestBurstOutcomes:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(loss_prob=0.3, duration_s=5.0, seed=1),  # last burst left incomplete
            dict(n_stations=30, queue_limit=50, duration_s=0.5, seed=1),  # whole bursts dropped
            dict(n_stations=16, loss_prob=0.001, queue_limit=400, duration_s=1.0, seed=2),
        ],
    )
    def test_every_burst_has_one_outcome(self, overrides):
        report = run_scenario(vr_cfg(**overrides))
        burst = report.burst
        assert burst["lost"] + burst["in_flight"] > 0
        assert burst["received"] + burst["failed"] + burst["lost"] + burst["in_flight"] == burst["count"]
        for key, station_key in (("lost", "bursts_lost"), ("in_flight", "bursts_in_flight")):
            assert sum(s[station_key] for s in report.per_station) == burst[key]
        for s in report.per_station:
            outcomes = ("bursts_received", "bursts_discarded", "bursts_lost", "bursts_in_flight")
            assert sum(s[key] for key in outcomes) == s["bursts_sent"]

    def test_total_loss_loses_every_burst(self):
        burst = run_scenario(constant_cfg(loss_prob=1.0)).burst
        assert (burst["failed"], burst["lost"], burst["in_flight"]) == (0, 100, 0)


class TestDeterminismAndConservation:
    def test_identical_seeds_identical_reports(self):
        a = run_scenario(vr_cfg()).to_json()
        b = run_scenario(vr_cfg()).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_scenario(vr_cfg()).to_json()
        b = run_scenario(vr_cfg(seed=6)).to_json()
        assert a != b

    def test_work_conservation_under_overload(self):
        # 50 Mbit/s offered into a 20 Mbit/s link: the link must stay busy
        # and served bytes must match the busy time at the link rate
        log = simulate(vr_cfg(link_rate_bps=20e6, duration_s=1.0))
        assert log.served_bytes * 8 <= 20e6 * (log.end_time_ns / 1e9) + 1278 * 8
        assert log.link_busy_ns <= log.end_time_ns
        # serialization times are exact at integral rates: bytes track busy ns
        assert log.served_bytes * 8 == pytest.approx(20e6 * log.link_busy_ns / 1e9, rel=1e-9)

    def test_burst_mean_dominates_fragment_mean(self):
        for seed in (1, 2, 3):
            report = run_scenario(vr_cfg(seed=seed))
            assert report.fragment["mean_delay_ns"] <= report.burst["mean_delay_ns"]


class TestVrScenario:
    def test_station_sweep_monotone_mean(self):
        means = []
        for n in (1, 2, 3):
            report = run_scenario(vr_cfg(n_stations=n, duration_s=3.0))
            means.append(report.burst["mean_delay_ns"])
        assert means == sorted(means)

    def test_per_station_counts_sum_to_totals(self):
        report = run_scenario(vr_cfg(n_stations=3))
        assert sum(s["bursts_sent"] for s in report.per_station) == report.burst["count"]
        assert sum(s["bursts_received"] for s in report.per_station) == report.burst["received"]
        assert sum(s["fragments_delivered"] for s in report.per_station) == report.fragment["count"]

    def test_station_offsets_shift_start(self):
        base = run_scenario(vr_cfg(n_stations=2))
        offset = run_scenario(vr_cfg(n_stations=2, station_start_offsets_ns=[0, 1_000_000]))
        assert base.to_json() != offset.to_json()

    def test_throughput_tracks_offered_load(self):
        report = run_scenario(vr_cfg(duration_s=5.0))
        assert report.throughput_mbps == pytest.approx(50.0, rel=0.05)


class TestTraceScenario:
    def test_trace_metadata_echoed(self, tmp_path):
        path = tmp_path / "t.csv"
        records = [BurstDescriptor(1000, 10_000_000)] * 200
        save_trace(path, records, {"fps": "60", "target_rate_mbps": "0.8"})
        cfg = ScenarioConfig(
            generator=GeneratorConfig(model="trace", trace_path=str(path)),
            n_stations=1,
            link_rate_bps=10e6,
            duration_s=1.0,
            seed=1,
        )
        report = run_scenario(cfg)
        assert report.trace_metadata == {"fps": "60", "target_rate_mbps": "0.8"}
        assert report.to_dict()["trace_metadata"]["fps"] == "60"

    def test_stations_replay_disjoint_windows(self, tmp_path):
        path = tmp_path / "t.csv"
        # 1 kB every 10 ms for 4 s; two stations with a 1 s scenario each
        save_trace(path, [BurstDescriptor(1000, 10_000_000)] * 400)
        cfg = ScenarioConfig(
            generator=GeneratorConfig(model="trace", trace_path=str(path)),
            n_stations=2,
            link_rate_bps=100e6,
            duration_s=1.0,
            seed=1,
        )
        report = run_scenario(cfg)
        for station in report.per_station:
            assert station["bursts_sent"] == 100


class TestSummarize:
    def test_empty_run_has_no_percentiles(self):
        report = summarize(SimulationLog(), vr_cfg())
        assert report.burst["count"] == 0
        assert report.burst["p95_delay_ns"] is None
        assert report.burst["success_ratio"] is None
        assert report.fragment["count"] == 0
        assert report.fragment["mean_delay_ns"] is None

    def test_report_is_json_round_trippable(self):
        report = run_scenario(constant_cfg())
        parsed = json.loads(report.to_json())
        assert parsed["config"]["seed"] == 3
        assert parsed["rng_algorithm"]
        assert parsed["burst"]["received"] == 100


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ParameterError):
            constant_cfg(n_stations=0)
        with pytest.raises(ParameterError):
            constant_cfg(loss_prob=1.5)
        with pytest.raises(ParameterError):
            constant_cfg(duration_s=0)
        with pytest.raises(ParameterError):
            constant_cfg(link_rate_bps=0)
        with pytest.raises(ParameterError):
            constant_cfg(station_start_offsets_ns=[0, 0])

    def test_generator_config_validation(self):
        with pytest.raises(ParameterError):
            GeneratorConfig(model="bogus")
        with pytest.raises(ParameterError):
            GeneratorConfig(model="simple")
        with pytest.raises(ParameterError):
            GeneratorConfig(model="trace")
