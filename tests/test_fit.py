import math

import numpy as np
import pytest

import vrburst.fit
from vrburst.fit import (
    fit_gmm2_em,
    fit_linear_through_origin,
    fit_logistic,
    fit_power_law,
    fit_vr_model,
    group_traces,
)
from vrburst.generator import BurstDescriptor, TraceFile, sample_vr_frame, sample_vr_ifi
from vrburst.model import DEFAULT_CONSTANTS, VrStreamParams
from vrburst.rv import Gmm2Params, LogisticParams, RngStream, gmm2_quantile, logistic_quantile, ndtri


def mixture_draws(p, rng, size):
    """``size`` draws of mixture ``p``, each from a (pick, normal) uniform pair."""
    return gmm2_quantile(p, *rng.uniform(2 * size).reshape(size, 2).T)


def params_of(fit):
    """The :class:`Gmm2Params` of a ``fit_gmm2_em`` result: its first five keys."""
    return Gmm2Params(**{k: fit[k] for k in ("w_hi", "mu_hi", "sigma_hi", "mu_lo", "sigma_lo")})


class TestFitLogistic:
    def test_constant_samples_have_zero_scale(self):
        p = fit_logistic([0.0333] * 10)
        assert p.mu == pytest.approx(0.0333)
        assert p.s == 0.0

    def test_two_samples_by_hand(self):
        # mean 1, sample std sqrt(2) (n-1 denominator)
        p = fit_logistic([0.0, 2.0])
        assert p.mu == pytest.approx(1.0)
        assert p.s == pytest.approx(math.sqrt(2.0) * math.sqrt(3.0) / math.pi, rel=1e-12)

    def test_round_trip_with_sampler(self):
        truth = LogisticParams(1 / 30, 0.0015)
        xs = logistic_quantile(RngStream(60).uniform(1_000_000), truth)
        p = fit_logistic(xs)
        assert p.mu == pytest.approx(truth.mu, rel=0.005)
        assert p.s == pytest.approx(truth.s, rel=0.02)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_logistic([1.0])


class TestFitGmm2Em:
    def test_recovers_separable_mixture(self):
        truth = Gmm2Params(w_hi=0.36, mu_hi=100_000, sigma_hi=8_000, mu_lo=50_000, sigma_lo=5_000)
        xs = mixture_draws(truth, RngStream(61), 20_000)
        fit = fit_gmm2_em(xs, restarts=10, rng=RngStream(62))
        assert fit["mu_hi"] == pytest.approx(truth.mu_hi, rel=0.03)
        assert fit["mu_lo"] == pytest.approx(truth.mu_lo, rel=0.03)
        assert fit["w_hi"] == pytest.approx(truth.w_hi, abs=0.03)
        assert fit["converged"]

    def test_labels_follow_means(self):
        truth = Gmm2Params(w_hi=0.7, mu_hi=10.0, sigma_hi=1.0, mu_lo=-10.0, sigma_lo=1.0)
        xs = mixture_draws(truth, RngStream(63), 5_000)
        fit = fit_gmm2_em(xs, restarts=5, rng=RngStream(64))
        assert fit["mu_hi"] >= fit["mu_lo"]

    def test_single_normal_preserves_mean(self):
        xs = 100.0 + 15.0 * ndtri(RngStream(65).uniform(20_000))
        fit = fit_gmm2_em(xs, restarts=10, rng=RngStream(66))
        assert params_of(fit).mean == pytest.approx(xs.mean(), rel=0.01)

    def test_one_component_limit(self):
        truth = Gmm2Params(w_hi=1.0, mu_hi=500.0, sigma_hi=20.0, mu_lo=0.0, sigma_lo=1.0)
        xs = mixture_draws(truth, RngStream(67), 20_000)
        fit = fit_gmm2_em(xs, restarts=10, rng=RngStream(68))
        assert params_of(fit).mean == pytest.approx(500.0, rel=0.01)

    def test_log_likelihood_is_finite_and_reported(self):
        xs = ndtri(RngStream(69).uniform(1_000))
        fit = fit_gmm2_em(xs, restarts=3, rng=RngStream(70))
        assert math.isfinite(fit["log_likelihood"])
        assert fit["n_iterations"] >= 1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm2_em([5.0] * 100, rng=RngStream(71))
        with pytest.raises(ValueError):
            fit_gmm2_em([1.0, 2.0], rng=RngStream(72))
        with pytest.raises(ValueError):
            fit_gmm2_em(list(range(100)), restarts=0, rng=RngStream(73))

    def test_deterministic_given_stream(self):
        xs = 10.0 + 2.0 * ndtri(RngStream(73).uniform(2_000))
        a = fit_gmm2_em(xs, restarts=5, rng=RngStream(74))
        b = fit_gmm2_em(xs, restarts=5, rng=RngStream(74))
        assert a == b


class TestFitLinearThroughOrigin:
    def test_noiseless_is_exact(self):
        xs = np.linspace(10, 100, 7)
        assert fit_linear_through_origin(xs, 1.1764 * xs, np.ones(7)) == pytest.approx(1.1764, rel=1e-12)

    def test_single_point_interpolates(self):
        assert fit_linear_through_origin(np.array([2.0]), np.array([3.0]), np.ones(1)) == pytest.approx(1.5)

    def test_weights_steer_the_slope(self):
        x, y = np.ones(2), np.array([1.0, 3.0])
        assert fit_linear_through_origin(x, y, np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert fit_linear_through_origin(x, y, np.array([0.0, 1.0])) == pytest.approx(3.0)

    def test_zero_abscissae_rejected(self):
        with pytest.raises(ValueError):
            fit_linear_through_origin(np.zeros(2), np.array([1.0, 2.0]), np.ones(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_linear_through_origin(np.empty(0), np.empty(0), np.empty(0))


class TestFitPowerLaw:
    def test_noiseless_recovery(self):
        xs = np.array([1e3, 5e3, 2e4, 1e5, 3e5])
        coeff, exp = fit_power_law(xs, 9.0399 * xs**0.6251, np.ones(5))
        assert coeff == pytest.approx(9.0399, rel=1e-9)
        assert exp == pytest.approx(0.6251, rel=1e-9)

    def test_constant_data_has_zero_exponent(self):
        coeff, exp = fit_power_law(np.array([1.0, 10.0, 100.0]), np.full(3, 7.0), np.ones(3))
        assert exp == pytest.approx(0.0, abs=1e-12)
        assert coeff == pytest.approx(7.0, rel=1e-12)

    def test_non_positive_coordinates_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, -2.0]), np.array([1.0, 4.0]), np.ones(2))
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([0.0, 4.0]), np.ones(2))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law(np.ones(1), np.ones(1), np.ones(1))

    def test_identical_abscissae_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_power_law(np.full(2, 5.0), np.array([1.0, 2.0]), np.ones(2))


# Reference measurements: per-acquisition fitted mixture parameters at 30 and
# 60 FPS, against the empirical mean frame size. Units are kB as published.
MEAN_FRAME_KB_30 = [43.98741, 86.68732, 129.63016, 163.91771, 205.37219]
IFRAME_MEAN_KB_30 = [57.16035, 111.20069, 156.20359, 198.09115, 231.19266]
PFRAME_MEAN_KB_30 = [38.30994, 75.36214, 116.87670, 155.37160, 185.13315]
IFRAME_STD_KB_30 = [9.13571, 18.24374, 19.57639, 36.03089, 33.95362]
PFRAME_STD_KB_30 = [8.78062, 10.76962, 13.29057, 13.66548, 20.08094]
MEAN_FRAME_KB_60 = [22.83641, 43.85053, 65.38012, 86.56189, 107.34141]
IFRAME_MEAN_KB_60 = [38.33641, 48.50091, 75.57367, 105.51237, 113.06675]
PFRAME_MEAN_KB_60 = [16.36800, 42.34214, 58.48798, 72.97132, 93.01352]
PFRAME_STD_KB_60 = [4.46881, 7.27437, 7.71320, 12.41293, 15.12050]


class TestReferenceMeasurements:
    """Pooled fits over the published per-acquisition mixture parameters."""

    def test_iframe_mean_slope(self):
        x, y = np.array(MEAN_FRAME_KB_30 + MEAN_FRAME_KB_60), np.array(IFRAME_MEAN_KB_30 + IFRAME_MEAN_KB_60)
        assert fit_linear_through_origin(x, y, np.ones(10)) == pytest.approx(1.1764, abs=0.02)

    def test_pframe_mean_slope(self):
        x, y = np.array(MEAN_FRAME_KB_30 + MEAN_FRAME_KB_60), np.array(PFRAME_MEAN_KB_30 + PFRAME_MEAN_KB_60)
        assert fit_linear_through_origin(x, y, np.ones(10)) == pytest.approx(0.9008, abs=0.02)

    def test_pframe_std_power_law(self):
        # power laws are fitted on byte-valued sizes; kB inputs would shift
        # the coefficient by 1000**(exp - 1)
        xs = np.array([s * 1000 for s in MEAN_FRAME_KB_30 + MEAN_FRAME_KB_60])
        ys = np.array([s * 1000 for s in PFRAME_STD_KB_30 + PFRAME_STD_KB_60])
        coeff, exp = fit_power_law(xs, ys, np.ones(10))
        # the exponent is the stable quantity of a log-log fit; the
        # coefficient trades off against it through the data centroid, so an
        # unweighted refit only brackets the published 9.0399 loosely
        assert exp == pytest.approx(0.6251, rel=0.10)
        assert coeff == pytest.approx(9.0399, rel=0.20)


def synthesize_group(rate_mbps, fps, n_frames, stream_id, seed=202):
    params = VrStreamParams(rate_mbps * 1e6, fps)
    rng = RngStream(seed, stream_id)
    sizes = sample_vr_frame(params, DEFAULT_CONSTANTS, rng, size=n_frames)
    ifis = sample_vr_ifi(params, DEFAULT_CONSTANTS, rng, size=n_frames)
    records = [
        BurstDescriptor(int(s), max(1000, round(i * 1e9))) for s, i in zip(sizes, ifis)
    ]
    return TraceFile(records=records)


class TestFitVrModel:
    def test_small_closed_loop(self):
        groups = {
            (rate * 1e6, float(fps)): synthesize_group(rate, fps, 8_000, sid)
            for sid, (rate, fps) in enumerate(
                [(10, 30), (30, 30), (50, 30), (20, 60), (50, 60)]
            )
        }
        report = fit_vr_model(groups, em_restarts=6, seed=303)
        assert report["slopes_valid"]
        k = DEFAULT_CONSTANTS
        assert report["pooled"]["iframe_mean_slope"] == pytest.approx(k.iframe_mean_slope, rel=0.05)
        assert report["pooled"]["pframe_mean_slope"] == pytest.approx(k.pframe_mean_slope, rel=0.05)
        assert report["pooled"]["ifi_std_coeff"] == pytest.approx(k.ifi_std_coeff, rel=0.05)
        assert report["constants"] is not None
        assert report["constants"]["iframe_mean_slope"] == report["pooled"]["iframe_mean_slope"]
        # EM preserves the first moment: every per-group mixture mean stays
        # within 1% of that group's empirical mean frame size
        for group in report["groups"]:
            assert params_of(group["gmm"]).mean == pytest.approx(group["mean_frame_size_bytes"], rel=0.01)

    def test_group_weights_sum_to_one(self):
        groups = {
            (rate * 1e6, 60.0): synthesize_group(rate, 60, 2_000, rate)
            for rate in (10, 30, 50)
        }
        report = fit_vr_model(groups, em_restarts=4, seed=7)
        assert sum(g["weight"] for g in report["groups"]) == pytest.approx(1.0)
        uniform = fit_vr_model(groups, em_restarts=4, seed=7, weighting="uniform")
        assert all(g["weight"] == pytest.approx(1 / 3) for g in uniform["groups"])

    def test_single_group_rejected(self):
        groups = {(50e6, 60.0): synthesize_group(50, 60, 1_000, 1)}
        with pytest.raises(ValueError, match="at least 2"):
            fit_vr_model(groups)

    def test_identical_frame_sizes_break_power_law(self):
        trace = synthesize_group(50, 60, 1_000, 2)
        groups = {(50e6, 60.0): trace, (50e6, 30.0): TraceFile(records=list(trace.records))}
        with pytest.raises(ValueError, match="distinct"):
            fit_vr_model(groups, em_restarts=2)

    def test_report_serializes(self):
        groups = {
            (rate * 1e6, 60.0): synthesize_group(rate, 60, 2_000, rate + 20)
            for rate in (10, 50)
        }
        data = fit_vr_model(groups, em_restarts=3, seed=1)
        # the key order is pinned here; the golden digests re-order keys before hashing
        assert list(data) == ["weighting", "slopes_valid", "pooled", "constants", "groups"]
        assert list(data["pooled"]) == [
            "ifi_std_coeff",
            "iframe_mean_slope",
            "pframe_mean_slope",
            "iframe_std_coeff",
            "iframe_std_exp",
            "pframe_std_coeff",
            "pframe_std_exp",
        ]
        assert len(data["groups"]) == 2
        assert list(data["groups"][0]) == ["rate_mbps", "fps", "n_frames", "mean_frame_size_bytes", "gmm", "ifi",
                                           "ifi_std_coeff", "mean_log_likelihood", "weight"]
        assert list(data["groups"][0]["gmm"]) == ["w_hi", "mu_hi", "sigma_hi", "mu_lo", "sigma_lo",
                                                  "log_likelihood", "n_iterations", "converged", "restarts"]
        assert list(data["groups"][0]["ifi"]) == ["mu", "s", "std"]
        restarts = [r for g in data["groups"] for r in g["gmm"]["restarts"]]
        assert len(restarts) == 6
        assert all(list(r) == ["iterations", "log_likelihood", "converged"] for r in restarts)


class TestNewtonStep:
    def test_gradient_and_hessian_match_central_differences(self):
        sizes = synthesize_group(30, 60, 3_000, 7).records[:, 0]
        rows = vrburst.fit._Rows([vrburst.fit._standardise(sizes, 1, RngStream(83))])
        one, mask = np.array([0]), np.ones(1, dtype=bool)

        def at(q):
            theta = vrburst.fit._params(q[:, None])
            ll, stats, curv = rows.e_step(theta, one, mask)
            g, minus_h = vrburst.fit._gradient(theta, stats, curv, rows.n, rows.totals)
            return ll[0], g[:, 0], -minus_h[:, :, 0]

        q = vrburst.fit._coords(np.array([[0.3], [0.8], [-0.4], [0.7], [0.9]]))[:, 0]
        _, g, h = at(q)
        steps = 1e-5 * np.eye(5)
        g_fd = np.array([at(q + d)[0] - at(q - d)[0] for d in steps]) / 2e-5
        h_fd = np.array([at(q + d)[1] - at(q - d)[1] for d in steps]) / 2e-5
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-5 * np.abs(g).max())
        np.testing.assert_allclose(h, h_fd, rtol=1e-5, atol=1e-5 * np.abs(h).max())


class TestBatchInvariance:
    """A restart's bits do not depend on which rows share its E step."""

    @staticmethod
    def rows_and_params(restarts):
        # an odd sample count puts the rows of a chunk at every alignment
        sizes = synthesize_group(30, 60, 2_995, 5).records[:, 0]
        rows = vrburst.fit._Rows([vrburst.fit._standardise(sizes, restarts, RngStream(80))])
        rng = np.random.default_rng(81)
        theta = np.vstack([
            rng.uniform(0.05, 0.95, restarts),
            rng.normal(0.0, 1.0, (2, restarts)),
            rng.uniform(0.05, 2.0, (2, restarts)),
        ])  # fmt: skip
        return rows, theta

    def test_e_step_of_a_row_alone_equals_it_in_any_batch(self):
        rows, theta = self.rows_and_params(50)
        # every other row near a fitted optimum, where -H is positive definite
        fitted = vrburst.fit._fit_rows(rows, 500, 1e-10)[0]
        theta[:, 1::2] = fitted[:, 1::2] * np.random.default_rng(82).uniform(0.9, 1.1, (5, 25))

        def run(index):
            ll, stats, curv = rows.e_step(theta[:, index], index, np.ones(index.size, dtype=bool))
            step = vrburst.fit._newton_step(theta[:, index], stats, curv, rows.n[index], rows.totals[:, index])
            return ll, stats, curv, *step

        alone = [run(np.array([r])) for r in range(50)]
        assert any(np.isfinite(row[4][0]) for row in alone)  # some rows take a Newton step
        for batch in (1, 2, 3, 8, 50):
            for lo in range(0, 50, batch):
                index = np.arange(lo, min(lo + batch, 50))
                for got, want in zip(run(index), zip(*(alone[r] for r in index))):
                    # bit for bit: equal bytes, nan included
                    assert got.tobytes() == np.concatenate(want, axis=-1).tobytes(), (batch, lo)

    def test_group_in_fit_vr_model_equals_the_group_alone(self):
        groups = {
            (rate * 1e6, 60.0): synthesize_group(rate, 60, 1_500 + 7 * rate, rate + 40)
            for rate in (10, 30, 50)
        }
        report = fit_vr_model(groups, em_restarts=5, seed=9)
        for index, (key, group) in enumerate(zip(sorted(groups), report["groups"])):
            sizes = groups[key].records[:, 0].astype(float)
            assert group["gmm"] == fit_gmm2_em(sizes, restarts=5, rng=RngStream(9, index))

    @pytest.mark.parametrize("chunk_samples", [1, 7_000])
    def test_chunk_size_changes_no_bits(self, monkeypatch, chunk_samples):
        sizes = synthesize_group(20, 30, 2_995, 6).records[:, 0].astype(float)
        default = fit_gmm2_em(sizes, restarts=12, rng=RngStream(82))
        monkeypatch.setattr(vrburst.fit, "_CHUNK_SAMPLES", chunk_samples)
        assert fit_gmm2_em(sizes, restarts=12, rng=RngStream(82)) == default


class TestGroupTraces:
    def test_groups_by_metadata(self):
        t1 = TraceFile(
            records=[BurstDescriptor(10, 1000)],
            metadata={"target_rate_mbps": "50", "fps": "60"},
        )
        t2 = TraceFile(
            records=[BurstDescriptor(20, 1000)],
            metadata={"target_rate_mbps": "50", "fps": "60"},
        )
        t3 = TraceFile(
            records=[BurstDescriptor(30, 1000)],
            metadata={"target_rate_mbps": "10", "fps": "30"},
        )
        groups = group_traces([t1, t2, t3])
        assert set(groups) == {(50e6, 60.0), (10e6, 30.0)}
        assert len(groups[(50e6, 60.0)].records) == 2

    def test_missing_metadata_rejected(self):
        with pytest.raises(ValueError, match="target_rate_mbps"):
            group_traces([TraceFile(records=[BurstDescriptor(1, 1)], metadata={"fps": "60"})])
