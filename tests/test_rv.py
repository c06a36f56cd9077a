import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from vrburst.rv import (
    Gmm2Params,
    LogisticParams,
    ParameterError,
    RngStream,
    dist_from_spec,
    gmm2_quantile,
    logistic_quantile,
    ndtri,
)

LOGISTIC_STD_UNIT = math.pi / math.sqrt(3.0)  # std of Logistic(0, 1)


class TestLogisticQuantile:
    def test_median_is_location(self):
        assert logistic_quantile(0.5, LogisticParams(0.0333, 0.0015)) == pytest.approx(0.0333)

    def test_quartiles(self):
        p = LogisticParams(0.0, 1.0)
        assert logistic_quantile(0.75, p) == pytest.approx(math.log(3.0), rel=1e-12)
        assert logistic_quantile(0.25, p) == pytest.approx(-math.log(3.0), rel=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_outside_open_interval(self, u):
        with pytest.raises(ParameterError):
            logistic_quantile(u, LogisticParams(0.0, 1.0))

    def test_inverts_cdf(self):
        p = LogisticParams(1 / 30, 0.0015)
        xs = np.linspace(p.mu - 10 * p.s, p.mu + 10 * p.s, 2001)
        back = logistic_quantile(scipy.stats.logistic.cdf(xs, loc=p.mu, scale=p.s), p)
        np.testing.assert_allclose(back, xs, rtol=1e-12)

    def test_degenerate_scale_returns_location(self):
        p = LogisticParams(1 / 30, 0.0)
        assert logistic_quantile(0.123, p) == 1 / 30


class TestLogisticSample:
    def test_mean_matches_location(self):
        p = LogisticParams(1 / 30, 0.0015)
        xs = logistic_quantile(RngStream(1).uniform(1_000_000), p)
        assert xs.mean() == pytest.approx(1 / 30, rel=0.005)

    def test_std_matches_closed_form(self):
        xs = logistic_quantile(RngStream(2).uniform(1_000_000), LogisticParams(0.0, 1.0))
        assert xs.std(ddof=1) == pytest.approx(LOGISTIC_STD_UNIT, rel=0.02)

    def test_zero_scale_collapses_to_location(self):
        xs = logistic_quantile(RngStream(3).uniform(10_000), LogisticParams(0.25, 0.0))
        assert np.all(xs == 0.25)


EXP_M2 = math.exp(-2)


def ulp_distance(a, b):
    """Units in the last place between same-sign float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestNdtri:
    """The Cephes port against scipy.special.ndtri, which runs the same algorithm
    in C: bit for bit in the central region, where only IEEE +, -, *, / are
    used, and within a few ulp in the tails, where numpy's log may round
    differently from the C library's."""

    def check(self, y):
        ours, ref = ndtri(y), scipy.special.ndtri(y)
        central = (y > EXP_M2) & (y <= 1.0 - EXP_M2)
        np.testing.assert_array_equal(ours[central], ref[central])
        assert ulp_distance(ours[~central], ref[~central]).max(initial=0) <= 8
        return central

    def test_matches_scipy_on_seeded_uniforms(self):
        central = self.check(RngStream(2024, 3).uniform(2**20))
        assert 0.2 < np.mean(~central) < 0.35  # both code paths well exercised

    def test_matches_scipy_at_the_edges(self):
        lo, hi = EXP_M2, 1.0 - EXP_M2
        far = math.exp(-32)  # below it the tail switches to its x >= 8 polynomial
        edges = np.array([
            2.0**-53, 1.0 - 2.0**-53, 0.5,
            np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0),
            np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0),
            np.nextafter(far, 0.0), far, np.nextafter(far, 1.0), 1e-15, 1e-300, 5e-324,
        ])  # fmt: skip
        self.check(edges)
        self.check(1.0 - edges[edges > 2.0**-53])

    def test_limits_and_domain(self):
        out = ndtri(np.array([0.0, 1.0, -0.5, 1.5, np.nan]))
        assert out[0] == -np.inf and out[1] == np.inf
        assert np.isnan(out[2:]).all()

    def test_scalar_in_scalar_out(self):
        for y in (0.3, 0.01, 0.99, np.float64(0.5)):
            z = ndtri(y)
            assert isinstance(z, float)
            assert z == scipy.special.ndtri(y) or abs(z - scipy.special.ndtri(y)) <= 8 * math.ulp(z)

    def test_keeps_the_input_shape(self):
        y = RngStream(5).uniform(12).reshape(3, 4)
        np.testing.assert_array_equal(ndtri(y), ndtri(y.ravel()).reshape(3, 4))


class TestRngStream:
    def test_same_key_replays_identically(self):
        a = RngStream(123, 7)
        b = RngStream(123, 7)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_distinct_stream_ids_share_no_prefix(self):
        firsts = [RngStream(123, sid).uniform() for sid in range(16)]
        assert len(set(firsts)) == len(firsts)

    def test_batch_draws_walk_the_same_stream_as_scalars(self):
        a = RngStream(9, 1)
        b = RngStream(9, 1)
        scalars = np.array([a.uniform() for _ in range(64)])
        np.testing.assert_array_equal(scalars, b.uniform(64))
        assert a.uniform() == b.uniform()

    def test_uniform_stays_in_open_interval(self):
        u = RngStream(4).uniform(100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_block_draws_are_philox_doubles_clamped_at_two_to_minus_53(self):
        expected = np.maximum(np.random.Generator(np.random.Philox(key=[31, 5])).random(10_000), 2.0**-53)
        assert RngStream(31, 5).uniform(10_000).tobytes() == expected.tobytes()

    def test_zero_word_maps_to_two_to_minus_53(self, monkeypatch):
        rng = RngStream(3)
        zeros = SimpleNamespace(random=lambda size=None: 0.0 if size is None else np.zeros(size))
        monkeypatch.setattr(rng, "_gen", zeros)
        assert rng.uniform(4).tolist() == [2.0**-53] * 4
        assert rng.uniform() == 2.0**-53

    def test_block_draws_share_no_memory(self):
        rng = RngStream(8)
        a, b = rng.uniform(16), rng.uniform(16)
        assert not np.shares_memory(a, b)

    def test_key_range_validation(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(0, 2**64)

    @pytest.mark.parametrize("key", [(0, 0), (31, 5), (2**63 - 1, 7)])
    def test_draws_are_the_keyed_philox_doubles(self, key):
        expected = np.maximum(np.random.Generator(np.random.Philox(key=list(key))).random(1000), 2.0**-53)
        assert RngStream(*key).uniform(1000).tobytes() == expected.tobytes()
        rng = RngStream(*key)
        assert np.array([rng.uniform() for _ in range(1000)]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [2**63, 2**63 + 12345, 2**64 - 1])
    def test_high_seeds_are_their_key_words_exactly(self, seed):
        state = RngStream(seed, 7)._gen.bit_generator.state["state"]
        assert state["key"].tolist() == [seed, 7]
        assert state["counter"].tolist() == [0, 0, 0, 0]

    def test_building_a_stream_reads_no_os_entropy(self, monkeypatch):
        def entropy(n):
            raise AssertionError("OS entropy read")

        seed_sequence = np.random.SeedSequence  # loads numpy.random, whose import seeds its global RandomState
        monkeypatch.setattr(random, "_urandom", entropy)  # what SeedSequence() reads through secrets
        rng = RngStream(23, 5)
        assert not isinstance(rng._gen.bit_generator.seed_seq, seed_sequence)
        assert rng.uniform(3).shape == (3,)

    def test_seed_and_stream_id_are_integers(self):
        for seed, stream_id in [(1.9, 0), ("5", 0), (None, 0), (5, 1.0), (5, np.float64(2.0))]:
            with pytest.raises(ParameterError, match="must be an integer"):
                RngStream(seed, stream_id)
        numpy_ints = RngStream(np.uint64(2**64 - 1), np.int64(3))
        assert (numpy_ints.seed, numpy_ints.stream_id) == (2**64 - 1, 3)
        assert type(numpy_ints.seed) is int
        assert numpy_ints.uniform(8).tobytes() == RngStream(2**64 - 1, 3).uniform(8).tobytes()


def pairs(rng, size):
    """``size`` (pick, normal) uniform pairs, as the two columns of a mixture draw."""
    return rng.uniform(2 * size).reshape(size, 2).T


class TestGmm2Sample:
    def test_degenerate_weight_is_plain_normal(self):
        p = Gmm2Params(w_hi=1.0, mu_hi=10.0, sigma_hi=2.0, mu_lo=0.0, sigma_lo=1.0)
        xs = gmm2_quantile(p, *pairs(RngStream(11), 100_000))
        assert abs(xs.mean() - 10.0) < 3 * 2.0 / math.sqrt(100_000)

    def test_point_mass_components(self):
        p = Gmm2Params(w_hi=0.36, mu_hi=2.0, sigma_hi=0.0, mu_lo=1.0, sigma_lo=0.0)
        xs = gmm2_quantile(p, *pairs(RngStream(12), 100_000))
        assert set(np.unique(xs)) == {1.0, 2.0}
        assert xs.mean() == pytest.approx(1.36, abs=0.01)

    def test_mean_follows_total_expectation(self):
        p = Gmm2Params(w_hi=0.36, mu_hi=120_000.0, sigma_hi=20_000.0, mu_lo=90_000.0, sigma_lo=10_000.0)
        xs = gmm2_quantile(p, *pairs(RngStream(13), 1_000_000))
        assert xs.mean() == pytest.approx(p.mean, rel=0.005)

    def test_component_frequency_converges_to_weight(self):
        p = Gmm2Params(w_hi=0.36, mu_hi=2.0, sigma_hi=1.0, mu_lo=0.0, sigma_lo=1.0)
        picks, _ = pairs(RngStream(14), 1_000_000)
        assert (picks < p.w_hi).mean() == pytest.approx(0.36, abs=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Gmm2Params(w_hi=1.2, mu_hi=1.0, sigma_hi=1.0, mu_lo=0.0, sigma_lo=1.0)
        with pytest.raises(ParameterError):
            Gmm2Params(w_hi=0.5, mu_hi=0.0, sigma_hi=1.0, mu_lo=1.0, sigma_lo=1.0)
        with pytest.raises(ParameterError):
            Gmm2Params(w_hi=0.5, mu_hi=1.0, sigma_hi=-1.0, mu_lo=0.0, sigma_lo=1.0)
        for bad in ({"mu_hi": math.inf}, {"mu_lo": -math.inf}, {"sigma_hi": math.inf}, {"sigma_lo": math.nan}):
            with pytest.raises(ParameterError, match="finite"):
                Gmm2Params(**{"w_hi": 0.5, "mu_hi": 1.0, "sigma_hi": 1.0, "mu_lo": 0.0, "sigma_lo": 1.0, **bad})


class TestDistSpecs:
    def test_parses_each_kind(self):
        assert dist_from_spec("constant:42").quantile(np.empty((3, 0))).tolist() == [42.0] * 3
        u = np.array([[0.25], [0.5]])
        for spec, values in [("uniform:0:8", [2.0, 4.0]), ("normal:5:2", [5.0 + 2.0 * ndtri(0.25), 5.0]),
                             ("logistic:0.0333:0.0015", [0.0333 + 0.0015 * math.log(1 / 3), 0.0333])]:
            dist = dist_from_spec(spec)
            assert dist.words == 1
            assert dist.quantile(u).tolist() == values

    def test_uniform_bounds(self):
        xs = dist_from_spec("uniform:3:7").quantile(RngStream(31).uniform(1000).reshape(-1, 1))
        assert np.all((3.0 <= xs) & (xs <= 7.0))

    def test_normal_uses_one_uniform(self):
        dist = dist_from_spec("normal:0:1")
        assert dist.words == 1
        assert dist.quantile(np.array([[0.5], [0.975]])) == pytest.approx([0.0, 1.959964])

    @pytest.mark.parametrize("spec, message", [
        ("triangular:1:2", "unknown distribution"), ("constant", "takes 1 parameter"),
        ("uniform:1", "takes 2 parameter"), ("normal:a:b", "bad distribution spec"),
        ("constant:nan", "must be finite"), ("uniform:0:inf", "must be finite"), ("logistic:-inf:1", "must be finite"),
        ("uniform:2:1", r"uniform bounds out of order: \[2.0, 1.0\]"),
        ("normal:0:-1", "sigma must be non-negative, got -1.0"),
        ("logistic:0:-1", "scale must be finite and non-negative, got -1.0"),
    ])  # fmt: skip
    def test_rejects_bad_specs(self, spec, message):
        with pytest.raises(ParameterError, match=message):
            dist_from_spec(spec)

    def test_constant_consumes_no_draws(self):
        assert dist_from_spec("constant:9").words == 0
