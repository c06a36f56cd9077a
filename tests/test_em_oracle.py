"""Differential tests: the batched SQUAREM and Newton fit against the plain EM oracle.

On each seeded mixture the fit must reach at least the oracle's best
log-likelihood, stop at a true EM fixed point (one more plain EM step barely
moves any parameter), and draw its initial means from the stream exactly as
the oracle does.
"""

import numpy as np
import pytest

from em_oracle import _em_step_loglik
from em_oracle import fit_gmm2_em as fit_reference
from vrburst.fit import fit_gmm2_em
from vrburst.generator import sample_vr_frame
from vrburst.model import DEFAULT_CONSTANTS, VrStreamParams
from vrburst.rv import Gmm2Params, RngStream, gmm2_quantile


def vr_like(n):
    params = VrStreamParams(30e6, 60.0)
    return sample_vr_frame(params, DEFAULT_CONSTANTS, RngStream(401), size=n).astype(float)


def separated(n):
    truth = Gmm2Params(w_hi=0.3, mu_hi=40.0, sigma_hi=2.0, mu_lo=20.0, sigma_lo=2.0)
    return gmm2_quantile(truth, *RngStream(402).uniform(2 * n).reshape(n, 2).T)


def one_component(n):
    truth = Gmm2Params(w_hi=1.0, mu_hi=500.0, sigma_hi=20.0, mu_lo=0.0, sigma_lo=1.0)
    return gmm2_quantile(truth, *RngStream(403).uniform(2 * n).reshape(n, 2).T)


def plain_em_step(x, p: Gmm2Params) -> np.ndarray:
    """(w_hi, mu_hi, sigma_hi, mu_lo, sigma_lo) after one textbook EM step."""
    r_hi, _ = _em_step_loglik(
        x,
        np.array([p.w_hi, 1.0 - p.w_hi]),
        np.array([p.mu_hi, p.mu_lo]),
        np.array([p.sigma_hi, p.sigma_lo]),
    )
    r_lo = 1.0 - r_hi
    n_hi, n_lo = r_hi.sum(), r_lo.sum()
    mu_hi, mu_lo = r_hi @ x / n_hi, r_lo @ x / n_lo
    sigma_hi = np.sqrt(r_hi @ (x - mu_hi) ** 2 / n_hi)
    sigma_lo = np.sqrt(r_lo @ (x - mu_lo) ** 2 / n_lo)
    return np.array([n_hi / x.size, mu_hi, sigma_hi, mu_lo, sigma_lo])


@pytest.mark.parametrize(
    "make,n,restarts,seed",
    [
        (vr_like, 3000, 6, 410),
        (separated, 3000, 4, 411),
        (one_component, 3000, 4, 412),
    ],
    ids=["vr-like", "separated", "one-component"],
)
def test_fit_matches_or_beats_the_oracle(make, n, restarts, seed):
    x = make(n)
    rng, rng_ref = RngStream(seed), RngStream(seed)
    fit = fit_gmm2_em(x, restarts=restarts, rng=rng)
    ref = fit_reference(x, restarts=restarts, rng=rng_ref)

    assert fit["log_likelihood"] >= ref.log_likelihood - 1e-9 * n

    p = Gmm2Params(**{k: fit[k] for k in ("w_hi", "mu_hi", "sigma_hi", "mu_lo", "sigma_lo")})
    returned = np.array([p.w_hi, p.mu_hi, p.sigma_hi, p.mu_lo, p.sigma_lo])
    moved = np.abs(plain_em_step(x, p) / returned - 1.0)
    assert moved.max() < 1e-6, moved

    np.testing.assert_array_equal(rng.uniform(4), rng_ref.uniform(4))


def test_fits_of_vr_like_groups_stop_at_the_em_fixed_point():
    # 24 groups drawn as VR traces are: 3000 frames at 5-80 Mbit/s, 30 and
    # 60 FPS, fitted with 8 restarts at the default tolerance
    rates = np.linspace(5.0, 80.0, 12)
    worst = 0.0
    for k, (rate, fps) in enumerate((r, f) for r in rates for f in (30.0, 60.0)):
        x = sample_vr_frame(VrStreamParams(rate * 1e6, fps), DEFAULT_CONSTANTS, RngStream(420, k), size=3000)
        fit = fit_gmm2_em(x.astype(float), restarts=8, rng=RngStream(421, k))
        p = Gmm2Params(**{k: fit[k] for k in ("w_hi", "mu_hi", "sigma_hi", "mu_lo", "sigma_lo")})
        returned = np.array([p.w_hi, p.mu_hi, p.sigma_hi, p.mu_lo, p.sigma_lo])
        worst = max(worst, np.abs(plain_em_step(x.astype(float), p) / returned - 1.0).max())
    assert worst < 1e-6, worst
