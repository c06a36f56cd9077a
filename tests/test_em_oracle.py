"""Differential tests: the batched SQUAREM fit against the plain EM oracle.

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
from vrburst.model import DEFAULT_CONSTANTS, VrStreamParams, sample_vr_frame
from vrburst.rv import Gmm2Params, RngStream, gmm2_sample


def vr_like(n):
    params = VrStreamParams(30e6, 60.0)
    return sample_vr_frame(params, DEFAULT_CONSTANTS, RngStream(401), size=n).astype(float)


def separated(n):
    truth = Gmm2Params(w_hi=0.3, mu_hi=40.0, sigma_hi=2.0, mu_lo=20.0, sigma_lo=2.0)
    return gmm2_sample(truth, RngStream(402), size=n)


def one_component(n):
    truth = Gmm2Params(w_hi=1.0, mu_hi=500.0, sigma_hi=20.0, mu_lo=0.0, sigma_lo=1.0)
    return gmm2_sample(truth, RngStream(403), size=n)


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


# A single normal leaves the two-component likelihood almost flat along a
# ridge of splits, so EM (the oracle's too) crawls: at the default tolerance
# the fit stops about 1e-7 nats per sample short of the optimum, where one EM
# step still moves w_hi by a few 1e-6. That case gets a tighter tolerance and
# a larger E-step budget, and must then reach the same fixed point.
@pytest.mark.parametrize(
    "make,n,restarts,seed,options",
    [
        (vr_like, 3000, 6, 410, {}),
        (separated, 3000, 4, 411, {}),
        (one_component, 3000, 4, 412, {"tol": 1e-13, "max_iter": 20_000}),
    ],
    ids=["vr-like", "separated", "one-component"],
)
def test_fit_matches_or_beats_the_oracle(make, n, restarts, seed, options):
    x = make(n)
    rng, rng_ref = RngStream(seed), RngStream(seed)
    fit = fit_gmm2_em(x, restarts=restarts, rng=rng, **options)
    ref = fit_reference(x, restarts=restarts, rng=rng_ref)

    assert fit.log_likelihood >= ref.log_likelihood - 1e-9 * n

    p = fit.params
    returned = np.array([p.w_hi, p.mu_hi, p.sigma_hi, p.mu_lo, p.sigma_lo])
    moved = np.abs(plain_em_step(x, p) / returned - 1.0)
    assert moved.max() < 1e-6, moved

    np.testing.assert_array_equal(rng.uniform(4), rng_ref.uniform(4))
