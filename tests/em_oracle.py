"""Reference mixture fit for differential tests; not used by the package.

``fit_gmm2_em`` is the EM loop that ``vrburst.fit.fit_gmm2_em`` replaced with
a batched, SQUAREM-accelerated pass on standardised samples: one restart at
a time, in bytes, one plain EM step per iteration, stopping when the *summed*
log-likelihood rises by less than ``tol``. It is slow and obviously faithful
to the textbook algorithm, which is what an oracle should be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vrburst.rv import Gmm2Params, RngStream

_LOG_2PI = math.log(2.0 * math.pi)
# relative slack when checking that EM never decreases the log-likelihood
_MONOTONE_SLACK = 1e-8


@dataclass(frozen=True)
class Gmm2Fit:
    """Best EM result over all restarts; components labeled by mean."""

    params: Gmm2Params
    log_likelihood: float
    n_iterations: int
    converged: bool


def _em_step_loglik(x, w, mu, sigma):
    """One E step: responsibilities of component 0 and the log-likelihood."""
    with np.errstate(divide="ignore"):
        a = np.log(w[0]) - np.log(sigma[0]) - 0.5 * _LOG_2PI - 0.5 * ((x - mu[0]) / sigma[0]) ** 2
        b = np.log(w[1]) - np.log(sigma[1]) - 0.5 * _LOG_2PI - 0.5 * ((x - mu[1]) / sigma[1]) ** 2
    # two-term logsumexp; responsibilities of component 1 follow as 1 - r0
    high = np.maximum(a, b)
    norm = high + np.log1p(np.exp(-np.abs(a - b)))
    return np.exp(a - norm), float(norm.sum())


def fit_gmm2_em(
    samples,
    restarts: int = 50,
    max_iter: int = 500,
    tol: float = 1e-8,
    rng: RngStream | None = None,
) -> Gmm2Fit:
    """EM fit of a 2-component univariate Gaussian mixture.

    Each restart initializes the means from two distinct uniformly chosen
    samples, both sigmas from the sample std and equal weights, then iterates
    until the log-likelihood improves by less than ``tol`` (or ``max_iter``).
    Sigmas are floored at 1e-6 of the sample std to prevent collapse. The
    restart with the highest log-likelihood wins; ties keep the earliest.
    """
    if restarts < 1:
        raise ValueError(f"mixture fit needs at least 1 restart, got {restarts}")
    if rng is None:
        rng = RngStream(0)
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 10:
        raise ValueError(f"mixture fit needs at least 10 samples, got {n}")
    sample_std = float(x.std(ddof=1))
    if sample_std == 0.0:
        raise ValueError("mixture fit is degenerate: all samples are equal")
    sigma_floor = 1e-6 * sample_std
    x_sum = float(x.sum())

    best: tuple | None = None
    for _ in range(restarts):
        i = int(rng.uniform() * n)
        j = int(rng.uniform() * n)
        while j == i:
            j = int(rng.uniform() * n)
        w = np.array([0.5, 0.5])
        mu = np.array([x[i], x[j]])
        sigma = np.array([sample_std, sample_std])

        ll = -math.inf
        iterations = 0
        converged = False
        for iterations in range(1, max_iter + 1):
            r0, new_ll = _em_step_loglik(x, w, mu, sigma)
            if new_ll < ll - _MONOTONE_SLACK * max(1.0, abs(ll)):
                raise RuntimeError(
                    f"EM log-likelihood decreased ({ll} -> {new_ll}); "
                    "this indicates a numerical defect"
                )
            delta = new_ll - ll
            ll = new_ll
            if delta < tol:
                converged = True
                break
            n0 = float(r0.sum())
            n1 = n - n0
            if min(n0, n1) < 1e-12 or not math.isfinite(n0):
                break  # a component lost all responsibility; keep previous params
            wx0 = float(r0 @ x)
            mu0 = wx0 / n0
            mu1 = (x_sum - wx0) / n1
            dev0 = (x - mu0) ** 2
            dev1 = (x - mu1) ** 2
            var0 = float(r0 @ dev0) / n0
            var1 = (float(dev1.sum()) - float(r0 @ dev1)) / n1
            w = np.array([n0 / n, n1 / n])
            mu = np.array([mu0, mu1])
            sigma = np.maximum(np.sqrt([max(var0, 0.0), max(var1, 0.0)]), sigma_floor)
        else:
            # ran out of iterations: refresh the log-likelihood of the final params
            _, ll = _em_step_loglik(x, w, mu, sigma)

        if best is None or ll > best[0]:
            best = (ll, iterations, converged, w.copy(), mu.copy(), sigma.copy())

    ll, iterations, converged, w, mu, sigma = best
    hi, lo = (0, 1) if mu[0] >= mu[1] else (1, 0)
    params = Gmm2Params(
        w_hi=float(w[hi]),
        mu_hi=float(mu[hi]),
        sigma_hi=float(sigma[hi]),
        mu_lo=float(mu[lo]),
        sigma_lo=float(sigma[lo]),
    )
    return Gmm2Fit(params=params, log_likelihood=ll, n_iterations=iterations, converged=converged)
