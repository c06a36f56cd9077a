"""Fitting pipeline: recover model constants from burst traces.

Per (rate, fps) group of traces this fits a logistic to the inter-frame
intervals (moment matching) and a two-component Gaussian mixture to the
frame sizes (EM with random restarts). Across groups it pools the results:
zero-intercept linear fits of the component means against the empirical mean
frame size, power-law fits of the component standard deviations, and the
mean of (IFI std * fps) for the inverse-law coefficient. The pooled result
is checked by :class:`~vrburst.model.VrModelConstants` for the generators.

The mixture fits of all groups run as one loop over rows, one row per
restart, each on its group's standardised samples u = (x - mean) / std, so
an M step needs only the sums of r, r*u and r*u**2 over the
responsibilities r. The E step runs per group in chunks of rows and reduces
each row on its own, so a row's bits depend neither on the rows sharing its
call nor on BLAS: a group fitted alone gives the bits it gets among others.
Each row runs SQUAREM (Varadhan & Roland, 2008, Scand. J. Stat.): two EM
steps, one extrapolation with a capped step length, and a fall-back to the
plain double EM step when the extrapolated point is invalid or scores below
the first EM step. SQUAREM converges linearly, so once a cycle gains less
than ``_SWITCH`` nats per sample the row finishes with safeguarded full
Newton steps (the hybrid of Aitkin & Aitkin, 1996, Stat. Comput.), whose
Hessian needs the E step's sums of r0*r1*u**k for k = 0..4 as well. A row
converges when a Newton step predicts a gain below ``tol`` per sample (or a
SQUAREM cycle gains less than that). The result lists every restart's E
steps, log-likelihood and convergence.

Sample standard deviations use the n-1 denominator throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .generator import TraceFile
from .model import VrModelConstants
from .rv import Gmm2Params, LogisticParams, ParameterError, RngStream

_LOG_2PI = math.log(2.0 * math.pi)
# relative slack when checking that EM never decreases the log-likelihood
_MONOTONE_SLACK = 1e-8
# E steps run in chunks of rows of at most this many samples (at least one
# row), in two scratch buffers of 8 * max(_CHUNK_SAMPLES, n) bytes at most
_CHUNK_SAMPLES = 1 << 15
# sigmas never fall below this, in units of the sample std
_SIGMA_FLOOR = 1e-6
# a component whose responsibilities sum below this has lost all its samples
_MIN_RESPONSIBILITY = 1e-12
# factor by which the SQUAREM step-length cap grows or shrinks, and by which
# a Newton step that scored lower shrinks the gain the next one may predict
_STEP_FACTOR = 4.0
# responsibility log-odds are clipped here so exp(-d) stays finite
_MIN_LOG_ODDS = -700.0
# a row switches from SQUAREM to Newton steps once a cycle gains less than
# this many nats per sample
_SWITCH = 1e-4


class EmMonotonicityError(ValueError):
    """An EM step lowered the log-likelihood, which only rounding can do."""


def fit_logistic(samples) -> LogisticParams:
    """Moment-matched logistic fit: mu = mean, s = std * sqrt(3) / pi."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError(f"logistic fit needs at least 2 samples, got {x.size}")
    std = float(x.std(ddof=1))
    return LogisticParams(mu=float(x.mean()), s=std * math.sqrt(3.0) / math.pi)


class _Mixture(NamedTuple):
    """One group's mixture-fit input; ``name`` names it in errors."""

    name: str
    basis: np.ndarray  # (3, n) rows 1, u and u**2 of u = (x - mean) / std
    starts: np.ndarray  # (restarts, 2) initial means, in units of u
    mean: float
    std: float


def _standardise(samples, restarts, rng, name="") -> _Mixture:
    """Standardise ``samples``; each restart's means are two distinct uniformly chosen samples."""
    if restarts < 1:
        raise ParameterError(f"mixture fit needs at least 1 restart, got {restarts}")
    of = f" of the {name} group" if name else ""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 10:
        raise ValueError(f"mixture fit{of} needs at least 10 samples, got {n}")
    sample_mean = float(x.mean())
    sample_std = float(x.std(ddof=1))
    if sample_std == 0.0:
        raise ValueError(f"mixture fit{of} is degenerate: all samples are equal")
    u = (x - sample_mean) / sample_std
    starts = np.empty((restarts, 2))
    for k in range(restarts):
        i = int(rng.uniform() * n)
        j = int(rng.uniform() * n)
        while j == i:
            j = int(rng.uniform() * n)
        starts[k] = u[i], u[j]
    return _Mixture(name, np.stack([np.ones(n), u, u * u]), starts, sample_mean, sample_std)


# Parameters of a set of rows travel as a (5, rows) array with rows
# w0, mu0, mu1, sigma0, sigma1 (component 1 has weight 1 - w0), in units of
# the standardised samples.


class _Rows:
    """Every restart of every mixture as one row, in mixture order."""

    def __init__(self, mixtures):
        self.mixtures = mixtures
        counts = [len(m.starts) for m in mixtures]
        self.bounds = np.cumsum([0, *counts])
        sizes = [m.basis.shape[1] for m in mixtures]
        self.n = np.repeat(np.array(sizes, dtype=float), counts)
        self.totals = np.repeat([m.basis[1:].sum(axis=1) for m in mixtures], counts, axis=0).T
        self.chunks = [max(1, _CHUNK_SAMPLES // size) for size in sizes]
        self.scratch = np.empty((2, max(min(c, k) * s for c, k, s in zip(counts, self.chunks, sizes))))

    def e_step(self, theta, rows, mask):
        """Per row: log-likelihood (m,), ``(sum r0, sum r0*u, sum r0*u**2)`` (3, m)
        and the curvature sums ``sum r0*r1*u**k`` for k = 0..4 (5, m).

        ``theta`` (5, m) holds the params of the sorted ``rows``; rows outside
        ``mask`` get -inf and zeros. With a and b the log of each component's
        weighted density at a sample, -d = b - a is quadratic in u, r0 =
        1 / (1 + e) and r1 = e * r0 with e = exp(-d), and the sample adds
        b + d + log(e + 1); the sum of b comes from the totals of u and u**2.
        Each sum is per row.
        """
        ll, stats, curv = np.full(mask.size, -np.inf), np.zeros((3, mask.size)), np.zeros((5, mask.size))
        if not mask.any():
            return ll, stats, curv
        rows = rows[mask]
        w0, mu0, mu1, sigma0, sigma1 = theta[:, mask]
        n, (t1, t2) = self.n[rows], self.totals[:, rows]
        log_w0, log_w1 = np.log(w0), np.log1p(-w0)
        h0, h1 = 0.5 / (sigma0 * sigma0), 0.5 / (sigma1 * sigma1)
        a0, a1 = mu0 * h0, mu1 * h1
        c0 = mu0 * a0 - mu1 * a1 + (log_w1 - log_w0) + np.log(sigma0 / sigma1)
        coeffs = np.array([c0, 2.0 * (a1 - a0), h0 - h1])  # -d = c0 + c1 u + c2 u**2
        ll_rows = n * (log_w1 - np.log(sigma1) - 0.5 * _LOG_2PI)
        ll_rows -= h1 * (t2 - mu1 * (2.0 * t1 - n * mu1))  # the sum of b needs no pass
        stats_rows, curv_rows = np.empty((3, rows.size)), np.empty((5, rows.size))
        edges = np.searchsorted(rows, self.bounds)
        for mixture, chunk, lo, hi in zip(self.mixtures, self.chunks, edges, edges[1:]):
            size = mixture.basis.shape[1]
            for i in range(lo, hi, chunk):
                j = min(i + chunk, hi)
                nd, r0 = (buffer[: (j - i) * size].reshape(j - i, size) for buffer in self.scratch)
                np.einsum("kr,kn->rn", coeffs[:, i:j], mixture.basis, out=nd)
                np.minimum(nd, -_MIN_LOG_ODDS, out=nd)
                ll_rows[i:j] -= nd.sum(axis=1)
                e = np.exp(nd, out=nd)
                np.reciprocal(np.add(e, 1.0, out=r0), out=r0)
                stats_rows[:, i:j] = np.einsum("rn,kn->kr", r0, mixture.basis)
                e *= r0  # r1
                e *= r0  # r0 * r1
                curv_rows[:3, i:j] = np.einsum("rn,kn->kr", e, mixture.basis)
                e *= mixture.basis[2]  # so u**3 and u**4 need no rows of their own
                curv_rows[3:, i:j] = np.einsum("rn,kn->kr", e, mixture.basis[1:])
                ll_rows[i:j] -= np.log(r0, out=r0).sum(axis=1)  # log(e + 1) = -log(r0)
        ll[mask], stats[:, mask], curv[:, mask] = ll_rows, stats_rows, curv_rows
        return ll, stats, curv

    def check_monotone(self, rows, ll_before, ll_after):
        # written so that a nan log-likelihood fails too
        bad = ~(ll_after >= ll_before - _MONOTONE_SLACK * np.maximum(1.0, np.abs(ll_before)))
        if bad.any():
            k = int(np.argmax(bad))
            name = self.mixtures[int(np.searchsorted(self.bounds, rows[k], side="right")) - 1].name
            raise EmMonotonicityError(
                f"EM log-likelihood{f' of the {name} group' if name else ''} decreased "
                f"({ll_before[k]} -> {ll_after[k]}); this indicates a numerical defect"
            )


def _m_step(stats, n, totals):
    """M step per row; a row whose component lost all responsibility gets w0 = nan."""
    n0, s1, s2 = stats
    n1 = n - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = s1 / n0
        mu1 = (totals[0] - s1) / n1
        var0 = s2 / n0 - mu0 * mu0
        var1 = (totals[1] - s2) / n1 - mu1 * mu1
    w0 = np.where(np.minimum(n0, n1) < _MIN_RESPONSIBILITY, np.nan, n0 / n)
    sigmas = np.sqrt(np.maximum([var0, var1], 0.0))
    return np.vstack([w0, mu0, mu1, np.maximum(sigmas, _SIGMA_FLOOR)])


def _valid(theta):
    """Rows whose parameters are finite with 0 < w0 < 1."""
    w0 = theta[0]
    return np.isfinite(theta).all(axis=0) & (w0 > 0.0) & (w0 < 1.0)


def _coords(theta):
    """Each row's (logit w0, mu0, mu1, log sigma0, log sigma1): the coordinates of SQUAREM and Newton."""
    return np.vstack([np.log(theta[0] / (1.0 - theta[0])), theta[1:3], np.log(theta[3:])])


def _params(q):
    """The inverse of :func:`_coords`."""
    return np.vstack([1.0 / (1.0 + np.exp(-q[0])), q[1:3], np.exp(q[3:])])


def _squarem_step(theta0, theta1, theta2, step_max):
    """SQUAREM (SqS3) extrapolation in :func:`_coords` coordinates.

    The step length ||r|| / ||v|| is capped at ``step_max``. Returns the
    extrapolated parameters, the rows where the step goes past the plain
    double step (length > 1; a step of 1 gives theta2 back) and the rows
    where the cap was hit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q0, q1, q2 = map(_coords, (theta0, theta1, theta2))
        r = q1 - q0
        v = q2 - 2.0 * q1 + q0
        norm_v = np.sqrt((v * v).sum(axis=0))
        step = np.minimum(np.sqrt((r * r).sum(axis=0)) / norm_v, step_max)
        theta = _params(q0 + 2.0 * step * r + step * step * v)
    np.maximum(theta[3:], _SIGMA_FLOOR, out=theta[3:])
    further = (norm_v > 0.0) & (step > 1.0)
    return theta, further, step >= step_max


def _gradient(theta, stats, curv, n, totals):
    """Gradient g (5, m) and negated Hessian -H (5, 5, m) of each row's log-likelihood in :func:`_coords`.

    With a and b the log weighted densities, g = sum r0 grad(a) + r1 grad(b)
    and H = sum r0 hess(a) + r1 hess(b) + P Hankel(C0..C4) P', where the rows
    of P hold the coefficients of 1, u and u**2 in grad(a) - grad(b).
    """
    w0, mu0, mu1, sigma0, sigma1 = theta
    n0, s1, s2 = stats
    n1, t1, t2 = n - n0, totals[0] - s1, totals[1] - s2  # the sums over r1
    v0, v1 = 1.0 / (sigma0 * sigma0), 1.0 / (sigma1 * sigma1)
    d0, d1 = s1 - mu0 * n0, t1 - mu1 * n1  # sums of r (u - mu)
    q0, q1 = s2 - mu0 * (s1 + d0), t2 - mu1 * (t1 + d1)  # sums of r (u - mu)**2
    g = np.array([n0 - n * w0, d0 * v0, d1 * v1, q0 * v0 - n0, q1 * v1 - n1])
    zero, one = np.zeros_like(w0), np.ones_like(w0)
    p = np.array([
        [one, zero, zero],
        [-mu0 * v0, v0, zero],
        [mu1 * v1, -v1, zero],
        [mu0 * mu0 * v0 - 1.0, -2.0 * mu0 * v0, v0],
        [1.0 - mu1 * mu1 * v1, 2.0 * mu1 * v1, -v1],
    ])  # fmt: skip
    # explicit sums over the small axes keep every row's arithmetic its own
    pc = sum(p[:, j, None] * curv[j : j + 3] for j in range(3))  # P Hankel(C)
    a = -sum(pc[:, None, k] * p[None, :, k] for k in range(3))
    dd0, dd1 = 2.0 * d0 * v0, 2.0 * d1 * v1
    a[[0, 1, 2, 3, 4, 1, 3, 2, 4], [0, 1, 2, 3, 4, 3, 1, 4, 2]] += np.array(
        [n * w0 * (1.0 - w0), n0 * v0, n1 * v1, 2.0 * q0 * v0, 2.0 * q1 * v1, dd0, dd0, dd1, dd1]
    )
    return g, a


def _newton_step(theta, stats, curv, n, totals):
    """Full Newton step of each row in :func:`_coords`, and its predicted gain g'(-H)^-1 g / 2 per sample.

    The Cholesky loop runs on each row's own elements, without BLAS. The gain
    is nan where a pivot is <= 0, or the candidate is invalid or has a sigma
    below the floor.
    """
    g, a = _gradient(theta, stats, curv, n, totals)
    positive = np.ones(n.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = g.copy()  # solves L y = g as the columns of L = chol(-H) come
        for j in range(5):
            positive &= a[j, j] > 0.0
            a[j:, j] /= np.sqrt(a[j, j])
            a[j + 1 :, j + 1 :] -= a[j + 1 :, j, None] * a[j + 1 :, j]
            y[j] /= a[j, j]
            y[j + 1 :] -= a[j + 1 :, j] * y[j]
        step = y.copy()  # then L' step = y
        for j in range(4, -1, -1):
            step[j] /= a[j, j]
            step[:j] -= a[j, :j] * step[j]
        theta_n = _params(_coords(theta) + step)
    ok = positive & _valid(theta_n) & (theta_n[3:] >= _SIGMA_FLOOR).all(axis=0)
    return theta_n, np.where(ok, sum(y * y) / (2.0 * n), np.nan)


def _fit_rows(rows, max_iter, tol):
    """SQUAREM-accelerated EM, finished by Newton steps, for every row of ``rows``.

    A SQUAREM cycle keeps its extrapolated point when that is valid and
    scores no lower than theta1, else theta2. A row in Newton mode (see the
    module docstring) evaluates its candidate in the call of the other rows'
    theta1; where -H is not positive definite or the candidate is invalid it
    runs a SQUAREM cycle instead, and after a candidate that scores lower
    its next one must predict under a quarter of that one's gain. A row
    stops unconverged when a component loses all responsibility (keeping
    its last params) or when another pass could exceed ``max_iter`` E steps.
    Returns the final (5, rows) params, log-likelihoods, E-step counts and
    convergence.
    """
    starts = np.concatenate([m.starts for m in rows.mixtures])
    count = len(starts)
    theta = np.vstack([np.full(count, 0.5), starts.T, np.ones((2, count))])
    ll, stats, curv = rows.e_step(theta, np.arange(count), np.ones(count, dtype=bool))
    iterations = np.ones(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    trust = np.full(count, np.inf)
    newton = np.zeros(count, dtype=bool)
    step_max = np.ones(count)

    def em_map(mask):
        """The EM map of each live row's current params, and ``mask`` where it is valid."""
        theta_m = _m_step(stats[:, live], n, rows.totals[:, live])
        return theta_m, mask & _valid(theta_m)

    def evaluate(points, mask, em):
        """E step of ``points`` on ``mask``; EM maps are kept, other points when they score no lower."""
        ll_p, stats_p, curv_p = rows.e_step(points, live, mask)
        ll_c = ll[live]
        rows.check_monotone(live[mask & em], ll_c[mask & em], ll_p[mask & em])
        keep = mask & (em | (ll_p >= ll_c))
        theta[:, live] = np.where(keep, points, theta[:, live])
        ll[live] = np.where(keep, ll_p, ll_c)
        stats[:, live] = np.where(keep, stats_p, stats[:, live])
        curv[:, live] = np.where(keep, curv_p, curv[:, live])
        iterations[live] += mask
        return keep

    live = np.flatnonzero(iterations + 2 <= max_iter)
    while live.size:
        theta0, ll0, n = theta[:, live], ll[live], rows.n[live]
        theta_n, gain, on = theta0.copy(), np.full(live.size, np.nan), newton[live]
        if (at := live[on]).size:  # a row's Newton step works on its own elements only
            theta_n[:, on], gain[on] = _newton_step(theta0[:, on], stats[:, at], curv[:, at], n[on], rows.totals[:, at])
        newton_now = on & (gain < trust[live])  # gain is nan where no step is valid
        last = newton_now & (gain < tol)
        theta1, ok1 = em_map(~newton_now)
        stepped = evaluate(np.where(newton_now, theta_n, theta1), newton_now | ok1, ~newton_now)
        # after a Newton step that lowered the log-likelihood, the next one must predict less
        trust[live] = np.where(newton_now & ~stepped, gain / _STEP_FACTOR, trust[live])

        theta2, ok2 = em_map(ok1)
        theta_x, further, capped = _squarem_step(theta0, theta1, theta2, step_max[live])
        tried = ok2 & further & _valid(theta_x) & (iterations[live] + 2 <= max_iter)
        accepted = evaluate(theta_x, tried, False)
        # the cap grows while capped steps succeed and shrinks when one fails
        cap = step_max[live]
        shrunk = np.maximum(cap / _STEP_FACTOR, 1.0)
        step_max[live] = np.where(capped & ok1, np.where(tried & ~accepted, shrunk, cap * _STEP_FACTOR), cap)
        evaluate(theta2, ok2 & ~accepted, True)  # the fallback to theta2

        gain_cycle = (ll[live] - ll0) / n
        done = last | ok2 & (gain_cycle < tol)
        converged[live] = done
        newton[live] = newton_now | (gain_cycle < _SWITCH)
        live = live[(newton_now | ok2) & ~done & (iterations[live] + 2 <= max_iter)]
    return theta, ll, iterations, converged


def _fit_mixtures(mixtures, max_iter, tol) -> list[dict]:
    """Fit every mixture in one loop; each keeps its best restart (ties keep the earliest)."""
    rows = _Rows(mixtures)
    theta, ll_u, iterations, converged = _fit_rows(rows, max_iter, tol)
    fits = []
    for m, start, stop in zip(mixtures, rows.bounds, rows.bounds[1:]):
        ll = ll_u[start:stop] - m.basis.shape[1] * math.log(m.std)  # back to the density of x in bytes
        its, oks = iterations[start:stop].tolist(), converged[start:stop].tolist()
        restarts = [{"iterations": i, "log_likelihood": v, "converged": c} for i, v, c in zip(its, ll.tolist(), oks)]
        best = int(np.argmax(ll))  # first maximum: ties keep the earliest restart
        w0, mu0, mu1, sigma0, sigma1 = theta[:, start + best]
        a = (w0, m.mean + m.std * mu0, m.std * sigma0)
        b = (1.0 - w0, m.mean + m.std * mu1, m.std * sigma1)
        (w_hi, mu_hi, sigma_hi), (_, mu_lo, sigma_lo) = (a, b) if a[1] >= b[1] else (b, a)
        params = Gmm2Params(*map(float, (w_hi, mu_hi, sigma_hi, mu_lo, sigma_lo)))  # validated, then its fields
        top = restarts[best]
        fits.append({**vars(params), "log_likelihood": top["log_likelihood"], "n_iterations": top["iterations"],
                     "converged": top["converged"], "restarts": restarts})
    return fits


def fit_gmm2_em(
    samples,
    restarts: int = 50,
    max_iter: int = 500,
    tol: float = 1e-10,
    rng: RngStream | None = None,
) -> dict:
    """EM fit of a 2-component univariate Gaussian mixture.

    Each restart initializes the means from two distinct uniformly chosen
    samples, both sigmas from the sample std and equal weights, and runs
    SQUAREM-accelerated EM, finished by Newton steps once a cycle gains less
    than 1e-4 nats per sample. This is the one-group case of the loop that
    :func:`fit_vr_model` runs over all groups, with the same bits. A restart
    converges when a Newton step predicts a gain below ``tol`` nats per
    sample (it still takes that step, unless it lowers the log-likelihood),
    or when a SQUAREM cycle gains less than ``tol``; ``max_iter`` caps its E
    steps. Sigmas are floored at 1e-6 of the sample std. The restart with
    the highest log-likelihood wins; ties keep the earliest. Raises
    :class:`EmMonotonicityError` when rounding lowers the log-likelihood.

    Returns a group's ``gmm`` dict of the ``fit --report`` JSON: the best
    restart's :class:`~vrburst.rv.Gmm2Params` fields (labeled by mean),
    ``log_likelihood``, ``n_iterations`` (E steps) and ``converged``, then
    ``restarts``: each restart's ``iterations``, ``log_likelihood`` and
    ``converged``, in the order its initial means were drawn.
    """
    mixture = _standardise(samples, restarts, RngStream(0) if rng is None else rng)
    return _fit_mixtures([mixture], max_iter, tol)[0]


def fit_linear_through_origin(x, y, weights) -> float:
    """Weighted least-squares slope of ``y`` on ``x`` (arrays) with the intercept forced to zero."""
    denom = float((weights * x * x).sum())
    if denom <= 0.0:
        raise ValueError("linear fit through the origin needs a non-zero abscissa")
    return float((weights * x * y).sum() / denom)


def fit_power_law(x, y, weights) -> tuple[float, float]:
    """Fit y = coeff * x**exp to arrays by weighted least squares in log-log space."""
    if len(x) < 2:
        raise ValueError(f"power-law fit needs at least 2 points, got {len(x)}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs strictly positive coordinates")
    lx, ly = np.log(x), np.log(y)
    wsum = float(weights.sum())
    mx = float((weights * lx).sum() / wsum)
    my = float((weights * ly).sum() / wsum)
    sxx = float((weights * (lx - mx) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("power-law fit needs at least two distinct abscissae")
    exponent = float((weights * (lx - mx) * (ly - my)).sum() / sxx)
    coeff = math.exp(my - exponent * mx)
    return coeff, exponent


def _goodness_weights(mean_lls, weighting: str) -> np.ndarray:
    count = len(mean_lls)
    if weighting == "uniform":
        return np.full(count, 1.0 / count)
    if weighting != "rank":
        raise ValueError(f"unknown weighting {weighting!r} (expected 'rank' or 'uniform')")
    # mean log-likelihoods are negative, so weight by goodness rank instead
    # of by value: the best-fitting group gets rank G, the worst rank 1
    ranks = np.empty(count)
    ranks[np.argsort(mean_lls, kind="stable")] = np.arange(1, count + 1)
    return ranks / ranks.sum()


def _metadata_number(metadata, name) -> float:
    if name not in metadata:
        raise ValueError(f"trace metadata is missing the {name!r} key needed for grouping "
                         "(expected 'target_rate_mbps' and 'fps')")
    try:
        value = float(metadata[name])
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"trace metadata {name} {metadata[name]!r} is not a positive number")
    return value


def group_traces(traces) -> dict[tuple[float, float], TraceFile]:
    """Group traces by the (target_rate_mbps, fps) keys in their metadata, each a positive number.

    Traces sharing a key are concatenated into one group.
    """
    groups: dict[tuple[float, float], TraceFile] = {}
    for trace in traces:
        rate_mbps, fps = (_metadata_number(trace.metadata, name) for name in ("target_rate_mbps", "fps"))
        key = (rate_mbps * 1e6, fps)
        if key in groups:
            groups[key].records = np.concatenate((groups[key].records, trace.records))
        else:
            groups[key] = TraceFile(records=trace.records, metadata=dict(trace.metadata))
    return groups


def fit_vr_model(
    groups: dict[tuple[float, float], TraceFile],
    em_restarts: int = 50,
    em_max_iter: int = 500,
    em_tol: float = 1e-10,
    seed: int = 0,
    weighting: str = "rank",
) -> dict:
    """Fit the full model across (rate, fps) groups.

    ``groups`` maps (target rate in bit/s, frame rate) to the group's trace.
    All groups' mixtures are fitted in one loop, each as :func:`fit_gmm2_em`
    fits it alone. Regressions run against each group's *empirical* mean
    frame size, and the linear/power-law fits weigh groups by mixture-fit
    goodness (see ``weighting``: 'rank' or 'uniform').

    Returns the ``fit --report`` JSON as a dict; its ``constants`` are its
    ``pooled`` values, or None when the mean slopes do not straddle 1.
    """
    if len(groups) < 2:
        raise ValueError(f"model fit needs at least 2 (rate, fps) groups, got {len(groups)}")

    keys = sorted(groups)
    mixtures = [
        _standardise(groups[rate, fps].records[:, 0], em_restarts, RngStream(seed, index),
                     f"{rate / 1e6:g} Mbit/s, {fps:g} FPS")
        for index, (rate, fps) in enumerate(keys)
    ]  # fmt: skip
    fits = []
    for (rate_bps, fps), m, gmm in zip(keys, mixtures, _fit_mixtures(mixtures, em_max_iter, em_tol)):
        ifi = fit_logistic(groups[rate_bps, fps].records[:, 1].astype(float) * 1e-9)
        n = m.basis.shape[1]
        fits.append({"rate_mbps": rate_bps / 1e6, "fps": fps, "n_frames": n, "mean_frame_size_bytes": m.mean,
                     "gmm": gmm, "ifi": {"mu": ifi.mu, "s": ifi.s, "std": ifi.std}, "ifi_std_coeff": ifi.std * fps,
                     "mean_log_likelihood": gmm["log_likelihood"] / n})  # the weight follows below

    weights = _goodness_weights([g["mean_log_likelihood"] for g in fits], weighting)
    for fit, weight in zip(fits, weights):
        fit["weight"] = float(weight)

    x = np.array([g["mean_frame_size_bytes"] for g in fits])
    mu_hi, mu_lo, sigma_hi, sigma_lo = (
        np.array([g["gmm"][k] for g in fits]) for k in ("mu_hi", "mu_lo", "sigma_hi", "sigma_lo")
    )
    hi_slope = fit_linear_through_origin(x, mu_hi, weights)
    lo_slope = fit_linear_through_origin(x, mu_lo, weights)
    slopes_valid = lo_slope <= 1.0 <= hi_slope
    pooled = {
        "ifi_std_coeff": float(np.mean([g["ifi_std_coeff"] for g in fits])),
        "iframe_mean_slope": hi_slope,
        "pframe_mean_slope": lo_slope,
    }
    pooled["iframe_std_coeff"], pooled["iframe_std_exp"] = fit_power_law(x, sigma_hi, weights)
    pooled["pframe_std_coeff"], pooled["pframe_std_exp"] = fit_power_law(x, sigma_lo, weights)
    return {
        "weighting": weighting,
        "slopes_valid": slopes_valid,
        "pooled": pooled,
        "constants": VrModelConstants(**pooled).to_dict() if slopes_valid else None,
        "groups": fits,
    }
