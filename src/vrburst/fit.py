"""Fitting pipeline: recover model constants from burst traces.

Per (rate, fps) group of traces this fits a logistic to the inter-frame
intervals (moment matching) and a two-component Gaussian mixture to the
frame sizes (EM with random restarts). Across groups it pools the results:
zero-intercept linear fits of the component means against the empirical mean
frame size, power-law fits of the component standard deviations, and the
mean of (IFI std * fps) for the inverse-law coefficient. The pooled result
is a :class:`~vrburst.model.VrModelConstants` ready for the generators.

The mixture fit runs every restart at once, as rows of (rows, n) arrays on
the standardised samples u = (x - mean) / std, so an M step needs only the
sums of r, r*u and r*u**2 over the responsibilities r. Each row is
accelerated by SQUAREM (Varadhan & Roland, 2008, Scand. J. Stat.): two EM
steps, one extrapolation with a capped step length, and a fall-back to the
plain double EM step when the extrapolated point is invalid or scores below
the first EM step. A restart converges when one accepted cycle raises the
mean log-likelihood per sample by less than ``tol``. The result lists every
restart's E steps, log-likelihood and convergence.

Sample standard deviations use the n-1 denominator throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .generator import TraceFile
from .model import VrModelConstants
from .rv import Gmm2Params, LogisticParams, RngStream

_LOG_2PI = math.log(2.0 * math.pi)
# relative slack when checking that EM never decreases the log-likelihood
_MONOTONE_SLACK = 1e-8
# restarts run in blocks of rows holding at most this many samples in all,
# which bounds each (rows, n) temporary at 8 * _BLOCK_SAMPLES bytes
_BLOCK_SAMPLES = 1 << 18
# sigmas never fall below this, in units of the sample std
_SIGMA_FLOOR = 1e-6
# a component whose responsibilities sum below this has lost all its samples
_MIN_RESPONSIBILITY = 1e-12
# factor by which the SQUAREM step-length cap grows or shrinks
_STEP_FACTOR = 4.0
# responsibility log-odds are clipped here so exp(-d) stays finite
_MIN_LOG_ODDS = -700.0


def fit_logistic(samples) -> LogisticParams:
    """Moment-matched logistic fit: mu = mean, s = std * sqrt(3) / pi."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError(f"logistic fit needs at least 2 samples, got {x.size}")
    std = float(x.std(ddof=1))
    return LogisticParams(mu=float(x.mean()), s=std * math.sqrt(3.0) / math.pi)


@dataclass(frozen=True)
class EmRestart:
    """Outcome of one EM restart; ``iterations`` counts its E steps."""

    iterations: int
    log_likelihood: float
    converged: bool


@dataclass(frozen=True)
class Gmm2Fit:
    """Best EM result over all restarts; components labeled by mean.

    ``n_iterations`` and ``converged`` describe the best restart; ``restarts``
    lists every restart in the order its initial means were drawn.
    """

    params: Gmm2Params
    log_likelihood: float
    n_iterations: int
    converged: bool
    restarts: tuple[EmRestart, ...]


# Parameters of a block of restarts travel as a (5, rows) array with rows
# w0, mu0, mu1, sigma0, sigma1 (component 1 has weight 1 - w0), in units of
# the standardised samples.


def _e_step(u, u2, theta):
    """E step per row: log-likelihood and component-0 sufficient statistics.

    Returns ``ll`` and ``stats = (sum r0, sum r0*u, sum r0*u**2)``, each of
    shape (rows,). With a and b the log of each component's weighted density
    at a sample and d = a - b, the responsibility is r0 = 1 / (1 + exp(-d))
    and the sample adds b + d + log1p(exp(-d)) = logaddexp(a, b) to ``ll``.
    """
    w0, mu0, mu1, sigma0, sigma1 = theta
    log_w0, log_w1 = np.log(w0), np.log1p(-w0)
    half = math.sqrt(0.5)
    z0 = np.subtract(u, mu0[:, None])
    z0 *= (half / sigma0)[:, None]
    np.square(z0, out=z0)  # (u - mu0)**2 / (2 sigma0**2)
    z1 = np.subtract(u, mu1[:, None])
    z1 *= (half / sigma1)[:, None]
    np.square(z1, out=z1)
    ll = u.size * (log_w1 - np.log(sigma1) - 0.5 * _LOG_2PI) - z1.sum(axis=1)
    d = np.subtract(z1, z0, out=z1)
    d += (log_w0 - np.log(sigma0) - log_w1 + np.log(sigma1))[:, None]
    np.maximum(d, _MIN_LOG_ODDS, out=d)
    ll += d.sum(axis=1)
    e = np.negative(d, out=z0)
    np.exp(e, out=e)
    ll += np.log1p(e, out=d).sum(axis=1)
    e += 1.0
    r0 = np.reciprocal(e, out=e)
    return ll, np.stack([r0.sum(axis=1), r0 @ u, r0 @ u2])


def _e_step_rows(u, u2, theta, rows):
    """``_e_step`` on the selected rows; the others get ll = -inf and zero stats."""
    ll = np.full(rows.size, -np.inf)
    stats = np.zeros((3, rows.size))
    if rows.any():
        ll[rows], stats[:, rows] = _e_step(u, u2, theta[:, rows])
    return ll, stats


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


def _squarem_step(theta0, theta1, theta2, step_max):
    """SQUAREM (SqS3) extrapolation in (logit w0, mu, log sigma) coordinates.

    The step length ||r|| / ||v|| is capped at ``step_max``. Returns the
    extrapolated parameters, the rows where the step goes past the plain
    double step (length > 1; a step of 1 gives theta2 back) and the rows
    where the cap was hit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q0, q1, q2 = (
            np.vstack([np.log(t[0] / (1.0 - t[0])), t[1:3], np.log(t[3:])])
            for t in (theta0, theta1, theta2)
        )
        r = q1 - q0
        v = q2 - 2.0 * q1 + q0
        norm_v = np.sqrt((v * v).sum(axis=0))
        step = np.minimum(np.sqrt((r * r).sum(axis=0)) / norm_v, step_max)
        q = q0 + 2.0 * step * r + step * step * v
        w0 = 1.0 / (1.0 + np.exp(-q[0]))
        sigmas = np.maximum(np.exp(q[3:]), _SIGMA_FLOOR)
    further = (norm_v > 0.0) & (step > 1.0)
    return np.vstack([w0, q[1:3], sigmas]), further, step >= step_max


def _check_monotone(ll_before, ll_after):
    # written so that a nan log-likelihood fails too
    bad = ~(ll_after >= ll_before - _MONOTONE_SLACK * np.maximum(1.0, np.abs(ll_before)))
    if bad.any():
        k = int(np.argmax(bad))
        raise RuntimeError(
            f"EM log-likelihood decreased ({ll_before[k]} -> {ll_after[k]}); "
            "this indicates a numerical defect"
        )


def _fit_block(u, u2, totals, starts, max_iter, tol):
    """SQUAREM-accelerated EM for each row of ``starts`` (initial means).

    One cycle takes two EM maps theta0 -> theta1 -> theta2 and extrapolates.
    The extrapolated point is kept when it is valid and its log-likelihood
    is no lower than theta1's; otherwise the cycle falls back to theta2. A
    row stops when a cycle raises the mean log-likelihood by less than
    ``tol`` (converged), when a component loses all responsibility (the row
    keeps its last params), or when another cycle could exceed ``max_iter``
    E steps. Returns the final (5, rows) params, log-likelihoods, E-step
    counts and convergence flags.
    """
    n = u.size
    rows = len(starts)
    theta = np.vstack([np.full(rows, 0.5), starts.T, np.ones((2, rows))])
    ll, stats = _e_step(u, u2, theta)
    iterations = np.ones(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    step_max = np.ones(rows)
    live = np.flatnonzero(iterations + 2 <= max_iter)
    while live.size:
        theta0, ll0, stats0 = theta[:, live], ll[live], stats[:, live]

        theta1 = _m_step(stats0, n, totals)
        ok1 = _valid(theta1)
        ll1, stats1 = _e_step_rows(u, u2, theta1, ok1)
        _check_monotone(ll0[ok1], ll1[ok1])

        theta2 = _m_step(stats1, n, totals)
        ok2 = ok1 & _valid(theta2)
        theta_x, further, capped = _squarem_step(theta0, theta1, theta2, step_max[live])
        tried = ok2 & further & _valid(theta_x) & (iterations[live] + 3 <= max_iter)
        ll_x, stats_x = _e_step_rows(u, u2, theta_x, tried)
        accepted = tried & (ll_x >= ll1)
        # the cap grows while capped steps succeed and shrinks when one fails
        cap = step_max[live]
        shrunk = np.maximum(cap / _STEP_FACTOR, 1.0)
        step_max[live] = np.where(capped, np.where(tried & ~accepted, shrunk, cap * _STEP_FACTOR), cap)

        fallback = ok2 & ~accepted
        ll2, stats2 = _e_step_rows(u, u2, theta2, fallback)
        _check_monotone(ll1[fallback], ll2[fallback])

        def pick(new_x, new_2, new_1, old):
            # a failed M step leaves the row at the last params it evaluated
            return np.where(accepted, new_x, np.where(fallback, new_2, np.where(ok1, new_1, old)))

        theta[:, live] = pick(theta_x, theta2, theta1, theta0)
        ll[live] = pick(ll_x, ll2, ll1, ll0)
        stats[:, live] = pick(stats_x, stats2, stats1, stats0)
        iterations[live] += ok1.astype(np.int64) + tried + fallback
        done = ok2 & ((ll[live] - ll0) / n < tol)
        converged[live] = done
        live = live[ok2 & ~done & (iterations[live] + 2 <= max_iter)]
    return theta, ll, iterations, converged


def fit_gmm2_em(
    samples,
    restarts: int = 50,
    max_iter: int = 500,
    tol: float = 1e-10,
    rng: RngStream | None = None,
) -> Gmm2Fit:
    """EM fit of a 2-component univariate Gaussian mixture.

    Each restart initializes the means from two distinct uniformly chosen
    samples, both sigmas from the sample std and equal weights. All restarts
    run together as rows of (rows, n) arrays on the standardised samples
    ``u = (x - mean) / std``, each accelerated by SQUAREM (see
    ``_fit_block``). A restart converges when one accepted cycle raises the
    mean log-likelihood per sample by less than ``tol`` nats; ``max_iter``
    caps its E steps. Sigmas are floored at 1e-6 of the sample std to
    prevent collapse. The restart with the highest log-likelihood wins; ties
    keep the earliest.
    """
    if restarts < 1:
        raise ValueError(f"mixture fit needs at least 1 restart, got {restarts}")
    if rng is None:
        rng = RngStream(0)
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 10:
        raise ValueError(f"mixture fit needs at least 10 samples, got {n}")
    sample_mean = float(x.mean())
    sample_std = float(x.std(ddof=1))
    if sample_std == 0.0:
        raise ValueError("mixture fit is degenerate: all samples are equal")
    u = (x - sample_mean) / sample_std
    u2 = u * u
    totals = (float(u.sum()), float(u2.sum()))

    starts = np.empty((restarts, 2))
    for k in range(restarts):
        i = int(rng.uniform() * n)
        j = int(rng.uniform() * n)
        while j == i:
            j = int(rng.uniform() * n)
        starts[k] = u[i], u[j]

    rows = max(1, _BLOCK_SAMPLES // n)
    blocks = [
        _fit_block(u, u2, totals, starts[lo : lo + rows], max_iter, tol)
        for lo in range(0, restarts, rows)
    ]
    theta, ll_u, iterations, converged = (np.concatenate(part, axis=-1) for part in zip(*blocks))
    ll = ll_u - n * math.log(sample_std)  # back to the density of x in bytes
    summary = tuple(
        EmRestart(int(it), float(value), bool(ok))
        for it, value, ok in zip(iterations, ll, converged)
    )
    best = int(np.argmax(ll))  # first maximum: ties keep the earliest restart

    w0, mu0, mu1, sigma0, sigma1 = theta[:, best]
    w = (w0, 1.0 - w0)
    mu = (sample_mean + sample_std * mu0, sample_mean + sample_std * mu1)
    sigma = (sample_std * sigma0, sample_std * sigma1)
    hi, lo = (0, 1) if mu[0] >= mu[1] else (1, 0)
    params = Gmm2Params(
        w_hi=float(w[hi]),
        mu_hi=float(mu[hi]),
        sigma_hi=float(sigma[hi]),
        mu_lo=float(mu[lo]),
        sigma_lo=float(sigma[lo]),
    )
    return Gmm2Fit(
        params=params,
        log_likelihood=summary[best].log_likelihood,
        n_iterations=summary[best].iterations,
        converged=summary[best].converged,
        restarts=summary,
    )


def fit_linear_through_origin(points, weights=None) -> float:
    """Weighted least-squares slope with the intercept forced to zero."""
    pts = list(points)
    if not pts:
        raise ValueError("linear fit needs at least one point")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    denom = float((w * x * x).sum())
    if denom <= 0.0:
        raise ValueError("linear fit through the origin needs a non-zero abscissa")
    return float((w * x * y).sum() / denom)


def fit_power_law(points, weights=None) -> tuple[float, float]:
    """Fit y = coeff * x**exp by weighted least squares in log-log space."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError(f"power-law fit needs at least 2 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs strictly positive coordinates")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    lx, ly = np.log(x), np.log(y)
    wsum = float(w.sum())
    mx = float((w * lx).sum() / wsum)
    my = float((w * ly).sum() / wsum)
    sxx = float((w * (lx - mx) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("power-law fit needs at least two distinct abscissae")
    exponent = float((w * (lx - mx) * (ly - my)).sum() / sxx)
    coeff = math.exp(my - exponent * mx)
    return coeff, exponent


@dataclass
class GroupFit:
    """Per-(rate, fps) fit results feeding the pooled regressions."""

    rate_bps: float
    fps: float
    n_frames: int
    mean_frame_size: float  # empirical mean, bytes
    gmm: Gmm2Fit
    ifi: LogisticParams
    ifi_std_coeff: float  # (fitted IFI std) * fps
    mean_log_likelihood: float
    weight: float = 0.0

    def to_dict(self) -> dict:
        return {
            "rate_mbps": self.rate_bps / 1e6,
            "fps": self.fps,
            "n_frames": self.n_frames,
            "mean_frame_size_bytes": self.mean_frame_size,
            "gmm": {
                "w_hi": self.gmm.params.w_hi,
                "mu_hi": self.gmm.params.mu_hi,
                "sigma_hi": self.gmm.params.sigma_hi,
                "mu_lo": self.gmm.params.mu_lo,
                "sigma_lo": self.gmm.params.sigma_lo,
                "log_likelihood": self.gmm.log_likelihood,
                "n_iterations": self.gmm.n_iterations,
                "converged": self.gmm.converged,
                "restarts": [asdict(restart) for restart in self.gmm.restarts],
            },
            "ifi": {"mu": self.ifi.mu, "s": self.ifi.s, "std": self.ifi.std},
            "ifi_std_coeff": self.ifi_std_coeff,
            "mean_log_likelihood": self.mean_log_likelihood,
            "weight": self.weight,
        }


@dataclass
class FitReport:
    """Pooled fit over all groups plus the per-group details."""

    groups: list[GroupFit]
    ifi_std_coeff: float
    iframe_mean_slope: float
    pframe_mean_slope: float
    iframe_std_coeff: float
    iframe_std_exp: float
    pframe_std_coeff: float
    pframe_std_exp: float
    weighting: str
    slopes_valid: bool
    constants: VrModelConstants | None

    def to_dict(self) -> dict:
        return {
            "weighting": self.weighting,
            "slopes_valid": self.slopes_valid,
            "pooled": {
                "ifi_std_coeff": self.ifi_std_coeff,
                "iframe_mean_slope": self.iframe_mean_slope,
                "pframe_mean_slope": self.pframe_mean_slope,
                "iframe_std_coeff": self.iframe_std_coeff,
                "iframe_std_exp": self.iframe_std_exp,
                "pframe_std_coeff": self.pframe_std_coeff,
                "pframe_std_exp": self.pframe_std_exp,
            },
            "constants": self.constants.to_dict() if self.constants else None,
            "groups": [g.to_dict() for g in self.groups],
        }

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


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


def group_traces(traces) -> dict[tuple[float, float], TraceFile]:
    """Group traces by the (target_rate_mbps, fps) keys in their metadata.

    Traces sharing a key are concatenated into one group.
    """
    groups: dict[tuple[float, float], TraceFile] = {}
    for trace in traces:
        try:
            rate_bps = float(trace.metadata["target_rate_mbps"]) * 1e6
            fps = float(trace.metadata["fps"])
        except KeyError as exc:
            raise ValueError(
                f"trace metadata is missing the {exc} key needed for grouping "
                "(expected 'target_rate_mbps' and 'fps')"
            ) from None
        key = (rate_bps, fps)
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
) -> FitReport:
    """Fit the full model across (rate, fps) groups.

    ``groups`` maps (target rate in bit/s, frame rate) to the group's trace.
    Regressions run against each group's *empirical* mean frame size, and the
    linear/power-law fits weigh groups by mixture-fit goodness (see
    ``weighting``: 'rank' or 'uniform').
    """
    if len(groups) < 2:
        raise ValueError(f"model fit needs at least 2 (rate, fps) groups, got {len(groups)}")

    fits: list[GroupFit] = []
    for index, key in enumerate(sorted(groups)):
        rate_bps, fps = key
        trace = groups[key]
        sizes = trace.records[:, 0].astype(float)
        ifis = trace.records[:, 1].astype(float) * 1e-9
        gmm = fit_gmm2_em(
            sizes,
            restarts=em_restarts,
            max_iter=em_max_iter,
            tol=em_tol,
            rng=RngStream(seed, index),
        )
        ifi = fit_logistic(ifis)
        fits.append(
            GroupFit(
                rate_bps=rate_bps,
                fps=fps,
                n_frames=len(sizes),
                mean_frame_size=float(sizes.mean()),
                gmm=gmm,
                ifi=ifi,
                ifi_std_coeff=ifi.std * fps,
                mean_log_likelihood=gmm.log_likelihood / len(sizes),
            )
        )

    weights = _goodness_weights([g.mean_log_likelihood for g in fits], weighting)
    for fit, weight in zip(fits, weights):
        fit.weight = float(weight)

    sizes_emp = [g.mean_frame_size for g in fits]
    hi_slope = fit_linear_through_origin(
        zip(sizes_emp, (g.gmm.params.mu_hi for g in fits)), weights
    )
    lo_slope = fit_linear_through_origin(
        zip(sizes_emp, (g.gmm.params.mu_lo for g in fits)), weights
    )
    hi_coeff, hi_exp = fit_power_law(
        list(zip(sizes_emp, (g.gmm.params.sigma_hi for g in fits))), weights
    )
    lo_coeff, lo_exp = fit_power_law(
        list(zip(sizes_emp, (g.gmm.params.sigma_lo for g in fits))), weights
    )
    ifi_coeff = float(np.mean([g.ifi_std_coeff for g in fits]))

    slopes_valid = lo_slope <= 1.0 <= hi_slope
    constants = None
    if slopes_valid:
        constants = VrModelConstants(
            ifi_std_coeff=ifi_coeff,
            iframe_mean_slope=hi_slope,
            pframe_mean_slope=lo_slope,
            iframe_std_coeff=hi_coeff,
            iframe_std_exp=hi_exp,
            pframe_std_coeff=lo_coeff,
            pframe_std_exp=lo_exp,
        )
    return FitReport(
        groups=fits,
        ifi_std_coeff=ifi_coeff,
        iframe_mean_slope=hi_slope,
        pframe_mean_slope=lo_slope,
        iframe_std_coeff=hi_coeff,
        iframe_std_exp=hi_exp,
        pframe_std_coeff=lo_coeff,
        pframe_std_exp=lo_exp,
        weighting=weighting,
        slopes_valid=slopes_valid,
        constants=constants,
    )


__all__ = [
    "EmRestart",
    "FitReport",
    "Gmm2Fit",
    "GroupFit",
    "fit_gmm2_em",
    "fit_linear_through_origin",
    "fit_logistic",
    "fit_power_law",
    "fit_vr_model",
    "group_traces",
]
