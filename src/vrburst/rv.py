"""Seedable random-variate streams for the traffic generators.

All randomness flows through :class:`RngStream`, a thin wrapper over a keyed
Philox4x64 counter PRNG. Uniform draws are 53-bit doubles, one per underlying
64-bit word, and every variate here consumes a fixed number of uniforms (one
for a logistic or a normal, two for a mixture draw), so a given
``(seed, stream_id)`` reproduces the same sample sequence on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# Recorded in metrics/report metadata so runs can be matched to the generator.
RNG_ALGORITHM = "philox4x64/u53/inverse-cdf"

# Smallest uniform we hand out; keeps log(u) and ndtri(u) finite.
_MIN_UNIFORM = 2.0**-53

_U64_MAX = 2**64


class ParameterError(ValueError):
    """Raised for invalid distribution or stream parameters."""


class RngStream:
    """Independent, reproducible uniform source.

    Distinct ``stream_id`` values under one seed key separate Philox streams,
    so per-station / per-purpose sub-streams never overlap. A stream is
    single-owner: no concurrent draws on one instance.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= int(seed) < _U64_MAX:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= int(stream_id) < _U64_MAX:
            raise ParameterError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, size: int | None = None):
        """Uniform draw(s) on the open interval (0, 1).

        Returns a float for ``size=None``, else a 1-D array of ``size`` draws
        consuming the same underlying words as ``size`` scalar calls.
        """
        if size is None:
            u = self._gen.random()
            return u if u > 0.0 else _MIN_UNIFORM
        u = self._gen.random(size)
        return np.clip(u, _MIN_UNIFORM, None)

    def normal(self, mu: float = 0.0, sigma: float = 1.0, size: int | None = None):
        """Gaussian draw(s) via the inverse CDF; exactly one uniform each."""
        if sigma < 0:
            raise ParameterError(f"sigma must be non-negative, got {sigma}")
        u = self.uniform(size)
        return mu + sigma * ndtri(u)


@dataclass(frozen=True)
class LogisticParams:
    """Location/scale pair: mean = mu, std = s * pi / sqrt(3).

    ``s == 0`` is the degenerate point mass at ``mu`` (allowed for sampling
    and quantiles; density/CDF evaluation requires ``s > 0``).
    """

    mu: float
    s: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ParameterError(f"location must be finite, got {self.mu}")
        if not (math.isfinite(self.s) and self.s >= 0):
            raise ParameterError(f"scale must be finite and non-negative, got {self.s}")

    @property
    def std(self) -> float:
        return self.s * math.pi / math.sqrt(3.0)


def logistic_pdf(x, p: LogisticParams):
    """Logistic density at ``x`` (scalar or array)."""
    if p.s <= 0:
        raise ParameterError(f"scale must be positive for density evaluation, got {p.s}")
    # sech form keeps the tails finite; cosh may overflow to inf, which
    # correctly maps the density to 0
    z = (np.asarray(x, dtype=float) - p.mu) / p.s
    with np.errstate(over="ignore"):
        out = 0.25 / (p.s * np.cosh(z / 2.0) ** 2)
    return float(out) if np.ndim(x) == 0 else out


def logistic_cdf(x, p: LogisticParams):
    """Logistic CDF at ``x`` (scalar or array)."""
    if p.s <= 0:
        raise ParameterError(f"scale must be positive for CDF evaluation, got {p.s}")
    z = (np.asarray(x, dtype=float) - p.mu) / p.s
    out = 0.5 * (1.0 + np.tanh(z / 2.0))
    return float(out) if np.ndim(x) == 0 else out


def logistic_quantile(u, p: LogisticParams):
    """Inverse logistic CDF: mu + s * ln(u / (1 - u)) for u in (0, 1)."""
    uu = np.asarray(u, dtype=float)
    if np.any(uu <= 0.0) or np.any(uu >= 1.0):
        raise ParameterError("quantile argument must lie strictly inside (0, 1)")
    out = p.mu + p.s * np.log(uu / (1.0 - uu))
    return float(out) if np.ndim(u) == 0 else out


def logistic_sample(p: LogisticParams, rng: RngStream, size: int | None = None):
    """Logistic draw(s) by inverse-transform sampling; one uniform per draw."""
    return logistic_quantile(rng.uniform(size), p)


@dataclass(frozen=True)
class Gmm2Params:
    """Two-component univariate Gaussian mixture.

    The high-mean component carries weight ``w_hi``; ``mu_hi >= mu_lo`` is
    required so components keep a stable identity. Zero sigmas degenerate to
    point masses.
    """

    w_hi: float
    mu_hi: float
    sigma_hi: float
    mu_lo: float
    sigma_lo: float

    def __post_init__(self):
        if not 0.0 <= self.w_hi <= 1.0:
            raise ParameterError(f"component weight must lie in [0, 1], got {self.w_hi}")
        if self.sigma_hi < 0 or self.sigma_lo < 0:
            raise ParameterError("component sigmas must be non-negative")
        if self.mu_hi < self.mu_lo:
            raise ParameterError(
                f"high-mean component must not lie below the low-mean one "
                f"({self.mu_hi} < {self.mu_lo})"
            )

    @property
    def mean(self) -> float:
        return self.w_hi * self.mu_hi + (1.0 - self.w_hi) * self.mu_lo


def gmm2_quantile(p: Gmm2Params, pick, u):
    """Mixture value(s) from uniform pairs: ``pick < w_hi`` selects the high
    component and ``u`` feeds that component's inverse normal CDF."""
    z = ndtri(u)
    return np.where(pick < p.w_hi, p.mu_hi + p.sigma_hi * z, p.mu_lo + p.sigma_lo * z)


def gmm2_sample(p: Gmm2Params, rng: RngStream, size: int, with_components: bool = False):
    """``size`` mixture draws from ``size`` (component, normal) uniform pairs.

    With ``with_components=True`` also returns the high-component indicators.
    """
    u = rng.uniform(2 * size).reshape(size, 2)
    values = gmm2_quantile(p, u[:, 0], u[:, 1])
    return (values, u[:, 0] < p.w_hi) if with_components else values


# --- spec distributions used by SimpleBurstGenerator -------------------------
#
# Each maps a (n, words) block of uniforms to n values with ``quantile``,
# consuming ``words`` uniforms per value.


class ConstantDist:
    """Always returns the same value; consumes no uniforms."""

    words = 0

    def __init__(self, value: float):
        self.value = float(value)

    def quantile(self, u):
        return np.full(len(u), self.value)


class UniformDist:
    words = 1

    def __init__(self, low: float, high: float):
        if high < low:
            raise ParameterError(f"uniform bounds out of order: [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def quantile(self, u):
        return self.low + (self.high - self.low) * u[:, 0]


class NormalDist:
    words = 1

    def __init__(self, mu: float, sigma: float):
        if sigma < 0:
            raise ParameterError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def quantile(self, u):
        return self.mu + self.sigma * ndtri(u[:, 0])


class LogisticDist:
    words = 1

    def __init__(self, mu: float, s: float):
        self.params = LogisticParams(mu, s)

    def quantile(self, u):
        return logistic_quantile(u[:, 0], self.params)


def dist_from_spec(spec: str):
    """Parse a ``name:arg[:arg]`` distribution spec used by CLI flags.

    Supported: ``constant:V``, ``uniform:LO:HI``, ``normal:MU:SIGMA``,
    ``logistic:MU:S``.
    """
    parts = spec.split(":")
    name, args = parts[0].strip().lower(), parts[1:]
    try:
        values = [float(a) for a in args]
    except ValueError as exc:
        raise ParameterError(f"bad distribution spec {spec!r}: {exc}") from None
    makers = {
        "constant": (1, ConstantDist),
        "uniform": (2, UniformDist),
        "normal": (2, NormalDist),
        "logistic": (2, LogisticDist),
    }
    if name not in makers:
        raise ParameterError(f"unknown distribution {name!r} in spec {spec!r}")
    arity, maker = makers[name]
    if len(values) != arity:
        raise ParameterError(f"{name} takes {arity} parameter(s), got {len(values)} in {spec!r}")
    return maker(*values)


__all__ = [
    "ConstantDist",
    "Gmm2Params",
    "LogisticDist",
    "LogisticParams",
    "NormalDist",
    "ParameterError",
    "RNG_ALGORITHM",
    "RngStream",
    "UniformDist",
    "dist_from_spec",
    "gmm2_quantile",
    "gmm2_sample",
    "logistic_cdf",
    "logistic_pdf",
    "logistic_quantile",
    "logistic_sample",
]
