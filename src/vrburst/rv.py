"""Seedable random-variate streams for the traffic generators.

All randomness flows through :class:`RngStream`, a thin wrapper over a keyed
Philox4x64 counter PRNG. Uniform draws are 53-bit doubles, one per underlying
64-bit word, so a given ``(seed, stream_id)`` reproduces the same uniforms on
any platform. Variates are quantiles of uniforms: one uniform for a logistic
or a normal, two for a mixture draw. The transforms that take a logarithm
follow the platform's ``log`` to its last ulp: the logistic, and the tails
(u <= exp(-2) or u > 1 - exp(-2)) of :func:`ndtri`, the numpy port of Cephes'
inverse normal CDF. Its central region uses only +, -, * and / and is the
same everywhere.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Recorded in metrics/report metadata so runs can be matched to the generator.
RNG_ALGORITHM = "philox4x64/u53/inverse-cdf"

# Smallest uniform we hand out; keeps log(u) and ndtri(u) finite.
_MIN_UNIFORM = 2.0**-53

_U64_MAX = 2**64
_COUNTER_ZERO = np.zeros(4, np.uint64)  # Philox4x64's 256-bit counter


class ParameterError(ValueError):
    """Raised for invalid distribution or stream parameters."""


# --- inverse normal CDF -------------------------------------------------------
#
# Cephes ndtri (S. L. Moshier), the algorithm behind scipy.special.ndtri, with
# its coefficients, branches and evaluation order. Each polynomial pair is a
# (2, 9) table read column by column: the numerator's polevl coefficients
# (zero-padded in front, which leaves Horner's sums exact) over the
# denominator's p1evl ones (with its implicit leading 1).

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)


def _horner_columns(p, q):
    table = np.array([[0.0] * (9 - len(p)) + p, [1.0] + q])
    return [column[:, None] for column in table.T]


# central region, |y - 0.5| < 0.5 - exp(-2)
_CENTRAL = _horner_columns(
    [-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0],
    [1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0],
)  # fmt: skip
# tails with x = sqrt(-2 log y) in [2, 8), i.e. exp(-32) < y <= exp(-2)
_TAIL_NEAR = _horner_columns(
    [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4],
    [1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4],
)  # fmt: skip
# far tails, x >= 8, i.e. y <= exp(-32)
_TAIL_FAR = _horner_columns(
    [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9],
    [6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9],
)  # fmt: skip


def _horner(t, columns):
    """Numerator and denominator at ``t``, as the rows of one (2, n) array."""
    acc = np.empty((2, t.size))
    acc[...] = columns[0]
    for column in columns[1:]:
        np.multiply(acc, t, out=acc)
        np.add(acc, column, out=acc)
    return acc


def ndtri(y):
    """Inverse of the standard normal CDF, elementwise; a float for a scalar.

    Gives -inf at 0, inf at 1 and nan outside [0, 1], as scipy's does. The
    central formula runs on every element and the tail one only on the
    elements outside the central region.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    with np.errstate(all="ignore"):
        v = flat - 0.5
        v2 = v * v
        num, den = _horner(v2, _CENTRAL)
        x = v + v * (v2 * num / den)
        x *= _S2PI
        tail = np.flatnonzero((flat <= _EXP_M2) | (flat > 1.0 - _EXP_M2))
        if tail.size:
            yt = flat[tail]
            upper = yt > 1.0 - _EXP_M2
            yt = np.where(upper, 1.0 - yt, yt)
            r = np.sqrt(-2.0 * np.log(yt))
            x0 = r - np.log(r) / r
            z = 1.0 / r
            acc = _horner(z, _TAIL_NEAR)
            far = np.flatnonzero(r >= 8.0)
            if far.size:
                acc[:, far] = _horner(z[far], _TAIL_FAR)
            xt = x0 - z * acc[0] / acc[1]
            xt[yt == 0.0] = np.inf  # y = 0 or 1, where x0 is inf - inf / inf
            x[tail] = np.where(upper, xt, -xt)
    return x.reshape(y.shape)[()]


class _PhiloxKey:
    """A stream's two key words as numpy's ``ISeedSequence``: Philox4x64 reads its key from
    ``generate_state(2, np.uint64)``, so the words are the key exactly and no OS entropy is
    read. It is registered as one by the first stream, so that importing this module loads no
    ``numpy.random``."""

    __slots__ = ("words",)
    registered = False

    def __init__(self, seed: int, stream_id: int):
        self.words = [seed, stream_id]

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return np.array(self.words, np.uint64)


def _key_word(name: str, value) -> int:
    try:
        word = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= word < _U64_MAX:
        raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {word}")
    return word


class RngStream:
    """Independent, reproducible uniform source.

    Stream ``(seed, stream_id)``, each an integer in [0, 2**64), is Philox4x64
    with the key words ``[seed, stream_id]`` and its counter at 0. Distinct
    ``stream_id`` values under one seed key separate Philox streams, so
    per-station / per-purpose sub-streams never overlap. A stream is
    single-owner: no concurrent draws on one instance.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed, self.stream_id = _key_word("seed", seed), _key_word("stream_id", stream_id)
        if not _PhiloxKey.registered:
            from numpy.random.bit_generator import ISeedSequence

            ISeedSequence.register(_PhiloxKey)
            _PhiloxKey.registered = True
        # an array counter is copied, where an int one is split into words in a Python loop
        philox = np.random.Philox(_PhiloxKey(self.seed, self.stream_id), counter=_COUNTER_ZERO)
        self._gen = np.random.Generator(philox)

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
        return np.maximum(u, _MIN_UNIFORM, out=u)  # a fresh array, clamped in place


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


def logistic_quantile(u, p: LogisticParams):
    """Inverse logistic CDF: mu + s * ln(u / (1 - u)) for u in (0, 1)."""
    uu = np.asarray(u, dtype=float)
    if np.any(uu <= 0.0) or np.any(uu >= 1.0):
        raise ParameterError("quantile argument must lie strictly inside (0, 1)")
    out = p.mu + p.s * np.log(uu / (1.0 - uu))
    return float(out) if np.ndim(u) == 0 else out


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
        if not all(map(math.isfinite, (self.mu_hi, self.sigma_hi, self.mu_lo, self.sigma_lo))):
            raise ParameterError(f"component means and sigmas must be finite, got {self}")
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


def gmm2_nonpositive(p: Gmm2Params, pick, u):
    """Whether each :func:`gmm2_quantile` value is <= 0 (not for a NaN): whether ``u`` is at most
    Phi(-mu / sigma) of its component, but computed where ``u`` is within a relative 1e-9 of that
    threshold, far beyond the rounding of either side, or the threshold is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi, t_lo = (0.5 * math.erfc(np.float64(mu) / (sigma * math.sqrt(2.0)))
                      for mu, sigma in ((p.mu_hi, p.sigma_hi), (p.mu_lo, p.sigma_lo)))
    t = np.where(pick < p.w_hi, t_hi, t_lo)
    out = u <= t
    if (near := ~(np.abs(u - t) > 1e-9 * t)).any():
        out[near] = gmm2_quantile(p, pick[near], u[near]) <= 0.0
    return out


# --- spec distributions used by SimpleBurstGenerator -------------------------


class SpecDist(NamedTuple):
    """A spec distribution: ``quantile`` maps a (n, words) block of uniforms to
    n values, consuming ``words`` uniforms per value."""

    words: int
    quantile: Callable


def dist_from_spec(spec: str) -> SpecDist:
    """Parse a ``name:arg[:arg]`` distribution spec used by CLI flags.

    Supported: ``constant:V``, ``uniform:LO:HI``, ``normal:MU:SIGMA``,
    ``logistic:MU:S``, with finite parameters; ``constant`` reads no uniforms.
    """
    parts = spec.split(":")
    name, args = parts[0].strip().lower(), parts[1:]
    try:
        values = [float(a) for a in args]
    except ValueError as exc:
        raise ParameterError(f"bad distribution spec {spec!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"distribution parameters must be finite, got {spec!r}")
    arities = {"constant": 1, "uniform": 2, "normal": 2, "logistic": 2}
    if name not in arities:
        raise ParameterError(f"unknown distribution {name!r} in spec {spec!r}")
    if len(values) != arities[name]:
        raise ParameterError(f"{name} takes {arities[name]} parameter(s), got {len(values)} in {spec!r}")
    if name == "constant":
        return SpecDist(0, lambda u: np.full(len(u), values[0]))
    a, b = values
    if name == "uniform":
        if b < a:
            raise ParameterError(f"uniform bounds out of order: [{a}, {b}]")
        return SpecDist(1, lambda u: a + (b - a) * u[:, 0])
    if name == "normal":
        if b < 0:
            raise ParameterError(f"sigma must be non-negative, got {b}")
        return SpecDist(1, lambda u: a + b * ndtri(u[:, 0]))
    params = LogisticParams(a, b)
    return SpecDist(1, lambda u: logistic_quantile(u[:, 0], params))
