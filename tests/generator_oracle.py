"""Reference burst generators for differential tests; not used by the package.

These are the per-burst scalar generators that block draws replaced: every
burst walks the stream one ``RngStream.uniform()`` word at a time (2 for a
mixture draw, 2 more for each non-positive redraw, 1 for the interval; 1 per
non-constant spec distribution, size before period), and ``collect_bursts``
is the generation horizon of the old ``vrburst generate``. The code is the
old package code with the scalar branches inlined.
"""

from __future__ import annotations

from scipy.special import ndtri

from vrburst.generator import NS_PER_S, BurstDescriptor
from vrburst.model import DEFAULT_CONSTANTS, DegenerateModelError, derive_frame_size_model, derive_ifi_model
from vrburst.rv import LogisticParams, ParameterError, logistic_quantile

_MAX_FRAME_DRAW_ATTEMPTS = 100


def gmm2_sample(p, rng):
    """One mixture draw: one uniform picks the component, one feeds the normal."""
    pick = rng.uniform()
    u = rng.uniform()
    hi = pick < p.w_hi
    if hi:
        return p.mu_hi + p.sigma_hi * float(ndtri(u))
    return p.mu_lo + p.sigma_lo * float(ndtri(u))


def _draw_positive_frame(gmm, rng, attempts_used: int) -> int:
    for _ in range(attempts_used, _MAX_FRAME_DRAW_ATTEMPTS):
        value = gmm2_sample(gmm, rng)
        if value > 0.0:
            return max(1, int(round(value)))
    raise DegenerateModelError(
        f"frame-size mixture produced {_MAX_FRAME_DRAW_ATTEMPTS} consecutive "
        "non-positive draws; model parameters are degenerate"
    )


def sample_vr_frame(params, constants, rng) -> int:
    return _draw_positive_frame(derive_frame_size_model(params, constants), rng, attempts_used=0)


def sample_vr_ifi(params, constants, rng) -> float:
    value = logistic_quantile(rng.uniform(), derive_ifi_model(params, constants))
    return max(0.0, value)


class ConstantDist:
    def __init__(self, value: float):
        self.value = float(value)

    def sample(self, rng) -> float:
        return self.value


class UniformDist:
    def __init__(self, low: float, high: float):
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng) -> float:
        return self.low + (self.high - self.low) * rng.uniform()


class NormalDist:
    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = float(sigma)

    def sample(self, rng) -> float:
        return self.mu + self.sigma * ndtri(rng.uniform())


class LogisticDist:
    def __init__(self, mu: float, s: float):
        self.params = LogisticParams(mu, s)

    def sample(self, rng) -> float:
        return logistic_quantile(rng.uniform(), self.params)


def dist_from_spec(spec: str):
    name, *args = spec.split(":")
    makers = {"constant": ConstantDist, "uniform": UniformDist, "normal": NormalDist,
              "logistic": LogisticDist}
    if name not in makers:
        raise ParameterError(f"unknown distribution {name!r} in spec {spec!r}")
    return makers[name](*(float(a) for a in args))


class SimpleBurstGenerator:
    def __init__(self, size_dist, period_dist, rng):
        self.size_dist = size_dist
        self.period_dist = period_dist
        self.rng = rng

    def has_next_burst(self) -> bool:
        return True

    def generate_burst(self) -> BurstDescriptor:
        size = max(1, round(self.size_dist.sample(self.rng)))
        period_s = max(0.0, self.period_dist.sample(self.rng))
        return BurstDescriptor(size, round(period_s * NS_PER_S))


class VrBurstGenerator:
    def __init__(self, params, rng, constants=DEFAULT_CONSTANTS):
        self.params = params
        self.constants = constants
        self.rng = rng

    def has_next_burst(self) -> bool:
        return True

    def generate_burst(self) -> BurstDescriptor:
        size = sample_vr_frame(self.params, self.constants, self.rng)
        period_s = sample_vr_ifi(self.params, self.constants, self.rng)
        return BurstDescriptor(size, round(period_s * NS_PER_S))


def collect_bursts(generator, duration_s: float):
    """Bursts whose generation times fall inside [0, duration)."""
    duration_ns = round(duration_s * NS_PER_S)
    elapsed = 0
    records = []
    while elapsed < duration_ns and generator.has_next_burst():
        desc = generator.generate_burst()
        records.append(desc)
        elapsed += max(1, desc.next_period_ns)
    return records
