"""VR stream parameterization.

Maps a (target data rate, frame rate) pair onto the two distributions that
drive a VR video source:

* inter-frame intervals: Logistic with mean ``1/frame_rate`` and standard
  deviation ``ifi_std_coeff / frame_rate``;
* frame sizes: a two-component Gaussian mixture around the ideal mean frame
  size ``S = rate / (8 * fps)``, the large component modeling intra-coded
  frames and the small one predicted frames.

:class:`vrburst.generator.VrBurstGenerator` draws bursts from them.

UNITS: every frame-size expression here works in BYTES. In particular the
power laws ``sigma = coeff * S**exp`` expect ``S`` in bytes and produce
sigmas in bytes; feeding kilobytes silently produces garbage sigmas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .rv import Gmm2Params, LogisticParams, ParameterError


class DegenerateModelError(ValueError):
    """The frame-size mixture keeps producing non-positive sizes."""


@dataclass(frozen=True)
class VrModelConstants:
    """Fitted constants tying the per-stream distributions to (rate, fps).

    ``ifi_std_coeff`` has units of seconds*fps; the IFI standard deviation at
    frame rate F is ``ifi_std_coeff / F``. The mean slopes are dimensionless
    multipliers of the ideal frame size S; the std coefficient/exponent pairs
    define ``sigma(S) = coeff * S**exp`` with S and sigma in bytes.
    """

    ifi_std_coeff: float = 0.0827
    iframe_mean_slope: float = 1.1764
    pframe_mean_slope: float = 0.9008
    iframe_std_coeff: float = 26.2065
    iframe_std_exp: float = 0.5730
    pframe_std_coeff: float = 9.0399
    pframe_std_exp: float = 0.6251

    def __post_init__(self):
        if self.ifi_std_coeff < 0:
            raise ParameterError(f"ifi_std_coeff must be non-negative, got {self.ifi_std_coeff}")
        # slopes must straddle 1 or the mixture weights leave [0, 1]
        if not self.pframe_mean_slope <= 1.0 <= self.iframe_mean_slope:
            raise ParameterError(
                "mean slopes must satisfy pframe_mean_slope <= 1 <= iframe_mean_slope, got "
                f"{self.pframe_mean_slope} / {self.iframe_mean_slope}"
            )
        if self.iframe_std_coeff < 0 or self.pframe_std_coeff < 0:
            raise ParameterError("std coefficients must be non-negative")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "VrModelConstants":
        if not isinstance(data, dict) or not all(isinstance(v, (int, float, str)) for v in data.values()):
            raise ParameterError(f"model constants must be an object of numbers, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ParameterError(f"unknown model constant(s): {sorted(extra)}")
        return cls(**{k: float(v) for k, v in data.items()})

    @classmethod
    def load_json(cls, path) -> "VrModelConstants":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


DEFAULT_CONSTANTS = VrModelConstants()


@dataclass(frozen=True)
class VrStreamParams:
    """One stream's configuration: target data rate (bit/s) and frame rate (fps)."""

    target_rate_bps: float
    frame_rate: float

    def __post_init__(self):
        if not (math.isfinite(self.target_rate_bps) and self.target_rate_bps > 0):
            raise ParameterError(f"target rate must be positive, got {self.target_rate_bps}")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise ParameterError(f"frame rate must be positive, got {self.frame_rate}")

    @property
    def mean_frame_size(self) -> float:
        """Ideal mean frame size in bytes: rate / (8 * fps)."""
        return self.target_rate_bps / (8.0 * self.frame_rate)


def derive_ifi_model(params: VrStreamParams, constants: VrModelConstants = DEFAULT_CONSTANTS) -> LogisticParams:
    """Logistic inter-frame-interval parameters for a stream.

    Mean is the frame period 1/F; the std follows the inverse law coeff/F,
    converted to the logistic scale via std = s*pi/sqrt(3).
    """
    mu = 1.0 / params.frame_rate
    std = constants.ifi_std_coeff / params.frame_rate
    return LogisticParams(mu=mu, s=std * math.sqrt(3.0) / math.pi)


def derive_frame_size_model(params: VrStreamParams, constants: VrModelConstants = DEFAULT_CONSTANTS) -> Gmm2Params:
    """Frame-size mixture for a stream; S in bytes throughout.

    Component means scale linearly with S and sigmas follow power laws; the
    high-component weight (1 - lo_slope) / (hi_slope - lo_slope) is the unique
    choice making the mixture mean exactly S, independent of S.
    """
    s_bytes = params.mean_frame_size
    hi_slope = constants.iframe_mean_slope
    lo_slope = constants.pframe_mean_slope
    if hi_slope == lo_slope:
        raise ParameterError("mean slopes are equal; mixture weights are undefined")
    w_hi = (1.0 - lo_slope) / (hi_slope - lo_slope)
    try:
        sigma_hi = constants.iframe_std_coeff * s_bytes**constants.iframe_std_exp
        sigma_lo = constants.pframe_std_coeff * s_bytes**constants.pframe_std_exp
    except OverflowError:
        raise ParameterError(f"a frame-size sigma power law overflows at S = {s_bytes} bytes") from None
    return Gmm2Params(w_hi=w_hi, mu_hi=hi_slope * s_bytes, sigma_hi=sigma_hi,
                      mu_lo=lo_slope * s_bytes, sigma_lo=sigma_lo)
