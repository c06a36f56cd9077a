import json

import numpy as np
import pytest

from vrburst.generator import sample_vr_frame, sample_vr_ifi
from vrburst.model import (
    DEFAULT_CONSTANTS,
    DegenerateModelError,
    VrModelConstants,
    VrStreamParams,
    derive_frame_size_model,
    derive_ifi_model,
)
from vrburst.rv import ParameterError, RngStream


def stream(rate_mbps, fps):
    return VrStreamParams(rate_mbps * 1e6, fps)


class TestStreamParams:
    def test_mean_frame_size(self):
        assert stream(50, 60).mean_frame_size == pytest.approx(50e6 / (8 * 60))

    @pytest.mark.parametrize("rate,fps", [(0, 60), (-1, 60), (50e6, 0), (50e6, -30)])
    def test_rejects_non_positive(self, rate, fps):
        with pytest.raises(ParameterError):
            VrStreamParams(rate, fps)


class TestConstants:
    def test_default_weights(self):
        gmm = derive_frame_size_model(stream(50, 60))
        assert gmm.w_hi == pytest.approx(0.36, abs=1e-3)
        assert 1.0 - gmm.w_hi == pytest.approx(0.64, abs=1e-3)

    def test_weight_at_the_low_slope_boundary(self):
        k = VrModelConstants(iframe_mean_slope=1.0, pframe_mean_slope=1.0 - 1e-9)
        assert derive_frame_size_model(stream(50, 60), k).w_hi == 1.0

    def test_weight_of_symmetric_slopes(self):
        k = VrModelConstants(iframe_mean_slope=2.0, pframe_mean_slope=0.0)
        assert derive_frame_size_model(stream(50, 60), k).w_hi == 0.5

    def test_slope_constraint_enforced(self):
        with pytest.raises(ParameterError):
            VrModelConstants(iframe_mean_slope=0.8)
        with pytest.raises(ParameterError):
            VrModelConstants(pframe_mean_slope=1.2)
        with pytest.raises(ParameterError):
            VrModelConstants(iframe_mean_slope=0.9, pframe_mean_slope=0.8)  # hi below 1
        with pytest.raises(ParameterError):
            VrModelConstants(iframe_mean_slope=1.2, pframe_mean_slope=1.1)  # lo above 1

    def test_equal_slopes_leave_weights_undefined(self):
        k = VrModelConstants(iframe_mean_slope=1.0, pframe_mean_slope=1.0)
        with pytest.raises(ParameterError, match="equal"):
            derive_frame_size_model(stream(50, 60), k)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(DEFAULT_CONSTANTS.to_dict()))
        assert VrModelConstants.load_json(path) == DEFAULT_CONSTANTS

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParameterError):
            VrModelConstants.from_dict({"ifi_std_coeff": 0.1, "bogus": 1.0})


class TestIfiModel:
    def test_30fps_location_and_std(self):
        p = derive_ifi_model(stream(50, 30))
        assert p.mu == pytest.approx(1 / 30, rel=1e-12)
        assert p.std == pytest.approx(0.0827 / 30, rel=1e-12)  # 2.757 ms
        assert p.std == pytest.approx(2.757e-3, rel=1e-3)

    def test_60fps_scale(self):
        p = derive_ifi_model(stream(50, 60))
        assert p.std == pytest.approx(1.3783e-3, rel=1e-3)
        assert p.s == pytest.approx(0.7600e-3, rel=1e-3)  # std * sqrt(3)/pi

    def test_std_halves_when_fps_doubles(self):
        assert derive_ifi_model(stream(50, 60)).std == derive_ifi_model(stream(50, 30)).std / 2


class TestFrameSizeModel:
    def test_sigma_units_are_bytes(self):
        # byte-valued S must reproduce the fitted power-law values
        params = VrStreamParams(22836 * 8 * 60.0, 60)  # S = 22836 B
        gmm = derive_frame_size_model(params)
        assert 4750 <= gmm.sigma_lo <= 4850
        assert 8200 <= gmm.sigma_hi <= 8300

    def test_low_component_mean_endpoint(self):
        params = VrStreamParams(205372 * 8 * 60.0, 60)  # S = 205372 B
        gmm = derive_frame_size_model(params)
        assert gmm.mu_lo == pytest.approx(184_993, rel=1e-3)

    @pytest.mark.parametrize("rate,fps", [(10, 30), (25, 60), (50, 60), (3, 90), (200, 120)])
    def test_mixture_mean_equals_ideal_size(self, rate, fps):
        params = stream(rate, fps)
        gmm = derive_frame_size_model(params)
        assert gmm.mean == pytest.approx(params.mean_frame_size, rel=1e-12)

    def test_weights_do_not_depend_on_size(self):
        w1 = derive_frame_size_model(stream(10, 60)).w_hi
        w2 = derive_frame_size_model(stream(100, 60)).w_hi
        assert w1 == w2

    def test_mean_ratio_is_slope_ratio(self):
        k = DEFAULT_CONSTANTS
        for rate in (10, 50, 500):
            gmm = derive_frame_size_model(stream(rate, 60))
            assert gmm.mu_hi / gmm.mu_lo == pytest.approx(
                k.iframe_mean_slope / k.pframe_mean_slope, rel=1e-12
            )

    def test_equal_slopes_raise(self):
        k = VrModelConstants(iframe_mean_slope=1.0, pframe_mean_slope=1.0)
        with pytest.raises(ParameterError):
            derive_frame_size_model(stream(50, 60), k)


class TestSampleVrFrame:
    @pytest.mark.parametrize("rate,fps", [(50, 60), (10, 30), (30, 90)])
    def test_mean_tracks_ideal_size(self, rate, fps):
        params = stream(rate, fps)
        sizes = sample_vr_frame(params, DEFAULT_CONSTANTS, RngStream(40), size=200_000)
        assert sizes.mean() == pytest.approx(params.mean_frame_size, rel=0.01)

    def test_draws_are_positive_integers(self):
        sizes = sample_vr_frame(stream(1, 30), DEFAULT_CONSTANTS, RngStream(41), size=50_000)
        assert sizes.dtype.kind == "i"
        assert sizes.min() >= 1

    def test_point_mass_low_component(self):
        # zero sigmas and lo_slope = 1 give w_hi = 0: every draw is round(S)
        k = VrModelConstants(
            iframe_mean_slope=1.5,
            pframe_mean_slope=1.0,
            iframe_std_coeff=0.0,
            pframe_std_coeff=0.0,
        )
        params = stream(50, 60)
        sizes = sample_vr_frame(params, k, RngStream(42), size=1000)
        assert np.all(sizes == round(params.mean_frame_size))

    def test_degenerate_model_errors_after_100_draws(self):
        # lo component draws exactly 0 (always rejected) and carries virtually
        # all of the weight, so 100 attempts fail before a hi draw shows up
        k = VrModelConstants(
            iframe_mean_slope=1e9,
            pframe_mean_slope=0.0,
            iframe_std_coeff=0.0,
            pframe_std_coeff=0.0,
        )
        with pytest.raises(DegenerateModelError):
            sample_vr_frame(stream(50, 60), k, RngStream(43), size=1)


class TestSampleVrIfi:
    def test_mean_is_frame_period(self):
        xs = sample_vr_ifi(stream(50, 30), DEFAULT_CONSTANTS, RngStream(50), size=1_000_000)
        assert xs.mean() == pytest.approx(1 / 30, rel=0.005)

    def test_std_follows_inverse_law(self):
        xs = sample_vr_ifi(stream(50, 60), DEFAULT_CONSTANTS, RngStream(51), size=1_000_000)
        assert xs.std(ddof=1) == pytest.approx(1.3783e-3, rel=0.02)

    def test_never_negative(self):
        # an absurdly noisy scale forces clamping to kick in
        k = VrModelConstants(ifi_std_coeff=10.0)
        xs = sample_vr_ifi(stream(50, 60), k, RngStream(52), size=20_000)
        assert xs.min() >= 0.0

    def test_zero_coeff_is_exact_period(self):
        k = VrModelConstants(ifi_std_coeff=0.0)
        xs = sample_vr_ifi(stream(50, 60), k, RngStream(53), size=1000)
        assert np.all(xs == round(1e9 / 60) / 1e9)  # periods are whole ns
