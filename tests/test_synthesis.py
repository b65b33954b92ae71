import re

import numpy as np
import pytest

from cvfbm import (
    dft2,
    normalize_dynamic_range,
    radial_spectrum_slope,
    synthesize_cvfbm,
)
from cvfbm.cs import tv
from cvfbm.synthesis import spectral_envelope


class TestSpectralEnvelope:
    def test_unit_radius_gain_is_one(self):
        for h in (0.2, 0.5, 0.8):
            gains = spectral_envelope(h, 8, 8)
            assert gains[0, 1] == pytest.approx(1.0)
            assert gains[1, 0] == pytest.approx(1.0)

    def test_radius_two_at_half(self):
        gains = spectral_envelope(0.5, 8, 8)
        assert gains[0, 2] == pytest.approx(0.25)

    def test_dc_gain_zero(self):
        assert spectral_envelope(0.7, 16, 16)[0, 0] == 0.0

    def test_loglog_fit_recovers_exponent(self):
        h = 0.3
        n = 64
        gains = spectral_envelope(h, n, n)
        wr = np.fft.fftfreq(n, d=1.0 / n)
        w = np.hypot(wr[:, None], wr[None, :])
        keep = (w >= 1) & (w <= n / 4)
        slope = np.polyfit(np.log(w[keep]), np.log(gains[keep]), 1)[0]
        assert slope == pytest.approx(-(2 * h + 1), abs=1e-6)

    def test_negative_frequencies_signed(self):
        # bin N-1 aliases to frequency -1, so its gain matches bin 1
        gains = spectral_envelope(0.6, 16, 16)
        assert gains[0, 15] == pytest.approx(gains[0, 1])
        assert gains[15, 0] == pytest.approx(gains[1, 0])


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_cvfbm(0.6, 16, 16, 42)
        b = synthesize_cvfbm(0.6, 16, 16, 42)
        assert np.array_equal(a, b)

    def test_seed_changes_field(self):
        a = synthesize_cvfbm(0.6, 16, 16, 1)
        b = synthesize_cvfbm(0.6, 16, 16, 2)
        assert not np.array_equal(a, b)

    def test_zero_mean(self):
        f = synthesize_cvfbm(0.5, 32, 32, 3)
        rms = np.sqrt(np.mean(np.abs(f) ** 2))
        assert abs(f.mean()) < 1e-10 * rms

    def test_free_boundary_field_differs(self):
        a = synthesize_cvfbm(0.5, 32, 32, 3, periodic=True)
        b = synthesize_cvfbm(0.5, 32, 32, 3, periodic=False)
        assert a.shape == b.shape == (32, 32)
        assert not np.allclose(a, b)

    def test_slope_tracks_hurst(self):
        # 20-seed mean slope should sit near -(2H+1) for each H
        for h in (0.2, 0.5, 0.8):
            slopes = [
                radial_spectrum_slope(synthesize_cvfbm(h, 64, 64, seed))
                for seed in range(20)
            ]
            assert np.mean(slopes) == pytest.approx(-(2 * h + 1), abs=0.3)

    def test_rougher_for_small_h(self):
        # total variation of |field| at matched RMS: H=0.2 rougher than H=0.8
        tv_low, tv_high = [], []
        for seed in range(10):
            f_low = normalize_dynamic_range(synthesize_cvfbm(0.2, 64, 64, seed), 1.0)
            f_high = normalize_dynamic_range(synthesize_cvfbm(0.8, 64, 64, seed), 1.0)
            tv_low.append(tv(np.abs(f_low) + 0j))
            tv_high.append(tv(np.abs(f_high) + 0j))
        assert np.mean(tv_low) > np.mean(tv_high)

    def test_spectrum_more_concentrated_for_large_h(self):
        def low_band_fraction(field, frac=0.10):
            spec = np.abs(dft2(field)) ** 2
            n = spec.shape[0]
            w = np.fft.fftfreq(n, d=1.0 / n)
            radius = np.hypot(w[:, None], w[None, :]).ravel()
            order = np.argsort(radius, kind="stable")
            k = int(frac * len(order))
            energy = spec.ravel()[order]
            return energy[:k].sum() / energy.sum()

        lo = [low_band_fraction(synthesize_cvfbm(0.2, 64, 64, s)) for s in range(10)]
        hi = [low_band_fraction(synthesize_cvfbm(0.8, 64, 64, s)) for s in range(10)]
        assert np.mean(hi) > np.mean(lo)

    def test_hurst_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            synthesize_cvfbm(0.0, 16, 16, 0)
        with pytest.raises(ValueError):
            synthesize_cvfbm(1.0, 16, 16, 0)

    @pytest.mark.parametrize("make", [synthesize_cvfbm, spectral_envelope], ids=["synthesize", "envelope"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (("0.5", 8, 8), "bad h value '0.5': expected a number"),
            ((True, 8, 8), "bad h value True: expected a number"),
            ((0.5, 8.0, 8), "bad rows value 8.0: expected an integer"),
            ((0.5, 8, 2.5), "bad cols value 2.5: expected an integer"),
            ((0.5, 8, "8"), "bad cols value '8': expected an integer"),
        ],
    )
    def test_arguments_of_another_kind_rejected(self, make, args, message):
        # a string hurst value was parsed, and a float size failed in numpy
        # with a TypeError that named no argument
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(*args, 0) if make is synthesize_cvfbm else make(*args)

    def test_numpy_arguments_accepted(self):
        want = synthesize_cvfbm(0.5, 8, 8, 0)
        assert np.array_equal(synthesize_cvfbm(np.float32(0.5), np.int64(8), np.int32(8), 0), want)


class TestNormalizeDynamicRange:
    def test_scales_to_target(self):
        f = synthesize_cvfbm(0.5, 16, 16, 9)
        out = normalize_dynamic_range(f, 0.05)
        assert np.sqrt(np.mean(np.abs(out) ** 2)) == pytest.approx(0.05, rel=1e-12)

    def test_pure_rescale(self):
        f = np.full((4, 4), 2.0 + 0j)
        out = normalize_dynamic_range(f, 0.05)
        assert np.allclose(out, 0.05)

    def test_idempotent_at_target(self):
        f = synthesize_cvfbm(0.5, 16, 16, 9)
        once = normalize_dynamic_range(f, 0.3)
        twice = normalize_dynamic_range(once, 0.3)
        assert np.allclose(once, twice, rtol=1e-12)

    def test_rmse_scales_with_joint_normalization(self):
        from cvfbm import rmse

        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = a + 0.1 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        scale = 0.05 / np.sqrt(np.mean(np.abs(a) ** 2))
        assert rmse(a * scale, b * scale) == pytest.approx(scale * rmse(a, b), rel=1e-12)

    @pytest.mark.parametrize("target_rms", [float("nan"), float("inf"), -float("inf")])
    def test_target_rms_finite(self, target_rms):
        with pytest.raises(ValueError, match="target_rms must be positive and finite"):
            normalize_dynamic_range(synthesize_cvfbm(0.5, 8, 8, 1), target_rms)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            normalize_dynamic_range(np.zeros((4, 4), dtype=complex), 0.05)

    @pytest.mark.parametrize("target_rms", [True, "0.05", None])
    def test_target_rms_of_another_kind_rejected(self, target_rms):
        # True scaled the field as if the target were 1
        message = f"bad target_rms value {target_rms!r}: expected a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalize_dynamic_range(np.ones((4, 4)), target_rms)
