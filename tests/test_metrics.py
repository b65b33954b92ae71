import numpy as np
import pytest

from cvfbm import (
    EvalReport,
    dft2,
    evaluate,
    radial_spectrum_slope,
    rmse,
    snr_db,
    synthesize_cvfbm,
)
from cvfbm.metrics import SNR_CAP_DB, mse
from cvfbm.synthesis import spectral_envelope


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestMse:
    def test_identical_fields(self):
        f = random_field(6, 6, seed=1)
        assert mse(f, f) == 0.0

    def test_constant_offset(self):
        f = random_field(6, 6, seed=2)
        c = 0.3 - 0.4j
        assert mse(f, f + c) == pytest.approx(abs(c) ** 2, rel=1e-12)

    def test_hand_arithmetic(self):
        truth = np.array([[0.0, 0.0]], dtype=complex)
        est = np.array([[3.0, 4.0j]])
        assert mse(truth, est) == pytest.approx(12.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(random_field(4, 4), random_field(4, 5))


class TestRmse:
    def test_sqrt_of_mse(self):
        truth = np.array([[0.0, 0.0]], dtype=complex)
        est = np.array([[3.0, 4.0j]])
        assert rmse(truth, est) == pytest.approx(np.sqrt(12.5))

    def test_constant_offset_magnitude(self):
        f = random_field(5, 5, seed=3)
        assert rmse(f, f + (0.6 + 0.8j)) == pytest.approx(1.0, rel=1e-12)

    def test_consistency_with_mse(self):
        a, b = random_field(7, 7, seed=4), random_field(7, 7, seed=5)
        assert rmse(a, b) ** 2 == pytest.approx(mse(a, b), rel=1e-12)

    def test_unitary_transform_invariant(self):
        a, b = random_field(8, 8, seed=6), random_field(8, 8, seed=7)
        assert rmse(a, b) == pytest.approx(rmse(dft2(a), dft2(b)), rel=1e-10)


class TestSnrDb:
    def test_equal_energies_zero_db(self):
        truth = np.ones((4, 4), dtype=complex)
        est = truth + np.ones((4, 4), dtype=complex)
        assert snr_db(truth, est) == pytest.approx(0.0, abs=1e-12)

    def test_hundredth_energy_twenty_db(self):
        truth = np.ones((10, 10), dtype=complex)
        est = truth + 0.1
        value = snr_db(truth, est)
        assert type(value) is float
        assert value == pytest.approx(20.0, abs=1e-10)

    def test_perfect_reconstruction_capped(self):
        f = random_field(4, 4, seed=8)
        assert snr_db(f, f) == SNR_CAP_DB

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.zeros((4, 4), dtype=complex), random_field(4, 4))

    def test_decreases_with_noise_amplitude(self):
        truth = random_field(16, 16, seed=9)
        noise = random_field(16, 16, seed=10)
        values = [snr_db(truth, truth + a * noise) for a in (0.01, 0.1, 1.0)]
        assert values[0] > values[1] > values[2]


class TestEvaluate:
    def test_report_fields_consistent(self):
        a, b = random_field(6, 6, seed=11), random_field(6, 6, seed=12)
        report = evaluate(a, b)
        assert isinstance(report, EvalReport)
        assert report.n_points == 36
        assert report.rmse == pytest.approx(np.sqrt(report.mse), rel=1e-12)
        assert report.snr_db == pytest.approx(snr_db(a, b))


class TestRadialSpectrumSlope:
    def test_forced_flat_noise_recovers_exponent(self):
        # deterministic oracle: spectrum magnitudes equal to the envelope
        for h in (0.3, 0.6):
            from cvfbm import idft2

            gains = spectral_envelope(h, 64, 64)
            rng = np.random.default_rng(13)
            phases = np.exp(2j * np.pi * rng.uniform(size=(64, 64)))
            field = idft2(gains * phases)
            assert radial_spectrum_slope(field) == pytest.approx(-(2 * h + 1), abs=0.02)

    def test_white_noise_flat(self):
        slopes = [radial_spectrum_slope(random_field(64, 64, seed=s)) for s in range(10)]
        assert np.mean(slopes) == pytest.approx(0.0, abs=0.1)

    def test_orders_hurst_values(self):
        lo = np.mean([radial_spectrum_slope(synthesize_cvfbm(0.2, 64, 64, s)) for s in range(10)])
        hi = np.mean([radial_spectrum_slope(synthesize_cvfbm(0.8, 64, 64, s)) for s in range(10)])
        assert hi < lo

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            radial_spectrum_slope(random_field(8, 8))

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError):
            radial_spectrum_slope(np.zeros((16, 16), dtype=complex))
