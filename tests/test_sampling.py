import numpy as np
import pytest

from cvfbm import (
    MeasurementOperator,
    dft2,
    random_mask,
    subsample,
)


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestRandomMask:
    def test_exhaustive_mask_covers_grid(self):
        mask = random_mask(4, 5, 20, seed=0)
        assert {tuple(p) for p in mask} == {(r, c) for r in range(4) for c in range(5)}

    def test_deterministic(self):
        assert np.array_equal(random_mask(10, 10, 30, seed=5), random_mask(10, 10, 30, seed=5))

    def test_distinct_positions(self):
        mask = random_mask(8, 8, 40, seed=1)
        assert len({tuple(p) for p in mask}) == 40

    def test_row_major_order(self):
        mask = random_mask(16, 16, 50, seed=2)
        flat = mask[:, 0] * 16 + mask[:, 1]
        assert np.all(np.diff(flat) > 0)

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            random_mask(4, 4, 0, seed=0)
        with pytest.raises(ValueError):
            random_mask(4, 4, 17, seed=0)

    def test_single_draws_uniform(self):
        # 1e4 single-cell draws on a 10x10 grid: every cell within 4 sigma of 100
        counts = np.zeros((10, 10))
        for seed in range(10_000):
            (r, c), = random_mask(10, 10, 1, seed=seed)
            counts[r, c] += 1
        p = 1.0 / 100.0
        sigma = np.sqrt(10_000 * p * (1 - p))
        assert np.all(np.abs(counts - 100.0) < 4 * sigma)


class TestSubsample:
    def test_full_mask_reproduces_field(self):
        f = random_field(4, 4, seed=3)
        mask = random_mask(4, 4, 16, seed=0)
        s = subsample(f, mask)
        rebuilt = np.zeros_like(f)
        rebuilt[s.positions[:, 0], s.positions[:, 1]] = s.values
        assert np.array_equal(rebuilt, f)

    def test_single_position(self):
        f = random_field(5, 5, seed=4)
        s = subsample(f, np.array([[2, 3]]))
        assert s.values[0] == f[2, 3]

    def test_out_of_bounds_rejected(self):
        f = random_field(4, 4)
        with pytest.raises(ValueError):
            subsample(f, np.array([[4, 0]]))


class TestMeasurementOperator:
    def test_selection_full_mask_flattens(self):
        f = random_field(3, 4, seed=5)
        mask = random_mask(3, 4, 12, seed=0)
        op = MeasurementOperator(3, 4, mask, mode="selection")
        assert np.array_equal(op.forward(f), f[mask[:, 0], mask[:, 1]])

    def test_partial_fourier_picks_spatial_values(self):
        f = random_field(8, 8, seed=6)
        mask = random_mask(8, 8, 20, seed=1)
        op = MeasurementOperator(8, 8, mask, mode="partial_fourier")
        got = op.forward(dft2(f))
        want = subsample(f, mask).values
        assert np.max(np.abs(got - want)) < 1e-12

    def test_selection_adjoint_scatters(self):
        mask = np.array([[0, 1], [2, 2]])
        op = MeasurementOperator(3, 3, mask, mode="selection")
        out = op.adjoint(np.ones(2, dtype=complex))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[2, 2] = 1.0
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("mode", ["selection", "partial_fourier"])
    def test_adjoint_identity(self, mode):
        rng = np.random.default_rng(7)
        mask = random_mask(8, 8, 24, seed=3)
        op = MeasurementOperator(8, 8, mask, mode=mode)
        for _ in range(20):
            x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            y = rng.normal(size=24) + 1j * rng.normal(size=24)
            lhs = np.vdot(y, op.forward(x))
            rhs = np.vdot(op.adjoint(y), x)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("mode", ["selection", "partial_fourier"])
    def test_forward_adjoint_is_identity_on_measurements(self, mode):
        rng = np.random.default_rng(8)
        mask = random_mask(8, 8, 30, seed=4)
        op = MeasurementOperator(8, 8, mask, mode=mode)
        y = rng.normal(size=30) + 1j * rng.normal(size=30)
        assert np.max(np.abs(op.forward(op.adjoint(y)) - y)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        op = MeasurementOperator(4, 4, random_mask(4, 4, 5, seed=0))
        with pytest.raises(ValueError):
            op.forward(random_field(5, 5))
        with pytest.raises(ValueError):
            op.adjoint(np.ones(4, dtype=complex))

