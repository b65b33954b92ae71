import re

import numpy as np
import pytest

from cvfbm import (
    MeasurementOperator,
    SampleSet,
    dft2,
    idft2,
    random_mask,
    subsample,
)
from cvfbm import grid, sampling
from cvfbm.fileio import mask_to_bytes


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
        for n in (-1, 0, 17):
            with pytest.raises(ValueError, match="out of range"):
                random_mask(4, 4, n, seed=0)

    @pytest.mark.parametrize("n_sub", [2.5, 3.0, "3", True, None])
    def test_count_of_another_kind_rejected(self, n_sub):
        # these failed in numpy with a TypeError that named no argument
        with pytest.raises(ValueError, match=f"^bad n_sub value {re.escape(repr(n_sub))}: expected an integer$"):
            random_mask(8, 8, n_sub, seed=0)
        assert np.array_equal(random_mask(8, 8, np.int64(3), seed=0), random_mask(8, 8, 3, seed=0))

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must be non-negative, got -1"),
            (2.0, "bad seed value 2.0: expected an integer"),
            ("3", "bad seed value '3': expected an integer"),
            (None, "bad seed value None: expected an integer"),
        ],
    )
    def test_seed_of_another_kind_rejected(self, seed, message):
        # -1 failed in numpy with an error that named no argument
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_mask(8, 8, 3, seed=seed)
        assert np.array_equal(random_mask(8, 8, 3, seed=np.int64(5)), random_mask(8, 8, 3, seed=5))

    @pytest.mark.parametrize(
        "rows, cols, name",
        [(8.0, 8, "rows"), (8, 8.5, "cols"), (True, 8, "rows"), (-2, -3, "rows"), (0, 0, "rows"), (8, 0, "cols")],
    )
    def test_shape_of_another_kind_rejected(self, rows, cols, name):
        # 8.0 failed in numpy with a TypeError that named no argument, and
        # -2 x -3 drew positions outside any grid
        bad = rows if name == "rows" else cols
        expected = f"{name} must be at least 1, got {bad}"
        if type(bad) is not int:
            expected = f"bad {name} value {bad!r}: expected an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            random_mask(rows, cols, 3, seed=0)
        assert np.array_equal(random_mask(np.int64(8), np.int32(8), 3, seed=0), random_mask(8, 8, 3, seed=0))

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
        with pytest.raises(ValueError, match="out of bounds"):
            subsample(f, np.array([[4, 0]]))

    def test_negative_position_rejected(self):
        # a negative index would otherwise wrap around to the far edge
        with pytest.raises(ValueError, match="out of bounds"):
            subsample(random_field(4, 4), np.array([[0, -1]]))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            subsample(random_field(4, 4), np.array([[1, 1], [1, 1]]))

    def test_empty_mask_gives_empty_samples(self):
        s = subsample(random_field(4, 4), np.zeros((0, 2), dtype=np.int64))
        assert len(s) == 0 and s.positions.shape == (0, 2)

    def test_positions_checked_once(self, monkeypatch):
        # the bounds check and the sort for repeats run once per call
        calls = []
        checked = grid.flat_positions

        def counted(*args):
            calls.append(1)
            return checked(*args)

        monkeypatch.setattr(grid, "flat_positions", counted)
        monkeypatch.setattr(sampling, "flat_positions", counted)
        f = random_field(6, 6)
        s = subsample(f, random_mask(6, 6, 20, seed=1))
        assert len(calls) == 1
        assert np.array_equal(s.values, f[s.positions[:, 0], s.positions[:, 1]])


class TestPositionForm:
    # each of these was read as some other set of positions: the flat list
    # and the (2, n) transpose re-paired, the floats truncated and the bools
    # read as 0 and 1, so A selected other cells than the caller named
    @pytest.mark.parametrize(
        "positions",
        [
            [0, 1, 2, 3, 4, 5],
            np.array([[0, 1], [2, 3], [4, 5]]).T,
            np.array([[2.7, 3.2], [1.0, 0.0]]),
            np.array([[True, False], [False, True]]),
        ],
        ids=["flat-list", "transpose", "float", "bool"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda pos: SampleSet(8, 8, pos, np.ones(np.size(pos) // 2)),
            lambda pos: subsample(np.zeros((8, 8)), pos),
            lambda pos: MeasurementOperator(8, 8, pos),
            mask_to_bytes,
        ],
        ids=["SampleSet", "subsample", "MeasurementOperator", "mask_to_bytes"],
    )
    def test_other_forms_rejected(self, build, positions):
        with pytest.raises(ValueError, match=r"^positions must be integer pairs of shape \(n, 2\), got "):
            build(positions)


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

    @pytest.mark.parametrize("mode", ["selection", "partial_fourier"])
    @pytest.mark.parametrize(
        "mask, message",
        [
            (np.zeros((0, 2), dtype=np.int64), "empty"),
            (np.array([[0, 0], [4, 1]]), "out of bounds"),
            (np.array([[0, 0], [1, -1]]), "out of bounds"),
            (np.array([[2, 3], [0, 0], [2, 3]]), "duplicate"),
        ],
    )
    def test_bad_mask_rejected(self, mode, mask, message):
        with pytest.raises(ValueError, match=message):
            MeasurementOperator(4, 4, mask, mode=mode)

    @pytest.mark.parametrize(
        "rows, cols, name", [(8.5, 8, "rows"), (8, 8.0, "cols"), (8, False, "cols"), (0, 8, "rows"), (8, -1, "cols")]
    )
    def test_shape_of_another_kind_rejected(self, rows, cols, name):
        # int() truncated 8.5 to 8 and built an 8x8 operator; a side below 1
        # was refused only as a position out of bounds
        bad = rows if name == "rows" else cols
        expected = f"{name} must be at least 1, got {bad}"
        if type(bad) is not int:
            expected = f"bad {name} value {bad!r}: expected an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            MeasurementOperator(rows, cols, [[0, 0], [1, 1]])
        op = MeasurementOperator(np.int64(8), np.int16(8), [[0, 0], [1, 1]])
        assert (type(op.rows), type(op.cols)) == (int, int)

    def test_dimension_mismatch_rejected(self):
        op = MeasurementOperator(4, 4, random_mask(4, 4, 5, seed=0))
        with pytest.raises(ValueError):
            op.forward(random_field(5, 5))
        with pytest.raises(ValueError):
            op.adjoint(np.ones(4, dtype=complex))
        # the right number of values in another shape was flattened
        for shape in ((5, 1), (1, 5)):
            with pytest.raises(ValueError, match=re.escape(f"measurement vector of shape {shape}, expected (5,)")):
                op.adjoint(np.ones(shape, dtype=complex))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown operator mode 'dense'$"):
            MeasurementOperator(4, 4, [[0, 0]], mode="dense")


class TestMeasurementOperatorPlainFormulas:
    """forward/adjoint against the formulas they implement, on a 12x20 grid."""

    MODES = ["selection", "partial_fourier"]

    def setup_method(self):
        rng = np.random.default_rng(17)
        self.mask = random_mask(12, 20, 70, seed=9)
        self.x = rng.normal(size=(12, 20)) + 1j * rng.normal(size=(12, 20))
        self.y = rng.normal(size=70) + 1j * rng.normal(size=70)

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_and_adjoint_equal_plain_formulas(self, mode):
        op = MeasurementOperator(12, 20, self.mask, mode=mode)
        rows, cols = self.mask.T
        image = idft2(self.x) if mode == "partial_fourier" else self.x
        assert np.array_equal(op.forward(self.x), image[rows, cols])
        scattered = np.zeros((12, 20), dtype=complex)
        scattered[rows, cols] = self.y
        want = dft2(scattered) if mode == "partial_fourier" else scattered
        assert np.array_equal(op.adjoint(self.y), want)
        strided = np.repeat(self.y, 2)[::2]  # a view with a stride of two values
        assert np.array_equal(op.adjoint(strided), want)

    @pytest.mark.parametrize("mode", MODES)
    def test_results_are_not_shared(self, mode):
        op = MeasurementOperator(12, 20, self.mask, mode=mode)
        first = op.adjoint(self.y)
        want = first.copy()
        first[...] = 7.0
        assert np.array_equal(op.adjoint(self.y), want)
        got = op.forward(self.x)
        want = got.copy()
        got[...] = 7.0
        assert np.array_equal(op.forward(self.x), want)

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_input_rejected(self, mode):
        op = MeasurementOperator(12, 20, self.mask, mode=mode)
        x = self.x.copy()
        x[3, 5] = np.nan
        with pytest.raises(ValueError, match="field contains NaN or Inf"):
            op.forward(x)
        y = self.y.copy()
        y[4] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="field contains NaN or Inf"):
            op.adjoint(y)
