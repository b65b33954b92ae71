import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfbm import (
    SampleSet,
    as_field,
    dft2,
    idft2,
    mirror_extend_samples,
    subsample,
    take_quadrant,
)


def mirror_extend(f):
    """Reference reflection of an M x N grid into 2M x 2N, edge not repeated.

    Quadrants: top-left = input, top-right = columns reversed, bottom-left =
    rows reversed, bottom-right = both reversed. ``mirror_extend_samples``
    must agree with it sample by sample.
    """
    f = as_field(f)
    top = np.concatenate([f, f[:, ::-1]], axis=1)
    return np.concatenate([top, top[::-1, :]], axis=0)


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestDft2:
    def test_constant_field_concentrates_at_dc(self):
        f = np.ones((4, 4), dtype=complex)
        spec = dft2(f)
        assert spec[0, 0] == pytest.approx(4.0)
        rest = spec.copy()
        rest[0, 0] = 0
        assert np.max(np.abs(rest)) < 1e-12

    def test_round_trip_recovers_input(self):
        f = random_field(8, 8, seed=1)
        assert np.max(np.abs(idft2(dft2(f)) - f)) < 1e-12

    def test_round_trip_rectangular(self):
        f = random_field(5, 7, seed=2)
        assert np.max(np.abs(idft2(dft2(f)) - f)) < 1e-12

    def test_energy_preserved(self):
        f = random_field(16, 16, seed=3)
        e_before = np.sum(np.abs(f) ** 2)
        e_after = np.sum(np.abs(dft2(f)) ** 2)
        assert e_after == pytest.approx(e_before, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=2, max_value=24),
        cols=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_norm_preserved_any_shape(self, rows, cols, seed):
        f = random_field(rows, cols, seed)
        assert np.linalg.norm(dft2(f)) == pytest.approx(np.linalg.norm(f), rel=1e-10)


class TestIdft2:
    def test_dc_only_spectrum_gives_constant(self):
        spec = np.zeros((6, 6), dtype=complex)
        spec[0, 0] = 3.0 - 1.5j
        f = idft2(spec)
        assert np.allclose(f, (3.0 - 1.5j) / 6.0, atol=1e-14)

    def test_hermitian_spectrum_gives_real_field(self):
        rng = np.random.default_rng(5)
        real_field = rng.normal(size=(8, 8))
        spec = np.fft.fft2(real_field) / 8.0
        assert np.max(np.abs(idft2(spec).imag)) < 1e-12


class TestMirrorExtend:
    def test_single_cell(self):
        z = 2.0 + 3.0j
        out = mirror_extend(np.array([[z]]))
        assert out.shape == (2, 2)
        assert np.all(out == z)

    def test_one_by_two(self):
        a, b = 1.0 + 0j, 2.0 + 1j
        out = mirror_extend(np.array([[a, b]]))
        expected = np.array([[a, b, b, a], [a, b, b, a]])
        assert np.array_equal(out, expected)

    def test_quadrant_round_trip(self):
        f = random_field(5, 9, seed=7)
        assert np.array_equal(take_quadrant(mirror_extend(f)), f)

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
    )
    def test_reflection_symmetry(self, rows, cols):
        f = random_field(rows, cols, seed=rows * 31 + cols)
        out = mirror_extend(f)
        m, n = out.shape
        assert np.array_equal(out, out[:, ::-1])
        assert np.array_equal(out, out[::-1, :])
        assert m == 2 * rows and n == 2 * cols


class TestTakeQuadrant:
    def test_two_by_two(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(take_quadrant(f), np.array([[1.0 + 0j]]))

    def test_constant(self):
        f = np.full((4, 4), 5.0 + 0j)
        out = take_quadrant(f)
        assert out.shape == (2, 2)
        assert np.all(out == 5.0)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            take_quadrant(random_field(3, 4))


class TestSampleSet:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(
                rows=4,
                cols=4,
                positions=np.array([[0, 0], [0, 0]]),
                values=np.array([1.0 + 0j, 2.0 + 0j]),
            )

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(
                rows=4,
                cols=4,
                positions=np.array([[0, 4]]),
                values=np.array([1.0 + 0j]),
            )

    def test_flat_indices_row_major(self):
        s = SampleSet(
            rows=3,
            cols=5,
            positions=np.array([[0, 1], [2, 4]]),
            values=np.array([1.0 + 0j, 2.0 + 0j]),
        )
        assert list(s.flat_indices) == [1, 14]


class TestMirrorExtendSamples:
    def test_corner_sample_maps_to_four_corners(self):
        s = SampleSet(rows=2, cols=2, positions=np.array([[0, 0]]), values=np.array([7.0 + 0j]))
        out = mirror_extend_samples(s)
        assert out.rows == 4 and out.cols == 4
        got = {tuple(p) for p in out.positions}
        assert got == {(0, 0), (0, 3), (3, 0), (3, 3)}
        assert np.all(out.values == 7.0)

    def test_empty_stays_empty(self):
        s = SampleSet(4, 4, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=complex))
        out = mirror_extend_samples(s)
        assert out.positions.shape == (0, 2)
        assert out.rows == 8 and out.cols == 8

    def test_size_quadruples(self):
        f = random_field(4, 6, seed=11)
        pos = np.array([[0, 0], [1, 2], [3, 5]])
        s = subsample(f, pos)
        out = mirror_extend_samples(s)
        assert out.positions.shape[0] == 4 * 3

    def test_values_match_extended_field(self):
        f = random_field(4, 4, seed=13)
        pos = np.array([[0, 1], [2, 3], [3, 0]])
        s = subsample(f, pos)
        big = mirror_extend(f)
        ext = mirror_extend_samples(s)
        direct = subsample(big, ext.positions)
        assert np.array_equal(direct.values, ext.values)


class TestAsField:
    def test_rejects_non_finite(self):
        f = np.ones((3, 3), dtype=complex)
        f[1, 1] = np.nan
        with pytest.raises(ValueError):
            as_field(f)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_field(np.ones(5, dtype=complex))

    def test_any_layout_returned_in_c_order(self):
        f = np.arange(12, dtype=float).reshape(3, 4) * (1 - 2j)
        for a in (f.T, np.asfortranarray(f), f[:, ::2]):
            out = as_field(a)
            assert out.flags.c_contiguous
            assert np.array_equal(out, a)
        assert as_field(f) is f
