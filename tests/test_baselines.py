"""Boxcar averaging and thin-plate smoothing spline reconstructions."""

import importlib
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cvfbm
from cvfbm import baselines
from cvfbm import (
    BoxcarConfig,
    SampleSet,
    ThinPlateConfig,
    boxcar_reconstruct,
    random_mask,
    subsample,
    synthesize_cvfbm,
    thin_plate_coefficients,
    thin_plate_reconstruct,
    write_samples_csv,
)
from cvfbm.baselines import default_smoothing_p


def make_samples(rows, cols, positions, values):
    return SampleSet(
        rows=rows,
        cols=cols,
        positions=np.asarray(positions, dtype=np.int64),
        values=np.asarray(values, dtype=complex),
    )


def random_field(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


class TestBoxcar:
    def test_full_sampling_window_one_is_identity(self):
        f = random_field(5, 5, seed=1)
        s = subsample(f, random_mask(5, 5, 25, seed=0))
        out = boxcar_reconstruct(s, BoxcarConfig(window=1, range_adjust="none"))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_single_sample_floods_grid(self):
        z = 1.5 - 2.0j
        s = make_samples(6, 6, [[2, 3]], [z])
        out = boxcar_reconstruct(s, BoxcarConfig(window=3, range_adjust="none"))
        assert np.allclose(out, z)

    def test_two_corner_samples_hand_values(self):
        # 3x3 grid, samples at (0,0)=1 and (2,2)=3, window 3:
        # the center window sees both samples, the corner windows see one
        s = make_samples(3, 3, [[0, 0], [2, 2]], [1.0, 3.0])
        out = boxcar_reconstruct(s, BoxcarConfig(window=3, range_adjust="none"))
        assert out[1, 1] == pytest.approx(2.0)
        assert out[0, 0] == pytest.approx(1.0)
        assert out[2, 2] == pytest.approx(3.0)
        assert out[0, 1] == pytest.approx(1.0)

    def test_window_grows_until_samples_found(self):
        # an 11x11 grid with one far-away sample: every window eventually sees it
        s = make_samples(11, 11, [[0, 0], [0, 1]], [2.0, 4.0])
        out = boxcar_reconstruct(s, BoxcarConfig(window=3, range_adjust="none"))
        assert np.all(np.isfinite(out))
        assert out[10, 10] == pytest.approx(3.0)

    def test_values_stay_in_convex_hull(self):
        f = random_field(10, 10, seed=2)
        s = subsample(f, random_mask(10, 10, 30, seed=1))
        out = boxcar_reconstruct(s, BoxcarConfig(window=5, range_adjust="none"))
        assert out.real.max() <= s.values.real.max() + 1e-12
        assert out.real.min() >= s.values.real.min() - 1e-12
        assert out.imag.max() <= s.values.imag.max() + 1e-12
        assert out.imag.min() >= s.values.imag.min() - 1e-12

    def test_linear_in_sample_values(self):
        pos = random_mask(8, 8, 20, seed=3)
        f1 = random_field(8, 8, seed=4)
        f2 = random_field(8, 8, seed=5)
        alpha = 2.0 - 0.5j
        cfg = BoxcarConfig(window=3, range_adjust="none")
        a = boxcar_reconstruct(subsample(f1 * alpha + f2, pos), cfg)
        b = alpha * boxcar_reconstruct(subsample(f1, pos), cfg) + boxcar_reconstruct(
            subsample(f2, pos), cfg
        )
        assert np.max(np.abs(a - b)) < 1e-8

    def test_affine_adjustment_fixes_scale_shift(self):
        # truth is an affine image of the boxcar prediction, so the adjusted
        # reconstruction matches the known values at the sample positions
        f = random_field(12, 12, seed=6)
        pos = random_mask(12, 12, 60, seed=7)
        s = subsample(f, pos)
        plain = boxcar_reconstruct(s, BoxcarConfig(window=5, range_adjust="none"))
        adjusted = boxcar_reconstruct(s, BoxcarConfig(window=5, range_adjust="affine"))
        def sample_rss(field):
            return np.linalg.norm(field[pos[:, 0], pos[:, 1]] - s.values)
        assert sample_rss(adjusted) <= sample_rss(plain) + 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            BoxcarConfig(window=4)

    def test_empty_samples_rejected(self):
        s = make_samples(4, 4, np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            boxcar_reconstruct(s, BoxcarConfig())


def padded_box_reference(samples, cfg):
    """Reference boxcar: a freshly padded summed-area table for every window size."""

    def box_sums(img, w):
        r = (w - 1) // 2
        padded = np.pad(img, ((r + 1, r), (r + 1, r)))
        c = np.cumsum(np.cumsum(padded, axis=0), axis=1)
        return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]

    count_img = np.zeros((samples.rows, samples.cols))
    value_img = np.zeros((samples.rows, samples.cols), dtype=np.complex128)
    r, c = samples.positions[:, 0], samples.positions[:, 1]
    count_img[r, c] = 1.0
    value_img[r, c] = samples.values
    w = cfg.window
    counts = box_sums(count_img, w)
    totals = box_sums(value_img, w)
    out = np.where(counts > 0.5, totals / np.maximum(counts, 1.0), 0.0 + 0.0j)
    empty = counts < 0.5
    while empty.any():
        w += 2
        counts = box_sums(count_img, w)
        totals = box_sums(value_img, w)
        fill = empty & (counts > 0.5)
        out[fill] = (totals / np.maximum(counts, 1.0))[fill]
        empty &= counts < 0.5
    if cfg.range_adjust == "affine":
        pred = out[r, c]
        design = np.stack([pred, np.ones_like(pred)], axis=1)
        coef, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
        out = coef[0] * out + coef[1]
    return out


def chebyshev_window_mean(samples, window):
    """Reference boxcar without range adjustment, one cell at a time."""
    pos = samples.positions
    out = np.empty((samples.rows, samples.cols), dtype=np.complex128)
    for i in range(samples.rows):
        for j in range(samples.cols):
            d = np.maximum(np.abs(pos[:, 0] - i), np.abs(pos[:, 1] - j))
            out[i, j] = samples.values[d <= max((window - 1) // 2, d.min())].mean()
    return out


def random_samples(rows, cols, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return make_samples(rows, cols, random_mask(rows, cols, n, seed=seed), values)


class TestBoxcarSummedAreaTable:
    @pytest.mark.parametrize("range_adjust", ["none", "affine"])
    @pytest.mark.parametrize("window", [1, 3, 11, 21])
    @pytest.mark.parametrize("rows, cols", [(1, 9), (5, 7), (37, 91), (128, 40)])
    def test_bit_identical_to_padded_reference(self, rows, cols, window, range_adjust):
        cfg = BoxcarConfig(window=window, range_adjust=range_adjust)
        for n in sorted({max(1, rows * cols // 64), max(1, rows * cols // 8)}):
            s = random_samples(rows, cols, n, seed=rows + n)
            out = boxcar_reconstruct(s, cfg)
            assert np.array_equal(out.view(float), padded_box_reference(s, cfg).view(float))

    @pytest.mark.parametrize("range_adjust", ["none", "affine"])
    def test_single_sample_regrowing_many_times(self, range_adjust):
        # window 1 around one sample: the far corner is filled at half-width 87
        s = make_samples(37, 91, [[30, 3]], [0.25 - 1.5j])
        cfg = BoxcarConfig(window=1, range_adjust=range_adjust)
        out = boxcar_reconstruct(s, cfg)
        assert np.array_equal(out.view(float), padded_box_reference(s, cfg).view(float))

    @pytest.mark.parametrize("window", [1, 3, 5, 31])
    def test_matches_chebyshev_window_mean(self, window):
        s = random_samples(9, 12, 6, seed=window)
        out = boxcar_reconstruct(s, BoxcarConfig(window=window, range_adjust="none"))
        assert np.allclose(out, chebyshev_window_mean(s, window), rtol=1e-12, atol=1e-12)

    def test_window_wider_than_grid_costs_a_grid_wide_one(self):
        s = random_samples(40, 40, 50, seed=8)

        def traced_fit(window):
            cfg = BoxcarConfig(window=window)
            boxcar_reconstruct(s, cfg)  # not traced: one-time allocations
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = boxcar_reconstruct(s, cfg)
                return out, tracemalloc.get_traced_memory()[1] - base
            finally:
                if started:
                    tracemalloc.stop()

        wide, wide_peak = traced_fit(1001)
        grid_wide, grid_wide_peak = traced_fit(81)
        assert np.array_equal(wide.view(float), grid_wide.view(float))
        assert wide_peak <= grid_wide_peak + 4096
        # the two tables padded for a grid-wide window hold 121^2 * (8 + 16)
        # bytes, 13x the 41^2 complex prefix table; tables padded for window
        # 1001 would hold 1041^2 * 24 bytes, about 970x
        assert wide_peak < 20 * 41 * 41 * 16


class TestThinPlate:
    def test_interpolates_at_p_one(self):
        f = random_field(10, 10, seed=8)
        pos = random_mask(10, 10, 25, seed=9)
        s = subsample(f, pos)
        out = thin_plate_reconstruct(s, ThinPlateConfig(p=1.0))
        at_samples = out[pos[:, 0], pos[:, 1]]
        assert np.max(np.abs(at_samples - s.values)) < 1e-8 * max(
            1.0, np.max(np.abs(s.values))
        )

    def test_constant_samples_give_constant_field(self):
        z = 0.7 + 0.1j
        pos = random_mask(8, 8, 12, seed=10)
        s = make_samples(8, 8, pos, np.full(12, z))
        for p in (1.0, 0.5, 0.1):
            out = thin_plate_reconstruct(s, ThinPlateConfig(p=p))
            assert np.max(np.abs(out - z)) < 1e-8

    @pytest.mark.parametrize("p", [1.0, 0.9, 0.5, 0.1])
    def test_plane_reproduced_exactly(self, p):
        pos = random_mask(9, 9, 20, seed=11)
        vals = 2.0 * pos[:, 1] + 3.0 * pos[:, 0] + 1.0
        s = make_samples(9, 9, pos, vals.astype(complex))
        out = thin_plate_reconstruct(s, ThinPlateConfig(p=p))
        cc, rr = np.meshgrid(np.arange(9), np.arange(9))
        plane = (2.0 * cc + 3.0 * rr + 1.0).astype(complex)
        assert np.max(np.abs(out - plane)) < 1e-8

    def test_side_conditions_hold(self):
        f = random_field(12, 12, seed=12)
        pos = random_mask(12, 12, 30, seed=13)
        s = subsample(f, pos)
        c, d, p = thin_plate_coefficients(s, ThinPlateConfig())
        scale = max(1.0, np.max(np.abs(c)))
        assert abs(c.sum()) < 1e-8 * scale
        assert abs((c * pos[:, 1]).sum()) < 1e-8 * scale * 12
        assert abs((c * pos[:, 0]).sum()) < 1e-8 * scale * 12

    def test_roughness_decreases_with_p(self):
        # smaller p weights the roughness penalty more, so the fitted surface
        # can only get smoother
        f = random_field(16, 16, seed=14)
        pos = random_mask(16, 16, 60, seed=15)
        s = subsample(f, pos)

        def roughness(field):
            fxx = np.diff(field, 2, axis=1)[:-2, :]
            fyy = np.diff(field, 2, axis=0)[:, :-2]
            fxy = np.diff(np.diff(field, 1, axis=0), 1, axis=1)[:-1, :-1]
            return float(
                np.sum(np.abs(fxx) ** 2) + 2 * np.sum(np.abs(fxy) ** 2) + np.sum(np.abs(fyy) ** 2)
            )

        values = [
            roughness(thin_plate_reconstruct(s, ThinPlateConfig(p=p)))
            for p in (1.0, 0.9, 0.5, 0.1)
        ]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    def test_linear_in_sample_values(self):
        pos = random_mask(10, 10, 25, seed=16)
        f1 = random_field(10, 10, seed=17)
        f2 = random_field(10, 10, seed=18)
        alpha = 1.0 + 2.0j
        cfg = ThinPlateConfig(p=0.7)
        a = thin_plate_reconstruct(subsample(f1 * alpha + f2, pos), cfg)
        b = alpha * thin_plate_reconstruct(subsample(f1, pos), cfg) + thin_plate_reconstruct(
            subsample(f2, pos), cfg
        )
        assert np.max(np.abs(a - b)) < 1e-8

    def test_collinear_positions_rejected(self):
        s = make_samples(6, 6, [[0, 0], [1, 1], [2, 2], [3, 3]], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            thin_plate_reconstruct(s, ThinPlateConfig(p=1.0))

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ThinPlateConfig(p=0.0)
        with pytest.raises(ValueError):
            ThinPlateConfig(p=1.5)

    def test_default_p_in_range(self):
        pos = random_mask(20, 20, 50, seed=19)
        p = default_smoothing_p(pos)
        assert 0.0 < p <= 1.0


def dense_thin_plate_field(samples, c, d):
    """Reference evaluation: phi of every grid-to-sample distance, summed densely."""
    pts = samples.positions.astype(float)
    gr, gc = np.mgrid[0 : samples.rows, 0 : samples.cols]
    grid = np.stack([gr.ravel(), gc.ravel()], axis=1).astype(float)
    out = np.empty(len(grid), dtype=np.complex128)
    step = max(1, 2_000_000 // len(pts))
    for start in range(0, len(grid), step):
        block = grid[start : start + step]
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        out[start : start + step] = baselines._phi(d2) @ c + d[0] + block @ d[1:]
    return out.reshape(samples.rows, samples.cols)


def phi_matrix(samples, out):
    """phi(|x_i - x_j|^2) for every pair of sample positions, by the fit's offset-table lookup."""
    row, col = samples.positions.astype(np.intp).T
    idx = np.empty(out.shape, dtype=np.intp)
    table = baselines._phi_table(samples.rows, samples.cols).ravel()
    return baselines._phi_block(table, samples.cols, row, col, row, col, idx, np.empty_like(idx), out)


def brute_force_smoothing_p(positions):
    """Reference heuristic: nearest-neighbour spacing from the full distance matrix."""
    pts = np.asarray(positions, dtype=float)
    if len(pts) < 2:
        return 1.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    h = float(np.mean(np.sqrt(d2.min(axis=1))))
    return 1.0 / (1.0 + h**3 / 6.0)


class TestThinPlateFastPaths:
    @pytest.mark.parametrize("rows, cols, n", [(100, 100, 2000), (64, 200, 1500)])
    def test_fft_evaluation_matches_dense_sum(self, rows, cols, n, monkeypatch):
        # CV-fBm samples, the data the campaigns hand to the thin-plate fit
        field = synthesize_cvfbm(0.8, rows, cols, 3)
        s = subsample(field, random_mask(rows, cols, n, seed=4))
        c, d, p = thin_plate_coefficients(s, ThinPlateConfig())
        monkeypatch.setattr(baselines, "thin_plate_coefficients", lambda samples, cfg: (c, d, p))
        fast = thin_plate_reconstruct(s)
        ref = dense_thin_plate_field(s, c, d)
        rms = np.sqrt(np.mean(np.abs(ref) ** 2))
        assert np.max(np.abs(fast - ref)) <= 1e-9 * rms

    def test_system_matrix_equals_phi_of_squared_distances(self):
        s = make_samples(7, 11, random_mask(7, 11, 30, seed=5), np.ones(30))
        r, c = s.positions[:, 0], s.positions[:, 1]
        d2 = ((s.positions[:, None, :] - s.positions[None, :, :]).astype(float) ** 2).sum(-1)
        table = baselines._phi_table(s.rows, s.cols)
        assert np.array_equal(table[np.abs(r[:, None] - r), np.abs(c[:, None] - c)], baselines._phi(d2))
        # the lookup writes into a strided block of a larger matrix
        system = np.full((33, 33), np.nan)
        phi_matrix(s, system[:30, :30])
        assert np.array_equal(system[:30, :30], baselines._phi(d2))
        assert np.isnan(system[30:]).all() and np.isnan(system[:, 30:]).all()

    @pytest.mark.parametrize("rows, cols", [(4, 4000), (4000, 4)])
    def test_system_matrix_on_elongated_grid(self, rows, cols):
        # samples spread to the far corners: offsets up to the full grid extent
        pos = random_mask(rows, cols, 60, seed=6)
        pos[:2] = [[0, 0], [rows - 1, cols - 1]]
        pos = np.unique(pos, axis=0)
        s = make_samples(rows, cols, pos, np.ones(len(pos)))
        d2 = ((s.positions[:, None, :] - s.positions[None, :, :]).astype(float) ** 2).sum(-1)
        out = np.empty((len(pos), len(pos)))
        phi_matrix(s, out)
        assert np.array_equal(out, baselines._phi(d2))

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (40, 2), (500, 3), (2000, 4)])
    def test_default_p_equals_brute_force(self, n, seed):
        pos = random_mask(100, 100, n, seed=seed)
        assert default_smoothing_p(pos) == brute_force_smoothing_p(pos)

    def test_default_p_with_tied_nearest_distances(self):
        # a lattice: every point has two to four neighbours at the same distance
        rr, cc = np.meshgrid(np.arange(0, 20, 2), np.arange(1, 30, 3), indexing="ij")
        pos = np.stack([rr.ravel(), cc.ravel()], axis=1)
        assert default_smoothing_p(pos) == brute_force_smoothing_p(pos)

    # With the shipped block size 2**15 entries, a block holds 25 rows at
    # n = 1299..1301 and more than n rows at n = 150.
    @pytest.mark.parametrize("n, rows_left", [(1299, 24), (1300, 0), (1301, 1), (150, 150)])
    def test_blocked_builds_equal_full_matrix(self, n, rows_left):
        assert n % baselines._block_rows(n) == rows_left
        s = make_samples(100, 100, random_mask(100, 100, n, seed=n), np.ones(n))
        d2 = ((s.positions[:, None, :] - s.positions[None, :, :]).astype(float) ** 2).sum(-1)
        out = np.empty((n, n))
        phi_matrix(s, out)
        assert np.array_equal(out, baselines._phi(d2))
        assert default_smoothing_p(s.positions) == brute_force_smoothing_p(s.positions)
        # off-grid positions, where the squared distances are not integers
        pts = np.random.default_rng(n).uniform(0.0, 60.0, size=(n, 2))
        assert default_smoothing_p(pts) == brute_force_smoothing_p(pts)

    def test_fit_peak_memory_is_about_one_system(self):
        n = 2000
        s = subsample(synthesize_cvfbm(0.8, 100, 100, 3), random_mask(100, 100, n, seed=4))
        # a small fit first, so one-time setup on a first fit is not counted
        thin_plate_coefficients(subsample(synthesize_cvfbm(0.8, 16, 16, 1), random_mask(16, 16, 40, seed=1)))
        baselines.clear_system_memo()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            thin_plate_coefficients(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 1.25 * 8 * (n + 3) ** 2

    def test_fit_peak_memory_is_about_half_a_system(self):
        # the reduced system is packed in m(m+1)/2 floats, m = n - 3
        n = 2000
        s = subsample(synthesize_cvfbm(0.8, 100, 100, 3), random_mask(100, 100, n, seed=4))
        # a small fit first, so one-time setup on a first fit is not counted
        thin_plate_coefficients(subsample(synthesize_cvfbm(0.8, 16, 16, 1), random_mask(16, 16, 40, seed=1)))
        baselines.clear_system_memo()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            thin_plate_coefficients(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
            baselines.clear_system_memo()
        assert peak <= 0.6 * 8 * (n + 3) ** 2

    def test_refit_on_new_positions_reuses_system_memory(self):
        # a fit on other positions of the same n rebuilds the system in the
        # memory of the factor it replaces, so it allocates no new matrix
        n = 2000
        f = synthesize_cvfbm(0.8, 100, 100, 3)
        baselines.clear_system_memo()
        thin_plate_coefficients(subsample(f, random_mask(100, 100, n, seed=4)))
        s = subsample(f, random_mask(100, 100, n, seed=5))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            thin_plate_coefficients(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
            baselines.clear_system_memo()
        assert peak <= 0.25 * 8 * (n + 3) ** 2

    def test_reconstruct_peak_memory_is_about_one_factor(self):
        # a fresh fit's work buffers and the in-place FFT evaluation each stay
        # under three 2*rows x 2*cols complex arrays beside the held factor
        n, rows, cols = 2000, 100, 100
        s = subsample(synthesize_cvfbm(0.8, rows, cols, 3), random_mask(rows, cols, n, seed=4))
        thin_plate_reconstruct(subsample(synthesize_cvfbm(0.8, 16, 16, 1), random_mask(16, 16, 40, seed=1)))
        baselines.clear_system_memo()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            thin_plate_reconstruct(s)
            peak = tracemalloc.get_traced_memory()[1] - base
            factor = baselines._SYSTEM_BUFFER.nbytes
        finally:
            if started:
                tracemalloc.stop()
            baselines.clear_system_memo()
        grid = np.dtype(np.complex128).itemsize * (2 * rows) * (2 * cols)
        assert factor >= 8 * (n - 3) * (n - 2) // 2
        assert peak <= factor + 3 * grid

    def test_import_does_not_load_scipy_spatial(self, tmp_path):
        src = str(Path(cvfbm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        code = f"import sys, cvfbm; print({loaded})"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
        # a thin-plate fit needs numpy only
        code = (
            "import sys, cvfbm; "
            "f = cvfbm.synthesize_cvfbm(0.8, 16, 16, 1); "
            "cvfbm.thin_plate_reconstruct(cvfbm.subsample(f, cvfbm.random_mask(16, 16, 40, seed=1))); "
            f"print({loaded})"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
        # and so does `cvfbm recon --method tp`
        samples = tmp_path / "s.csv"
        f = synthesize_cvfbm(0.8, 16, 16, 1)
        write_samples_csv(samples, subsample(f, random_mask(16, 16, 40, seed=1)))
        argv = ["recon", "--samples", str(samples), "--rows", "16", "--cols", "16", "--method", "tp"]
        argv += ["--out", str(tmp_path / "r.cvf")]
        code = f"import sys; from cvfbm.cli import main; code = main({argv!r}); print(code, {loaded})"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []"
        assert (tmp_path / "r.cvf").exists()
        # with every scipy import made to raise, the package, both star
        # profiles, a thin-plate fit and `cvfbm star` still run
        code = (
            "import sys; sys.modules['scipy'] = None; import cvfbm; from cvfbm.cli import main; "
            "[cvfbm.render_star(cvfbm.RadialProfile(kind), 0.1, -0.2, 15) for kind in ('gaussian', 'moffat')]; "
            "f = cvfbm.synthesize_cvfbm(0.8, 16, 16, 1); "
            "cvfbm.thin_plate_reconstruct(cvfbm.subsample(f, cvfbm.random_mask(16, 16, 40, seed=1))); "
            "sys.exit(main(['star', '--profile', 'moffat', '--e1', '0.1']))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_package_exports_the_module_lists(self):
        names = ("baselines", "cs", "fileio", "grid", "harness", "metrics", "psf", "sampling", "synthesis")
        modules = [importlib.import_module(f"cvfbm.{name}") for name in names]
        assert len(cvfbm.__all__) == len(set(cvfbm.__all__))
        assert set(cvfbm.__all__) == {n for m in modules for n in m.__all__}
        # the public surface, pinned: a name joins it only by editing this list
        assert sorted(cvfbm.__all__) == [
            "BoxcarConfig", "EqualitySolverConfig", "EvalReport", "ExperimentSpec", "MeasurementOperator",
            "MomentTensor", "RadialProfile", "ResultRow", "SampleSet", "SynthesisOptions", "ThinPlateConfig",
            "TwistConfig", "boxcar_reconstruct", "bp_reconstruct", "brightness_moments",
            "compressibility_diagnostics", "derive_seed", "dft2", "ellipticity_from_moments", "evaluate", "idft2",
            "mean_table", "normalize_dynamic_range", "psf_radius", "radial_spectrum_slope", "random_mask",
            "read_cvf1", "read_samples_csv", "render_star", "rmse", "run_table1", "run_table2", "shear_coords",
            "snr_db", "spec_from_json", "spec_to_json", "subsample", "synthesize_cvfbm", "table1_spec",
            "table2_spec", "thin_plate_coefficients", "thin_plate_reconstruct", "tv_equality_reconstruct",
            "twist_reconstruct", "write_cvf1", "write_mask_csv", "write_mean_csv", "write_pgm",
            "write_results_csv", "write_samples_csv",
        ]
        for module in modules:
            for name in module.__all__:
                obj = getattr(cvfbm, name)
                assert obj is getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    # defined where it is listed, not re-exported from another module
                    assert obj.__module__ == module.__name__, name


def assert_same_bits(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


class TestThinPlateMemo:
    @pytest.fixture
    def samples(self):
        field = synthesize_cvfbm(0.7, 40, 40, 1)
        return subsample(field, random_mask(40, 40, 300, seed=2))

    def fresh(self, samples, cfg=ThinPlateConfig()):
        baselines._SYSTEM_MEMO.clear()
        return thin_plate_coefficients(samples, cfg)

    def test_hit_equals_miss(self, samples):
        miss = self.fresh(samples)
        hit = thin_plate_coefficients(samples)
        assert_same_bits(hit, miss)
        other = SampleSet(samples.rows, samples.cols, samples.positions, samples.values[::-1] * 2j)
        hit = thin_plate_coefficients(other)
        assert_same_bits(hit, self.fresh(other))

    @pytest.mark.parametrize("change", ["p", "grid", "permuted"])
    def test_changed_key_gives_fresh_result(self, samples, change):
        changed, cfg = samples, ThinPlateConfig()
        if change == "p":
            cfg = ThinPlateConfig(p=0.9)
        elif change == "grid":
            changed = SampleSet(60, 50, samples.positions, samples.values)
        else:
            order = np.random.default_rng(3).permutation(len(samples))
            changed = SampleSet(samples.rows, samples.cols, samples.positions[order], samples.values[order])
        expected = self.fresh(changed, cfg)
        self.fresh(samples)  # the memo now holds the unchanged system
        assert_same_bits(thin_plate_coefficients(changed, cfg), expected)

    def test_singular_system_raises_value_error(self, monkeypatch):
        # with phi replaced by zero and p = 1 the system is [[0, P], [P^T, 0]],
        # rank 6 < n + 3: its reduced matrix Z^T 0 Z is zero, so the Cholesky
        # factor of its first diagonal block fails at the first pivot
        monkeypatch.setattr(baselines, "_phi", np.zeros_like)
        monkeypatch.setattr(baselines, "_SYSTEM_MEMO", {})
        s = make_samples(4, 4, [[0, 0], [0, 1], [1, 0], [1, 1], [2, 3]], np.ones(5))
        with pytest.raises(ValueError, match="singular"):
            thin_plate_coefficients(s, ThinPlateConfig(p=1.0))


def dense_saddle_point_solve(samples, p):
    """Reference: np.linalg.solve of the full (n+3) x (n+3) spline system."""
    n = len(samples)
    pts = samples.positions.astype(float)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    poly = np.column_stack([np.ones(n), pts])
    system = np.block([[baselines._phi(d2) + (1.0 - p) / p * np.eye(n), poly], [poly.T, np.zeros((3, 3))]])
    rhs = np.zeros((n + 3, 2))
    rhs[:n, 0], rhs[:n, 1] = samples.values.real, samples.values.imag
    sol = np.linalg.solve(system, rhs)
    coef = sol[:, 0] + 1j * sol[:, 1]
    return coef[:n], coef[n:]


class TestThinPlateReducedSystem:
    # n - 3 = 1297 spans two row chunks of the factor's panel product and
    # trailing update; there the coefficients differ by about 2.5e-10, as
    # they do with LAPACK's packed Cholesky in place of the blocked one. On
    # the elongated grids at p = 1 the full system itself is ill-conditioned
    @pytest.mark.parametrize(
        "rows, cols, n, p, tol",
        [
            (30, 30, 3, None, 1e-12),
            (30, 30, 4, None, 1e-12),
            (30, 30, 53, None, 1e-10),
            (30, 30, 54, 0.5, 1e-10),
            (30, 30, 200, 1.0, 1e-10),
            (100, 100, 1300, None, 1e-9),
            (4, 4000, 300, 1.0, 1e-6),
            (4000, 4, 300, 1.0, 1e-6),
        ],
    )
    def test_matches_dense_saddle_point_solve(self, rows, cols, n, p, tol):
        s = subsample(synthesize_cvfbm(0.7, rows, cols, 1), random_mask(rows, cols, n, seed=n))
        cfg = ThinPlateConfig(p=p)
        c, d, p_used = thin_plate_coefficients(s, cfg)
        c_ref, d_ref = dense_saddle_point_solve(s, p_used)
        if n == 3:
            assert not c.any()  # three samples fix a plane and no kernel part
        else:
            assert np.max(np.abs(c - c_ref)) <= tol * np.max(np.abs(c_ref))
        ref = dense_thin_plate_field(s, c_ref, d_ref)
        rms = np.sqrt(np.mean(np.abs(ref) ** 2))
        assert np.max(np.abs(thin_plate_reconstruct(s, cfg) - ref)) <= tol * rms

    # m = n - 3 = 1, 2, 37, 38, just below, at and just above one and two
    # block-column widths, and 342: one row more than a fill chunk
    @pytest.mark.parametrize("n", [4, 5, 40, 41, 66, 67, 68, 131, 132, 345])
    def test_packed_assembly_equals_dense_reduced_matrix(self, n, monkeypatch):
        filled = []
        factor = baselines._cholesky

        def capture(blocks):
            filled.append([blk.copy() for blk in blocks])
            return factor(blocks)

        monkeypatch.setattr(baselines, "_cholesky", capture)
        monkeypatch.setattr(baselines, "_SYSTEM_MEMO", {})
        s = subsample(synthesize_cvfbm(0.7, 20, 20, 1), random_mask(20, 20, n, seed=n))
        cfg = ThinPlateConfig(p=1.0 / (1.0 + 0.25 + 1e-3))  # (1 - p)/p = 0.25 + 1e-3
        thin_plate_coefficients(s, cfg)
        _, order, null, _, blocks = baselines._SYSTEM_MEMO[next(iter(baselines._SYSTEM_MEMO))]
        m = n - 3
        pts = s.positions[order].astype(float)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        a = baselines._phi(d2) + (0.25 + 1e-3) * np.eye(n)
        z = np.vstack([np.eye(m), null])
        poly = np.column_stack([np.ones(n), pts])
        assert np.max(np.abs(poly.T @ z)) <= 1e-12 * np.max(np.abs(poly))
        dense = z.T @ a @ z
        assert len(filled) == 1
        assert [blk.shape for blk in filled[0]] == [
            (m - j, min(baselines._PANEL, m - j)) for j in range(0, m, baselines._PANEL)
        ]
        lower, factor_l = np.zeros((m, m)), np.zeros((m, m))
        for j, blk, done in zip(range(0, m, baselines._PANEL), filled[0], blocks):
            w = blk.shape[1]
            lower[j:, j : j + w] = blk
            factor_l[j:, j : j + w] = done
            # the diagonal block holds the inverse of the factor's block
            factor_l[j : j + w, j : j + w] = np.linalg.inv(done[:w])
        assert np.max(np.abs(np.tril(lower) - np.tril(dense))) <= 1e-13 * np.max(np.abs(dense))
        factor_l = np.tril(factor_l)
        assert np.max(np.abs(factor_l @ factor_l.T - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("rows, cols, n", [(30, 30, 50), (100, 100, 2000), (4, 4000, 300), (4000, 4, 300)])
    def test_anchors_are_extreme_and_weights_bounded(self, rows, cols, n):
        pos = random_mask(rows, cols, n, seed=n)
        i1, i2, i3 = baselines._anchors(pos)
        s = pos.sum(axis=1)
        assert s[i1] == s.min() and s[i2] == s.max()
        rel = pos - pos[i1]
        cross = rel[:, 0] * rel[i2, 1] - rel[:, 1] * rel[i2, 0]
        assert abs(cross[i3]) == np.abs(cross).max()
        # the barycentric weights of every position in the anchors' triangle
        poly = np.column_stack([np.ones(n), pos])
        weights = np.linalg.solve(poly[[i1, i2, i3]].T, poly.T)
        assert np.abs(weights).max() <= 4.0 + 1e-12

    @pytest.mark.parametrize(
        "positions",
        [
            [[0, 0], [1, 1], [2, 2], [3, 3]],
            [[2, 0], [2, 3], [2, 5], [2, 1]],
            [[0, 4], [5, 4], [3, 4]],
            [[0, 5], [5, 0], [2, 3], [4, 1], [1, 4]],  # row + col constant
            [[0, 0], [1, 2], [3, 6], [2, 4], [5, 10]],
        ],
    )
    def test_exactly_collinear_positions_rejected(self, positions):
        s = make_samples(12, 12, positions, np.arange(len(positions), dtype=float))
        with pytest.raises(ValueError, match="collinear"):
            thin_plate_coefficients(s, ThinPlateConfig(p=1.0))

    @pytest.mark.parametrize(
        "rows, cols, positions",
        [
            # a triangle of area 1/2, the least a grid triangle can have
            (1001, 1001, [[t, t] for t in range(10)] + [[1000, 999]]),
            (2, 2000, [[0, c] for c in range(0, 2000, 50)] + [[1, 1000]]),
        ],
    )
    def test_thin_triangle_solves(self, rows, cols, positions):
        pos = np.asarray(positions)
        values = np.random.default_rng(len(pos)).normal(size=(len(pos), 2)) @ [1.0, 1.0j]
        s = make_samples(rows, cols, pos, values)
        c, d, _ = thin_plate_coefficients(s, ThinPlateConfig(p=1.0))
        c_ref, d_ref = dense_saddle_point_solve(s, 1.0)
        assert np.max(np.abs(c - c_ref)) <= 1e-6 * np.max(np.abs(c_ref))
        out = thin_plate_reconstruct(s, ThinPlateConfig(p=1.0))
        assert np.max(np.abs(out[pos[:, 0], pos[:, 1]] - values)) <= 1e-7

    @pytest.mark.parametrize("n", [3, 4, 53, 54])
    def test_hit_equals_miss_at_every_size(self, n):
        s = subsample(synthesize_cvfbm(0.7, 30, 30, 2), random_mask(30, 30, n, seed=n))
        baselines._SYSTEM_MEMO.clear()
        miss = thin_plate_coefficients(s)
        assert_same_bits(thin_plate_coefficients(s), miss)
        other = SampleSet(s.rows, s.cols, s.positions, s.values[::-1] * 2j)
        hit = thin_plate_coefficients(other)
        baselines._SYSTEM_MEMO.clear()
        assert_same_bits(hit, thin_plate_coefficients(other))
