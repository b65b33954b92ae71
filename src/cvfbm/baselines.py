"""Baseline interpolators: boxcar window averaging and thin-plate splines."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import SampleSet

__all__ = [
    "BoxcarConfig",
    "boxcar_reconstruct",
    "ThinPlateConfig",
    "thin_plate_reconstruct",
    "thin_plate_coefficients",
    "default_smoothing_p",
]


@dataclass(frozen=True)
class BoxcarConfig:
    window: int = 11
    range_adjust: str = "affine"

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd positive integer")
        if self.range_adjust not in ("none", "affine"):
            raise ValueError(f"unknown range_adjust {self.range_adjust!r}")


def _window_sums(t: np.ndarray, lo_r, hi_r, lo_c, hi_c) -> np.ndarray:
    """Window sums from the corners of a summed-area table t (slices or indices)."""
    return t[hi_r, hi_c] - t[lo_r, hi_c] - t[hi_r, lo_c] + t[lo_r, lo_c]


def boxcar_reconstruct(samples: SampleSet, cfg: BoxcarConfig = BoxcarConfig()) -> np.ndarray:
    """Average the known values inside a window centered on each grid cell.

    Window membership uses Chebyshev distance <= (window-1)/2, clipped at the
    grid borders. Cells whose window holds no samples get the window grown by
    2 until it does. With range_adjust="affine" a complex least-squares map
    a*z + b is fitted from the raw predictions at the sample positions to the
    known values and applied to the whole field.

    The counts and the values each get one summed-area table (Crow 1984),
    padded once for the first window. A growth step reads only the cells still
    empty, at corners clipped to the grid: the same floats a table padded for
    the wider window holds. Padding stops at a half-width of max(rows, cols),
    which spans the grid from every cell, so a wider window costs no more.
    """
    if len(samples) == 0:
        raise ValueError("boxcar needs at least one sample")
    rows, cols = samples.rows, samples.cols
    r, c = samples.positions[:, 0], samples.positions[:, 1]
    h = min((cfg.window - 1) // 2, max(rows, cols))
    w = 2 * h + 1
    tables = []
    for dtype, known in ((np.float64, 1.0), (np.complex128, samples.values)):
        t = np.zeros((rows + w, cols + w), dtype=dtype)
        t[r + h + 1, c + h + 1] = known
        np.cumsum(t, axis=0, out=t)
        np.cumsum(t, axis=1, out=t)
        tables.append(t)
    count_t, value_t = tables

    lo, hi = slice(None, -w), slice(w, None)
    counts = _window_sums(count_t, lo, hi, lo, hi)
    totals = _window_sums(value_t, lo, hi, lo, hi)
    out = np.where(counts > 0.5, totals / np.maximum(counts, 1.0), 0.0 + 0.0j)
    er, ec = np.nonzero(counts < 0.5)
    # the tables' grid part, with one leading zero row and column
    count_t = count_t[h : h + rows + 1, h : h + cols + 1]
    value_t = value_t[h : h + rows + 1, h : h + cols + 1]
    while len(er):
        h += 1
        lo_hi_r = np.maximum(er - h, 0), np.minimum(er + h + 1, rows)
        lo_hi_c = np.maximum(ec - h, 0), np.minimum(ec + h + 1, cols)
        counts = _window_sums(count_t, *lo_hi_r, *lo_hi_c)
        totals = _window_sums(value_t, *lo_hi_r, *lo_hi_c)
        fill = counts > 0.5
        out[er[fill], ec[fill]] = (totals / np.maximum(counts, 1.0))[fill]
        er, ec = er[~fill], ec[~fill]

    if cfg.range_adjust == "affine":
        pred = out[r, c]
        design = np.stack([pred, np.ones_like(pred)], axis=1)
        coef, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
        out = coef[0] * out + coef[1]
    return out


# Pairwise arrays over n samples are built a block of rows at a time, each
# block holding about this many entries (a few MB of buffers at any n).
_BLOCK_ENTRIES = 2**17


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n)


@dataclass(frozen=True)
class ThinPlateConfig:
    # p = 1 interpolates; smaller p trades fit error for surface smoothness.
    # None picks 1 / (1 + h^3/6) from the mean nearest-neighbor spacing h.
    p: float | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be non-negative and finite")


def default_smoothing_p(positions: np.ndarray) -> float:
    """Heuristic p = 1/(1 + h^3/6), h = mean nearest-neighbor spacing."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    if n < 2:
        return 1.0
    step = _block_rows(n)
    d2 = np.empty((step, n))
    dc2 = np.empty((step, n))
    nearest = np.empty(n)
    for a in range(0, n, step):
        b = min(a + step, n)
        blk, tmp = d2[: b - a], dc2[: b - a]
        np.subtract(pts[a:b, None, 0], pts[:, 0], out=blk)
        blk *= blk
        np.subtract(pts[a:b, None, 1], pts[:, 1], out=tmp)
        tmp *= tmp
        blk += tmp
        blk[np.arange(b - a), np.arange(a, b)] = np.inf  # not its own neighbor
        blk.min(axis=1, out=nearest[a:b])
    h = float(np.mean(np.sqrt(nearest)))
    return 1.0 / (1.0 + h**3 / 6.0)


def _phi(d2: np.ndarray) -> np.ndarray:
    """Thin-plate kernel r^2 log r expressed on squared distances, phi(0)=0."""
    out = np.zeros_like(d2)
    nz = d2 > 0
    out[nz] = 0.5 * d2[nz] * np.log(d2[nz])
    return out


def _phi_table(rows: int, cols: int) -> np.ndarray:
    """phi at every grid offset: table[|dr|, |dc|] = phi(dr^2 + dc^2)."""
    dr2 = np.arange(rows, dtype=float) ** 2
    dc2 = np.arange(cols, dtype=float) ** 2
    return _phi(dr2[:, None] + dc2[None, :])


def _phi_matrix(samples: SampleSet, out: np.ndarray) -> np.ndarray:
    """phi(|x_i - x_j|^2) for every pair of sample positions, written to out.

    Looked up in the flattened table of phi over grid offsets, where offset
    (|dr|, |dc|) is entry |dr|*cols + |dc|; the squared offsets are exact
    integers, so the lookup equals phi(d2) exactly. The offsets are formed a
    block of rows at a time, so no n x n temporary sits beside out.
    """
    rows, cols = samples.rows, samples.cols
    row, col = samples.positions.astype(np.intp).T
    table = _phi_table(rows, cols).ravel()
    n = len(row)
    step = _block_rows(n)
    idx = np.empty((step, n), dtype=np.intp)
    dc = np.empty((step, n), dtype=np.intp)
    for a in range(0, n, step):
        b = min(a + step, n)
        blk, tmp = idx[: b - a], dc[: b - a]
        np.subtract(row[a:b, None], row, out=blk)
        np.abs(blk, out=blk)
        blk *= cols
        np.subtract(col[a:b, None], col, out=tmp)
        np.abs(tmp, out=tmp)
        blk += tmp
        np.take(table, blk, out=out[a:b], mode="clip")
    return out


# The mask-only part of the last fit, {key: (p, (lu, piv))}. The campaigns fit
# every hurst value on the same mask, so those fits share one factorization.
_SYSTEM_MEMO: dict = {}
# Flat float64 memory the system is built and factored in, so the memo's lu
# is a view of it. It grows to the largest (n+3)^2 seen and never shrinks:
# a fit on new positions rebuilds its system in the memory of the factor it
# replaces instead of allocating (and later freeing) a fresh matrix.
_SYSTEM_BUFFER = np.empty(0)


def clear_system_memo() -> None:
    """Drop the thin-plate factor kept by thin_plate_coefficients, and its memory."""
    global _SYSTEM_BUFFER
    _SYSTEM_MEMO.clear()
    _SYSTEM_BUFFER = np.empty(0)


def _zeroed_system(size: int) -> np.ndarray:
    """A zero-filled size x size C-ordered matrix in the shared system buffer."""
    global _SYSTEM_BUFFER
    if _SYSTEM_BUFFER.size < size * size:
        _SYSTEM_BUFFER = np.empty(0)  # drop the old buffer before allocating
        _SYSTEM_BUFFER = np.empty(size * size)
    system = _SYSTEM_BUFFER[: size * size].reshape(size, size)
    system.fill(0.0)
    return system


def _factor_system(samples: SampleSet, cfg: ThinPlateConfig):
    """Check the positions, pick p and LU-factor [[K + rho*I, P], [P^T, 0]]."""
    from scipy.linalg import LinAlgWarning, lu_factor

    n = len(samples)
    pts = samples.positions.astype(float)
    # collinearity check via the rank of the polynomial block
    pblock = np.concatenate([np.ones((n, 1)), pts], axis=1)
    if np.linalg.matrix_rank(pblock) < 3:
        raise ValueError("sample positions are collinear")
    p = cfg.p if cfg.p is not None else default_smoothing_p(pts)
    rho = (1.0 - p) / p
    system = _zeroed_system(n + 3)
    _phi_matrix(samples, system[:n, :n])
    np.fill_diagonal(system[:n, :n], rho + cfg.epsilon)
    system[:n, n:] = pblock
    system[n:, :n] = pblock.T
    # the matrix is symmetric, so its transpose is the same matrix as an
    # F-ordered view, which LAPACK factors in place
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(system.T, overwrite_a=True, check_finite=False)
    if not np.diagonal(lu).all():
        raise ValueError("thin-plate system is singular")
    return p, (lu, piv)


def thin_plate_coefficients(samples: SampleSet, cfg: ThinPlateConfig = ThinPlateConfig()):
    """Solve the smoothing-spline system; returns (c, d, p).

    The surface is f(x) = sum_j c_j phi(|x - x_j|) + d0 + d1*row + d2*col
    with [[K + rho*I, P], [P^T, 0]] [c; d] = [values; 0] and rho = (1-p)/p.
    The matrix is real, so one real solve with two right-hand sides (the real
    and imaginary parts of the values) covers both channels. The side
    conditions sum(c) = 0, sum(c*row) = 0, sum(c*col) = 0 are rows of the
    system itself.

    Only the right-hand side depends on the values: the LU factor of the last
    system is kept, keyed by grid, positions (in order), p and epsilon, and a
    fit on the same positions runs only the two-column solve. A hit and a
    miss take the same lu_solve, so both give the same bits. One factor, of
    (n+3)^2 floats, stays cached per process until clear_system_memo() or
    the next fit on other positions, which rebuilds its system in the
    factor's memory. That memory grows to the largest n seen;
    clear_system_memo() frees it.

    That matrix is also the fit's working memory: it is filled a block of rows
    at a time and LU-factored in place, so a fresh fit peaks at about one
    (n+3)^2 float64 array. The fit imports scipy.linalg and no other scipy
    module.
    """
    # imported here: scipy.linalg costs a noticeable share of `import cvfbm`
    from scipy.linalg import lu_solve

    n = len(samples)
    if n < 3:
        raise ValueError("thin-plate fit needs at least 3 samples")
    key = (samples.rows, samples.cols, samples.positions.tobytes(), cfg.p, cfg.epsilon)
    if key not in _SYSTEM_MEMO:
        _SYSTEM_MEMO.clear()  # never hold two systems at once
        _SYSTEM_MEMO[key] = _factor_system(samples, cfg)
    p, factor = _SYSTEM_MEMO[key]
    rhs = np.zeros((n + 3, 2))
    rhs[:n, 0] = samples.values.real
    rhs[:n, 1] = samples.values.imag
    sol = lu_solve(factor, rhs, overwrite_b=True, check_finite=False)
    coef = sol[:, 0] + 1j * sol[:, 1]
    return coef[:n], coef[n:], p


def thin_plate_reconstruct(samples: SampleSet, cfg: ThinPlateConfig = ThinPlateConfig()) -> np.ndarray:
    """Evaluate the fitted smoothing spline on the full grid."""
    c, d, _ = thin_plate_coefficients(samples, cfg)
    rows, cols = samples.rows, samples.cols
    # Samples sit on grid points, so sum_j c_j phi(x - x_j) is the linear
    # convolution of the coefficient image with phi over the offsets
    # (-rows, rows) x (-cols, cols), and phi takes only the rows x cols values
    # of the offset table. On a 2*rows x 2*cols grid the circular convolution
    # of the zero-padded image with the table wrapped to negative offsets
    # (index 2*rows - k holds offset -k) equals that linear one, so one FFT
    # product evaluates the whole grid.
    kernel = np.zeros((2 * rows, 2 * cols))
    table = _phi_table(rows, cols)
    kernel[:rows, :cols] = table
    kernel[rows + 1 :, :cols] = table[:0:-1]
    kernel[:, cols + 1 :] = kernel[:, cols - 1 : 0 : -1]
    coef_img = np.zeros((2 * rows, 2 * cols), dtype=np.complex128)
    coef_img[samples.positions[:, 0], samples.positions[:, 1]] = c
    conv = np.fft.ifft2(np.fft.fft2(coef_img) * np.fft.fft2(kernel))
    gr, gc = np.mgrid[0:rows, 0:cols]
    return conv[:rows, :cols] + (d[0] + d[1] * gr + d[2] * gc)
