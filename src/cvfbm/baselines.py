"""Baseline interpolators: boxcar window averaging and thin-plate splines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SampleSet, check_fields

__all__ = [
    "BoxcarConfig",
    "boxcar_reconstruct",
    "ThinPlateConfig",
    "thin_plate_reconstruct",
    "thin_plate_coefficients",
]


@dataclass(frozen=True)
class BoxcarConfig:
    window: int = 11
    range_adjust: str = "affine"

    def __post_init__(self):
        check_fields(self)
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
# block holding about this many entries (under 1 MB of buffers at any n).
_BLOCK_ENTRIES = 2**15


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n)


@dataclass(frozen=True)
class ThinPlateConfig:
    # p = 1 interpolates; smaller p trades fit error for surface smoothness.
    # None picks 1 / (1 + h^3/6) from the mean nearest-neighbor spacing h.
    p: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")


def default_smoothing_p(positions: np.ndarray) -> float:
    """Heuristic p = 1/(1 + h^3/6), h = mean nearest-neighbor spacing."""
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    if n < 2:
        return 1.0
    step = _block_rows(n)
    buffers = np.empty((2, step * n))
    nearest = np.full(n, np.inf)
    for a in range(0, n, step):  # rows a..b-1 against positions a.., so each pair once
        b = min(a + step, n)
        blk, tmp = (buf[: (b - a) * (n - a)].reshape(b - a, n - a) for buf in buffers)
        np.subtract(pts[a:b, None, 0], pts[a:, 0], out=blk)
        blk *= blk
        np.subtract(pts[a:b, None, 1], pts[a:, 1], out=tmp)
        tmp *= tmp
        blk += tmp
        blk[np.arange(b - a), np.arange(b - a)] = np.inf  # not its own neighbor
        np.minimum(nearest[a:b], blk.min(axis=1), out=nearest[a:b])
        np.minimum(nearest[a:], blk.min(axis=0), out=nearest[a:])
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


def _phi_block(table, cols, ri, ci, rj, cj, idx, dc, out):
    """phi between positions (ri, ci) and (rj, cj), written to the len(ri) x len(rj) out.

    Looked up in the flattened table of phi over grid offsets, where offset
    (|dr|, |dc|) is entry |dr|*cols + |dc|; the squared offsets are exact
    integers, so the lookup equals phi(d2) exactly. idx and dc are np.intp
    buffers of out's shape.
    """
    np.subtract(ri[:, None], rj, out=idx)
    np.abs(idx, out=idx)
    idx *= cols
    np.subtract(ci[:, None], cj, out=dc)
    np.abs(dc, out=dc)
    idx += dc
    return np.take(table, idx, out=out, mode="clip")


# The mask-only part of the last fit, {key: (p, order, null, anchor_rows,
# factor)}. The campaigns fit every hurst value on the same mask, so those
# fits share one factorization.
_SYSTEM_MEMO: dict = {}
# Flat float64 memory the reduced system is built and factored in, viewed by
# the memo's factor. It only grows (to about half an (n+3)^2 matrix), so a fit
# on new positions builds its system in the memory of the factor it replaces.
_SYSTEM_BUFFER = np.empty(0)
# Width of the system's block columns: wide enough for large products, narrow
# enough that the diagonal blocks' unused upper triangles stay small.
_PANEL = 128


def clear_system_memo() -> None:
    """Drop the thin-plate factor kept by thin_plate_coefficients, and its memory."""
    global _SYSTEM_BUFFER
    _SYSTEM_MEMO.clear()
    _SYSTEM_BUFFER = np.empty(0)


def _anchors(positions: np.ndarray) -> np.ndarray:
    """Three sample indices whose positions span a triangle, found exactly.

    The first two minimize and maximize row + col, the third lies farthest
    from the line through them; the integer cross products are exact. As
    extreme points they give every position barycentric weights of
    magnitude at most 4 in their triangle.
    """
    r, c = positions[:, 0], positions[:, 1]
    i1, i2 = int(np.argmin(r + c)), int(np.argmax(r + c))
    cross = (r - r[i1]) * (c[i2] - c[i1]) - (c - c[i1]) * (r[i2] - r[i1])
    i3 = int(np.argmax(np.abs(cross)))
    if cross[i3] == 0:
        raise ValueError("sample positions are collinear")
    return np.array([i1, i2, i3])


def _reduced_system(table, cols, row, col, diag, left, right) -> list:
    """M = K_rr + diag*I + left @ right as the block columns of its lower triangle.

    row, col are the m non-anchor positions, left is m x 6 and right 6 x m.
    Block column j, a view of the system buffer, holds rows a..m-1 of columns
    a..a+w-1 (a = j*_PANEL, w = min(_PANEL, m - a)), its top w x w being the
    diagonal block; it is filled a chunk of rows at a time.
    """
    global _SYSTEM_BUFFER
    m = len(row)
    sizes = [(m - a) * min(_PANEL, m - a) for a in range(0, m, _PANEL)]
    if _SYSTEM_BUFFER.size < sum(sizes):
        _SYSTEM_BUFFER = np.empty(0)  # drop the old buffer before allocating
        _SYSTEM_BUFFER = np.empty(sum(sizes))
    step = max(1, _BLOCK_ENTRIES // (3 * _PANEL))
    buffers = [np.empty(step * _PANEL, dtype=t) for t in (np.intp, np.intp, float)]
    blocks, end = [], 0
    for a, size in zip(range(0, m, _PANEL), sizes):
        blk = _SYSTEM_BUFFER[end : end + size].reshape(m - a, -1)
        end += size
        w = blk.shape[1]
        for lo in range(0, m - a, step):
            out = blk[lo : lo + step]
            idx, dc, low = (buf[: out.size].reshape(out.shape) for buf in buffers)
            rows = slice(a + lo, a + lo + len(out))
            _phi_block(table, cols, row[rows], col[rows], row[a : a + w], col[a : a + w], idx, dc, out)
            out += np.matmul(left[rows], right[:, a : a + w], out=low)
        blk[np.arange(w), np.arange(w)] += diag
        blocks.append(blk)
    return blocks


def _cholesky(blocks) -> None:
    """Factor M = L L^T in place over its block columns, right-looking: each
    diagonal block becomes the inverse X of its factor, the rows below it
    times X^T give L there, and their outer product is subtracted from the
    later block columns, a chunk of rows at a time through one buffer.
    """
    work = np.empty(_BLOCK_ENTRIES)
    step = _BLOCK_ENTRIES // _PANEL
    for j, blk in enumerate(blocks):
        w = blk.shape[1]
        try:
            blk[:w] = np.tril(np.linalg.inv(np.linalg.cholesky(blk[:w])))
        except np.linalg.LinAlgError:
            raise ValueError("thin-plate system is singular") from None
        panel = blk[w:]
        for lo in range(0, len(panel), step):
            rows = panel[lo : lo + step]
            rows[...] = np.matmul(rows, blk[:w].T, out=work[: rows.size].reshape(rows.shape))
        for k, later in enumerate(blocks[j + 1 :]):
            below = panel[k * _PANEL :]  # the panel's rows of block column j + 1 + k
            for lo in range(0, len(later), step):
                rows = later[lo : lo + step]
                prod = work[: rows.size].reshape(rows.shape)
                rows -= np.matmul(below[lo : lo + step], below[: later.shape[1]].T, out=prod)


def _cholesky_solve(blocks, b: np.ndarray) -> None:
    """Solve L L^T x = b in place, L as _cholesky leaves it; b is m x k."""
    for j, blk in enumerate(blocks):  # L y = b, a block of unknowns at a time
        a, w = j * _PANEL, blk.shape[1]
        b[a : a + w] = blk[:w] @ b[a : a + w]
        b[a + w :] -= blk[w:] @ b[a : a + w]
    for j, blk in reversed(list(enumerate(blocks))):  # then L^T x = y
        a, w = j * _PANEL, blk.shape[1]
        b[a : a + w] -= blk[w:].T @ b[a + w :]
        b[a : a + w] = blk[:w].T @ b[a : a + w]


def _factor_system(samples: SampleSet, cfg: ThinPlateConfig):
    """Check the positions, pick p and factor the reduced spline system.

    Let A = K + rho*I with rho = (1-p)/p, a the three anchors (the last three
    samples of order) and r the other m = n - 3. Every c with P^T c = 0 is
    c = Z c_r with Z = [I; null] and null = -P_a^-T P_r^T, and Z^T P = 0,
    so Z^T A Z c_r = Z^T values. Its matrix
    M = A_rr + U V^T + V U^T + V A_aa V^T (U = A_ra, V = null^T) is
    positive definite, as r^2 log r is conditionally positive definite of
    order 2 (Wahba 1990). Returns (p, order, null, anchor_rows, factor)
    with anchor_rows = A_a (3 x n, columns in order) and factor M's block
    columns, Cholesky-factored in place (none when n = 3).
    """
    n = len(samples)
    m = n - 3
    anchors = _anchors(samples.positions)
    p = cfg.p if cfg.p is not None else default_smoothing_p(samples.positions)
    diag = (1.0 - p) / p
    order = np.concatenate([np.delete(np.arange(n), anchors), anchors])
    row, col = samples.positions[order].astype(np.intp).T
    poly = np.stack([np.ones(n), row, col], axis=1)
    null = -np.linalg.solve(poly[m:].T, poly[:m].T)
    cols = samples.cols
    table = _phi_table(samples.rows, cols).ravel()
    anchor_rows = np.empty((3, n))
    idx = np.empty((3, n), dtype=np.intp)
    _phi_block(table, cols, row[m:], col[m:], row, col, idx, np.empty_like(idx), anchor_rows)
    anchor_rows[:, m:] += diag * np.eye(3)
    # U V^T + V U^T + V A_aa V^T = [U V] [V W]^T with W = U + V A_aa
    u, v = anchor_rows[:, :m].T, null.T
    left = np.concatenate([u, v], axis=1)
    right = np.concatenate([v, u + v @ anchor_rows[:, m:]], axis=1).T
    factor = _reduced_system(table, cols, row[:m], col[:m], diag, left, right)
    _cholesky(factor)
    return p, order, null, anchor_rows, factor


def thin_plate_coefficients(samples: SampleSet, cfg: ThinPlateConfig = ThinPlateConfig()):
    """Solve the smoothing-spline system; returns (c, d, p).

    The surface is f(x) = sum_j c_j phi(|x - x_j|) + d0 + d1*row + d2*col
    with [[K + rho*I, P], [P^T, 0]] [c; d] = [values; 0] and rho = (1-p)/p.
    The side conditions P^T c = 0 are met by construction: c is written over
    a basis of their null space, fixed by three anchor samples, which leaves
    a symmetric positive-definite system of order n - 3 (see _factor_system),
    filled and Cholesky-factored in place in block columns of its lower
    triangle: a fresh fit peaks at about half an (n+3)^2 float64 array, the
    factor, plus work buffers of about _BLOCK_ENTRIES entries each. One
    block forward and back substitution with two right-hand sides (the real
    and imaginary parts of the values) covers both channels.

    The factor of the last system is kept, keyed by grid, positions (in
    order) and p, so a fit on the same positions runs only the
    solve; a hit and a miss take the same solve and give the same bits. It
    stays until clear_system_memo() (which also frees its memory) or the
    next fit on other positions, which builds its system in that memory.
    """
    n = len(samples)
    if n < 3:
        raise ValueError("thin-plate fit needs at least 3 samples")
    key = (samples.rows, samples.cols, samples.positions.tobytes(), cfg.p)
    if key not in _SYSTEM_MEMO:
        _SYSTEM_MEMO.clear()  # never hold two systems at once
        _SYSTEM_MEMO[key] = _factor_system(samples, cfg)
    p, order, null, anchor_rows, factor = _SYSTEM_MEMO[key]
    m = n - 3
    values = samples.values[order]
    y = np.stack([values.real, values.imag], axis=1)
    sol = np.empty((n, 2))
    sol[:m] = y[:m] + null.T @ y[m:]
    _cholesky_solve(factor, sol[:m])
    sol[m:] = null @ sol[:m]
    anchor_poly = np.column_stack([np.ones(3), samples.positions[order[m:]]])
    d = np.linalg.solve(anchor_poly, y[m:] - anchor_rows @ sol)
    c = np.empty(n, dtype=np.complex128)
    c[order] = sol[:, 0] + 1j * sol[:, 1]
    return c, d[:, 0] + 1j * d[:, 1], p


def thin_plate_reconstruct(samples: SampleSet, cfg: ThinPlateConfig = ThinPlateConfig()) -> np.ndarray:
    """Evaluate the fitted smoothing spline on the full grid.

    Beside the factor that thin_plate_coefficients keeps, the evaluation
    holds two 2*rows x 2*cols complex arrays, transformed in place.
    """
    c, d, _ = thin_plate_coefficients(samples, cfg)
    rows, cols = samples.rows, samples.cols
    # Samples sit on grid points, so sum_j c_j phi(x - x_j) is the linear
    # convolution of the coefficient image with phi over the offsets
    # (-rows, rows) x (-cols, cols), and phi takes only the rows x cols values
    # of the offset table. On a 2*rows x 2*cols grid the circular convolution
    # of the zero-padded image with the table wrapped to negative offsets
    # (index 2*rows - k holds offset -k) equals that linear one, so one FFT
    # product evaluates the whole grid.
    kernel = np.zeros((2 * rows, 2 * cols), dtype=np.complex128)
    table = _phi_table(rows, cols)
    kernel[:rows, :cols] = table
    kernel[rows + 1 :, :cols] = table[:0:-1]
    kernel[:, cols + 1 :] = kernel[:, cols - 1 : 0 : -1]
    conv = np.zeros((2 * rows, 2 * cols), dtype=np.complex128)
    conv[samples.positions[:, 0], samples.positions[:, 1]] = c
    np.fft.fft2(conv, out=conv)
    conv *= np.fft.fft2(kernel, out=kernel)
    del kernel
    np.fft.ifftn(conv, out=conv)  # not ifft2, which ignores out (numpy 2.4)
    gr, gc = np.mgrid[0:rows, 0:cols]
    return conv[:rows, :cols] + (d[0] + d[1] * gr + d[2] * gc)
