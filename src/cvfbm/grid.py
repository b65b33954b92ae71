"""Complex 2D grids: unitary DFT, mirror extension, scattered samples.

A field is a plain 2D complex ndarray. Every function here is pure; nothing
mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "as_field",
    "dft2",
    "idft2",
    "take_quadrant",
    "SampleSet",
    "mirror_extend_samples",
]


def as_field(a) -> np.ndarray:
    """Validate and return ``a`` as a finite, C-ordered 2D complex array.

    Input in another memory layout (a transpose, a Fortran-ordered array) is
    copied into C order; C-ordered complex input is returned as is.
    """
    f = np.ascontiguousarray(a, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ValueError(f"expected a 2D grid, got shape {f.shape}")
    if not np.all(np.isfinite(f.view(np.float64))):
        raise ValueError("field contains NaN or Inf")
    return f


def dft2(f) -> np.ndarray:
    """Unitary 2D DFT (forward and inverse both scale by 1/sqrt(R*C))."""
    f = as_field(f)
    return np.fft.fft2(f) / np.sqrt(f.size)


def idft2(F) -> np.ndarray:
    """Unitary 2D inverse DFT."""
    F = as_field(F)
    return np.fft.ifft2(F) * np.sqrt(F.size)


def take_quadrant(f) -> np.ndarray:
    """Return the top-left M x N quadrant of a 2M x 2N grid."""
    f = as_field(f)
    rows, cols = f.shape
    if rows % 2 or cols % 2:
        raise ValueError(f"grid dimensions must be even, got {rows}x{cols}")
    return f[: rows // 2, : cols // 2].copy()


@dataclass(frozen=True)
class SampleSet:
    """Scattered known values on a grid: positions (n, 2) int and values (n,).

    Positions are (row, col) pairs, unique and in bounds. Order is
    significant: it fixes the layout of measurement vectors.
    """

    rows: int
    cols: int
    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64).reshape(-1, 2)
        val = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if len(pos) != len(val):
            raise ValueError("positions and values differ in length")
        if len(pos):
            if pos.min() < 0 or pos[:, 0].max() >= self.rows or pos[:, 1].max() >= self.cols:
                raise ValueError("sample position out of bounds")
            flat = pos[:, 0] * self.cols + pos[:, 1]
            if len(np.unique(flat)) != len(flat):
                raise ValueError("duplicate sample positions")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def flat_indices(self) -> np.ndarray:
        return self.positions[:, 0] * self.cols + self.positions[:, 1]


def mirror_extend_samples(samples: SampleSet) -> SampleSet:
    """Map each sample of an M x N grid to its 4 mirror positions in 2M x 2N.

    The 2M x 2N grid is the input, its column reversal to the right and the
    row reversal of both below (r -> 2M-1-r, c -> 2N-1-c): no edge row or
    column repeats, the result wraps periodically and distinct inputs never
    collide. Output is in canonical row-major order.
    """
    m, n = samples.rows, samples.cols
    r = samples.positions[:, 0]
    c = samples.positions[:, 1]
    rr = np.concatenate([r, r, 2 * m - 1 - r, 2 * m - 1 - r])
    cc = np.concatenate([c, 2 * n - 1 - c, c, 2 * n - 1 - c])
    vv = np.concatenate([samples.values] * 4)
    flat = rr * (2 * n) + cc
    order = np.argsort(flat, kind="stable")
    pos = np.stack([rr[order], cc[order]], axis=1)
    return SampleSet(2 * m, 2 * n, pos, vv[order])
