"""Random subsampling and matrix-free measurement operators.

Masks are (n, 2) integer position arrays in canonical row-major order. The
operators never materialize a matrix: selection picks grid values, and the
partial-Fourier mode composes selection with the unitary inverse DFT so the
unknown lives in the Fourier domain.
"""

from __future__ import annotations

import numpy as np

from .grid import SampleSet, as_field, dft2, idft2

__all__ = [
    "random_mask",
    "subsample",
    "MeasurementOperator",
]


def random_mask(rows: int, cols: int, n_sub: int, seed) -> np.ndarray:
    """n_sub distinct grid positions, uniform without replacement.

    Deterministic in ``seed``; returned in canonical row-major order.
    """
    total = rows * cols
    if not 1 <= n_sub <= total:
        raise ValueError(f"n_sub must be in [1, {total}], got {n_sub}")
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(total, size=n_sub, replace=False))
    return np.stack(np.unravel_index(flat, (rows, cols)), axis=1).astype(np.int64)


def subsample(field, mask) -> SampleSet:
    """Read the field values at mask positions, in mask order."""
    f = as_field(field)
    pos = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
    if len(pos) == 0:
        return SampleSet(f.shape[0], f.shape[1], pos, np.zeros(0, complex))
    if pos.min() < 0 or pos[:, 0].max() >= f.shape[0] or pos[:, 1].max() >= f.shape[1]:
        raise ValueError("mask position out of bounds")
    return SampleSet(f.shape[0], f.shape[1], pos, f[pos[:, 0], pos[:, 1]])


class MeasurementOperator:
    """Forward/adjoint pair for a sampling mask.

    mode="selection": forward picks masked grid values.
    mode="partial_fourier": forward is selection after the inverse DFT, so it
    measures spatial samples of a Fourier-domain unknown.
    """

    def __init__(self, rows: int, cols: int, mask, mode: str = "selection"):
        if mode not in ("selection", "partial_fourier"):
            raise ValueError(f"unknown operator mode {mode!r}")
        pos = np.asarray(mask, dtype=np.int64).reshape(-1, 2)
        if len(pos) == 0:
            raise ValueError("empty mask")
        if pos.min() < 0 or pos[:, 0].max() >= rows or pos[:, 1].max() >= cols:
            raise ValueError("mask position out of bounds")
        flat = pos[:, 0] * cols + pos[:, 1]
        if len(np.unique(flat)) != len(flat):
            raise ValueError("duplicate mask positions")
        self.rows = int(rows)
        self.cols = int(cols)
        self.mask = pos
        self.mode = mode
        self._flat = flat

    @property
    def n_measurements(self) -> int:
        return len(self._flat)

    def forward(self, x) -> np.ndarray:
        x = as_field(x)
        if x.shape != (self.rows, self.cols):
            raise ValueError(f"expected shape {(self.rows, self.cols)}, got {x.shape}")
        if self.mode == "partial_fourier":
            x = idft2(x)
        return x.ravel()[self._flat]

    def adjoint(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if len(y) != len(self._flat):
            raise ValueError("measurement vector length mismatch")
        z = np.zeros(self.rows * self.cols, dtype=np.complex128)
        z[self._flat] = y
        z = z.reshape(self.rows, self.cols)
        if self.mode == "partial_fourier":
            z = dft2(z)
        return z
