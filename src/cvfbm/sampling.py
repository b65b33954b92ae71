"""Random subsampling and matrix-free measurement operators.

Masks are (n, 2) integer position arrays in canonical row-major order. The
operators never materialize a matrix: selection picks grid values, and the
partial-Fourier mode composes selection with the unitary inverse DFT so the
unknown lives in the Fourier domain.
"""

from __future__ import annotations

import numpy as np

from .grid import SampleSet, as_field, dft2, flat_positions, idft2

__all__ = [
    "random_mask",
    "subsample",
    "MeasurementOperator",
]


def mask_from_draw(rows: int, cols: int, n: int, draw) -> np.ndarray:
    """The n flat indices ``draw(n)`` returns as an (n, 2) int64 mask.

    ``draw`` is called only once n is known to lie in [1, rows*cols]; its
    distinct indices are sorted into canonical row-major order.
    """
    total = rows * cols
    if not 1 <= n <= total:
        raise ValueError(f"sample count {n} out of range [1, {total}] for a {rows}x{cols} grid")
    flat = np.sort(draw(n))
    return np.stack(np.unravel_index(flat, (rows, cols)), axis=1).astype(np.int64)


def random_mask(rows: int, cols: int, n_sub: int, seed) -> np.ndarray:
    """n_sub distinct grid positions, uniform without replacement.

    Deterministic in ``seed``; returned in canonical row-major order.
    """
    rng = np.random.default_rng(seed)
    return mask_from_draw(rows, cols, n_sub, lambda n: rng.choice(rows * cols, size=n, replace=False))


def subsample(field, mask) -> SampleSet:
    """Read the field values at mask positions, in mask order."""
    f = as_field(field)
    flat = flat_positions(mask, *f.shape)
    return SampleSet(f.shape[0], f.shape[1], mask, f.ravel()[flat])


class MeasurementOperator:
    """Forward/adjoint pair for a sampling mask.

    mode="selection": forward picks masked grid values.
    mode="partial_fourier": forward is selection after the inverse DFT, so it
    measures spatial samples of a Fourier-domain unknown.
    """

    def __init__(self, rows: int, cols: int, mask, mode: str = "selection"):
        if mode not in ("selection", "partial_fourier"):
            raise ValueError(f"unknown operator mode {mode!r}")
        self._flat = flat_positions(mask, rows, cols)
        if len(self._flat) == 0:
            raise ValueError("empty mask")
        self.rows = int(rows)
        self.cols = int(cols)
        self.mode = mode

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
