"""Random subsampling and matrix-free measurement operators.

Masks are (n, 2) integer position arrays in canonical row-major order. The
operators never materialize a matrix: selection picks grid values, and the
partial-Fourier mode composes selection with the unitary inverse DFT so the
unknown lives in the Fourier domain.
"""

from __future__ import annotations

import numpy as np

from .grid import SampleSet, as_field, check, flat_positions

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
    for name, side in (("rows", rows), ("cols", cols)):
        if side < 1:
            raise ValueError(f"{name} must be at least 1, got {side}")
    total = rows * cols
    if not 1 <= n <= total:
        raise ValueError(f"sample count {n} out of range [1, {total}] for a {rows}x{cols} grid")
    flat = np.sort(draw(n))
    return np.stack(np.unravel_index(flat, (rows, cols)), axis=1).astype(np.int64)


def random_mask(rows: int, cols: int, n_sub: int, seed) -> np.ndarray:
    """n_sub distinct grid positions, uniform without replacement.

    Deterministic in ``seed``; returned in canonical row-major order.
    """
    rows, cols, n_sub = check(rows, int, "rows"), check(cols, int, "cols"), check(n_sub, int, "n_sub")
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

    ``forward`` and ``adjoint`` check their input once and return fresh
    arrays. ``_forward`` and ``_adjoint`` are the same maps without the
    checks, for solvers that check their iterates themselves: they work in
    buffers the operator owns and return one of them, which the next call
    overwrites.
    """

    def __init__(self, rows: int, cols: int, mask, mode: str = "selection"):
        if mode not in ("selection", "partial_fourier"):
            raise ValueError(f"unknown operator mode {mode!r}")
        self.rows, self.cols = check(rows, int, "rows"), check(cols, int, "cols")
        self._flat = flat_positions(mask, self.rows, self.cols)
        if len(self._flat) == 0:
            raise ValueError("empty mask")
        self.mode = mode
        shape = (self.rows, self.cols)
        self._values = np.empty(len(self._flat), dtype=np.complex128)
        # the adjoint's scatter image: only the mask entries are ever
        # written, so it stays zero everywhere else
        self._image = np.zeros(shape, dtype=np.complex128)
        if mode == "partial_fourier":
            # outputs of the axis-1 and the axis-0 transform
            self._half = np.empty(shape, dtype=np.complex128)
            self._full = np.empty(shape, dtype=np.complex128)
            self._scale = np.sqrt(self.rows * self.cols)

    def _transform(self, image: np.ndarray, inverse: bool) -> np.ndarray:
        """Unscaled fft2 (or ifft2) of image, in the operator's own buffer.

        These are the two per-axis calls numpy's fft2 makes, axis 1 and then
        axis 0, so the result equals fft2(image) bit for bit.
        """
        fft = np.fft.ifft if inverse else np.fft.fft
        fft(image, axis=1, out=self._half)
        return fft(self._half, axis=0, out=self._full)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """forward of a C-ordered complex field of the right shape, unchecked."""
        if self.mode == "partial_fourier":
            x = self._transform(x, inverse=True)
        # the positions are in bounds; mode='raise' would buffer the output
        y = np.take(x.reshape(-1), self._flat, out=self._values, mode="clip")
        if self.mode == "partial_fourier":
            y *= self._scale  # idft2's scaling, taken only at the mask
        return y

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        """adjoint of a complex vector with one value per mask entry, unchecked."""
        self._image.reshape(-1)[self._flat] = y
        if self.mode == "selection":
            return self._image
        spec = self._transform(self._image, inverse=False)
        spec /= self._scale
        return spec

    def forward(self, x) -> np.ndarray:
        x = as_field(x)
        if x.shape != (self.rows, self.cols):
            raise ValueError(f"expected shape {(self.rows, self.cols)}, got {x.shape}")
        return self._forward(x).copy()

    def adjoint(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if len(y) != len(self._flat):
            raise ValueError("measurement vector length mismatch")
        if not np.isfinite(y).all():
            raise ValueError("field contains NaN or Inf")
        return self._adjoint(y).copy()
