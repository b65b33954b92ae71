"""Spectral synthesis of complex-valued fractional Brownian motion fields.

A CV-fBm field is built by shaping complex white noise in the Fourier domain
with an isotropic power-law envelope controlled by the Hurst parameter H.
Larger H means a steeper spectrum and a smoother field.
"""

from __future__ import annotations

import numpy as np

from .grid import as_field, check, dft2, idft2, radial_sq, seeded_rng, take_quadrant

__all__ = [
    "synthesize_cvfbm",
    "normalize_dynamic_range",
]


def _check_args(h: float, rows: int, cols: int, what: str) -> tuple[float, int, int]:
    """The hurst parameter and grid shape, checked; ``what`` names the grid in the size error."""
    h = check(h, float, "h")
    if not 0.0 < h < 1.0:
        raise ValueError(f"hurst parameter must lie in (0, 1), got {h}")
    rows, cols = check(rows, int, "rows"), check(cols, int, "cols")
    if rows < 2 or cols < 2:
        raise ValueError(f"{what} needs at least a 2x2 grid")
    return h, rows, cols


def spectral_envelope(h: float, rows: int, cols: int) -> np.ndarray:
    """Power-law gain grid |omega|^-(2H+1), zero at DC.

    The exponent applies to the Fourier coefficient magnitudes directly.
    """
    h, rows, cols = _check_args(h, rows, cols, "envelope")
    expo = 2.0 * h + 1.0
    w = np.sqrt(radial_sq(rows, cols))
    gains = np.zeros((rows, cols))
    nz = w > 0
    gains[nz] = w[nz] ** (-expo)
    return gains


def synthesize_cvfbm(h: float, rows: int, cols: int, seed, periodic: bool = True) -> np.ndarray:
    """Draw a deterministic CV-fBm field of shape (rows, cols).

    Circular complex Gaussian white noise (unit variance per sample) is
    transformed, multiplied by :func:`spectral_envelope`, and transformed
    back.

    With ``periodic=True`` (default) the noise is drawn directly on the target
    grid; the result is exactly periodic and has exactly zero mean (the DC
    gain is zero).

    With ``periodic=False`` the noise is drawn on a doubled 2*rows x 2*cols
    grid and the top-left quadrant is returned. The quadrant is a free patch
    of a larger field: it is not periodic and keeps whatever nonzero mean the
    crop produces. Use this when downstream processing supplies its own
    boundary handling (e.g. mirror extension).
    """
    h, rows, cols = _check_args(h, rows, cols, "field")
    rng = seeded_rng(seed)
    if periodic:
        m, n = rows, cols
    else:
        m, n = 2 * rows, 2 * cols
    noise = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    shaped = idft2(dft2(noise) * spectral_envelope(h, m, n))
    if periodic:
        return shaped
    return take_quadrant(shaped)


def normalize_dynamic_range(field, target_rms: float) -> np.ndarray:
    """Rescale so the RMS of the complex magnitudes equals target_rms."""
    f = as_field(field)
    target_rms = check(target_rms, float, "target_rms")
    if not (np.isfinite(target_rms) and target_rms > 0):
        raise ValueError("target_rms must be positive and finite")
    rms = np.sqrt(np.mean(np.abs(f) ** 2))
    if rms == 0:
        raise ValueError("cannot normalize an identically zero field")
    return f * (target_rms / rms)
