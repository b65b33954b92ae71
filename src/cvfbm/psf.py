"""Star-image ellipticity: shear transform, rendering, quadrature moments.

The complex ellipticity e = e1 + i*e2 describes how a circular profile is
stretched. Rendering applies the shear to pixel coordinates; measurement
inverts it through flux-weighted second moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check, check_fields

__all__ = [
    "shear_coords",
    "RadialProfile",
    "render_star",
    "brightness_moments",
    "MomentTensor",
    "ellipticity_from_moments",
    "psf_radius",
]


def shear_coords(e1: float, e2: float, x0, y0):
    """Apply the ellipticity shear to coordinates (x0, y0).

    Returns (xp, yp) = ((1-e1)x0 - e2*y0, -e2*x0 + (1+e1)y0). Points on the
    distorted profile map back onto the circular one.
    """
    xp = (1.0 - e1) * np.asarray(x0) - e2 * np.asarray(y0)
    yp = -e2 * np.asarray(x0) + (1.0 + e1) * np.asarray(y0)
    return xp, yp


@dataclass(frozen=True)
class RadialProfile:
    """Circular brightness profile evaluated on the normalized radius u = r/scale.

    kinds: "gaussian" exp(-u^2/2); "moffat" (1+u^2)^-beta.
    """

    kind: str = "gaussian"
    scale: float = 3.0
    beta: float = 3.0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("gaussian", "moffat"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("scale", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "moffat" and self.beta <= 1:
            raise ValueError("moffat beta must exceed 1")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * u**2)
        return (1.0 + u**2) ** (-self.beta)


def render_star(profile: RadialProfile, e1: float, e2: float, size: int) -> np.ndarray:
    """Render a sheared star on an odd-sized grid, normalized to unit flux.

    Pixel (row, col) is evaluated at its center; the image x axis is the
    column offset from center, y the row offset.
    """
    size = check(size, int, "size")
    if size < 1 or size % 2 == 0:
        raise ValueError(f"star image size must be odd and positive, got {size}")
    e1, e2 = check(e1, float, "e1"), check(e2, float, "e2")
    for name, value in (("e1", e1), ("e2", e2)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if np.hypot(e1, e2) >= 1.0:
        raise ValueError("|e| must be below 1")
    c = (size - 1) / 2.0
    rows, cols = np.mgrid[0:size, 0:size]
    x = cols - c
    y = rows - c
    xp, yp = shear_coords(e1, e2, x, y)
    img = profile.value(np.hypot(xp, yp) / profile.scale)
    total = img.sum()
    if total <= 0:
        raise ValueError("profile integrates to zero on this grid")
    return img * (1.0 / total)


# A moment discriminant q11*q22 - q12^2 down to -_DISC_RTOL * q11*q22 is
# rounding of a semidefinite tensor; it counts as 0.
_DISC_RTOL = 1e-9


def _discriminant(q11: float, q12: float, q22: float) -> float:
    """q11*q22 - q12^2, clipped to 0 within the tolerance; raises below it."""
    disc = q11 * q22 - q12**2
    if disc < -_DISC_RTOL * max(q11 * q22, 1e-300):
        raise ValueError("moment tensor is not positive semidefinite")
    return max(disc, 0.0)


@dataclass(frozen=True)
class MomentTensor:
    """Second-order brightness moments in pixel^2."""

    q11: float
    q12: float
    q22: float

    def __post_init__(self):
        check_fields(self)
        for name in ("q11", "q12", "q22"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.q11 < 0 or self.q22 < 0:
            raise ValueError("diagonal moments must be non-negative")
        _discriminant(self.q11, self.q12, self.q22)


def brightness_moments(img) -> MomentTensor:
    """Flux-weighted central second moments of a star image.

    q_ij = sum_p I_p (theta_i - c_i)(theta_j - c_j) / sum_p I_p, with the
    centroid c = sum_p I_p theta_p / sum_p I_p.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2D")
    if np.any(img < 0) or not np.all(np.isfinite(img)):
        raise ValueError("intensities must be finite and non-negative")
    rows, cols = np.mgrid[0 : img.shape[0], 0 : img.shape[1]]
    x = cols.astype(float)
    y = rows.astype(float)

    s = img.sum()
    if s <= 0:
        raise ValueError("image has no flux")
    dx = x - (img * x).sum() / s
    dy = y - (img * y).sum() / s
    q11 = (img * dx * dx).sum() / s
    q22 = (img * dy * dy).sum() / s
    q12 = (img * dx * dy).sum() / s
    return MomentTensor(q11=q11, q12=q12, q22=q22)


def ellipticity_from_moments(q: MomentTensor, form: str = "squared") -> complex:
    """Complex ellipticity from a moment tensor.

    form="squared" uses squared diagonal terms:
        (q11^2 - q22^2 + 2i q12) / (q11^2 + q22^2 + 2 sqrt(q11 q22 - q12^2)).
    form="standard" is the unsquared quadrature-moment variant:
        (q11 - q22 + 2i q12) / (q11 + q22 + 2 sqrt(q11 q22 - q12^2)),
    which is the one with a known inverse under the shear used here.
    """
    root = np.sqrt(_discriminant(q.q11, q.q12, q.q22))
    if form == "squared":
        den = q.q11**2 + q.q22**2 + 2.0 * root
        num = q.q11**2 - q.q22**2 + 2j * q.q12
    elif form == "standard":
        den = q.q11 + q.q22 + 2.0 * root
        num = q.q11 - q.q22 + 2j * q.q12
    else:
        raise ValueError(f"unknown form {form!r}")
    if den <= 0:
        raise ValueError("non-positive moment denominator")
    # numpy's complex division (num times 1/den), not Python's, which can
    # round the last bit the other way
    return complex(np.divide(num, den))


def psf_radius(q: MomentTensor) -> float:
    """sqrt(q11 + q22), the RMS size of the star image in pixels."""
    return float(np.sqrt(q.q11 + q.q22))
