"""Reconstruction quality metrics and the radial spectral-slope estimate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import as_field, dft2, radial_sq

__all__ = ["mse", "rmse", "snr_db", "EvalReport", "evaluate", "radial_spectrum_slope"]

SNR_CAP_DB = 200.0
# smallest grid side radial_spectrum_slope fits: its fit range ends at side/4
MIN_SLOPE_GRID = 16


def _pair(truth, est):
    t = as_field(truth)
    e = as_field(est)
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch {t.shape} vs {e.shape}")
    return t, e


def mse(truth, est) -> float:
    """Mean over pixels of |est - truth|^2 (complex magnitude squared)."""
    t, e = _pair(truth, est)
    return float(np.mean(np.abs(e - t) ** 2))


def rmse(truth, est) -> float:
    return float(np.sqrt(mse(truth, est)))


def snr_db(truth, est) -> float:
    """10 log10 of signal energy over error energy, capped at 200 dB."""
    t, e = _pair(truth, est)
    signal = float(np.sum(np.abs(t) ** 2))
    if signal == 0:
        raise ValueError("truth field is identically zero")
    err = float(np.sum(np.abs(e - t) ** 2))
    if err == 0:
        return SNR_CAP_DB
    return float(min(SNR_CAP_DB, 10.0 * np.log10(signal / err)))


@dataclass(frozen=True)
class EvalReport:
    n_points: int
    mse: float
    rmse: float
    snr_db: float


def evaluate(truth, est) -> EvalReport:
    t, _ = _pair(truth, est)
    m = mse(truth, est)
    return EvalReport(n_points=t.size, mse=m, rmse=float(np.sqrt(m)), snr_db=snr_db(truth, est))


def radial_bins(mags, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean of a 2D spectrum per exact squared radial frequency.

    ``mags`` is indexed like the DFT of its grid. Returns the distinct integer
    squared radii wx^2 + wy^2 in [1, rmax^2] (exact, so grouping by them is
    collision-free) and the mean of ``mags`` over each.
    """
    r2 = radial_sq(*mags.shape).astype(np.int64).ravel()
    keep = (r2 >= 1) & (r2 <= rmax * rmax)
    uniq, inv = np.unique(r2[keep], return_inverse=True)
    return uniq, np.bincount(inv, weights=mags.ravel()[keep]) / np.bincount(inv)


def radial_spectrum_slope(field) -> float:
    """Slope of log mean |spectrum| against log |omega|.

    Spectral magnitudes are grouped by their exact radial frequency
    sqrt(wx^2 + wy^2) (no rounding; rounding the radii biases the slope by
    several hundredths), averaged per radius, and fitted by least squares
    over 1 <= |omega| <= min(rows, cols)/4.
    """
    f = as_field(field)
    rows, cols = f.shape
    if min(rows, cols) < MIN_SLOPE_GRID:
        raise ValueError(f"slope estimate needs at least a {MIN_SLOPE_GRID}x{MIN_SLOPE_GRID} grid")
    uniq, means = radial_bins(np.abs(dft2(f)), min(rows, cols) / 4.0)
    if np.all(means == 0):
        raise ValueError("spectrum is identically zero over the fit range")
    logr = 0.5 * np.log(uniq.astype(float))
    logm = np.log(np.maximum(means, 1e-300))
    slope, _ = np.polyfit(logr, logm, 1)
    return float(slope)
