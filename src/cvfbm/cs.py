"""Compressive-sampling reconstructions of subsampled complex fields.

Three solvers share the same measurement model: the unknown is the Fourier
transform E of the field, and each known sample pins one spatial value,
A E = y with A = selection after the unitary inverse DFT. Because the DFT is
unitary, A A^H is the identity on the measurement space, which gives exact
constraint projections for free:

* ``bp_reconstruct`` minimizes the l1 norm of E (basis pursuit) by ADMM with
  complex soft-thresholding.
* ``tv_equality_reconstruct`` minimizes the total variation of E subject to
  the data constraints, via a primal-dual splitting with a final exact
  projection.
* ``twist_reconstruct`` runs the two-step iterative shrinkage scheme on the
  penalized objective 0.5*||y - A E||^2 + lambda*TV(E). A periodic field is
  solved on its own M x N grid; free-boundary input is first mirror-extended
  so the solve happens on a periodic 2M x 2N grid. The campaigns take the
  choice from the spec's ``synthesis.periodic``.

TV here is measured on the Fourier coefficients, not the spatial field: the
smoother the field, the more its spectrum concentrates, and a concentrated
spectrum has small total variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SampleSet, as_field, dft2, idft2, mirror_extend_samples, take_quadrant
from .sampling import MeasurementOperator

__all__ = [
    "tv",
    "tv_denoise",
    "EqualitySolverConfig",
    "bp_reconstruct",
    "tv_equality_reconstruct",
    "TwistConfig",
    "twist_reconstruct",
    "compressibility_diagnostics",
]


def _flat_view(a: np.ndarray) -> np.ndarray:
    """``a`` as a 1D view; refuses a layout where reshape would silently copy."""
    if not a.flags.c_contiguous:
        raise ValueError("difference buffer must be C-contiguous")
    return a.reshape(-1)


def _grad(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic forward differences along rows and columns, as out[0], out[1].

    The column differences run as one contiguous subtraction over the
    flattened field; the entries it puts in the last column pair a row end
    with the next row's start, so the wrap column is written afterwards.
    ``out`` must be C-contiguous; any layout of ``f`` is accepted.
    """
    if out is None:
        out = np.empty((2,) + f.shape, dtype=f.dtype)
    flat = np.ravel(f)
    np.subtract(f[1:], f[:-1], out=out[0, :-1])
    np.subtract(f[:1], f[-1:], out=out[0, -1:])
    np.subtract(flat[1:], flat[:-1], out=_flat_view(out[1])[:-1])
    np.subtract(f[:, :1], f[:, -1:], out=out[1, :, -1:])
    return out


def _div(p: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Negative adjoint of _grad (discrete divergence); work holds the column term.

    As in _grad, the column term is one contiguous subtraction whose first
    column is then rewritten with the wrap difference. ``work`` must be
    C-contiguous; ``out`` and ``p`` may have any layout.
    """
    if out is None:
        out = np.empty(p.shape[1:], dtype=p.dtype)
    if work is None:
        work = np.empty(out.shape, dtype=out.dtype)
    flat = np.ravel(p[1])
    np.subtract(p[0, 1:], p[0, :-1], out=out[1:])
    np.subtract(p[0, :1], p[0, -1:], out=out[:1])
    np.subtract(flat[1:], flat[:-1], out=_flat_view(work)[1:])
    np.subtract(p[1, :, :1], p[1, :, -1:], out=work[:, :1])
    return np.add(out, work, out=out)


def _magnitude(g: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Isotropic magnitude sqrt(|g[0]|^2 + |g[1]|^2) into ``out``; ``work`` is scratch."""
    np.square(np.abs(g[0], out=out), out=out)
    np.square(np.abs(g[1], out=work), out=work)
    out += work
    return np.sqrt(out, out=out)


def tv(field) -> float:
    """Isotropic total variation with periodic boundary.

    Sum over pixels of sqrt(|d_row|^2 + |d_col|^2) where the differences are
    complex and |.| is the complex magnitude, so the two value channels are
    coupled.
    """
    g = _grad(as_field(field))
    return float(np.sum(_magnitude(g, np.empty(g.shape[1:]), np.empty(g.shape[1:]))))


def tv_denoise(field, weight: float, iters: int = 30, return_gap: bool = False):
    """Proximal map of weight*TV: minimize 0.5||u - field||^2 + weight*tv(u).

    Dual projection method: the dual field p is driven toward the constraint
    |p| <= 1 with step 1/8, and u = field - weight*div(p). The objective is
    non-increasing in the iterates. With return_gap=True the relative duality
    gap estimate at the last iterate is returned alongside the field.
    """
    f = as_field(field)
    if not (np.isfinite(weight) and weight > 0):
        raise ValueError("weight must be positive and finite")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    tau = 0.125
    # tau is a power of two, so scaling by it is exact outside the subnormal
    # range: the loop below runs on v = tau*(div(p) - f/weight), whose
    # gradient and its magnitude come out already scaled by tau
    scaled = f / weight
    scaled *= tau
    p = np.zeros((2,) + f.shape, dtype=np.complex128)
    # buffers reused across iterations; each update below gives the same
    # values as
    #   g = grad(div(p) - f/weight); mag = sqrt(|g0|^2 + |g1|^2)
    #   p = (p + tau*g) / (1 + tau*mag)
    # numpy divides a complex value by a real one as a complex division whose
    # scale is the real reciprocal, so multiplying by 1/(1 + tau*mag) is the
    # same rounding; for finite inputs only the sign of an exact zero differs
    # C order whatever the layout of the input (_grad/_div need it)
    g = np.empty_like(p)
    v = np.empty(f.shape, dtype=np.complex128)
    work = np.empty(f.shape, dtype=np.complex128)
    mag = np.empty(f.shape)
    sq = np.empty(f.shape)
    for _ in range(int(iters)):
        _div(p, out=v, work=work)
        v *= tau
        v -= scaled
        _magnitude(_grad(v, out=g), mag, sq)
        p += g
        mag += 1.0
        np.divide(1.0, mag, out=mag)
        p *= mag
    div_p = _div(p, work=work)
    u = f - weight * div_p
    if not return_gap:
        return u
    # primal value vs the dual value of the projected p
    primal = 0.5 * np.sum(np.abs(u - f) ** 2) + weight * tv(u)
    dual = -0.5 * np.sum(np.abs(weight * div_p) ** 2) + weight * np.sum((div_p * np.conj(f)).real)
    gap = (primal - dual) / max(abs(primal), 1e-30)
    return u, float(gap)


@dataclass(frozen=True)
class EqualitySolverConfig:
    max_iters: int = 600

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def _soft(x: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-threshold: shrink magnitudes by t, keep phases."""
    mag = np.abs(x)
    scale = np.maximum(mag - t, 0.0) / np.maximum(mag, 1e-300)
    return x * scale


def _operator_for(samples: SampleSet) -> MeasurementOperator:
    if len(samples) == 0:
        raise ValueError("no samples")
    return MeasurementOperator(samples.rows, samples.cols, samples.positions, mode="partial_fourier")


def _project(op: MeasurementOperator, y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The exact projection of ``e`` onto {E : A E = y}, since A A^H = I."""
    return e - op.adjoint(op.forward(e) - y)


def _finish_equality(
    op: MeasurementOperator, y: np.ndarray, e: np.ndarray, iterations: int, converged: bool, objective
):
    """Project an equality solver's last iterate onto the samples: (idft2(E), info).

    ``objective`` maps the projected E to the value the solver minimizes.
    """
    e = _project(op, y, e)
    residual = np.linalg.norm(op.forward(e) - y) / max(np.linalg.norm(y), 1e-30)
    info = {
        "iterations": iterations,
        # True only when the tolerance test ended the loop, not at max_iters
        "converged": converged,
        "objective": objective(e),
        "constraint_residual": float(residual),
    }
    return idft2(e), info


# basis pursuit stops once its primal residual ||E - Z|| and dual residual
# ||Z - Z_prev|| both fall below this fraction of ||Z||
_BP_TOL = 1e-9


def bp_reconstruct(samples: SampleSet, cfg: EqualitySolverConfig = EqualitySolverConfig()):
    """Basis pursuit: min sum|E_k| subject to the samples, returns idft2(E).

    ADMM with the splitting E = Z and penalty 1: the E update projects
    exactly onto the constraint set (A A^H = I), the Z update soft-thresholds
    the complex magnitudes by 1. Any grid size is solved; ``cfg.max_iters``
    bounds the work.
    """
    op = _operator_for(samples)
    y = samples.values
    z = op.adjoint(y)
    u = np.zeros_like(z)
    iterations = cfg.max_iters
    converged = False
    for it in range(cfg.max_iters):
        e = _project(op, y, z - u)
        z_new = _soft(e + u, 1.0)
        u = u + e - z_new
        primal = np.linalg.norm(e - z_new)
        dual = np.linalg.norm(z_new - z)
        z = z_new
        scale = max(np.linalg.norm(z), 1e-30)
        if primal <= _BP_TOL * scale and dual <= _BP_TOL * scale:
            iterations = it + 1
            converged = True
            break
    return _finish_equality(op, y, z, iterations, converged, lambda e: float(np.sum(np.abs(e))))


# cs-tv's steps tau = sigma, and its stop: at a 25-iteration check, the
# relative constraint residual and the step relative to ||E|| both below _TV_TOL
_TV_STEP = 1.0 / 3.0
_TV_TOL = 1e-9


def tv_equality_reconstruct(
    samples: SampleSet,
    cfg: EqualitySolverConfig = EqualitySolverConfig(),
):
    """Minimize tv(E) subject to the spatial samples; returns idft2(E).

    Primal-dual splitting over the stacked operator [grad; A]: the gradient
    dual is clipped to the unit complex-magnitude ball, the data dual
    accumulates constraint violations (a running penalty on the equality
    constraints), and steps tau = sigma = 1/3, whose product 1/9 respects the
    operator norm bound ||[grad; A]||^2 <= 9. A final exact projection lands
    the iterate on the constraint set, so the reported residual is at
    rounding level.

    The loop runs in buffers allocated once per solve and applies A and A^H
    without input checks. A NaN or Inf iterate is caught at each 25-iteration
    check and before return, and raises ValueError.
    """
    op = _operator_for(samples)
    y = samples.values
    y_norm = max(np.linalg.norm(y), 1e-30)

    e = op.adjoint(y)
    e_bar = e.copy()
    p = np.zeros((2,) + e.shape, dtype=np.complex128)
    q = np.zeros(len(y), dtype=np.complex128)
    # buffers for the whole solve; each update below gives the same values as
    #   p = p + step*grad(e_bar); p = p / max(1, |p|)
    #   q = q + step*(A e_bar - y)
    #   e_new = e - step*(-div(p) + A^H q); e_bar = 2*e_new - e
    # with the clip as a multiply by the real reciprocal (see tv_denoise).
    # The loop applies A and A^H unchecked. A NaN or Inf anywhere reaches
    # the iterate and stays there, so the checked forward(e) at each
    # 25-iteration check, and after the loop, still raises on it.
    e_new = np.empty_like(e)
    g = np.empty_like(p)
    mag = np.empty(e.shape)
    sq = np.empty(e.shape)
    d = np.empty_like(e)
    work = np.empty_like(e)
    iterations = cfg.max_iters
    converged = False
    for it in range(cfg.max_iters):
        np.multiply(_TV_STEP, _grad(e_bar, out=g), out=g)
        p += g
        np.maximum(1.0, _magnitude(p, mag, sq), out=mag)
        np.divide(1.0, mag, out=mag)
        p *= mag
        r = op._forward(e_bar)
        r -= y
        q += np.multiply(_TV_STEP, r, out=r)
        np.negative(_div(p, out=d, work=work), out=d)
        d += op._adjoint(q)
        np.subtract(e, np.multiply(_TV_STEP, d, out=d), out=e_new)
        np.multiply(2.0, e_new, out=e_bar)
        e_bar -= e
        e, e_new = e_new, e  # e_new now holds the previous iterate
        if it % 25 == 24:
            primal = np.linalg.norm(op.forward(e) - y) / y_norm
            step = np.linalg.norm(np.subtract(e, e_new, out=d))
            if primal <= _TV_TOL and step <= _TV_TOL * max(np.linalg.norm(e), 1e-30):
                iterations = it + 1
                converged = True
                break
    return _finish_equality(op, y, e, iterations, converged, tv)


# lambda = AUTO_LAMBDA_FACTOR * ||A^H y||_inf when no explicit weight is given.
# Calibrated on 100x100 benchmark fields; small enough to stay close to the
# equality-constrained solution, large enough to regularize 5-20% sampling.
AUTO_LAMBDA_FACTOR = 1.5e-3

# TwIST's two-step weights by the spectral-bound rule (Bioucas-Dias &
# Figueiredo 2007). With the unitary DFT and row selection the singular
# values of A lie in {0, 1}; unobserved modes are treated as having a floor
# of kappa = 1e-3, giving rho = (1-kappa)/(1+kappa),
# alpha = 2/(1+sqrt(1-rho^2)) and beta = 2*alpha/(1+kappa).
_KAPPA = 1e-3
_ALPHA = 2.0 / (1.0 + np.sqrt(1.0 - ((1.0 - _KAPPA) / (1.0 + _KAPPA)) ** 2))
_BETA = _ALPHA * 2.0 / (_KAPPA + 1.0)


@dataclass(frozen=True)
class TwistConfig:
    # None means lambda = AUTO_LAMBDA_FACTOR * ||A^H y||_inf for the data.
    lam: float | None = None
    max_iters: int = 500
    tol: float = 1e-6
    tv_inner_iters: int = 10

    def __post_init__(self):
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lambda must be positive and finite")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.tv_inner_iters < 1:
            raise ValueError("tv_inner_iters must be at least 1")


def twist_reconstruct(
    samples: SampleSet,
    cfg: TwistConfig = TwistConfig(),
    *,
    periodic: bool = False,
):
    """Two-step iterative shrinkage; returns the M x N field.

    The Fourier-domain unknown assumes the data wrap around. With
    ``periodic=True`` the samples come from a periodic field and the solve
    runs on their own M x N grid. Otherwise they are mirror-extended to a
    2M x 2N grid, which does wrap, and the top-left quadrant is returned.
    Each step applies the TV proximal map to a gradient step on the data
    term, then combines the last two iterates with the two-step weights
    _ALPHA and _BETA. The objective never increases: a step that would
    increase it is replaced by the plain shrinkage step (alpha = beta = 1),
    and if that still increases it the iteration stops.
    """
    solved = samples if periodic else mirror_extend_samples(samples)
    op = _operator_for(solved)
    y = solved.values

    x_old = op.adjoint(y)
    lam = cfg.lam if cfg.lam is not None else AUTO_LAMBDA_FACTOR * float(np.abs(x_old).max())

    # every iterate carries its data residual r = y - A x, computed once and
    # shared by its objective, the shrinkage step taken from it and the
    # final diagnostics
    def residual(x):
        return y - op.forward(x)

    def gamma(x, r):
        return tv_denoise(x + op.adjoint(r), lam, iters=cfg.tv_inner_iters)

    def objective(x, r):
        return 0.5 * float(np.sum(np.abs(r) ** 2)) + lam * tv(x)

    r_old = residual(x_old)
    x = gamma(x_old, r_old)
    r = residual(x)
    objectives = [objective(x_old, r_old), objective(x, r)]
    if objectives[1] > objectives[0]:
        # the very first shrinkage step should not climb; keep the start
        x, r = x_old, r_old
        objectives[1] = objectives[0]
    iterations = 1
    hit_tol = False
    # gamma(x, r) of the final iterate, when the loop has already taken it
    g_final = None
    # the first shrinkage step above spent one unit of the budget
    for it in range(cfg.max_iters - 1):
        g = gamma(x, r)
        x_new = (1.0 - _ALPHA) * x_old + (_ALPHA - _BETA) * x + _BETA * g
        r_new = residual(x_new)
        f_new = objective(x_new, r_new)
        if f_new > objectives[-1]:
            x_new = g
            r_new = residual(x_new)
            f_new = objective(x_new, r_new)
            if f_new > objectives[-1]:
                g_final = g
                break
        change = abs(objectives[-1] - f_new) / max(objectives[-1], 1e-30)
        x_old, x, r = x, x_new, r_new
        objectives.append(f_new)
        iterations = it + 2
        if change < cfg.tol:
            hit_tol = True
            break

    field = idft2(x) if periodic else take_quadrant(idft2(x))
    if g_final is None:
        g_final = gamma(x, r)
    gap = float(np.linalg.norm(x - g_final) / max(np.linalg.norm(x), 1e-30))
    info = {
        "iterations": iterations,
        "lambda": float(lam),
        "objective": float(objectives[-1]),
        "objective_trace": objectives,
        "data_residual": float(np.linalg.norm(r) / max(np.linalg.norm(y), 1e-30)),
        "fixed_point_gap": gap,
        # certified convergence: the objective plateaued AND the iterate is a
        # fixed point of the shrinkage map to matching precision
        "converged": bool(hit_tol and gap < 10.0 * cfg.tol),
    }
    return field, info


def compressibility_diagnostics(field) -> dict:
    """How well the spectrum supports sparse approximation.

    Sorts the spectral magnitudes, fits |a_k| <= C1 * k^-q by log-log
    regression over the sorted ranks, and reports the relative best-K
    approximation error at K = 1%, 5%, 10%, 25% of the coefficients (the l2
    norm of the dropped tail, by unitarity).
    """
    spec = dft2(field)
    mags = np.sort(np.abs(spec).ravel())[::-1]
    keep = mags > 0
    if np.count_nonzero(keep) < 2:
        # a zero or flat field: the fit would get fewer than two points
        raise ValueError("spectrum has fewer than two nonzero coefficients: no decay to fit")
    total = np.linalg.norm(mags)
    ranks = np.arange(1, len(mags) + 1, dtype=float)
    coef = np.polyfit(np.log(ranks[keep]), np.log(mags[keep]), 1)
    q = -coef[0]
    c1 = float(np.exp(coef[1]))
    tail_sq = np.cumsum((mags**2)[::-1])[::-1]
    best_k = {}
    for frac in (0.01, 0.05, 0.10, 0.25):
        k = max(1, int(round(frac * len(mags))))
        err = np.sqrt(tail_sq[k]) if k < len(mags) else 0.0
        best_k[frac] = float(err / total)
    return {"q": float(q), "c1": c1, "best_k_relative_error": best_k}
