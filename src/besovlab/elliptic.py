"""Pressure solver for the rough-coefficient divergence-form equation.

Solves div((1+a) grad Pi) = div F on the torus for the gradient part of the
unknown.  The equation only constrains grad Pi, so everything here is posed
modulo constants: the scalar potential is kept mean free and the stopping
criterion measures the gradient part of the defect.

Two mechanisms are provided:

* conjugate gradients on the symmetric positive form <(1+a) grad p, grad q>,
  Q (1+a) Q in gradient variables, preconditioned by B = Q (1+a)^-1 Q, that is
  -Delta^-1 div((1+a)^-1 grad Delta^-1) (the default, for any 1+a >= kappa);
* an outer low/high coefficient splitting: the low-frequency part of the
  coefficient is handled by an inner conjugate-gradient solve while the
  high-frequency remainder is iterated explicitly.  Its convergence rate is an
  observable stand-in for the smallness condition on the unsmoothed part of
  the coefficient.

The problem is posed on the subspace of modes with well-defined first
derivatives (the unpaired half-Nyquist lines of an even grid are excluded, see
spectral.drop_nyquist).  On that subspace the discrete form and B are
symmetric positive definite, B inverts the form exactly when 1+a is constant,
and the residual below is the full defect of the projected equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import build_ladder
from .spectral import (
    SpectralField,
    VectorField,
    divergence,
    drop_nyquist,
    gradient,
    gradient_part,
    l2_norm,
    multiply,
    potential_from_gradient,
    reused_factor,
)

__all__ = [
    "EllipticSolveStats",
    "coefficient_floor",
    "require_floor",
    "residual",
    "solve_pressure",
    "weight_by",
]


@dataclass(frozen=True)
class EllipticSolveStats:
    """Outcome record of one pressure solve."""

    iterations: int
    residual: float
    split_m: int | None


def coefficient_floor(a: SpectralField) -> float:
    """Minimum of 1 + a over the grid nodes."""
    return float(1.0 + np.min(a.values))


def require_floor(a: SpectralField) -> float:
    """The coefficient floor kappa = min(1+a), rejecting a coefficient with kappa <= 0."""
    kappa = coefficient_floor(a)
    if not kappa > 0.0:  # also rejects NaN
        raise ValueError(f"coefficient floor violation: min(1+a) = {kappa:.3e} <= 0")
    return kappa


def weight_by(coeff: SpectralField, w: VectorField) -> VectorField:
    """(1 + coeff) w with the variable part dealiased."""
    return w + VectorField(multiply(coeff, w.u1), multiply(coeff, w.u2))


def _q_norm_of_divergence(r: SpectralField) -> float:
    # L2 norm of the gradient field whose divergence is r (mean mode ignored)
    grid = r.grid
    weighted = np.abs(r.modes) ** 2 / np.maximum(grid.k_squared, grid.k_min_nonzero**2)
    weighted[0, 0] = 0.0
    return math.sqrt(float(np.sum(weighted * grid.parseval_weights))) * grid.L / grid.n**2


def _inner(u: SpectralField, v: SpectralField) -> float:
    # L2 inner product by Parseval on half spectra; a plain sum, not np.vdot,
    # which would wake a spinning BLAS thread (see l2_norm)
    grid = u.grid
    products = u.modes.real * v.modes.real + u.modes.imag * v.modes.imag
    return float(np.sum(products * grid.parseval_weights)) * (grid.L / grid.n**2) ** 2


def residual(a: SpectralField, grad_pi: VectorField, F: VectorField) -> float:
    """L2 norm of the gradient part of the equation defect F - (1+a) grad Pi.

    Measured on the derivative-resolved subspace (half-Nyquist lines dropped),
    matching how the solve itself is posed.
    """
    return _defect_norm(F, weight_by(a, grad_pi))


def _defect_norm(F: VectorField, flux: VectorField) -> float:
    """`residual` for the flux (1+a) grad Pi already formed."""
    return l2_norm(gradient_part(drop_nyquist(F - flux)))


def _apply_form(a: SpectralField, p: SpectralField) -> SpectralField:
    return drop_nyquist(-1.0 * divergence(weight_by(a, gradient(p))))


def _precondition(a: SpectralField, r: SpectralField) -> SpectralField:
    """B r = -Delta^-1 div(c^-1 grad Delta^-1 r) on half spectra, c = 1+a.

    CG needs only a symmetric positive B, so c^-1 multiplies at the n-grid
    nodes, with no padding; it is kept on the solve's `reused_factor` handle.
    """
    grid = r.grid
    if "_inverse_coefficient" not in a.__dict__:
        a.__dict__["_inverse_coefficient"] = 1.0 / (1.0 + a.values)
    symbols = grid.half_grad_inverse_neg_laplacian
    grad = np.fft.irfft2(symbols * r.modes, s=(grid.n, grid.n))
    half = np.fft.rfft2(grad * a.__dict__["_inverse_coefficient"]) * symbols
    return SpectralField(grid, -(half[0] + half[1]))


def _pcg_potential(
    a: SpectralField,
    rhs_div: SpectralField,
    q_denominator: float,
    tol: float,
    max_iter: int,
    pi0: SpectralField | None = None,
) -> tuple[SpectralField, int]:
    """Conjugate gradients for -div((1+a) grad pi) = rhs_div, mean-free pi, preconditioned by B."""
    pi = SpectralField.zero(a.grid) if pi0 is None else pi0
    r = rhs_div if pi0 is None else rhs_div - _apply_form(a, pi0)  # a zero start has no flux
    qres = _q_norm_of_divergence(r) / q_denominator
    rz_old = 0.0
    p = None
    iterations = 0
    while qres > tol and iterations < max_iter:
        iterations += 1
        z = _precondition(a, r)
        rz = _inner(r, z)
        if not rz > 0.0:  # the residual sits at the rounding floor: no descent direction is left
            break
        p = z if p is None else z + (rz / rz_old) * p
        rz_old = rz
        ap = _apply_form(a, p)
        alpha = rz / _inner(p, ap)
        pi = pi + alpha * p
        r = r - alpha * ap
        qres = _q_norm_of_divergence(r) / q_denominator
    return pi, iterations


def solve_pressure(
    a: SpectralField,
    F: VectorField,
    tol: float = 1e-10,
    max_iter: int = 500,
    *,
    split_m: int | None = None,
    initial_guess: VectorField | None = None,
) -> tuple[VectorField, EllipticSolveStats, VectorField]:
    """Solve div((1+a) grad Pi) = div F for the mean-free gradient field grad Pi.

    Returns grad Pi, the solve's stats and the flux (1+a) grad Pi that the
    final residual check formed.  The relative stopping criterion is on the
    gradient part of the defect: |Q(F - (1+a) grad Pi)| <= tol |QF| in L2.
    The solve is preconditioned conjugate gradients; passing split_m
    switches to the outer low/high splitting iteration at that octave.  A
    non-finite forcing raises ``FloatingPointError``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    require_floor(a)
    grid = a.grid
    if F.u1.grid != grid:
        raise ValueError("coefficient and forcing must share one grid")
    a = reused_factor(a)

    qf = gradient_part(drop_nyquist(F))
    q_den = l2_norm(qf)
    if not math.isfinite(q_den):
        raise FloatingPointError("pressure forcing is not finite")
    if q_den == 0.0:
        zero = VectorField.zero(grid)
        return zero, EllipticSolveStats(0, 0.0, split_m), zero

    if split_m is not None:
        return _solve_split(a, F, tol, max_iter, split_m, q_den)

    rhs = drop_nyquist(-1.0 * divergence(F))
    pi = None if initial_guess is None else potential_from_gradient(drop_nyquist(initial_guess))
    total, true_res = 0, math.inf
    while total < max_iter:
        pi, iters = _pcg_potential(a, rhs, q_den, tol, max_iter - total, pi0=pi)
        total += max(iters, 1)
        g = gradient(pi)
        flux = weight_by(a, g)
        last_res, true_res = true_res, _defect_norm(F, flux) / q_den
        if true_res <= tol:
            return g, EllipticSolveStats(total, true_res, None), flux
        if not true_res < last_res:  # a restart no longer lowers the defect: it sits at the rounding floor
            break
    raise RuntimeError(
        f"pressure solve did not reach tol={tol:.1e} in {total} iterations (residual {true_res:.3e})"
    )


def _solve_split(
    a: SpectralField,
    F: VectorField,
    tol: float,
    max_iter: int,
    split_m: int,
    q_den: float,
) -> tuple[VectorField, EllipticSolveStats, VectorField]:
    grid = a.grid
    a_low = reused_factor(build_ladder(grid).low_pass(a, split_m))
    a_high = reused_factor(a - a_low)
    if coefficient_floor(a_low) <= 0.0:
        raise ValueError("low-frequency coefficient part loses positivity; raise split_m")
    g, qres = VectorField.zero(grid), math.inf
    inner_tol = max(0.1 * tol, 1e-14)
    for it in range(1, max_iter + 1):
        hg = VectorField(multiply(a_high, g.u1), multiply(a_high, g.u2))
        rhs = drop_nyquist(-1.0 * divergence(F - hg))
        pi, _ = _pcg_potential(a_low, rhs, q_den, inner_tol, 10 * max_iter)
        g = gradient(pi)
        flux = weight_by(a, g)
        qres = _defect_norm(F, flux) / q_den
        if qres <= tol:
            return g, EllipticSolveStats(it, qres, split_m), flux
    raise RuntimeError(
        f"splitting iteration (m={split_m}) did not reach tol={tol:.1e}"
        f" in {max_iter} outer steps (residual {qres:.3e})"
    )
