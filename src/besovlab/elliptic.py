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


def _flux(a: SpectralField, p: SpectralField) -> VectorField:
    """(1+a) grad p, the flux whose divergence the form takes: two dealiased products."""
    return weight_by(a, gradient(p))


def _form(flux: VectorField) -> SpectralField:
    """-div of a flux on the derivative-resolved subspace; the form applied to p is _form(_flux(a, p))."""
    return drop_nyquist(-1.0 * divergence(flux))


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
    start: tuple[SpectralField, VectorField] | None = None,
) -> tuple[SpectralField, VectorField, int]:
    """Conjugate gradients for -div((1+a) grad pi) = rhs_div, mean-free pi, preconditioned by B.

    ``start`` is a potential and its flux (1+a) grad pi, or None for zero.  The flux is
    linear in pi, so flux0 + sum alpha_k (1+a) grad p_k is carried from each step's products.
    """
    if start is None:  # a zero start forms no product: its residual is the right-hand side
        pi, flux, r = SpectralField.zero(a.grid), VectorField.zero(a.grid), rhs_div
    else:
        (pi, flux), r = start, rhs_div - _form(start[1])
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
        flux_p = _flux(a, p)
        ap = _form(flux_p)
        alpha = rz / _inner(p, ap)
        pi = pi + alpha * p
        flux = flux + alpha * flux_p
        r = r - alpha * ap
        qres = _q_norm_of_divergence(r) / q_denominator
    return pi, flux, iterations


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

    Returns grad Pi, the solve's stats and the flux (1+a) grad Pi that
    conjugate gradients carried beside the potential, on which the solve
    accepts.  The relative stopping criterion is on the gradient part of the
    defect: |Q(F - (1+a) grad Pi)| <= tol |QF| in L2.  The solve is
    preconditioned conjugate gradients; passing split_m switches to the outer
    low/high splitting iteration at that octave.  A warm start
    ``initial_guess`` that is the grad Pi of the last solve on this very
    coefficient handle (`reused_factor`) reuses that solve's flux; any other
    forms its flux.  A non-finite forcing raises ``FloatingPointError``.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"iteration cap must be >= 1, got {max_iter}")
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

    rhs = _form(F)
    start = None
    if initial_guess is not None:
        last = a.__dict__.get("_last_solve")  # (grad Pi, Pi, flux) of the last solve on this handle
        if last is not None and last[0] is initial_guess:
            start = last[1:]
        else:
            pi = potential_from_gradient(drop_nyquist(initial_guess))
            start = pi, _flux(a, pi)
    total, true_res = 0, math.inf
    while total < max_iter:
        pi, flux, iters = _pcg_potential(a, rhs, q_den, tol, max_iter - total, start)
        total += max(iters, 1)
        res = _defect_norm(F, flux) / q_den
        if not res <= tol:  # restart from the flux formed anew, so the stall test reads true defects
            flux = _flux(a, pi)
            last_res, true_res = true_res, _defect_norm(F, flux) / q_den
            res = true_res
        if res <= tol:
            g = gradient(pi)
            a.__dict__["_last_solve"] = (g, pi, flux)
            return g, EllipticSolveStats(total, res, None), flux
        if not true_res < last_res:  # a restart no longer lowers the defect: it sits at the rounding floor
            break
        start = pi, flux
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
    high_flux, qres = VectorField.zero(grid), math.inf  # a_high grad Pi of the last outer step
    inner_tol = max(0.1 * tol, 1e-14)
    for it in range(1, max_iter + 1):
        pi, low_flux, _ = _pcg_potential(a_low, _form(F - high_flux), q_den, inner_tol, 10 * max_iter)
        g = gradient(pi)
        high_flux = VectorField(multiply(a_high, g.u1), multiply(a_high, g.u2))
        flux = low_flux + high_flux
        qres = _defect_norm(F, flux) / q_den
        if qres <= tol:
            return g, EllipticSolveStats(it, qres, split_m), flux
    raise RuntimeError(
        f"splitting iteration (m={split_m}) did not reach tol={tol:.1e}"
        f" in {max_iter} outer steps (residual {qres:.3e})"
    )
