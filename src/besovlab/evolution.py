"""Time integration of transported-coefficient incompressible flow.

The dynamics couple a materially transported scalar ``a`` (the reciprocal
density fluctuation, rho = 1/(1+a)) to an incompressible velocity ``u`` whose
viscosity depends on ``a``:

    da/dt + u . grad a = 0
    du/dt + u . grad u = (1+a) { div(2 mu(a) M(u)) - grad Pi }
    div u = 0

with M(u) the symmetric strain.  Taking the divergence of the momentum
equation closes the pressure through div((1+a) grad Pi) = div F, which is the
rough-coefficient solve provided by :mod:`besovlab.elliptic`.

The integrator family:

* :func:`transport_step` — one advection step for ``a``, either dealiased
  spectral SSP-RK3 or semi-Lagrangian with cubic interpolation (optionally
  clipped to the local data range so no new extrema appear).
* :func:`momentum_step` — one second-order step for ``u``.  The constant part
  of the viscosity is integrated exactly by a spectral heat factor; the
  variable remainder, convection, and the pressure force are explicit.  The
  low-frequency part of the variable viscosity can be nudged toward implicit
  treatment with one fixed-point sweep (``split_m``).
* :func:`ns_integrate` — Strang composition of the two steps with running
  diagnostics: Chemin-Lerner time-space norms (:class:`~besovlab.norms.RunningTimeNorm`)
  of ``a``, of the correction ``u - u_L`` (u_L the exact heat evolution of
  the data), and of the pressure gradient, plus quadratic energies,
  optional viscosity-tail monitors and, for constant viscosity, the optional
  energy balance of the correction, sampled in the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import build_ladder
from .elliptic import coefficient_floor, require_floor, solve_pressure
from .interpolation import PeriodicSampler, cell_bounds
from .lagrangian import rk4_step
from .norms import BesovSpec, RunningTimeNorm, besov_norm
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    advect,
    advect_vector,
    centered,
    derivative,
    divergence,
    heat_propagate,
    l2_norm,
    leray_project,
    multiply,
    refine,
    require_solenoidal,
    reused_factor,
)

__all__ = [
    "CFLViolation",
    "DiagnosticsSeries",
    "IntegrationConfig",
    "StateSnapshot",
    "ViscosityLaw",
    "momentum_step",
    "ns_integrate",
    "transport_step",
    "TRANSPORT_SCHEMES",
    "VISCOSITY_KINDS",
]

TRANSPORT_SCHEMES = ("spectral", "semi_lagrangian", "semi_lagrangian_monotone")
VISCOSITY_KINDS = ("constant", "affine", "exponential")
_FLOOR_SLACK = 1e-3


class CFLViolation(RuntimeError):
    """Raised when a requested step exceeds the advective stability bound."""


def cfl_number(u: VectorField, dt: float) -> float:
    """Advective Courant number dt * |u|_inf * n / L."""
    grid = u.grid
    return dt * u.linf() * grid.n / grid.L


def _require_cfl(u: VectorField, dt: float) -> None:
    c = cfl_number(u, dt)
    if not c <= 0.5 + 1e-12:  # also rejects NaN
        raise CFLViolation(f"CFL number {c:.3f} exceeds 0.5; shrink dt or the velocity")


def _weighted_energy(rho: np.ndarray, w: VectorField) -> float:
    """Density-weighted energy: the quadrature of rho |w|^2."""
    return float(np.sum(rho * (w.u1.values**2 + w.u2.values**2))) * w.grid.cell_area


def _enstrophy(w: VectorField) -> float:
    """Squared L2 norm of the gradient of w."""
    return l2_norm(derivative(w, (1, 0))) ** 2 + l2_norm(derivative(w, (0, 1))) ** 2


def _rate_energy(rho: np.ndarray, t: float, w: VectorField, prev: tuple | None) -> float:
    """Weighted energy of the backward difference quotient of w against ``prev = (t, w)``; 0 without one."""
    if prev is None:
        return 0.0
    t_prev, w_prev = prev
    return _weighted_energy(rho, (w - w_prev) * (1.0 / (t - t_prev)))


# ---------------------------------------------------------------------------
# viscosity laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViscosityLaw:
    """Pointwise viscosity as a function of the transported scalar.

    Three shapes are supported, each with a closed-form antiderivative:

    * ``constant``  — mu(a) = mu0
    * ``affine``    — mu as an affine function of the density: mu0 + mu1/(1+a)
    * ``exponential`` — mu0 * exp(beta * a), with ``mu1`` as beta

    Derived quantities: ``b(a) = (1+a) mu(a) - mu(0)`` is the coefficient of
    the variable part of the momentum diffusion once the constant part is
    split off, and ``lam(a)`` is the antiderivative of mu from 0 to a.
    """

    kind: str
    mu0: float
    mu1: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in VISCOSITY_KINDS:
            raise ValueError(f"unknown viscosity law {self.kind!r}")
        if not (math.isfinite(self.mu0) and math.isfinite(self.mu1)):
            raise ValueError("viscosity parameters must be finite")
        if self.mu_tilde(0.0) <= 0.0:
            raise ValueError(f"viscosity at a=0 must be positive, got {self.mu_tilde(0.0):.3e}")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or self.mu1 == 0.0

    def mu_tilde(self, a):
        """Viscosity evaluated at scalar value(s) a."""
        if self.kind == "constant":
            return self.mu0 if np.isscalar(a) else np.full_like(np.asarray(a, dtype=float), self.mu0)
        if self.kind == "affine":
            return self.mu0 + self.mu1 / (1.0 + a)
        return self.mu0 * np.exp(self.mu1 * a)

    def lam(self, a):
        """Antiderivative of the viscosity, vanishing at a = 0."""
        if self.is_constant:
            return self.mu0 * np.asarray(a, dtype=float) if not np.isscalar(a) else self.mu0 * a
        if self.kind == "affine":
            return self.mu0 * a + self.mu1 * np.log1p(a)
        return self.mu0 * np.expm1(self.mu1 * a) / self.mu1

    def b_values(self, a_values: np.ndarray) -> np.ndarray:
        """Variable diffusion coefficient (1+a) mu(a) - mu(0) on the nodes."""
        return (1.0 + a_values) * self.mu_tilde(a_values) - self.mu_tilde(0.0)

    def require_positive(self, a_min: float, a_max: float) -> None:
        """Check positivity of the viscosity over the attained scalar range."""
        samples = np.linspace(a_min, a_max, 257)
        lo = float(np.min(self.mu_tilde(samples)))
        if lo <= 0.0:
            raise ValueError(
                f"viscosity positivity violation: min mu over [{a_min:.3g}, {a_max:.3g}] = {lo:.3e}"
            )


# ---------------------------------------------------------------------------
# state and diagnostics containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSnapshot:
    """One instant of the coupled system: scalar, velocity, pressure gradient.

    ``kappa`` is the floor of 1 + a recorded at the start (the node minimum if
    not given); later snapshots re-check their node minimum, with a small allowance.
    """

    t: float
    a: SpectralField
    u: VectorField
    gradPi: VectorField
    kappa: float | None = None

    def __post_init__(self) -> None:
        grid = self.a.grid
        if self.u.grid != grid or self.gradPi.u1.grid != grid:
            raise ValueError("snapshot fields must share one grid")
        if not math.isfinite(self.t):
            raise ValueError("snapshot time must be finite")
        require_solenoidal(self.u)
        if self.kappa is None:
            object.__setattr__(self, "kappa", require_floor(self.a))
        else:
            # negated comparisons, so a NaN floor or recorded kappa is rejected too
            if not self.kappa > 0.0:
                raise ValueError(f"recorded floor must be positive, got {self.kappa:.3e}")
            floor = coefficient_floor(self.a)
            if not floor >= self.kappa - _FLOOR_SLACK * max(1.0, abs(self.kappa)):
                raise ValueError(
                    f"coefficient floor violation: min(1+a) = {floor:.3e} fell below recorded {self.kappa:.3e}"
                )

    @property
    def grid(self) -> Grid:
        return self.a.grid

    def rho_values(self) -> np.ndarray:
        """Density values 1/(1+a) on the grid nodes."""
        return 1.0 / (1.0 + self.a.values)


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Per-sample-time scalar diagnostics of a trajectory.

    ``A`` is the scalar's critical Chemin-Lerner norm sup-in-time so far,
    L~inf(B^{2/p}_{p,1}); ``Z`` adds the heat-corrected velocity's
    L~inf(B^{2/p-1}_{p,1}) and L~1(B^{2/p+1}_{p,1}) norms and the pressure
    gradient's L~1(B^{2/p-1}_{p,1}) norm, each a :class:`RunningTimeNorm`.
    ``E0``/``E1``/``E2`` are the density-weighted kinetic energy, the enstrophy
    of the correction, and the weighted energy of its time derivative.  Extra
    series (monitors) ride along in ``extra``, the energy balance's in ``energy``.
    """

    times: tuple[float, ...]
    A: tuple[float, ...]
    Z: tuple[float, ...]
    E0: tuple[float, ...]
    E1: tuple[float, ...]
    E2: tuple[float, ...]
    stop_reason: str = "completed"
    stop_cause: str | None = None
    extra: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        k = len(self.times)
        for name in ("A", "Z", "E0", "E1", "E2"):
            series = getattr(self, name)
            if len(series) != k:
                raise ValueError(f"series {name} has {len(series)} entries for {k} times")
            arr = np.asarray(series, dtype=float)
            if k and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
                raise ValueError(f"series {name} must be finite and nonnegative")
        for name in ("A", "Z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size >= 2:
                drops = np.diff(arr) < -1e-12 * max(1.0, float(arr.max()))
                if np.any(drops):
                    raise ValueError(f"cumulative series {name} must be nondecreasing")
        for key, series in (*self.extra.items(), *self.energy.items()):
            if len(series) != k:
                raise ValueError(f"extra series {key!r} has {len(series)} entries for {k} times")

    def write_csv(self, path) -> None:
        names = ["t", "A", "Z", "E0", "E1", "E2"] + sorted(self.extra)
        rows = [",".join(names)]
        for i, t in enumerate(self.times):
            vals = [t, self.A[i], self.Z[i], self.E0[i], self.E1[i], self.E2[i]]
            vals += [self.extra[k][i] for k in sorted(self.extra)]
            rows.append(",".join(f"{v:.17g}" for v in vals))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _transport_spectral(a: SpectralField, u: VectorField, dt: float) -> SpectralField:
    u = u.map(reused_factor)

    def tendency(f: SpectralField) -> SpectralField:
        return -1.0 * advect(u, f)

    s1 = a + tendency(a) * dt
    s2 = a * 0.75 + (s1 + tendency(s1) * dt) * 0.25
    return a * (1.0 / 3.0) + (s2 + tendency(s2) * dt) * (2.0 / 3.0)


def _departure_points(u: VectorField, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Backward fourth-order particle step from every node under steady u.

    The read-only points are kept on u, keyed by dt, so a velocity that
    transports more than once at one step size is traced once.
    """
    held = u.__dict__.setdefault("_departure_points", {})
    if dt not in held:
        sampler = PeriodicSampler.of_vector(u)
        points = rk4_step(lambda t, x, y: sampler.at(x, y), 0.0, *u.grid.coords, -dt)
        for p in points:
            p.flags.writeable = False
        held[dt] = points
    return held[dt]


def transport_step(
    a: SpectralField, u: VectorField, dt: float, scheme: str = "spectral"
) -> SpectralField:
    """Advance the transported scalar by one step of size dt.

    ``spectral`` runs dealiased SSP-RK3 on the advection tendency;
    ``semi_lagrangian`` traces characteristics back and interpolates;
    ``semi_lagrangian_monotone`` additionally clips each interpolated value to
    the corner values of its base cell, so the data range can only shrink.
    The semi-Lagrangian departure points are traced once per velocity object
    and step size, so steady transport and both Strang half steps under one
    velocity reuse them.
    """
    if scheme not in TRANSPORT_SCHEMES:
        raise ValueError(f"unknown transport scheme {scheme!r}; choose from {TRANSPORT_SCHEMES}")
    if dt < 0.0:
        raise ValueError("transport requires dt >= 0")
    if dt == 0.0:
        return a
    require_solenoidal(u)
    _require_cfl(u, dt)
    if scheme == "spectral":
        return _transport_spectral(a, u, dt)
    xd, yd = _departure_points(u, dt)
    (vals,) = PeriodicSampler.of_scalar(a).at(xd, yd)
    if scheme == "semi_lagrangian_monotone":
        lo, hi = cell_bounds(a, xd, yd)
        vals = np.clip(vals, lo, hi)
    return SpectralField.from_physical(a.grid, vals)


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

def _vector_laplacian(w: VectorField) -> VectorField:
    return derivative(w, (2, 0)) + derivative(w, (0, 2))


def _strain_divergence(coeff: SpectralField, d1w: VectorField, d2w: VectorField) -> VectorField:
    """div(2 c M(w)) for a scalar coefficient c, from d1w = d1 w and d2w = d2 w, with dealiased products."""
    s11 = multiply(coeff, d1w.u1) * 2.0
    s12 = multiply(coeff, d2w.u1, (coeff, d1w.u2))
    s22 = multiply(coeff, d2w.u2) * 2.0
    return VectorField(divergence(VectorField(s11, s12)), divergence(VectorField(s12, s22)))


def _forcing(coeff: SpectralField, mu_a: SpectralField, w: VectorField) -> VectorField:
    """Momentum forcing (1+a) S - (w . grad) w, S = div(2 mu(a) M(w)), as S_i - (a (-S_i) + w . grad w_i)."""
    coeff, mu_a, w = reused_factor(coeff), reused_factor(mu_a), w.map(reused_factor)
    d1w, d2w = (derivative(w, alpha).map(reused_factor) for alpha in ((1, 0), (0, 1)))
    strain = _strain_divergence(mu_a, d1w, d2w)
    return VectorField(*(
        s - multiply(coeff, -s, (w.u1, d1), (w.u2, d2))
        for s, d1, d2 in zip(strain.components, d1w.components, d2w.components)
    ))


def momentum_step(
    state: StateSnapshot,
    visc: ViscosityLaw,
    dt: float,
    split_m: int | None = None,
    *,
    pressure_tol: float = 1e-10,
    pressure_max_iter: int = 500,
    end_pressure: bool = True,
) -> StateSnapshot:
    """Advance the velocity by one step of size dt at frozen scalar.

    The constant diffusion mu(0) Delta is integrated exactly through a
    spectral exponential factor; everything else — convection, the variable
    part of the diffusion, and the pressure force balancing the constraint —
    enters through a two-stage explicit rule on the transformed variable,
    which is second-order accurate.  Passing ``split_m`` refines the second
    stage once: the low-pass part of the variable diffusion coefficient is
    re-evaluated at the provisional endpoint, imitating implicit treatment of
    the stiffest variable-coefficient scales.  Each stage solves the pressure
    on the step's one coefficient handle, each warm started from the solve
    before it, so only the first stage forms its guess's flux: the later ones
    reuse the flux that the solve before carried.
    With ``end_pressure`` (the default) the returned snapshot carries the
    pressure gradient re-solved at the final velocity, so it is registered at
    the snapshot's own time; without it, the last stage's, fit only to
    warm-start the next step.  A non-finite velocity or forcing raises FloatingPointError.
    """
    if dt <= 0.0:
        raise ValueError("momentum step requires dt > 0")
    _require_cfl(state.u, dt)
    grid = state.grid
    a = state.a
    a_vals = a.values
    visc.require_positive(float(a_vals.min()), float(a_vals.max()))
    mu0 = float(visc.mu_tilde(0.0))
    mu_a = reused_factor(SpectralField.from_physical(grid, np.asarray(visc.mu_tilde(a_vals), dtype=float)))
    # the step's own handle on a: its product samples and its last solve's flux serve
    # every product and solve below, and are dropped with it rather than kept in the snapshot
    coeff = reused_factor(a)

    def explicit_rate(F: VectorField, w: VectorField, guess: VectorField | None):
        grad_pi, _, flux = solve_pressure(
            coeff, F, tol=pressure_tol, max_iter=pressure_max_iter, initial_guess=guess
        )
        return F - flux - _vector_laplacian(w) * mu0, grad_pi

    def heat(w: VectorField) -> VectorField:
        return heat_propagate(w, mu0, dt)

    u0 = state.u
    k1, gp1 = explicit_rate(_forcing(coeff, mu_a, u0), u0, state.gradPi)
    u_star = heat(u0 + k1 * dt)
    F2 = _forcing(coeff, mu_a, u_star)
    k2, gp2 = explicit_rate(F2, u_star, gp1)

    if split_m is not None:
        b = SpectralField.from_physical(grid, visc.b_values(a_vals))
        b_low = reused_factor(build_ladder(grid).low_pass(b, split_m))
        dw = heat(u0) + (heat(k1) + k2) * (0.5 * dt) - u_star  # the correction is linear in the velocity
        correction = _strain_divergence(b_low, derivative(dw, (1, 0)), derivative(dw, (0, 1)))
        k2, gp2 = explicit_rate(F2 + correction, u_star, gp2)

    u_new = leray_project(heat(u0) + (heat(k1) + k2) * (0.5 * dt))
    if not all(np.isfinite(c.modes).all() for c in u_new.components):
        raise FloatingPointError(f"momentum step from t={state.t:.6g} gave a non-finite velocity")
    if end_pressure:
        gp2, _, _ = solve_pressure(
            coeff, _forcing(coeff, mu_a, u_new), tol=pressure_tol, max_iter=pressure_max_iter, initial_guess=gp2
        )
    return StateSnapshot(state.t + dt, a, u_new, gp2, kappa=state.kappa)


# ---------------------------------------------------------------------------
# full integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationConfig:
    """Knobs for :func:`ns_integrate`.

    ``epsilon_budget`` stops the run once the accumulated correction
    functional Z exceeds it; the large default effectively disables the stop.
    ``monitor_ms`` asks for the viscosity-tail smallness monitors
    (1+A)^3 |b - S_m b, lam - S_m lam| at those low-pass octaves.

    ``energy`` samples the energy balance of the correction ubar = u - u_L
    into :attr:`DiagnosticsSeries.energy`; it needs a constant viscosity mu.
    The balance's residual is

        energy_defect(t) = | d/dt E0 / 2 + mu E1 - energy_rhs |,

    with d/dt a finite difference of the sampled E0 and ``energy_rhs`` the
    integral of ubar . G, G the density-weighted interaction of u_L with itself
    and with ubar.  ``convection_l2`` is the L2 norm of (u_L . grad) u_L, and
    ``rho_min``/``rho_max`` the density range.
    """

    T: float
    dt: float
    visc: ViscosityLaw = ViscosityLaw("constant", 1.0)
    p: float = 2.0
    scheme: str = "spectral"
    split_m: int | None = None
    epsilon_budget: float = 1e3
    snapshot_every: int = 1
    monitor_ms: tuple[int, ...] = ()
    pressure_tol: float = 1e-10
    pressure_max_iter: int = 500
    energy: bool = False

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and self.dt > 0.0 and self.dt <= self.T + 1e-15):
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"horizon T={self.T} is not an integer number of steps of dt={self.dt}")
        if self.scheme not in TRANSPORT_SCHEMES:
            raise ValueError(f"unknown transport scheme {self.scheme!r}")
        if not 1.0 < self.p < 4.0:
            raise ValueError(f"exponent p must lie in (1, 4), got {self.p}")
        if not self.epsilon_budget > 0.0:  # negated comparisons here reject NaN too
            raise ValueError(f"epsilon budget must be positive, got {self.epsilon_budget}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot cadence must be >= 1")
        if not self.pressure_tol > 0.0:
            raise ValueError(f"pressure tolerance must be positive, got {self.pressure_tol}")
        if self.pressure_max_iter < 1:
            raise ValueError(f"pressure iteration cap must be >= 1, got {self.pressure_max_iter}")
        if self.energy and self.visc.kind != "constant":
            raise ValueError(f"the energy balance needs a constant viscosity law, not {self.visc.kind!r}")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)


def _strang_step(state: StateSnapshot, config: IntegrationConfig, end_pressure: bool) -> StateSnapshot:
    """One coupled step: half a transport step, a full momentum step, half a transport step."""
    _require_cfl(state.u, config.dt)  # at the full dt, so a stop names the step's Courant number
    mid = replace(state, a=transport_step(state.a, state.u, 0.5 * config.dt, config.scheme))
    moved = momentum_step(
        mid,
        config.visc,
        config.dt,
        config.split_m,
        pressure_tol=config.pressure_tol,
        pressure_max_iter=config.pressure_max_iter,
        end_pressure=end_pressure,
    )
    return replace(moved, a=transport_step(moved.a, moved.u, 0.5 * config.dt, config.scheme))


def ns_integrate(
    config: IntegrationConfig, a0: SpectralField, u0: VectorField
) -> tuple[list[StateSnapshot], DiagnosticsSeries]:
    """Advance the coupled system to the horizon, collecting diagnostics.

    Each step is :func:`_strang_step`: half a transport step, a full momentum
    step, half a transport step.  Only sampled steps (every ``snapshot_every``
    and the last) re-solve the pressure at their end, so each sampled state
    carries its own pressure; other steps pass their last stage's on as a warm
    start.  The run ends early, with the reason in ``stop_reason``, if Z
    exceeds the budget (``budget_exceeded``), the velocity outgrows the CFL
    bound (``cfl_violation``), a step yields a non-finite velocity or pressure
    forcing (``non_finite``), a pressure solve fails (``solver_failure``), or a
    state check rejects a step's state, such as a node minimum of 1 + a below
    the floor recorded from a0's polynomial on the 4x refined grid (``invalid_state``).
    An error stop keeps its step index and message in ``stop_cause``.
    """
    grid = a0.grid
    # transport keeps the polynomial's infimum, which can dip below a0's node minimum
    kappa = require_floor(refine(a0, 4))
    config.visc.require_positive(float(a0.values.min()), float(a0.values.max()))

    ladder = build_ladder(grid)
    mu0 = float(config.visc.mu_tilde(0.0))
    p = config.p
    spec_scalar = BesovSpec(s=2.0 / p, p=p, r=1.0)
    spec_low = BesovSpec(s=2.0 / p - 1.0, p=p, r=1.0)
    spec_high = BesovSpec(s=2.0 / p + 1.0, p=p, r=1.0)

    u_start = leray_project(u0)
    mu_a0 = SpectralField.from_physical(grid, np.asarray(config.visc.mu_tilde(a0.values), dtype=float))
    grad_pi0, _, _ = solve_pressure(
        a0,
        _forcing(a0, mu_a0, u_start),
        tol=config.pressure_tol,
        max_iter=config.pressure_max_iter,
    )
    state = StateSnapshot(0.0, a0, u_start, grad_pi0, kappa=kappa)

    norm_A = RunningTimeNorm(spec_scalar, math.inf)
    norm_ubar_sup = RunningTimeNorm(spec_low, math.inf)
    norm_ubar_smooth = RunningTimeNorm(spec_high, 1.0)
    norm_pressure = RunningTimeNorm(spec_low, 1.0)
    norm_uL = RunningTimeNorm(spec_high, 1.0)

    series: dict[str, list[float]] = {name: [] for name in ("times", "A", "Z", "E0", "E1", "E2")}
    extra: dict[str, list[float]] = {"cfl": [], "uL_smooth_integral": []}
    energy = {name: [] for name in ("energy_rhs", "convection_l2", "rho_min", "rho_max") if config.energy}
    prev_ubar: tuple[float, VectorField] | None = None

    def sample(st: StateSnapshot) -> float:
        nonlocal prev_ubar
        u_L = heat_propagate(u_start, mu0, st.t)
        ubar = st.u - u_L
        ubar_c = centered(ubar)
        A_val = norm_A.update(st.t, centered(st.a))
        Z_val = (
            norm_ubar_sup.update(st.t, ubar_c)
            + norm_ubar_smooth.update(st.t, ubar_c)
            + norm_pressure.update(st.t, centered(st.gradPi))
        )
        rho = st.rho_values()
        values = (st.t, A_val, Z_val, _weighted_energy(rho, ubar), _enstrophy(ubar),
                  _rate_energy(rho, st.t, ubar, prev_ubar))
        prev_ubar = (st.t, ubar)
        for name, value in zip(series, values):
            series[name].append(value)
        extra["cfl"].append(cfl_number(st.u, config.dt))
        extra["uL_smooth_integral"].append(norm_uL.update(st.t, centered(u_L)))
        tail_fields = [  # the centered b(a) and lam(a), built once per sample
            centered(SpectralField.from_physical(grid, np.asarray(law(st.a.values), dtype=float)))
            for law in (config.visc.b_values, config.visc.lam) if config.monitor_ms
        ]
        for m in config.monitor_ms:
            tail = sum(besov_norm(f - ladder.low_pass(f, m), spec_scalar)[0] for f in tail_fields)
            extra.setdefault(f"smallness_m{m}", []).append((1.0 + A_val) ** 3 * tail)
        if config.energy:
            rho_f = reused_factor(SpectralField.from_physical(grid, rho))
            drive, conv_L = _vector_laplacian(u_L) * mu0, advect_vector(u_L, u_L)
            # G = drive - rho (drive + (u_L . grad) u_L + (ubar . grad) u_L), one product per component
            pull = drive + conv_L + advect_vector(ubar, u_L)
            G = drive - VectorField(multiply(rho_f, pull.u1), multiply(rho_f, pull.u2))
            rhs = float(np.sum(ubar.u1.values * G.u1.values + ubar.u2.values * G.u2.values)) * grid.cell_area
            for name, value in zip(energy, (rhs, l2_norm(conv_L), float(rho.min()), float(rho.max()))):
                energy[name].append(value)
        return Z_val

    trajectory: list[StateSnapshot] = []
    stop_reason, stop_cause = "completed", None
    for step in range(config.steps + 1):  # step 0 is the initial state
        sampled = step % config.snapshot_every == 0 or step == config.steps
        if step:
            try:
                state = _strang_step(state, config, sampled)
            except (FloatingPointError, RuntimeError, ValueError) as exc:  # CFLViolation is a RuntimeError
                stop_reason = ("cfl_violation" if isinstance(exc, CFLViolation)
                               else "non_finite" if isinstance(exc, FloatingPointError)
                               else "invalid_state" if isinstance(exc, ValueError) else "solver_failure")
                stop_cause = f"step {step}: {exc}"
                break
        if sampled:
            trajectory.append(state)
            if sample(state) > config.epsilon_budget:
                stop_reason = "budget_exceeded"
                break

    if config.energy:
        t, E0, k = series["times"], series["E0"], len(series["times"])
        ends = [(max(i - 1, 0), min(i + 1, k - 1)) for i in range(k)]
        energy["energy_defect"] = [  # central difference inside, one-sided at the ends
            abs(0.5 * ((E0[hi] - E0[lo]) / (t[hi] - t[lo]) if k > 1 else 0.0) + mu0 * E1 - rhs)
            for (lo, hi), E1, rhs in zip(ends, series["E1"], energy["energy_rhs"])
        ]
    diagnostics = DiagnosticsSeries(
        **{name: tuple(values) for name, values in series.items()},
        stop_reason=stop_reason,
        stop_cause=stop_cause,
        extra={k: tuple(v) for k, v in extra.items()},
        energy={k: tuple(v) for k, v in energy.items()},
    )
    return trajectory, diagnostics

