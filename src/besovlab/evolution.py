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
  the data), and of the pressure gradient, plus quadratic energies and
  optional viscosity-tail monitors.
* :func:`energy_diagnostics` — post-hoc energy balance of the correction
  velocity against a heat reference launched at the first snapshot, valid
  for constant viscosity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    require_solenoidal,
    reused_factor,
)

__all__ = [
    "CFLViolation",
    "DiagnosticsSeries",
    "IntegrationConfig",
    "StateSnapshot",
    "ViscosityLaw",
    "energy_diagnostics",
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

    ``kappa`` is the lower bound on 1 + a recorded when the trajectory starts;
    later snapshots re-check it (with a small advection-scheme allowance).
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
    named series (monitors, defects) ride along in ``extra``.
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
        for key, series in self.extra.items():
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
    the stiffest variable-coefficient scales.  Each stage solves the pressure.
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
    # the step's own handle on a: its product samples serve every product and
    # solve below, and are dropped with it rather than kept in the snapshot
    coeff = reused_factor(a)

    def explicit_rate(F: VectorField, w: VectorField, guess: VectorField | None):
        grad_pi, _, flux = solve_pressure(
            coeff, F, tol=pressure_tol, max_iter=pressure_max_iter, initial_guess=guess
        )
        return F - flux - _vector_laplacian(w) * mu0, grad_pi

    def heat(w: VectorField) -> VectorField:
        return heat_propagate(w, mu0, dt)

    u0 = state.u
    F1 = _forcing(coeff, mu_a, u0)
    k1, gp1 = explicit_rate(F1, u0, state.gradPi)
    u_star = heat(u0 + k1 * dt)
    F2 = _forcing(coeff, mu_a, u_star)
    k2, gp2 = explicit_rate(F2, u_star, gp1)
    u_new = heat(u0) + (heat(k1) + k2) * (0.5 * dt)

    if split_m is not None:
        b = SpectralField.from_physical(grid, visc.b_values(a_vals))
        b_low = reused_factor(build_ladder(grid).low_pass(b, split_m))
        dw = u_new - u_star  # the correction is linear in the velocity
        correction = _strain_divergence(b_low, derivative(dw, (1, 0)), derivative(dw, (0, 1)))
        F2s = F2 + correction
        k2s, gp2 = explicit_rate(F2s, u_star, gp2)
        u_new = heat(u0) + (heat(k1) + k2s) * (0.5 * dt)

    u_new = leray_project(u_new)
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
        if self.epsilon_budget <= 0.0:
            raise ValueError("epsilon budget must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot cadence must be >= 1")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)


def ns_integrate(
    config: IntegrationConfig, a0: SpectralField, u0: VectorField
) -> tuple[list[StateSnapshot], DiagnosticsSeries]:
    """Advance the coupled system to the horizon, collecting diagnostics.

    Each step is a Strang composition: half a transport step, a full momentum
    step, half a transport step.  Only sampled steps (every ``snapshot_every``
    and the last) re-solve the pressure at their end, so each sampled state
    carries its own pressure; other steps pass their last stage's on as a warm
    start.  The run ends early, with the reason in ``stop_reason``, if Z
    exceeds the budget (``budget_exceeded``), the velocity outgrows the CFL
    bound (``cfl_violation``), a step yields a non-finite velocity or pressure
    forcing (``non_finite``), a pressure solve fails (``solver_failure``), or a
    state check rejects a step's state, such as a coefficient floor that fell
    below the recorded one (``invalid_state``).
    An error stop keeps its step index and message in ``stop_cause``.
    """
    grid = a0.grid
    kappa = require_floor(a0)
    a_range = (float(a0.values.min()), float(a0.values.max()))
    config.visc.require_positive(*a_range)

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
    for m in config.monitor_ms:
        extra[f"smallness_m{m}"] = []
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
        for m in config.monitor_ms:
            a_vals = st.a.values
            b_f = SpectralField.from_physical(grid, config.visc.b_values(a_vals))
            lam_f = SpectralField.from_physical(grid, np.asarray(config.visc.lam(a_vals), dtype=float))
            tail = besov_norm(centered(b_f) - ladder.low_pass(centered(b_f), m), spec_scalar)[0]
            tail += besov_norm(centered(lam_f) - ladder.low_pass(centered(lam_f), m), spec_scalar)[0]
            extra[f"smallness_m{m}"].append((1.0 + A_val) ** 3 * tail)
        return Z_val

    trajectory = [state]
    stop_reason, stop_cause = "completed", None
    z_now = sample(state)
    if z_now > config.epsilon_budget:
        stop_reason = "budget_exceeded"
    else:
        for step in range(1, config.steps + 1):
            sampled = step % config.snapshot_every == 0 or step == config.steps
            try:
                _require_cfl(state.u, config.dt)
                a_half = transport_step(state.a, state.u, 0.5 * config.dt, config.scheme)
                mid = StateSnapshot(state.t, a_half, state.u, state.gradPi, kappa=kappa)
                moved = momentum_step(
                    mid,
                    config.visc,
                    config.dt,
                    config.split_m,
                    pressure_tol=config.pressure_tol,
                    pressure_max_iter=config.pressure_max_iter,
                    end_pressure=sampled,
                )
                a_new = transport_step(a_half, moved.u, 0.5 * config.dt, config.scheme)
                state = StateSnapshot(moved.t, a_new, moved.u, moved.gradPi, kappa=kappa)
            except (FloatingPointError, RuntimeError, ValueError) as exc:  # CFLViolation is a RuntimeError
                stop_reason = ("cfl_violation" if isinstance(exc, CFLViolation)
                               else "non_finite" if isinstance(exc, FloatingPointError)
                               else "invalid_state" if isinstance(exc, ValueError) else "solver_failure")
                stop_cause = f"step {step}: {exc}"
                break
            if sampled:
                trajectory.append(state)
                z_now = sample(state)
                if z_now > config.epsilon_budget:
                    stop_reason = "budget_exceeded"
                    break

    diagnostics = DiagnosticsSeries(
        **{name: tuple(values) for name, values in series.items()},
        stop_reason=stop_reason,
        stop_cause=stop_cause,
        extra={k: tuple(v) for k, v in extra.items()},
    )
    return trajectory, diagnostics


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------

def energy_diagnostics(
    trajectory: list[StateSnapshot],
    *,
    visc: ViscosityLaw,
) -> DiagnosticsSeries:
    """Energy balance of the correction velocity against a heat reference.

    From the first snapshot a pure diffusion reference u_F evolves forward;
    the correction ubar = u - u_F then satisfies an energy identity whose
    residual is measured here by finite differences:

        defect(t) = | d/dt E0 / 2 + mu E1 - int ubar . Gforce |

    with Gforce collecting the density-weighted interaction of the reference
    flow with itself and with the correction.  Only constant viscosity laws
    are admitted.  Returned series: E0, E1, E2 plus the defect, the pointwise
    density range, and the reference convection size in ``extra``.
    """
    if visc.kind != "constant":
        raise ValueError("energy diagnostics require a constant viscosity law")
    if not trajectory:
        raise ValueError("empty trajectory")
    mu = float(visc.mu_tilde(0.0))
    base = trajectory[0]
    grid = base.grid
    area = grid.cell_area

    series: dict[str, list[float]] = {
        name: [] for name in ("E0", "E1", "E2", "energy_rhs", "convection_l2", "rho_min", "rho_max")
    }
    prev: tuple[float, VectorField] | None = None
    for st in trajectory:
        u_F = heat_propagate(base.u, mu, st.t - base.t)
        ubar = st.u - u_F
        rho = st.rho_values()
        rho_f = reused_factor(SpectralField.from_physical(grid, rho))
        drive = _vector_laplacian(u_F) * mu
        conv_F = advect_vector(u_F, u_F)
        # drive - rho (drive + (u_F . grad) u_F + (ubar . grad) u_F), one product per component
        pull = drive + conv_F + advect_vector(ubar, u_F)
        gforce = drive - VectorField(multiply(rho_f, pull.u1), multiply(rho_f, pull.u2))
        values = (
            _weighted_energy(rho, ubar),
            _enstrophy(ubar),
            _rate_energy(rho, st.t, ubar, prev),
            float(np.sum(ubar.u1.values * gforce.u1.values
                         + ubar.u2.values * gforce.u2.values)) * area,
            l2_norm(conv_F),
            float(rho.min()),
            float(rho.max()),
        )
        prev = (st.t, ubar)
        for name, value in zip(series, values):
            series[name].append(value)

    out = {name: tuple(values) for name, values in series.items()}
    k = len(trajectory)
    t_arr = np.array([s.t for s in trajectory])
    e0_arr = np.array(out["E0"])
    defect: list[float] = []
    for i in range(k):
        # central difference inside, one-sided at the ends
        lo, hi = max(i - 1, 0), min(i + 1, k - 1)
        de0 = (e0_arr[hi] - e0_arr[lo]) / (t_arr[hi] - t_arr[lo]) if k > 1 else 0.0
        defect.append(abs(0.5 * de0 + mu * out["E1"][i] - out["energy_rhs"][i]))

    zeros = tuple(0.0 for _ in range(k))
    return DiagnosticsSeries(
        times=tuple(float(t) for t in t_arr),
        A=zeros,
        Z=zeros,
        E0=out.pop("E0"),
        E1=out.pop("E1"),
        E2=out.pop("E2"),
        extra={"energy_defect": tuple(defect), **out},
    )
