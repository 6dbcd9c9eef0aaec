"""Particle trajectories of periodic flows and the associated change of variables.

Grid nodes are advected through a time-dependent velocity field to produce a
flow map, stored as a periodic displacement so the torus topology never
introduces branch cuts.  The inverse Jacobian of the map is the key derived
object: it converts between fixed-frame and co-moving derivatives, and its
deviation from the identity is controlled by time integrals of the velocity
gradient.  This module computes flow maps (RK4 in time, cubic interpolation in
space), evaluates the inverse Jacobian both by direct per-node inversion and
by a truncated geometric series in the integrated velocity gradient, checks
the divergence identity along the map, and measures the ratio between each
side of the stability inequalities that make the co-moving formulation useful.

Matrix-valued fields are ndarrays of shape (n, n, 2, 2) with entry [i, j]
holding the derivative of component i along axis j.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .inequality_lab import RatioReport
from .interpolation import PeriodicSampler
from .norms import BesovSpec, besov_norm, unpack_trajectory
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    centered,
    derivative,
    divergence,
    require_solenoidal,
)

__all__ = [
    "FlowMap",
    "DivergenceIdentityResidual",
    "gradient_tensor",
    "integrate_flow",
    "jacobian_series",
    "rk4_step",
    "check_div_identity",
    "delta_estimates",
]

_IDENTITY = np.eye(2)


# ---------------------------------------------------------------------------
# matrix-field helpers
# ---------------------------------------------------------------------------

def gradient_tensor(V: VectorField) -> np.ndarray:
    """Per-node Jacobian of a vector field, entry [i, j] = d_j V^i."""
    rows = []
    for comp in (V.u1, V.u2):
        rows.append(
            np.stack(
                (derivative(comp, (1, 0)).values, derivative(comp, (0, 1)).values),
                axis=-1,
            )
        )
    return np.stack(rows, axis=-2)


def _invert_per_node(M: np.ndarray) -> np.ndarray:
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if np.min(np.abs(det)) < 1e-12:
        raise ValueError("matrix field is singular at some node; map folded over")
    inv = np.empty_like(M)
    inv[..., 0, 0] = M[..., 1, 1]
    inv[..., 1, 1] = M[..., 0, 0]
    inv[..., 0, 1] = -M[..., 0, 1]
    inv[..., 1, 0] = -M[..., 1, 0]
    return inv / det[..., None, None]


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-node 2x2 product, written out entry by entry: bitwise ``einsum("...ij,...jk->...ik")``."""
    C = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    for i, k in np.ndindex(2, 2):
        np.add(A[..., i, 0] * B[..., 0, k], A[..., i, 1] * B[..., 1, k], out=C[..., i, k])
    return C


def _entry_linf(M: np.ndarray) -> float:
    return float(np.max(np.abs(M)))


def _matrix_besov(M: np.ndarray, grid: Grid, spec: BesovSpec) -> float:
    """Besov size of a matrix field: sum of the entries' norms, means dropped."""
    total = 0.0
    for i, j in np.ndindex(2, 2):
        plane = M[..., i, j]
        f = SpectralField.from_physical(grid, plane - plane.mean())
        total += besov_norm(f, spec)[0]
    return total


def _vector_besov(V: VectorField, spec: BesovSpec) -> float:
    total = 0.0
    for comp in centered(V).components:
        total += besov_norm(comp, spec)[0]
    return total


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _velocity_history(trajectory) -> tuple[tuple[float, ...], list[VectorField], Grid]:
    """Times, solenoidal velocities and grid of (t, u) pairs or snapshots with .t and .u."""
    entries = unpack_trajectory(trajectory, "u")
    fields = [u for _, u in entries]
    for u in fields:
        require_solenoidal(u)
    return tuple(t for t, _ in entries), fields, fields[0].grid


def _require_stored_time(times: tuple[float, ...], t: float) -> None:
    slack = 1e-9 * max(1.0, abs(times[-1]))
    if t < times[0] - slack or t > times[-1] + slack:
        raise ValueError(
            f"interpolation out of stored time range: t={t} not in [{times[0]}, {times[-1]}]"
        )


class _VelocityInTime:
    """Piecewise-linear-in-time velocity built on cubic spatial samplers.

    Only the interval in use holds samplers: its two end snapshots' samplers,
    built the first time an interval needs them, and their join, so a blended
    sample evaluates one shared stencil per point for all four planes.
    Moving to another interval keeps the samplers of the fields it shares
    with the last one (the common end snapshot, or the one field object of a
    steady flow) and drops the rest; a time out of order costs a rebuild.
    """

    def __init__(self, times, fields):
        self.times = times
        self.fields = fields
        # the interval in use, its (start, end) samplers and their join
        self.index, self.ends, self.both = None, (), None

    def _use_interval(self, i: int) -> None:
        start, end = self.fields[i], self.fields[i + 1]
        held = {id(u): s for u, s in zip(self.fields[self.index:], self.ends) if u is start or u is end}
        self.index, self.ends, self.both = None, (), None  # the rest is released before the builds
        for u in (start, end):
            if id(u) not in held:
                held[id(u)] = PeriodicSampler.of_vector(u)
        a, b = held[id(start)], held[id(end)]
        self.index, self.ends, self.both = i, (a, b), a if a is b else PeriodicSampler.joined(a, b)

    def __call__(self, t: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = self.times
        _require_stored_time(times, t)
        i = int(np.searchsorted(times, t, side="right") - 1)
        i = min(max(i, 0), len(times) - 2)
        if i != self.index:
            self._use_interval(i)
        span = times[i + 1] - times[i]
        w = min(max((t - times[i]) / span, 0.0), 1.0)
        if w == 0.0:
            return self.ends[0].at(x, y)
        values = self.both.at(x, y)
        # a steady interval's sampler holds one field, whose two planes serve both ends
        (a1, a2), (b1, b2) = values[:2], values[-2:]
        return (1.0 - w) * a1 + w * b1, (1.0 - w) * a2 + w * b2


# ---------------------------------------------------------------------------
# flow map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowMap:
    """Trajectories of every grid node, one record per stored time.

    ``displacements[k]`` holds the periodic offset of each node at
    ``times[k]`` (zero at the start by construction), and
    ``inverse_jacobians[k]`` the per-node inverse of the map's Jacobian.
    """

    times: tuple[float, ...]
    displacements: tuple[VectorField, ...]
    inverse_jacobians: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (len(self.times) == len(self.displacements) == len(self.inverse_jacobians)):
            raise ValueError("times, displacements, and inverse Jacobians must align")
        if len(self.times) < 1:
            raise ValueError("flow map needs at least one record")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("flow map times must increase strictly")
        grid = self.displacements[0].grid
        n = grid.n
        for disp in self.displacements:
            if disp.grid != grid:
                raise ValueError("flow map records live on different grids")
        for A in self.inverse_jacobians:
            if A.shape != (n, n, 2, 2):
                raise ValueError(f"inverse Jacobian must have shape {(n, n, 2, 2)}, got {A.shape}")
        if self.displacements[0].linf() != 0.0:
            raise ValueError("the first record must be the identity map")

    @property
    def grid(self) -> Grid:
        return self.displacements[0].grid

    def index_of(self, t: float) -> int:
        tol = 1e-9 * max(1.0, abs(float(t)))
        diffs = [abs(s - t) for s in self.times]
        k = int(np.argmin(diffs))
        if diffs[k] > tol:
            raise ValueError(
                f"time mismatch: t={t} not among stored flow times "
                f"[{self.times[0]}, {self.times[-1]}] ({len(self.times)} records)"
            )
        return k

    def position_arrays(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Absolute particle positions at a stored time (may leave the box)."""
        x, y = self.grid.coords
        disp = self.displacements[index]
        return x + disp.u1.values, y + disp.u2.values

    def jacobian(self, index: int) -> np.ndarray:
        return _IDENTITY + gradient_tensor(self.displacements[index])

    def volume_defect(self) -> float:
        """Largest deviation of the map's Jacobian determinant from one."""
        worst = 0.0
        for k in range(len(self.times)):
            J = self.jacobian(k)
            det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
            worst = max(worst, float(np.max(np.abs(det - 1.0))))
        return worst

    def inverse_consistency_defect(self) -> float:
        """Largest entry of inverse_jacobian @ jacobian - identity."""
        worst = 0.0
        for k in range(len(self.times)):
            resid = _matmul(self.inverse_jacobians[k], self.jacobian(k)) - _IDENTITY
            worst = max(worst, _entry_linf(resid))
        return worst


def rk4_step(velocity, t: float, x: np.ndarray, y: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of the particles at (x, y) from time t; a negative h steps backward.

    ``velocity(t, x, y)`` returns both velocity components at the points.
    """
    k1x, k1y = velocity(t, x, y)
    k2x, k2y = velocity(t + 0.5 * h, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
    k3x, k3y = velocity(t + 0.5 * h, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
    k4x, k4y = velocity(t + h, x + h * k3x, y + h * k3y)
    return (x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y))


def integrate_flow(u_trajectory, dt: float) -> FlowMap:
    """Advect every grid node through the sampled velocity history.

    Between stored snapshots the velocity is blended linearly in time and
    sampled cubically in space; each node is advanced with classical RK4 at
    step ``dt``, which must not exceed the snapshot spacing.  One displacement
    and inverse-Jacobian record is produced per snapshot time.
    """
    if dt <= 0.0:
        raise ValueError("integration step dt must be positive")
    times, fields, grid = _velocity_history(u_trajectory)
    velocity = _VelocityInTime(times, fields)
    x, y = grid.coords
    px = x.copy()
    py = y.copy()

    def record() -> tuple[VectorField, np.ndarray]:
        disp = VectorField.from_physical(grid, px - x, py - y)
        jac = _IDENTITY + gradient_tensor(disp)
        return disp, _invert_per_node(jac)

    out_times = [times[0]]
    disp0 = VectorField.zero(grid)
    records = [(disp0, _invert_per_node(_IDENTITY + gradient_tensor(disp0)))]
    for t_lo, t_hi in zip(times, times[1:]):
        span = t_hi - t_lo
        m = int(round(span / dt))
        if m < 1:
            raise ValueError(
                f"integration step dt={dt} exceeds the snapshot spacing {span}"
            )
        if abs(m * dt - span) > 1e-9 * max(1.0, span):
            raise ValueError(
                f"integration step dt={dt} does not tile the snapshot spacing {span}"
            )
        h = span / m
        for step in range(m):
            px, py = rk4_step(velocity, t_lo + step * h, px, py, h)
        out_times.append(t_hi)
        records.append(record())
    return FlowMap(
        tuple(out_times),
        tuple(r[0] for r in records),
        tuple(r[1] for r in records),
    )


# ---------------------------------------------------------------------------
# inverse Jacobian by geometric series
# ---------------------------------------------------------------------------

def _gradient_integrals(times, fields) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each velocity's gradient ``G_k`` with its cumulative trapezoid integral ``M_k`` to ``times[k]``.

    One sample at a time: only the previous gradient and the running sum are
    held, and ``M_0`` is zero.
    """
    for k, u in enumerate(fields):
        G = gradient_tensor(u)
        M = np.zeros_like(G) if k == 0 else M + 0.5 * (times[k] - times[k - 1]) * (G_prev + G)
        G_prev = G  # releases the gradient before this one: the integral above was its last use
        yield G, M


def _neumann_inverse(M: np.ndarray, k_max: int) -> np.ndarray:
    """Sum of (-M)^k to relative term size 1e-14, with growth-based divergence detection."""
    A = np.broadcast_to(_IDENTITY, M.shape).copy()
    term = A
    first = None
    for _ in range(k_max):
        term = -_matmul(term, M)
        A = A + term
        size = _entry_linf(term)
        if first is None:
            first = size
        if size <= 1e-14 * (1.0 + _entry_linf(A)):
            return A
        if size > 1e3 * (1.0 + first):
            raise RuntimeError(
                "inverse-Jacobian series diverges: term growth detected "
                f"(term size {size:.3e} from {first:.3e})"
            )
    if _entry_linf(term) > 1e-9 * (1.0 + _entry_linf(A)):
        raise RuntimeError(
            f"inverse-Jacobian series did not converge within {k_max} terms "
            f"(last term {_entry_linf(term):.3e}); integrated gradient too large"
        )
    return A


def jacobian_series(v_trajectory, t: float, *, k_max: int = 16) -> np.ndarray:
    """Inverse Jacobian at time t as a truncated geometric series.

    The co-moving Jacobian is the identity plus the time integral of the
    co-moving velocity gradient, so its inverse expands into powers of that
    integral whenever the integral is small.  Term growth aborts the sum.
    """
    times, fields, _ = _velocity_history(v_trajectory)
    _require_stored_time(times, t)
    t = min(max(t, times[0]), times[-1])
    k = int(np.searchsorted(times, t, side="right")) - 1  # the last stored time <= t
    for G, M in _gradient_integrals(times, fields[: k + 1]):
        pass  # only the last stored sample's gradient and integral are used
    if times[k] < t:
        # the partial interval, with the gradient blended linearly in time
        w = (t - times[k]) / (times[k + 1] - times[k])
        g_t = (1.0 - w) * G + w * gradient_tensor(fields[k + 1])
        M = M + 0.5 * (t - times[k]) * (G + g_t)
    return _neumann_inverse(M, k_max)


# ---------------------------------------------------------------------------
# the divergence identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceIdentityResidual:
    """Relative size of both discrete forms of the co-moving divergence."""

    trace_form: float
    flux_form: float


def check_div_identity(u: VectorField, t: float, flow: FlowMap) -> DivergenceIdentityResidual:
    """Check that the fixed-frame divergence transforms as claimed.

    The divergence of the velocity evaluated along trajectories must equal
    both the trace of (co-moving gradient times inverse Jacobian) and the
    plain divergence of (inverse Jacobian times co-moving velocity).  Both
    residuals are reported relative to the larger of the co-moving gradient's
    size and the velocity's size per box length, so gradient-free data (zero
    or uniform flows) reports rounding noise rather than a 0/0 artifact.
    """
    k = flow.index_of(t)
    xs, ys = flow.position_arrays(k)
    grid = flow.grid
    v1, v2, lhs = PeriodicSampler.joined(
        PeriodicSampler.of_vector(u), PeriodicSampler.of_scalar(divergence(u))
    ).at(xs, ys)
    v = VectorField.from_physical(grid, v1, v2)
    Dv = gradient_tensor(v)
    A = flow.inverse_jacobians[k]

    area = grid.cell_area
    grad_scale = np.sqrt(np.sum(Dv**2) * area)
    vel_scale = np.sqrt(np.sum(v1**2 + v2**2) * area) / grid.L
    scale = max(grad_scale, vel_scale, 1e-300)

    trace = np.einsum("...ij,...ji->...", Dv, A)
    res_trace = np.sqrt(np.sum((trace - lhs) ** 2) * area) / scale

    w = np.einsum("...ij,...j->...i", A, np.stack((v1, v2), axis=-1))
    flux = divergence(VectorField.from_physical(grid, w[..., 0], w[..., 1]))
    res_flux = np.sqrt(np.sum((flux.values - lhs) ** 2) * area) / scale
    return DivergenceIdentityResidual(float(res_trace), float(res_flux))


# ---------------------------------------------------------------------------
# stability ratios for nearby trajectories
# ---------------------------------------------------------------------------

def _safe_ratio(num: float, den: float) -> float:
    if num <= 1e-300:
        return 0.0
    return num / den if den > 1e-300 else float("inf")


def delta_estimates(v1_trajectory, v2_trajectory, p: float = 2.0) -> RatioReport:
    """Measure the stability bounds linking two nearby co-moving velocities.

    Both trajectories must share times and a grid and stay in the regime
    where the inverse-Jacobian series converges (divergence there raises, as
    the bounds are only claimed for small integrated gradients).

    The report's four ratios, named in ``extra["ratio_names"]``, are each
    sized so that boundedness under refinement supports the corresponding
    inequality: deviation of either inverse Jacobian from the identity
    against the integrated gradient, the difference of the two inverse
    Jacobians against the integrated gradient of the velocity difference, the
    instantaneous rate of either inverse Jacobian against the instantaneous
    gradient, and the rate of the difference against the mixed
    velocity/difference sizes.  Ratios with a vanishing numerator are
    reported as zero; a nonzero one over a vanishing denominator is infinite,
    which the report rejects with ``ValueError``.  ``extra["gradient_integrals"]``
    holds the integrated gradient of each trajectory.

    The samples are walked once, and each one's tensors are dropped once
    measured, so memory does not grow with the number of samples.
    """
    times1, fields1, grid = _velocity_history(v1_trajectory)
    times2, fields2, grid2 = _velocity_history(v2_trajectory)
    if grid2 != grid:
        raise ValueError("trajectories live on different grids")
    if len(times1) != len(times2) or any(
        abs(a - b) > 1e-12 * max(1.0, abs(a)) for a, b in zip(times1, times2)
    ):
        raise ValueError("trajectories must share their sample times")
    times = np.asarray(times1)
    reg = BesovSpec(s=2.0 / p, p=p, r=1.0)
    low = BesovSpec(s=2.0 / p - 1.0, p=p, r=1.0)

    def norms_at(*sample) -> tuple[float, ...]:
        """Norms at one sample: each trajectory's gradient, deviation and rate, then the differences."""
        norms, inv, rates = [], [], []
        for G, M in sample:
            A = _neumann_inverse(M, 16)
            R = -_matmul(_matmul(A, G), A)
            norms += (_matrix_besov(G, grid, reg), _matrix_besov(A - _IDENTITY, grid, reg),
                      _matrix_besov(R, grid, reg))
            inv.append(A)
            rates.append(R)
        (G1, _), (G2, _) = sample
        return (*norms, _matrix_besov(G2 - G1, grid, reg), _matrix_besov(inv[1] - inv[0], grid, reg),
                _matrix_besov(rates[1] - rates[0], grid, low))

    # one pass: map holds no sample's tensors once its norms are taken
    samples = map(norms_at, _gradient_integrals(times, fields1), _gradient_integrals(times, fields2))
    grad1, dev1, rate1, grad2, dev2, rate2, delta_grad, delta_dev, delta_rate = zip(*samples)

    # size of either inverse Jacobian's deviation vs the integrated gradient
    integrals = (float(np.trapezoid(grad1, times)), float(np.trapezoid(grad2, times)))
    dev_ratios = (_safe_ratio(max(dev1), integrals[0]), _safe_ratio(max(dev2), integrals[1]))
    rate_ratios = [_safe_ratio(r, gn) for r, gn in (*zip(rate1, grad1), *zip(rate2, grad2))]

    # difference bounds
    delta_grad_integral = float(np.trapezoid(delta_grad, times))
    delta_rate_l2 = float(np.sqrt(np.trapezoid(np.array(delta_rate) ** 2, times)))

    pair_norms, delta_v_norms = np.array(
        [(_vector_besov(u1, reg) + _vector_besov(u2, reg), _vector_besov(u2 - u1, reg))
         for u1, u2 in zip(fields1, fields2)]
    ).T
    pair_l2 = float(np.sqrt(np.trapezoid(pair_norms**2, times)))
    delta_v_l2 = float(np.sqrt(np.trapezoid(delta_v_norms**2, times)))

    return RatioReport(
        check="flow_map_deltas",
        config={"p": p, "grid_n": grid.n, "samples": len(times)},
        seed=None,
        ratios=(
            max(dev_ratios),
            _safe_ratio(max(delta_dev), delta_grad_integral),
            max(rate_ratios),
            _safe_ratio(delta_rate_l2, pair_l2 * delta_grad_integral + delta_v_l2),
        ),
        extra={
            "ratio_names": ("deviation", "difference", "rate", "difference_rate"),
            "gradient_integrals": integrals,
        },
    )
