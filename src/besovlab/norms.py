"""Quadrature L^p norms, Besov norms over the dyadic ladder, and time-space norms.

The Besov norm of a field is the l^r aggregation of its weighted block profile
(2^{js} ||block_j u||_{L^p})_j.  The time-space ("tilde") norms integrate each
block over time *first* and aggregate over octaves second; that order is the
whole point.  :class:`RunningTimeNorm` is the one implementation: it folds in
samples one at a time with trapezoid time quadrature, so the integrator's
running diagnostics and :func:`chemin_lerner` over stored snapshots agree.
At p = 2 a block's norm comes from its masked coefficients by Parseval, with
no transform; any other p sums the block's node ``values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dyadic import build_ladder
from .spectral import SpectralField, VectorField, l2_norm

__all__ = [
    "BesovSpec",
    "BlockProfile",
    "check_exponent",
    "lp_norm",
    "lr_aggregate",
    "besov_norm",
    "chemin_lerner",
    "RunningTimeNorm",
    "unpack_trajectory",
]


def check_exponent(name: str, value: float) -> float:
    """A Lebesgue exponent as a float, rejected unless it lies in [1, inf]."""
    value = float(value)
    if not (value >= 1.0):  # also rejects NaN
        raise ValueError(f"{name} must lie in [1, inf], got {value}")
    return value


def unpack_trajectory(trajectory: Iterable, *attrs: str) -> list[tuple]:
    """Entries ``(t, *fields)`` of a trajectory, one per snapshot.

    An entry is either a tuple ``(t, *fields)`` or a snapshot object whose
    ``t`` and named attributes (``attrs``) supply them.  A trajectory needs
    at least two entries, strictly increasing times, and one grid.
    """
    entries = []
    for item in trajectory:
        if isinstance(item, (tuple, list)) and len(item) == 1 + len(attrs):
            t, *fields = item
        elif all(hasattr(item, name) for name in ("t", *attrs)):
            t, fields = item.t, [getattr(item, name) for name in attrs]
        else:
            raise ValueError(
                f"trajectory entries must expose .t/.{'/.'.join(attrs)}"
                f" or unpack as (t, {', '.join(attrs)})"
            )
        entries.append((float(t), *fields))
    if len(entries) < 2:
        raise ValueError(f"trajectory needs at least two snapshots, got {len(entries)}")
    times = [entry[0] for entry in entries]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError(f"trajectory times must increase strictly, got {times}")
    grid = entries[0][1].grid
    if any(f.grid != grid for entry in entries for f in entry[1:]):
        raise ValueError("trajectory snapshots live on different grids")
    return entries


@dataclass(frozen=True)
class BesovSpec:
    """Besov space parameters: regularity s, integrability p, summation r."""

    s: float
    p: float
    r: float = 1.0
    homogeneous: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p", check_exponent("p", self.p))
        object.__setattr__(self, "r", check_exponent("r", self.r))


@dataclass(frozen=True)
class BlockProfile:
    """Weighted per-octave norms 2^{js} ||block_j u||_{L^p}."""

    js: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.js) != len(self.values):
            raise ValueError("index/value length mismatch in block profile")
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise ValueError("block profile entries must be finite and nonnegative")
        object.__setattr__(self, "js", tuple(int(j) for j in self.js))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def total(self, r: float) -> float:
        return lr_aggregate(self.values, r)

    def d_sequence(self) -> tuple:
        """Profile normalized to unit l^1 sum (all zeros stay zero)."""
        tot = sum(self.values)
        if tot == 0.0:
            return tuple(0.0 for _ in self.values)
        return tuple(v / tot for v in self.values)


def lp_norm(f: SpectralField | VectorField, p: float) -> float:
    """Quadrature L^p norm with cell measure (L/n)^2; p=inf is the grid max, p=2 by Parseval."""
    p = check_exponent("p", p)
    if p == 2.0:
        return l2_norm(f)
    mag = f.magnitude_values() if isinstance(f, VectorField) else np.abs(f.values)
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.cell_area) ** (1.0 / p))


def lr_aggregate(values: Iterable[float], r: float) -> float:
    r = check_exponent("r", r)
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return 0.0
    if math.isinf(r):
        return float(np.max(vals))
    return float(np.sum(vals**r) ** (1.0 / r))


def _require_mean_zero(u: SpectralField | VectorField, what: str) -> None:
    """Reject a field whose mean is not zero relative to its largest mode."""
    if isinstance(u, VectorField):
        mean = max(abs(u.u1.mean), abs(u.u2.mean))
        scale = max(np.max(np.abs(u.u1.modes)), np.max(np.abs(u.u2.modes))) / u.grid.n**2
    else:
        mean = abs(u.mean)
        scale = np.max(np.abs(u.modes)) / u.grid.n**2
    if mean > 1e-10 * max(1.0, scale):
        raise ValueError(f"homogeneous {what} needs a mean-zero field (|mean| = {mean:.3e})")


def _block_norms(u: SpectralField | VectorField, spec: BesovSpec, what: str) -> tuple[range, np.ndarray]:
    """The octaves of u's ladder that ``spec`` sums over, and u's L^p norm on each block.

    At p = 2 Parseval gives each norm from the block's mask and u's weighted
    power ``|c|^2 * Grid.parseval_weights``, with no transform; other p sum
    the block's node ``values``.
    """
    ladder = build_ladder(u.grid)
    if spec.homogeneous:
        _require_mean_zero(u, what)
        js, block_of, mask_of = ladder.js, ladder.block, ladder.phi_mask
    else:
        js, block_of = ladder.inhomogeneous_js(), ladder.inhomogeneous_block
        mask_of = lambda j: ladder.chi_mask(0) if j == -1 else ladder.phi_mask(j)
    if spec.p != 2.0:
        return js, np.array([lp_norm(block_of(u, j), spec.p) for j in js])
    g = u.grid
    power = sum(c.modes.real**2 + c.modes.imag**2 for c in (u.components if isinstance(u, VectorField) else (u,)))
    power = power * g.parseval_weights * (g.cell_area / g.n**2)
    return js, np.sqrt([np.sum(mask_of(j) ** 2 * power) for j in js])


def besov_norm(u: SpectralField | VectorField, spec: BesovSpec) -> tuple[float, BlockProfile]:
    """Besov norm and its diagnostic block profile, over the ladder of u's grid.

    Homogeneous specs demand a mean-zero field: the torus has no substitute
    for the low-frequency tail of the plane, so the mean carries no
    homogeneous-norm content and is rejected rather than silently dropped.
    """
    js, norms = _block_norms(u, spec, "Besov norm")
    values = [2.0 ** (j * spec.s) * v for j, v in zip(js, norms)]
    profile = BlockProfile(tuple(js), tuple(values))
    return profile.total(spec.r), profile


class RunningTimeNorm:
    """Running Chemin-Lerner norm of a sampled field: ``update(t, f)`` returns it over [t0, t].

    Each octave's L^p block norm is integrated in time first, its sigma-th
    power by the trapezoid rule (sigma = inf keeps a running sup); the octaves
    are then weighted by 2^{js} and aggregated in l^r.  Sample times must
    increase strictly and the samples share one grid.  The norm over the
    first sample alone is its sup-in-time value for sigma = inf and 0 otherwise.
    ``sample_norm`` is the last sample's own Besov norm, as :func:`besov_norm`
    gives it.
    """

    def __init__(self, space: BesovSpec, sigma: float):
        self.space = space
        self.sigma = check_exponent("sigma", sigma)
        self._t = -math.inf
        self._grid = None
        self._powers = None  # sigma-th powers of the last sample's block norms
        self._acc = None  # per-octave time integral of those powers, or running sup
        self.sample_norm = math.nan

    def update(self, t: float, f: SpectralField | VectorField) -> float:
        t = float(t)
        if not (t > self._t):  # also rejects NaN
            raise ValueError(f"time norm samples must increase strictly in time, got t={t} after {self._t}")
        if self._grid is not None and f.grid != self._grid:
            raise ValueError("time norm samples live on different grids")
        js, values = _block_norms(f, self.space, f"time norm at t={t}")
        if math.isinf(self.sigma):
            self._acc = values if self._acc is None else np.maximum(self._acc, values)
            per_octave = self._acc
        else:
            powers = values**self.sigma
            if self._acc is None:
                self._acc = np.zeros_like(powers)
            else:
                self._acc = self._acc + (t - self._t) * (powers + self._powers) / 2.0
            self._powers = powers
            per_octave = self._acc ** (1.0 / self.sigma)
        self._t, self._grid = t, f.grid
        weights = np.array([2.0 ** (j * self.space.s) for j in js])
        self.sample_norm = lr_aggregate(weights * values, self.space.r)
        return lr_aggregate(weights * per_octave, self.space.r)


def chemin_lerner(snapshots: Sequence, space: BesovSpec, sigma: float) -> float:
    """Time-space norm over the snapshots' span: the last value of a :class:`RunningTimeNorm` fed them all.

    ``snapshots`` holds (t, field) pairs, or snapshot objects whose scalar
    ``a`` is measured.
    """
    norm = RunningTimeNorm(space, sigma)
    return [norm.update(t, f) for t, f in unpack_trajectory(snapshots, "a")][-1]
