"""Quadrature L^p norms, Besov norms over the dyadic ladder, and time-space norms.

The Besov norm of a field is the l^r aggregation of its weighted block profile
(2^{js} ||block_j u||_{L^p})_j.  The time-space ("tilde") norms integrate each
block over time *first* and aggregate over octaves second; that order is the
whole point and is preserved here with trapezoid time quadrature on stored
snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicLadder
from .spectral import SpectralField, VectorField

__all__ = [
    "BesovSpec",
    "BlockProfile",
    "TimeNormSpec",
    "lp_norm",
    "lr_aggregate",
    "besov_norm",
    "chemin_lerner",
]


def _check_exponent(name: str, value: float) -> float:
    value = float(value)
    if not (value >= 1.0):  # also rejects NaN
        raise ValueError(f"{name} must lie in [1, inf], got {value}")
    return value


@dataclass(frozen=True)
class BesovSpec:
    """Besov space parameters: regularity s, integrability p, summation r."""

    s: float
    p: float
    r: float = 1.0
    homogeneous: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p", _check_exponent("p", self.p))
        object.__setattr__(self, "r", _check_exponent("r", self.r))


@dataclass(frozen=True)
class TimeNormSpec:
    """Chemin-Lerner norm parameters: a BesovSpec plus time integrability and horizon."""

    space: BesovSpec
    sigma: float
    T: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _check_exponent("sigma", self.sigma))
        if not (self.T > 0.0):
            raise ValueError(f"time horizon must be positive, got {self.T}")


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

    def csv_rows(self) -> list[str]:
        return [f"{j},{v:.17g}" for j, v in zip(self.js, self.values)]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("j,value\n")
            for row in self.csv_rows():
                fh.write(row + "\n")


def lp_norm(f: SpectralField | VectorField, p: float) -> float:
    """Quadrature L^p norm with cell measure (L/n)^2; p=inf is the grid max."""
    p = _check_exponent("p", p)
    if isinstance(f, VectorField):
        mag = f.magnitude_values()
        area = f.grid.cell_area
    else:
        mag = np.abs(f.values)
        area = f.grid.cell_area
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * area) ** (1.0 / p))


def lr_aggregate(values: Iterable[float], r: float) -> float:
    r = _check_exponent("r", r)
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return 0.0
    if math.isinf(r):
        return float(np.max(vals))
    return float(np.sum(vals**r) ** (1.0 / r))


def _mean_scale(u: SpectralField | VectorField) -> tuple[float, float]:
    if isinstance(u, VectorField):
        m = max(abs(u.u1.mean), abs(u.u2.mean))
        scale = max(np.max(np.abs(u.u1.modes)), np.max(np.abs(u.u2.modes))) / u.grid.n**2
    else:
        m = abs(u.mean)
        scale = np.max(np.abs(u.modes)) / u.grid.n**2
    return float(m), float(scale)


def besov_norm(
    u: SpectralField | VectorField,
    spec: BesovSpec,
    ladder: DyadicLadder,
) -> tuple[float, BlockProfile]:
    """Besov norm and its diagnostic block profile.

    Homogeneous specs demand a mean-zero field: the torus has no substitute
    for the low-frequency tail of the plane, so the mean carries no
    homogeneous-norm content and is rejected rather than silently dropped.
    """
    if spec.homogeneous:
        mean, scale = _mean_scale(u)
        if mean > 1e-10 * max(1.0, scale):
            raise ValueError(f"homogeneous Besov norm needs a mean-zero field (|mean| = {mean:.3e})")
        js = list(ladder.js)
        blocks = [ladder.block(u, j) for j in js]
    else:
        js = list(ladder.inhomogeneous_js())
        blocks = [ladder.inhomogeneous_block(u, j) for j in js]
    values = [2.0 ** (j * spec.s) * lp_norm(b, spec.p) for j, b in zip(js, blocks)]
    profile = BlockProfile(tuple(js), tuple(values))
    return profile.total(spec.r), profile


def _coerce_snapshots(snapshots: Sequence) -> list[tuple[float, SpectralField | VectorField]]:
    pairs = [(float(t), f) for t, f in snapshots]
    times = [t for t, _ in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least 2 snapshots for a time norm")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError(f"snapshot timestamps must be strictly increasing, got {times}")
    return pairs


def _time_norm(times: np.ndarray, series: np.ndarray, sigma: float) -> float:
    if math.isinf(sigma):
        return float(np.max(series))
    return float(np.trapezoid(series**sigma, times) ** (1.0 / sigma))


def chemin_lerner(snapshots: Sequence, spec: TimeNormSpec, ladder: DyadicLadder) -> float:
    """Time-space norm: per-block sigma-norm in time first, l^r across octaves second."""
    pairs = _coerce_snapshots(snapshots)
    t0, tN = pairs[0][0], pairs[-1][0]
    if t0 > 1e-12 or tN < spec.T - 1e-12:
        raise ValueError(f"snapshots span [{t0}, {tN}] but the norm horizon is [0, {spec.T}]")
    pairs = [(t, f) for t, f in pairs if t <= spec.T + 1e-12]
    times = np.array([t for t, _ in pairs])
    space = spec.space
    if space.homogeneous:
        js = list(ladder.js)
        block_of = ladder.block
    else:
        js = list(ladder.inhomogeneous_js())
        block_of = ladder.inhomogeneous_block
    if space.homogeneous:
        for t, f in pairs:
            mean, scale = _mean_scale(f)
            if mean > 1e-10 * max(1.0, scale):
                raise ValueError(f"homogeneous time norm needs mean-zero fields (t={t}, |mean|={mean:.3e})")
    total = []
    for j in js:
        series = np.array([lp_norm(block_of(f, j), space.p) for _, f in pairs])
        total.append(2.0 ** (j * space.s) * _time_norm(times, series, spec.sigma))
    return lr_aggregate(total, space.r)
