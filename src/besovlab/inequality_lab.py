"""Measured-ratio experiments for the analytic estimates behind the solvers.

Each classical inequality used by the package (derivative norms of
band-limited fields, heat-kernel decay on an annulus, norm growth of
transported fields, the commutator pairing that powers the pressure bounds,
the pressure-solution estimates, and the double-exponential growth envelope)
is exercised numerically: draw a seeded random ensemble, evaluate left- and
right-hand sides by quadrature, and record the ratio.  The "constant" of each
estimate is thus a measured quantity; the pass criterion is that each recorded
ratio is finite and stable when the grid is refined.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dyadic import build_ladder
from .elliptic import coefficient_floor
from .norms import BesovSpec, RunningTimeNorm, besov_norm, check_exponent, lp_norm, unpack_trajectory
from .paraproduct import commutator_block
from .random_fields import random_annulus_field, random_ball_field, trial_seed
from .spectral import (
    SpectralField,
    VectorField,
    centered,
    derivative,
    divergence,
    gradient,
    gradient_part,
    heat_propagate,
    make_grid,
    require_solenoidal,
)

__all__ = [
    "RatioReport",
    "check_bernstein",
    "check_heat_decay",
    "check_transport_estimate",
    "check_Ij_bound",
    "ij_integral",
    "check_elliptic_estimate",
    "fit_growth_envelope",
    "mark_refinement",
    "COMMUTATOR_P_LOWER",
    "PRESSURE_P_UPPER",
]

# Integrability thresholds: the commutator-pairing estimate needs p above
# (1 + sqrt(17))/4, the flat pressure estimate p below (5 + sqrt(17))/2.
COMMUTATOR_P_LOWER = (1.0 + math.sqrt(17.0)) / 4.0
PRESSURE_P_UPPER = (5.0 + math.sqrt(17.0)) / 2.0


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one measured-ratio experiment.

    ``ratios`` holds the per-trial LHS/RHS values; ``config`` describes the
    experiment (exponents, scales, grid, trial count); ``extra`` carries
    check-specific diagnostics (fitted slopes, sweeps, cross-checks).
    """

    check: str
    config: dict
    seed: int | None
    ratios: tuple
    refinement_stable: bool | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.ratios)
        if not vals:
            raise ValueError("a ratio report needs at least one recorded trial")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError(f"ratios must be finite and nonnegative, got {vals}")
        object.__setattr__(self, "ratios", vals)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    @property
    def median_ratio(self) -> float:
        return float(statistics.median(self.ratios))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "config": self.config,
            "seed": self.seed,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "median_ratio": self.median_ratio,
            "refinement_stable": self.refinement_stable,
            "extra": self.extra,
        }


def mark_refinement(coarse: RatioReport, fine: RatioReport) -> RatioReport:
    """Flag the fine-grid report by the largest drift of any ratio against the coarse run.

    Estimate constants are discretization independent once the fields are
    resolved, so each recorded ratio must move by at most 50% (relative to
    its coarse value) when the grid doubles.  The two reports must record the
    same ratios, in the same order.
    """
    if coarse.check != fine.check:
        raise ValueError(f"cannot compare reports {coarse.check!r} and {fine.check!r}")
    if len(coarse.ratios) != len(fine.ratios):
        raise ValueError(
            f"cannot compare {len(coarse.ratios)} coarse ratios with {len(fine.ratios)} fine ones"
        )
    drift = max(abs(f - c) / max(c, 1e-300) for c, f in zip(coarse.ratios, fine.ratios))
    extra = dict(fine.extra)
    extra["refinement_drift"] = drift
    return replace(fine, refinement_stable=bool(drift <= 0.5), extra=extra)


# ---------------------------------------------------------------------------
# derivative norms of band-limited fields


def check_bernstein(
    k: int,
    p: float,
    q: float,
    trials: int,
    *,
    js: Sequence[int] = (1, 2, 3, 4),
    grid_n: int = 128,
    seed: int = 7001,
) -> RatioReport:
    """Measure derivative-norm interpolation ratios on localized random fields.

    For fields supported on the octave-``j`` annulus (and ball), records
    ``sum_{|alpha|=k} ||d^alpha u||_{L^q}`` against ``lam^{k + 2(1/p - 1/q)}
    ||u||_{L^p}`` with ``lam = 2^j``.  Annulus fields also get the reverse
    bound at the same exponent (``extra["reverse_ratios"]``), and the per-j
    max ratios with their relative spread (``extra["annulus_drift"]``) record
    scale independence.
    """
    p = check_exponent("p", p)
    q = check_exponent("q", q)
    if k < 0 or k != int(k):
        raise ValueError(f"derivative order must be a nonnegative integer, got {k}")
    if p > q:
        raise ValueError(f"derivative-norm interpolation needs p <= q, got p={p} > q={q}")
    if trials < 1:
        raise ValueError("need at least one trial")
    grid = make_grid(grid_n)
    alphas = [(k - i, i) for i in range(int(k) + 1)]
    gap = k + 2.0 * (1.0 / p - 1.0 / q)

    def dk_norm(u: SpectralField, exponent: float) -> float:
        return sum(lp_norm(derivative(u, alpha), exponent) for alpha in alphas)

    tasks = [(j, t) for j in js for t in range(trials)]

    def one(j: int, t: int):
        lam = 2.0**j
        u_ann = random_annulus_field(grid, j, trial_seed(seed, j, t, 0))
        fwd = dk_norm(u_ann, q) / (lam**gap * lp_norm(u_ann, p))
        rev = lam**k * lp_norm(u_ann, p) / dk_norm(u_ann, p) if k >= 1 else 1.0
        u_ball = random_ball_field(grid, j, trial_seed(seed, j, t, 1))
        ball = dk_norm(u_ball, q) / (lam**gap * lp_norm(u_ball, p))
        return fwd, rev, ball

    results = [one(j, t) for j, t in tasks]
    ratios = tuple(r[0] for r in results)
    per_j_max = {
        str(j): max(r[0] for (jj, _), r in zip(tasks, results) if jj == j) for j in js
    }
    peaks = list(per_j_max.values())
    drift = (max(peaks) - min(peaks)) / min(peaks) if min(peaks) > 0 else math.inf
    return RatioReport(
        check="bernstein",
        config={
            "k": int(k),
            "p": p,
            "q": q,
            "js": list(int(j) for j in js),
            "grid_n": int(grid_n),
            "trials": int(trials),
        },
        seed=seed,
        ratios=ratios,
        extra={
            "reverse_ratios": tuple(r[1] for r in results),
            "ball_ratios": tuple(r[2] for r in results),
            "per_j_max": per_j_max,
            "annulus_drift": drift,
        },
    )


# ---------------------------------------------------------------------------
# heat-kernel decay on an annulus


def check_heat_decay(
    j: int,
    times: Sequence[float],
    *,
    p: float = 2.0,
    trials: int = 6,
    grid_n: int = 128,
    seed: int = 7002,
) -> RatioReport:
    """Fit exponential heat decay of annulus-supported random fields.

    Least-squares fit of ``log ||heat(t) u||_{L^p}`` against ``t`` gives a
    slope ``-c_fit * lam^2``; since every mode of the field has magnitude in
    ``lam * [3/4, 8/3]``, the fitted rate must land in ``[9/16, (8/3)^2]`` (up
    to fit tolerance).  The recorded ratio per trial is the smallest prefactor
    C for which ``||heat(t) u|| <= C exp(slope * t) ||u||`` at every sample.
    """
    ts = sorted(float(t) for t in times)
    if len(ts) < 3:
        raise ValueError(f"slope fit needs at least 3 sample times, got {len(ts)}")
    if ts[0] < 0.0:
        raise ValueError("sample times must be nonnegative")
    if any(b - a <= 0 for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    p = check_exponent("p", p)
    lam = 2.0**j
    grid = make_grid(grid_n)

    def one(t_idx: int):
        u = random_annulus_field(grid, j, trial_seed(seed, t_idx))
        base = lp_norm(u, p)
        samples = [(t, lp_norm(heat_propagate(u, 1.0, t), p)) for t in ts]
        usable = [(t, v) for t, v in samples if v > 1e-250 * base]
        if len(usable) < 3:
            raise ValueError(
                "field decayed below floating range at all but "
                f"{len(usable)} sample times; shorten the time window"
            )
        tt = np.array([t for t, _ in usable])
        slope, _ = np.polyfit(tt, np.log([v for _, v in usable]), 1)
        c_fit = -slope / lam**2
        prefactor = max(v / (base * math.exp(slope * t)) for t, v in usable)
        return c_fit, prefactor

    results = [one(t) for t in range(trials)]
    return RatioReport(
        check="heat_decay",
        config={
            "j": int(j),
            "p": p,
            "times": ts,
            "grid_n": int(grid_n),
            "trials": int(trials),
        },
        seed=seed,
        ratios=tuple(r[1] for r in results),
        extra={
            "c_fit": tuple(r[0] for r in results),
            "c_window": (9.0 / 16.0, (8.0 / 3.0) ** 2),
            "lambda": lam,
        },
    )


# ---------------------------------------------------------------------------
# transported-field norm growth

# Rounding of the tail a - S_m a, in ulps of a's norm (a difference errs on the scale of a).
_ZERO_COST_ROUNDING_ULPS = 4


def check_transport_estimate(
    trajectory,
    p: float,
    q: float,
) -> RatioReport:
    """Measure norm growth of a transported field against velocity cost.

    From snapshots (t, a, u) with solenoidal u, computes the sup-in-time block
    norm of a (blocks first, time sup second) and the accumulated velocity
    cost U(t) (time integral of the velocity's smoothness norm), then reports
    the smallest rate C with ``norm(t) <= norm(0) * exp(C * U(t))`` at every
    sample.  For each m in 0..3, the same is done for the high-octave part
    ``a - S_m a``, whose growth only needs to cover what exceeds its initial
    norm, that of ``a0 - S_m a0``; an excess beyond rounding at zero cost
    cannot be covered and is recorded as ``defect_at_zero_cost_m{m}``.
    Recorded ratios are the per-sample growth factors ``norm(t) / norm(0)``.
    """
    p = check_exponent("p", p)
    q = check_exponent("q", q)
    if 1.0 / q - 1.0 / p > 0.5 + 1e-12:
        raise ValueError(f"exponents out of range: need 1/q - 1/p <= 1/2, got p={p}, q={q}")
    snaps = unpack_trajectory(trajectory, "a", "u")
    grid = snaps[0][1].grid
    ladder = build_ladder(grid)
    for _, _, u in snaps:
        require_solenoidal(u)

    a_spec = BesovSpec(2.0 / q, q, 1.0)
    u_spec = BesovSpec(2.0 / p + 1.0, p, 1.0)
    base, _ = besov_norm(centered(snaps[0][1]), a_spec)
    if base <= 0.0:
        raise ValueError("initial field has no octave content to transport")

    # sup-in-time norm of the (centered) transported field, the accumulated
    # velocity cost U(t), the time integral of its smoothness norm, and the
    # high-octave variant: growth above octave m must be covered by the
    # initial tail, the norm of a0 - S_m a0, plus the exponential cost term
    sup_norm = RunningTimeNorm(a_spec, math.inf)
    cost = RunningTimeNorm(u_spec, 1.0)
    high_norms = [RunningTimeNorm(a_spec, math.inf) for _ in range(4)]
    tails, c_ms, zero_defects = [None] * 4, [0.0] * 4, [0.0] * 4
    growth, U, u_norms = [], [], []
    for t, a, u in snaps:
        ac = centered(a)
        growth.append(sup_norm.update(t, ac) / base)
        U.append(cost.update(t, centered(u)))
        u_norms.append(cost.sample_norm)
        for m, high_norm in enumerate(high_norms):
            high = high_norm.update(t, ac - ladder.low_pass(ac, m))
            tails[m] = high if tails[m] is None else tails[m]
            excess = max(0.0, high - tails[m])
            if U[-1] <= 0.0:
                zero_defects[m] = max(zero_defects[m], excess / base)
            else:
                c_ms[m] = max(c_ms[m], math.log1p(excess / base) / U[-1])
    candidates = [
        math.log(g) / u for g, u in zip(growth[1:], U[1:]) if u > 0.0 and g > 1.0
    ]
    c_min = max(candidates) if candidates else 0.0
    sweep = {}
    for m, (c_m, zero_defect) in enumerate(zip(c_ms, zero_defects)):
        sweep[str(m)] = c_m
        if zero_defect > _ZERO_COST_ROUNDING_ULPS * math.ulp(1.0):
            sweep[f"defect_at_zero_cost_m{m}"] = zero_defect

    return RatioReport(
        check="transport_growth",
        config={
            "p": p,
            "q": q,
            "snapshots": len(snaps),
            "t_final": snaps[-1][0],
            "grid_n": grid.n,
        },
        seed=None,
        ratios=tuple(growth),
        extra={
            "C_min": c_min,
            "U": tuple(U),
            "m_sweep": sweep,
            "u_norms": tuple(u_norms),
        },
    )


# ---------------------------------------------------------------------------
# commutator pairing integrals


def ij_integral(
    a: SpectralField,
    pressure: SpectralField,
    p: float,
    j: int,
    form: str = "divergence",
) -> float:
    """Quadrature of the block-commutator pairing at octave j.

    ``form="divergence"`` pairs the divergence of the commutator field
    ``block_j(a * grad pi) - a * block_j(grad pi)`` against the signed
    (p-1)-power of the pressure block; ``form="parts"`` is the
    integrated-by-parts route (p >= 2 only), pairing the commutator field
    itself against the gradient of the block.  The two agree up to quadrature
    aliasing, which vanishes for fully resolved spectra.
    """
    p = check_exponent("p", p)
    grid = a.grid
    cb = commutator_block(a, gradient(pressure), j)
    bp = build_ladder(grid).block(pressure, j)
    w = bp.values
    if form == "divergence":
        weight = np.sign(w) * np.abs(w) ** (p - 1.0)
        integrand = divergence(cb).values * weight
    elif form == "parts":
        if p < 2.0:
            raise ValueError("the integrated-by-parts route needs p >= 2")
        gb = gradient(bp)
        dot = cb.u1.values * gb.u1.values + cb.u2.values * gb.u2.values
        integrand = -(p - 1.0) * np.abs(w) ** (p - 2.0) * dot
    else:
        raise ValueError(f"unknown quadrature form {form!r}")
    return float(grid.cell_area * np.sum(integrand))


def check_Ij_bound(
    a: SpectralField,
    pressure: SpectralField,
    p: float,
    q: float,
    j: int,
) -> RatioReport:
    """Measure the commutator pairing against its octave-weighted bound.

    Admissible regimes: (i) p in (COMMUTATOR_P_LOWER, 2] with
    1/p - 1/q <= 1/2, where the bound carries the coefficient norm at
    integrability q and the L^2 gradient norm; (ii) q = p in (1, 4), where
    for p >= 2 the gradient norm upgrades to the summation-2 octave norm.
    The coefficient's octave profile supplies the normalized weight d_j.
    """
    p = check_exponent("p", p)
    q = check_exponent("q", q)
    regime_i = (COMMUTATOR_P_LOWER < p <= 2.0) and (1.0 / p - 1.0 / q <= 0.5 + 1e-12)
    regime_ii = (q == p) and (1.0 < p < 4.0)
    if not (regime_i or regime_ii):
        raise ValueError(
            f"exponents (p={p}, q={q}) lie outside both admissible regimes"
        )
    ladder = build_ladder(a.grid)
    if j not in ladder.js:
        raise ValueError(f"octave {j} outside the ladder range {ladder.js}")

    value = ij_integral(a, pressure, p, j, form="divergence")

    ac = centered(a)
    if regime_i:
        regime = "i"
        a_norm, profile = besov_norm(ac, BesovSpec(2.0 / q, q, 1.0))
        grad_norm = lp_norm(gradient(pressure), 2.0)
    else:
        regime = "ii"
        a_norm, profile = besov_norm(ac, BesovSpec(2.0 / p, p, 1.0))
        if p < 2.0:
            grad_norm = lp_norm(gradient(pressure), 2.0)
        else:
            grad_norm = besov_norm(gradient(pressure), BesovSpec(2.0 / p - 1.0, p, 2.0))[0]

    d_j = profile.d_sequence()[list(profile.js).index(j)]
    block_pow = lp_norm(ladder.block(pressure, j), p) ** (p - 1.0)
    rhs = d_j * 2.0 ** (j * (2.0 - 2.0 / p)) * a_norm * grad_norm * block_pow

    if rhs <= 0.0:
        if abs(value) > 1e-12:
            raise ValueError("vanishing bound against a nonvanishing pairing")
        ratio = 0.0
    else:
        ratio = abs(value) / rhs

    extra = {
        "pairing": value,
        "rhs": rhs,
        "d_j": d_j,
        "regime": regime,
    }
    return RatioReport(
        check="commutator_pairing",
        config={"p": p, "q": q, "j": int(j), "grid_n": a.grid.n},
        seed=None,
        ratios=(ratio,),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# pressure-solution estimates


def check_elliptic_estimate(
    a: SpectralField,
    forcing: VectorField,
    solution: VectorField,
    p: float,
) -> RatioReport:
    """Measure the pressure-gradient norm against the forcing-side bound.

    The main ratio compares the solution's octave norm at regularity
    ``2/p - 1`` with ``(1 + ||a||)^k`` times the same norm of the
    gradient part of the forcing, where k is 1 for p <= 2 and 2 beyond.  The
    energy bound (coefficient floor times solution L^2 against forcing L^2)
    rides along in ``extra`` and must hold with no headroom beyond rounding.
    When p admits it, the summation-2 variant with coefficient exponent q = p
    is recorded as ``extra["flat_ratio"]``.
    """
    p = check_exponent("p", p)
    if not (1.0 < p < 4.0):
        raise ValueError(f"pressure estimate needs p in (1, 4), got {p}")
    k = 1 if p <= 2.0 else 2
    qf = gradient_part(forcing)

    ac = centered(a)
    s_low = 2.0 / p - 1.0
    a_norm = besov_norm(ac, BesovSpec(2.0 / p, p, 1.0))[0]
    num = besov_norm(solution, BesovSpec(s_low, p, 1.0))[0]
    den = (1.0 + a_norm) ** k * besov_norm(qf, BesovSpec(s_low, p, 1.0))[0]
    if den <= 0.0:
        raise ValueError("forcing has no gradient part to compare against")
    ratio = num / den

    kappa = coefficient_floor(a)
    qf_l2 = lp_norm(qf, 2.0)
    l2_ratio = lp_norm(solution, 2.0) / qf_l2 if qf_l2 > 0 else 0.0
    extra = {
        "k": k,
        "kappa": kappa,
        "coefficient_norm": a_norm,
        "l2_ratio": l2_ratio,
        "l2_bound": 1.0 / kappa,
        "l2_ok": bool(l2_ratio <= (1.0 + 1e-6) / kappa),
    }

    # with q = p the flat estimate's exponent conditions reduce to these p windows
    if COMMUTATOR_P_LOWER < p < 2.0 or 2.0 < p < PRESSURE_P_UPPER:
        num2 = besov_norm(solution, BesovSpec(s_low, p, 2.0))[0]
        den2 = (1.0 + a_norm) * besov_norm(qf, BesovSpec(s_low, p, 2.0))[0]
        extra["flat_ratio"] = num2 / den2
        extra["flat_q"] = p

    return RatioReport(
        check="pressure_estimate",
        config={"p": p, "q": p, "grid_n": a.grid.n},
        seed=None,
        ratios=(ratio,),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# growth envelope


def _envelope(C: float, t: float) -> float:
    if C <= 0.0:
        return 0.0
    inner = C * math.sqrt(t)
    if inner > 700.0:
        return math.inf
    mid = C * math.exp(inner)
    if mid > 700.0:
        return math.inf
    return C * math.exp(mid)


def fit_growth_envelope(norm_series) -> tuple[float, float]:
    """Smallest single rate C with series(t) <= C*exp(C*exp(C*sqrt(t))).

    The defect ``max_t [series(t) - envelope_C(t)]`` is strictly decreasing in
    C, so a doubling bracket plus bisection finds the crossing; the returned C
    is the upper bracket, so the returned residual (the defect at C) is
    guaranteed nonpositive.
    """
    pairs = [(float(t), float(v)) for t, v in norm_series]
    if not pairs:
        raise ValueError("empty series")
    times = [t for t, _ in pairs]
    if any(t < 0.0 for t in times):
        raise ValueError("series times must be nonnegative")
    if any(b - a <= 0 for a, b in zip(times, times[1:])):
        raise ValueError("series time grid must be strictly increasing")
    if any(v <= 0.0 for _, v in pairs):
        raise ValueError("series entries must be positive")

    def defect(C: float) -> float:
        return max(v - _envelope(C, t) for t, v in pairs)

    hi = 1.0
    while defect(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0**60:
            raise RuntimeError("no admissible envelope rate found")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if defect(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return hi, defect(hi)
