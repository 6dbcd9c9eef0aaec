"""Which package functions the traced run wraps, and the per-layer metrics built from them.

Span names follow ``<module>.<function>``.  ``numpy.fft`` transforms are
counted (calls, points, bytes) without spans: points and bytes are computed
from array sizes, not measured.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np

from tracer import TraceSession

_FFT_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

INEQUALITY_CHECKS = (
    "check_bernstein", "check_heat_decay", "check_Ij_bound", "check_transport_estimate",
    "check_elliptic_estimate", "ij_integral", "fit_growth_envelope",
)

CLI_OPS = (
    "simulate", "verify.bernstein", "verify.heat", "verify.ij", "verify.transport",
    "verify.elliptic", "verify.deltas", "verify.product", "verify.commutator",
    "verify.envelope", "elliptic", "decompose", "norm",
)

# (span name, grid size) pairs whose per-call latency is reported.
LATENCIES = (
    ("spectral.multiply", 64), ("spectral.multiply", 128),
    ("elliptic.solve_pressure", 64), ("elliptic.solve_pressure", 128),
    ("evolution.transport_step.spectral", 128),
    ("evolution.transport_step.semi_lagrangian_monotone", 128),
    ("norms.besov_norm", 128),
)

# (span name, stat) for calls/self_s totals per pass.
TOTALS = (
    ("spectral.multiply", "calls"), ("spectral.multiply", "self_s"),
    ("spectral.derivative", "calls"), ("spectral.derivative", "self_s"),
    ("spectral.leray_project", "calls"), ("spectral.leray_project", "self_s"),
    ("elliptic.solve_pressure", "calls"), ("elliptic.solve_pressure", "self_s"),
    ("evolution.ns_integrate", "self_s"),
    ("evolution.momentum_step", "calls"), ("evolution.momentum_step", "self_s"),
    ("evolution.transport_step.spectral", "calls"),
    ("evolution.transport_step.spectral", "self_s"),
    ("evolution.transport_step.semi_lagrangian_monotone", "calls"),
    ("evolution.transport_step.semi_lagrangian_monotone", "self_s"),
    ("dyadic.build_ladder", "calls"), ("dyadic.build_ladder", "self_s"),
    ("dyadic.block", "calls"), ("dyadic.block", "self_s"),
    ("dyadic.low_pass", "calls"), ("dyadic.low_pass", "self_s"),
    ("norms.besov_norm", "calls"), ("norms.besov_norm", "self_s"),
    ("norms.lp_norm", "calls"), ("norms.lp_norm", "self_s"),
    ("norms.chemin_lerner", "self_s"),
    ("paraproduct.para_T", "self_s"), ("paraproduct.remainder_R", "self_s"),
    ("paraproduct.commutator_block", "self_s"),
    ("random_fields.random_band_field", "calls"), ("random_fields.random_band_field", "self_s"),
    ("random_fields.random_divergence_free", "calls"),
    ("random_fields.random_divergence_free", "self_s"),
    ("interpolation.sampler_build", "calls"), ("interpolation.sampler_build", "self_s"),
    ("interpolation.at", "calls"), ("interpolation.at", "self_s"),
    ("lagrangian.integrate_flow", "self_s"), ("lagrangian.flow_defects", "self_s"),
    ("lagrangian.check_div_identity", "self_s"), ("lagrangian.delta_estimates", "self_s"),
    ("cli.save_snapshot", "calls"), ("cli.save_snapshot", "self_s"),
    *((f"inequality_lab.{name}", "self_s") for name in INEQUALITY_CHECKS),
)

def _metric_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, stat in TOTALS:
        units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    for name, n in LATENCIES:
        units[f"{name}.ms_p50.n{n}"] = "ms"
        units[f"{name}.ms_tail.n{n}"] = "ms"
        units[f"{name}.tail_pct.n{n}"] = "%"
        units[f"{name}.samples.n{n}"] = "count"
    units.update({
        "spectral.fft.calls": "count",
        "spectral.fft.points": "points-computed",
        "spectral.fft.bytes": "B-computed",
        "elliptic.pcg_iters": "count",
        "elliptic.iters_per_solve": "1",
        "elliptic.multiply_per_iter": "1",
        "paraproduct.remainder_R.multiply_calls": "count",
        "interpolation.at.points": "count",
        "lagrangian.particle_steps": "count",
        "cli.save_snapshot.bytes": "B",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    for op in CLI_OPS:
        units[f"cli.{op}.s"] = "s"
    return units


PER_LAYER_UNITS = _metric_units()


def _grid_n(field) -> int:
    grid = getattr(field, "grid", None)
    return int(getattr(grid, "n", 0) or 0)


def install(session: TraceSession, bl) -> None:
    """Wrap every traced function of the package ``bl`` and numpy.fft's transforms."""
    span = session.span_wrapper
    pkg = bl.__name__

    def rebind(module, attr, name, **kw):
        session.rebind_function(module, attr, lambda fn: span(name, fn, **kw), pkg)

    def first_n(args, kwargs):
        return _grid_n(args[0]) if args else 0

    # spectral
    def count_inner_multiply(tr, result, args, kwargs):
        if tr.active("elliptic.solve_pressure"):
            tr.counters["elliptic.solve_pressure.multiply_calls"] += 1
        if tr.active("paraproduct.remainder_R"):
            tr.counters["paraproduct.remainder_R.multiply_calls"] += 1

    rebind(bl.spectral, "multiply", "spectral.multiply", size=first_n, after=count_inner_multiply)
    rebind(bl.spectral, "derivative", "spectral.derivative")
    rebind(bl.spectral, "leray_project", "spectral.leray_project")

    def count_fft(tr, result, args, kwargs):
        tr.counters["spectral.fft.calls"] += 1
        tr.counters["spectral.fft.points"] += result.size
        tr.counters["spectral.fft.bytes"] += np.asarray(args[0]).nbytes + result.nbytes

    for attr in _FFT_TRANSFORMS:
        if hasattr(np.fft, attr):
            session.rebind_module_attr(
                np.fft, attr, lambda fn: session.counter_wrapper(fn, count_fft)
            )

    # elliptic
    def count_iters(tr, result, args, kwargs):
        tr.counters["elliptic.pcg_iters"] += result[1].iterations

    rebind(bl.elliptic, "solve_pressure", "elliptic.solve_pressure", size=first_n, after=count_iters)

    # evolution
    def scheme(args, kwargs):
        return kwargs.get("scheme", args[3] if len(args) > 3 else "spectral")

    rebind(bl.evolution, "ns_integrate", "evolution.ns_integrate")
    rebind(bl.evolution, "momentum_step", "evolution.momentum_step")
    rebind(bl.evolution, "transport_step", "evolution.transport_step", label=scheme, size=first_n)

    # dyadic: module-level block/low_pass delegate to these methods
    rebind(bl.dyadic, "build_ladder", "dyadic.build_ladder")
    ladder_cls = bl.dyadic.DyadicLadder
    session.rebind_method(ladder_cls, "block", lambda fn: span("dyadic.block", fn))
    session.rebind_method(ladder_cls, "low_pass", lambda fn: span("dyadic.low_pass", fn))

    # norms
    rebind(bl.norms, "besov_norm", "norms.besov_norm", size=first_n)
    rebind(bl.norms, "lp_norm", "norms.lp_norm")
    rebind(bl.norms, "chemin_lerner", "norms.chemin_lerner")

    # paraproduct
    for attr in ("para_T", "remainder_R", "commutator_block"):
        rebind(bl.paraproduct, attr, f"paraproduct.{attr}")

    # random_fields
    for attr in ("random_band_field", "random_divergence_free"):
        rebind(bl.random_fields, attr, f"random_fields.{attr}")

    # interpolation
    sampler = bl.interpolation.PeriodicSampler
    for attr in ("of_scalar", "of_vector"):
        session.rebind_method(sampler, attr, lambda fn: span("interpolation.sampler_build", fn))

    def count_points(tr, result, args, kwargs):
        tr.counters["interpolation.at.points"] += np.broadcast(args[1], args[2]).size

    session.rebind_method(sampler, "at", lambda fn: span("interpolation.at", fn, after=count_points))

    # lagrangian
    def count_particle_steps(tr, result, args, kwargs):
        trajectory, dt = args[0], args[1]
        times = [item[0] if isinstance(item, (tuple, list)) else item.t for item in trajectory]
        steps = sum(round((b - a) / dt) for a, b in zip(times, times[1:]))
        tr.counters["lagrangian.particle_steps"] += result.grid.n ** 2 * steps

    rebind(bl.lagrangian, "integrate_flow", "lagrangian.integrate_flow", after=count_particle_steps)
    rebind(bl.lagrangian, "check_div_identity", "lagrangian.check_div_identity")
    rebind(bl.lagrangian, "delta_estimates", "lagrangian.delta_estimates")
    flow_map = bl.lagrangian.FlowMap
    for attr in ("volume_defect", "inverse_consistency_defect"):
        session.rebind_method(flow_map, attr, lambda fn: span("lagrangian.flow_defects", fn))

    # inequality_lab
    for attr in INEQUALITY_CHECKS:
        rebind(bl.inequality_lab, attr, f"inequality_lab.{attr}")

    # cli
    def count_bytes(tr, result, args, kwargs):
        tr.counters["cli.save_snapshot.bytes"] += os.path.getsize(args[1])

    rebind(bl.cli, "save_snapshot", "cli.save_snapshot", after=count_bytes)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value.

    Percentiles come from the ladder 99.9, 99, 95, 90, 75 by nearest rank;
    ``(0, 0)`` when fewer than forty samples leave no such rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, 0.0


def pass_counts(summary: dict) -> dict[str, float]:
    """The counts of one traced pass that must repeat exactly for one seed."""
    counters = summary["counters"]
    calls = summary["calls"]
    return {
        "spectral.multiply.calls": calls.get("spectral.multiply", 0),
        "spectral.fft.calls": counters.get("spectral.fft.calls", 0),
        "spectral.fft.points": counters.get("spectral.fft.points", 0),
        "elliptic.pcg_iters": counters.get("elliptic.pcg_iters", 0),
        "interpolation.at.points": counters.get("interpolation.at.points", 0),
        "lagrangian.particle_steps": counters.get("lagrangian.particle_steps", 0),
    }


def per_layer_metrics(summaries: list[dict], op_seconds: dict[str, list[float]],
                      overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the summaries of the traced passes.

    Totals are medians over passes of per-pass totals; latencies pool every
    traced pass.  ``op_seconds`` maps span names of operations to their
    per-pass durations.
    """
    def med(values):
        return float(statistics.median(values)) if values else 0.0

    first = summaries[0]
    out: dict[str, float] = {}
    for name, stat in TOTALS:
        out[f"{name}.{stat}"] = med([s[stat].get(name, 0) for s in summaries])
    for name, n in LATENCIES:
        samples = [d * 1e3 for s in summaries for d in s["latency"].get((name, n), [])]
        pct, tail = tail_percentile(samples)
        out[f"{name}.ms_p50.n{n}"] = med(samples)
        out[f"{name}.ms_tail.n{n}"] = tail
        out[f"{name}.tail_pct.n{n}"] = pct
        out[f"{name}.samples.n{n}"] = float(len(samples))
    counters = first["counters"]
    out.update(pass_counts(first))
    out["spectral.fft.bytes"] = counters.get("spectral.fft.bytes", 0)
    solves = first["calls"].get("elliptic.solve_pressure", 0)
    iters = counters.get("elliptic.pcg_iters", 0)
    out["elliptic.iters_per_solve"] = iters / solves if solves else 0.0
    inner = counters.get("elliptic.solve_pressure.multiply_calls", 0)
    out["elliptic.multiply_per_iter"] = inner / iters if iters else 0.0
    out["paraproduct.remainder_R.multiply_calls"] = counters.get(
        "paraproduct.remainder_R.multiply_calls", 0)
    out["cli.save_snapshot.bytes"] = counters.get("cli.save_snapshot.bytes", 0)
    for op in CLI_OPS:
        out[f"cli.{op}.s"] = med(op_seconds.get(f"cli.{op}", []))
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = float(sum(first["calls"].values()))
    return {k: float(v) for k, v in out.items()}
