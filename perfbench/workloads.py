"""The three benchmark workloads: what each runs, and how its outputs are checked.

Every workload is a list of operations.  An operation runs one call into the
package (a public function or the in-process CLI, ``besovlab.cli.run_cli``)
and is then checked; a failed check is returned as a message and counted,
it never stops the run.  Only the call itself is timed.

Package functions are always looked up through their module at call time
(``bl.lagrangian.integrate_flow``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# ``flow`` compares its final diagnostics with values recorded at the commit
# that introduced this benchmark.  The tolerance absorbs rounding differences
# from a rewritten kernel (pressure solves stop at a 1e-10 relative residual)
# but not a wrong answer, which moves these norms by far more.
FLOW_REFERENCE_RTOL = 1e-6
# The workload seed selects one of this many recorded ``flow`` inputs.
FLOW_VARIANTS = 16

FLOW_ARGS = (
    "simulate", "--n", "128",
    "--viscosity", "exponential", "--mu0", "1", "--mu1", "0.5",
    "--initial", "random", "--amplitude-a", "0.2", "--amplitude-u", "0.005",
    "--scheme", "spectral", "--dt", "0.01", "--T", "0.12", "--snapshot-every", "4",
)
FLOW_STEPS = 12
FLOW_SAMPLES = 4  # t = 0 and every fourth step

_ENVELOPE_ARGS = (
    "--viscosity", "exponential", "--mu0", "1", "--mu1", "0.5",
    "--amplitude-a", "0.2", "--amplitude-u", "0.005",
)
LAB_ARGS = (
    ("verify", "bernstein", "--refine"),
    ("verify", "heat", "--refine"),
    ("verify", "ij", "--refine"),
    ("verify", "transport", "--refine"),
    ("verify", "elliptic", "--refine"),
    ("verify", "deltas", "--refine"),
    ("verify", "product", "--n", "128"),
    ("verify", "commutator", "--n", "128"),
    ("verify", "envelope", *_ENVELOPE_ARGS),
    ("elliptic", "--split-m", "2"),
    ("decompose", "--n", "128"),
    ("norm", "--n", "128"),
)

# characteristics: test_10's bounds for the flow map and the identity.
VOLUME_TOL = 1e-6
INVERSE_TOL = 1e-8
IDENTITY_TOL = 1e-5
MONOTONE_SLACK = 1e-13
CHAR_N = 128
CHAR_T = 0.5
CHAR_SNAPSHOTS = 11
CHAR_DT = 5e-3
SL_STEPS = 40
SL_DT = 0.01


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns an error message or None."""

    span: str  # span name in the traced run, e.g. "cli.verify.product"
    run: Callable[[Path], object]
    check: Callable[[object, Path], str | None]
    work: float = 0.0  # units of work for the workload's rate, 0 if none


def _cli_span(argv) -> str:
    return "cli." + (f"verify.{argv[1]}" if argv[0] == "verify" else argv[0])


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _cli_op(bl, argv, seed: int, check, work: float = 0.0) -> Op:
    def run(out: Path):
        return bl.cli.run_cli([*argv, "--seed", str(seed), "--out", str(out)])

    return Op(span=_cli_span(argv), run=run, check=check, work=work)


class Flow:
    """One in-process ``besovlab simulate`` call: the coupled run at n=128."""

    name = "flow"
    work_unit = "coupled time steps"

    def __init__(self, bl, seed: int, here: Path) -> None:
        self.variant = seed % FLOW_VARIANTS
        reference = json.loads((here / "flow_reference.json").read_text(encoding="utf-8"))
        self.expected = reference["variants"][str(self.variant)]
        self.ops = [_cli_op(bl, FLOW_ARGS, self.variant, self._check, work=FLOW_STEPS)]

    def _check(self, code, out: Path) -> str | None:
        if code != 0:
            return f"simulate exited {code}"
        report = _read_report(out)
        if report.get("stop_reason") != "completed":
            return f"stop reason {report.get('stop_reason')!r}"
        with open(out / "diagnostics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != FLOW_SAMPLES:
            return f"{len(rows)} diagnostic samples"
        if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
            return "non-finite diagnostics"
        got = {"A": float(rows[-1]["A"]), "Z": float(rows[-1]["Z"]), "E0": float(rows[-1]["E0"])}
        for key, value in got.items():
            want = self.expected[key]
            if abs(value - want) > FLOW_REFERENCE_RTOL * abs(want):
                return f"final {key} = {value!r}, recorded {want!r}"
        return None


class Lab:
    """The verification sweep at the default config, twelve CLI operations."""

    name = "lab"
    work_unit = "CLI operations"

    def __init__(self, bl, seed: int, here: Path) -> None:
        self.pressure_tol = bl.cli.ExperimentConfig().pressure_tol
        self.ops = [_cli_op(bl, argv, seed, self._checker(argv), work=1.0) for argv in LAB_ARGS]

    def _checker(self, argv):
        verb = argv[0]

        def check(code, out: Path) -> str | None:
            if code != 0:
                return f"{' '.join(argv)} exited {code}"
            report = _read_report(out)
            if verb == "verify":
                return None if report.get("passed") is True else f"{argv[1]}: passed={report.get('passed')!r}"
            if verb == "elliptic":
                res = report.get("residual")
                ok = _finite(res) and res <= self.pressure_tol and _finite(report.get("grad_pi_linf"))
                return None if ok else f"elliptic residual {res!r}"
            key = "norm" if verb == "decompose" else "value"
            value = report.get(key)
            return None if _finite(value) and value > 0 else f"{verb}: {key}={value!r}"

        return check


class Characteristics:
    """Particle flow maps and monotone semi-Lagrangian transport at n=128."""

    name = "characteristics"
    work_unit = "particle RK4 steps"

    def __init__(self, bl, seed: int, here: Path) -> None:
        spectral, rf = bl.spectral, bl.random_fields
        grid = spectral.make_grid(CHAR_N)
        x, y = grid.coords
        cellular = spectral.VectorField(
            spectral.SpectralField.from_physical(grid, np.cos(x) * np.sin(y)),
            spectral.SpectralField.from_physical(grid, -np.sin(x) * np.cos(y)),
        )
        rough = rf.random_divergence_free(grid, 1.0, 5.0, rf.trial_seed(seed, 0))
        rough = rough * (1.0 / rough.linf())
        # Blend the cellular flow into the random one over [0, T].
        self.history = [
            (float(t), cellular * (1.0 - t / CHAR_T) + rough * (t / CHAR_T))
            for t in np.linspace(0.0, CHAR_T, CHAR_SNAPSHOTS)
        ]
        self.final_velocity = self.history[-1][1]
        self.scalar0 = rf.random_band_field(grid, 1.0, 8.0, rf.trial_seed(seed, 1))
        self.sup0 = self.scalar0.linf()
        self.particle_steps = grid.n**2 * round(CHAR_T / CHAR_DT)
        self.flow = None
        self.bl = bl
        self.ops = [
            Op("bench.integrate_flow", self._integrate, self._check_flow, work=self.particle_steps),
            Op("bench.flow_checks", self._flow_checks, self._check_defects),
            Op("bench.semi_lagrangian", self._transport, self._check_transport),
        ]

    def _integrate(self, out: Path):
        self.flow = self.bl.lagrangian.integrate_flow(self.history, CHAR_DT)
        return self.flow

    def _check_flow(self, flow, out: Path) -> str | None:
        if len(flow.times) != CHAR_SNAPSHOTS or abs(flow.times[-1] - CHAR_T) > 1e-12:
            return f"flow map has {len(flow.times)} records ending at {flow.times[-1]}"
        return None

    def _flow_checks(self, out: Path):
        flow = self.flow
        identity = self.bl.lagrangian.check_div_identity(self.final_velocity, CHAR_T, flow)
        return flow.volume_defect(), flow.inverse_consistency_defect(), identity

    def _check_defects(self, result, out: Path) -> str | None:
        volume, inverse, identity = result
        if not volume <= VOLUME_TOL:
            return f"volume defect {volume:.3e} > {VOLUME_TOL:g}"
        if not inverse <= INVERSE_TOL:
            return f"inverse consistency {inverse:.3e} > {INVERSE_TOL:g}"
        worst = max(identity.trace_form, identity.flux_form)
        if not worst <= IDENTITY_TOL:
            return f"divergence identity residual {worst:.3e} > {IDENTITY_TOL:g}"
        return None

    def _transport(self, out: Path):
        step = self.bl.evolution.transport_step
        a = self.scalar0
        sups = []
        for _ in range(SL_STEPS):
            a = step(a, self.final_velocity, SL_DT, scheme="semi_lagrangian_monotone")
            sups.append(a.linf())
        return sups

    def _check_transport(self, sups, out: Path) -> str | None:
        limit = self.sup0 * (1.0 + MONOTONE_SLACK)
        if len(sups) != SL_STEPS or not all(math.isfinite(s) for s in sups):
            return "non-finite transported scalar"
        worst = max(sups)
        return None if worst <= limit else f"sup grew from {self.sup0!r} to {worst!r}"


WORKLOADS = {cls.name: cls for cls in (Flow, Lab, Characteristics)}
