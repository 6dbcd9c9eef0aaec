"""Command-line front end: experiment configs, snapshot files, and CSV reports.

Configuration grammar
---------------------
A config file is plain text, one ``key = value`` assignment per line.  ``#``
starts a comment, blank lines are ignored.  Values are integers, floats
(written with full ``repr`` precision so a save/load cycle is lossless),
booleans ``true``/``false``, or strings (bare tokens, or double-quoted when
they contain spaces).  Unknown keys are rejected.  Omitted keys take the
documented defaults; ``split_m`` may be omitted entirely to disable the
split-viscosity corrector.  Every key except ``homogeneous``,
``epsilon_budget``, ``pressure_tol`` and ``pressure_max_iter`` also has a
flag, ``--`` plus the key with dashes for underscores; flags override the file.

Smoothness exponents may be symbolic expressions in the integrability
parameters, e.g. ``s = "2/p-1"``; they are resolved against the configured
``p`` and ``q`` at the point of use.  The allowed operators are ``+ - * /``,
unary minus, parentheses, and numeric literals.

Snapshot format (extension ``.bsns``)
-------------------------------------
Little-endian binary: 4-byte magic ``BSNS``, ``u16`` version (currently 1),
``u32`` grid size ``n``, ``f64`` box length, ``f64`` time stamp, followed by
four ``n*n`` planes of ``f64`` physical samples in row-major order: the
coefficient field, both velocity components, and the pressure potential.

Exit codes
----------
``0`` success, ``1`` a computed check failed or a solver reported a problem,
``2`` usage errors (bad flags, unknown subcommands, malformed configs).

Report CSVs are byte-identical across reruns with the same config and seed;
timestamps only ever go to ``run.log``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import hashlib
import json
import math
import operator
import platform
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .elliptic import solve_pressure
from .evolution import (
    TRANSPORT_SCHEMES,
    VISCOSITY_KINDS,
    IntegrationConfig,
    StateSnapshot,
    ViscosityLaw,
    energy_diagnostics,
    ns_integrate,
    transport_step,
)
from .inequality_lab import (
    RatioReport,
    check_Ij_bound,
    check_bernstein,
    check_elliptic_estimate,
    check_heat_decay,
    check_transport_estimate,
    fit_growth_envelope,
    growth_envelope,
    ij_integral,
    mark_refinement,
)
from .lagrangian import (
    check_div_identity,
    delta_estimates,
    gradient_tensor,
    integrate_flow,
)
from .norms import BesovSpec, besov_norm, chemin_lerner
from .paraproduct import para_T, remainder_R
from .random_fields import (
    random_band_field,
    random_divergence_free,
    trial_seed,
)
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    gradient,
    make_grid,
    multiply,
    potential_from_gradient,
)

__all__ = [
    "ExperimentConfig",
    "load_snapshot",
    "main",
    "resolve_exponent",
    "run_cli",
    "save_snapshot",
]


# ---------------------------------------------------------------------------
# symbolic exponents
# ---------------------------------------------------------------------------

_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


def resolve_exponent(expr, p: float, q: float | None = None) -> float:
    """Evaluate a smoothness exponent, possibly symbolic in ``p`` and ``q``.

    Accepts plain numbers as-is and strings such as ``"2/p-1"`` or
    ``"1/p+1/q"``.  Only arithmetic on numeric literals and the names ``p``
    and ``q`` is allowed; anything else raises ``ValueError``.
    """
    if isinstance(expr, (int, float)):
        return float(expr)
    if not isinstance(expr, str):
        raise ValueError(f"exponent must be a number or string, got {type(expr).__name__}")
    names = {"p": float(p)}
    if q is not None:
        names["q"] = float(q)
    try:
        tree = ast.parse(expr.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse exponent expression {expr!r}") from exc

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ValueError(f"unknown name {node.id!r} in exponent expression {expr!r}")
        op = _OPERATORS.get(type(getattr(node, "op", None)))
        if isinstance(node, ast.UnaryOp) and op is not None:
            return op(walk(node.operand))
        if isinstance(node, ast.BinOp) and op is not None:
            left, right = walk(node.left), walk(node.right)
            if op is operator.truediv and right == 0.0:
                raise ValueError(f"division by zero in exponent expression {expr!r}")
            return op(left, right)
        raise ValueError(f"unsupported construct in exponent expression {expr!r}")

    value = walk(tree)
    if not math.isfinite(value):
        raise ValueError(f"exponent expression {expr!r} does not evaluate to a finite number")
    return value


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

_INITIAL_PRESETS = ("random", "rest", "taylor_green", "shear")

# The value types each field annotation of ExperimentConfig admits; an int may
# fill a float field, a bool fills only a bool field.
_FIELD_TYPES = {
    "int": int,
    "float": (int, float),
    "float | str": (int, float, str),
    "int | None": (int, type(None)),
    "bool": bool,
    "str": str,
}
# The argparse type of the flag of each field annotation; strings take none.
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}


def _flag(default, help_text: str, **options):
    """A field with a ``--`` flag: its help text and any ``choices`` go in the field's metadata."""
    return dataclasses.field(default=default, metadata={"help": help_text, **options})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, function-space indices, physics, and run knobs.

    Serializes to/from the ``key = value`` text format documented at module
    level; ``from_text(cfg.to_text())`` reproduces the config exactly,
    including symbolic exponent strings.
    """

    n: int = _flag(64, "grid size (power of two)")
    L: float = _flag(2.0 * math.pi, "box side length")
    p: float = _flag(2.0, "integrability index")
    q: float = _flag(2.0, "secondary integrability index")
    s: float | str = _flag("2/p", "smoothness exponent (may be symbolic, e.g. 2/p-1)")
    r: float = _flag(1.0, "octave summation index")
    homogeneous: bool = True
    viscosity: str = _flag("constant", "viscosity law kind", choices=VISCOSITY_KINDS)
    mu0: float = _flag(1.0, "baseline viscosity")
    mu1: float = _flag(0.0, "viscosity modulation")
    T: float = _flag(0.1, "time horizon")
    dt: float = _flag(0.01, "time step")
    snapshot_every: int = _flag(1, "steps between snapshots")
    scheme: str = _flag("spectral", "transport scheme", choices=TRANSPORT_SCHEMES)
    split_m: int | None = _flag(None, "split octave")
    epsilon_budget: float = 1000.0
    pressure_tol: float = 1e-10
    pressure_max_iter: int = 500
    tolerance: float = _flag(1e-6, "pass/fail tolerance")
    seed: int = _flag(2024, "base random seed")
    trials: int = _flag(5, "number of random trials")
    j: int = _flag(3, "octave index for single-octave checks")
    k: int = _flag(1, "derivative order for derivative checks")
    initial: str = _flag("random", "initial data preset", choices=_INITIAL_PRESETS)
    amplitude_a: float = _flag(0.0, "coefficient amplitude")
    amplitude_u: float = _flag(0.005, "velocity amplitude")
    k0: float = _flag(3.0, "spectral center of synthetic data")

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, kinds = getattr(self, field.name), _FIELD_TYPES[field.type]
            if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        Grid(self.n, self.L)  # validates n and L
        for name in ("p", "q"):
            value = getattr(self, name)
            if not 1.0 < value < 64.0:
                raise ValueError(f"{name} must lie in (1, 64), got {value}")
        if self.r < 1.0:
            raise ValueError("summation index r must be >= 1")
        self.viscosity_law()  # validates viscosity, mu0 and mu1
        if self.scheme not in TRANSPORT_SCHEMES:
            raise ValueError(f"unknown transport scheme {self.scheme!r}")
        if self.initial not in _INITIAL_PRESETS:
            raise ValueError(f"unknown initial-data preset {self.initial!r}")
        if self.T <= 0.0 or self.dt <= 0.0:
            raise ValueError("horizon and step size must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot cadence must be a positive step count")
        if self.split_m is not None and self.split_m < 0:
            raise ValueError("split octave must be nonnegative")
        if self.epsilon_budget <= 0.0:
            raise ValueError("smallness budget must be positive")
        if self.pressure_tol <= 0.0 or self.pressure_max_iter < 1:
            raise ValueError("pressure solver settings must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.trials < 1:
            raise ValueError("trial count must be positive")
        if self.j < 0:
            raise ValueError("octave index must be nonnegative")
        if self.k < 1:
            raise ValueError("derivative order must be >= 1")
        if self.amplitude_a < 0.0 or self.amplitude_u < 0.0:
            raise ValueError("amplitudes must be nonnegative")
        if not 0.0 < self.k0 <= self.n / 2:
            raise ValueError("spectral center k0 must lie in (0, n/2]")
        # Resolve eagerly so malformed symbolic exponents fail at load time.
        resolve_exponent(self.s, self.p, self.q)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            lines.append(f"{field.name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, token = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"line {lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: duplicate config key {key!r}")
            values[key] = _parse_value(key, token.strip(), lineno)
        return cls(**values)

    def config_id(self) -> str:
        """Stable 12-hex-digit digest of the canonical config text."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:12]

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        live = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **live) if live else self

    # -- derived objects ----------------------------------------------------

    def grid(self) -> Grid:
        return make_grid(self.n, self.L)

    def smoothness(self) -> float:
        return resolve_exponent(self.s, self.p, self.q)

    def besov_spec(self) -> BesovSpec:
        return BesovSpec(self.smoothness(), self.p, self.r, homogeneous=self.homogeneous)

    def viscosity_law(self) -> ViscosityLaw:
        return ViscosityLaw(self.viscosity, self.mu0, self.mu1)

    def integration(self) -> IntegrationConfig:
        """The integrator's settings: the viscosity law and every field that both configs declare."""
        shared = {setting.name for setting in dataclasses.fields(IntegrationConfig)}
        values = {name: value for name, value in dataclasses.asdict(self).items() if name in shared}
        return IntegrationConfig(visc=self.viscosity_law(), **values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if text and all(c.isalnum() or c in "_./+-" for c in text):
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parse_value(key: str, token: str, lineno: int):
    if not token:
        raise ValueError(f"line {lineno}: empty value for {key!r}")
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise ValueError(f"line {lineno}: unterminated string for {key!r}")
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

_MAGIC = b"BSNS"
_VERSION = 1
_HEADER = struct.Struct("<HIdd")  # version, n, L, t


def save_snapshot(state: StateSnapshot, path) -> None:
    """Write a state snapshot in the binary format described at module level.

    The pressure gradient is stored through its scalar potential, which the
    loader differentiates back; for periodic gradients the cycle is exact to
    rounding.
    """
    grid = state.a.grid
    potential = potential_from_gradient(state.gradPi)
    planes = (
        state.a.values,
        state.u.u1.values,
        state.u.u2.values,
        potential.values,
    )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, grid.n, grid.L, state.t))
        for plane in planes:
            fh.write(np.ascontiguousarray(plane, dtype="<f8").tobytes())


def load_snapshot(path) -> StateSnapshot:
    """Read a snapshot written by :func:`save_snapshot`, validating the layout."""
    data = Path(path).read_bytes()
    if len(data) < len(_MAGIC) or data[: len(_MAGIC)] != _MAGIC:
        found = bytes(data[: len(_MAGIC)])
        raise ValueError(
            f"bad snapshot magic at offset 0: expected {_MAGIC!r}, found {found!r}"
        )
    if len(data) < len(_MAGIC) + _HEADER.size:
        raise ValueError(
            f"truncated snapshot header: need {len(_MAGIC) + _HEADER.size} bytes,"
            f" file has {len(data)}"
        )
    version, n, L, t = _HEADER.unpack_from(data, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if n < 2 or n & (n - 1) != 0:
        raise ValueError(f"snapshot grid size {n} is not a power of two")
    expected = len(_MAGIC) + _HEADER.size + 4 * n * n * 8
    if len(data) != expected:
        raise ValueError(
            f"truncated or padded snapshot: expected {expected} bytes, found {len(data)}"
        )
    planes = np.frombuffer(
        data, dtype="<f8", count=4 * n * n, offset=len(_MAGIC) + _HEADER.size
    ).reshape(4, n, n)
    for name, plane in zip(("coefficient", "velocity u1", "velocity u2", "pressure"), planes):
        if not np.isfinite(plane).all():
            raise ValueError(f"snapshot {name} plane holds non-finite values")
    grid = make_grid(n, L)
    a = SpectralField.from_physical(grid, planes[0])
    u = VectorField.from_physical(grid, planes[1], planes[2])
    pressure = SpectralField.from_physical(grid, planes[3])
    return StateSnapshot(t=t, a=a, u=u, gradPi=gradient(pressure))


# ---------------------------------------------------------------------------
# run directory bookkeeping
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """Raised for argument/config mistakes; mapped to exit code 2."""


def _fmt_num(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.17g}"


def _write_report_csv(path: Path, config: ExperimentConfig, rows) -> None:
    """One ``config_id,seed`` keyed line per ``(j, lhs, rhs, ratio)`` row."""
    key = f"{config.config_id()},{config.seed}"
    lines = ["config_id,seed,j,lhs,rhs,ratio"]
    for j, lhs, rhs, ratio in rows:
        lines.append(f"{key},{j},{_fmt_num(lhs)},{_fmt_num(rhs)},{_fmt_num(ratio)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(outdir: Path, config: ExperimentConfig, command: str) -> None:
    manifest = {
        "command": command,
        "config_id": config.config_id(),
        "config": config.to_text(),
        "seed": config.seed,
        "versions": {
            "besovlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _log(outdir: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(outdir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _prepare(args, command: str) -> tuple[ExperimentConfig, Path]:
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        try:
            config = ExperimentConfig.from_text(text)
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"invalid config file: {exc}") from exc
    else:
        config = ExperimentConfig()
    overrides = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ExperimentConfig)
        if hasattr(args, field.name)
    }
    try:
        config = config.with_overrides(**overrides)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"invalid option value: {exc}") from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, config, command)
    _log(outdir, f"start {command} config={config.config_id()} seed={config.seed}")
    return config, outdir


@dataclass(frozen=True)
class _Outcome:
    """What a verb reports: its CSV (``csv`` is None for simulate), report.json and verdict."""

    csv: str | None
    rows: list
    payload: dict
    passed: bool
    summary: str


def _finish(outdir: Path, config: ExperimentConfig, outcome: _Outcome) -> int:
    """Write a verb's report files, log and print its summary line, and return its exit code."""
    if outcome.csv is not None:
        _write_report_csv(outdir / outcome.csv, config, outcome.rows)
    (outdir / "report.json").write_text(
        json.dumps(outcome.payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )
    _log(outdir, outcome.summary)
    print(outcome.summary)
    return 0 if outcome.passed else 1


def _check_outcome(check: str, rows, payload: dict, passed: bool, note: str) -> _Outcome:
    """Outcome of a pass/fail check: rows go to ``<check>.csv``, the verdict to report.json."""
    payload = {**payload, "check": check, "passed": passed}
    summary = f"{check}: {'pass' if passed else 'FAIL'} ({note})"
    return _Outcome(f"{check}.csv", list(rows), payload, passed, summary)


def _report_rows(report: RatioReport, js=None):
    """Rows ``(j, ratio, 1, ratio)``, ``j`` taken from ``js``, ``extra["js"]`` or the index."""
    if js is None:
        js = report.extra.get("js", range(len(report.ratios)))
    return [(j, ratio, 1.0, ratio) for j, ratio in zip(js, report.ratios)]


def _ratio_outcome(report: RatioReport, passed: bool, note: str, rows=None) -> _Outcome:
    """Outcome of a RatioReport check; a failed --refine comparison fails it too."""
    passed = passed and report.refinement_stable is not False
    rows = _report_rows(report) if rows is None else rows
    return _check_outcome(report.check, rows, report.to_dict(), passed, note)


def _refined(args, measure, n: int) -> RatioReport:
    """``measure(n)``, or under --refine its rerun at 2n marked by the drift between them."""
    report = measure(n)
    return mark_refinement(report, measure(2 * n)) if args.refine else report


# ---------------------------------------------------------------------------
# synthetic data shared by several verbs
# ---------------------------------------------------------------------------

def _synthetic_band(grid: Grid, config: ExperimentConfig) -> tuple[float, float]:
    """Wavenumber band of the synthetic data: an octave either side of ``k0``, below n/3."""
    return max(1.0, config.k0 / 2.0), min(2.0 * config.k0, grid.n / 3.0)


def _synthetic_scalar(grid: Grid, config: ExperimentConfig, stream: int):
    """Random band-limited mean-zero scalar with unit sup norm."""
    raw = random_band_field(grid, *_synthetic_band(grid, config), trial_seed(config.seed, stream))
    vals = raw.values
    vals = vals / max(np.max(np.abs(vals)), 1e-300)
    return SpectralField.from_physical(grid, vals)


def _bounded_coefficient(grid: Grid, config: ExperimentConfig, stream: int):
    """Random coefficient of sup norm ``amplitude_a`` (0.7 if unset): min(1 + a) >= 0.3 at the grid nodes."""
    limit = 1.0 - 0.3
    if config.amplitude_a > limit:
        raise _UsageError(
            f"amplitude_a = {config.amplitude_a} exceeds {limit:g}, the largest amplitude"
            " that keeps the coefficient floor min(1 + a) at 0.3 at the grid nodes"
        )
    raw = random_band_field(grid, 1.0, 6.0, trial_seed(config.seed, stream), slope=-0.5)
    vals = raw.values
    amp = config.amplitude_a if config.amplitude_a > 0 else limit
    vals = vals * (amp / max(np.max(np.abs(vals)), 1e-300))
    return SpectralField.from_physical(grid, vals)


def _trial_pairs(
    grid: Grid, config: ExperimentConfig, k_high: float, means: tuple[float, float], stream: int = 0
):
    """Per trial: ``t`` and its band fields of streams ``(t, stream + i)`` with means ``means[i]``."""
    for t in range(config.trials):
        yield t, *(
            random_band_field(
                grid, 1.0, k_high, trial_seed(config.seed, t, stream + i), mean=mean
            )
            for i, mean in enumerate(means)
        )


def _preset_velocity(grid: Grid, preset: str, amplitude: float) -> VectorField:
    """The ``taylor_green`` cellular flow or the ``shear`` flow at the given amplitude."""
    x, y = grid.coords
    if preset == "taylor_green":
        return VectorField.from_physical(
            grid, amplitude * np.cos(x) * np.sin(y), -amplitude * np.sin(x) * np.cos(y)
        )
    return VectorField(
        SpectralField.from_physical(grid, amplitude * np.sin(y)), SpectralField.zero(grid)
    )


def _initial_data(grid: Grid, config: ExperimentConfig):
    a0 = SpectralField.zero(grid)
    if config.initial == "rest":
        return a0, VectorField.zero(grid)
    if config.amplitude_a > 0.0:
        a0 = _synthetic_scalar(grid, config, 11) * config.amplitude_a
    if config.initial in ("taylor_green", "shear"):
        return a0, _preset_velocity(grid, config.initial, config.amplitude_u)
    return a0, random_divergence_free(
        grid, *_synthetic_band(grid, config), trial_seed(config.seed, 12),
        amplitude=config.amplitude_u,
    )


# ---------------------------------------------------------------------------
# verb bodies: each maps (config, parsed arguments) to an _Outcome
# ---------------------------------------------------------------------------

def _decompose(config: ExperimentConfig, args) -> _Outcome:
    if args.snapshot:
        field = _snapshot_plane(load_snapshot(args.snapshot), args.plane)
    else:
        field = _synthetic_scalar(config.grid(), config, 1)
    spec = config.besov_spec()
    total, profile = besov_norm(field, spec)
    rows = [
        (j, value, total, value / total if total > 0 else 0.0)
        for j, value in zip(profile.js, profile.values)
    ]
    payload = {
        "check": "decompose",
        "norm": total,
        "octaves": profile.js,
        "block_norms": profile.values,
        "spec": {"s": config.s, "p": config.p, "r": config.r, "homogeneous": config.homogeneous},
    }
    summary = f"decomposition: {len(profile.js)} octaves, norm {total:.12e}"
    return _Outcome("decompose.csv", rows, payload, True, summary)


def _snapshot_plane(state: StateSnapshot, plane: str) -> SpectralField:
    """The ``--plane`` field of a snapshot; argparse's choices bound ``plane``."""
    if plane == "pressure":
        return potential_from_gradient(state.gradPi)
    return {"a": state.a, "u1": state.u.u1, "u2": state.u.u2}[plane]


def _parse_norm_spec(text: str, config: ExperimentConfig) -> BesovSpec:
    """Parse ``"EXPR,p=3,r=1,homog"`` into a Besov space description."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise _UsageError("empty norm spec")
    indices = {"p": config.p, "q": config.q, "r": config.r}
    homogeneous = config.homogeneous
    flags = {"homog": True, "homogeneous": True, "inhomog": False, "inhomogeneous": False}
    for part in parts[1:]:
        if part in flags:
            homogeneous = flags[part]
            continue
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise _UsageError(f"norm spec entry {part!r} is not 'key=value'")
        try:
            number = float(value)
        except ValueError as exc:
            raise _UsageError(f"norm spec entry {part!r} has a non-numeric value") from exc
        if key not in indices:
            raise _UsageError(f"unknown norm spec key {key!r}")
        indices[key] = number
    s = resolve_exponent(parts[0], indices["p"], indices["q"])
    return BesovSpec(s, indices["p"], indices["r"], homogeneous=homogeneous)


def _norm(config: ExperimentConfig, args) -> _Outcome:
    grid = config.grid()
    spec = _parse_norm_spec(args.spec, config) if args.spec else config.besov_spec()
    snapshots = [load_snapshot(path) for path in args.snapshot or []]
    if len(snapshots) > 1:
        states = sorted(snapshots, key=lambda s: s.t)
        t0 = states[0].t
        pairs = [(s.t - t0, _snapshot_plane(s, args.plane)) for s in states]
        value = chemin_lerner(pairs, spec, args.sigma)
        label = "time-space norm"
    else:
        if snapshots:
            field = _snapshot_plane(snapshots[0], args.plane)
        elif args.source == "constant":
            field = SpectralField.from_physical(grid, np.ones((grid.n, grid.n)))
        else:
            field = _synthetic_scalar(grid, config, 1)
        value, _ = besov_norm(field, spec)
        label = "norm"
    rows = [(0, value, value, 1.0)]
    payload = {"check": "norm", "value": value, "spec": args.spec or config.s}
    return _Outcome("norm.csv", rows, payload, True, f"{label}: {value:.12e}")


def _octave_fits(j: int, n: int) -> bool:
    return (8.0 / 3.0) * 2.0**j <= n / 2.0 - 1.0


def _verify_bernstein(config: ExperimentConfig, args) -> _Outcome:
    octaves = tuple(j for j in (1, 2, 3, 4) if _octave_fits(j, config.n)) or (1,)

    def measure(n: int) -> RatioReport:
        return check_bernstein(
            config.k, config.p, config.q, config.trials,
            js=octaves, grid_n=n, seed=config.seed,
        )

    report = _refined(args, measure, config.n)
    drift = report.extra.get("annulus_drift", 0.0)
    passed = all(r > 0 for r in report.ratios)
    js = [j for j in octaves for _ in range(config.trials)]
    return _ratio_outcome(
        report,
        passed,
        f"max ratio {report.max_ratio:.4e}, annulus drift {drift:.2%}",
        rows=_report_rows(report, js),
    )


def _verify_heat(config: ExperimentConfig, args) -> _Outcome:
    def measure(n: int) -> RatioReport:
        return check_heat_decay(
            config.j, (0.0, 0.005, 0.01, 0.02, 0.04), p=config.p,
            trials=config.trials, grid_n=n, seed=config.seed,
        )

    n = config.n
    while not _octave_fits(config.j, n):  # the first doubling of the grid that resolves octave j
        n *= 2
    largest = 2 * n if args.refine else n  # --refine reruns on 2n
    if largest > 2048:
        raise _UsageError(f"verify heat at j = {config.j} needs a {largest}^2 grid, above the largest, 2048^2")
    report = _refined(args, measure, n)
    lo, hi = report.extra["c_window"]
    c_fit = report.extra["c_fit"]
    rows = [(idx, c, C, c / C if C > 0 else 0.0) for idx, (c, C) in enumerate(zip(c_fit, report.ratios))]
    note = f"decay rates in [{lo:.4f}, {hi:.4f}]: {min(c_fit):.4f}..{max(c_fit):.4f}"
    return _ratio_outcome(report, all(lo <= c <= hi for c in c_fit), note, rows=rows)


def _verify_product(config: ExperimentConfig, args) -> _Outcome:
    grid = config.grid()
    rows = []
    tol = max(config.tolerance, 1e-12)
    for t, u, v in _trial_pairs(grid, config, grid.n / 4.0, (0.4, -0.2)):
        exact = multiply(u, v)
        recon = para_T(u, v) + para_T(v, u) + remainder_R(u, v)
        scale = math.sqrt(float(np.mean(exact.values**2)))
        defect = math.sqrt(float(np.mean((recon.values - exact.values) ** 2))) / max(scale, 1e-300)
        rows.append((t, defect, tol, defect / tol))
    worst = max(row[1] for row in rows)
    payload = {"max_defect": worst, "tolerance": tol}
    return _check_outcome("product_decomposition", rows, payload, worst <= tol, f"max defect {worst:.3e}")


def _verify_commutator(config: ExperimentConfig, args) -> _Outcome:
    if config.p < 2.0:
        raise _UsageError("the integration-by-parts cross-check needs p >= 2")
    grid = config.grid()
    rows = []
    for t, a, pressure in _trial_pairs(grid, config, grid.n / 6.0, (0.3, 0.0)):
        lhs = ij_integral(a, pressure, config.p, config.j, form="divergence")
        rhs = ij_integral(a, pressure, config.p, config.j, form="parts")
        scale = max(abs(lhs), abs(rhs), 1e-300)
        defect = abs(lhs - rhs) / scale
        rows.append((t, lhs, rhs, defect))
    worst = max(row[3] for row in rows)
    payload = {"max_relative_gap": worst, "tolerance": config.tolerance}
    passed = worst <= config.tolerance
    return _check_outcome("commutator_integral", rows, payload, passed, f"max gap {worst:.3e}")


def _verify_ij(config: ExperimentConfig, args) -> _Outcome:
    def measure(n: int) -> RatioReport:
        grid = make_grid(n, config.L)
        ratios = []
        for _, a, pressure in _trial_pairs(grid, config, 8.0, (0.2, 0.0)):
            rep = check_Ij_bound(a, pressure, config.p, config.q, config.j)
            ratios.extend(rep.ratios)
        return RatioReport(
            check="pressure_flux_bound",
            config={"p": config.p, "q": config.q, "j": config.j, "grid_n": n},
            seed=config.seed,
            ratios=tuple(ratios),
            extra={"js": (config.j,) * len(ratios)},
        )

    report = _refined(args, measure, config.n)
    return _ratio_outcome(report, True, f"max ratio {report.max_ratio:.4e}")


def _transport_trajectory(config: ExperimentConfig):
    grid = config.grid()
    a = _synthetic_scalar(grid, config, 31)
    x, y = grid.coords
    u = VectorField.from_physical(
        grid, config.amplitude_u * np.sin(y), config.amplitude_u * np.sin(x)
    )
    steps = max(1, int(round(config.T / config.dt)))
    trajectory = [(0.0, a, u)]
    state = a
    for step in range(1, steps + 1):
        state = transport_step(state, u, config.dt, scheme=config.scheme)
        if step % config.snapshot_every == 0 or step == steps:
            trajectory.append((step * config.dt, state, u))
    return trajectory


def _verify_transport(config: ExperimentConfig, args) -> _Outcome:
    def measure(n: int) -> RatioReport:
        trajectory = _transport_trajectory(dataclasses.replace(config, n=n))
        return check_transport_estimate(trajectory, config.p, config.q)

    report = _refined(args, measure, config.n)
    passed = all(r > 0 for r in report.ratios)
    note = f"C_min {report.extra.get('C_min', float('nan')):.4e}"
    return _ratio_outcome(report, passed, note)


def _verify_elliptic(config: ExperimentConfig, args) -> _Outcome:
    def measure(n: int) -> RatioReport:
        grid = make_grid(n, config.L)
        ratios = []
        l2_ok = True
        for t, F1, F2 in _trial_pairs(grid, config, grid.n / 4.0, (0.0, 0.0), stream=1):
            a = _bounded_coefficient(grid, config, t)
            F = VectorField(F1, F2)
            grad_pi, _, _ = solve_pressure(a, F, tol=config.pressure_tol)
            rep = check_elliptic_estimate(a, F, grad_pi, config.p)
            ratios.extend(rep.ratios)
            l2_ok = l2_ok and bool(rep.extra.get("l2_ok", True))
        return RatioReport(
            check="pressure_estimate",
            config={"p": config.p, "grid_n": n},
            seed=config.seed,
            ratios=tuple(ratios),
            extra={"l2_ok": l2_ok},
        )

    report = _refined(args, measure, config.n)
    l2_ok = report.extra["l2_ok"]
    return _ratio_outcome(report, bool(l2_ok), f"max ratio {report.max_ratio:.4e}, l2_ok={l2_ok}")


def _integration(config: ExperimentConfig) -> IntegrationConfig:
    """The integrator settings, built before any work: one it rejects is a usage error."""
    try:
        return config.integration()
    except ValueError as exc:
        raise _UsageError(f"invalid integration setting: {exc}") from exc


def _verify_envelope(config: ExperimentConfig, args) -> _Outcome:
    run = _integration(config)
    a0, u0 = _initial_data(config.grid(), config)
    _, diag = ns_integrate(run, a0, u0)
    stopped = diag.stop_reason + (f"; {diag.stop_cause}" if diag.stop_cause else "")
    series = [
        (t, diag.A[i] + diag.Z[i])
        for i, t in enumerate(diag.times)
        if diag.A[i] + diag.Z[i] > 0.0
    ]
    if not series:
        raise RuntimeError(
            "diagnostics produced no positive norm samples to fit"
            f" (integration stopped: {stopped})"
        )
    C, defect = fit_growth_envelope(series)
    rows = []
    for idx, (t, value) in enumerate(series):
        bound = growth_envelope(C, t)
        rows.append((idx, value, bound, value / bound))
    passed = defect <= 0.0 and diag.stop_reason == "completed"
    payload = {"C": C, "defect": defect, "stop_reason": diag.stop_reason, "stop_cause": diag.stop_cause}
    note = f"C={C:.4e}, defect {defect:.3e}" + (f", stopped: {stopped}" if diag.stop_cause else "")
    return _check_outcome("growth_envelope", rows, payload, passed, note)


def _verify_deltas(config: ExperimentConfig, args) -> _Outcome:
    def measure(n: int) -> RatioReport:
        grid = make_grid(n, config.L)
        base = random_divergence_free(grid, 1.0, 5.0, trial_seed(config.seed, 41))
        # Keep the integrated velocity gradient well inside the series'
        # convergence region (sup_t of the accumulated gradient ~ 0.3).
        G = gradient_tensor(base)
        sup_grad = float(np.max(np.sqrt(np.einsum("...ij,...ij->...", G, G))))
        del G  # not held through delta_estimates, whose peak it would raise
        base = base * (0.3 / (config.T * max(sup_grad, 1e-300)))
        bump = random_divergence_free(grid, 1.0, 5.0, trial_seed(config.seed, 42))
        bump = bump * (0.3e-3 / (config.T * max(sup_grad, 1e-300)))
        times = np.linspace(0.0, config.T, 5)
        traj1 = [(float(t), base * math.exp(-t)) for t in times]
        traj2 = [(float(t), (base + bump) * math.exp(-t)) for t in times]
        return delta_estimates(traj1, traj2, config.p)

    report = _refined(args, measure, config.n)
    return _ratio_outcome(report, True, f"ratios {[f'{r:.3e}' for r in report.ratios]}")


def _elliptic(config: ExperimentConfig, args) -> _Outcome:
    grid = config.grid()
    a = _bounded_coefficient(grid, config, 0)
    F = VectorField(
        random_band_field(grid, 1.0, grid.n / 4.0, trial_seed(config.seed, 1)),
        random_band_field(grid, 1.0, grid.n / 4.0, trial_seed(config.seed, 2)),
    )
    grad_pi, stats, _ = solve_pressure(
        a, F, tol=config.pressure_tol, max_iter=config.pressure_max_iter,
        split_m=config.split_m,
    )
    rows = [(0, stats.residual, config.pressure_tol, stats.residual / config.pressure_tol)]
    payload = {
        "check": "elliptic_solve",
        "iterations": stats.iterations,
        "residual": stats.residual,
        "split_m": stats.split_m,
        "grad_pi_linf": grad_pi.u1.linf() + grad_pi.u2.linf(),
    }
    summary = f"elliptic: converged in {stats.iterations} iterations, residual {stats.residual:.3e}"
    return _Outcome("elliptic.csv", rows, payload, True, summary)


def _simulate(config: ExperimentConfig, args) -> _Outcome:
    run = _integration(config)
    if args.snapshot:
        loaded = load_snapshot(args.snapshot)
        a0, u0 = loaded.a, loaded.u
    else:
        a0, u0 = _initial_data(config.grid(), config)
    snapshots, diag = ns_integrate(run, a0, u0)
    outdir = Path(args.out)
    diag.write_csv(outdir / "diagnostics.csv")
    for idx, state in enumerate(snapshots):
        save_snapshot(state, outdir / f"snapshot_{idx:06d}.bsns")
    if args.energy and len(snapshots) >= 3 and config.viscosity == "constant":
        energy = energy_diagnostics(snapshots, visc=config.viscosity_law())
        energy.write_csv(outdir / "energy.csv")
    payload = {
        "check": "simulate",
        "stop_reason": diag.stop_reason,
        "stop_cause": diag.stop_cause,
        "snapshots": len(snapshots),
        "final_time": snapshots[-1].t if snapshots else 0.0,
        "final_A": diag.A[-1] if diag.A else 0.0,
        "final_Z": diag.Z[-1] if diag.Z else 0.0,
    }
    completed = diag.stop_reason == "completed"
    summary = (
        f"simulate: {'completed' if completed else 'stopped: ' + diag.stop_reason}"
        f" ({len(snapshots)} snapshots, t={snapshots[-1].t:.6g})"
        + (f"; {diag.stop_cause}" if diag.stop_cause else "")
    )
    return _Outcome(None, [], payload, completed, summary)


def _lagrangian(config: ExperimentConfig, args) -> _Outcome:
    grid = config.grid()
    if config.initial in ("taylor_green", "shear"):
        steady = _preset_velocity(grid, config.initial, config.amplitude_u)
    else:
        steady = random_divergence_free(
            grid, 1.0, 5.0, trial_seed(config.seed, 51), amplitude=config.amplitude_u
        )
    samples = max(2, int(round(config.T / (config.snapshot_every * config.dt))) + 1)
    times = np.linspace(0.0, config.T, samples)
    trajectory = [(float(t), steady) for t in times]
    gap = config.T / (samples - 1)
    dt_eff = gap / max(1, round(gap / config.dt))
    flow = integrate_flow(trajectory, dt_eff)
    volume = flow.volume_defect()
    consistency = flow.inverse_consistency_defect()
    identity = check_div_identity(steady, config.T, flow)
    tol = config.tolerance
    checks = ((volume, tol), (consistency, 1e-8), (identity.trace_form, tol), (identity.flux_form, tol))
    rows = [(idx, value, bound, value / bound) for idx, (value, bound) in enumerate(checks)]
    passed = all(value <= bound for value, bound in checks)
    payload = {
        "volume_defect": volume,
        "inverse_consistency": consistency,
        "div_identity_trace": identity.trace_form,
        "div_identity_flux": identity.flux_form,
    }
    note = f"volume {volume:.3e}, div identity {max(identity.trace_form, identity.flux_form):.3e}"
    return _check_outcome("lagrangian", rows, payload, passed, note)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# check -> (body, whether --refine reruns it on a doubled grid)
_CHECKS = {
    "bernstein": (_verify_bernstein, True),
    "heat": (_verify_heat, True),
    "product": (_verify_product, False),
    "commutator": (_verify_commutator, False),
    "ij": (_verify_ij, True),
    "transport": (_verify_transport, True),
    "elliptic": (_verify_elliptic, True),
    "envelope": (_verify_envelope, False),
    "deltas": (_verify_deltas, True),
}
_REFINING = [check for check, (_, refines) in _CHECKS.items() if refines]

_PLANE = (
    "--plane",
    {
        "default": "a", "choices": ("a", "u1", "u2", "pressure"),
        "help": "which snapshot plane to analyse",
    },
)

# verb -> (help, verb-specific arguments, body); the body of ``verify`` is
# the body in _CHECKS named by its ``check`` argument.
_VERBS = {
    "decompose": (
        "octave-by-octave norm profile of a field",
        [("--snapshot", {"help": "read the field from a snapshot file"}), _PLANE],
        _decompose,
    ),
    "norm": (
        "evaluate a scale-graded or time-space norm",
        [
            ("--spec", {"help": 'norm spec, e.g. "2/p-1,p=3,r=1,homog"'}),
            ("--snapshot", {
                "action": "append",
                "help": "snapshot file; repeat for a time-space norm over several states",
            }),
            _PLANE,
            ("--source", {
                "default": "random", "choices": ("random", "constant"),
                "help": "synthetic field to use when no snapshot is given",
            }),
            ("--sigma", {"type": float, "default": 1.0, "help": "time integrability"}),
        ],
        _norm,
    ),
    "verify": (
        "run a numerical check and report pass/fail",
        [
            ("check", {"choices": sorted(_CHECKS)}),
            ("--refine", {
                "action": "store_true",
                "help": "repeat on a doubled grid and require stable ratios"
                f" (checks {', '.join(_REFINING)})",
            }),
        ],
        None,
    ),
    "elliptic": ("solve one variable-coefficient pressure problem", [], _elliptic),
    "simulate": (
        "integrate the coupled transport-momentum system",
        [
            ("--snapshot", {"help": "start from a stored snapshot instead of presets"}),
            ("--energy", {
                "action": "store_true",
                "help": "also write the energy-balance defect series (constant viscosity only)",
            }),
        ],
        _simulate,
    ),
    "lagrangian": ("flow-map integration and divergence identity", [], _lagrangian),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file to load before applying flags")
    parser.add_argument("--out", default="besovlab_out", help="output directory")
    for setting in dataclasses.fields(ExperimentConfig):
        if "help" in setting.metadata:  # the config-file-only keys declare none
            flag = "--" + setting.name.replace("_", "-")
            parser.add_argument(flag, dest=setting.name, type=_FLAG_TYPES.get(setting.type), **setting.metadata)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Dyadic-analysis toolbox for inhomogeneous incompressible flows",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, arguments, _) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=help_text)
        _add_common(verb_parser)
        for name, options in arguments:
            verb_parser.add_argument(name, **options)
    return parser


def run_cli(argv=None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    check = getattr(args, "check", None)
    body = _CHECKS[check][0] if check else _VERBS[args.command][2]
    try:
        if check and args.refine and check not in _REFINING:
            raise _UsageError(f"--refine applies only to the checks {', '.join(_REFINING)}, not {check}")
        config, outdir = _prepare(args, f"verify {check}" if check else args.command)
        return _finish(outdir, config, body(config, args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError, OSError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
