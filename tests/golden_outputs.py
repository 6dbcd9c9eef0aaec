"""Hash the CLI's outputs so that two source trees can be compared byte for byte.

Runs the benchmark's ``flow`` argv at ``FLOW_SEEDS`` and its ``lab`` argvs and
a few more verbs at ``SEEDS``, in process against the package under ``--src``,
and prints one line per run: the sha256 over every output file except
``run.log`` (name and bytes, in name order), the exit code, stdout and stderr,
followed by the exit code and the run's label.  Diff the listings of two
trees to check that a refactor left the outputs alone::

    python tests/golden_outputs.py --src src > change.txt
    python tests/golden_outputs.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FLOW_SEEDS = (0, 1, 2, 3)
SEEDS = (1, 7)  # of the lab and extra runs

# Runs beyond the benchmark's: the remaining verbs, the presets, norm specs (two of them bad), the
# energy balance at unit and at varying density and with a non-constant law, a run stopped by the
# CFL bound (its stop cause names the Courant number), one through the split_m corrector with the
# affine law, and a heat check whose grid doubles twice to fit j.
EXTRA_ARGS = (
    ("simulate", "--energy"),
    ("simulate", "--energy", "--amplitude-a", "0.2", "--snapshot-every", "2"),
    ("simulate", "--energy", "--viscosity", "affine", "--mu1", "0.5"),
    ("simulate", "--n", "32", "--amplitude-u", "5", "--T", "0.1", "--dt", "0.02"),
    ("simulate", "--n", "32", "--split-m", "2", "--viscosity", "affine", "--mu1", "0.5", "--amplitude-a", "0.2"),
    ("simulate", "--initial", "taylor_green", "--scheme", "semi_lagrangian_monotone", "--n", "32"),
    ("lagrangian",),
    ("lagrangian", "--initial", "taylor_green", "--n", "32"),
    ("lagrangian", "--initial", "shear", "--n", "32"),
    ("simulate", "--initial", "shear", "--n", "32"),
    ("verify", "transport", "--scheme", "semi_lagrangian_monotone", "--refine"),
    ("norm", "--spec", "2/p-1,p=3,r=1,homog", "--n", "32"),
    ("norm", "--spec", "1/p+1/q,q=4,inhomogeneous", "--n", "32"),
    ("norm", "--spec", "1,z=2", "--n", "32"),
    ("norm", "--spec", "1,p=x", "--n", "32"),
    ("verify", "heat", "--n", "16"),
)


def _digest(run_cli, argv, out: Path) -> tuple[str, int]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli([*argv, "--out", str(out)])
    h = hashlib.sha256(f"exit {code}\n{stdout.getvalue()}\0{stderr.getvalue()}\0".encode())
    for path in sorted(out.iterdir()):
        if path.name != "run.log":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest(), code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding the besovlab package")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(PERFBENCH)]
    run_cli = importlib.import_module("besovlab.cli").run_cli
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory() as scratch:
        runs = 0

        def run(argv, seed: int) -> None:
            nonlocal runs
            runs += 1
            out = Path(scratch) / str(runs)
            full = [*argv, "--seed", str(seed)]
            digest, code = _digest(run_cli, full, out)
            print(digest, f"exit={code}", " ".join(full).replace(scratch, "<out>"), flush=True)

        for seed in FLOW_SEEDS:
            run(workloads.FLOW_ARGS, seed)
        budget = Path(scratch) / "budget.cfg"  # a run stopped by the correction budget
        budget.write_text("epsilon_budget = 1e-9\n", encoding="utf-8")
        solver = Path(scratch) / "solver.cfg"  # pressure solver settings only a config file sets
        solver.write_text("pressure_tol = 1e-9\npressure_max_iter = 60\n", encoding="utf-8")
        config_runs = [("simulate", "--config", str(path), "--n", "32") for path in (budget, solver)]
        for seed in SEEDS:
            for argv in (*workloads.LAB_ARGS, *EXTRA_ARGS, *config_runs):
                run(argv, seed)
            # the snapshot reader, on the last state of a short run
            run(("simulate", "--n", "32", "--T", "0.03"), seed)
            snapshot = sorted((Path(scratch) / str(runs)).glob("*.bsns"))[-1]
            for plane in ("a", "u1", "u2", "pressure"):
                run(("decompose", "--snapshot", str(snapshot), "--plane", plane), seed)


if __name__ == "__main__":
    main()
