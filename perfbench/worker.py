"""One workload in one fresh process: set up, run passes, check outputs, report.

Started by ``run.py``; not meant to be run by hand.  It writes one JSON
result to ``--result``.  The clock for ``setup_s`` starts before NumPy and
the package are imported, so set-up covers import, config, grids and input
generation.

A pass runs every operation of the workload once, one at a time (closed
loop, one client).  Passes repeat until ``--seconds`` are used up: another
pass starts only if it is expected to end less than half a pass past the
budget, and every run makes at least two passes.  With
``--trace 1`` the first pass runs untraced, the wrappers are installed, and at
least two traced passes follow; the traced-minus-untraced pass time is the
tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import besovlab as bl  # noqa: E402
import numpy as np  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402
from tracer import TraceSession, Tracer, write_spans  # noqa: E402


def run_pass(workload, workdir: Path, index: int, tracer=None) -> dict:
    """Run every operation once; returns per-op seconds, work and failures."""
    seconds: dict[str, float] = {}
    failures: list[str] = []
    work_rate_s = 0.0
    work = 0.0
    cpu_start = time.process_time()
    pass_dir = workdir / f"pass{index}"
    for i, op in enumerate(workload.ops):
        out = pass_dir / f"op{i}"
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.open(op.span)
        start = time.perf_counter()
        try:
            result = op.run(out)
            error = None
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        if error is None:
            try:
                error = op.check(result, out)
            except Exception:
                error = traceback.format_exc(limit=4)
        if error is not None:
            failures.append(f"{op.span}: {error}")
            print(f"FAILED {op.span}: {error}", file=sys.stderr)
        seconds[op.span] = elapsed
        if op.work:
            work += op.work
            work_rate_s += elapsed
    cpu_s = time.process_time() - cpu_start
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"seconds": seconds, "cpu_s": cpu_s, "failures": failures, "work": work,
            "work_s": work_rate_s}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(bl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported besovlab from {bl.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[args.workload](bl, args.seed, HERE)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(workload, args) -> dict:
    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    passes = []
    traced = []
    start = time.perf_counter()
    try:
        passes.append(run_pass(workload, workdir, 0))
        if args.trace:
            session = TraceSession()
            instrument.install(session, bl)
            while len(traced) < 2 or more_time(start, traced[-1][0], args.seconds):
                tracer = Tracer()
                session.tracer = tracer
                traced.append((run_pass(workload, workdir, len(traced) + 1, tracer), tracer))
                session.tracer = None
        else:
            while len(passes) < 2 or more_time(start, passes[-1], args.seconds):
                passes.append(run_pass(workload, workdir, len(passes)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = passes + [p for p, _ in traced]
    attempted = len(all_passes) * len(workload.ops)
    failures = [f for p in all_passes for f in p["failures"]]
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(passes),
        "pass_seconds": [sum(p["seconds"].values()) for p in passes],
        "pass_cpu_seconds": [p["cpu_s"] for p in passes],
        "wall_s": wall_seconds(passes),
        "work_per_s": statistics.median(p["work"] / p["work_s"] for p in passes),
        "work_unit": workload.work_unit,
    }
    if traced:
        summaries = [tr.summary() for _, tr in traced]
        counts = [instrument.pass_counts(s) for s in summaries]
        traced_wall = wall_seconds([p for p, _ in traced])
        op_seconds = {}
        for p, _ in traced:
            for span, sec in p["seconds"].items():
                op_seconds.setdefault(span, []).append(sec)
        out["wrapped"] = session.installed
        out["traced_passes"] = len(traced)
        out["traced_wall_s"] = traced_wall
        out["exact_counts"] = counts
        out["per_layer"] = instrument.per_layer_metrics(
            summaries, op_seconds, traced_wall - out["wall_s"])
        spans_path = HERE / "out" / "spans" / f"{args.workload}-seed{args.seed}.csv"
        write_spans(str(spans_path), [tr for _, tr in traced])
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def more_time(start: float, last: dict, seconds: float) -> bool:
    """Start another pass unless it would end more than half a pass past the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * sum(last["seconds"].values()) < seconds


def wall_seconds(passes: list[dict]) -> float:
    """One pass's time, as the sum over operations of each one's median seconds.

    Taking the median per operation keeps a burst of host noise during one
    operation of one pass from moving the figure.
    """
    spans = passes[0]["seconds"].keys()
    return sum(statistics.median(p["seconds"][s] for p in passes) for s in spans)


if __name__ == "__main__":
    sys.exit(main())
