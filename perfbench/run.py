"""besovlab benchmark: run one workload in a fresh process and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

    flow             one in-process ``besovlab simulate`` at n=128, 12 coupled steps
    lab              the verification sweep: twelve CLI verbs at their default sizes
    characteristics  particle flow map, its checks, and 40 monotone semi-Lagrangian steps

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
prints its per-layer metrics from a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each metric is printed before it by name with its unit.

The program under test is the package in ``src/`` of the same checkout; this
script uses only the standard library and exits non-zero, without a result,
if that package is missing.  Every run writes its full record (environment,
per-pass times, failures, exact counts) to
``perfbench/out/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow", "lab", "characteristics")
SETUP_SAMPLES = 5  # set-ups timed per run, each in a fresh process
TIME_LIMIT_S = 175.0  # the whole run, probes and worker included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BESOVLAB_THREADS")


class BenchmarkFault(Exception):
    """The benchmark itself misbehaved: no result may be printed."""


def steal_ticks() -> int:
    """The ``steal`` column of the aggregate cpu line of /proc/stat (read only)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """Digest of the package and benchmark sources, keying the exact-count record."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "besovlab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(args, result_path: Path, deadline: float, *, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BESOVLAB_THREADS"}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    result_path.unlink(missing_ok=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkFault("time limit reached before the workload process started")
    try:
        # The workload's own chatter goes to stderr; stdout carries only the result.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkFault(f"workload process exceeded {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkFault(f"workload process exited {proc.returncode}")
    data = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return data


def check_exact_counts(args, counts: list[dict]) -> None:
    """Exact counts must repeat between traced passes and between runs of one seed."""
    for later in counts[1:]:
        if later != counts[0]:
            raise BenchmarkFault(f"exact counts differ between passes: {counts[0]} vs {later}")
    record = HERE / "out" / "counts" / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        if earlier != counts[0]:
            raise BenchmarkFault(f"exact counts differ from an earlier run: {earlier} vs {counts[0]}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts[0], sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "besovlab" / "__init__.py").is_file():
        print(f"error: no besovlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"worker-{os.getpid()}.json"
    steal_before = steal_ticks()
    try:
        setups = [
            run_worker(args, result_path, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        data = run_worker(args, result_path, deadline, setup_only=False)
        setups.append(data["setup_s"])
        if args.trace:
            check_exact_counts(args, data["exact_counts"])
            values = data["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": data["wall_s"],
                "work_per_s": data["work_per_s"],
                "peak_rss_mb": data["peak_rss_mb"],
            }
        names = [m["name"] for m in wanted]
        if sorted(values) != sorted(names):
            missing = sorted(set(names) - set(values))
            extra = sorted(set(values) - set(names))
            raise BenchmarkFault(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    except BenchmarkFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return 3
    steal_after = steal_ticks()

    environment = {
        "python": platform.python_version(),
        "numpy": data.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "steal_ticks_before": steal_before,
        "steal_ticks_after": steal_after,
        "steal_ticks_delta": steal_after - steal_before,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment, "setup_samples_s": setups,
        **{k: v for k, v in data.items() if k not in ("per_layer", "setup_s")},
        "metrics": metrics,
    }
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for key, value in environment.items():
        print(f"env {key}: {value}")
    print(f"passes: {data['passes']} untraced, {data.get('traced_passes', 0)} traced;"
          f" work unit: {data['work_unit']}")
    print(f"fail_ratio: {data['failed']}/{data['attempted']} = "
          f"{data['failed'] / data['attempted']:.6g} (1)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.9g} {m['unit']}")
    print(json.dumps({
        "correct": data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
