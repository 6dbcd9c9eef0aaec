"""Record the final ``flow`` diagnostics that the benchmark checks against.

Run from the root of a checkout whose arithmetic is trusted:

    python3 perfbench/record_flow_reference.py

It runs the ``flow`` workload's ``simulate`` call once for every input
variant and writes the final ``A``, ``Z`` and ``E0`` of each, at full
precision, to ``perfbench/flow_reference.json``.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import besovlab  # noqa: E402

from workloads import FLOW_ARGS, FLOW_VARIANTS  # noqa: E402


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    variants = {}
    out = HERE / "out" / "reference"
    for variant in range(FLOW_VARIANTS):
        shutil.rmtree(out, ignore_errors=True)
        code = besovlab.cli.run_cli([*FLOW_ARGS, "--seed", str(variant), "--out", str(out)])
        if code != 0:
            print(f"variant {variant}: simulate exited {code}", file=sys.stderr)
            return 1
        with open(out / "diagnostics.csv", encoding="utf-8") as fh:
            last = list(csv.DictReader(fh))[-1]
        variants[str(variant)] = {key: float(last[key]) for key in ("A", "Z", "E0")}
    shutil.rmtree(out, ignore_errors=True)
    payload = {"recorded_at": commit or "unknown", "args": list(FLOW_ARGS), "variants": variants}
    (HERE / "flow_reference.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
