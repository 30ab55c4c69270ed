"""Smoke check of the benchmark itself.

    python3 perfbench/check.py

Runs every workload at its smoke size (the same code path on tiny
inputs), untraced and traced, and asserts that the last line of each run
is a correct result that names exactly the metrics of BENCHMARK.json for
that mode, each with its unit.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace {trace}: incorrect run\n{proc.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                raise SystemExit(
                    f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(expected[trace].items()))}"
                )
            print(f"ok  {workload:17s} trace {trace}  {len(got)} metrics, "
                  f"{result['attempted']} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
