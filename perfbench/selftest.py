"""Self-test of the per-layer trace; gates nothing, exits 1 on any failed check.

    python3 perfbench/selftest.py [--seed N]

Runs the traced run of every workload twice on one seed and checks that

* manifest.json maps each per-layer metric of BENCHMARK.json once;
* every metric is nonzero on the workloads its layer is mapped to, and zero
  on the workloads where manifest.json predicts zero;
* every count (any metric that is not a time) repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMINGS = {"trace.overhead_frac"}  # plus every metric whose unit is "s"


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ns = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "manifest.json").read_text())["layer_map"]
    listed = [m["name"] for m in bench["per_layer"]]
    mapped = [name for group in layer_map for name in group["metrics"]]
    problems = []
    if sorted(mapped) != sorted(listed):
        problems.append(f"manifest layer_map and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(mapped) ^ set(listed))}")

    for workload in (w["name"] for w in bench["workloads"]):
        first, second = _traced(workload, ns.seed), _traced(workload, ns.seed)
        if not first["correct"]:
            problems.append(f"{workload}: traced run failed its oracle")
        values = {name: m["value"] for name, m in first["metrics"].items()}
        for group in layer_map:
            for name in group["metrics"]:
                value = values.get(name)
                if workload in group["on"] and not value:
                    problems.append(f"{workload}: {name} = {value}, mapped here so must be nonzero")
                if workload in group["zero_on"] and value != 0:
                    problems.append(f"{workload}: {name} = {value}, predicted zero")
        for name, m in first["metrics"].items():
            if m["unit"] == "s" or name in TIMINGS:
                continue
            again = second["metrics"][name]["value"]
            if m["value"] != again:
                problems.append(f"{workload}: count {name} changed between runs: "
                                f"{m['value']} then {again}")
        print(f"{workload}: checked {len(values)} metrics")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
