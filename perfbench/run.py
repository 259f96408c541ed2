"""Benchmark of the lemniscate toolkit: one workload per invocation.

    python3 perfbench/run.py --workload {bounds,verdicts,falsify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else, and the run fails without it.
Each workload runs in a fresh worker process with the OpenMP, OpenBLAS and
MKL thread pools capped at one thread before numpy is imported.

``--trace 0`` reports the end-to-end metrics: set-up time (the median over
the measuring worker and ``SETUP_PROBES`` set-up-only workers on each side of
it), throughput,
item latency p50/p90, the share of items whose output passes the oracle, and
the worker's peak RSS.  ``--trace 1`` runs each item of the pool once plainly
and once under the tracer in ``spans.py`` and reports the per-layer metrics;
the spans are written to ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds", "verdicts", "falsify")
SETUP_PROBES = 5  # set-up-only workers before the measuring worker, and again after it
BUDGET_S = 170.0  # every run ends within 180 s
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, ns, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", ns.workload,
           "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_CAPS},
                              capture_output=True, text=True, timeout=deadline - t0)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker ran past the time budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(ns, deadline: float):
    # probes on both sides of the measuring worker land in different speed bursts
    setups = [_worker("setup", ns, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    out = _worker("measure", ns, deadline)
    setups.append(out["setup_s"])
    setups += [_worker("setup", ns, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    failed = len(out["failures"])
    attempted = out["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (out["items_per_s"], "1/s"),
        "item_ms_p50": (out["item_ms_p50"], "ms"),
        "item_ms_p90": (out["item_ms_p90"], "ms"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    print(f"# {ns.workload} seed={ns.seed}: {out['items']} items x {out['rounds']} rounds = "
          f"{attempted} timed calls; item latency = its k-th fastest repeat, "
          f"k = {max(1, out['rounds'] // 10)}; setup samples: {len(setups)}")
    print(f"# error_rate {failed / attempted!r} ratio ({failed} of {attempted} items failed)")
    return metrics, attempted, out["failures"]


def _per_layer(ns, deadline: float):
    out = _worker("trace", ns, deadline)
    metrics = {name: (m["value"], m["unit"]) for name, m in out["metrics"].items()}
    print(f"# {ns.workload} seed={ns.seed}: traced {out['attempted']} items")
    return metrics, out["attempted"], out["failures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "lemniscate" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'lemniscate'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, attempted, failures = (_per_layer if ns.trace else _end_to_end)(ns, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in failures[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
