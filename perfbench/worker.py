"""One workload in a fresh process; started by run.py, which sets the thread caps.

    worker.py --mode {setup,measure,trace} --workload NAME --seed N
              --seconds S --t0 MONOTONIC

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time covers interpreter start,
imports, input generation and warm-up.  The last line of stdout is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 3


def _import_library():
    sys.path.insert(0, str(SRC))
    import lemniscate
    if Path(lemniscate.__file__).resolve().parent != (SRC / "lemniscate").resolve():
        raise SystemExit(f"lemniscate was imported from {lemniscate.__file__}, not {SRC}")


def _run_item(wl, item, failures, tracer=None):
    """Time one call (traced when a tracer is given); check its output outside the timing."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = wl.call(item)
    except Exception as exc:  # an item that raises is a failed item, not a crash
        failures.append(f"{item[0]}: raised {exc!r}")
        return time.perf_counter() - t0, None
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - t0
    problem = wl.check(item, result)
    if problem is not None:
        failures.append(problem)
    return elapsed, result


def _measure(wl, pool, seconds):
    """Whole rounds over the pool until ``seconds`` have passed and every item has
    MIN_REPEATS repeats.

    The machine's speed drifts: on the reference box, bursts of up to 1.8x
    slower execution last 0.5 to 2 s and CPU time grows with wall time, so
    the slowdown is not time spent descheduled.  An item's latency is
    therefore its k-th fastest repeat, k = one tenth of the repeats but at
    least 1; repeats a round apart land in different bursts.  A 100 ms item
    gets a few dozen repeats and so nearly its fastest; a sub-millisecond
    item gets a hundred or more, whose fastest follows rare fast outliers
    and spreads twice as much from run to run as their 10th percentile.
    Throughput is the pool size over the sum of the item latencies.
    """
    repeats = []
    failures = []
    start = time.perf_counter()
    while True:
        repeats.append([_run_item(wl, item, failures)[0] for item in pool])
        if time.perf_counter() - start >= seconds and len(repeats) >= MIN_REPEATS:
            break
    k = max(1, len(repeats) // 10)
    latency = np.sort(np.array(repeats), axis=0)[k - 1]
    p50, p90 = np.percentile(latency * 1e3, [50, 90])
    return {
        "items_per_s": len(pool) / float(latency.sum()),
        "item_ms_p50": float(p50),
        "item_ms_p90": float(p90),
        "items": len(pool),
        "rounds": len(repeats),
        "attempted": len(repeats) * len(pool),
        "failures": failures,
    }


def _trace(wl, pool, workload, seed):
    """Each item once plainly and once traced, back to back, so that the
    machine's drifting speed cancels out of the overhead ratio; the per-layer
    metrics that BENCHMARK.json lists, from the spans of the traced calls."""
    from spans import Tracer

    failures = []
    tracer = Tracer()
    stats = {"witnesses": 0, "work_orders": [], "tail_unconverged": 0}
    plain = traced = 0.0
    for index, item in enumerate(pool):
        plain += _run_item(wl, item, failures)[0]
        tracer.item = index
        tracer.install()
        try:
            elapsed, result = _run_item(wl, item, failures, tracer)
        finally:
            tracer.uninstall()
        traced += elapsed
        if result is not None:
            wl.observe(item, result, stats)
    tracer.write(ROOT / "perfbench" / "out" / f"spans-{workload}-{seed}.jsonl")

    calls, busy, self_s = tracer.totals()
    counts = tracer.counts
    orders = stats["work_orders"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in ("thresholds.find_beta_threshold", "thresholds.certified_at",
                 "admissibility.scan_profile", "admissibility.check_admissible",
                 "admissibility.min_over_t", "catalog.second_order_min_distance",
                 "geometry.margin", "series.mul", "series.div", "series.values_on_circle",
                 "verifier.verify_implication", "verifier.hypothesis_series",
                 "verifier.image_in_region"):
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = busy[name]
    for kind in ("grid", "point"):
        values[f"boundary.jet_arrays.{kind}_calls"] = calls[f"boundary.jet_arrays.{kind}"]
        values[f"boundary.jet_arrays.{kind}_s"] = busy[f"boundary.jet_arrays.{kind}"]
    values.update({
        "thresholds.certified_at.per_bound": ratio(calls["thresholds.certified_at"],
                                                   calls["thresholds.find_beta_threshold"]),
        "admissibility.check_admissible.self_s": self_s["admissibility.check_admissible"],
        "admissibility.witnesses": stats["witnesses"],
        "boundary.jet_arrays.grid_points": counts["boundary.jet_arrays.grid_points"],
        "boundary.make_triple.calls": calls["boundary.make_triple"],
        "geometry.margin.points": counts["geometry.margin.points"],
        "series.div.mac": counts["series.div.mac"],
        "series.values_on_circle.points": counts["series.values_on_circle.points"],
        "series.tail_estimate.calls": calls["series.tail_estimate"],
        "verifier.verify_implication.self_s": self_s["verifier.verify_implication"],
        "verifier.hypothesis_useful_ratio": ratio(calls["verifier.verify_implication"],
                                                  calls["verifier.hypothesis_series"]),
        "verifier.work_order_p50": float(np.median(orders)) if orders else 0.0,
        "verifier.work_order_max": max(orders, default=0),
        "verifier.tail_unconverged": stats["tail_unconverged"],
        "trace.overhead_frac": traced / plain - 1.0,
    })
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"metrics": metrics, "attempted": 2 * len(pool), "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ns = ap.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[ns.workload]
    pool = wl.pool(np.random.default_rng(ns.seed))
    for item in wl.warm_up(pool):
        wl.call(item)
    setup_s = time.monotonic() - ns.t0

    if ns.mode == "setup":
        out = {"setup_s": setup_s}
    elif ns.mode == "measure":
        out = _measure(wl, pool, ns.seconds)
        out["setup_s"] = setup_s
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        out = _trace(wl, pool, ns.workload, ns.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
