"""Command-line surface: check lemmas, solve thresholds, verify functions, emit data.

Reports are machine-readable JSON with a versioned ``schema`` field; identical
invocations produce byte-identical output (wall-clock timing is only added on
request via ``--timing``).  CSV output quotes per RFC 4180 with '.' decimals
and 17 significant digits.

Exit codes: 0 success/admissible, 1 usage error, 2 violation or
counterexample found, 3 threshold bracket failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .admissibility import GridSpec, check_admissible
from .boundary import THETA_EPS, jet_arrays, theta_grid
from .catalog import LEMMAS, ParameterError, UnknownLemmaError, get_lemma
from .geometry import lemniscate_boundary
from .series import TruncatedSeries
from .thresholds import (DEFAULT_SEARCH, DEFAULT_TOL, BracketError,
                         MonotonicityError, find_beta_threshold)
from .verifier import ProbeSpec, random_normalized_p, verify_implication

SCHEMA_VERSION = 1


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _cnum(z) -> list | None:
    if z is None:
        return None
    z = complex(z)
    return [z.real, z.imag]


def _grid_from(ns) -> GridSpec:
    return GridSpec(**{f.name: getattr(ns, f.name) for f in fields(GridSpec)})


def _params_json(beta, gamma) -> dict:
    return {"beta": _cnum(beta), "gamma": gamma}


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report(payload: dict, ns) -> str:
    if getattr(ns, "timing", False):
        payload["timing_ms"] = round(1000.0 * (time.perf_counter() - ns._t0), 3)
    return json.dumps(payload, indent=2, sort_keys=True)


def _resolve_params(lemma, ns):
    """Flag values over the lemma's defaults; ``make_form`` judges the result."""
    beta = lemma.default_beta if ns.beta is None else ns.beta
    if ns.beta_im:
        beta = complex(0.0 if beta is None else beta, ns.beta_im)
    gamma = lemma.default_gamma if ns.gamma is None else ns.gamma
    return beta, gamma


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(ns) -> int:
    lemma = get_lemma(ns.lemma)
    beta, gamma = _resolve_params(lemma, ns)
    grid = _grid_from(ns)
    form = lemma.make_form(beta, gamma)
    verdict = check_admissible(form, lemma.region, grid, n_class=lemma.n_class)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "check",
        "lemma": ns.lemma,
        "params": _params_json(beta, gamma),
        "grid": asdict(grid),
        "verdict": {
            "admissible": verdict.admissible,
            "min_objective_seen": verdict.min_objective_seen,
            "witness": None if verdict.witness is None else {
                "theta": verdict.witness.theta,
                "m": verdict.witness.m,
                "t": _cnum(verdict.witness.t),
                "psi": _cnum(verdict.witness.psi_value),
                "margin": verdict.witness.margin,
            },
        },
    }
    _emit(_report(payload, ns), ns.output)
    return 0 if verdict.admissible else 2


def _cmd_threshold(ns) -> int:
    lemma = get_lemma(ns.lemma)
    grid = _grid_from(ns)
    search = (DEFAULT_SEARCH[0] if ns.lo is None else ns.lo,
              DEFAULT_SEARCH[1] if ns.hi is None else ns.hi)
    result = find_beta_threshold(ns.lemma, search=search, tol=ns.tol, grid=grid)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "threshold",
        "lemma": ns.lemma,
        "params": _params_json(None, None),
        "grid": asdict(grid),
        "threshold": {
            "beta_low": result.beta_low,
            "beta_high": result.beta_high,
            "beta_star": result.beta_star,
            "tolerance": result.tolerance,
            "iterations": result.iterations,
            "closed_form": result.closed_form,
            "reference": lemma.threshold_ref,
        },
    }
    _emit(_report(payload, ns), ns.output)
    return 0


def _cmd_verify(ns) -> int:
    if ns.random is not None and ns.random < 1:
        raise ParameterError("--random must be at least 1")
    if ns.order < 1:
        raise ParameterError("--order must be at least 1")
    lemma = get_lemma(ns.lemma)
    beta, gamma = _resolve_params(lemma, ns)
    lemma.make_form(beta, gamma)  # reject bad coefficients before drawing any p
    spec = ProbeSpec()
    if ns.p_json:
        candidates = [TruncatedSeries.from_json(Path(ns.p_json).read_text())]
    else:
        candidates = [
            random_normalized_p(ns.order, seed=ns.seed + i, n_class=lemma.n_class)
            for i in range(ns.random)
        ]
    reports = []
    for p in candidates:
        rep = verify_implication(ns.lemma, p, beta, gamma, spec)
        reports.append({
            "status": rep.status,
            "hypothesis_holds": rep.hypothesis_holds,
            "conclusion_holds": rep.conclusion_holds,
            "class_ok": rep.class_ok,
            "work_order": rep.work_order,
            "tail_ok": rep.tail_ok,
            "hypothesis_max_margin": rep.hypothesis_probe.max_margin,
            "conclusion_max_margin": rep.conclusion_probe.max_margin,
        })
    n_counter = sum(1 for r in reports if r["status"] == "COUNTEREXAMPLE")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "lemma": ns.lemma,
        "params": _params_json(beta, gamma),
        "counterexamples": n_counter,
        "reports": reports,
    }
    _emit(_report(payload, ns), ns.output)
    return 2 if n_counter else 0


_TABLE_HEADER = ["lemma", "functional", "target", "condition",
                 "reference", "computed", "status"]


def _table_rows(filter_text: str | None, grid: GridSpec) -> list[dict]:
    rows = []
    for lemma_id, lemma in LEMMAS.items():
        if filter_text and filter_text not in lemma_id:
            continue
        reference = "" if lemma.threshold_ref is None else _f17(lemma.threshold_ref)
        if lemma.unconditional or lemma.threshold_ref is None:
            form = lemma.make_form(lemma.default_beta, lemma.default_gamma)
            verdict = check_admissible(form, lemma.region, grid, n_class=lemma.n_class)
            shown = []
            if lemma.default_beta is not None:
                shown.append(f"B={lemma.default_beta:g}")
            if lemma.default_gamma is not None:
                shown.append(f"G={lemma.default_gamma:g}")
            at = f" at {', '.join(shown)}" if shown else ""
            computed = f"min margin {verdict.min_objective_seen:.3e}{at}"
            ok = verdict.admissible
        else:
            result = find_beta_threshold(lemma_id, grid=grid)
            computed = _f17(result.beta_star)
            ok = abs(result.beta_star - lemma.threshold_ref) <= max(result.tolerance, 2e-3)
        rows.append({
            "lemma": lemma_id,
            "functional": lemma.label,
            "target": lemma.region.describe(),
            "condition": lemma.condition,
            "reference": reference,
            "computed": computed,
            "status": "OK" if ok else "FAIL",
        })
    return rows


def _cmd_table(ns) -> int:
    grid = _grid_from(ns)
    rows = _table_rows(ns.lemma_filter, grid)
    if ns.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_TABLE_HEADER)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), ns.output)
    elif ns.format == "json":
        payload = {"schema": SCHEMA_VERSION, "command": "table", "rows": rows}
        _emit(_report(payload, ns), ns.output)
    else:
        widths = {k: max(len(k), *(len(r[k]) for r in rows)) if rows else len(k)
                  for k in _TABLE_HEADER}
        lines = ["  ".join(k.ljust(widths[k]) for k in _TABLE_HEADER)]
        lines += ["  ".join(r[k].ljust(widths[k]) for k in _TABLE_HEADER) for r in rows]
        _emit("\n".join(lines) + "\n", ns.output)
    return 0 if all(r["status"] == "OK" for r in rows) else 2


def _cmd_boundary(ns) -> int:
    if ns.points < 2:
        raise ParameterError("need at least 2 boundary points")
    if not ns.psi and (ns.beta is not None or ns.beta_im or ns.gamma is not None):
        raise ParameterError("--beta, --beta-im and --gamma need --psi")
    theta = theta_grid(ns.points, ns.theta_margin)
    w = lemniscate_boundary(theta)
    columns = ["theta", "re_w", "im_w"]
    data = [theta, w.real, w.imag]
    if ns.psi:
        lemma = get_lemma(ns.psi)
        beta, gamma = _resolve_params(lemma, ns)
        form = lemma.make_form(beta, gamma)
        r, s, tau, e3 = jet_arrays(theta, np.array([1.0]))
        # second-order values shown at the constraint-boundary t
        psi = (form.value(r, s, tau * e3) if form.order == 2 else form.value(r, s))[:, 0]
        columns += ["psi_re", "psi_im"]
        data += [psi.real, psi.imag]
    if ns.format == "json":
        rows = [dict(zip(columns, (float(col[i]) for col in data))) for i in range(ns.points)]
        payload = {"schema": SCHEMA_VERSION, "command": "boundary", "rows": rows}
        _emit(_report(payload, ns), ns.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for i in range(ns.points):
            writer.writerow([_f17(col[i]) for col in data])
        _emit(buf.getvalue(), ns.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(GridSpec):
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                       type=float if f.default is None else type(f.default),
                       help=f.metadata.get("help"))


def _add_coefficient_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-im", type=float, default=0.0,
                   help="imaginary part of beta, added to the given or default real part")
    p.add_argument("--gamma", type=float)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing_ms (breaks byte-determinism)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemniscate",
        description="Admissibility checks, coefficient bounds, and subordination "
                    "verification for the right lemniscate target.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="scan one lemma's functional for violations")
    pc.add_argument("--lemma", required=True, choices=sorted(LEMMAS))
    _add_coefficient_flags(pc)
    _add_grid_flags(pc)
    _add_common(pc)

    pt = sub.add_parser("threshold", help="bracket a lemma's coefficient bound")
    pt.add_argument("--lemma", required=True, choices=sorted(LEMMAS))
    pt.add_argument("--lo", type=float)
    pt.add_argument("--hi", type=float)
    pt.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_grid_flags(pt)
    _add_common(pt)

    pv = sub.add_parser("verify", help="test hypothesis => conclusion on concrete p")
    pv.add_argument("--lemma", required=True, choices=sorted(LEMMAS))
    _add_coefficient_flags(pv)
    group = pv.add_mutually_exclusive_group(required=True)
    group.add_argument("--p-json", help="JSON file of [re, im] coefficient pairs")
    group.add_argument("--random", type=int, help="number of random p to draw")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--order", type=int, default=24, help="degree of random p")
    _add_common(pv)

    pb = sub.add_parser("table", help="one row per catalogued lemma, with status")
    pb.add_argument("--lemma-filter", help="substring filter on lemma ids")
    pb.add_argument("--format", choices=["table", "csv", "json"], default="table")
    _add_grid_flags(pb)
    _add_common(pb)

    pg = sub.add_parser("boundary", help="emit boundary samples (and psi values)")
    pg.add_argument("--points", type=int, required=True)
    pg.add_argument("--theta-margin", type=float, default=THETA_EPS)
    pg.add_argument("--format", choices=["csv", "json"], default="csv")
    pg.add_argument("--psi", choices=sorted(LEMMAS),
                    help="add psi columns for this lemma (m = 1)")
    _add_coefficient_flags(pg)
    _add_common(pg)

    return parser


_DISPATCH = {
    "check": _cmd_check,
    "threshold": _cmd_threshold,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "boundary": _cmd_boundary,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    ns._t0 = time.perf_counter()
    try:
        return _DISPATCH[ns.command](ns)
    except (BracketError, MonotonicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnknownLemmaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
