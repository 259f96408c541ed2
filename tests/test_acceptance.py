"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines on stdout (they are also shown for any failing criterion).
"""

import time

import numpy as np
import pytest

from lemniscate.admissibility import GridSpec, check_admissible
from lemniscate.boundary import curvature_identity
from lemniscate.catalog import (LEMMAS, closed_form_g, direct_objective,
                                get_lemma)
from lemniscate.series import TruncatedSeries, p_of_f, sqrt_one_plus_z_series
from lemniscate.thresholds import find_beta_threshold
from lemniscate.verifier import (random_normalized_f, random_normalized_p,
                                 sharpness_probe_example2, verify_implication)

SQRT2 = np.sqrt(2.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}  {detail}")
    assert ok, f"{criterion}: {detail}"


def check_lemma(lemma_id, beta=None, gamma=None, grid=GridSpec()):
    lemma = get_lemma(lemma_id)
    form = lemma.make_form(beta, gamma)
    return check_admissible(form, lemma.region, grid, n_class=lemma.n_class)


def test_criterion_1_threshold_reproduction():
    targets = {
        "first3": (1.1874, 5e-3),
        "first4": (3.58095, 5e-3),
        "sq2": (2 * SQRT2, 2e-3),
        "moebius": (2.0, 2e-3),
        "one0": (4 - 2 * SQRT2, 2e-3),
        "one1": (4 * SQRT2 - 4, 2e-3),
        "one2": (8 - 4 * SQRT2, 2e-3),
    }
    t0 = time.perf_counter()
    errors = {}
    for lemma_id, (expected, tol) in targets.items():
        result = find_beta_threshold(lemma_id, tol=1e-4)
        errors[lemma_id] = abs(result.beta_star - expected)
        assert errors[lemma_id] <= tol, (lemma_id, result.beta_star, expected)
    elapsed = time.perf_counter() - t0
    worst = max(errors, key=errors.get)
    report("1 threshold-reproduction",
           elapsed < 60.0,
           f"7 bounds bracketed, worst |err| {errors[worst]:.2e} ({worst}), "
           f"{elapsed:.1f}s")


def test_criterion_2_unconditional_admissibility():
    rng = np.random.default_rng(2024)
    failures = []
    checks = 0
    for lemma_id in ("first0", "first1", "first2", "sq-1", "sq0", "sq1"):
        for beta in rng.uniform(1e-3, 10.0, 32):
            checks += 1
            if not check_lemma(lemma_id, float(beta)).admissible:
                failures.append((lemma_id, beta))
    for _ in range(16):  # complex coefficients for the product form
        beta = complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        checks += 1
        if not check_lemma("sq-1", beta).admissible:
            failures.append(("sq-1", beta))
    for _ in range(16):
        beta, gamma = rng.uniform(1e-3, 10.0, 2)
        checks += 1
        if not check_lemma("sqrat", float(beta), float(gamma)).admissible:
            failures.append(("sqrat", beta, gamma))
    report("2 unconditional-admissibility", not failures,
           f"{checks} coefficient samples, {len(failures)} violations")


def test_criterion_3_second_order_lemmas():
    ok_sum = check_lemma("second-sum").admissible
    ok_sqsum = check_lemma("second-sqsum").admissible  # scanned from its class index, m = 2
    pairs = []
    for gamma in (0.3, 0.6, 1.0, 2.0):
        cap = min(gamma, 4 * gamma - 1.0)
        for frac in (0.25, 0.5, 0.75, 1.0):
            pairs.append((gamma, frac * cap))
    assert len(pairs) == 16
    assert all(g >= b > 0 and 4 * g - b >= 1 - 1e-12 for g, b in pairs)
    ok_weighted = all(
        check_lemma("second-weighted", beta=b, gamma=g).admissible for g, b in pairs)
    # one pair outside the stated condition: 4*gamma - beta = 0.5
    violated = not check_lemma("second-weighted", beta=1 / 6, gamma=1 / 6).admissible
    report("3 second-order-lemmas", ok_sum and ok_sqsum and ok_weighted and violated,
           f"sum={ok_sum} sqsum={ok_sqsum} weighted 16/16={ok_weighted} "
           f"violated-control={violated}")


def test_criterion_4_oracle_equivalence():
    worst_overall = 0.0
    worst_lemma = ""
    for lemma_id, lemma in LEMMAS.items():
        rng = np.random.default_rng(hash(lemma_id) % 2**32)
        worst = 0.0
        for _ in range(100):  # 100 parameter draws x 100 grid points = 1e4
            if lemma.params == "none":
                beta = gamma = None
            else:
                beta = rng.uniform(1e-3, 10.0)
                if lemma.params == "beta-complex" and rng.uniform() < 0.5:
                    beta = complex(beta, rng.uniform(-10.0, 10.0))
                gamma = rng.uniform(1e-3, 10.0) if lemma.params == "beta-gamma" else None
            theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6, 100)
            m = rng.uniform(1.0, 8.0, 100)
            direct = direct_objective(lemma_id, theta, m, beta, gamma)
            closed = closed_form_g(lemma_id, theta, m, beta, gamma)
            err = float(np.max(np.abs(direct - closed) / np.maximum(1.0, np.abs(closed))))
            worst = max(worst, err)
        if worst > worst_overall:
            worst_overall, worst_lemma = worst, lemma_id
        assert worst < 1e-9, (lemma_id, worst)
    report("4 oracle-equivalence", worst_overall < 1e-9,
           f"20 lemmas x 1e4 draws, worst rel err {worst_overall:.2e} ({worst_lemma})")


def test_criterion_5_curvature_identity():
    rng = np.random.default_rng(55)
    theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6, 1000)
    worst = float(np.max(np.abs(curvature_identity(theta) - 0.75)))
    report("5 curvature-identity", worst <= 1e-12, f"worst |dev| {worst:.2e}")


def test_criterion_6_examples_and_sharpness():
    ok1 = check_lemma("ex1").admissible
    ok2 = check_lemma("ex2").admissible
    ok3 = check_lemma("ex3").admissible
    probe = sharpness_probe_example2(1e-4)
    sharp = abs(probe - (0.25 - 1.25e-5)) <= 1e-8
    report("6 worked-examples", ok1 and ok2 and ok3 and sharp,
           f"ex1={ok1} ex2={ok2} ex3={ok3} probe(1e-4)={probe:.12f}")


def test_criterion_7_falsification_suite():
    statuses = {"confirmed": 0, "vacuous": 0, "COUNTEREXAMPLE": 0}
    counterexamples = []
    for seed in range(200):
        for lemma_id, lemma in LEMMAS.items():
            p = random_normalized_p(16, seed=seed, n_class=lemma.n_class)
            rep = verify_implication(lemma_id, p, lemma.default_beta, lemma.default_gamma)
            statuses[rep.status] += 1
            if rep.status == "COUNTEREXAMPLE":
                counterexamples.append((lemma_id, seed))
    # gentler perturbations drive every lemma through its non-vacuous branch
    confirmed_somewhere = set()
    for seed in range(12):
        for lemma_id, lemma in LEMMAS.items():
            base = random_normalized_p(16, seed=seed, n_class=lemma.n_class)
            c = base.coeffs.copy()
            c[1:] *= 0.12
            rep = verify_implication(lemma_id, TruncatedSeries(c),
                                     lemma.default_beta, lemma.default_gamma)
            statuses[rep.status] += 1
            if rep.status == "COUNTEREXAMPLE":
                counterexamples.append((lemma_id, "gentle", seed))
            elif rep.status == "confirmed":
                confirmed_somewhere.add(lemma_id)
    ok = not counterexamples and confirmed_somewhere == set(LEMMAS)
    report("7 falsification-suite", ok,
           f"statuses {statuses}, all 20 lemmas reach confirmed={confirmed_somewhere == set(LEMMAS)}")


def test_criterion_8_f_level_consistency():
    rng = np.random.default_rng(88)
    worst = 0.0
    for seed in range(20):
        f = random_normalized_f(40, seed=1000 + seed)
        beta = float(rng.uniform(0.1, 3.0))
        p = p_of_f(f)
        p_level = p + (p.derivative().shift_up()).scale(beta)
        u = f.shift_down()
        zfpf = (u + u.derivative().shift_up()) / u            # z f'/f
        fp = f.derivative()
        zfppfp = fp.derivative().shift_up() / fp              # z f''/f'
        one = TruncatedSeries.constant(1.0, min(zfpf.order, zfppfp.order))
        f_level = zfpf + (zfpf * (one + zfppfp - zfpf)).scale(beta)
        n = min(32, p_level.order, f_level.order)
        diff = float(np.max(np.abs(f_level.coeffs[: n + 1] - p_level.coeffs[: n + 1])))
        worst = max(worst, diff)
    report("8 f-level-consistency", worst <= 1e-10,
           f"20 functions through order 32, worst coeff diff {worst:.2e}")


def test_criterion_9_series_identities():
    s = sqrt_one_plus_z_series(64)
    sq = (s * s).coeffs.copy()
    sq[0] -= 1.0
    sq[1] -= 1.0
    sqrt_resid = float(np.max(np.abs(sq)))

    rng = np.random.default_rng(99)
    k = np.arange(1, 33)
    round_resid = 0.0
    for _ in range(20):
        a = TruncatedSeries(rng.normal(size=33) + 1j * rng.normal(size=33))
        mag = 0.5 / k**2 * rng.uniform(0.0, 1.0, 32)
        b = TruncatedSeries(np.r_[1.0, mag * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))])
        back = (a / b) * b
        resid = float(np.max(np.abs(back.coeffs - a.coeffs)) / np.max(np.abs(a.coeffs)))
        round_resid = max(round_resid, resid)
    ok = sqrt_resid <= 1e-12 and round_resid <= 1e-12
    report("9 series-identities", ok,
           f"sqrt square resid {sqrt_resid:.2e}, mul/div round-trip {round_resid:.2e}")
