"""The benchmark workloads: seeded inputs, the timed call, and output oracles.

Every workload is a closed loop with one caller: the next item starts when
the previous one has returned.  Inputs come from ``np.random.default_rng(seed)``
and are built into a pool before any timing starts; a run cycles through the
pool in whole rounds.  Pools are stratified (a fixed number of items per lemma
and per side of a bound) so that two seeds give the same mix of work and
differ only in the coefficients drawn.

The timed call goes through the library's module attributes
(``thresholds.find_beta_threshold`` and so on) so that the tracer's wrappers
see it.  The oracles are independent of the code under test wherever the
library offers an independent route.
"""

from __future__ import annotations

import numpy as np
from lemniscate import admissibility, boundary, catalog, thresholds, verifier
from lemniscate.admissibility import GridSpec
from lemniscate.catalog import LEMMAS
from lemniscate.series import TruncatedSeries

SQRT2 = np.sqrt(2.0)

# catalogued bound and the allowed |beta* - bound| of acceptance criterion 1
REFERENCE = {
    "first3": (1.1874, 5e-3),
    "first4": (3.58095, 5e-3),
    "sq2": (2.0 * SQRT2, 2e-3),
    "moebius": (2.0, 2e-3),
    "one0": (4.0 - 2.0 * SQRT2, 2e-3),
    "one1": (4.0 * SQRT2 - 4.0, 2e-3),
    "one2": (8.0 - 4.0 * SQRT2, 2e-3),
}
# Lemmas whose stated condition "B >= bound" is also necessary, so a draw below
# the bound must be rejected.  The first3/first4/sq2 bounds mark where the
# objective minimum moves to theta = 0; below them the verdict is undecided.
NECESSARY_BOUND = {"one0", "one1", "one2", "moebius"}


class Bounds:
    """Bracket one of the 7 thresholded bounds per item with find_beta_threshold.

    The seeded search interval straddles the bound and is 5.8 to 6.5 wide, so
    every item takes the same 8 pre-scan and 14 bisection steps as the
    default interval (0.05, 6.0) at tol = 1e-4.
    """

    tol = 1e-4
    per_bound = 2

    def pool(self, rng):
        items = []
        for lemma_id in REFERENCE:
            for _ in range(self.per_bound):
                lo = float(rng.uniform(0.05, 0.6))
                items.append((lemma_id, lo, lo + float(rng.uniform(5.8, 6.5))))
        rng.shuffle(items)
        return items

    def warm_up(self, pool):
        return pool[:1]

    def call(self, item):
        lemma_id, lo, hi = item
        return thresholds.find_beta_threshold(lemma_id, search=(lo, hi), tol=self.tol)

    def check(self, item, result):
        lemma_id = item[0]
        bound, allowed = REFERENCE[lemma_id]
        if abs(result.beta_star - bound) > allowed:
            return f"{lemma_id}: beta* {result.beta_star!r} is off {bound!r} by more than {allowed}"
        closed, tol = result.closed_form, result.tolerance
        if closed is not None and not result.beta_low - tol <= closed <= result.beta_high + tol:
            return (f"{lemma_id}: closed form {closed!r} outside "
                    f"[{result.beta_low!r}, {result.beta_high!r}] +- {result.tolerance}")
        return None

    def observe(self, item, result, stats):
        pass


class Verdicts:
    """One check_admissible per item on the default grid, over all 20 lemmas.

    Unconditional lemmas get random coefficients (complex beta for sq-1,
    (beta, gamma) for sqrat); thresholded lemmas alternate above and below
    their bound, at least 5% away from it; second-weighted alternates inside
    and outside its condition G >= B > 0, 4G - B >= 1.
    """

    per_lemma = 6
    grid = GridSpec()

    def _draw(self, lemma_id, lemma, k, rng):
        """(beta, gamma, expected verdict or None where the condition does not decide)."""
        first_side = k % 2 == 0
        if lemma.params == "none":
            return None, None, True
        if lemma_id == "sq-1":
            return complex(rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0)), None, True
        if lemma_id == "sqrat":
            return float(rng.uniform(1e-3, 10.0)), float(rng.uniform(1e-3, 10.0)), True
        if lemma_id == "second-weighted":
            if first_side:
                gamma = float(rng.uniform(0.3, 2.0))
                return float(rng.uniform(0.05, 1.0) * min(gamma, 4.0 * gamma - 1.0)), gamma, True
            return float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.24)), None
        if lemma.unconditional:
            return float(rng.uniform(1e-3, 10.0)), None, True
        bound = REFERENCE[lemma_id][0]
        if first_side:
            return float(bound * rng.uniform(1.05, 2.0)), None, True
        expected = False if lemma_id in NECESSARY_BOUND else None
        return float(bound * rng.uniform(0.3, 0.95)), None, expected

    def pool(self, rng):
        items = []
        for lemma_id, lemma in LEMMAS.items():
            for k in range(self.per_lemma):
                beta, gamma, expected = self._draw(lemma_id, lemma, k, rng)
                items.append((lemma_id, lemma.make_form(beta, gamma), expected))
        rng.shuffle(items)
        return items

    def warm_up(self, pool):
        # the first call of each path: first and second order, with and without a witness
        seen, out = set(), []
        for item in pool:
            key = (item[1].order, item[2])
            if key not in seen:
                seen.add(key)
                out.append(item)
        return out

    def call(self, item):
        lemma_id, form, _ = item
        lemma = LEMMAS[lemma_id]
        return admissibility.check_admissible(form, lemma.region, self.grid,
                                              n_class=lemma.n_class)

    def check(self, item, verdict):
        lemma_id, form, expected = item
        if expected is not None and verdict.admissible != expected:
            return (f"{lemma_id} {form!r}: admissible={verdict.admissible}, "
                    f"condition says {expected}")
        if verdict.admissible != (verdict.witness is None):
            return f"{lemma_id} {form!r}: witness does not match the verdict"
        if verdict.witness is None:
            return None
        region = LEMMAS[lemma_id].region
        w = verdict.witness
        triple = boundary.make_triple(w.theta, w.m)
        t = admissibility.min_over_t(form, triple, region).t_star if form.order == 2 else None
        psi = catalog.evaluate(form, triple, t)
        if not bool(region.contains(psi)):
            return f"{lemma_id} {form!r}: witness psi={psi!r} at {w!r} is not inside the region"
        if abs(psi - w.psi_value) > 1e-9 * max(1.0, abs(psi)):
            return f"{lemma_id} {form!r}: witness reports psi={w.psi_value!r}, re-evaluated {psi!r}"
        return None

    def observe(self, item, verdict, stats):
        stats["witnesses"] += verdict.witness is not None


class Implications:
    """One verify_implication per item at the lemma's default coefficients.

    The k-th p of every lemma is ``random_normalized_p(16, seed=k)``, as in
    the acceptance suite's falsification sweep, turned by a seeded rotation
    z -> e^{i phi} z.  A rotation keeps p's image and its coefficient
    magnitudes, which fix the working order and so the cost, so every seed
    runs the same mix of orders on different coefficients.  Drawing the
    magnitudes from the seed instead moves the share of order-128 items,
    and p90 sits at the edge of that share.  Every 4th p of a lemma has its
    non-constant coefficients scaled by 0.12, which drives the lemma through
    its 'confirmed' branch.
    """

    degree = 16
    per_lemma = 20
    gentle_every = 4

    def pool(self, rng):
        powers = np.arange(self.degree + 1)
        base = {}  # lemmas share their k-th p up to the class index
        items = []
        for lemma_id, lemma in LEMMAS.items():
            for k in range(self.per_lemma):
                key = (k, lemma.n_class)
                if key not in base:
                    base[key] = verifier.random_normalized_p(self.degree, seed=k,
                                                             n_class=lemma.n_class).coeffs
                c = base[key] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi) * powers)
                if k % self.gentle_every == 0:
                    c[1:] *= 0.12
                items.append((lemma_id, TruncatedSeries(c), lemma.default_beta,
                              lemma.default_gamma))
        rng.shuffle(items)
        return items

    def warm_up(self, pool):
        return pool[:1]

    def call(self, item):
        lemma_id, p, beta, gamma = item
        return verifier.verify_implication(lemma_id, p, beta, gamma)

    def check(self, item, report):
        if report.status == "COUNTEREXAMPLE":
            return f"{item[0]}: COUNTEREXAMPLE at {item[1]!r}"
        return None

    def observe(self, item, report, stats):
        stats["work_orders"].append(report.work_order)
        stats["tail_unconverged"] += not report.tail_ok


WORKLOADS = {
    "bounds": Bounds(),
    "verdicts": Verdicts(),
    "falsify": Implications(),
}
