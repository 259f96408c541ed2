"""Bisection recovery of the catalogued coefficient bounds.

The solver brackets, for each thresholded lemma, the smallest coefficient at
which the lemma's own sufficiency certificate holds: the scan verdict is
admissible *and* the per-theta objective profile attains its global minimum
on the center line theta = 0.  The second condition matters: three of the
catalogued bounds (first3, first4, sq2) mark where the objective minimum
migrates to theta = 0, not where raw admissibility first holds — below them
the functional can remain admissible while the minimum sits off-center, and
raw admissibility alone would bracket a smaller, uncatalogued constant.  For
the remaining lemmas the two conditions coincide and the certificate bracket
equals the plain admissibility transition.

Both conditions compare the same global grid minimum, so the certificate holds
exactly when every grid margin is at least ``max(-eps_adm, P(0) - tol)``, with
P(0) the minimum of the center row.  A margin below that floor anywhere
proves the certificate false.  Every uncertified step of the catalogued
bisections has such a margin on the center line (the admissibility failures)
or next to it (the off-center minima), so ``certified_at`` first evaluates
the center row and its two neighbours and rejects from those three rows; only
steps the band cannot reject pay for the full scan, which is held to the same
floor.  The search varies beta alone: each thresholded lemma takes one
coefficient.

The verdict is boolean and the objective is not smooth where the minimizing
theta switches branches, so bisection is used rather than gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .admissibility import ConfigurationError, GridSpec, _margin_grid, scan_profile
from .catalog import get_lemma

DEFAULT_SEARCH = (0.05, 6.0)
DEFAULT_TOL = 1e-4
_CENTER_TOL = 1e-12


class BracketError(RuntimeError):
    """The search interval does not straddle a certificate transition."""


class MonotonicityError(RuntimeError):
    """Certificate flips more than once across the sampled search interval."""


@dataclass(frozen=True)
class ThresholdResult:
    lemma_id: str
    beta_low: float
    beta_high: float
    beta_star: float
    tolerance: float
    iterations: int
    closed_form: Optional[float]


def certified_at(lemma_id: str, beta: float, grid: GridSpec = GridSpec()) -> bool:
    """True iff the scan is admissible and the objective minimum sits at theta = 0.

    That is: every grid margin is at least ``max(-eps_adm, P(0) - tol)``, P(0)
    being the center row's minimum.  The center row and its two neighbours are
    rows of the full grid, so a margin below the floor there rejects exactly
    as the full scan would; otherwise the full scan is held to the same floor
    (a NaN margin never certifies).
    """
    lemma = get_lemma(lemma_id)
    form = lemma.make_form(beta)
    theta = grid.theta_grid()
    c = len(theta) // 2
    band = _margin_grid(form, lemma.region, theta[c - 1:c + 2], grid.m_grid(lemma.n_class))
    floor = max(-grid.eps_adm, band[1].min() - _CENTER_TOL)
    if band.min() < floor:
        return False
    prof = scan_profile(form, lemma.region, grid, n_class=lemma.n_class)
    return bool(prof.objective.min() >= floor)


def find_beta_threshold(lemma_id: str, search=None, tol: float = DEFAULT_TOL,
                        grid: GridSpec = GridSpec()) -> ThresholdResult:
    """Bracket the lemma's coefficient bound to within ``tol`` by bisection.

    Raises BracketError when the certificate does not change across the
    interval and MonotonicityError when an 8-point pre-scan sees it flip more
    than once (the bound is then not a single transition in the interval).
    A ``tol`` that is not finite and positive, or a ``search`` interval
    (lo, hi) that is not finite with 0 < lo < hi, is a ConfigurationError,
    raised before any scan.  The bisection also stops once the midpoint
    rounds onto an end of the bracket, so a sub-ulp ``tol`` yields adjacent
    floats rather than a hang.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tol must be finite and positive, got {tol!r}")
    lo, hi = search if search is not None else DEFAULT_SEARCH
    if not (np.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigurationError(f"need finite 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    lemma = get_lemma(lemma_id)
    if lemma.unconditional:
        raise BracketError(f"{lemma_id} holds for every admissible coefficient; "
                           "there is no threshold to bracket")

    samples = np.linspace(lo, hi, 8)
    flags = [certified_at(lemma_id, float(b), grid=grid) for b in samples]
    if flags[0] or not flags[-1]:
        raise BracketError(
            f"no certificate transition in [{lo:g}, {hi:g}] for {lemma_id}")
    for prev, cur in zip(flags, flags[1:]):
        if prev and not cur:
            raise MonotonicityError(
                f"certificate is not monotone across [{lo:g}, {hi:g}] for {lemma_id}")

    # shrink to the sampled flip before bisecting
    k = flags.index(True)
    blo, bhi = float(samples[k - 1]), float(samples[k])
    iterations = 0
    while bhi - blo > tol:
        mid = 0.5 * (blo + bhi)
        if not blo < mid < bhi:
            break
        if certified_at(lemma_id, mid, grid=grid):
            bhi = mid
        else:
            blo = mid
        iterations += 1
    return ThresholdResult(
        lemma_id=lemma_id,
        beta_low=blo,
        beta_high=bhi,
        beta_star=0.5 * (blo + bhi),
        tolerance=tol,
        iterations=iterations,
        closed_form=lemma.threshold_closed,
    )
