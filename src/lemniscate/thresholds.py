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

Both conditions compare the same global profile minimum, so the certificate
holds exactly when every theta row's least margin (over all m >= n) is at
least ``max(-eps_adm, P(0) - tol)``, with P(0) that of the center row.  A row
below that floor anywhere proves the certificate false.  The profile of a real
coefficient is even in theta, so the table holds only the rows theta >= 0,
center first, and ``certified_at`` reads all of them, the 1001 of the default
grid, at once.

Each thresholded lemma takes its one coefficient beta as beta b, so its
boundary rays, their candidate m and the margins there are those of beta = 1
read in u = beta m (:class:`~lemniscate.admissibility.Rays`).  A bisection
therefore scans once, at beta = 1, through
:func:`~lemniscate.admissibility.scan_profile`, and every step reads the least
margin of its rows from that table with
:func:`~lemniscate.admissibility.scaled_minimum`: one start margin per row, the
beta-form's own at m = n, and one minimum over the candidates past u = beta n.
A ``certified_at`` called on its own scans the same table first.  A row below
the floor rejects whatever NaN rows sit beside it; any other non-finite minimum
is a ConfigurationError, never a certificate.

A search brackets the transition of the certificate from the two ends of the
interval, a binary search over samples between them and a bisection, and
reads a step only where the steps already read leave it open: a beta at or
below the largest beta read uncertified is uncertified, and one at or above
the least beta read certified is certified.  That holds where the certificate
is monotone in beta.  Admissibility is monotone by construction: at beta it
asks for a margin of at least -eps_adm at every u = beta m >= beta n, a set
that shrinks as beta grows (Miller and Mocanu, *Differential Subordinations*,
2000).  The center condition of the three migration-type bounds is monotone
as measured away from its transition: on 2801 log-spaced beta from 1e-300 to
1e150 each of the seven certificates flips once.  Near the transition the
float certificate is not monotone, because the center condition compares
margins that agree to rounding: on 400 evenly spaced beta it flips 83 times
in [2.8284161090, 2.8284161098] for sq2 and 117 times in
[3.5809476560, 3.5809476590] for first4.

Before the samples, the search reads two seeds, the lemma's catalogued bound
(``threshold_ref``, the paper's value) minus and plus w = max(tol / 64,
2**-17 beta).  Those two reads decide most of the later steps, so a bound at
the default interval and tol takes at most 5 reads instead of 19 (4.5 on
average over the bench's bounds pools), and one on (0.05, 1e150) at most 5
instead of about 29.  The float transition lies within 3.9e-6 beta of the
catalogued value (sq2: 1.1e-5 below it; first3: 2.4e-6 above; first4: 2.3e-6
below; the other four within 1e-8 beta), and 2**-17 beta is 7.6e-6 beta, so
the seeds sit on either side of it, outside the stretch where the
certificate is not monotone.  The rule then decides each step as a read
would, and every bracket is that of the plain bisection, which reads every
step.  A seed decides nothing: one outside the interval is not read, and one
far from the transition costs a read but moves no bracket.

The verdict is boolean and the objective is not smooth where the minimizing
theta switches branches, so bisection is used rather than gradient steps.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .admissibility import (ConfigurationError, GridSpec, Profile, deciding_row,
                            scaled_minimum, scan_profile)
from .catalog import get_lemma

DEFAULT_SEARCH = (0.05, 6.0)
DEFAULT_TOL = 1e-4
_CENTER_TOL = 1e-12
_SCALES_B = ("beta", "beta-complex")  # the catalogued params that enter as beta b


class BracketError(RuntimeError):
    """The search interval does not straddle a certificate transition."""


@dataclass(frozen=True)
class ThresholdResult:
    lemma_id: str
    beta_low: float
    beta_high: float
    beta_star: float
    tolerance: float
    iterations: int
    closed_form: Optional[float]


def _require_scales_b(lemma) -> None:
    if lemma.params not in _SCALES_B:
        raise ConfigurationError(f"{lemma.lemma_id} has no coefficient beta that scales b, "
                                 "so it has no certificate in beta")


def _unit_scan(lemma, grid: GridSpec) -> Profile:
    """The scan of the lemma's form at beta = 1."""
    return scan_profile(lemma.make_form(1.0), lemma.region, grid, lemma.n_class)


def certified_at(lemma_id: str, beta: float, grid: GridSpec = GridSpec(),
                 unit: Optional[Profile] = None) -> bool:
    """True iff the scan is admissible and the objective minimum sits at theta = 0.

    That is: every row of the profile is at least ``max(-eps_adm, P(0) - tol)``,
    P(0) being the center row.  Both come from one read of every row of
    ``unit``, the scan of the lemma at beta = 1 on ``grid`` (scanned here if
    not given), whose table holds the rows theta >= 0, center first.  A
    non-finite minimum is a ConfigurationError unless a finite row rejects
    (:func:`~lemniscate.admissibility.deciding_row`); numpy warns of none.  A
    lemma whose coefficient does not enter as beta b, and a ``unit`` whose row
    count is not ``grid.theta_points``, are ConfigurationErrors raised before
    any scan; so is a table that does not hold the ``grid.theta_points // 2 + 1``
    rows theta >= 0 (a table of every row, say), whose first row is not the center.
    """
    lemma = get_lemma(lemma_id)
    _require_scales_b(lemma)
    form = lemma.make_form(beta)
    if complex(beta).imag:
        raise ConfigurationError(f"the certificate takes a real coefficient, got {beta!r}")
    if unit is None:
        unit = _unit_scan(lemma, grid)
    elif len(unit.theta) != grid.theta_points:
        raise ConfigurationError(f"the table has {len(unit.theta)} rows, "
                                 f"the grid {grid.theta_points}")
    if len(unit.rays.m) != grid.theta_points // 2 + 1:
        raise ConfigurationError(f"the table has {len(unit.rays.m)} rays, the grid "
                                 f"{grid.theta_points // 2 + 1} rows with theta >= 0")
    with np.errstate(all="ignore"):  # deciding_row decides what is not finite
        least = scaled_minimum(unit.rays, form, lemma.region, beta, lemma.n_class)
    # a NaN center leaves the admissibility floor, which max() returns first
    floor = max(-grid.eps_adm, least[0] - _CENTER_TOL)
    return bool(least[deciding_row(least, floor)] >= floor)


def find_beta_threshold(lemma_id: str, search=None, tol: float = DEFAULT_TOL,
                        grid: GridSpec = GridSpec()) -> ThresholdResult:
    """Bracket the lemma's coefficient bound to within ``tol`` by bisection.

    The search reads both ends of the interval first and raises BracketError
    unless lo is uncertified and hi certified; a step that cannot be read at
    either end (a ConfigurationError) is raised before that.  It then reads
    two seeds, the lemma's catalogued bound beta' minus and plus
    w = max(tol / 64, 2**-17 beta'), finds the first certified of the 6 points
    that split (lo, hi) into 7 equal parts by binary search, and bisects from
    it and the sample below it.  Each of these steps is read only if it lies
    between the largest beta read uncertified and the least read certified;
    outside them it takes the answer of the nearer one.  The float transition
    lies within 3.9e-6 beta of beta' (sq2 is the farthest), so the seeds
    straddle it and stay clear of the stretch, about 1e-9 beta wide, where the
    float certificate flips back and forth; the bracket and ``iterations``, the
    count of bisection steps whether read or not, are those of the plain
    bisection.  A default bound takes at most 5 reads, as does one on
    (0.05, 1e150).
    A ``tol`` that is not finite and positive, a ``search`` interval (lo, hi)
    that is not finite with 0 < lo < hi, or a lemma whose coefficient does not
    enter as beta b, is a ConfigurationError, raised before any scan; a lemma
    that holds for every admissible coefficient is a BracketError.  While
    the bracket spans more than a factor of 16 it is split at its geometric
    midpoint, so the step count grows with the log of log(hi/lo) rather than
    with hi.  The bisection also stops once the midpoint rounds onto an end
    of the bracket, so a sub-ulp ``tol`` yields adjacent floats rather than a
    hang.  The search makes one scan, of the form at beta = 1, and
    every step reads its certificate from it.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tol must be finite and positive, got {tol!r}")
    lo, hi = search if search is not None else DEFAULT_SEARCH
    if not (np.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigurationError(f"need finite 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    lemma = get_lemma(lemma_id)
    _require_scales_b(lemma)
    if lemma.unconditional:
        raise BracketError(f"{lemma_id} holds for every admissible coefficient; "
                           "there is no threshold to bracket")

    unit = _unit_scan(lemma, grid)
    samples = np.linspace(lo, hi, 8)
    lo_end, hi_end = float(samples[0]), float(samples[-1])
    # both ends are read before either can refuse the interval
    if (certified_at(lemma_id, lo_end, grid=grid, unit=unit),
            certified_at(lemma_id, hi_end, grid=grid, unit=unit)) != (False, True):
        raise BracketError(
            f"no certificate transition in [{lo:g}, {hi:g}] for {lemma_id}")
    below, above = lo_end, hi_end  # the largest beta read uncertified, the least certified

    def certified(beta):
        nonlocal below, above
        if beta <= below:
            return False
        if beta >= above:
            return True
        if certified_at(lemma_id, float(beta), grid=grid, unit=unit):
            above = beta
            return True
        below = beta
        return False

    # the seeds straddle the catalogued bound; one outside (below, above) is not read
    width = max(tol / 64.0, 2.0 ** -17 * lemma.threshold_ref)
    certified(lemma.threshold_ref - width)
    certified(lemma.threshold_ref + width)
    # the first certified sample between the ends
    k = bisect.bisect_left(samples, True, 1, 7, key=certified)
    blo, bhi = float(samples[k - 1]), float(samples[k])
    iterations = 0
    while bhi - blo > tol:
        # a wide bracket (a --hi of 1e150, say) shrinks by ratio first, not by width
        mid = math.sqrt(blo) * math.sqrt(bhi) if bhi > 16.0 * blo else 0.5 * (blo + bhi)
        if not blo < mid < bhi:
            break
        if certified(mid):
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
