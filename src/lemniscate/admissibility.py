"""One scan of the boundary rays, and the verdicts read from it.

A functional is accepted when psi(r, s[, t]) stays outside the target region
for every sampled theta and every m >= n — and, for second-order forms, for
every t in the constrained half-plane, which is handled exactly by
point-to-half-plane projection rather than sampling.  Points within
``eps_adm`` of the region boundary count as outside: the catalogued
inequalities are non-strict there, and several of them touch the boundary
exactly (at theta = 0, m = 1).

m is not sampled.  Every catalogued first-order psi is defined as
lead(a) + slope(a, b) with slope linear in b (:mod:`lemniscate.catalog`), so
at each theta the boundary image over b = s = m sigma(theta) is the ray
A + m C, A = lead(r) and C = slope(r, sigma), over m in [n, inf); both are
read from the form, not probed.  Its least margin sits at m = n, at one of
the few m its region names (``ray_extrema`` in :mod:`lemniscate.geometry`),
or in a limit as m -> inf.  For second-order forms the t-projected distance
is max(0, h(m)) with h a quadratic of positive leading coefficient whose
vertex, for every catalogued form, lies below m = 1, so its least value is at
m = n.  One
boundary jet per scan serves every candidate m, so the profile is 1-D over
theta.

A first-order scan is two parts.  The :class:`Rays` table (the jet, the
region's candidates and the margins there, the limit) does not depend on
where the ray starts or on the scale of b; only the start m = n does.  The
coefficient of every thresholded lemma enters as beta b, so the form at beta
is the form at 1 along u = beta m, and one table of the form at 1 serves every
beta:
:func:`scaled_minimum` reads the least margin from it with one margin evaluation
per row, the start, and one minimum in which a candidate counts where u > beta n.

:func:`scan_profile` is the only code that scans: it builds the theta grid,
the table, each row's least margin and their minimum once.  Where every
coefficient of the form and of the region is real the profile is even in
theta, row for row on the mirrored grid, so the scan evaluates the rows
theta >= 0 and mirrors them, and the table holds those rows, center first;
only sq-1 with a complex beta scans every row.  A finite row
below ``-eps_adm`` decides the scan whatever NaN rows sit beside it; any other
non-finite minimum is a ConfigurationError.  The scan is purely functional and
its minimum a min-reduction, so results are bit-identical for a given grid.  The
verdict is a view of it, and the bisection certificate
(:func:`lemniscate.thresholds.certified_at`) a view of the table of the form at
1.  The verdict adds a short golden-section polish over theta around the
profile minimizer that tightens the reported minimum and the violation
witness; it can only lower the minimum, never raise it.  Its 48 steps take
8 evaluations of the profile: the first serves the opening pair and six steps,
each later one six more (see :func:`_golden_min`).

One row function, :func:`_ray_minimum`, serves the scan and the polish, and
reads the one jet, :func:`~lemniscate.boundary.jet_arrays`, which checks
nothing.  The scan's theta comes from :func:`~lemniscate.boundary.theta_grid`,
which checks its end points, and every abscissa of the polish lies inside
that grid; :func:`scan_profile` checks ``n_class`` before it scans.  A ray
whose line parameter overflows (a subnormal slope, from a beta near the
bottom of the float range) has lost its candidates, so its limit is NaN, and
the scan refuses it unless a finite row rejects.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .boundary import (THETA_EPS, ConfigurationError, check_point, check_theta_margin,
                       jet_arrays, make_triple, theta_grid)
from .catalog import ArityError, PsiForm, evaluate, second_order_min_distance
from .geometry import Disk, Region

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # a Python float: scalar steps cost less than numpy's
_GOLDEN_ITERS = 48  # steps of the golden-section search in the polish
_BATCH_DEPTH = 6  # golden-section steps per evaluation of the profile


@dataclass(frozen=True)
class GridSpec:
    """Scan resolution over theta.

    An even ``theta_points`` becomes odd, putting theta = 0 on the grid.
    """

    theta_points: int = 2001
    theta_margin: float = THETA_EPS
    eps_adm: float = 1e-9

    def __post_init__(self):
        if self.theta_points < 1000:
            raise ConfigurationError("theta_points must be at least 1000")
        check_theta_margin(self.theta_margin)
        if not (np.isfinite(self.eps_adm) and self.eps_adm >= 0.0):
            raise ConfigurationError("eps_adm must be finite and >= 0")
        object.__setattr__(self, "theta_points", self.theta_points | 1)

    def theta_grid(self) -> np.ndarray:
        return theta_grid(self.theta_points, self.theta_margin)


@dataclass(frozen=True)
class Witness:
    """A concrete interior point: psi at (theta, m[, t]) landed inside the region."""

    theta: float
    m: float
    t: Optional[complex]
    psi_value: complex
    margin: float


@dataclass(frozen=True)
class Verdict:
    admissible: bool
    witness: Optional[Witness]
    min_objective_seen: float


@dataclass(frozen=True)
class TMinimum:
    t_star: complex
    objective: float


class Rays(NamedTuple):
    """The part of a first-order scan that does not depend on the scale of b.

    Per theta row: the jet r and sigma (shapes (K, 1)), then the m its region
    names along the ray A + m C (``ray_extrema``; 0 where a candidate is not
    finite and positive, so it never counts) and last m = inf, and the
    margins there, the last being the margin's limit (shapes (K, J + 1),
    views of the scan's columns past the start).  A form that takes its
    coefficient beta as beta b is the unit form along u = beta m: its ray is
    the same line, its candidates are u / beta and its margins there are the
    unit form's.  Only the start m = n moves.
    """

    r: np.ndarray
    sigma: np.ndarray
    m: np.ndarray
    margins: np.ndarray


@dataclass(frozen=True)
class Profile:
    """One scan: each theta row's least margin over m >= n (minimized over t where
    applicable) and the m attaining it (inf where the least value is a limit).

    ``argmin`` is the row that decides the scan (:func:`deciding_row`): the
    first least margin, or a finite one below ``-eps_adm`` beside NaN rows.
    ``rays`` is the table the scan of a first-order form was reduced from
    (None for second-order forms): the rows theta >= 0, center first, where
    the profile is even (:func:`_even_profile`), and every row otherwise.
    """

    theta: np.ndarray
    m: np.ndarray
    margins: np.ndarray
    argmin: int
    rays: Optional[Rays] = None

    @property
    def minimum(self) -> float:
        return float(self.margins[self.argmin])


def _require_pairing(form: PsiForm, region: Region) -> None:
    if form.order == 2 and not isinstance(region, Disk):
        raise ConfigurationError("second-order forms are checked against disk targets only")


def _ray_minimum(form: PsiForm, region: Region, theta: np.ndarray, n_class: int):
    """Least margin along each theta's boundary ray over m >= n_class and the m
    attaining it (inf where the least value is the limit as m -> inf), shapes (K,),
    and the rays they were read from (None for second-order forms).

    theta lies on the arc and n_class is an integer >= 1; neither is checked
    here.  A first-order form reads its rays from the jet at m = 1.  Each row's
    columns are the start m = n, the region's candidates (0 where not finite
    and positive) and the limit m = inf; a candidate counts past the start, and
    a tie goes to the start.
    """
    n = float(n_class)
    with np.errstate(all="ignore"):  # the rules below decide what is not finite
        if form.order == 2:
            # base = B0 + m B1 makes the projected distance max(0, h(m)) with
            # h = coef m(3m - 4)/(8 sqrt(2 cos 2 theta)) + m Re(B1 e^{-3i theta}) + const,
            # whose vertex is 2/3 (1 - Re(B1/sigma)/coef).  Every catalogued base has
            # B1 = kappa sigma with kappa real and > 0 (1 for b + c and a^2 + b + c,
            # gamma for gamma b + beta c) and coef > 0, so the vertex lies below
            # 2/3 < 1 <= n: h increases on [n, inf) and its least value is at m = n.
            dist = second_order_min_distance(form, region.center, theta, n)[0]
            return np.full(len(theta), n), dist[:, 0] - region.radius, None
        r, sigma = jet_arrays(theta, 1.0)[:2]
        a, c = form.lead(r[:, 0]), form.slope(r[:, 0], sigma[:, 0])
        extra, tail = region.ray_extrema(a, c)
        # column-major, so that the columns Rays views are contiguous
        m = np.empty((extra.shape[1] + 2, len(theta))).T
        m[:, 0], m[:, -1] = n, np.inf
        # a candidate that is not finite and positive never counts
        m[:, 1:-1] = np.where(np.isfinite(extra) & (extra > 0.0), extra, 0.0)
        margins = np.empty_like(m)
        margins[:, :-1] = region.margin(form.value(r, sigma * m[:, :-1]))
        # where the line parameter overflows (c subnormal) the candidates are lost,
        # and a NaN limit makes the scan refuse the row
        lost = np.isfinite(c) & (c != 0.0) & ~np.isfinite((region.anchor - a) / c)
        margins[:, -1] = np.where(lost, np.nan, tail)
    counted = np.where(m > n, margins, np.inf)
    counted[:, 0] = margins[:, 0]
    at = np.arange(len(theta)), np.argmin(counted, axis=1)
    return m[at], counted[at], Rays(r, sigma, m[:, 1:], margins[:, 1:])


def _children(a, b, x1, x2):
    """Both golden-section steps on [a, b], as (bracket, the point it adds) pairs:
    the left step (taken where f1 <= f2), then the right."""
    x = x2 - _GOLDEN * (x2 - a)
    y = x1 + _GOLDEN * (b - x1)
    return [((a, x2, x, x1), x), ((x1, b, x2, y), y)]


def _golden_min(f, lo: float, hi: float):
    """Golden-section minimum on [lo, hi] of f, a map from an array of abscissae to values.

    Each call of f evaluates every point that the next _BATCH_DEPTH steps could
    ask for, and the walk follows the branches the comparisons take.  The first
    call also evaluates the opening pair, so both first steps are open: virtual
    root -1 has children 0 and 1, and node k has children 2k+2 and 2k+3
    (2**(_BATCH_DEPTH+1) points in all).  In each later call the first step is
    known: it is node 0, and node k has children 2k+1 and 2k+2
    (2**_BATCH_DEPTH - 1 points).  Every point is the one-point search's own
    expression and every comparison its ``f1 <= f2`` on the same values, so
    for an elementwise f the result is bit-identical.  The abscissa is returned
    as a numpy float, the value as a Python float.
    """
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    bracket, opening = (a, b, x1, x2), [x1, x2]
    for done in range(0, _GOLDEN_ITERS, _BATCH_DEPTH):
        depth = min(_BATCH_DEPTH, _GOLDEN_ITERS - done)
        nodes = _children(*bracket)
        if done:
            nodes = [nodes[0 if f1 <= f2 else 1]]
        roots = len(nodes)
        for k in range(roots * (2 ** (depth - 1) - 1)):
            nodes += _children(*nodes[k][0])
        values = f(np.array(opening + [x for _, x in nodes])).tolist()
        if opening:
            f1, f2, *values = values
            opening = []
        k = -1
        for _ in range(depth):
            go_left = f1 <= f2
            # a later call's node 0 is the only child of -1, whichever the branch
            k = max(2 * k + roots + (0 if go_left else 1), 0)
            bracket = nodes[k][0]
            f1, f2 = (values[k], f1) if go_left else (f2, values[k])
    return (np.float64(bracket[2]), f1) if f1 <= f2 else (np.float64(bracket[3]), f2)


def min_over_t(form: PsiForm, triple, region: Region) -> TMinimum:
    """Exact minimizer of |psi(r, s, t) - center| over the admissible t half-plane.

    psi is affine in t with a real positive coefficient, so the admissible
    image is a half-plane and the minimum is the projection of the disk
    center onto it, as computed by :func:`second_order_min_distance`.  The
    triple's theta and m are checked as :func:`make_triple` checks them.
    """
    check_point(triple.theta, triple.m)
    if form.order != 2:
        raise ArityError("t-minimization applies to second-order forms only")
    if not isinstance(region, Disk):
        raise ConfigurationError("t-minimization needs a disk target")
    dist, base, e3 = second_order_min_distance(
        form, region.center, np.array([triple.theta]), float(triple.m))
    kappa = float(dist[0, 0])
    # the nearest image point is center + kappa e^{3i theta} (the center itself if kappa = 0)
    t_star = (region.center + kappa * e3[0, 0] - base[0, 0]) / float(form.t_coefficient)
    return TMinimum(t_star=complex(t_star), objective=kappa)


def _polish(form, region, theta, i, n_class):
    """Golden-section search over theta for the profile minimizer, between its grid
    neighbours, so every abscissa lies inside the scan's grid."""
    lo = float(theta[max(i - 1, 0)])
    hi = float(theta[min(i + 1, len(theta) - 1)])
    seen = []  # each evaluation's abscissae and m, so the minimizer's needs no new scan

    def f(x):
        m, margins, _ = _ray_minimum(form, region, x, n_class)
        seen.append((x, m))
        return margins

    th_star, val = _golden_min(f, lo, hi)
    x, m = map(np.concatenate, zip(*seen))
    return th_star, float(m[np.flatnonzero(x == th_star)[-1]]), val


def deciding_row(least: np.ndarray, floor: float) -> int:
    """The row of ``least`` that decides whether every row is at least ``floor``:
    the first least row or, where that is NaN, the least finite row if it lies
    below ``floor``, a violation whatever the NaN rows hold.  A non-finite least
    row that no finite row overrules is a ConfigurationError.
    """
    i = int(np.argmin(least))  # the first NaN, if there is one
    if math.isfinite(least[i]):
        return i
    if math.isnan(least[i]):
        finite = np.where(np.isfinite(least), least, np.inf)
        j = int(np.argmin(finite))
        if finite[j] < floor:
            return j
    raise ConfigurationError(f"the scan's minimum margin is {least[i]}, not finite")


def _even_profile(form: PsiForm, region: Region) -> bool:
    """True where the profile is even in theta: every coefficient of the form
    and of the region is real.

    The jet at -theta is the conjugate of the jet at theta, a psi with real
    coefficients maps conjugate slots to the conjugate value, and a region with
    real coefficients is symmetric about the real axis, so conjugates have the
    same margin.  On the mirrored grid of :func:`~lemniscate.boundary.theta_grid`
    the rows theta and -theta then agree bit for bit.  Of the catalogued
    lemmas only sq-1 with a complex beta fails it.
    """
    return not any(complex(v).imag for v in [*vars(form).values(), *vars(region).values()])


def scan_profile(form: PsiForm, region: Region, grid: GridSpec = GridSpec(),
                 n_class: int = 1) -> Profile:
    """Least margin over m >= ``n_class`` on the boundary ray of each theta of the grid.

    ``argmin`` is the :func:`deciding_row` for the floor ``-grid.eps_adm``, so
    a non-finite minimum raises ConfigurationError unless a finite row lies
    below that floor.  ``n_class`` must be an integer >= 1.
    """
    _require_pairing(form, region)
    if not (isinstance(n_class, numbers.Integral) and n_class >= 1):
        raise ConfigurationError("n_class must be an integer >= 1")
    theta = grid.theta_grid()
    # an even profile is scanned from the center row on and mirrored
    c = len(theta) // 2 if _even_profile(form, region) else 0
    m, margins, rays = _ray_minimum(form, region, theta[c:], n_class)
    if c:
        m, margins = (np.concatenate([x[:0:-1], x]) for x in (m, margins))
    return Profile(theta, m, margins, deciding_row(margins, -grid.eps_adm), rays)


def scaled_minimum(rays: Rays, form: PsiForm, region: Region, scale: float,
                   n_class: int = 1) -> np.ndarray:
    """Each row's least margin over m >= ``n_class`` of ``form``: the form ``rays``
    were scanned with, b scaled by ``scale``.

    The start margin is ``form``'s own, bit-identical to :func:`scan_profile`'s;
    a candidate counts where its unscaled m exceeds ``scale * n``.  As in the
    scan, a NaN anywhere in a row makes that row NaN.
    """
    n = float(n_class)
    start = np.asarray(region.margin(form.value(rays.r, rays.sigma * n)))
    return np.minimum(start[:, 0], np.where(rays.m > scale * n, rays.margins, np.inf).min(1))


def check_admissible(form: PsiForm, region: Region, grid: GridSpec = GridSpec(),
                     n_class: int = 1) -> Verdict:
    """Scan the boundary jet; accept iff psi never lands strictly inside the region.

    A ``False`` verdict carries a concrete witness whose interiority can be
    re-confirmed independently through :func:`min_over_t` /
    :func:`lemniscate.catalog.evaluate`.
    """
    prof = scan_profile(form, region, grid, n_class)
    i, grid_min = prof.argmin, prof.minimum
    th_star, m_star, polished = _polish(form, region, prof.theta, i, n_class)
    if not polished <= grid_min:  # polish never worsens the bound; a NaN polish falls back
        th_star, m_star, polished = float(prof.theta[i]), float(prof.m[i]), grid_min
    admissible = polished >= -grid.eps_adm
    witness = None
    if not admissible:
        triple = make_triple(th_star, m_star)
        t = min_over_t(form, triple, region).t_star if form.order == 2 else None
        witness = Witness(th_star, m_star, t, evaluate(form, triple, t), polished)
    return Verdict(admissible=admissible, witness=witness, min_objective_seen=polished)
