"""Grid-scan verdicts: does a functional avoid its target region on the boundary jet?

A functional is accepted when psi(r, s[, t]) stays outside the target region
for every sampled (theta, m) — and, for second-order forms, for every t in
the constrained half-plane, which is handled exactly by point-to-half-plane
projection rather than sampling.  Points within ``eps_adm`` of the region
boundary count as outside: the catalogued inequalities are non-strict there,
and several of them touch the boundary exactly (at theta = 0, m = 1).

The (theta, m) scan is embarrassingly parallel and purely functional; the
verdict is a min-reduction, so results are bit-identical for a given grid
regardless of evaluation order.  A short golden-section polish around the
grid minimizer tightens the reported minimum and the violation witness; it
can only lower the minimum, never raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boundary import (THETA_EPS, ConfigurationError, check_theta_margin,
                       jet_arrays, make_triple, theta_grid)
from .catalog import ArityError, PsiForm, second_order_min_distance
from .geometry import Disk, Region

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """Scan resolution.  ``m_min=None`` defers to the functional's class index."""

    theta_points: int = 2001
    theta_margin: float = THETA_EPS
    m_min: Optional[float] = field(
        default=None, metadata={"help": "lowest m (defaults to the lemma's class index)"})
    m_max: float = 8.0
    m_points: int = 64
    eps_adm: float = 1e-9

    def __post_init__(self):
        if self.theta_points < 1000:
            raise ConfigurationError("theta_points must be at least 1000")
        check_theta_margin(self.theta_margin)
        if not (np.isfinite(self.eps_adm) and self.eps_adm >= 0.0):
            raise ConfigurationError("eps_adm must be finite and >= 0")
        if not np.isfinite(self.m_max) or not np.isfinite(self.m_min or 1.0):
            raise ConfigurationError("m_min and m_max must be finite")
        if self.m_min is not None and self.m_min < 1.0:
            raise ConfigurationError("m_min must be >= 1")
        if self.m_points < 2 or self.m_max <= (self.m_min or 1.0):
            raise ConfigurationError("need m_max > m_min and at least 2 m points")

    def theta_grid(self) -> np.ndarray:
        return theta_grid(self.theta_points | 1, self.theta_margin)  # odd: theta = 0 on grid

    def m_grid(self, n_class: int = 1) -> np.ndarray:
        lo = self.m_min if self.m_min is not None else float(n_class)
        if self.m_max <= lo:
            raise ConfigurationError(f"m_max = {self.m_max:g} must exceed the lowest m = {lo:g}")
        return np.linspace(lo, self.m_max, self.m_points)


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


@dataclass(frozen=True)
class Profile:
    """Per-theta objective profile, minimized over m (and t where applicable)."""

    theta: np.ndarray
    objective: np.ndarray


def _require_pairing(form: PsiForm, region: Region) -> None:
    if form.order == 2 and not isinstance(region, Disk):
        raise ConfigurationError("second-order forms are checked against disk targets only")


def _margin_grid(form: PsiForm, region: Region, theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Region margins of psi over the (theta x m) grid; shape (K, M)."""
    if form.order == 2:
        dist, _, _, _ = second_order_min_distance(form, region.center, theta, m)
        return dist - region.radius
    r, s, _, _ = jet_arrays(theta, m)
    psi = form.value(r, s)
    return np.asarray(region.margin(psi))


def _margin_at(form: PsiForm, region: Region, theta: float, m: float) -> float:
    return float(_margin_grid(form, region, np.array([theta]), np.array([m]))[0, 0])


def _golden_min(f, lo: float, hi: float, iters: int = 48):
    """Golden-section minimum of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def min_over_t(form: PsiForm, triple, region: Region) -> TMinimum:
    """Exact minimizer of |psi(r, s, t) - center| over the admissible t half-plane.

    psi is affine in t with a real positive coefficient, so the admissible
    image is a half-plane and the minimum is the projection of the disk
    center onto it, as computed by :func:`second_order_min_distance`.
    """
    if form.order != 2:
        raise ArityError("t-minimization applies to second-order forms only")
    if not isinstance(region, Disk):
        raise ConfigurationError("t-minimization needs a disk target")
    dist, base, _, e3 = second_order_min_distance(
        form, region.center, np.array([triple.theta]), np.array([triple.m]))
    kappa = float(dist[0, 0])
    # the nearest image point is center + kappa e^{3i theta} (the center itself if kappa = 0)
    t_star = (region.center + kappa * e3[0, 0] - base[0, 0]) / float(form.t_coefficient)
    return TMinimum(t_star=complex(t_star), objective=kappa)


def _polish(form, region, theta, m, i, j):
    """Local golden-section refinement of the grid minimizer (theta, then m, then theta)."""
    th_star, m_star = float(theta[i]), float(m[j])
    lo_t = float(theta[max(i - 1, 0)])
    hi_t = float(theta[min(i + 1, len(theta) - 1)])
    th_star, val = _golden_min(lambda x: _margin_at(form, region, x, m_star), lo_t, hi_t)
    lo_m = float(m[max(j - 1, 0)])
    hi_m = float(m[min(j + 1, len(m) - 1)])
    m_star, val = _golden_min(lambda x: _margin_at(form, region, th_star, x), lo_m, hi_m)
    th_star, val = _golden_min(lambda x: _margin_at(form, region, x, m_star), lo_t, hi_t)
    return th_star, m_star, val


def check_admissible(form: PsiForm, region: Region, grid: GridSpec = GridSpec(),
                     n_class: int = 1) -> Verdict:
    """Scan the boundary jet; accept iff psi never lands strictly inside the region.

    A ``False`` verdict carries a concrete witness whose interiority can be
    re-confirmed independently through :func:`min_over_t` /
    :func:`lemniscate.catalog.evaluate`.
    """
    _require_pairing(form, region)
    theta = grid.theta_grid()
    m = grid.m_grid(n_class)
    margins = _margin_grid(form, region, theta, m)
    i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    grid_min = float(margins[i, j])
    th_star, m_star, polished = _polish(form, region, theta, m, i, j)
    if polished > grid_min:  # polish never worsens the bound
        th_star, m_star, polished = float(theta[i]), float(m[j]), grid_min
    admissible = polished >= -grid.eps_adm
    witness = None
    if not admissible:
        triple = make_triple(th_star, m_star)
        if form.order == 2:
            tm = min_over_t(form, triple, region)
            psi = complex(form.value(triple.r, triple.s, tm.t_star))
            witness = Witness(th_star, m_star, tm.t_star, psi, polished)
        else:
            psi = complex(form.value(triple.r, triple.s))
            witness = Witness(th_star, m_star, None, psi, polished)
    return Verdict(admissible=admissible, witness=witness, min_objective_seen=polished)


def scan_profile(form: PsiForm, region: Region, grid: GridSpec = GridSpec(),
                 n_class: int = 1) -> Profile:
    """Per-theta profile of the objective, minimized over m (and t, exactly).

    Evidence gatherer for where the objective minimum sits; the claim behind
    each tabulated constant is that it sits on the center line theta = 0.
    """
    _require_pairing(form, region)
    theta = grid.theta_grid()
    m = grid.m_grid(n_class)
    margins = _margin_grid(form, region, theta, m)
    return Profile(theta=theta, objective=margins.min(axis=1))

