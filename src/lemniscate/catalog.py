"""Catalog of differential functionals tested against the lemniscate targets.

Each entry pairs a functional psi(a, b[, c]) of the jet slots

    a = p(z),   b = z p'(z),   c = z^2 p''(z)

with the target region its boundary values must avoid, and with the closed
form of its boundary objective g(theta).  The closed forms are independent
expressions in sec(2*theta) and friends, kept so that direct evaluation of
psi at the boundary jet can be cross-checked against them (the two routes
must agree to roundoff).

Every functional is affine in its last slot, and each form says so by how it
is written.  A first-order form defines psi(a, b) = lead(a) + slope(a, b)
with slope linear in b, so on the boundary jet b = m sigma its image is the
ray lead(r) + m slope(r, sigma), which the admissibility scan reads in closed
form.  A second-order form defines psi(a, b, c) = base(a, b) + t_coefficient*c.
``value`` is the sum in both cases, the one definition of psi that the
scanner and the falsifier's series path both evaluate.

The catalog is a closed enumeration keyed by stable string ids; extending it
is a code change by design, since every entry couples a functional shape, a
target region, an objective kind, and a tabulated constant.

Stable ids
----------
    first0..first4    a + B*b/a^n           vs lemniscate interior
    sq-1..sq2         a^2 + B*b/a^n         vs |w-1| < 1      (n = -1 means a^2 + B*a*b)
    sqrat             a^2 + b/(B*a + G)     vs |w-1| < 1
    one0..one2        1 + B*b/a^n           vs lemniscate interior
    ex1               1 + b                 vs |w-1| < 1/(2 sqrt 2)
    ex2               b/a                   vs Re w < 1/4
    ex3               1 + b/a^2             vs |w-1| < 1/(4 sqrt 2)
    moebius           a^2 + B*a*b           vs |2(w-1)/(w+1)| < 1
    second-sum        b + c                 vs |w| < 3/(8 sqrt 2)
    second-sqsum      a^2 + b + c           vs |w-1| < 1 + 3/(2 sqrt 2)
    second-weighted   G*b + B*c             vs |w| < 1/(8 sqrt 2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry
from .boundary import jet_arrays, tau_min
from .geometry import DELTA, Disk, HalfPlaneReLess, MoebiusDisk

SQRT2 = np.sqrt(2.0)


class ArityError(TypeError):
    """A second-order slot t was missing or supplied where it should not be."""


class UnknownLemmaError(KeyError):
    """Lemma id not present in the catalog."""


class ParameterError(ValueError):
    """Functional parameters outside their validated domain."""


def _as_real_beta(beta, who: str) -> float:
    b = complex(beta)
    if not np.isfinite(b):
        raise ParameterError(f"{who} requires a finite coefficient")
    if b.imag != 0.0:
        raise ParameterError(f"{who} requires a real coefficient")
    if not b.real > 0.0:
        raise ParameterError(f"{who} requires a positive coefficient")
    return b.real


# ---------------------------------------------------------------------------
# functional forms


class _FirstOrder:
    """psi(a, b) = lead(a) + slope(a, b), with slope linear in b.

    Affine in b by construction, which is what the exact m of the
    admissibility scan relies on: along b = m sigma the image is the ray
    lead(r) + m slope(r, sigma).
    """

    order = 1

    def value(self, a, b):
        return self.lead(a) + self.slope(a, b)


class _PowerSlope(_FirstOrder):
    """slope(a, b) = beta * b / a^n, with n = -1 read as beta * a * b."""

    def slope(self, a, b):
        if self.n == -1:
            return self.beta * a * b
        return self.beta * b / a**self.n if self.n else self.beta * b


@dataclass(frozen=True)
class FirstOrderPlus(_PowerSlope):
    """psi(a, b) = a + beta * b / a^n for n in 0..4."""

    n: int
    beta: float

    def __post_init__(self):
        if self.n not in (0, 1, 2, 3, 4):
            raise ParameterError("exponent n must be one of 0..4")
        object.__setattr__(self, "beta", _as_real_beta(self.beta, "a + beta*b/a^n"))

    def lead(self, a):
        return a


@dataclass(frozen=True)
class SquarePlus(_PowerSlope):
    """psi(a, b) = a^2 + beta * b / a^n for n in -1..2 (n = -1 is a^2 + beta*a*b).

    beta may be complex (with Re beta > 0) only in the n = -1 case.
    """

    n: int
    beta: complex

    def __post_init__(self):
        if self.n not in (-1, 0, 1, 2):
            raise ParameterError("exponent n must be one of -1, 0, 1, 2")
        b = complex(self.beta)
        if self.n == -1:
            if not (np.isfinite(b) and b.real > 0.0):
                raise ParameterError("a^2 + beta*a*b requires a finite beta with Re beta > 0")
            object.__setattr__(self, "beta", b)
        else:
            object.__setattr__(self, "beta", _as_real_beta(b, "a^2 + beta*b/a^n"))

    def lead(self, a):
        return a * a


@dataclass(frozen=True)
class SquareRational(_FirstOrder):
    """psi(a, b) = a^2 + b / (beta*a + gamma), beta, gamma > 0."""

    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_real_beta(self.beta, "a^2 + b/(beta*a+gamma)"))
        object.__setattr__(self, "gamma", _as_real_beta(self.gamma, "a^2 + b/(beta*a+gamma)"))

    def lead(self, a):
        return a * a

    def slope(self, a, b):
        return b / (self.beta * a + self.gamma)


@dataclass(frozen=True)
class OnePlus(_PowerSlope):
    """psi(a, b) = 1 + beta * b / a^n for n in 0..2."""

    n: int
    beta: float

    def __post_init__(self):
        if self.n not in (0, 1, 2):
            raise ParameterError("exponent n must be one of 0, 1, 2")
        object.__setattr__(self, "beta", _as_real_beta(self.beta, "1 + beta*b/a^n"))

    def lead(self, a):
        return 1.0


@dataclass(frozen=True)
class DerivOverP(_FirstOrder):
    """psi(a, b) = b / a."""

    def lead(self, a):
        return 0.0

    def slope(self, a, b):
        return b / a


class _SecondOrder:
    """psi(a, b, c) = base(a, b) + t_coefficient * c.

    Affine in the second-order slot by construction, which is what the exact
    t-projection of :func:`second_order_min_distance` relies on.
    """

    order = 2
    t_coefficient = 1.0

    def value(self, a, b, t):
        return self.base(a, b) + self.t_coefficient * t


@dataclass(frozen=True)
class SecondOrderSum(_SecondOrder):
    """psi(a, b, c) = b + c."""

    def base(self, a, b):
        return b


@dataclass(frozen=True)
class SecondOrderSquareSum(_SecondOrder):
    """psi(a, b, c) = a^2 + b + c."""

    def base(self, a, b):
        return a * a + b


@dataclass(frozen=True)
class SecondOrderWeighted(_SecondOrder):
    """psi(a, b, c) = gamma*b + beta*c with gamma, beta > 0."""

    gamma: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _as_real_beta(self.gamma, "gamma*b + beta*c"))
        object.__setattr__(self, "beta", _as_real_beta(self.beta, "gamma*b + beta*c"))

    def base(self, a, b):
        return self.gamma * b

    @property
    def t_coefficient(self):
        return self.beta


PsiForm = (
    FirstOrderPlus | SquarePlus | SquareRational | OnePlus | DerivOverP
    | SecondOrderSum | SecondOrderSquareSum | SecondOrderWeighted
)


def evaluate(form: PsiForm, triple, t: Optional[complex] = None) -> complex:
    """Substitute boundary data (r, s[, t]) into the functional.

    t must be supplied exactly when the form is second order.
    """
    if form.order == 2:
        if t is None:
            raise ArityError("second-order form needs a t value")
        return complex(form.value(triple.r, triple.s, t))
    if t is not None:
        raise ArityError("first-order form takes no t value")
    return complex(form.value(triple.r, triple.s))


def second_order_min_distance(form: PsiForm, center: complex, theta: np.ndarray, m: float):
    """Exact min over admissible t of |psi(r, s, t) - center| at one m on each theta.

    psi is affine in t with a positive real coefficient, so the admissible
    image is a half-plane with inner normal e^{3i*theta} and the minimum is a
    point-to-half-plane projection:

        dist = max(0, coef * tau_min - Re((center - base) e^{-3i*theta})).

    Returns (dist, base, e3), columns of shape (K,1) as in
    :func:`jet_arrays`, so callers can reconstruct the minimizer.
    """
    if form.order != 2:
        raise ArityError("exact t-minimization applies to second-order forms only")
    coef = float(form.t_coefficient)
    if coef <= 0.0:
        raise ParameterError("degenerate t coefficient")
    r, s, e3, root = jet_arrays(theta, m)
    base = form.base(r, s)
    phi = ((center - base) * np.conj(e3)).real
    return np.maximum(0.0, coef * tau_min(m, root) - phi), base, e3


# ---------------------------------------------------------------------------
# closed-form boundary objectives
#
# Every function below takes broadcastable (theta, m) plus the coefficients
# and returns the lemma's objective: |psi^2-1|^2 against the lemniscate,
# |psi-1|^2 against unit-shifted disks, the squared Moebius ratio, Re psi for
# the half-plane entry, or the exact minimal distance for second-order forms.


def _sec(theta):
    return 1.0 / np.cos(2.0 * np.asarray(theta, dtype=np.float64))


def _g_first0(theta, m, beta, gamma=None):
    u = beta * np.asarray(m, dtype=np.float64)
    return 1.0 + 2.0 * u + 1.25 * u**2 + 0.25 * u**3 + u**4 / 64.0 * _sec(theta) ** 2


def _g_first1(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return (
        1.0
        + u**4 / 256.0 * sec**4
        + u**2 / 8.0 * sec**2
        + u**2 / 2.0 * sec
        + u * np.sqrt(sec + 1.0)
        + u**3 / 16.0 * np.sqrt(sec + 1.0) * sec**2
    )


def _g_first2(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return 1.0 + u + 5.0 * u**2 / 16.0 * sec**2 + u**3 / 32.0 * sec**4 + u**4 / 1024.0 * sec**6


def _g_first3(theta, m, beta, gamma=None):
    th = np.asarray(theta, dtype=np.float64)
    sec = _sec(th)
    u = beta * np.asarray(m, dtype=np.float64)
    return (
        1.0
        + u**2 / 32.0 * (4.0 * sec**3 + 2.0 * sec**2 - sec**4)
        + u / SQRT2 * sec**1.5 * np.cos(3.0 * th)
        + u**4 / 4096.0 * sec**8
        + u**3 / (64.0 * SQRT2) * sec**5.5 * np.cos(th)
    )


def _g_first4(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return (
        1.0
        + u * (1.0 - 0.5 * sec**2)
        + u**2 / 64.0 * (sec**4 + 4.0 * sec**2)
        + u**3 / 256.0 * sec**6
        + u**4 / 16384.0 * sec**10
    )


def _g_sq_minus1(theta, m, beta, gamma=None):
    m = np.asarray(m, dtype=np.float64)
    val = np.abs(1.0 + m * complex(beta) / 2.0) ** 2
    return np.broadcast_to(val, np.broadcast(np.asarray(theta), m).shape).copy()


def _g_sq0(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return 1.0 + u**2 / 8.0 * sec + u / 2.0 * np.sqrt(sec + 1.0)


def _g_sq1(theta, m, beta, gamma=None):
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    u = beta * np.asarray(m, dtype=np.float64)
    return 1.0 + u**2 / (16.0 * c**2) + u / 2.0


def _g_sq2(theta, m, beta, gamma=None):
    th = np.asarray(theta, dtype=np.float64)
    c = np.cos(2.0 * th)
    u = beta * np.asarray(m, dtype=np.float64)
    return 1.0 + u**2 / (32.0 * c**3) + u * np.cos(3.0 * th) / (2.0 * SQRT2 * c**1.5)


def _g_sqrat(theta, m, beta, gamma):
    sec = _sec(theta)
    m = np.asarray(m, dtype=np.float64)
    root = np.sqrt(sec + 1.0)
    den = 2.0 * beta**2 + gamma**2 * sec + 2.0 * beta * gamma * root
    return (
        1.0
        + beta**2 * m**2 * sec**2 / (4.0 * den**2)
        + gamma**2 * m**2 * sec**3 / (8.0 * den**2)
        + beta * gamma * m**2 * root * sec**2 / (4.0 * den**2)
        + beta * m / den
        + gamma * m * root * sec / (2.0 * den)
    )


def _g_one0(theta, m, beta, gamma=None):
    th = np.asarray(theta, dtype=np.float64)
    sec = _sec(th)
    u = beta * np.asarray(m, dtype=np.float64)
    return u**4 / 64.0 * sec**2 + u**3 / (4.0 * SQRT2) * sec**1.5 * np.cos(3.0 * th) + u**2 / 2.0 * sec


def _g_one1(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return u**4 / 256.0 * sec**4 + (u**2 / 4.0 + u**3 / 16.0) * sec**2


def _g_one2(theta, m, beta, gamma=None):
    sec = _sec(theta)
    u = beta * np.asarray(m, dtype=np.float64)
    return u**4 / 1024.0 * sec**6 + u**2 / 8.0 * sec**3 + u**3 / 64.0 * sec**4 * np.sqrt(sec + 1.0)


def _g_ex1(theta, m, beta=None, gamma=None):
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    return m**2 / (8.0 * c)


def _g_ex2(theta, m, beta=None, gamma=None):
    m = np.asarray(m, dtype=np.float64)
    return np.broadcast_to(m / 4.0, np.broadcast(np.asarray(theta), m).shape).copy()


def _g_ex3(theta, m, beta=None, gamma=None):
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    return m**2 / (32.0 * c**3)


def _g_moebius(theta, m, beta, gamma=None):
    # denominator written as (v-2)^2 + 8 v cos^2(2 theta), identical to
    # v^2 + 4 + 4 v cos(4 theta) but free of cancellation near v = 2,
    # theta = +-pi/4
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    v = 1.0 + beta * np.asarray(m, dtype=np.float64) / 2.0
    return 4.0 * v**2 / ((v - 2.0) ** 2 + 8.0 * v * c**2)


def _g_second_sum(theta, m, beta=None, gamma=None):
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    return 3.0 * m**2 / (8.0 * np.sqrt(2.0 * c))


def _g_second_sqsum(theta, m, beta=None, gamma=None):
    th = np.asarray(theta, dtype=np.float64)
    c = np.cos(2.0 * th)
    m = np.asarray(m, dtype=np.float64)
    return np.cos(th) + 3.0 * m**2 / (8.0 * np.sqrt(2.0 * c))


def _g_second_weighted(theta, m, beta, gamma):
    c = np.cos(2.0 * np.asarray(theta, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    num = 4.0 * m * (gamma - beta) + 3.0 * beta * m**2
    return np.maximum(0.0, num) / (8.0 * np.sqrt(2.0 * c))


# ---------------------------------------------------------------------------
# lemma table


@dataclass(frozen=True)
class LemmaSpec:
    lemma_id: str
    label: str
    params: str  # 'none' | 'beta' | 'beta-complex' | 'beta-gamma'
    n_class: int
    region: geometry.Region
    form_factory: Callable[..., PsiForm]
    objective: str  # 'lem-sq' | 'disk1-sq' | 'moebius-sq' | 're' | 't-dist'
    closed_g: Callable
    condition: str
    unconditional: bool
    threshold_closed: Optional[float] = None
    threshold_ref: Optional[float] = None
    default_beta: Optional[float] = None
    default_gamma: Optional[float] = None

    @property
    def order(self) -> int:
        return 2 if self.objective == "t-dist" else 1

    def make_form(self, beta=None, gamma=None) -> PsiForm:
        if self.params == "none":
            if beta is not None or gamma is not None:
                raise ParameterError(f"{self.lemma_id} takes no coefficients")
            return self.form_factory()
        if self.params in ("beta", "beta-complex"):
            if beta is None:
                raise ParameterError(f"{self.lemma_id} needs beta")
            if gamma is not None:
                raise ParameterError(f"{self.lemma_id} takes no gamma")
            if self.params == "beta":
                beta = _as_real_beta(beta, self.lemma_id)
            return self.form_factory(beta)
        if beta is None or gamma is None:
            raise ParameterError(f"{self.lemma_id} needs beta and gamma")
        return self.form_factory(beta, gamma)


_ONE_DISK = Disk(1.0 + 0.0j, 1.0)

LEMMAS: dict[str, LemmaSpec] = {}


def _add(spec: LemmaSpec) -> None:
    LEMMAS[spec.lemma_id] = spec


_add(LemmaSpec("first0", "a + B*b", "beta", 1, DELTA,
               lambda b: FirstOrderPlus(0, b), "lem-sq", _g_first0,
               "any B > 0", True, default_beta=1.0))
_add(LemmaSpec("first1", "a + B*b/a", "beta", 1, DELTA,
               lambda b: FirstOrderPlus(1, b), "lem-sq", _g_first1,
               "any B > 0", True, default_beta=1.0))
_add(LemmaSpec("first2", "a + B*b/a^2", "beta", 1, DELTA,
               lambda b: FirstOrderPlus(2, b), "lem-sq", _g_first2,
               "any B > 0", True, default_beta=1.0))
_add(LemmaSpec("first3", "a + B*b/a^3", "beta", 1, DELTA,
               lambda b: FirstOrderPlus(3, b), "lem-sq", _g_first3,
               "B > 1.1874", False, threshold_ref=1.1874, default_beta=1.25))
_add(LemmaSpec("first4", "a + B*b/a^4", "beta", 1, DELTA,
               lambda b: FirstOrderPlus(4, b), "lem-sq", _g_first4,
               "B > 3.58095", False, threshold_ref=3.58095, default_beta=3.7))
_add(LemmaSpec("sq-1", "a^2 + B*a*b", "beta-complex", 1, _ONE_DISK,
               lambda b: SquarePlus(-1, b), "disk1-sq", _g_sq_minus1,
               "any Re B > 0", True, default_beta=1.0))
_add(LemmaSpec("sq0", "a^2 + B*b", "beta", 1, _ONE_DISK,
               lambda b: SquarePlus(0, b), "disk1-sq", _g_sq0,
               "any B > 0", True, default_beta=1.0))
_add(LemmaSpec("sq1", "a^2 + B*b/a", "beta", 1, _ONE_DISK,
               lambda b: SquarePlus(1, b), "disk1-sq", _g_sq1,
               "any B > 0", True, default_beta=1.0))
_add(LemmaSpec("sq2", "a^2 + B*b/a^2", "beta", 1, _ONE_DISK,
               lambda b: SquarePlus(2, b), "disk1-sq", _g_sq2,
               "B > 2*sqrt(2)", False, threshold_closed=2.0 * SQRT2,
               threshold_ref=2.0 * SQRT2, default_beta=3.0))
_add(LemmaSpec("sqrat", "a^2 + b/(B*a + G)", "beta-gamma", 1, _ONE_DISK,
               lambda b, g: SquareRational(b, g), "disk1-sq", _g_sqrat,
               "any B, G > 0", True, default_beta=1.0, default_gamma=1.0))
_add(LemmaSpec("one0", "1 + B*b", "beta", 1, DELTA,
               lambda b: OnePlus(0, b), "lem-sq", _g_one0,
               "B >= 4 - 2*sqrt(2)", False, threshold_closed=4.0 - 2.0 * SQRT2,
               threshold_ref=4.0 - 2.0 * SQRT2, default_beta=1.2))
_add(LemmaSpec("one1", "1 + B*b/a", "beta", 1, DELTA,
               lambda b: OnePlus(1, b), "lem-sq", _g_one1,
               "B >= 4*sqrt(2) - 4", False, threshold_closed=4.0 * SQRT2 - 4.0,
               threshold_ref=4.0 * SQRT2 - 4.0, default_beta=1.7))
_add(LemmaSpec("one2", "1 + B*b/a^2", "beta", 1, DELTA,
               lambda b: OnePlus(2, b), "lem-sq", _g_one2,
               "B >= 8 - 4*sqrt(2)", False, threshold_closed=8.0 - 4.0 * SQRT2,
               threshold_ref=8.0 - 4.0 * SQRT2, default_beta=2.4))
_add(LemmaSpec("ex1", "1 + b", "none", 1, Disk(1.0 + 0.0j, 1.0 / (2.0 * SQRT2)),
               lambda: OnePlus(0, 1.0), "disk1-sq", _g_ex1, "always", True))
_add(LemmaSpec("ex2", "b/a", "none", 1, HalfPlaneReLess(0.25),
               DerivOverP, "re", _g_ex2, "always", True))
_add(LemmaSpec("ex3", "1 + b/a^2", "none", 1, Disk(1.0 + 0.0j, 1.0 / (4.0 * SQRT2)),
               lambda: OnePlus(2, 1.0), "disk1-sq", _g_ex3, "always", True))
_add(LemmaSpec("moebius", "a^2 + B*a*b", "beta", 1, MoebiusDisk(),
               lambda b: SquarePlus(-1, b), "moebius-sq", _g_moebius,
               "B >= 2", False, threshold_closed=2.0, threshold_ref=2.0,
               default_beta=2.0))
_add(LemmaSpec("second-sum", "b + c", "none", 1, Disk(0.0 + 0.0j, 3.0 / (8.0 * SQRT2)),
               SecondOrderSum, "t-dist", _g_second_sum, "always", True))
_add(LemmaSpec("second-sqsum", "a^2 + b + c", "none", 2,
               Disk(1.0 + 0.0j, 1.0 + 3.0 / (2.0 * SQRT2)),
               SecondOrderSquareSum, "t-dist", _g_second_sqsum,
               "always (m >= 2)", True))
_add(LemmaSpec("second-weighted", "G*b + B*c", "beta-gamma", 1,
               Disk(0.0 + 0.0j, 1.0 / (8.0 * SQRT2)),
               lambda b, g: SecondOrderWeighted(gamma=g, beta=b), "t-dist",
               _g_second_weighted, "G >= B > 0 and 4G - B >= 1", False,
               default_beta=0.25, default_gamma=0.5))


def get_lemma(lemma_id: str) -> LemmaSpec:
    try:
        return LEMMAS[lemma_id]
    except KeyError:
        raise UnknownLemmaError(lemma_id) from None


def closed_form_g(lemma_id: str, theta, m, beta=None, gamma=None):
    """The catalogued objective g(theta) for the lemma, evaluated verbatim."""
    return get_lemma(lemma_id).closed_g(theta, m, beta, gamma)


def direct_objective(lemma_id: str, theta, m, beta=None, gamma=None):
    """The lemma's objective recomputed from scratch via psi at the boundary jet.

    This is the oracle route: it never touches the closed forms, only the raw
    substitution of (r, s[, t]) into the functional followed by the
    region-appropriate modulus.
    """
    lemma = get_lemma(lemma_id)
    form = lemma.make_form(beta, gamma)
    theta = np.asarray(theta, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    c = np.cos(2.0 * theta)
    root = np.sqrt(2.0 * c)
    r = root * np.exp(1j * theta)
    e3 = np.exp(3j * theta)
    s = m * e3 / (2.0 * root)
    if lemma.order == 2:
        tau = m * (3.0 * m - 4.0) / (8.0 * root)
        base = form.base(r, s)
        phi = ((lemma.region.center - base) * np.conj(e3)).real
        return np.maximum(0.0, float(form.t_coefficient) * tau - phi)
    psi = form.value(r, s)
    if lemma.objective == "lem-sq":
        return np.abs(psi * psi - 1.0) ** 2
    if lemma.objective == "disk1-sq":
        return np.abs(psi - 1.0) ** 2
    if lemma.objective == "moebius-sq":
        return np.abs(2.0 * (psi - 1.0) / (psi + 1.0)) ** 2
    if lemma.objective == "re":
        return psi.real
    raise UnknownLemmaError(lemma.objective)
