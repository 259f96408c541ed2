"""Complex-plane target regions and the lemniscate boundary parametrization.

The central curve is the right loop of the lemniscate of Bernoulli,
|w^2 - 1| = 1 with Re w > 0, traced by

    w(theta) = sqrt(2 cos 2*theta) * e^{i*theta},   -pi/4 < theta < pi/4.

Everything here is exact and strict: membership uses `<`, margins are signed
defects, and no interiority tolerance is applied.  Tolerance policy belongs to
the admissibility scanner, which owns the single epsilon used to classify
near-boundary values.

All functions accept scalars or numpy arrays and broadcast elementwise; the
only stateful thing in this module is nothing at all, so concurrent use is
unrestricted.

Each region also names, through ``ray_extrema(a, c)``, where its margin along
rays w = a + m c (c of shape (K,), a of that shape or a scalar) can take its
least value over real m: a (K, j) array of m, at which the admissibility scan
evaluates the margin instead of sampling m (counting those past the rays'
start), and the margin's limit as m -> +inf.
They are written through the parameter points m_p = (p - a)/c, the m at
which the line passes through the point p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUARTER_PI = np.pi / 4.0


class DomainError(ValueError):
    """A parameter left its admissible range (e.g. |theta| >= pi/4)."""


class PoleError(ValueError):
    """Evaluation requested at a pole of the defining map (e.g. w = -1)."""


def check_theta(theta) -> None:
    """Raise DomainError unless every |theta| < pi/4, the open arc of the loop (NaN is not)."""
    if not np.all(np.abs(np.asarray(theta, dtype=np.float64)) < QUARTER_PI):
        raise DomainError("theta must satisfy |theta| < pi/4")


def lemniscate_boundary(theta):
    """Boundary point sqrt(2 cos 2*theta) e^{i*theta} of the right loop.

    Raises DomainError unless |theta| < pi/4 (the loop closes at the origin
    node as theta -> +-pi/4).
    """
    th = np.asarray(theta, dtype=np.float64)
    check_theta(th)
    w = np.sqrt(2.0 * np.cos(2.0 * th)) * np.exp(1j * th)
    return complex(w) if np.isscalar(theta) else w


def _through_units(a, c):
    """Re and |.|^2 of m_+- = (+-1 - a)/c, where the line a + m c passes through +-1.

    Both are first divided by the power of two that brings the larger to
    [1/2, 1), so that the squares cannot overflow; the exponent e that undoes
    the division comes last.
    """
    mp, mm = (1.0 - a) / c, (-1.0 - a) / c
    _, e = np.frexp(np.maximum(np.abs(mp), np.abs(mm)))
    mp, mm = mp * np.ldexp(1.0, -e), mm * np.ldexp(1.0, -e)
    return mp.real, mm.real, np.abs(mp) ** 2, np.abs(mm) ** 2, e


_THIRDS = 2.0 * np.pi / 3.0 * np.arange(3)  # the trigonometric form's root offsets


def _real_cubic_roots(b, c, d):
    """Real roots of x^3 + b x^2 + c x + d, stacked on a new last axis of length 3.

    Trigonometric form when there are three, Cardano's (written to avoid
    cancellation) when there is one, which then fills all three places; a NaN
    discriminant takes Cardano's.  Each form is computed only if some row takes
    it.
    """
    p = c - b * b / 3.0
    q = (2.0 * b**3 - 9.0 * b * c) / 27.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    three_rows = disc < 0.0
    some_three = three_rows.any()
    if some_three:
        rad = np.sqrt(np.maximum(-p / 3.0, 0.0))
        phi = np.arccos(np.minimum(np.maximum(-q / (2.0 * rad**3), -1.0), 1.0)) / 3.0
        roots = 2.0 * rad[..., None] * np.cos(phi[..., None] - _THIRDS)
    if not three_rows.all():
        u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
        one = np.where(u == 0.0, 0.0, u - p / (3.0 * u))[..., None]
        roots = np.where(three_rows[..., None], roots, one) if some_three else one.repeat(3, -1)
    return roots - (b / 3.0)[..., None]


class _Region:
    """Membership from the signed margin: inside exactly where it is negative."""

    def contains(self, w):
        return self.margin(w) < 0.0


@dataclass(frozen=True)
class LemniscateDelta(_Region):
    """Open interior of the right lemniscate loop: |w^2-1| < 1 and Re w > 0."""

    @property
    def anchor(self) -> complex:
        return 1.0 + 0.0j

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        # max of the two defining defects: negative iff both inequalities hold;
        # w*w overflows to inf beyond |w| ~ 1e154, and inf is then the exact margin
        with np.errstate(over="ignore"):
            return np.maximum(np.abs(w * w - 1.0) - 1.0, -w.real)

    def ray_extrema(self, a, c):
        """The real roots of the derivative of |m - m_+|^2 |m - m_-|^2, m_+- = (+-1 - a)/c.

        For Re w >= 0, |w^2 - 1| - 1 >= -Re w, because |w - 1||w + 1| >=
        (1 - x)(1 + x) >= 1 - x with x = Re w in [0, 1] (and 1 - x < 0 for
        x > 1).  So the margin is negative only where it equals
        |w^2 - 1| - 1 = |c|^2 |m - m_+||m - m_-| - 1 with Re w > 0,
        and a negative least margin over m >= n sits at m = n or where the
        derivative of that quartic vanishes: the cubic

            2m^3 - 3(x_+ + x_-)m^2 + (|m_+|^2 + |m_-|^2 + 4 x_+ x_-)m
                 - (x_+ |m_-|^2 + x_- |m_+|^2),    x_+- = Re m_+-.

        A positive least margin (where the ray crosses the left loop, say)
        may be missed, which leaves every sign, and so every verdict, exact.
        The margin tends to +inf along the ray.
        """
        xp, xm, qp, qm, e = _through_units(a, c)
        roots = _real_cubic_roots(-1.5 * (xp + xm), 0.5 * (qp + qm + 4.0 * xp * xm),
                                  -0.5 * (xp * qm + xm * qp))
        return np.ldexp(roots, e[..., None]), np.inf

    def describe(self) -> str:
        return "{w : |w^2-1| < 1, Re w > 0}"


@dataclass(frozen=True)
class Disk(_Region):
    """Open disk |w - center| < radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise DomainError("disk radius must be positive")

    @property
    def anchor(self) -> complex:
        return complex(self.center)

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        return np.abs(w - self.center) - self.radius

    def ray_extrema(self, a, c):
        """|a + m c - center| = |c| |m - m_center|, least at m = Re m_center; +inf at infinity."""
        return ((self.center - a) / c).real[..., None], np.inf

    def describe(self) -> str:
        return f"{{w : |w - {self.center:g}| < {self.radius:.9g}}}"


@dataclass(frozen=True)
class HalfPlaneReLess(_Region):
    """Open half-plane Re w < bound."""

    bound: float

    @property
    def anchor(self) -> complex:
        return 0.0 + 0.0j

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        return w.real - self.bound

    def ray_extrema(self, a, c):
        """Re(a + m c) is affine in m: least at the ray's start, or -inf when Re c < 0.

        The -inf is no verdict: the scan's finiteness rule turns it into a
        ConfigurationError.  No catalogued ray reaches it (for ex2, Re c = 1/4).
        """
        return np.empty(np.shape(c) + (0,)), np.where(c.real < 0.0, -np.inf, np.inf)

    def describe(self) -> str:
        return f"{{w : Re w < {self.bound:.9g}}}"


@dataclass(frozen=True)
class MoebiusDisk(_Region):
    """Image of the unit disk under (2+z)/(2-z): |2(w-1)/(w+1)| < 1.

    The defining map has a pole at w = -1; asking for the margin there is an
    error, never a silent NaN.
    """

    @property
    def anchor(self) -> complex:
        return 1.0 + 0.0j

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        if np.any(w == -1.0):
            raise PoleError("margin undefined at the pole w = -1")
        return 2.0 * np.abs(w - 1.0) / np.abs(w + 1.0) - 1.0

    def ray_extrema(self, a, c):
        """The real roots of the derivative of |m - m_+|^2 / |m - m_-|^2, m_+- = (+-1 - a)/c.

        The margin is 2|m - m_+|/|m - m_-| - 1, so its stationary points solve

            (x_+ - x_-)m^2 + (|m_-|^2 - |m_+|^2)m + (x_- |m_+|^2 - x_+ |m_-|^2) = 0,

        x_+- = Re m_+-.  As m -> inf the margin tends to 1, its infimum on
        the rays that approach that limit from above.
        """
        xp, xm, qp, qm, e = _through_units(a, c)
        a2, a1, a0 = xp - xm, qm - qp, xm * qp - xp * qm
        s = -0.5 * (a1 + np.copysign(np.sqrt(a1 * a1 - 4.0 * a2 * a0), a1))
        return np.ldexp(np.stack([s / a2, a0 / s], axis=-1), e[..., None]), 1.0

    def describe(self) -> str:
        return "{w : |2(w-1)/(w+1)| < 1}"


Region = LemniscateDelta | Disk | HalfPlaneReLess | MoebiusDisk

DELTA = LemniscateDelta()
