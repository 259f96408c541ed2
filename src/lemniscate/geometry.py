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
    """Raise DomainError unless every |theta| < pi/4, the open arc of the loop."""
    if np.any(np.abs(np.asarray(theta, dtype=np.float64)) >= QUARTER_PI):
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


@dataclass(frozen=True)
class LemniscateDelta:
    """Open interior of the right lemniscate loop: |w^2-1| < 1 and Re w > 0."""

    @property
    def anchor(self) -> complex:
        return 1.0 + 0.0j

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        # max of the two defining defects: negative iff both inequalities hold
        return np.maximum(np.abs(w * w - 1.0) - 1.0, -w.real)

    def contains(self, w):
        return self.margin(w) < 0.0

    def describe(self) -> str:
        return "{w : |w^2-1| < 1, Re w > 0}"


@dataclass(frozen=True)
class Disk:
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

    def contains(self, w):
        return self.margin(w) < 0.0

    def describe(self) -> str:
        return f"{{w : |w - {self.center:g}| < {self.radius:.9g}}}"


@dataclass(frozen=True)
class HalfPlaneReLess:
    """Open half-plane Re w < bound."""

    bound: float

    @property
    def anchor(self) -> complex:
        return 0.0 + 0.0j

    def margin(self, w):
        w = np.asarray(w, dtype=np.complex128)
        return w.real - self.bound

    def contains(self, w):
        return self.margin(w) < 0.0

    def describe(self) -> str:
        return f"{{w : Re w < {self.bound:.9g}}}"


@dataclass(frozen=True)
class MoebiusDisk:
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

    def contains(self, w):
        return self.margin(w) < 0.0

    def describe(self) -> str:
        return "{w : |2(w-1)/(w+1)| < 1}"


Region = LemniscateDelta | Disk | HalfPlaneReLess | MoebiusDisk

DELTA = LemniscateDelta()
