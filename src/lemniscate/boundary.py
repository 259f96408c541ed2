"""Boundary jet data for the dominant sqrt(1+z).

At a boundary parameter (theta, m) the first- and second-order data of
q(z) = sqrt(1+z) on |zeta| = 1 reduce to

    r       = sqrt(2 cos 2*theta) * e^{i*theta}
    s       = m * e^{3i*theta} / (2 sqrt(2 cos 2*theta))
    zeta    = 2 cos(2*theta) e^{2i*theta} - 1          (|zeta| = 1)

together with a half-plane constraint on the second-order slot t:

    Re(t * e^{-3i*theta}) >= tau_min,
    tau_min = m (3m - 4) / (8 sqrt(2 cos 2*theta)),

which is the same set as {t : Re(t/s + 1) >= 3m/4}.  The curvature quantity
Re(zeta q''/q' + 1) is identically 3/4 on the whole arc.

theta grids come from :func:`theta_grid`, clamped to
[-pi/4 + margin, pi/4 - margin] (default margin THETA_EPS); sec(2*theta)
diverges at the endpoints and drags every catalogued objective to +infinity
with it, so the clamp discards no violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QUARTER_PI, DomainError, check_theta

# default clamp for grid scans; see module docstring
THETA_EPS = 1e-6


class ConfigurationError(ValueError):
    """Scan settings or a form/region pairing that cannot be checked."""


def check_theta_margin(margin: float) -> None:
    if not (0.0 < margin < QUARTER_PI):
        raise ConfigurationError("theta_margin must lie in (0, pi/4)")


def theta_grid(points: int, margin: float = THETA_EPS) -> np.ndarray:
    """``points`` equispaced theta on [-pi/4 + margin, pi/4 - margin].

    An odd count puts the center line theta = 0 exactly on the grid.
    """
    check_theta_margin(margin)
    th = np.linspace(-QUARTER_PI + margin, QUARTER_PI - margin, points)
    if points % 2 == 1:
        th[points // 2] = 0.0
    return th


@dataclass(frozen=True)
class AdmissibleTriple:
    """Boundary data (r, s) plus the t half-plane offset at one (theta, m)."""

    theta: float
    m: float
    r: complex
    s: complex
    tau_min: float
    zeta: complex


@dataclass(frozen=True)
class HalfPlane:
    """The constraint set {t : Re(t * conj(direction)) >= offset}."""

    direction: complex
    offset: float


def make_triple(theta: float, m: float) -> AdmissibleTriple:
    """Assemble the admissibility data at (theta, m); m >= 1, |theta| < pi/4."""
    r, s, tau, _ = jet_arrays(np.array([float(theta)]), np.array([float(m)]))
    zeta = 2.0 * np.cos(2.0 * theta) * np.exp(2j * theta) - 1.0
    return AdmissibleTriple(
        theta=float(theta), m=float(m), r=complex(r[0, 0]), s=complex(s[0, 0]),
        tau_min=float(tau[0, 0]), zeta=complex(zeta),
    )


def curvature_identity(theta: float) -> float:
    """Re(e^{-2i*theta}/(4 cos 2*theta) + 1/2), identically 3/4 on the arc."""
    check_theta(theta)
    th = np.asarray(theta, dtype=np.float64)
    val = np.real(np.exp(-2j * th) / (4.0 * np.cos(2.0 * th)) + 0.5)
    return float(val) if np.isscalar(theta) else val


def t_halfplane(triple: AdmissibleTriple) -> HalfPlane:
    """Half-plane of admissible second-order values t at the triple's (theta, m)."""
    return HalfPlane(direction=np.exp(3j * triple.theta), offset=triple.tau_min)


# ---------------------------------------------------------------------------
# vectorized builders used by the grid scanner

def jet_arrays(theta: np.ndarray, m: np.ndarray):
    """Boundary data on a (theta x m) grid.

    Returns (r, s, tau_min, e3) with shapes (K,1), (K,M), (K,M), (K,1); r and
    e3 are kept as columns so the psi-forms broadcast against s without copies.
    """
    check_theta(theta)
    if np.any(m < 1.0):
        raise DomainError("m must be >= 1")
    c = np.cos(2.0 * theta)
    root = np.sqrt(2.0 * c)
    r = (root * np.exp(1j * theta))[:, None]
    e3 = np.exp(3j * theta)[:, None]
    s = e3 / (2.0 * root)[:, None] * m[None, :]
    tau = (m[None, :] * (3.0 * m[None, :] - 4.0)) / (8.0 * root)[:, None]
    return r, s, tau, e3
