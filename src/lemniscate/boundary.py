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

:func:`jet_arrays` is the one builder of (r, s) and checks nothing;
:func:`tau_min` is the one expression for the offset.  theta and m are
checked where they enter the package: :func:`theta_grid` checks its end
points, and :func:`make_triple` checks its (theta, m) with :func:`check_point`.

theta grids come from :func:`theta_grid`, clamped to
[-pi/4 + margin, pi/4 - margin] (default margin THETA_EPS); sec(2*theta)
diverges at the endpoints.  Most catalogued objectives carry a positive
leading term (beta m)^k sec(2*theta)^j with beta m >= beta n > 0, so they tend
to +infinity there uniformly over all m >= n; the rest (sq-1, ex2, moebius)
are continuous in cos(2*theta) up to the endpoints.  How close to the endpoint
the divergence takes hold scales with beta, so the test suite checks, at the
lemmas' default coefficients, that the least margin over all m at half the
clamp distance does not undercut the scan.
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
    """``points`` equispaced theta on [-pi/4 + margin, pi/4 - margin], exactly mirrored.

    The theta <= 0 half is ``np.linspace``'s, and the positive half is its
    negated mirror image, so ``th == -th[::-1]`` holds bit for bit; an odd
    count puts the center line theta = 0 exactly on the grid.  Raises
    DomainError where an end point rounds onto pi/4 (a margin below its ulp).
    """
    check_theta_margin(margin)
    check_theta([-QUARTER_PI + margin, QUARTER_PI - margin])
    th = np.linspace(-QUARTER_PI + margin, QUARTER_PI - margin, points)
    h = points // 2
    if points % 2 == 1:
        th[h] = 0.0
    th[points - h:] = -th[:h][::-1]
    return th


def check_point(theta: float, m: float) -> None:
    """Raise DomainError unless |theta| < pi/4 and m >= 1."""
    check_theta(theta)
    if not m >= 1.0:  # also rejects NaN
        raise DomainError("m must be >= 1")


@dataclass(frozen=True)
class AdmissibleTriple:
    """Boundary data (r, s) plus the t half-plane offset at one (theta, m)."""

    theta: float
    m: float
    r: complex
    s: complex
    tau_min: float


def make_triple(theta: float, m: float) -> AdmissibleTriple:
    """Assemble the admissibility data at (theta, m); m >= 1, |theta| < pi/4."""
    theta, m = float(theta), float(m)
    check_point(theta, m)
    r, s, _, root = jet_arrays(np.array([theta]), m)
    return AdmissibleTriple(theta=theta, m=m, r=complex(r[0, 0]), s=complex(s[0, 0]),
                            tau_min=float(tau_min(m, root)[0, 0]))


def curvature_identity(theta: float) -> float:
    """Re(e^{-2i*theta}/(4 cos 2*theta) + 1/2), identically 3/4 on the arc."""
    check_theta(theta)
    th = np.asarray(theta, dtype=np.float64)
    val = np.real(np.exp(-2j * th) / (4.0 * np.cos(2.0 * th)) + 0.5)
    return float(val) if np.isscalar(theta) else val


# ---------------------------------------------------------------------------
# vectorized builders used by the scanner

def jet_arrays(theta: np.ndarray, m: float):
    """The boundary jet at one m on each theta of a 1-D array.

    Returns (r, s, e3, root), with e3 = e^{3i*theta} and
    root = sqrt(2 cos 2*theta), each a column of shape (K,1), so the psi-forms
    broadcast against them without copies.  Nothing is checked here: theta
    and m are checked where they enter the package (:func:`theta_grid`,
    :func:`check_point`).
    """
    root = np.sqrt(2.0 * np.cos(2.0 * theta))[:, None]
    e3 = np.exp(3j * theta)[:, None]
    return root * np.exp(1j * theta)[:, None], e3 / (2.0 * root) * m, e3, root


def tau_min(m: float, root: np.ndarray) -> np.ndarray:
    """The t half-plane offset m(3m - 4)/(8 root) at each root of :func:`jet_arrays`.

    m is a Python float, so m(3m - 4) rounds to +inf without a warning where
    it exceeds the float range (m above ~1e154), which is the offset's
    correctly rounded value.
    """
    return (m * (3.0 * m - 4.0)) / (8.0 * root)
