"""Subordination checks on concrete functions, by image containment.

sqrt(1+z) is univalent on the disk, so p is subordinate to it exactly when
p(0) = 1 and the image p(D) stays inside the lemniscate interior; the same
containment criterion applies to every catalogued target h(D).  Each image is
probed on one circle |z| = rho near 1, which decides the disk |z| <= rho, with
the truncation order raised until the coefficient tail there is negligible.

The falsification entry point is :func:`verify_implication`: build the lemma's
differential expression for a concrete p by exact series arithmetic (never
finite differences), probe it against the lemma's target, probe p against the
lemniscate, and classify the outcome.  For admissible coefficients the
combination "hypothesis holds, conclusion fails" can never legitimately
occur; reporting it would falsify the machinery, which is the point of the
randomized suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import LemmaSpec, get_lemma
from .geometry import DELTA, Region
from .series import NormalizationError, TruncatedSeries


# samples on the probe circle; the hypothesis series' working order starts at
# START_ORDER and doubles up to MAX_ORDER until its tail on the circle is
# below TAIL_TOL
ANGULAR_POINTS = 4096
TAIL_TOL = 1e-8
START_ORDER = 64
MAX_ORDER = 2048


@dataclass(frozen=True)
class ProbeSpec:
    radius: float = 0.999

    def __post_init__(self):
        if not 0.0 < self.radius < 1.0:  # also rejects NaN
            raise ValueError("the probe radius must lie in (0, 1)")


@dataclass(frozen=True)
class ImageProbe:
    radius: float
    angular_points: int
    max_margin: float
    worst_point: tuple  # (z, w) at the largest margin

    @property
    def contained(self) -> bool:
        return self.max_margin < 0.0


@dataclass(frozen=True)
class ImplicationReport:
    lemma_id: str
    beta: Optional[complex]
    gamma: Optional[float]
    class_ok: bool
    hypothesis_holds: bool
    conclusion_holds: bool
    status: str  # 'confirmed' | 'vacuous' | 'COUNTEREXAMPLE'
    work_order: int
    tail_ok: bool
    hypothesis_probe: ImageProbe
    conclusion_probe: ImageProbe


def image_in_region(p, region: Region, spec: ProbeSpec = ProbeSpec()) -> ImageProbe:
    """Probe the image of the disk |z| <= spec.radius under p against the region.

    p is a TruncatedSeries (treated as an exact polynomial) or any callable
    accepting complex arrays.  p(0) must sit at the region's anchor value.

    Only the circle |z| = rho is sampled; it decides the disk.  Each target
    is simply connected, so a circle image inside it winds around no outside
    point, and by the argument principle p takes no outside value on the
    disk.  Each margin composed with p is subharmonic, so its largest value
    on the disk lies on the circle (maximum principle).  For the Moebius
    target that holds where p != -1; -1 lies outside |w - 5/3| < 4/3, so a
    circle image inside that disk cannot wind around it.
    """
    rho, k = spec.radius, ANGULAR_POINTS
    if isinstance(p, TruncatedSeries):
        at_zero = complex(p.coeffs[0])
        w = p.values_on_circle(rho, k)
    else:
        at_zero = complex(p(np.array(0.0 + 0.0j)))
        w = p(rho * np.exp(2j * np.pi * np.arange(k) / k))
    if abs(at_zero - region.anchor) > 1e-9:
        raise NormalizationError(
            f"p(0) = {at_zero:g} does not match the region anchor {region.anchor:g}")

    margins = np.asarray(region.margin(w))
    idx = int(np.argmax(margins))
    z = rho * np.exp(2j * np.pi * idx / k)
    return ImageProbe(rho, k, float(margins[idx]), (complex(z), complex(w[idx])))


def hypothesis_series(lemma: LemmaSpec | str, p: TruncatedSeries,
                      beta=None, gamma=None) -> TruncatedSeries:
    """The lemma's differential expression psi(p, zp', z^2 p'') as a series."""
    if isinstance(lemma, str):
        lemma = get_lemma(lemma)
    form = lemma.make_form(beta, gamma)
    b = p.derivative().shift_up()                           # z p'
    if form.order == 1:
        return form.value(p, b)
    c = p.derivative().derivative().shift_up().shift_up()   # z^2 p''
    return form.value(p, b, c)


def verify_implication(lemma_id: str, p: TruncatedSeries, beta=None, gamma=None,
                       spec: ProbeSpec = ProbeSpec()) -> ImplicationReport:
    """Probe one hypothesis/conclusion pair on a concrete p with p(0) = 1.

    Statuses: 'confirmed' (both hold), 'vacuous' (hypothesis fails, including
    a p outside the lemma's coefficient class), 'COUNTEREXAMPLE' (hypothesis
    holds, conclusion fails).  p is treated as an exact polynomial with finite
    coefficients (else NormalizationError); the internal working order is
    doubled until the tail of the hypothesis series at the probe radius drops
    below TAIL_TOL.
    """
    lemma = get_lemma(lemma_id)
    if not np.all(np.isfinite(p.coeffs)):
        raise NormalizationError("the coefficients of p must be finite")
    if abs(complex(p.coeffs[0]) - 1.0) > 1e-9:
        raise NormalizationError("p(0) must equal 1")
    low = p.coeffs[1:lemma.n_class]
    class_ok = bool(low.size == 0 or np.max(np.abs(low)) <= 1e-13)

    work = max(START_ORDER, p.order)
    while True:
        hyp = hypothesis_series(lemma, p.pad_to(work), beta, gamma)
        tail = hyp.tail_estimate(spec.radius)
        if tail <= TAIL_TOL or work >= MAX_ORDER:
            break
        work = min(2 * work, MAX_ORDER)
    tail_ok = tail <= TAIL_TOL

    hyp_probe = image_in_region(hyp, lemma.region, spec)
    concl_probe = image_in_region(p, DELTA, spec)
    hypothesis_holds = class_ok and hyp_probe.contained
    conclusion_holds = concl_probe.contained
    if not hypothesis_holds:
        status = "vacuous"
    elif conclusion_holds:
        status = "confirmed"
    else:
        status = "COUNTEREXAMPLE"
    return ImplicationReport(
        lemma_id=lemma_id,
        beta=beta,
        gamma=gamma,
        class_ok=class_ok,
        hypothesis_holds=hypothesis_holds,
        conclusion_holds=conclusion_holds,
        status=status,
        work_order=work,
        tail_ok=tail_ok,
        hypothesis_probe=hyp_probe,
        conclusion_probe=concl_probe,
    )


def sharpness_probe_example2(delta: float) -> float:
    """Re(z p'(z)/p(z)) for p = sqrt(1+z) at z = 1 - delta, exactly z/(2(1+z)).

    Approaches the half-plane bound 1/4 from below as delta -> 0 (defect
    delta/8 + O(delta^2)), which is what makes the bound unimprovable.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    z = 1.0 - delta
    return float(np.real(z / (2.0 * (1.0 + z))))


def random_normalized_p(order: int, seed: int, n_class: int = 1) -> TruncatedSeries:
    """Random polynomial p with p(0) = 1 and |a_k| <= 0.5/k^2.

    The decay keeps images within evaluable range (|p - 1| < 0.5 * pi^2/6)
    and in particular keeps p zero-free on the closed disk.  Coefficients
    below index ``n_class`` are zero, so p lies in the 1 + a_n z^n + ... class.
    """
    rng = np.random.default_rng(seed)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for k in range(max(1, n_class), order + 1):
        mag = 0.5 / k**2 * rng.uniform(0.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c[k] = mag * np.exp(1j * phase)
    return TruncatedSeries(c)


def random_normalized_f(order: int, seed: int) -> TruncatedSeries:
    """Random polynomial f with f(0) = 0, f'(0) = 1 and |a_k| <= 0.5/k^2."""
    rng = np.random.default_rng(seed)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    for k in range(2, order + 1):
        mag = 0.5 / k**2 * rng.uniform(0.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c[k] = mag * np.exp(1j * phase)
    return TruncatedSeries(c)
