"""Truncated Taylor series arithmetic on the unit disk.

A ``TruncatedSeries`` holds coefficients c[0..N] of an analytic function
modulo z^{N+1}.  Arithmetic is exact at that truncation: products use the
Cauchy convolution cut at N, quotients use the standard long-division
recurrence and require an invertible constant term.  Mixed-order operands
are truncated to the smaller order, which is the only consistent semantics
for "known modulo z^{N+1}" data.

The one domain-specific constructor is the logarithmic-derivative transform
``p_of_f``: for f with f(0) = 0 and f'(0) = 1 it returns z f'(z)/f(z), the
quantity whose subordination all the starlikeness statements are about.
"""

from __future__ import annotations

import json

import numpy as np

TAIL_WINDOW = 8  # trailing coefficients the tail estimate fits its decay to


class NonInvertibleSeriesError(ZeroDivisionError):
    """Division by a series whose constant term vanishes."""


class NormalizationError(ValueError):
    """Series does not satisfy the normalization the operation requires."""


class TruncatedSeries:
    """Coefficients of an analytic function modulo z^{order+1}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        c.setflags(write=False)
        self._c = c

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1, dtype=np.complex128))

    # -- basic views ---------------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.6g}" for v in self._c[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value, order: int) -> "TruncatedSeries":
        if isinstance(value, TruncatedSeries):
            return value
        return TruncatedSeries.constant(complex(value), order)

    def _aligned(self, other):
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return self._c[: n + 1], other._c[: n + 1]

    def __add__(self, other):
        a, b = self._aligned(other)
        return TruncatedSeries(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._aligned(other)
        return TruncatedSeries(a - b)

    def __rsub__(self, other):
        a, b = self._aligned(other)
        return TruncatedSeries(b - a)

    def __neg__(self):
        return TruncatedSeries(-self._c)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        prod = np.convolve(self._c[: n + 1], other._c[: n + 1])[: n + 1]
        return TruncatedSeries(prod)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n):
        """Integer power n >= 0, by repeated multiplication."""
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise TypeError("series powers take an integer exponent n >= 0")
        out = self if n else TruncatedSeries.constant(1.0, self.order)
        for _ in range(n - 1):
            out = out * self
        return out

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(1.0 / complex(other))
        n = min(self.order, other.order)
        a, b = self._c, other._c
        b0 = b[0]
        if b0 == 0:
            raise NonInvertibleSeriesError("divisor has zero constant term")
        q = np.zeros(n + 1, dtype=np.complex128)
        q[0] = a[0] / b0
        tail = b[n:0:-1]  # b_n, ..., b_1; its last k entries meet q_0, ..., q_{k-1}
        for k in range(1, n + 1):
            q[k] = (a[k] - q[:k].dot(tail[n - k:])) / b0
        return TruncatedSeries(q)

    def __rtruediv__(self, other):
        return self._coerce(other, self.order) / self

    def scale(self, factor: complex) -> "TruncatedSeries":
        return TruncatedSeries(self._c * complex(factor))

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries.zero(0)
        k = np.arange(1, self.order + 1)
        return TruncatedSeries(self._c[1:] * k)

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z (order grows by one; no information is lost)."""
        return TruncatedSeries(np.concatenate(([0.0 + 0.0j], self._c)))

    def shift_down(self) -> "TruncatedSeries":
        """Divide by z; requires a vanishing constant term."""
        if abs(self._c[0]) > 1e-14 * max(1.0, float(np.abs(self._c).max())):
            raise NormalizationError("cannot divide by z: constant term is nonzero")
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(self._c[1:])

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self._c[: order + 1])

    def pad_to(self, order: int) -> "TruncatedSeries":
        """Zero-extend to a higher order (treats the data as an exact polynomial)."""
        if order <= self.order:
            return self.truncate(order)
        c = np.zeros(order + 1, dtype=np.complex128)
        c[: self._c.size] = self._c
        return TruncatedSeries(c)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial (scalar or array z)."""
        z = np.asarray(z, dtype=np.complex128)
        acc = np.full_like(z, self._c[-1])
        for k in range(self.order - 1, -1, -1):
            acc = acc * z + self._c[k]
        return complex(acc) if acc.ndim == 0 else acc

    def values_on_circle(self, radius: float, points: int) -> np.ndarray:
        """Values at radius * e^{2 pi i k/points}, k = 0..points-1.

        Uses an FFT when the sample count covers the coefficients (the values
        are exactly the inverse DFT of the radius-scaled coefficients), and
        falls back to Horner otherwise.
        """
        scaled = self._c * radius ** np.arange(self._c.size)
        if points >= self._c.size:
            return np.fft.ifft(scaled, n=points) * points
        z = radius * np.exp(2j * np.pi * np.arange(points) / points)
        return self.evaluate(z)

    def tail_estimate(self, radius: float) -> float:
        """Heuristic bound on the dropped tail at |z| = radius.

        Fits a geometric decay to the last ``TAIL_WINDOW`` coefficient magnitudes
        and extrapolates; returns +inf when they are not decaying.  Zero for
        data whose top window vanishes (exact polynomials of lower degree).
        """
        w = min(TAIL_WINDOW, self._c.size - 1)
        if w < 1:
            return 0.0
        mags = np.abs(self._c[-(w + 1):]) * radius ** np.arange(self.order - w, self.order + 1)
        top = float(mags[-1])
        if float(mags.max()) == 0.0:
            return 0.0
        if top == 0.0 or mags[0] == 0.0:
            return float(mags.max())
        q = (top / float(mags[0])) ** (1.0 / w)
        if q >= 1.0:
            return float("inf")
        return top * q / (1.0 - q)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([[float(v.real), float(v.imag)] for v in self._c])

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        pairs = json.loads(text)
        try:
            # complex() takes a JSON true or false as 1 or 0
            if any(isinstance(x, bool) for pair in pairs for x in pair):
                raise TypeError
            coeffs = [complex(re, im) for re, im in pairs]
        except (TypeError, ValueError):
            raise ValueError("expected a JSON list of [re, im] pairs of real numbers") from None
        return cls(np.array(coeffs))


def sqrt_one_plus_z_series(order: int) -> TruncatedSeries:
    """Binomial series of sqrt(1+z): coefficients C(1/2, k)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = c[k - 1] * (0.5 - (k - 1)) / k
    return TruncatedSeries(c)


def p_of_f(f: TruncatedSeries) -> TruncatedSeries:
    """z f'(z)/f(z) for normalized f (f(0) = 0, f'(0) = 1); order drops by one.

    Implemented via f = z u with u(0) = 1:  z f'/f = 1 + z u'/u.
    """
    c = f.coeffs
    scale = max(1.0, float(np.abs(c).max()))
    if abs(c[0]) > 1e-13 * scale or abs(c[1] - 1.0) > 1e-12:
        raise NormalizationError("f must satisfy f(0) = 0 and f'(0) = 1")
    u = f.shift_down()
    return (u + u.derivative().shift_up()) / u
