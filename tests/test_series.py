import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lemniscate.series import (NonInvertibleSeriesError, NormalizationError,
                               TruncatedSeries, p_of_f, sqrt_one_plus_z_series)


def series(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


def longdiv_oracle(num, den, order):
    """Plain long-division reference, independent of the library path."""
    q = []
    num = list(num) + [0.0] * (order + 1 - len(num))
    den = list(den) + [0.0] * (order + 1 - len(den))
    for k in range(order + 1):
        acc = num[k] - sum(q[j] * den[k - j] for j in range(k))
        q.append(acc / den[0])
    return np.array(q, dtype=complex)


class TestArithmetic:
    def test_derivative(self):
        d = series(1, 1, 1).derivative()
        np.testing.assert_allclose(d.coeffs, [1, 2])

    def test_mul(self):
        prod = series(1, 1, 0) * series(1, -1, 0)
        np.testing.assert_allclose(prod.coeffs, [1, 0, -1])

    def test_geometric_by_division(self):
        q = 1 / series(1, -1, 0, 0, 0)
        np.testing.assert_allclose(q.coeffs, np.ones(5))

    def test_division_against_longdiv_oracle(self):
        # the quotient has the lower of the two orders
        rng = np.random.default_rng(2)
        for na, nb in 20 * [(12, 12)] + 5 * [(20, 8), (8, 20)]:
            a = rng.normal(size=na) + 1j * rng.normal(size=na)
            b = rng.normal(size=nb) + 1j * rng.normal(size=nb)
            b[0] = 1.0 + b[0] * 0.1  # invertible
            got = (TruncatedSeries(a) / TruncatedSeries(b)).coeffs
            want = longdiv_oracle(a, b, min(na, nb) - 1)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_mul_div_roundtrip(self):
        # divisors shaped like the functions the toolkit manipulates:
        # dominant constant term, decaying tail, zero-free on the closed disk
        rng = np.random.default_rng(9)
        k = np.arange(1, 33)
        for _ in range(20):
            a = TruncatedSeries(rng.normal(size=33) + 1j * rng.normal(size=33))
            mag = 0.5 / k**2 * rng.uniform(0.0, 1.0, 32)
            b = TruncatedSeries(np.r_[1.0, mag * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))])
            back = (a / b) * b
            assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-12 * np.max(np.abs(a.coeffs))

    def test_zero_constant_term_division(self):
        with pytest.raises(NonInvertibleSeriesError):
            series(1, 1) / series(0, 1)

    def test_mixed_order_truncates_to_smaller(self):
        out = series(1, 1, 1, 1) + series(1, 1)
        assert out.order == 1

    def test_scalars_lift(self):
        out = 2.0 * series(1, 1) + 1.0
        np.testing.assert_allclose(out.coeffs, [3, 2])

    def test_power_zero_is_one_at_same_order(self):
        one = series(0.5, 2, -1, 3) ** 0
        np.testing.assert_array_equal(one.coeffs, [1, 0, 0, 0])

    def test_power_is_repeated_product(self):
        rng = np.random.default_rng(4)
        a = TruncatedSeries(rng.normal(size=10) + 1j * rng.normal(size=10))
        np.testing.assert_array_equal((a**3).coeffs, (a * a * a).coeffs)

    @pytest.mark.parametrize("n", [-1, 0.5, 2.0, 1j])
    def test_power_needs_nonnegative_integer(self, n):
        with pytest.raises(TypeError):
            series(1, 1) ** n

    def test_shift_down_requires_zero_constant(self):
        with pytest.raises(NormalizationError):
            series(1, 1).shift_down()
        np.testing.assert_allclose(series(0, 3, 4).shift_down().coeffs, [3, 4])


class TestPofF:
    def test_identity_map(self):
        p = p_of_f(series(0, 1))
        np.testing.assert_allclose(p.coeffs, [1])

    def test_koebe_like_rational(self):
        # f = z/(1-z) truncated: p = 1/(1-z)
        f = TruncatedSeries(np.r_[0.0, np.ones(20)])
        p = p_of_f(f)
        np.testing.assert_allclose(p.coeffs, np.ones(20), atol=1e-12)

    def test_quadratic_against_longdiv_oracle(self):
        # f = z + z^2/2: p = (1 + z)/(1 + z/2)
        f = TruncatedSeries(np.r_[0.0, 1.0, 0.5, np.zeros(8)])
        p = p_of_f(f)
        expected = longdiv_oracle([1.0, 1.0], [1.0, 0.5], p.order)
        np.testing.assert_allclose(p.coeffs, expected, atol=1e-14)
        np.testing.assert_allclose(p.coeffs[:5], [1, 0.5, -0.25, 0.125, -0.0625])

    def test_constant_term_is_exactly_one(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            c = np.r_[0.0, 1.0, 0.1 * rng.normal(size=14)].astype(complex)
            p = p_of_f(TruncatedSeries(c))
            assert p.coeffs[0] == 1.0
            assert p.order == len(c) - 2

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            p_of_f(series(0.5, 1, 1))
        with pytest.raises(NormalizationError):
            p_of_f(series(0, 2, 1))


class TestSqrtSeries:
    def test_leading_coefficients(self):
        s = sqrt_one_plus_z_series(2)
        np.testing.assert_allclose(s.coeffs, [1, 0.5, -0.125])

    def test_defining_identity(self):
        s = sqrt_one_plus_z_series(64)
        sq = s * s
        target = np.zeros(65, dtype=complex)
        target[0] = target[1] = 1.0
        assert np.max(np.abs(sq.coeffs - target)) <= 1e-12

    def test_coefficients_against_recurrence_oracle(self):
        want = [1.0]
        for k in range(1, 9):
            want.append(want[-1] * (0.5 - k + 1) / k)
        s = sqrt_one_plus_z_series(8)
        np.testing.assert_allclose(s.coeffs, want, rtol=1e-15)
        assert s.coeffs[4] == pytest.approx(-5 / 128)


class TestEvaluation:
    def test_constant(self):
        assert TruncatedSeries.constant(1.0, 6).evaluate(0.3 + 0.4j) == 1.0

    def test_geometric_at_half(self):
        val = TruncatedSeries(np.ones(51)).evaluate(0.5)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_sqrt_series_at_interior_point(self):
        val = sqrt_one_plus_z_series(50).evaluate(0.21)
        assert val == pytest.approx(1.1, abs=1e-10)

    def test_values_on_circle_match_horner(self):
        rng = np.random.default_rng(21)
        s = TruncatedSeries(rng.normal(size=17) + 1j * rng.normal(size=17))
        pts = 64
        fft_vals = s.values_on_circle(0.9, pts)
        z = 0.9 * np.exp(2j * np.pi * np.arange(pts) / pts)
        np.testing.assert_allclose(fft_vals, s.evaluate(z), atol=1e-12)

    def test_small_point_count_falls_back(self):
        s = TruncatedSeries(np.ones(31))
        vals = s.values_on_circle(0.5, 8)
        z = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(vals, s.evaluate(z), atol=1e-13)

    def test_tail_estimate_grades_decay(self):
        assert TruncatedSeries(np.ones(65)).tail_estimate(0.5) < 1e-18
        assert TruncatedSeries(np.ones(65)).tail_estimate(0.999) > 1e-3
        poly = TruncatedSeries(np.r_[np.ones(4), np.zeros(60)])
        assert poly.tail_estimate(0.999) == 0.0


class TestJson:
    def test_roundtrip(self):
        s = series(1, 2 + 3j, -0.5)
        back = TruncatedSeries.from_json(s.to_json())
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    def test_format_is_re_im_pairs(self):
        data = json.loads(series(1, 2 + 3j).to_json())
        assert data == [[1.0, 0.0], [2.0, 3.0]]

    @pytest.mark.parametrize("text", ["[[true, false], [0.125, 0]]", "[[1, 0], [0.5, true]]"])
    def test_booleans_are_not_numbers(self, text):
        with pytest.raises(ValueError, match=r"\[re, im\] pairs of real numbers"):
            TruncatedSeries.from_json(text)


small_coeffs = st.lists(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=9)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_multiplication_commutes(a, b):
    x = TruncatedSeries(np.array(a)) * TruncatedSeries(np.array(b))
    y = TruncatedSeries(np.array(b)) * TruncatedSeries(np.array(a))
    assert x.order == y.order
    np.testing.assert_allclose(x.coeffs, y.coeffs, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_multiplication_distributes(a, b, c):
    n = min(len(a), len(b), len(c)) - 1
    sa, sb, sc = (TruncatedSeries(np.array(v)) for v in (a, b, c))
    lhs = sa * (sb + sc)
    rhs = sa * sb + sa * sc
    assert lhs.order == n
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-8)
