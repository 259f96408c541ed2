import numpy as np
import pytest

from lemniscate.boundary import (THETA_EPS, AdmissibleTriple, curvature_identity,
                                 jet_arrays, make_triple, theta_grid)
from lemniscate.geometry import QUARTER_PI, DomainError, lemniscate_boundary

SQRT2 = np.sqrt(2.0)


class TestMakeTriple:
    def test_center_line(self):
        t = make_triple(0.0, 1.0)
        assert t.r == pytest.approx(SQRT2 + 0j)
        assert t.s == pytest.approx(0.3535533905932738 + 0j)
        assert t.tau_min == pytest.approx(-1 / (8 * SQRT2))

    def test_phase_collapse_at_pi_over_six(self):
        t = make_triple(np.pi / 6, 2.0)
        assert t.r == pytest.approx(np.exp(1j * np.pi / 6), abs=1e-14)
        assert t.s == pytest.approx(1j, abs=1e-14)  # 2 e^{i pi/2} / 2

    def test_tau_at_m_two(self):
        t = make_triple(0.0, 2.0)
        assert t.tau_min == pytest.approx(1 / (2 * SQRT2))

    def test_r_matches_boundary_parametrization(self):
        for theta in (-0.6, -0.1, 0.3, 0.72):
            assert make_triple(theta, 1.5).r == lemniscate_boundary(theta)

    @pytest.mark.parametrize("theta,m", [(np.pi / 4, 1.0), (np.nan, 1.0), (0.0, 0.5),
                                         (0.0, np.nan), (0.9, 2.0)])
    def test_domain_errors(self, theta, m):
        with pytest.raises(DomainError):
            make_triple(theta, m)

    def test_jet_takes_one_m_axis_for_all_theta(self):
        # one m for every theta: each part of the jet is a column
        assert [x.shape for x in jet_arrays(np.zeros(3), 2.0)] == 4 * [(3, 1)]

    def test_m_scaling_exact(self):
        for theta in (-0.5, 0.0, 0.31):
            base = make_triple(theta, 1.0).s
            for m in (1.0, 2.0, 3.5, 7.25):
                assert make_triple(theta, m).s == m * base

    def test_reflection(self):
        for theta in (0.1, 0.45, 0.7):
            for m in (1.0, 2.5):
                plus = make_triple(theta, m)
                minus = make_triple(-theta, m)
                assert minus.r == pytest.approx(np.conj(plus.r), abs=1e-15)
                assert minus.s == pytest.approx(np.conj(plus.s), abs=1e-15)


@pytest.mark.parametrize("points", [2, 3, 10, 41, 2001])
def test_theta_grid_is_mirrored_linspace(points):
    th = theta_grid(points)
    assert np.array_equal(th, -th[::-1])
    # the theta <= 0 half is linspace's, but for the center line set to 0.0
    half = points - points // 2
    expected = np.linspace(-QUARTER_PI + THETA_EPS, QUARTER_PI - THETA_EPS, points)[:half]
    if points % 2:
        expected[-1] = 0.0
    assert np.array_equal(th[:half], expected)


class TestCurvatureIdentity:
    @pytest.mark.parametrize("theta", [0.0, 0.5, -0.3])
    def test_point_values(self, theta):
        assert curvature_identity(theta) == pytest.approx(0.75, abs=1e-12)

    def test_constant_on_random_sample(self):
        rng = np.random.default_rng(17)
        theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6, 1000)
        vals = curvature_identity(theta)
        assert np.max(np.abs(vals - 0.75)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            curvature_identity(np.pi / 4)


class TestTHalfplane:
    """The admissible t are {t : Re(t e^{-3i theta}) >= tau_min}."""

    def test_center_line(self):
        assert make_triple(0.0, 1.0).tau_min == pytest.approx(-1 / (8 * SQRT2))

    def test_zero_offset_at_m_four_thirds(self):
        assert make_triple(0.0, 4.0 / 3.0).tau_min == pytest.approx(0.0, abs=1e-15)

    def test_offset_past_the_float_range_is_inf_without_a_warning(self):
        assert make_triple(0.0, 1e200).tau_min == np.inf

    def test_generic_offset(self):
        tau = make_triple(0.2, 2.0).tau_min
        assert tau == pytest.approx(2 * 2 / (8 * np.sqrt(2 * np.cos(0.4))))

    def test_equivalent_to_ratio_form(self):
        # Re(t/s + 1) >= 3m/4  must be the same set as  Re(t e^{-3i theta}) >= tau_min
        rng = np.random.default_rng(23)
        for _ in range(30):
            theta = rng.uniform(-np.pi / 4 + 1e-3, np.pi / 4 - 1e-3)
            m = rng.uniform(1.0, 6.0)
            triple = make_triple(theta, m)
            direction, offset = np.exp(3j * theta), triple.tau_min
            scale = max(1.0, abs(offset))
            # sample t on both sides of the line, pushed off it by >= 1e-9*scale
            delta = np.concatenate([-(10.0 ** rng.uniform(-9, 2, 17)),
                                    10.0 ** rng.uniform(-9, 2, 17)]) * scale
            sigma = rng.uniform(-20, 20, delta.size)
            t = (offset + delta + 1j * sigma) * direction
            lhs = np.real(t / triple.s + 1.0) >= 0.75 * m
            rhs = np.real(t * np.conj(direction)) >= offset
            assert np.array_equal(lhs, rhs)

    def test_s_has_positive_component_along_direction(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6)
            m = rng.uniform(1.0, 8.0)
            triple = make_triple(theta, m)
            proj = np.real(triple.s * np.exp(-3j * theta))
            assert proj == pytest.approx(m / (2 * np.sqrt(2 * np.cos(2 * theta))))
            assert proj > 0


def test_triple_is_frozen():
    t = make_triple(0.1, 1.0)
    assert isinstance(t, AdmissibleTriple)
    with pytest.raises(AttributeError):
        t.m = 2.0
