import numpy as np
import pytest
from hypothesis import given, strategies as st

from lemniscate import geometry
from lemniscate.geometry import (DELTA, Disk, DomainError, HalfPlaneReLess,
                                 MoebiusDisk, PoleError, _real_cubic_roots, lemniscate_boundary)

SQRT2 = np.sqrt(2.0)


class TestContains:
    def test_delta_center(self):
        assert DELTA.contains(1 + 0j)

    def test_delta_boundary_point_excluded(self):
        assert not DELTA.contains(SQRT2 + 0j)

    def test_delta_generic_interior_point(self):
        w = 1.2 + 0.3j
        # direct evaluation: |w^2 - 1| = |0.35 + 0.72j| ~ 0.8006 < 1, Re w > 0
        assert abs(w * w - 1) == pytest.approx(0.8006, abs=1e-4)
        assert DELTA.contains(w)

    def test_delta_needs_positive_real_part(self):
        # |w^2 - 1| small but Re w < 0: the left loop is not in the region
        assert not DELTA.contains(-1.0 + 0.1j)

    def test_disk(self):
        assert Disk(1 + 0j, 1 / (2 * SQRT2)).contains(1.0 + 0.3j)
        assert not Disk(1 + 0j, 1 / (2 * SQRT2)).contains(1.0 + 0.4j)

    def test_halfplane(self):
        region = HalfPlaneReLess(0.25)
        assert region.contains(0.2 + 5j)
        assert not region.contains(0.25 + 0j)

    def test_moebius_disk(self):
        region = MoebiusDisk()
        assert region.contains(1 + 0j)
        assert not region.contains(3 + 0j)  # |2*2/4| = 1, boundary

    def test_moebius_pole(self):
        with pytest.raises(PoleError):
            MoebiusDisk().margin(-1 + 0j)


class TestMargin:
    def test_delta_at_anchor(self):
        assert DELTA.margin(1 + 0j) == pytest.approx(-1.0)

    def test_disk_center(self):
        assert Disk(1 + 0j, 1.0).margin(1 + 0j) == pytest.approx(-1.0)

    def test_delta_boundary(self):
        assert DELTA.margin(SQRT2 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_sign_matches_containment(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        for region in (DELTA, Disk(1 + 0j, 0.7), HalfPlaneReLess(0.25), MoebiusDisk()):
            w_ok = w[w != -1.0] if isinstance(region, MoebiusDisk) else w
            mg = region.margin(w_ok)
            inside = region.contains(w_ok)
            assert np.array_equal(mg < 0, inside)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestRealCubicRoots:
    # rows of (b, c, d): three real roots, one, one at u = 0, and a NaN row
    THREE = [(0.0, -1.0, 0.0), (-1.5, 0.3, 0.02), (2.0, -5.0, -6.0)]
    ONE = [(0.0, 1.0, 1.0), (-1.5, 1.75, -0.6), (0.0, 0.0, 0.0)]
    NAN = [(np.nan, 1.0, 0.0)]

    @staticmethod
    def _solve(rows):
        with np.errstate(all="ignore"):  # as in the scan: u = 0 and NaN rows warn
            return _real_cubic_roots(*np.array(rows, dtype=np.float64).T)

    def test_mixed_rows_equal_each_row_solved_alone(self):
        rows = [self.THREE[0], self.ONE[0], self.NAN[0], self.THREE[1], self.ONE[2],
                self.THREE[2], self.ONE[1]]
        mixed = self._solve(rows)
        assert mixed.shape == (len(rows), 3)
        for row, got in zip(rows, mixed):
            assert np.array_equal(_bits(got), _bits(self._solve([row])[0])), row

    def test_roots_solve_the_cubic(self):
        for (b, c, d), x in zip(self.THREE + self.ONE, self._solve(self.THREE + self.ONE)):
            assert np.allclose(((x + b) * x + c) * x + d, 0.0, atol=1e-12)
        assert np.isnan(self._solve(self.NAN)).all()

    def test_uniform_arrays_compute_one_form(self, monkeypatch):
        def never(*args):
            raise AssertionError("the other form was computed")

        with monkeypatch.context() as patch:
            patch.setattr(geometry.np, "cbrt", never)  # Cardano's form
            three = self._solve(self.THREE)
        with monkeypatch.context() as patch:
            patch.setattr(geometry.np, "arccos", never)  # the trigonometric form
            one = self._solve(self.ONE + self.NAN)
        assert three.shape == (3, 3) and one.shape == (4, 3)
        # one real root fills all three places
        assert np.array_equal(_bits(one), _bits(one[:, :1].repeat(3, 1)))


class TestLemniscateBoundary:
    def test_theta_zero(self):
        assert lemniscate_boundary(0.0) == pytest.approx(SQRT2 + 0j)

    def test_theta_pi_over_six(self):
        # 2 cos(pi/3) = 1, so the point is e^{i pi/6}
        w = lemniscate_boundary(np.pi / 6)
        assert w == pytest.approx(np.exp(1j * np.pi / 6), abs=1e-14)

    def test_near_node(self):
        w = lemniscate_boundary(0.7853)
        assert abs(w) == pytest.approx(np.sqrt(2 * np.cos(2 * 0.7853)), rel=1e-12)
        assert abs(w) < 0.02
        assert abs(w * w - 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [np.pi / 4, -np.pi / 4, 1.0])
    def test_domain_error(self, theta):
        with pytest.raises(DomainError):
            lemniscate_boundary(theta)

    def test_defining_identity_on_dense_sample(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6, size=100_000)
        w = lemniscate_boundary(theta)
        assert np.max(np.abs(np.abs(w * w - 1.0) - 1.0)) < 1e-10
        assert np.all(w.real > 0)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_delta_conjugation_symmetry(x, y):
    w = complex(x, y)
    assert DELTA.contains(np.conj(w)) == DELTA.contains(w)


@given(st.floats(-np.pi / 4 + 1e-6, np.pi / 4 - 1e-6))
def test_boundary_point_sits_on_the_boundary(theta):
    # strict containment at an exact boundary point is a roundoff coin flip;
    # the invariant is that the margin vanishes there
    w = lemniscate_boundary(theta)
    assert abs(DELTA.margin(w)) < 1e-12
