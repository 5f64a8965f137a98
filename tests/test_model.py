import numpy as np
import pytest

from smfv.model import build_system, is_simplex_point, mat_A, mat_Abar, mat_B


class TestBuildSystem:
    def test_coefficients_1d(self, coeffs_1d):
        system = build_system(coeffs_1d)
        assert system.c_star == pytest.approx(0.1, rel=1e-15)
        assert system.c_bar_max == pytest.approx(0.9, rel=1e-15)
        assert system.alpha == pytest.approx(4.0 / 1.9, rel=1e-15)

    def test_two_species(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        assert system.c_star == 1.0
        assert system.c_bar_max == 0.0
        assert system.alpha == 4.0

    def test_coefficients_2d(self, coeffs_2d):
        system = build_system(coeffs_2d)
        assert system.c_star == pytest.approx(0.1, rel=1e-15)
        assert system.c_bar_max == pytest.approx(1.9, rel=1e-15)
        assert system.alpha == pytest.approx(4.0 / 3.9, rel=1e-15)

    def test_cbar_has_zero_minimum(self, system_1d):
        off = ~np.eye(system_1d.n, dtype=bool)
        assert np.all(system_1d.c_bar[off] >= 0.0)
        assert system_1d.c_bar[off].min() == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            build_system([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonpositive_offdiagonal(self):
        with pytest.raises(ValueError, match="positive"):
            build_system([[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_system([[1.0, 1.0], [1.0, 0.0]])

    def test_rejects_single_species(self):
        with pytest.raises(ValueError):
            build_system([[0.0]])


class TestMatA:
    def test_two_species_half(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        a = mat_A(system, np.array([0.5, 0.5]))
        assert a == pytest.approx(np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_zero_composition(self, system_1d):
        assert mat_A(system_1d, np.zeros(3)) == pytest.approx(np.zeros((3, 3)))

    def test_columns_sum_to_zero(self, system_1d):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(0.0, 1.0, size=3)
            w = rng.uniform(-1.0, 1.0, size=3)
            a = mat_A(system_1d, v)
            assert abs(float(np.ones(3) @ (a @ w))) < 1e-14

    def test_kernel_contains_v(self, system_1d):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.uniform(0.05, 1.0, size=3)
            assert mat_A(system_1d, v) @ v == pytest.approx(np.zeros(3), abs=1e-14)


class TestMatAbar:
    def test_vanishes_for_two_species(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        assert mat_Abar(system, np.array([0.3, 0.7])) == pytest.approx(np.zeros((2, 2)))

    def test_kernel_contains_v(self, system_1d):
        v = np.array([1.0, 1.0, 1.0]) / 3.0
        assert mat_Abar(system_1d, v) @ v == pytest.approx(np.zeros(3), abs=1e-15)


class TestMatB:
    def test_reduces_to_inverse_diagonal(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])  # cbar = 0
        b = mat_B(system, np.array([0.5, 0.25]))
        assert b == pytest.approx(np.diag([2.0, 4.0]))

    def test_rejects_nonpositive(self, system_1d):
        with pytest.raises(ValueError):
            mat_B(system_1d, np.array([0.5, 0.0, 0.5]))

    def test_est_bound_fails_on_unit_box_corner(self):
        # the resistance bounds need sum_{j != i} v_j <= 1, which holds for
        # componentwise log means of simplex points (the flux-solve inputs,
        # which smfv.checks samples) but not on the whole unit box: with cbar
        # pattern (0, a, a), v = (1, 1, 1) and xi = (1, 1, -1) the quadratic
        # form gives 8a > 6a
        system = build_system([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        v = np.ones(3)
        x = (2.0 * system.c_bar_max * np.diag(1.0 / v)
             - mat_Abar(system, v) / v[:, None])
        assert np.linalg.eigvalsh(0.5 * (x + x.T)).min() < -1e-3


def test_is_simplex_point():
    assert is_simplex_point(np.array([0.2, 0.3, 0.5]))
    assert not is_simplex_point(np.array([0.2, 0.3, 0.4]))
    assert not is_simplex_point(np.array([-0.1, 0.6, 0.5]))
    assert is_simplex_point(np.array([0.0, 1.0]))


def test_is_simplex_point_tests_every_column():
    members = np.array([[0.2, 0.0, 1.0 + 1e-13], [0.3, 1.0, -1e-13], [0.5, 0.0, 0.0]])
    assert is_simplex_point(members)
    negative = members.copy()
    negative[:, 1] = [-2e-12, 1.0 + 2e-12, 0.0]
    assert not is_simplex_point(negative)
    off_sum = members.copy()
    off_sum[2, 0] += 2e-12
    assert not is_simplex_point(off_sum)
