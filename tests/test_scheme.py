import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import smfv.scheme
from _probe import SolverProbe
from smfv.checks import finite_difference_jacobian
from smfv.config import InitialConfig, preset_initial
from smfv.diagnostics import dissipation, entropy
from smfv.mesh import Mesh, disjoint_union, uniform_interval, uniform_rectangle
from smfv.model import build_system
from smfv.scheme import (_SERIES_DF, _SERIES_MAX_U, CHORD_CONTRACTION, NEWTON_TOL,
                         PROJECTION_FLOOR, SUPERLU_SETTINGS, FluxField, NonConvergence,
                         StateField, _edge_fluxes, _edge_inverse, _edge_systems,
                         _log_mean_with_partials, jacobian, log_mean, newton_step, num_time_steps,
                         project_simplex, residual, run)


class TestLogMean:
    def test_zero_branch(self):
        assert log_mean(0.0, 0.5) == 0.0
        assert log_mean(0.5, 0.0) == 0.0
        assert log_mean(-1.0, 0.5) == 0.0

    def test_equal_branch(self):
        assert log_mean(0.4, 0.4) == 0.4

    def test_general_value(self):
        # (1 - e)/(log 1 - log e) = e - 1, evaluated exactly
        assert log_mean(1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-15)

    @given(a=st.floats(min_value=1e-8, max_value=1e3),
           b=st.floats(min_value=1e-8, max_value=1e3))
    @settings(max_examples=300, deadline=None)
    def test_containment(self, a, b):
        lam = log_mean(a, b)
        assert lam >= min(a, b) * (1.0 - 1e-14)
        assert lam <= max(a, b) * (1.0 + 1e-14)

    def test_log_mean_alone_is_that_with_partials(self):
        # one implementation: the log mean alone, of arrays or of scalars, is
        # that of the composition with the partials to the bit, on both
        # branches, at equal arguments and at zeros
        rng = np.random.default_rng(9)
        a = rng.uniform(1e-8, 1.0, size=400)
        b = np.concatenate([a[:100] * (1.0 + 10.0 ** rng.uniform(-16.0, -1.0, size=100)),
                            rng.uniform(1e-8, 1.0, size=100), a[200:300],
                            np.zeros(50), -a[350:]])
        lam = _log_mean_with_partials(a, b)[0]
        assert np.array_equal(smfv.scheme._log_mean_terms(a, b)[0], lam)
        assert np.array_equal(log_mean(a, b), lam)
        assert np.array_equal([log_mean(x, y) for x, y in zip(a.tolist(), b.tolist())], lam)

    def test_partials_at_equal_arguments(self):
        a = np.array([0.3])
        _, da, db = _log_mean_with_partials(a, a.copy())
        assert da[0] == 0.5
        assert db[0] == 0.5

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.05, 1.0, size=50)
        b = rng.uniform(0.05, 1.0, size=50)
        _, da, db = _log_mean_with_partials(a, b)
        h = 1e-7
        fd_a = (log_mean(a + h, b) - log_mean(a - h, b)) / (2 * h)
        fd_b = (log_mean(a, b + h) - log_mean(a, b - h)) / (2 * h)
        assert da == pytest.approx(fd_a, rel=1e-6, abs=1e-8)
        assert db == pytest.approx(fd_b, rel=1e-6, abs=1e-8)

    def test_matches_mpmath_reference(self):
        # relative gaps 0 and 1e-16..1e12 (the projection floor against 1)
        # at magnitudes 1e-12..1, both orders
        gaps = np.concatenate([[0.0], np.logspace(-16, 12, 113)])
        mags = np.logspace(-12, 0, 13)
        a = np.repeat(mags, len(gaps))
        b = a * (1.0 + np.tile(gaps, len(mags)))
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
        lam, da, db = _log_mean_with_partials(a, b)
        worst = [0.0, 0.0]
        with mpmath.workdps(50):
            for i in range(len(a)):
                x, y = mpmath.mpf(a[i]), mpmath.mpf(b[i])
                if x == y:
                    ref = (x, mpmath.mpf(0.5), mpmath.mpf(0.5))
                else:
                    big_l = mpmath.log(x) - mpmath.log(y)
                    ref = ((x - y) / big_l, (big_l - (x - y) / x) / big_l**2,
                           ((x - y) / y - big_l) / big_l**2)
                for k, (got, want) in enumerate(zip((lam[i], da[i], db[i]), ref)):
                    err = float(abs(mpmath.mpf(got) - want) / want)
                    worst[min(k, 1)] = max(worst[min(k, 1)], err)
        assert worst[0] <= 1e-15
        assert worst[1] <= 1e-14

    def test_subnormal_minimum_is_finite(self):
        # outside the normal range the value need not be accurate, but it
        # and its partials stay finite, it stays >= 0, the partials are 0
        # where it is, and nothing raises a floating-point warning
        a = np.array([5e-324, 5e-324, 1e-310, 1e-310, 2e-309, 5e-324])
        b = np.array([1.0, 1e-323, 0.5, 1.1e-310, 1e-300, 5e-324])
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = log_mean(a, b)
            full, da, db = _log_mean_with_partials(a, b)
        assert np.array_equal(full, lam)
        assert np.all(np.isfinite(lam))
        assert np.all(lam >= 0.0)
        assert np.all(np.isfinite(da)) and np.all(np.isfinite(db))
        assert np.all(da[lam == 0.0] == 0.0) and np.all(db[lam == 0.0] == 0.0)
        assert np.count_nonzero(lam == 0.0) >= 4  # the overflow branch is reached


def _both_branch_partials(a, b):
    """The log-mean partials with both branches evaluated on every entry, then masked."""
    with np.errstate(all="ignore"):
        d = a - b
        low = np.minimum(a, b)
        ell = np.log1p(np.abs(d) / low)
        lam = np.where(ell > 0.0, np.abs(d) / ell, np.where(low > 0.0, a, 0.0))
        s = a + b
        f = d / s
        u = f * f
        w = _SERIES_DF[-1] * u + _SERIES_DF[-2]
        for coeff in _SERIES_DF[-3::-1]:
            w = w * u + coeff
        r = lam / s
        w = w * (r * r)
        big_l = np.copysign(ell, d)
        inv_l2 = 1.0 / (big_l * big_l)
        series = u < _SERIES_MAX_U
        da = np.where(series, (u * w + r) - f * w, (big_l - d / a) * inv_l2)
        db = np.where(series, (u * w + r) + f * w, (d / b - big_l) * inv_l2)
    nonzero = lam > 0.0
    return np.where(nonzero, da, 0.0), np.where(nonzero, db, 0.0)


class TestLogMeanPartials:
    """The partials kernel, which evaluates a branch only where some entry takes it."""

    @staticmethod
    def _pairs(kind, rng):
        a = rng.uniform(1e-8, 1.0, size=(3, 40))
        near = a * (1.0 + rng.choice((-1.0, 1.0), size=a.shape)
                    * 10.0 ** rng.uniform(-16.0, -1.5, size=a.shape))
        far = a * 10.0 ** rng.uniform(0.5, 12.0, size=a.shape)
        if kind == "all-series":
            return a, near
        if kind == "no-series":
            return a, far
        if kind == "mixed":
            return a, np.where(rng.random(a.shape) < 0.5, near, far)
        if kind == "zero-branch":
            b = np.where(rng.random(a.shape) < 0.5, near, far)
            b[0, :10], b[1, :10], a[2, :10] = 0.0, -b[1, :10], 0.0
            a[0, 10:20] = b[0, 10:20] = 0.0
            return a, b
        if kind == "subnormal":
            a[:, :6] = [5e-324, 5e-324, 1e-310, 1e-310, 2e-309, 5e-324]
            b = near.copy()
            b[:, :6] = [1.0, 1e-323, 0.5, 1.1e-310, 1e-300, 5e-324]
            return a, b
        return np.zeros((3, 0)), np.zeros((3, 0))

    @pytest.mark.parametrize("kind", ["all-series", "no-series", "mixed", "zero-branch",
                                      "subnormal", "no-edges"])
    def test_bits_of_the_both_branch_formula(self, kind):
        rng = np.random.default_rng(7)
        for a, b in (self._pairs(kind, rng), self._pairs(kind, rng)[::-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                terms = smfv.scheme._log_mean_terms(a, b)
                da, db = smfv.scheme._log_mean_partials(a, b, *terms)
            want_a, want_b = _both_branch_partials(a, b)
            assert da.shape == db.shape == a.shape
            assert np.array_equal(da, want_a) and np.array_equal(db, want_b)
            with np.errstate(invalid="ignore"):
                series = ((a - b) / (a + b)) ** 2 < _SERIES_MAX_U
            if kind == "all-series":
                assert series.all()
            elif kind == "no-series":
                assert not series.any()
            elif kind in ("mixed", "zero-branch"):
                assert series.any() and not series.all()


class TestEdgeFractions:
    """log_mean on composition vectors, the edge compositions u_sigma."""

    def test_equal_states(self):
        u = np.array([0.2, 0.3, 0.5])
        assert log_mean(u, u.copy()) == pytest.approx(u)

    def test_zero_component(self):
        out = log_mean(np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.25, 0.25]))
        assert out[0] == 0.0
        assert np.all(out[1:] > 0.0)

    def test_componentwise_formula(self):
        out = log_mean(np.array([1.0, 0.0, 0.0]), np.array([math.e, 0.0, 0.0]))
        assert out == pytest.approx(np.array([math.e - 1.0, 0.0, 0.0]), rel=1e-15)

    def test_symmetry(self):
        # swapping the arguments gives the same bits, and swaps the partials:
        # near-equal pairs, pairs up to 1e12 apart and zeros
        rng = np.random.default_rng(1)
        a = rng.uniform(0.0, 1.0, size=3000)
        b = np.concatenate([a[:1000] * (1.0 + 10.0 ** rng.uniform(-16.0, -1.0, size=1000)),
                            a[1000:2000] * 10.0 ** rng.uniform(-12.0, 0.0, size=1000),
                            rng.uniform(0.0, 1.0, size=900), np.zeros(100)])
        a[2900:2950] = 0.0
        lam, da, db = _log_mean_with_partials(a, b)
        lam_swapped, da_swapped, db_swapped = _log_mean_with_partials(b, a)
        assert np.array_equal(log_mean(a, b), log_mean(b, a))
        assert np.array_equal(lam, lam_swapped)
        assert np.array_equal(da, db_swapped)
        assert np.array_equal(db, da_swapped)


def _two_cell_flux(system, uk, ul):
    """Flux of the one edge of the two-cell interval, d_sigma = 0.5."""
    mesh = uniform_interval(2)
    return _edge_fluxes(system, mesh, np.column_stack([uk, ul]))[0][:, 0]


class TestEdgeFlux:
    def test_swapped_cells_negate_flux(self, system_2d):
        # orientation: swapping the two cells gives exactly -J, for random,
        # near-equal and far-apart compositions
        rng = np.random.default_rng(4)
        for k in range(2000):
            uk = rng.dirichlet(np.ones(3))
            if k % 2:
                ul = uk * (1.0 + 10.0 ** rng.uniform(-16.0, -1.0, size=3))
            else:
                ul = rng.dirichlet(np.ones(3)) * 10.0 ** rng.uniform(-12.0, 0.0, size=3)
            ul /= ul.sum()
            j = _two_cell_flux(system_2d, uk, ul)
            assert np.array_equal(_two_cell_flux(system_2d, ul, uk), -j)

    def test_zero_jump(self, system_1d):
        u = np.array([0.2, 0.3, 0.5])
        j = _two_cell_flux(system_1d, u, u.copy())
        assert j == pytest.approx(np.zeros(3))

    def test_two_species_diagonal_solve(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])  # cbar = 0
        j = _two_cell_flux(system, np.array([0.45, 0.55]), np.array([0.55, 0.45]))
        assert j == pytest.approx(np.array([-0.2, 0.2]), rel=1e-14)

    def test_zero_species_sum(self, system_1d):
        uk = np.array([0.2, 0.3, 0.5])
        ul = np.array([0.4, 0.1, 0.5])
        j = _two_cell_flux(system_1d, uk, ul)
        assert abs(float(j.sum())) <= 1e-12 * float(np.abs(ul - uk).max()) / 0.5


def _wide_system(rng, n):
    """Random symmetric coefficients spread over six decades."""
    coeffs = np.triu(10.0 ** rng.uniform(-3.0, 3.0, size=(n, n)), 1)
    return build_system(coeffs + coeffs.T)


def _extreme_compositions(rng, n, count):
    """Edge compositions over six decades with exact zeros and 1e-300 entries."""
    lam = 10.0 ** rng.uniform(-6.0, 0.0, size=(n, count))
    lam[rng.random((n, count)) < 0.2] = 0.0
    lam[rng.random((n, count)) < 0.1] = 1e-300
    lam[:, 0], lam[:, 1] = 0.0, 1e-300
    return lam


def _leading_pivots(mats):
    """Pivots of elimination without pivoting, from leading principal minors."""
    stack = mats.transpose(2, 0, 1)
    minors = [np.ones(len(stack))]
    minors += [np.linalg.det(stack[:, :k, :k]) for k in range(1, stack.shape[1] + 1)]
    return np.array([minors[k + 1] / minors[k] for k in range(stack.shape[1])])


def _row_by_row_inverse(mats):
    """Gauss-Jordan elimination with a loop over the pivots and over the other rows."""
    inv = mats.copy()
    n = inv.shape[0]
    for k in range(n):
        row = inv[k]
        inv_pivot = 1.0 / row[k]
        row[k] = 1.0
        row *= inv_pivot
        for i in range(n):
            if i != k:
                factor = inv[i, k].copy()
                inv[i, k] = 0.0
                inv[i] -= factor * row
    return inv


class TestEdgeInverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_row_by_row_elimination(self, n):
        # the sliced updates do, row by row, the loop's arithmetic
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            mats = _edge_systems(_wide_system(rng, n), _extreme_compositions(rng, n, 40))
            work = mats.copy()  # inverted in place
            inv = _edge_inverse(work)
            assert inv is work
            assert np.array_equal(inv, _row_by_row_inverse(mats))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_lapack(self, n):
        # relative 1e-13, widened beyond kappa_1(S) = 100: two backward-stable
        # inverses differ by O(eps kappa), and cbar/c* reaches 1e6 here
        rng = np.random.default_rng(10 + n)
        for _ in range(25):
            mats = _edge_systems(_wide_system(rng, n), _extreme_compositions(rng, n, 40))
            stack = mats.transpose(2, 0, 1)
            ref = np.linalg.solve(stack, np.broadcast_to(np.eye(n), stack.shape))
            inv = _edge_inverse(mats.copy()).transpose(2, 0, 1)
            rel = np.abs(inv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
            assert np.all(rel <= 1e-15 * np.maximum(np.linalg.cond(stack, 1), 100.0))
            backward = np.abs(stack @ inv - np.eye(n)).max(axis=(1, 2))
            assert np.all(backward <= 1e-15 * np.linalg.norm(stack, 1, axis=(1, 2))
                          * np.linalg.norm(inv, np.inf, axis=(1, 2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_pivots_at_least_c_star(self, n):
        # <= 0 off the diagonal with column sums c*: no pivoting is needed
        rng = np.random.default_rng(20 + n)
        for _ in range(25):
            system = _wide_system(rng, n)
            mats = _edge_systems(system, _extreme_compositions(rng, n, 40))
            idx = np.arange(n)
            off = mats.copy()
            off[idx, idx] = 0.0
            assert off.max() <= 0.0
            gap = np.abs(mats.sum(axis=0) - system.c_star)
            assert np.all(gap <= 1e-15 * np.abs(mats).sum(axis=0))
            assert _leading_pivots(mats).min() >= system.c_star * (1.0 - 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pivoting_matches_lapack(self, n):
        # matrices of no sign pattern, half of them with a zero (0, 0)
        # entry, inverted in place on a strided view, as the red blocks are
        rng = np.random.default_rng(50 + n)
        stack = rng.standard_normal((400, n, n))
        if n > 1:
            stack[:200, 0, 0] = 0.0
        ref = np.linalg.inv(stack)
        work = stack.copy()
        inv = _edge_inverse(work.transpose(1, 2, 0), pivoting=True)
        assert np.shares_memory(inv, work)
        rel = np.abs(work - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert np.all(rel <= 1e-15 * np.maximum(np.linalg.cond(stack, 1), 100.0))

    def test_pivoting_keeps_unexchanged_matrices_bit_exact(self):
        # where every pivot is already the largest of its column, pivoting
        # changes no bit: the edge matrices are such
        rng = np.random.default_rng(60)
        mats = _edge_systems(_wide_system(rng, 4), _extreme_compositions(rng, 4, 40))
        assert np.array_equal(_edge_inverse(mats.copy(), pivoting=True),
                              _edge_inverse(mats.copy()))

    @pytest.mark.parametrize("block", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]],
                                       [[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]],
                                       [[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 1.0], [0.0, 1.0]]],
                             ids=["zero", "rank-one", "pivot-eps", "nan", "inf"])
    def test_pivoting_refuses_singular_matrices(self, block):
        # a pivot not above n eps times the matrix's largest entry, here
        # 0, 0, eps and not finite, among regular matrices
        mats = np.tile(np.eye(2)[:, :, None], 5)
        mats[:, :, 3] = block
        with pytest.raises(RuntimeError, match="singular to working precision"):
            _edge_inverse(mats, pivoting=True)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_jacobian_matches_finite_differences(self, n):
        # cbar/c* up to 1e6 amplifies the residual's rounding; the oracle's
        # step, scaled to the contrast, keeps the quotient's error below 1e-6
        rng = np.random.default_rng(30 + n)
        mesh = uniform_rectangle(3, 2)
        for _ in range(3):
            system = _wide_system(rng, n)
            new = StateField(mesh, rng.uniform(0.05, 1.0, size=(n, 6)))
            old = StateField(mesh, rng.dirichlet(np.ones(n), size=6).T)
            analytic = jacobian(system, new, 0.1).toarray()
            fd = finite_difference_jacobian(system, new, old, 0.1)
            assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-5


class TestResidual:
    def test_constant_state_vanishes(self, system_1d):
        mesh = uniform_interval(6)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 6, axis=1)
        state = StateField(mesh, vals)
        r = residual(system_1d, state, state, 0.1)
        assert np.abs(r).max() < 1e-15

    def test_flux_contributions_telescope(self, system_1d):
        rng = np.random.default_rng(2)
        mesh = uniform_interval(9)
        new = StateField(mesh, rng.uniform(0.05, 1.0, size=(3, 9)))
        old = StateField(mesh, rng.dirichlet(np.ones(3), size=9).T)
        dt = 0.05
        r = residual(system_1d, new, old, dt)
        expected = (mesh.cell_measures * (new.values - old.values) / dt).sum()
        assert float(r.sum()) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_scatter_sums_in_edge_order(self, system_2d):
        # per cell: the time term, plus the outgoing fluxes, minus the
        # incoming ones, each in edge order, to the bit
        rng = np.random.default_rng(4)
        mesh = uniform_rectangle(5, 4)
        new = StateField(mesh, rng.dirichlet(np.ones(3), size=mesh.num_cells).T)
        old = StateField(mesh, rng.dirichlet(np.ones(3), size=mesh.num_cells).T)
        dt = 0.05
        weighted = mesh.edge_measure * _edge_fluxes(system_2d, mesh, new.values)[0]
        expected = mesh.cell_measures * (new.values - old.values) / dt
        for i in range(3):
            np.add.at(expected[i], mesh.edge_cell_k, weighted[i])
            np.subtract.at(expected[i], mesh.edge_cell_l, weighted[i])
        assert np.array_equal(residual(system_2d, new, old, dt), expected)
        assert mesh.cell_edge_incidence(3) is mesh.cell_edge_incidence(3)

    def test_two_cell_hand_assembly(self):
        # n = 2 and c12 = 1 makes Abar vanish: J_i = -(u_iL - u_iK)/d
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        mesh = uniform_interval(2)
        new = StateField(mesh, np.array([[0.3, 0.6], [0.7, 0.4]]))
        old = StateField(mesh, np.array([[0.25, 0.75], [0.75, 0.25]]))
        dt = 0.1
        r = residual(system, new, old, dt)
        j1 = -(0.6 - 0.3) / 0.5
        j2 = -(0.4 - 0.7) / 0.5
        expected = np.array([
            [0.5 * (0.3 - 0.25) / dt + j1, 0.5 * (0.6 - 0.75) / dt - j1],
            [0.5 * (0.7 - 0.75) / dt + j2, 0.5 * (0.4 - 0.25) / dt - j2],
        ])
        assert r == pytest.approx(expected, rel=1e-13)

    def test_rejects_foreign_mesh(self, system_1d):
        mesh = uniform_interval(3)
        other = uniform_interval(3)
        state = StateField(mesh, np.full((3, 3), 1.0 / 3.0))
        foreign = StateField(other, np.full((3, 3), 1.0 / 3.0))
        with pytest.raises(ValueError):
            residual(system_1d, state, foreign, 0.1)


class TestJacobian:
    @pytest.mark.parametrize("dt", [0.1, 1e-4])
    @pytest.mark.parametrize("shape", [(6,), (3, 3)], ids=["interval", "rectangle"])
    def test_matches_finite_differences_near_constant(self, system_1d, shape, dt):
        # cell gaps far below the FD step, where the log mean's series applies
        rng = np.random.default_rng(8)
        mesh = (uniform_interval if len(shape) == 1 else uniform_rectangle)(*shape)
        base = np.array([[0.2], [0.3], [0.5]])
        worst = 0.0
        for gap in np.logspace(-6, -12, 7):
            vals = base * (1.0 + gap * rng.uniform(-1.0, 1.0, size=(3, mesh.num_cells)))
            state = StateField(mesh, vals)
            analytic = jacobian(system_1d, state, dt).toarray()
            fd = finite_difference_jacobian(system_1d, state, state, dt)
            worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))
        assert worst < 1e-5

    def test_constant_state_structure(self, system_1d):
        # flux blocks cancel on spatially constant directions, leaving m_K/dt
        mesh = uniform_interval(5)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 5, axis=1)
        state = StateField(mesh, vals)
        dt = 0.1
        jac = jacobian(system_1d, state, dt)
        w = np.array([1.0, -2.0, 0.5])
        x = np.tile(w, 5)
        product = jac @ x
        expected = np.repeat(mesh.cell_measures / dt, 3) * x
        assert product == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_csc_pattern(self):
        # one full n x n block per cell and two per interior edge
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(0.1, 2.0, size=(4, 4))
        coeffs = coeffs + coeffs.T
        np.fill_diagonal(coeffs, 0.0)
        system = build_system(coeffs)
        mesh = uniform_rectangle(3, 4)
        new = StateField(mesh, rng.uniform(0.05, 1.0, size=(4, mesh.num_cells)))
        old = StateField(mesh, rng.dirichlet(np.ones(4), size=mesh.num_cells).T)
        jac = jacobian(system, new, 0.1)
        assert jac.format == "csc"
        assert jac.has_canonical_format
        assert jac.nnz == 16 * (mesh.num_cells + 2 * mesh.num_interior_edges)
        fd = finite_difference_jacobian(system, new, old, 0.1)
        assert np.abs(jac.toarray() - fd).max() / np.abs(fd).max() < 1e-5

    def test_calls_share_no_data(self, system_1d):
        # newton_step refills one matrix per step; the public function must
        # still hand out an independent matrix on every call
        rng = np.random.default_rng(6)
        mesh = uniform_rectangle(3, 3)
        first, second = (StateField(mesh, rng.dirichlet(np.ones(3), size=9).T)
                         for _ in range(2))
        jac_a = jacobian(system_1d, first, 0.1)
        jac_b = jacobian(system_1d, second, 0.1)
        assert not np.shares_memory(jac_a.data, jac_b.data)
        kept = jac_b.toarray()
        jac_a.data[:] = 0.0
        assert np.array_equal(jac_b.toarray(), kept)
        assert np.array_equal(jacobian(system_1d, second, 0.1).toarray(), kept)


def _blocks_2d(mesh):
    blocks = [{"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
              {"species": 0, "box": [0.5, 1.0, 0.5, 1.0]},
              {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]}]
    return preset_initial(InitialConfig("blocks2d", {"blocks": blocks}), mesh, 3)


def _reduced(jac, n):
    """The (n-1)-species reduction of a full Jacobian, on its block pattern.

    Rows i < n and columns dF/du_j - dF/du_n for j < n, with an (n-1) x
    (n-1) block wherever ``jac`` stores an n x n block.
    """
    cells, b = jac.shape[0] // n, n - 1
    full = jac.toarray().reshape(cells, n, cells, n)
    values = (full[:, :b, :, :b] - full[:, :b, :, b:]).reshape(cells * b, cells * b)
    stored = jac.copy()
    stored.data[:] = 1.0
    blocks = stored.toarray().reshape(cells, n, cells, n).any(axis=(1, 3))
    reduced = scipy.sparse.csc_matrix(np.kron(blocks, np.ones((b, b))))
    cols = np.repeat(np.arange(cells * b), np.diff(reduced.indptr))
    reduced.data = values[reduced.indices, cols]
    return reduced


def _condensed(dense, perm, black_size):
    """A dense reduced Jacobian in a non-chain plan's order, split by colour, and S.

    Rows and columns move to the solve's order of ``perm``: the black
    unknowns, ``black_size`` of them, then the red ones.  Returns ``(j_bb,
    j_br, j_rb, j_rr, s)`` with S = J_BB - J_BR J_RR^-1 J_RB.
    """
    order = np.argsort(perm)
    moved = dense[order][:, order]
    m = black_size
    j_bb, j_br, j_rb, j_rr = moved[:m, :m], moved[:m, m:], moved[m:, :m], moved[m:, m:]
    return j_bb, j_br, j_rb, j_rr, j_bb - j_br @ np.linalg.solve(j_rr, j_rb)


def _schur_parts(plan, storage):
    """Views of the red blocks, J_BR and J_RB parts and S's data of a plan's storage."""
    schur = plan.schur
    reds, b, span = schur.shape
    return (storage[schur.blocks].reshape(reds, b, b),
            storage[schur.below].reshape(reds, b, span),
            storage[schur.right].reshape(reds, b, span), storage[:schur.matrix.nnz])


def _triangle():
    """Three cells, each the neighbour of both others: no two colours fit them."""
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.75]])
    k, l = np.array([0, 1, 0]), np.array([1, 2, 2])
    return Mesh(cell_centers=centers, cell_measures=np.full(3, 1.0 / 3.0), edge_cell_k=k,
                edge_cell_l=l, edge_measure=np.ones(3),
                edge_distance=np.linalg.norm(centers[l] - centers[k], axis=1),
                grid_shape=None, cell_lower=centers - 0.25, cell_upper=centers + 0.25)


class TestNewtonLinearSolve:
    def test_fill_reducing_ordering(self, system_2d, monkeypatch):
        # S of the first factor of the paper's blocks test at 35x35: L+U nnz
        # is 77,214 in the plan's minimum-degree order against 89,045 with
        # SuperLU's default COLAMD, and 94,188 for the whole reduced
        # Jacobian in its own minimum-degree order (155,851 with COLAMD)
        mesh = uniform_rectangle(35, 35)
        probe = SolverProbe(monkeypatch, 1e-5)
        plan = smfv.scheme._StepPlan(mesh, 3)
        u0 = _blocks_2d(mesh)
        newton_step(system_2d, u0, 1e-5, _plan=plan)
        schur = plan.schur.matrix.copy()
        schur.data = _schur_parts(plan, probe.factors[0].stored)[3].copy()
        factor = scipy.sparse.linalg.splu(schur, permc_spec="NATURAL", **SUPERLU_SETTINGS)
        colamd = scipy.sparse.linalg.splu(schur)
        whole = scipy.sparse.linalg.splu(_reduced(jacobian(system_2d, u0, 1e-5), 3),
                                         permc_spec="MMD_AT_PLUS_A", **SUPERLU_SETTINGS)
        fill = factor.L.nnz + factor.U.nnz
        assert fill <= 0.9 * (colamd.L.nnz + colamd.U.nnz)
        assert fill <= 0.85 * (whole.L.nnz + whole.U.nnz)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mesh", [uniform_interval(64), uniform_rectangle(12, 10)],
                             ids=["interval", "rectangle"])
    def test_plan_order_is_superlus_minimum_degree(self, mesh, n):
        # the black unknowns of a non-chain run are numbered in the perm_c
        # that SuperLU's symmetric minimum-degree ordering gives the Schur
        # complement on the black cells in their natural order, and S's
        # pattern is that matrix's with rows and columns permuted; the red
        # unknowns follow, cell by cell.  Built directly, so that intervals
        # stay covered
        coeffs = [[0.0, 0.5], [0.5, 0.0]] if n == 2 else [[0.0, 0.1, 0.2],
                                                        [0.1, 0.0, 2.0],
                                                        [0.2, 2.0, 0.0]]
        system = build_system(coeffs)
        rng = np.random.default_rng(n)
        state = StateField(mesh, rng.dirichlet(np.ones(n), size=mesh.num_cells).T)
        dense = _reduced(jacobian(system, state, 1e-3), n).toarray()
        schur = smfv.scheme._RedBlackSchur(mesh, n - 1)
        matrix, (_, _, perm) = schur.matrix, schur.pattern
        red = np.repeat(smfv.scheme._red_cells(mesh), n - 1)
        black, size = np.flatnonzero(~red), matrix.shape[0]
        assert size == len(black)
        assert np.array_equal(perm[red], size + np.arange(np.count_nonzero(red)))
        inverse = np.linalg.inv(dense[red][:, red])
        natural = scipy.sparse.csc_matrix(dense[black][:, black]
                                          - dense[black][:, red] @ inverse @ dense[red][:, black])
        superlu = scipy.sparse.linalg.splu(natural, permc_spec="MMD_AT_PLUS_A")
        assert np.array_equal(perm[black], superlu.perm_c)
        order = np.argsort(perm[black])
        permuted = scipy.sparse.csc_matrix(natural[order][:, order])
        permuted.sort_indices()
        assert np.array_equal(matrix.indptr, permuted.indptr)
        assert np.array_equal(matrix.indices, permuted.indices)

    def test_factors_in_the_plans_order(self, system_2d, monkeypatch):
        # every numeric factor is SuperLU's, with no ordering of its own and
        # the module's panel and supernode settings, of the plan's one Schur
        # complement; its column permutation stays the identity
        original = scipy.sparse.linalg.splu
        calls = []

        def capture(matrix, *args, **kwargs):
            calls.append((matrix, args, kwargs, original(matrix, *args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
        mesh = uniform_rectangle(8, 8)
        plan = smfv.scheme._StepPlan(mesh, 3)
        for _ in range(2):
            _, _, stats = newton_step(system_2d, _blocks_2d(mesh), 1e-5, _plan=plan)
        assert len(calls) == 2 * stats.lu_factors > 2
        for matrix, args, kwargs, factor in calls:
            assert matrix is plan.schur.matrix
            assert args == () and kwargs == {"permc_spec": "NATURAL", **SUPERLU_SETTINGS}
            assert np.array_equal(factor.perm_c, np.arange(matrix.shape[0]))

    def test_superlu_settings_keep_the_defaults_path(self, system_2d, monkeypatch):
        # unit panels without relaxed supernodes change only how SuperLU
        # works: every step takes the solves and factors of SuperLU's
        # default settings and ends within rounding of its state
        mesh = uniform_rectangle(12, 12)
        dt = 1e-5

        def steps():
            out = []
            run(system_2d, _blocks_2d(mesh), dt, 3 * dt,
                sink=lambda t, s, f, stats: out.append((s.values, stats)))
            return out

        shipped = steps()
        for name in ("splu", "spilu"):
            original = getattr(scipy.sparse.linalg, name)

            def defaults(*args, _original=original, **kwargs):
                for key in SUPERLU_SETTINGS:
                    kwargs.pop(key)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.sparse.linalg, name, defaults)
        default = steps()
        assert len(shipped) == len(default) == 3
        for (values, stats), (default_values, default_stats) in zip(shipped, default):
            assert (stats.newton_iterations, stats.lu_factors) == (
                default_stats.newton_iterations, default_stats.lu_factors)
            assert np.abs(values - default_values).max() <= 1e-14

    def test_shared_plan_matches_fresh_plans(self, system_2d, monkeypatch):
        # a run's one plan gives, to the bit, the states and counts of steps
        # that each order and build their pattern afresh, given the previous
        # states as the run gives them.  The blocks data's states lie at the
        # projection floor, so no step leaves its LU to the next: no LU is
        # alive after a step, and every solve of a step is made with a
        # factor of that step
        mesh = uniform_rectangle(8, 8)
        dt = 1e-5
        probe = SolverProbe(monkeypatch, dt)
        shared, made = [], [0]

        def sink(t, s, f, stats):
            assert probe.live == 0
            shared.append((s, stats))
            made.append(len(probe.factors))

        run(system_2d, _blocks_2d(mesh), dt, 3 * dt, sink=sink)
        solves = [factor.solves for factor in probe.factors]
        assert [sum(solves[a:b]) for a, b in zip(made, made[1:])] == [
            stats.newton_iterations for _, stats in shared]
        monkeypatch.undo()
        state, previous = _blocks_2d(mesh), ()
        for shared_state, shared_stats in shared:
            new, _, stats = newton_step(system_2d, state, dt, _previous=previous)
            state, previous = new, (state, *previous)
            assert np.array_equal(state.values, shared_state.values)
            assert stats == shared_stats

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mesh", [
        uniform_interval(1), uniform_interval(9),
        disjoint_union([uniform_interval(3), uniform_interval(1), uniform_interval(6)])[0],
        uniform_rectangle(1, 6), uniform_rectangle(6, 1)],
        ids=["interval-1", "interval-9", "union", "rectangle-1x6", "rectangle-6x1"])
    def test_chain_band_solve_matches_spsolve(self, mesh, n, monkeypatch):
        # a chain's factor is LAPACK's band LU of the natural-order reduced
        # Jacobian, with no SuperLU call, and its solve is that of spsolve
        def no_superlu(*args, **kwargs):
            raise AssertionError("a chain's Jacobian went to SuperLU")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_superlu)
        monkeypatch.setattr(scipy.sparse.linalg, "spilu", no_superlu)
        rng = np.random.default_rng(10 * n + mesh.num_cells)
        coeffs = rng.uniform(0.05, 2.0, (n, n))
        coeffs = np.triu(coeffs, 1) + np.triu(coeffs, 1).T
        system = build_system(coeffs)
        state = StateField(mesh, rng.dirichlet(np.ones(n), size=mesh.num_cells).T)
        dt = 1e-3
        plan = smfv.scheme._StepPlan(mesh, n)
        assert plan.chain
        band, _, perm = plan.pattern
        assert np.array_equal(perm, np.arange(mesh.num_cells * (n - 1)))
        edges = smfv.scheme._edge_fluxes(system, mesh, state.values)
        solve = plan.factor(smfv.scheme._jacobian_matrix(system, mesh, edges, dt,
                                                         plan.pattern))
        natural = _reduced(jacobian(system, state, dt), n)
        for _ in range(2):
            rhs = rng.standard_normal(natural.shape[0])
            reference = scipy.sparse.linalg.spsolve(natural, rhs)
            solution = solve(rhs.copy())
            assert np.abs(solution - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 5), (8, 8)],
                             ids=["2x2", "3x2", "2x5", "8x8"])
    def test_non_chain_meshes_select_superlu(self, shape):
        # any other mesh condenses onto its black cells, which on every
        # component of these grids are one checkerboard colour, the first
        # cell's other one; S is a CSC matrix that views the plan's storage
        grid = uniform_rectangle(*shape)
        parity = (np.arange(grid.num_cells) % shape[0] + np.arange(grid.num_cells) // shape[0]) % 2
        for mesh, red in ((grid, parity == 0),
                          (disjoint_union([uniform_rectangle(1, 4), grid])[0],
                           np.concatenate([np.arange(4) % 2 == 0, parity == 0]))):
            plan = smfv.scheme._StepPlan(mesh, 3)
            assert not plan.chain
            storage, _, perm = plan.pattern
            assert np.array_equal(smfv.scheme._red_cells(mesh), red)
            assert storage.ndim == 1
            assert scipy.sparse.issparse(plan.schur.matrix)
            assert np.shares_memory(plan.schur.matrix.data, storage)
            assert plan.schur.matrix.shape[0] == 2 * np.count_nonzero(~red)
            assert np.array_equal(np.sort(perm), np.arange(2 * mesh.num_cells))

    def test_one_matrix_refilled_per_step(self, system_2d, monkeypatch):
        # every factor refills the plan's one storage with the exact reduced
        # Jacobian of the iterate it was made at, split by colour, and leaves
        # there S, the red blocks' inverses and D^-1 J_RB; the chord solves
        # outnumber the factors
        mesh = uniform_rectangle(6, 5)
        dt = 1e-4
        probe = SolverProbe(monkeypatch, dt)
        plan = smfv.scheme._StepPlan(mesh, 3)
        _, _, stats = newton_step(system_2d, _blocks_2d(mesh), dt, _plan=plan)
        monkeypatch.undo()
        assert len(probe.factors) == stats.lu_factors > 2
        assert stats.lu_factors < stats.newton_iterations
        storage, _, perm = plan.pattern
        matrix, spread = plan.schur.matrix, plan.schur.spread
        size, reds = matrix.shape[0], len(spread)
        assert matrix.format == "csc"
        assert matrix.has_canonical_format
        # recomputed from the arrays, not read from the flag the code set
        assert scipy.sparse.csc_matrix((matrix.data, matrix.indices, matrix.indptr),
                                       shape=matrix.shape).has_canonical_format
        assert matrix.indices.dtype == np.intc
        assert matrix.indptr.dtype == np.intc
        # entry (j, a) of red cell r's J_BR part is J_BR's entry in row
        # spread[r, a], column 2 r + j, and entry (i, a) of its J_RB part
        # J_RB's in row 2 r + i, column spread[r, a]; padding reads zero
        rows = np.minimum(spread, size - 1)[:, :, None]
        cols = 2 * np.arange(reds)[:, None, None] + np.arange(2)
        present = (spread < size)[:, :, None]
        for factor in probe.factors:
            assert factor.matrix is storage
            values = probe.evaluations[factor.evaluation].values
            dense = _reduced(jacobian(system_2d, StateField(mesh, values), dt), 3).toarray()
            j_bb, j_br, j_rb, j_rr, schur = _condensed(dense, perm, size)
            blocks = j_rr.reshape(reds, 2, reds, 2).diagonal(axis1=0, axis2=2).transpose(2, 0, 1)
            assert np.count_nonzero(j_rr) == np.count_nonzero(blocks)
            below = np.where(present, j_br[rows, cols], 0.0).transpose(0, 2, 1)
            right = np.where(present, j_rb.T[rows, cols], 0.0).transpose(0, 2, 1)
            assert np.count_nonzero(below) == np.count_nonzero(j_br)
            assert np.count_nonzero(right) == np.count_nonzero(j_rb)
            inverse = np.linalg.inv(blocks)
            scale = np.abs(dense).max()
            for stored, expected in ((factor.filled, (blocks, below, right, j_bb)),
                                     (factor.stored, (inverse, below, inverse @ right, schur))):
                *parts, data = _schur_parts(plan, stored)
                condensed = matrix.copy()
                condensed.data = data.copy()
                for part, want in zip(parts + [condensed.toarray()], expected):
                    assert np.abs(part - want).max() <= 1e-12 * max(scale, np.abs(want).max())

    @pytest.mark.parametrize("case", ["blocks-8x8", "union", "triangle", "n2", "n4",
                                      "high-contrast"])
    def test_schur_solve_matches_spsolve(self, system_2d, case):
        # a non-chain mesh's solve, red elimination and back-substitution
        # included, is that of spsolve with the reduced Jacobian: the blocks
        # data at its exact zeros, a union with an isolated cell, whose red
        # block has no neighbour, three mutually adjacent cells, with an
        # edge between black cells, b = 1 and b = 3, and coefficients over
        # five decades at dt = 10, where red blocks need row exchanges: a
        # draw whose cbar spans four decades and whose Jacobian's condition
        # (1.9e3) keeps spsolve's own error far below the tolerance
        rng = np.random.default_rng(179 if case == "high-contrast" else len(case))
        n = {"n2": 2, "n4": 4}.get(case, 3)
        mesh = {"blocks-8x8": uniform_rectangle(8, 8), "triangle": _triangle(),
                "union": disjoint_union([uniform_rectangle(3, 4), uniform_rectangle(1, 1),
                                         uniform_rectangle(5, 2)])[0]}.get(
            case, uniform_rectangle(5, 4))
        if case == "blocks-8x8":
            system, dt, values = system_2d, 1e-5, _blocks_2d(mesh).values
        elif case == "high-contrast":
            coeffs = np.triu(10.0 ** rng.uniform(-3.0, 2.0, (n, n)), 1)
            system = build_system(coeffs + coeffs.T)
            dt, values = 10.0, rng.dirichlet(np.ones(n), size=mesh.num_cells).T
        else:
            coeffs = rng.uniform(0.05, 2.0, (n, n))
            system = build_system(np.triu(coeffs, 1) + np.triu(coeffs, 1).T)
            dt, values = 1e-3, rng.dirichlet(np.ones(n), size=mesh.num_cells).T
        plan = smfv.scheme._StepPlan(mesh, n)
        assert not plan.chain
        edges = smfv.scheme._edge_fluxes(system, mesh, values)
        storage = smfv.scheme._jacobian_matrix(system, mesh, edges, dt, plan.pattern)
        natural = _reduced(jacobian(system, StateField(mesh, values), dt), n)
        if case == "high-contrast":
            blocks = storage[plan.schur.blocks].reshape(-1, 2, 2)
            assert np.any(np.abs(blocks[:, 1, 0]) > np.abs(blocks[:, 0, 0]))
            assert np.ptp(np.log10(coeffs[coeffs > 0])) > 4.0
            # the reduction after the sums, as _reduced takes it, moves the
            # entries here by 5e-14 of the largest, and the solution by
            # 3.5e-12: the reference sums the reduced entries, as the fill does
            natural = smfv.scheme._jacobian_matrix(system, mesh, edges, dt,
                                                   smfv.scheme._jacobian_pattern(mesh, n - 1))
            assert np.linalg.cond(natural.toarray(), 1) < 1e4
        solve = plan.factor(storage)
        into, out_of = plan.gathers
        for _ in range(2):
            res = rng.standard_normal((n, mesh.num_cells))
            reference = scipy.sparse.linalg.spsolve(natural, res[:n - 1].T.ravel())
            reference = reference.reshape(mesh.num_cells, n - 1).T
            solution = solve(res.ravel()[into])[out_of]
            assert np.abs(solution - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("bad", ["zero", "nan", "rank-one"])
    def test_singular_red_block_raises(self, system_2d, monkeypatch, bad):
        # a red cell's block singular to working precision ends the step in
        # NonConvergence with that reason, before SuperLU factors S
        factor = smfv.scheme._StepPlan.factor

        def spoiled(plan, matrix):
            block = matrix[plan.schur.blocks][:4].reshape(2, 2)
            if bad == "zero":
                block[...] = 0.0
            elif bad == "nan":
                block[0, 0] = np.nan
            else:
                block[1] = 2.0 * block[0]
            return factor(plan, matrix)

        def no_superlu(*args, **kwargs):
            raise AssertionError("S was factored")

        monkeypatch.setattr(smfv.scheme._StepPlan, "factor", spoiled)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_superlu)
        with pytest.raises(NonConvergence) as info:
            newton_step(system_2d, _blocks_2d(uniform_rectangle(4, 4)), 1e-5)
        assert info.value.reason == "a red cell's diagonal block is singular to working precision"
        assert info.value.iterations == 1


@pytest.mark.parametrize("mesh", [uniform_interval(1), uniform_rectangle(1, 1)],
                         ids=["interval", "rectangle"])
class TestEdgelessMesh:
    def test_jacobian_is_time_derivative(self, system_1d, mesh):
        state = StateField(mesh, np.array([[0.25], [0.25], [0.5]]))
        jac = jacobian(system_1d, state, 0.1)
        expected = np.diag(np.repeat(mesh.cell_measures / 0.1, 3))
        assert np.array_equal(jac.toarray(), expected)

    def test_newton_step_keeps_state(self, system_1d, mesh):
        vals = np.array([[0.25], [0.25], [0.5]])
        state, fluxes, stats = newton_step(system_1d, StateField(mesh, vals), 0.1)
        assert np.array_equal(state.values, vals)
        assert fluxes.values.shape == (3, 0)
        assert stats.newton_iterations == 1

    def test_residual_is_time_term(self, system_1d, mesh):
        u_old = StateField(mesh, np.array([[0.25], [0.25], [0.5]]))
        u_new = StateField(mesh, np.array([[0.5], [0.25], [0.25]]))
        res = residual(system_1d, u_new, u_old, 0.1)
        assert np.array_equal(res, mesh.cell_measures * (u_new.values - u_old.values) / 0.1)

    def test_log_mean_of_no_edges(self, mesh):
        empty = np.zeros((3, mesh.num_interior_edges))
        assert log_mean(empty, empty).shape == (3, 0)
        assert all(out.shape == (3, 0) for out in _log_mean_with_partials(empty, empty))

    def test_diagnostics_vanish(self, system_1d, mesh):
        u_old = StateField(mesh, np.array([[0.25], [0.25], [0.5]]))
        state, fluxes, _ = newton_step(system_1d, u_old, 0.1)
        assert dissipation(system_1d, state, fluxes) == 0.0
        assert fluxes.max_species_sum() == 0.0


class TestProjectSimplex:
    def test_identity_inside(self):
        u = np.array([0.2, 0.3, 0.5])
        assert project_simplex(u) == pytest.approx(u, rel=1e-15)

    def test_negative_component(self):
        out = project_simplex(np.array([-0.01, 0.5, 0.51]))
        expected = np.array([1e-12, 0.5, 0.51]) / (1.01 + 1e-12)
        assert out == pytest.approx(expected, rel=1e-14)
        assert out[0] == pytest.approx(9.90099e-13, rel=1e-5)

    def test_all_floored(self):
        assert project_simplex(np.array([-1.0, -1.0])) == pytest.approx(
            np.array([0.5, 0.5]))

    def test_columnwise(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.5, 1.5, size=(3, 5))
        out = project_simplex(u)
        for c in range(5):
            assert np.array_equal(out[:, c], project_simplex(u[:, c]))

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_lands_in_interior(self, values):
        out = project_simplex(np.array(values))
        assert abs(float(out.sum()) - 1.0) < 1e-12
        assert np.all(out > 0.0)


class TestNewtonSolve:
    def test_constant_state_is_stationary(self, system_1d):
        mesh = uniform_interval(6)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 6, axis=1)
        state = StateField(mesh, vals)
        out, fluxes, stats = newton_step(system_1d, state, 0.1)
        assert stats.newton_iterations <= 2
        assert out.values == pytest.approx(vals, rel=1e-12)
        assert np.abs(fluxes.values).max() < 1e-12

    def test_masses_conserved(self, system_1d):
        mesh = uniform_interval(12)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        state, fluxes, _ = newton_step(system_1d, u0, 1e-3)
        drift = np.abs(state.mass_vector - u0.mass_vector) / u0.mass_vector
        assert drift.max() < 1e-10

    @pytest.mark.parametrize("step", ["newton_step", "run"])
    def test_species_count_must_match_the_system(self, step):
        # a 3-row state under a 4-species system is refused before any edge work
        system = build_system(np.ones((4, 4)) - np.eye(4))
        u0 = preset_initial(InitialConfig("smooth1d"), uniform_interval(4), 3)
        with pytest.raises(ValueError, match=r"^u_old has 3 species, the system 4$"):
            if step == "run":
                run(system, u0, 1e-3, 2e-3)
            else:
                newton_step(system, u0, 1e-3)

    def test_no_batched_lapack_call(self, system_2d, monkeypatch):
        # edge fluxes and Jacobian blocks come from the scheme's own inverse
        def unavailable(*args, **kwargs):
            raise AssertionError("the scheme called numpy.linalg")

        mesh = uniform_rectangle(8, 8)
        u0 = _blocks_2d(mesh)
        monkeypatch.setattr(np.linalg, "solve", unavailable)
        monkeypatch.setattr(np.linalg, "inv", unavailable)
        steps = []
        final = run(system_2d, u0, 1e-5, 3e-5,
                    sink=lambda t, s, f, stats: steps.append(stats.newton_iterations))
        assert len(steps) == 3 and min(steps) >= 2
        assert final.min_fraction() >= PROJECTION_FLOOR

    def test_no_residual_decrease_raises(self, system_1d, monkeypatch):
        def flat_residual(system, mesh, values, old_values, dt):
            edges = smfv.scheme._edge_fluxes(system, mesh, values)
            return np.ones_like(values), edges

        monkeypatch.setattr(smfv.scheme, "_residual_values", flat_residual)
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        with pytest.raises(NonConvergence, match="no residual decrease") as info:
            newton_step(system_1d, u0, 1e-3)
        assert info.value.reason is not None
        assert info.value.iterations == 1

    @pytest.mark.parametrize("n_cells, t_end", [(128, 0.05), (16, 0.006)])
    def test_one_residual_evaluation_per_iteration(self, system_1d, monkeypatch,
                                                   n_cells, t_end):
        # the smooth1d run at N=128 through t = 0.05 (500 steps) and the first
        # grid of the convergence study (60 steps at N=16): one edge pass per
        # residual, and one residual per solve
        probe = SolverProbe(monkeypatch, 1e-4)
        mesh = uniform_interval(n_cells)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        steps = []
        run(system_1d, u0, 1e-4, t_end, sink=lambda t, s, f, stats: steps.append(stats))
        assert len(probe.evaluations) == sum(stats.newton_iterations for stats in steps)
        assert len(probe.evaluations) == sum(stats.residual_evaluations for stats in steps)
        assert max(stats.lu_factors for stats in steps) <= 3

    def test_one_edge_evaluation_per_newton_state(self, system_1d, monkeypatch):
        # one edge pass per residual; the flux of the projected state costs
        # one more, at its first read only
        mesh = uniform_interval(16)
        state = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        plan = smfv.scheme._StepPlan(mesh, 3)
        probe = SolverProbe(monkeypatch, 1e-4)
        for _ in range(5):
            before, factors = len(probe.evaluations), len(probe.factors)
            state, fluxes, stats = newton_step(system_1d, state, 1e-4, _plan=plan)
            evaluations = len(probe.evaluations) - before
            assert evaluations == stats.residual_evaluations > stats.lu_factors >= 1
            assert len(probe.factors) - factors == stats.lu_factors
            assert fluxes.values is fluxes.values
            assert len(probe.evaluations) - before == evaluations + 1

    @pytest.mark.parametrize("mesh, preset, dt, steps", [
        (uniform_interval(16), "nonsmooth1d", 1e-3, 4),
        (uniform_rectangle(6, 5), "blocks2d", 1e-4, 3)], ids=["band", "superlu"])
    def test_step_stats_count_the_work_done(self, system_1d, system_2d, monkeypatch,
                                            mesh, preset, dt, steps):
        # per step, on each LU path: the factors made, the residuals evaluated
        # (every edge pass but the refactors' recomputations, as no flux is
        # read) and the solves made; both runs refactor a kept LU's iterate
        if preset == "blocks2d":
            system, u0 = system_2d, _blocks_2d(mesh)
        else:
            system, u0 = system_1d, preset_initial(InitialConfig(preset), mesh, 3)
        probe = SolverProbe(monkeypatch, dt)
        counted = [(0, 0, 0)]

        def sink(t, state, fluxes, stats):
            done = (len(probe.factors), len(probe.evaluations) - probe.recomputations,
                    probe.solves)
            assert tuple(b - a for a, b in zip(counted[-1], done)) == (
                stats.lu_factors, stats.residual_evaluations, stats.newton_iterations)
            counted.append(done)

        run(system, u0, dt, steps * dt, sink=sink)
        assert len(counted) == steps + 1
        assert probe.recomputations >= 1

    def test_partials_are_those_of_the_factored_state(self, system_2d, monkeypatch):
        # every factor, the refactor of a kept LU's iterate included, is to
        # the bit the Jacobian a fresh edge pass at the most recent evaluated
        # state gives, log-mean terms and partials included: the probe checks
        # each.  One edge pass per evaluated state, and one more for the
        # iterate a kept LU's rejected update recomputes to refactor
        mesh = uniform_rectangle(6, 5)
        probe = SolverProbe(monkeypatch, 1e-4)
        _, _, stats = newton_step(system_2d, _blocks_2d(mesh), 1e-4)
        assert len(probe.factors) == stats.lu_factors > 2
        refactored = [probe.evaluations[f.evaluation].repeated for f in probe.factors]
        assert refactored.count(True) == probe.recomputations == 1
        assert len(probe.evaluations) == stats.residual_evaluations + 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_reduced_solve_satisfies_every_species(self, monkeypatch, n):
        # the LU is (n-1)|T| square, yet the full n-row residual of the
        # returned state vanishes: the eliminated species' too
        rng = np.random.default_rng(n)
        coeffs = rng.uniform(0.1, 2.0, size=(n, n))
        coeffs = coeffs + coeffs.T
        np.fill_diagonal(coeffs, 0.0)
        system = build_system(coeffs)
        mesh = uniform_rectangle(4, 3)
        u_old = StateField(mesh, rng.dirichlet(np.ones(n), size=mesh.num_cells).T)
        dt = 1e-3
        probe = SolverProbe(monkeypatch, dt)
        plan = smfv.scheme._StepPlan(mesh, n)
        state, _, stats = newton_step(system, u_old, dt, _plan=plan)
        assert len(probe.factors) == stats.lu_factors
        assert stats.newton_iterations >= 2
        assert len(plan.gathers[0]) == (n - 1) * mesh.num_cells
        res = residual(system, state, u_old, dt)
        assert np.abs(res).max() <= NEWTON_TOL * (mesh.cell_measures / dt).max()
        drift = np.abs(state.mass_vector - u_old.mass_vector) / u_old.mass_vector
        assert drift.max() < 1e-12

    def test_lu_or_earlier_edge_terms_alive_at_each_edge_evaluation(self, system_2d,
                                                                     monkeypatch):
        # blocks data on 6x5 at dt = 1e-4: the step halves updates and rejects
        # one kept LU's update.  At every edge evaluation at most one of a
        # live LU and the edge terms of another evaluation is alive: a
        # halving drops the LU and the rejected trial, a kept LU's trial runs
        # without its iterate's edge terms, which are recomputed after the
        # rejection
        probe = SolverProbe(monkeypatch, 1e-4)
        _, _, stats = newton_step(system_2d, _blocks_2d(uniform_rectangle(6, 5)), 1e-4)
        assert stats.residual_evaluations > stats.newton_iterations > stats.lu_factors > 2
        alive = [evaluation.alive for evaluation in probe.evaluations]
        assert max(alive) == 1
        assert len(alive) == stats.residual_evaluations + 1

    def test_kept_factor_without_decrease_is_refactored(self, system_1d, monkeypatch):
        # nonsmooth1d on 8 cells at dt = 1e-5: one full update from a kept LU
        # does not lower the residual; it is rejected without halving and the
        # iterate it started from is factored afresh, from its edge terms
        # recomputed once, which is not a residual evaluation
        mesh = uniform_interval(8)
        u_old = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        dt = 1e-5
        probe = SolverProbe(monkeypatch, dt)
        state, _, stats = newton_step(system_1d, u_old, dt)
        monkeypatch.undo()
        evaluated = [evaluation.values for evaluation in probe.evaluations]
        rejected = []  # per factor: other states evaluated since its state's first evaluation
        for factor in probe.factors:
            at = factor.evaluation
            first = next(k for k in range(at + 1)
                         if np.array_equal(evaluated[k], evaluated[at]))
            rejected.append(max(at - first - 1, 0))
        assert rejected.count(1) == 1
        assert all(count <= 1 for count in rejected)
        assert len(probe.factors) == stats.lu_factors < stats.newton_iterations
        assert len(evaluated) == stats.residual_evaluations + 1
        res = residual(system_1d, state, u_old, dt)
        assert np.abs(res).max() <= NEWTON_TOL * (mesh.cell_measures / dt).max()
        assert state.min_fraction() >= PROJECTION_FLOOR

    def test_factor_kept_only_after_contracting_full_update(self, system_2d, monkeypatch):
        # replays the acceptance of every candidate: the LU outlives an
        # accepted update exactly when that update was full (no halving, no
        # rejection since the last factor) and contracted the residual norm
        # by CHORD_CONTRACTION
        mesh = uniform_rectangle(6, 5)
        u_old = _blocks_2d(mesh)
        probe = SolverProbe(monkeypatch, 1e-4)
        newton_step(system_2d, u_old, 1e-4)
        monkeypatch.undo()
        # a recomputed iterate repeats its residual norm, and so counts as a
        # rejection
        norms = [float(np.abs(residual(system_2d, StateField(mesh, e.values), u_old,
                                       1e-4)).max()) for e in probe.evaluations]
        factored_after = {f.evaluation + 1 for f in probe.factors}  # evaluations before it
        current, failed, outcomes = norms[0], False, []
        for count, norm in enumerate(norms[1:], start=1):
            if count in factored_after:
                failed = False
            if not norm < current:
                failed = True  # halved next, or rejected and refactored
                continue
            keep = not failed and norm <= CHORD_CONTRACTION * current
            assert (count + 1 in factored_after) != keep
            outcomes.append((failed, keep))
            current, failed = norm, False
        assert {(False, True), (False, False), (True, False)} <= set(outcomes)

    def test_late_steps_factor_once(self, system_1d):
        # smooth1d at N=64 and dt = 1e-4, the entropy-decay run: from the
        # 4th step on, started from the cubic extrapolation of the last four
        # states, one LU and one solve serve a step; from the linear one,
        # steps took two solves, and from the old state three
        mesh = uniform_interval(64)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        steps = []
        run(system_1d, u0, 1e-4, 0.02, sink=lambda t, s, f, stats: steps.append(stats))
        late = steps[3:]
        assert len(late) == 197
        assert all((stats.newton_iterations, stats.lu_factors) == (1, 1) for stats in late)

    def test_near_equilibrium_steps_take_one_solve(self, system_1d):
        # the entropy-decay run, smooth1d at N=64 and dt = 1e-4, through
        # t = 0.2: from step 4 on the first update from the cubic start,
        # 8.0e-8 and less, changes no volume fraction by more than 8.8e-6
        # relative, so the error it leaves is estimated below NEWTON_TOL
        # before any trial residual.  From step 203 on most steps solve for
        # it with the LU an earlier step ended on, with no Jacobian and no
        # factor; one such update misses its estimate, and its step goes on
        # from the same start and residual with a fresh factor
        mesh = uniform_interval(64)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        steps = []
        run(system_1d, u0, 1e-4, 0.2, sink=lambda t, s, f, stats: steps.append(stats))
        late = [(stats.newton_iterations, stats.lu_factors, stats.residual_evaluations)
                for stats in steps[3:]]
        assert len(late) == 1997
        assert Counter(late) == {(1, 0, 1): 1730, (1, 1, 1): 266, (2, 1, 1): 1}
        assert late.index((1, 0, 1)) + 4 == 203

    def test_carried_lu_steps_are_within_tolerance_of_a_tight_step(self, system_1d,
                                                                   monkeypatch):
        # the entropy-decay run through t = 0.03: every step that ends on a
        # carried LU lies within NEWTON_TOL of the same step, from the same
        # start, iterated to 1e-15 with a fresh plan, which factors
        mesh = uniform_interval(64)
        dt = 1e-4
        states = [preset_initial(InitialConfig("smooth1d"), mesh, 3)]
        carried = []

        def sink(t, state, fluxes, stats):
            states.append(state)
            if stats.lu_factors == 0:
                carried.append(len(states) - 1)

        run(system_1d, states[0], dt, 0.03, sink=sink)
        assert len(carried) > 50
        monkeypatch.setattr(smfv.scheme, "NEWTON_TOL", 1e-15)
        for p in carried:
            previous = tuple(states[p - 2 - j] for j in range(3))
            tight, _, stats = newton_step(system_1d, states[p - 1], dt, _previous=previous)
            assert stats.lu_factors >= 1
            assert np.abs(tight.values - states[p].values).max() <= NEWTON_TOL

    def test_shared_plan_at_another_dt_factors_afresh(self, system_1d):
        # the entropy-decay run's plan carries an LU into step 203 at
        # dt = 1e-4, and drops it for a step at the next double: that step
        # factors, and equals the one a fresh plan takes to the bit.  Two
        # plans take the first 202 steps alike
        mesh = uniform_interval(64)
        dt = 1e-4
        plans = [smfv.scheme._StepPlan(mesh, 3) for _ in range(2)]
        state, previous = preset_initial(InitialConfig("smooth1d"), mesh, 3), ()
        for _ in range(202):
            for plan in plans:
                new, _, _ = newton_step(system_1d, state, dt, _plan=plan, _previous=previous)
            state, previous = new, (state, *previous)[:3]
        _, _, same = newton_step(system_1d, state, dt, _plan=plans[0], _previous=previous)
        assert (same.newton_iterations, same.lu_factors) == (1, 0)
        other = np.nextafter(dt, 1.0)
        fresh, _, fresh_stats = newton_step(system_1d, state, other, _previous=previous)
        shared, _, shared_stats = newton_step(system_1d, state, other, _plan=plans[1],
                                              _previous=previous)
        assert shared_stats == fresh_stats
        assert shared_stats.lu_factors == 1
        assert np.array_equal(shared.values, fresh.values)

    def test_convergence_union_stops_on_the_error_estimate(self, system_1d):
        # the convergence study's union (reference 1024, grids 16..128) on
        # smooth1d at dt = 1e-4: steps 2 to 4, from the linear and the
        # quadratic start, take two solves, the second ended by the estimate
        # with the contraction of the two updates; from the cubic start,
        # every later step ends at its first update, whose error left is
        # estimated below NEWTON_TOL although the update itself is not
        union, _ = disjoint_union([uniform_interval(g) for g in (1024, 16, 32, 64, 128)])
        u0 = preset_initial(InitialConfig("smooth1d"), union, 3)
        steps = []
        run(system_1d, u0, 1e-4, 0.006, sink=lambda t, s, f, stats: steps.append(stats))
        assert len(steps) == 60
        counts = [(stats.newton_iterations, stats.lu_factors, stats.residual_evaluations)
                  for stats in steps]
        assert counts[1:4] == [(2, 1, 2)] * 3
        assert counts[4:] == [(1, 1, 1)] * 56

    @pytest.mark.parametrize("preset, shape, dt, orders", [
        ("smooth1d", (16,), 1e-4, (0, 1, 2, 3, 3, 3)),
        ("blocks2d", (6, 5), 1e-5, (0, 1, 1, 1, 1, 1))], ids=["smooth1d-16", "blocks2d-6x5"])
    def test_each_step_starts_at_its_extrapolation(self, system_1d, system_2d, monkeypatch,
                                                   preset, shape, dt, orders):
        # the first state a step evaluates is its old state at step 1, and
        # then, to the bit, the extrapolation of the last q + 1 states,
        # projected and scaled to the old cell sums, of order q = min(past
        # states, 3); on the blocks data, whose exact zeros and floored
        # entries put every history at the floor, of order 1 only
        if preset == "blocks2d":
            system, u0 = system_2d, _blocks_2d(uniform_rectangle(*shape))
        else:
            system = system_1d
            u0 = preset_initial(InitialConfig(preset), uniform_interval(*shape), 3)
        probe = SolverProbe(monkeypatch, dt)
        states, marks = [u0.values], [0]

        def sink(t, state, fluxes, stats):
            states.append(state.values)
            marks.append(len(probe.evaluations))

        run(system, u0, dt, len(orders) * dt, sink=sink)
        assert len(marks) == len(orders) + 1
        for p, q in enumerate(orders):
            u, older = states[p], states[p - 1::-1] if p else []
            expected = {0: lambda: u,
                        1: lambda: 2.0 * u - older[0],
                        2: lambda: 3.0 * u - 3.0 * older[0] + older[1],
                        3: lambda: 4.0 * u - 6.0 * older[0] + 4.0 * older[1] - older[2]}[q]()
            if q:
                expected = project_simplex(expected) * u.sum(axis=0)
            assert np.array_equal(probe.evaluations[marks[p]].values, expected), (p, q)

    @pytest.mark.parametrize("preset, shape, dt",
                             [("blocks2d", (4, 4), 1e-5), ("nonsmooth1d", (8,), 1e-4),
                              ("smooth1d", (64,), 1e-4)],
                             ids=["blocks2d-4x4", "nonsmooth1d-8", "smooth1d-64"])
    def test_error_estimate_stop_is_within_rounding_of_a_tight_tolerance(
            self, system_1d, system_2d, monkeypatch, preset, shape, dt):
        # 20 steps iterated to updates below 1e-15: every state the estimate
        # accepts lies within 1e-12 of them, from the blocks data's exact
        # zeros, from the nonsmooth profile and, on smooth1d, from the state
        # at t = 0.06 of the entropy-decay run, where steps stop at their
        # first update.  With the rate taken as the contraction of the two
        # updates alone the states moved by 3.5e-9 and 5.2e-12 here; with the
        # estimate also after a kept LU's update, by 2.0e-12 on nonsmooth1d
        if preset == "blocks2d":
            system, u0 = system_2d, _blocks_2d(uniform_rectangle(*shape))
        else:
            system = system_1d
            u0 = preset_initial(InitialConfig(preset), uniform_interval(*shape), 3)
        if preset == "smooth1d":
            u0 = run(system, u0, dt, 0.06)

        def states():
            seen = []
            run(system, u0, dt, 20 * dt,
                sink=lambda t, s, f, stats: seen.append((s.values, stats.newton_iterations)))
            assert len(seen) == 20
            return seen

        default = states()
        monkeypatch.setattr(smfv.scheme, "NEWTON_TOL", 1e-15)
        tight = states()
        assert sum(n for _, n in tight) > sum(n for _, n in default)
        if preset == "smooth1d":
            # steps that the first update ends, where 1e-15 takes another
            assert any(n == 1 < m for (_, n), (_, m) in zip(default, tight))
        assert max(np.abs(a - b).max() for (a, _), (b, _) in zip(default, tight)) <= 1e-12

    @pytest.mark.parametrize("mesh", [uniform_interval(8), uniform_rectangle(3, 3)],
                             ids=["band", "superlu"])
    def test_failed_first_factor_reports_the_residual_norm(self, system_1d, monkeypatch,
                                                           mesh):
        import scipy.linalg.lapack

        def singular_band(ab, kl, ku, overwrite_ab=False):
            return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

        def singular_superlu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular_band)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular_superlu)
        u0 = StateField(mesh, np.linspace(0.1, 0.5, 3 * mesh.num_cells).reshape(3, -1))
        with pytest.raises(NonConvergence, match="singular") as info:
            newton_step(system_1d, u0, 1e-3)
        assert info.value.iterations == 1
        assert info.value.residual_norm == np.abs(residual(system_1d, u0, u0, 1e-3)).max()
        assert info.value.residual_norm > 0.0

    def test_nonconvergence_raises(self, system_1d, monkeypatch):
        monkeypatch.setattr(smfv.scheme, "MAX_NEWTON_ITERS", 1)
        monkeypatch.setattr(smfv.scheme, "NEWTON_TOL", 1e-300)
        mesh = uniform_interval(8)
        u0 = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        with pytest.raises(NonConvergence):
            newton_step(system_1d, u0, 1e-3)


class TestRun:
    def test_constant_state_stays_constant(self, system_1d):
        mesh = uniform_interval(5)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 5, axis=1)
        u0 = StateField(mesh, vals)
        seen = []

        def sink(t, state, fluxes, stats):
            seen.append((t, dissipation(system_1d, state, fluxes)))

        final = run(system_1d, u0, 0.1, 0.5, sink=sink)
        assert len(seen) == 5
        assert final.values == pytest.approx(vals, rel=1e-12)
        assert all(d == pytest.approx(0.0, abs=1e-20) for _, d in seen)

    def test_smooth_profile_entropy_decays(self, system_1d):
        mesh = uniform_interval(32)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        entropies = [entropy(u0)]

        def sink(t, state, fluxes, stats):
            entropies.append(entropy(state))

        run(system_1d, u0, 1e-3, 0.02, sink=sink)
        diffs = np.diff(entropies)
        assert np.all(diffs <= 1e-10 * (1.0 + np.abs(entropies[:-1])))

    def test_nonsmooth_profile_stays_positive(self, system_1d):
        mesh = uniform_interval(16)
        u0 = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        min_seen = [np.inf]

        def sink(t, state, fluxes, stats):
            min_seen[0] = min(min_seen[0], state.min_fraction())

        run(system_1d, u0, 1e-4, 0.003, sink=sink)
        assert min_seen[0] >= PROJECTION_FLOOR

    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 1.0])
    def test_table_sums_off_by_rounding(self, system_1d, dt):
        # a table u0 may miss unit cell sums by up to 1e-12; its steps
        # converge as those of the renormalised data and end projected
        mesh = uniform_interval(16)
        exact = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        sign = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        rows = (exact.values * (1.0 + 9e-13 * sign)).T.tolist()
        u0 = preset_initial(InitialConfig("table", {"values": rows}), mesh, 3)
        assert 8e-13 < u0.sum_deviation() < 1e-12
        steps = []

        def sink(t, state, fluxes, stats):
            steps.append((state, dissipation(system_1d, state, fluxes), stats))

        run(system_1d, u0, dt, 5 * dt, sink=sink)
        expected = []
        run(system_1d, exact, dt, 5 * dt,
            sink=lambda t, s, f, stats: expected.append(stats.newton_iterations))
        assert [stats.newton_iterations for _, _, stats in steps] == expected
        before = u0
        for state, diss, stats in steps:
            assert state.min_fraction() >= PROJECTION_FLOOR
            assert state.sum_deviation() <= 1e-15
            assert stats.pre_projection_sum_deviation <= 1e-12
            drift = np.abs(state.mass_vector - u0.mass_vector) / u0.mass_vector
            assert drift.max() <= 1e-8
            e_old, e_new = entropy(before), entropy(state)
            assert e_new + dt * diss - e_old <= 1e-10 * (1.0 + abs(e_old))
            before = state

    @staticmethod
    def _matrices_and_orders(system, monkeypatch, u0):
        """The factored matrices and the ``spilu`` orders of a run and of a lone step.

        Runs five steps, then one step without a plan.  Returns ``(run,
        step, orders)``: the factors of the run and of the step, and, for
        every ``spilu`` call, its keyword arguments and the number of edge
        evaluations made before it.
        """
        orders = []
        spilu = scipy.sparse.linalg.spilu

        def counted_spilu(*args, **kwargs):
            orders.append((kwargs, len(probe.evaluations)))
            return spilu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "spilu", counted_spilu)
        probe = SolverProbe(monkeypatch, 1e-3)
        run(system, u0, 1e-3, 5e-3)
        in_run = len(probe.factors)
        newton_step(system, u0, 1e-3)
        return probe.factors[:in_run], probe.factors[in_run:], orders

    def test_pattern_built_once_per_run(self, system_1d, monkeypatch):
        # a mesh that is no chain: one storage per run, refilled for every
        # factor, its Schur complement ordered inside the first step, not
        # before it, by one incomplete factor; a step without a run's plan
        # builds its own
        mesh = uniform_rectangle(3, 3)
        u0 = StateField(mesh, np.random.default_rng(8).dirichlet(np.ones(3), size=9).T)
        in_run, alone, orders = self._matrices_and_orders(system_1d, monkeypatch, u0)
        matrix = in_run[0].matrix
        assert isinstance(matrix, np.ndarray) and matrix.ndim == 1
        assert len(in_run) >= 5 and all(factor.matrix is matrix for factor in in_run)
        assert alone and all(factor.matrix is not matrix for factor in alone)
        assert len(orders) == 2 and orders[0][1] >= 1  # once the first step began
        assert orders[0][0]["permc_spec"] == "MMD_AT_PLUS_A"
        assert {key: orders[0][0][key] for key in SUPERLU_SETTINGS} == SUPERLU_SETTINGS

    def test_band_slots_built_once_per_run(self, system_1d, monkeypatch):
        # a chain: one band per run, refilled for every factor, and no order,
        # so no spilu call
        mesh = uniform_interval(8)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        in_run, alone, orders = self._matrices_and_orders(system_1d, monkeypatch, u0)
        band = in_run[0].matrix
        assert isinstance(band, np.ndarray)
        assert len(in_run) >= 5 and all(factor.matrix is band for factor in in_run)
        assert alone and all(factor.matrix is not band for factor in alone)
        assert orders == []

    def test_sink_reads_fluxes_of_its_state(self, system_1d):
        # computed at the first read, from the step's projected state, once
        mesh = uniform_interval(16)
        u0 = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        seen = []

        def sink(t, state, fluxes, stats):
            seen.append((state, fluxes, fluxes.values))

        run(system_1d, u0, 1e-4, 5e-4, sink=sink)
        assert len(seen) == 5
        for state, fluxes, values in seen:
            assert fluxes.mesh is mesh
            assert fluxes.values is values
            assert np.array_equal(values, _edge_fluxes(system_1d, mesh, state.values)[0])

    @pytest.mark.parametrize("preset, shape, coeffs, dt, steps", [
        ("smooth1d", (64,), None, 1e-4, 210),
        ("blocks2d", (6, 5), None, 1e-5, 6),
        ("nonsmooth1d", (17,), (0.005188124881933273, 0.0011713570427690921,
                                0.14772572217222374), 0.0064712154501544135, 3),
    ], ids=["smooth1d-64-carried", "blocks2d-6x5-floored", "nonsmooth1d-17-restarted"])
    def test_steps_write_into_no_state_they_read(self, system_1d, system_2d, preset, shape,
                                                 coeffs, dt, steps):
        # a step builds its start and projects its iterate in arrays it
        # owns: the old state and the earlier ones it extrapolates from keep
        # their values through the carried steps of the entropy-decay run
        # (from step 203), the floored states of the blocks data, and a
        # step whose extrapolated start fails and that is solved again from
        # its old state's values (case 101 of scripts/high_contrast_sweep.py)
        if preset == "blocks2d":
            system, u0 = system_2d, _blocks_2d(uniform_rectangle(*shape))
        else:
            system = system_1d
            if coeffs is not None:
                c12, c13, c23 = coeffs
                system = build_system([[0.0, c12, c13], [c12, 0.0, c23], [c13, c23, 0.0]])
            u0 = preset_initial(InitialConfig(preset), uniform_interval(*shape), 3)
        seen = [(u0, u0.values.copy())]
        factors = []

        def sink(t, state, fluxes, stats):
            seen.append((state, state.values.copy()))
            factors.append(stats.lu_factors)

        run(system, u0, dt, steps * dt, sink=sink)
        assert len(seen) == steps + 1
        if preset == "smooth1d":
            assert 0 in factors  # a step that solved with a carried LU
        for state, values in seen:
            assert np.array_equal(state.values, values)

    def test_step_count_and_times(self, system_1d):
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        times = []
        run(system_1d, u0, 0.25, 1.0, sink=lambda t, s, f, st: times.append(t))
        assert len(times) == 4
        assert times[-1] == pytest.approx(1.0, rel=1e-12)

    def test_step_count_bound(self):
        # the 1e-12 rounding guard drops a whole step once T/dt reaches 1e12
        assert num_time_steps(1.0, 1e11) == 10 ** 11
        assert num_time_steps(1e-4, 0.5) == 5000
        for t_end in (1e12, 1e13, math.inf):
            with pytest.raises(ValueError, match="T/dt must be below 1e"):
                num_time_steps(1.0, t_end)

    def test_rejects_bad_time_parameters(self, system_1d):
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        with pytest.raises(ValueError):
            run(system_1d, u0, 0.0, 1.0)
        with pytest.raises(ValueError):
            run(system_1d, u0, 0.5, 0.1)


class TestDisjointUnion:
    """A run on a disjoint union advances each component as if alone."""

    @staticmethod
    def _states(union, offsets, rng):
        # random compositions on the union, and each component's share of them
        values = rng.dirichlet(np.ones(3), size=union.num_cells).T
        return values, [values[:, a:b] for a, b in zip(offsets, offsets[1:])]

    def test_residual_is_each_components(self, system_2d):
        rng = np.random.default_rng(11)
        parts = [uniform_rectangle(3, 2), uniform_rectangle(1, 1), uniform_rectangle(4, 5)]
        union, offsets = disjoint_union(parts)
        new, new_parts = self._states(union, offsets, rng)
        old, old_parts = self._states(union, offsets, rng)
        r = residual(system_2d, StateField(union, new), StateField(union, old), 0.05)
        for mesh, a, b, u, v in zip(parts, offsets, offsets[1:], new_parts, old_parts):
            alone = residual(system_2d, StateField(mesh, u), StateField(mesh, v), 0.05)
            assert np.array_equal(r[:, a:b], alone)

    def test_jacobian_couples_no_components(self, system_1d):
        rng = np.random.default_rng(12)
        union, offsets = disjoint_union([uniform_interval(n) for n in (5, 2, 7)])
        values, _ = self._states(union, offsets, rng)
        jac = jacobian(system_1d, StateField(union, values), 0.1).tocoo()
        # unknown K * n + i belongs to the component holding cell K
        rows, cols = (np.searchsorted(offsets, index // 3, side="right")
                      for index in (jac.row, jac.col))
        assert jac.nnz > 0
        assert np.array_equal(rows, cols)

    def test_run_keeps_each_component_within_rounding(self, system_1d):
        meshes = [uniform_interval(16), uniform_interval(32)]
        union, offsets = disjoint_union(meshes)
        initial = InitialConfig("smooth1d")

        def trace(mesh):
            states, factors = [], []

            def sink(t, state, fluxes, stats):
                states.append(state.values)
                factors.append(stats.lu_factors)
            run(system_1d, preset_initial(initial, mesh, 3), 1e-4, 4e-3, sink)
            return states, factors

        states, factors = trace(union)
        assert len(states) == 40
        for mesh, a, b in zip(meshes, offsets, offsets[1:]):
            alone, alone_factors = trace(mesh)
            assert alone_factors == factors
            assert max(np.abs(u[:, a:b] - v).max() for u, v in zip(states, alone)) <= 2e-15


class TestFluxField:
    def test_public_paths_on_exact_zeros_raise_no_warning(self, system_2d):
        # the blocks data hold exact zeros, where the log mean takes its
        # zero branch; no public path warns there, a lazy flux read included
        mesh = uniform_rectangle(4, 4)
        u0 = _blocks_2d(mesh)
        assert u0.min_fraction() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual(system_2d, u0, u0, 1e-4)
            jacobian(system_2d, u0, 1e-4)
            zero_fluxes = FluxField._of_state(system_2d, u0).values
            log_mean(u0.values[:, :-1], u0.values[:, 1:])
            _, fluxes, _ = newton_step(system_2d, u0, 1e-4)
            assert np.all(np.isfinite(fluxes.values))
        assert np.all(np.isfinite(zero_fluxes))


# Coefficients at which Newton leaves the positive orthant and stalls on the
# log mean's zero branch at step 1; a discrete solution exists for every dt.
HIGH_CONTRAST = [[0.0, 0.01, 0.2], [0.01, 0.0, 20.0], [0.2, 20.0, 0.0]]
CHORD_REGRESSION = [[0.0, 0.0147, 1.68], [0.0147, 0.0, 0.941], [1.68, 0.941, 0.0]]


def _assert_three_steps_keep_invariants(system, shape, dt):
    """Run three steps of nonsmooth1d (1D ``shape``) or the blocks data (2D).

    Each step must end finite, projected and entropy stable.  Returns the
    initial state and the three states.
    """
    if len(shape) == 1:
        u0 = preset_initial(InitialConfig("nonsmooth1d"), uniform_interval(*shape), 3)
    else:
        u0 = _blocks_2d(uniform_rectangle(*shape))
    steps = []
    run(system, u0, dt, 3 * dt,
        sink=lambda t, s, f, stats: steps.append((s, dissipation(system, s, f))))
    assert len(steps) == 3
    before = u0
    for state, diss in steps:
        assert np.all(np.isfinite(state.values))
        assert state.min_fraction() >= PROJECTION_FLOOR
        assert state.sum_deviation() <= 1e-15
        drift = np.abs(state.mass_vector - u0.mass_vector) / u0.mass_vector
        assert drift.max() <= 1e-8
        e_old, e_new = entropy(before), entropy(state)
        assert e_new + dt * diss - e_old <= 1e-10 * (1.0 + abs(e_old))
        before = state
    return [u0] + [state for state, _ in steps]


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="Newton stalls on the log mean's zero branch")
@pytest.mark.parametrize("coeffs, shape, dt", [
    (HIGH_CONTRAST, (8,), 1e-4),
    (HIGH_CONTRAST, (8, 8), 1e-5),
    (CHORD_REGRESSION, (6, 6), 1.08e-5),
], ids=["nonsmooth1d-8", "blocks2d-8x8", "blocks2d-6x6-chord"])
def test_high_contrast_steps_keep_invariants(coeffs, shape, dt):
    _assert_three_steps_keep_invariants(build_system(coeffs), shape, dt)


@pytest.mark.parametrize("c12, c13, c23, shape, dt", [
    (0.005188124881933273, 0.0011713570427690921, 0.14772572217222374, (17,),
     0.0064712154501544135),
    (0.36380468640100705, 0.00131845710025919, 0.006559042661859763, (5, 4),
     0.026127248033168213),
], ids=["nonsmooth1d-17", "blocks2d-5x4"])
def test_failed_extrapolated_start_is_solved_from_the_old_state(
        monkeypatch, c12, c13, c23, shape, dt):
    # cases 101 and 64 of scripts/high_contrast_sweep.py: the iteration from
    # the extrapolated start fails in a later step, which only the solve
    # from the old state rescues.  The sink reads each state's fluxes, an
    # edge pass at it; the next step starts elsewhere, and a later pass at
    # it is that step's residual at its old state
    system = build_system([[0.0, c12, c13], [c12, 0.0, c23], [c13, c23, 0.0]])
    probe = SolverProbe(monkeypatch, dt)
    states = _assert_three_steps_keep_invariants(system, shape, dt)
    restarted = []
    for state in states[1:-1]:
        at = [k for k, e in enumerate(probe.evaluations) if np.array_equal(e.values,
                                                                           state.values)]
        assert at[0] + 1 not in at
        restarted.append(len(at) > 1)
    assert any(restarted)
