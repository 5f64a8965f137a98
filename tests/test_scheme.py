import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfv.checks import finite_difference_jacobian
from smfv.config import InitialConfig, preset_initial
from smfv.diagnostics import (dissipation, entropy, reconstruct_flux_field,
                              reconstruct_gradient)
from smfv.mesh import uniform_interval, uniform_rectangle
from smfv.model import build_system, mat_Abar
from smfv.scheme import (NonConvergence, SolverConfig, StateField,
                         _log_mean_with_partials, compute_fluxes, edge_flux,
                         jacobian, log_mean, newton_step, project_simplex,
                         residual, run)


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
        # relative gaps 0 and 1e-16..1 at magnitudes 1e-12..1, both orders
        gaps = np.concatenate([[0.0], np.logspace(-16, 0, 65)])
        mags = np.logspace(-12, 0, 13)
        a = np.repeat(mags, len(gaps))
        b = a * (1.0 + np.tile(gaps, len(mags)))
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
        lam, da, db = _log_mean_with_partials(a, b)
        worst = 0.0
        with mpmath.workdps(50):
            for i in range(len(a)):
                x, y = mpmath.mpf(a[i]), mpmath.mpf(b[i])
                if x == y:
                    ref = (x, mpmath.mpf(0.5), mpmath.mpf(0.5))
                else:
                    big_l = mpmath.log(x) - mpmath.log(y)
                    ref = ((x - y) / big_l, (big_l - (x - y) / x) / big_l**2,
                           ((x - y) / y - big_l) / big_l**2)
                for got, want in zip((lam[i], da[i], db[i]), ref):
                    worst = max(worst, float(abs(mpmath.mpf(got) - want) / want))
        assert worst <= 1e-14


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
        rng = np.random.default_rng(1)
        a = rng.uniform(0.0, 1.0, size=10)
        b = rng.uniform(0.0, 1.0, size=10)
        assert log_mean(a, b) == pytest.approx(log_mean(b, a), rel=1e-15)


class TestEdgeFlux:
    def test_zero_jump(self, system_1d):
        j = edge_flux(system_1d, np.array([0.2, 0.3, 0.5]), np.zeros(3), 0.25)
        assert j == pytest.approx(np.zeros(3))

    def test_two_species_diagonal_solve(self):
        system = build_system([[0.0, 1.0], [1.0, 0.0]])  # cbar = 0
        j = edge_flux(system, np.array([0.5, 0.5]), np.array([0.1, -0.1]), 0.5)
        assert j == pytest.approx(np.array([-0.2, 0.2]), rel=1e-14)

    def test_zero_species_sum(self, system_1d):
        uk = np.array([0.2, 0.3, 0.5])
        ul = np.array([0.4, 0.1, 0.5])
        du = ul - uk
        j = edge_flux(system_1d, log_mean(uk, ul), du, 0.25)
        assert abs(float(j.sum())) <= 1e-12 * float(np.abs(du).max()) / 0.25

    def test_rejects_nonpositive_distance(self, system_1d):
        with pytest.raises(ValueError):
            edge_flux(system_1d, np.ones(3) / 3, np.zeros(3), 0.0)


class TestResidual:
    def test_constant_state_vanishes(self, system_1d):
        mesh = uniform_interval(6)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 6, axis=1)
        state = StateField(mesh, vals)
        r = residual(system_1d, mesh, state, state, 0.1)
        assert np.abs(r).max() < 1e-15

    def test_flux_contributions_telescope(self, system_1d):
        rng = np.random.default_rng(2)
        mesh = uniform_interval(9)
        new = StateField(mesh, rng.uniform(0.05, 1.0, size=(3, 9)))
        old = StateField(mesh, rng.dirichlet(np.ones(3), size=9).T)
        dt = 0.05
        r = residual(system_1d, mesh, new, old, dt)
        expected = (mesh.cell_measures * (new.values - old.values) / dt).sum()
        assert float(r.sum()) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_two_cell_hand_assembly(self):
        # n = 2 and c12 = 1 makes Abar vanish: J_i = -(u_iL - u_iK)/d
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        mesh = uniform_interval(2)
        new = StateField(mesh, np.array([[0.3, 0.6], [0.7, 0.4]]))
        old = StateField(mesh, np.array([[0.25, 0.75], [0.75, 0.25]]))
        dt = 0.1
        r = residual(system, mesh, new, old, dt)
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
            residual(system_1d, mesh, state, foreign, 0.1)


class TestJacobian:
    def test_matches_finite_differences_1d(self, system_1d):
        rng = np.random.default_rng(3)
        mesh = uniform_interval(4)
        new = StateField(mesh, rng.uniform(0.05, 1.0, size=(3, 4)))
        old = StateField(mesh, rng.dirichlet(np.ones(3), size=4).T)
        analytic = jacobian(system_1d, mesh, new, old, 0.1).toarray()
        fd = finite_difference_jacobian(system_1d, mesh, new, old, 0.1)
        assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-5

    def test_matches_finite_differences_2d(self, system_2d):
        rng = np.random.default_rng(4)
        mesh = uniform_rectangle(3, 2)
        new = StateField(mesh, rng.uniform(0.05, 1.0, size=(3, 6)))
        old = StateField(mesh, rng.dirichlet(np.ones(3), size=6).T)
        analytic = jacobian(system_2d, mesh, new, old, 0.2).toarray()
        fd = finite_difference_jacobian(system_2d, mesh, new, old, 0.2)
        assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-5

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
            analytic = jacobian(system_1d, mesh, state, state, dt).toarray()
            fd = finite_difference_jacobian(system_1d, mesh, state, state, dt)
            worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))
        assert worst < 1e-5

    def test_constant_state_structure(self, system_1d):
        # flux blocks cancel on spatially constant directions, leaving m_K/dt
        mesh = uniform_interval(5)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 5, axis=1)
        state = StateField(mesh, vals)
        dt = 0.1
        jac = jacobian(system_1d, mesh, state, state, dt)
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
        jac = jacobian(system, mesh, new, old, 0.1)
        assert jac.format == "csc"
        assert jac.has_canonical_format
        assert jac.nnz == 16 * (mesh.num_cells + 2 * mesh.num_interior_edges)
        fd = finite_difference_jacobian(system, mesh, new, old, 0.1)
        assert np.abs(jac.toarray() - fd).max() / np.abs(fd).max() < 1e-5


@pytest.mark.parametrize("mesh", [uniform_interval(1), uniform_rectangle(1, 1)],
                         ids=["interval", "rectangle"])
class TestEdgelessMesh:
    def test_jacobian_is_time_derivative(self, system_1d, mesh):
        state = StateField(mesh, np.array([[0.25], [0.25], [0.5]]))
        jac = jacobian(system_1d, mesh, state, state, 0.1)
        expected = np.diag(np.repeat(mesh.cell_measures / 0.1, 3))
        assert np.array_equal(jac.toarray(), expected)

    def test_newton_step_keeps_state(self, system_1d, mesh):
        vals = np.array([[0.25], [0.25], [0.5]])
        state, fluxes, stats = newton_step(system_1d, mesh, StateField(mesh, vals), 0.1)
        assert np.array_equal(state.values, vals)
        assert fluxes.values.shape == (3, 0)
        assert stats.newton_iterations == 1

    def test_diagnostics_vanish(self, system_1d, mesh):
        state = StateField(mesh, np.array([[0.25], [0.25], [0.5]]))
        fluxes = compute_fluxes(system_1d, mesh, state)
        assert dissipation(system_1d, mesh, state, fluxes) == 0.0
        assert fluxes.max_species_sum() == 0.0
        field, sq_norm = reconstruct_flux_field(mesh, fluxes)
        assert sq_norm == 0.0
        assert field.shape == (3, mesh.num_boundary_edges, mesh.dimension)
        assert not field.any()
        assert not reconstruct_gradient(mesh, np.ones(1)).any()


class TestProjectSimplex:
    def test_identity_inside(self):
        u = np.array([0.2, 0.3, 0.5])
        assert project_simplex(u, 1e-12) == pytest.approx(u, rel=1e-15)

    def test_negative_component(self):
        out = project_simplex(np.array([-0.01, 0.5, 0.51]), 1e-12)
        expected = np.array([1e-12, 0.5, 0.51]) / (1.01 + 1e-12)
        assert out == pytest.approx(expected, rel=1e-14)
        assert out[0] == pytest.approx(9.90099e-13, rel=1e-5)

    def test_all_floored(self):
        assert project_simplex(np.array([-1.0, -1.0]), 1e-12) == pytest.approx(
            np.array([0.5, 0.5]))

    def test_columnwise(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(-0.5, 1.5, size=(3, 5))
        out = project_simplex(u, 1e-12)
        for c in range(5):
            assert np.array_equal(out[:, c], project_simplex(u[:, c], 1e-12))

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([0.5, 0.5]), 0.0)

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_lands_in_interior(self, values):
        out = project_simplex(np.array(values), 1e-12)
        assert abs(float(out.sum()) - 1.0) < 1e-12
        assert np.all(out > 0.0)


class TestNewtonSolve:
    def test_constant_state_is_stationary(self, system_1d):
        mesh = uniform_interval(6)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 6, axis=1)
        state = StateField(mesh, vals)
        out, fluxes, stats = newton_step(system_1d, mesh, state, 0.1)
        assert stats.newton_iterations <= 2
        assert out.values == pytest.approx(vals, rel=1e-12)
        assert np.abs(fluxes.values).max() < 1e-12

    def test_matches_bisection_oracle(self):
        # Two cells, two species: volume filling and mass conservation leave a
        # single unknown a = u_{1,cell0}; bisect its residual independently.
        system = build_system([[0.0, 1.0], [1.0, 0.0]])
        mesh = uniform_interval(2)
        u_old = StateField(mesh, np.array([[0.25, 0.75], [0.75, 0.25]]))
        dt = 0.1
        m_cell = 0.5
        d_sigma = 0.5

        def scalar_residual(a):
            u_k = np.array([a, 1.0 - a])
            u_l = np.array([1.0 - a, a])
            u_sigma = np.array([log_mean(u_k[0], u_l[0]), log_mean(u_k[1], u_l[1])])
            s = system.c_star * np.eye(2) + mat_Abar(system, u_sigma)
            j = np.linalg.solve(s, -(u_l - u_k) / d_sigma)
            return m_cell * (a - 0.25) / dt + 1.0 * j[0]

        lo, hi = 1e-12, 1.0 - 1e-12
        assert scalar_residual(lo) < 0.0 < scalar_residual(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scalar_residual(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)

        state, fluxes, stats = newton_step(system, mesh, u_old, dt)
        assert state.values[0, 0] == pytest.approx(oracle, abs=1e-10)
        assert state.values[0, 0] == pytest.approx(3.25 / 9.0, abs=1e-10)

    def test_masses_conserved(self, system_1d):
        mesh = uniform_interval(12)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        state, fluxes, _ = newton_step(system_1d, mesh, u0, 1e-3)
        drift = np.abs(state.mass_vector - u0.mass_vector) / u0.mass_vector
        assert drift.max() < 1e-10

    def test_singular_edge_solve_raises(self, system_1d, monkeypatch):
        import smfv.scheme

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(smfv.scheme.np.linalg, "solve", singular)
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        with pytest.raises(NonConvergence, match="Singular matrix"):
            newton_step(system_1d, mesh, u0, 1e-3)

    def test_no_residual_decrease_raises(self, system_1d, monkeypatch):
        import smfv.scheme

        def flat_residual(system, mesh, values, old_values, dt):
            edges = smfv.scheme._edge_fluxes(system, mesh, values)
            return np.ones_like(values), edges

        monkeypatch.setattr(smfv.scheme, "_residual_values", flat_residual)
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        with pytest.raises(NonConvergence, match="no residual decrease") as info:
            newton_step(system_1d, mesh, u0, 1e-3)
        assert info.value.reason is not None
        assert info.value.iterations == 1

    @pytest.mark.parametrize("n_cells, t_end", [(128, 0.05), (16, 0.006)])
    def test_one_residual_evaluation_per_iteration(self, system_1d, monkeypatch,
                                                   n_cells, t_end):
        # the smooth1d run at N=128 through t = 0.05 (500 steps) and the first
        # grid of the convergence study (60 steps at N=16)
        import smfv.scheme

        calls = [0]
        original = smfv.scheme._residual_values

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(smfv.scheme, "_residual_values", counted)
        mesh = uniform_interval(n_cells)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        iterations = []
        run(system_1d, mesh, u0, 1e-4, t_end,
            sink=lambda t, s, f, stats: iterations.append(stats.newton_iterations))
        assert calls[0] == sum(iterations)
        assert max(iterations) <= 3

    def test_one_edge_evaluation_per_newton_state(self, system_1d, monkeypatch):
        # the Jacobian reuses the edge terms of the residual's state; the one
        # extra log mean is the flux of the projected state
        import smfv.scheme

        calls = {"_log_mean_with_partials": 0, "_residual_values": 0}

        def counted(name):
            original = getattr(smfv.scheme, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(smfv.scheme, name, counted(name))
        mesh = uniform_interval(16)
        state = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        for _ in range(5):
            calls.update(dict.fromkeys(calls, 0))
            state, _, _ = newton_step(system_1d, mesh, state, 1e-4)
            assert calls["_residual_values"] >= 2
            assert calls["_log_mean_with_partials"] == calls["_residual_values"] + 1

    def test_nonconvergence_raises(self, system_1d):
        mesh = uniform_interval(8)
        u0 = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        config = SolverConfig(max_newton_iters=1, newton_tol=1e-300)
        with pytest.raises(NonConvergence):
            newton_step(system_1d, mesh, u0, 1e-3, config)


class TestRun:
    def test_constant_state_stays_constant(self, system_1d):
        mesh = uniform_interval(5)
        vals = np.repeat(np.array([[0.2], [0.3], [0.5]]), 5, axis=1)
        u0 = StateField(mesh, vals)
        seen = []

        def sink(t, state, fluxes, stats):
            seen.append((t, dissipation(system_1d, mesh, state, fluxes)))

        final = run(system_1d, mesh, u0, 0.1, 0.5, sink=sink)
        assert len(seen) == 5
        assert final.values == pytest.approx(vals, rel=1e-12)
        assert all(d == pytest.approx(0.0, abs=1e-20) for _, d in seen)

    def test_smooth_profile_entropy_decays(self, system_1d):
        mesh = uniform_interval(32)
        u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        entropies = [entropy(mesh, u0)]

        def sink(t, state, fluxes, stats):
            entropies.append(entropy(mesh, state))

        run(system_1d, mesh, u0, 1e-3, 0.02, sink=sink)
        diffs = np.diff(entropies)
        assert np.all(diffs <= 1e-10 * (1.0 + np.abs(entropies[:-1])))

    def test_nonsmooth_profile_stays_positive(self, system_1d):
        mesh = uniform_interval(16)
        u0 = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        floor = SolverConfig().projection_floor
        min_seen = [np.inf]

        def sink(t, state, fluxes, stats):
            min_seen[0] = min(min_seen[0], state.min_fraction())

        run(system_1d, mesh, u0, 1e-4, 0.003, sink=sink)
        assert min_seen[0] >= floor

    def test_step_count_and_times(self, system_1d):
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        times = []
        run(system_1d, mesh, u0, 0.25, 1.0, sink=lambda t, s, f, st: times.append(t))
        assert len(times) == 4
        assert times[-1] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_time_parameters(self, system_1d):
        mesh = uniform_interval(4)
        u0 = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        with pytest.raises(ValueError):
            run(system_1d, mesh, u0, 0.0, 1.0)
        with pytest.raises(ValueError):
            run(system_1d, mesh, u0, 0.5, 0.1)


class TestFluxField:
    def test_compute_fluxes_matches_edge_flux(self, system_1d):
        rng = np.random.default_rng(5)
        mesh = uniform_interval(7)
        state = StateField(mesh, rng.dirichlet(np.ones(3), size=7).T)
        fluxes = compute_fluxes(system_1d, mesh, state)
        for e in range(mesh.num_interior_edges):
            uk = state.values[:, mesh.edge_cell_k[e]]
            ul = state.values[:, mesh.edge_cell_l[e]]
            expected = edge_flux(system_1d, log_mean(uk, ul),
                                 ul - uk, mesh.edge_distance[e])
            assert fluxes.values[:, e] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_flux_formula_equivalence(self, system_1d):
        # against the symmetric-positive-definite resistance form
        from smfv.model import mat_B
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(200):
            uk = rng.dirichlet(np.ones(3)) + 0.01
            uk /= uk.sum()
            ul = rng.dirichlet(np.ones(3)) + 0.01
            ul /= ul.sum()
            d_sigma = rng.uniform(0.1, 1.0)
            u_sigma = log_mean(uk, ul)
            j = edge_flux(system_1d, u_sigma, ul - uk, d_sigma)
            j_ref = -np.linalg.solve(mat_B(system_1d, u_sigma),
                                     np.log(ul) - np.log(uk)) / d_sigma
            worst = max(worst, float(np.abs(j - j_ref).max()))
        assert worst < 1e-10
