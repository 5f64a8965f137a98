import math

import numpy as np
import pytest

from smfv.diagnostics import (DiagnosticsRecord, SampledRun, _restrict, dissipation,
                              entropy, equilibrium_composition,
                              l1_space_time_error, relative_entropy)
from smfv.mesh import Mesh, uniform_interval, uniform_rectangle, validate
from smfv.model import build_system
from smfv.scheme import FluxField, StateField


def two_unit_cells():
    """Hand-built admissible mesh on (0, 2): two unit cells, tau_sigma = 1."""
    return Mesh(cell_centers=[[0.5], [1.5]], cell_measures=[1.0, 1.0],
                edge_cell_k=[0], edge_cell_l=[1], edge_measure=[1.0],
                edge_distance=[1.0], grid_shape=(2,),
                cell_lower=[[0.0], [1.0]], cell_upper=[[1.0], [2.0]])


class TestEntropy:
    def test_uniform_state_saturates_lower_bound(self):
        for n in (2, 3, 5):
            mesh = uniform_interval(8)
            state = StateField(mesh, np.full((n, 8), 1.0 / n))
            assert entropy(state) == pytest.approx(-math.log(n), rel=1e-12)

    def test_pure_state_is_zero(self):
        mesh = uniform_interval(4)
        vals = np.zeros((3, 4))
        vals[0] = 1.0
        assert entropy(StateField(mesh, vals)) == 0.0

    def test_single_cell_value(self):
        mesh = uniform_interval(1)
        state = StateField(mesh, np.array([[0.25], [0.75]]))
        expected = 0.25 * math.log(0.25) + 0.75 * math.log(0.75)
        assert entropy(state) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-0.562335, abs=1e-6)

    def test_rejects_negative(self):
        mesh = uniform_interval(2)
        with pytest.raises(ValueError):
            entropy(StateField(mesh, np.array([[-0.1, 0.5], [1.1, 0.5]])))

    @pytest.mark.parametrize("zeros", [False, True])
    def test_is_the_sum_of_u_log_u_to_the_bit(self, zeros):
        rng = np.random.default_rng(5)
        mesh = uniform_rectangle(3, 2)
        vals = rng.dirichlet(np.ones(3), size=6).T
        if zeros:
            vals[:, [1, 4]] = [[1.0, 0.0], [0.0, 0.25], [0.0, 0.75]]
        state = StateField(mesh, vals)
        u = state.values  # C order, the order of the sum
        # 0 log 0 = 0 as 0 log 1
        expected = float((mesh.cell_measures * (u * np.log(np.where(u > 0.0, u, 1.0)))).sum())
        assert entropy(state) == expected

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(0)
        mesh = uniform_interval(11)
        for n in (2, 4):
            vals = rng.dirichlet(np.ones(n), size=11).T
            e = entropy(StateField(mesh, vals))
            assert -mesh.total_measure * math.log(n) - 1e-12 <= e <= 1e-12


class TestDissipation:
    def test_constant_state_zero_flux(self, system_1d):
        mesh = uniform_interval(5)
        state = StateField(mesh, np.full((3, 5), 1.0 / 3.0))
        fluxes = FluxField(mesh, np.zeros((3, 4)))
        assert dissipation(system_1d, state, fluxes) == 0.0

    def test_single_edge_jump_value(self):
        mesh = two_unit_cells()
        assert validate(mesh) == []
        system = build_system([[0.0, 1.0], [1.0, 0.0]])  # alpha = 4
        assert system.alpha == 4.0
        state = StateField(mesh, np.array([[0.25, 0.75], [0.75, 0.25]]))
        fluxes = FluxField(mesh, np.zeros((2, 1)))
        jump = math.sqrt(0.75) - math.sqrt(0.25)
        expected = (system.alpha / 2.0) * 1.0 * 2.0 * jump**2
        value = dissipation(system, state, fluxes)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.535898, abs=1e-6)

    def test_nonnegative_on_random_data(self, system_1d):
        rng = np.random.default_rng(1)
        mesh = uniform_interval(9)
        for _ in range(50):
            state = StateField(mesh, rng.dirichlet(np.ones(3), size=9).T)
            fluxes = FluxField(mesh, rng.normal(size=(3, 8)))
            assert dissipation(system_1d, state, fluxes) >= 0.0

    def test_rejects_fluxes_of_another_mesh(self, system_1d):
        # the two fields meet here, so their meshes must be one
        state = StateField(uniform_interval(5), np.full((3, 5), 1.0 / 3.0))
        fluxes = FluxField(uniform_interval(5), np.zeros((3, 4)))
        with pytest.raises(ValueError, match="do not belong"):
            dissipation(system_1d, state, fluxes)


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        mesh = uniform_interval(6)
        m = np.array([0.2, 0.3, 0.5])
        state = StateField(mesh, np.repeat(m[:, None], 6, axis=1))
        assert relative_entropy(state, m) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_for_matched_equilibrium(self):
        rng = np.random.default_rng(2)
        mesh = uniform_interval(10)
        for _ in range(100):
            state = StateField(mesh, rng.dirichlet(np.ones(3), size=10).T)
            m = equilibrium_composition(state)
            assert relative_entropy(state, m) >= -1e-12

    def test_equals_entropy_difference(self):
        rng = np.random.default_rng(3)
        mesh = uniform_interval(7)
        state = StateField(mesh, rng.dirichlet(np.ones(3), size=7).T)
        m = equilibrium_composition(state)
        equilibrium = StateField(mesh, np.repeat(m[:, None], 7, axis=1))
        h = relative_entropy(state, m)
        assert h == pytest.approx(entropy(state) - entropy(equilibrium),
                                  abs=1e-12)

    def test_rejects_zero_mass_species(self):
        mesh = uniform_interval(3)
        state = StateField(mesh, np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            relative_entropy(state, np.array([1.0, 0.0]))


class TestL1SpaceTimeError:
    def test_identical_runs(self):
        mesh = uniform_interval(4)
        states = [np.full((2, 4), 0.5), np.full((2, 4), 0.5)]
        a = SampledRun(mesh, [0.5, 0.5], states)
        assert l1_space_time_error(a, a) == 0.0

    def test_constant_fields(self):
        coarse = SampledRun(uniform_interval(1), [1.0], [np.full((1, 1), 1.0)])
        ref = SampledRun(uniform_interval(4), [1.0], [np.full((1, 4), 0.5)])
        assert l1_space_time_error(coarse, ref) == pytest.approx(0.5, rel=1e-14)

    def test_nested_step_fields(self):
        coarse = SampledRun(uniform_interval(2), [1.0],
                            [np.array([[0.0, 1.0]])])
        ref = SampledRun(uniform_interval(4), [1.0],
                         [np.array([[0.0, 0.5, 0.5, 1.0]])])
        assert l1_space_time_error(coarse, ref) == pytest.approx(0.25, rel=1e-14)

    def test_symmetric_on_shared_grid(self):
        rng = np.random.default_rng(5)
        mesh = uniform_interval(6)
        a = SampledRun(mesh, [0.1], [rng.uniform(size=(2, 6))])
        b = SampledRun(mesh, [0.1], [rng.uniform(size=(2, 6))])
        assert l1_space_time_error(a, b) == pytest.approx(
            l1_space_time_error(b, a), rel=1e-15)

    def test_rejects_non_nested(self):
        coarse = SampledRun(uniform_interval(4), [1.0], [np.zeros((1, 4))])
        ref = SampledRun(uniform_interval(6), [1.0], [np.zeros((1, 6))])
        with pytest.raises(ValueError):
            l1_space_time_error(coarse, ref)

    def test_rejects_mismatched_times(self):
        coarse = SampledRun(uniform_interval(2), [1.0], [np.zeros((1, 2))])
        ref = SampledRun(uniform_interval(4), [0.5], [np.zeros((1, 4))])
        with pytest.raises(ValueError):
            l1_space_time_error(coarse, ref)

    def test_2d_restriction(self):
        coarse = SampledRun(uniform_rectangle(1, 1), [1.0], [np.array([[0.0]])])
        vals = np.arange(4.0)[None, :]  # 2x2 fine grid, mean 1.5
        ref = SampledRun(uniform_rectangle(2, 2), [1.0], [vals])
        assert l1_space_time_error(coarse, ref) == pytest.approx(1.5, rel=1e-14)


@pytest.mark.parametrize("coarse, fine", [((1,), (4,)), ((3,), (12,)), ((2, 2), (4, 4)),
                                          ((2, 3), (4, 3)), ((3, 1), (6, 4)),
                                          ((2, 3), (10, 6))],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_restrict_matches_loop_reference(coarse, fine):
    factors = tuple(nf // nc for nc, nf in zip(coarse, fine))
    values = np.random.default_rng(3).uniform(size=(2, math.prod(fine)))
    # a 1D grid is one row of a 2D grid
    (ncx, ncy), (nfx, _), (rx, ry) = [s + (1,) * (2 - len(s))
                                      for s in (coarse, fine, factors)]
    expected = np.zeros((2, ncx * ncy))
    for jy in range(ncy):
        for jx in range(ncx):
            for sy in range(ry):
                for sx in range(rx):
                    k = (jx * rx + sx) + nfx * (jy * ry + sy)
                    expected[:, jx + ncx * jy] += values[:, k] / (rx * ry)
    assert np.allclose(_restrict(values, coarse, factors), expected, rtol=1e-14, atol=0.0)


class TestDiagnosticsRecord:
    def test_from_step_and_violations(self, system_1d):
        mesh = uniform_interval(4)
        state = StateField(mesh, np.full((3, 4), 1.0 / 3.0))
        fluxes = FluxField(mesh, np.zeros((3, 3)))
        m = equilibrium_composition(state)
        rec = DiagnosticsRecord.from_step(system_1d, state, fluxes, m, 0.5)
        # the bounds of every record: entropy in [-m log n, 0], H >= 0, D >= 0
        assert -math.log(3.0) - 1e-10 <= rec.entropy <= 1e-10
        assert rec.dissipation == 0.0
        assert rec.relative_entropy == pytest.approx(0.0, abs=1e-14)
        assert rec.masses == pytest.approx(state.mass_vector)
