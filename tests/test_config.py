import json
import math
from pathlib import Path

import numpy as np
import pytest

from smfv.config import (_PRESETS, ConfigError, InitialConfig, load_config,
                         load_config_file, preset_initial)
from smfv.mesh import uniform_interval, uniform_rectangle

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def base_config(**overrides):
    doc = {
        "mesh": {"dimension": 1, "N": 32},
        "species": {"n": 3, "c": [[0, 0.2, 1.0], [0.2, 0, 0.1], [1.0, 0.1, 0]]},
        "initial": {"preset": "smooth1d"},
        "time": {"dt": 1e-5, "T": 0.5},
    }
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_paper_style_1d_document(self):
        config = load_config(json.dumps(base_config()))
        assert config.species.c_star == pytest.approx(0.1)
        assert config.time.dt == 1e-5
        assert config.time.t_end == 0.5
        assert config.output.directory == "out"

    def test_missing_species_matrix(self):
        doc = base_config(species={"n": 3})
        with pytest.raises(ConfigError, match=r"species\.c required"):
            load_config(doc)

    def test_asymmetric_matrix_names_symmetry(self):
        doc = base_config(species={"c": [[0, 1.0, 1.0], [2.0, 0, 1.0], [1.0, 1.0, 0]]})
        with pytest.raises(ConfigError, match="symmetric"):
            load_config(doc)

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            load_config("{not json")

    def test_bad_time_parameters(self):
        with pytest.raises(ConfigError, match=r"time\.dt"):
            load_config(base_config(time={"dt": 0.0, "T": 1.0}))
        with pytest.raises(ConfigError, match=r"time\.T"):
            load_config(base_config(time={"dt": 0.5, "T": 0.1}))

    def test_step_count_overflow_rejected(self):
        with pytest.raises(ConfigError, match=r"time\.T / time\.dt must be a finite"):
            load_config(base_config(time={"dt": 1e-308, "T": 1e308}))

    @pytest.mark.parametrize("dt, t_end", [(1.0, 1e12), (1e-300, 1.0)])
    def test_step_count_bound_rejected(self, dt, t_end):
        with pytest.raises(ConfigError, match=r"time\.T / time\.dt must be a finite "
                                              r"number of steps, below 1e\+12"):
            load_config(base_config(time={"dt": dt, "T": t_end}))

    @pytest.mark.parametrize("dimension", [True, 1.0])
    def test_non_integer_dimension_rejected(self, dimension):
        with pytest.raises(ConfigError, match=r"mesh\.dimension must be 1 or 2"):
            load_config(base_config(mesh={"dimension": dimension, "N": 32}))

    def test_snapshot_times_must_lie_in_range(self):
        doc = base_config(output={"snapshot_times": [0.0, 0.7]})
        with pytest.raises(ConfigError, match="snapshot_times"):
            load_config(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="not a recognised field"):
            load_config(base_config(extra={"x": 1}))

    def test_damping_halvings_key_rejected(self):
        doc = base_config(solver={"max_damping_halvings": 30})
        with pytest.raises(ConfigError, match=r"config\.solver is not a recognised field"):
            load_config(doc)

    def test_solver_overrides(self):
        # the Newton and projection parameters are constants of smfv.scheme
        for solver in ({}, {"newton_tol": 1e-10}, {"max_newton_iters": 2.5},
                       {"projection_floor": 0.5}):
            with pytest.raises(ConfigError,
                               match=r"config\.solver is not a recognised field"):
                load_config(base_config(solver=solver))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, literal):
        text = json.dumps(base_config()).replace('"T": 0.5', f'"T": {literal}')
        with pytest.raises(ConfigError, match=r"config\.time\.T must be a finite number"):
            load_config(text)
        text = json.dumps(base_config()).replace("[0, 0.2, 1.0]", f"[0, {literal}, 1.0]")
        with pytest.raises(ConfigError, match=r"config\.species\.c\[0\]\[1\] must be"):
            load_config(text)

    def test_non_finite_number_in_dict_rejected(self):
        doc = base_config(species={"c": [[0, math.inf, 1.0], [math.inf, 0, 0.1],
                                         [1.0, 0.1, 0]]})
        with pytest.raises(ConfigError, match="finite"):
            load_config(doc)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        config = load_config_file(path)
        mesh = config.mesh.build()
        preset_initial(config.initial, mesh, config.species.n)

    def test_preset_dimension_mismatch(self):
        doc = base_config(mesh={"dimension": 2, "Nx": 4, "Ny": 4})
        with pytest.raises(ConfigError, match="1D mesh"):
            load_config(doc)

    def test_non_string_preset_rejected(self):
        doc = base_config(initial={"preset": ["smooth1d"]})
        with pytest.raises(ConfigError, match=r"^initial\.preset unknown: \['smooth1d'\]"):
            load_config(doc)

    def test_uniform_preset_needs_simplex_value(self):
        doc = base_config(initial={"preset": "uniform", "value": [0.5, 0.5, 0.5]})
        with pytest.raises(ConfigError, match="simplex"):
            load_config(doc)

    def test_blocks_overlap_rejected(self):
        doc = base_config(
            mesh={"dimension": 2, "Nx": 4, "Ny": 4},
            initial={"preset": "blocks2d", "blocks": [
                {"species": 0, "box": [0.0, 0.6, 0.0, 1.0]},
                {"species": 1, "box": [0.4, 1.0, 0.0, 1.0]},
            ]})
        with pytest.raises(ConfigError, match="remainder"):
            load_config(doc)

    def test_same_species_overlap_rejected(self):
        doc = base_config(
            mesh={"dimension": 2, "Nx": 4, "Ny": 4},
            initial={"preset": "blocks2d", "blocks": [
                {"species": 0, "box": [0.0, 0.6, 0.0, 1.0]},
                {"species": 0, "box": [0.4, 1.0, 0.0, 1.0]},
            ]})
        with pytest.raises(ConfigError, match="must not overlap"):
            load_config(doc)

    def test_touching_blocks_accepted(self):
        doc = base_config(
            mesh={"dimension": 2, "Nx": 4, "Ny": 4},
            initial={"preset": "blocks2d", "blocks": [
                {"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
                {"species": 0, "box": [0.5, 1.0, 0.5, 1.0]},
                {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]},
            ]})
        config = load_config(doc)
        assert config.initial.preset == "blocks2d"

    def test_convergence_section(self):
        doc = base_config(convergence={"grids": [8, 16], "ref": 64})
        config = load_config(doc)
        assert config.convergence.grids == (8, 16)
        assert config.convergence.ref_n == 64

    def test_convergence_repeated_grids_rejected(self):
        doc = base_config(convergence={"grids": [4, 2, 2], "ref": 8})
        with pytest.raises(ConfigError,
                           match=r"^study grids must be distinct \(N = 2 is repeated\)$"):
            load_config(doc)

    def test_convergence_requires_nesting(self):
        doc = base_config(convergence={"grids": [12], "ref": 64})
        with pytest.raises(ConfigError, match="multiple"):
            load_config(doc)


class TestPresetInitial:
    def test_smooth1d_midpoint_averages(self):
        mesh = uniform_interval(8)
        state = preset_initial(InitialConfig("smooth1d"), mesh, 3)
        x0 = mesh.cell_centers[0, 0]
        expected_first = 0.25 + 0.25 * math.cos(math.pi * x0)
        assert state.values[0, 0] == pytest.approx(expected_first, rel=1e-14)
        assert state.values[1, 0] == state.values[0, 0]
        # continuous profile has u1(0) = 0.5; the first cell average sits below
        assert state.values[0, 0] < 0.5
        assert state.sum_deviation() < 1e-12

    def test_nonsmooth1d_exact_overlap(self):
        mesh = uniform_interval(8)
        state = preset_initial(InitialConfig("nonsmooth1d"), mesh, 3)
        # cell 3 covers (3/8, 4/8), inside the first indicator block
        assert state.values[:, 3] == pytest.approx(np.array([1.0, 0.0, 0.0]))
        # cell 1 covers (1/8, 2/8), inside the second species band
        assert state.values[:, 1] == pytest.approx(np.array([0.0, 1.0, 0.0]))
        # species masses equal the indicator measures exactly
        mesh16 = uniform_interval(16)
        state16 = preset_initial(InitialConfig("nonsmooth1d"), mesh16, 3)
        assert state16.mass_vector == pytest.approx(
            np.array([0.25, 0.5, 0.25]), rel=1e-12)

    def test_uniform_preset_constant(self):
        mesh = uniform_rectangle(3, 3)
        state = preset_initial(
            InitialConfig("uniform", {"value": [1 / 3, 1 / 3, 1 / 3]}), mesh, 3)
        assert np.all(state.values == 1 / 3)

    def test_blocks2d_exact_areas(self):
        mesh = uniform_rectangle(4, 4)
        blocks = [{"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
                  {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]}]
        state = preset_initial(InitialConfig("blocks2d", {"blocks": blocks}), mesh, 3)
        assert state.mass_vector == pytest.approx(np.array([0.25, 0.25, 0.5]), rel=1e-12)
        assert state.sum_deviation() == 0.0
        # cell fully inside the first block
        assert state.values[:, 0] == pytest.approx(np.array([1.0, 0.0, 0.0]))

    def test_blocks2d_straddling_cell(self):
        mesh = uniform_rectangle(2, 2)
        blocks = [{"species": 0, "box": [0.0, 0.25, 0.0, 0.25]}]
        state = preset_initial(InitialConfig("blocks2d", {"blocks": blocks}), mesh, 2)
        assert state.values[0, 0] == pytest.approx(0.25, rel=1e-12)
        assert state.values[0, 1:] == pytest.approx(np.zeros(3), abs=0.0)

    def test_table_preset(self):
        mesh = uniform_interval(2)
        rows = [[0.3, 0.7], [0.6, 0.4]]
        state = preset_initial(InitialConfig("table", {"values": rows}), mesh, 2)
        assert state.values == pytest.approx(np.array(rows).T)

    def test_table_wrong_length(self):
        mesh = uniform_interval(3)
        with pytest.raises(ConfigError, match="one row per mesh cell"):
            preset_initial(InitialConfig("table", {"values": [[0.5, 0.5]]}), mesh, 2)

    def test_absent_species_rejected(self):
        mesh = uniform_interval(4)
        with pytest.raises(ConfigError, match="positive mass"):
            preset_initial(InitialConfig("uniform", {"value": [1.0, 0.0]}), mesh, 2)

    @pytest.mark.parametrize("initial, mesh, n, message", [
        (InitialConfig("smooth1d"), uniform_interval(4), 4,
         r"^initial\.preset smooth1d requires exactly 3 species$"),
        (InitialConfig("blocks2d"), uniform_rectangle(2, 2), 3, r"^initial\.blocks required$"),
        (InitialConfig("uniform"), uniform_interval(4), 3, r"^initial\.value required$"),
    ], ids=["smooth1d-4-species", "blocks2d-no-blocks", "uniform-no-value"])
    def test_library_callers_get_config_errors(self, initial, mesh, n, message):
        with pytest.raises(ConfigError, match=message):
            preset_initial(initial, mesh, n)


# A minimal valid field for each preset, for 3 species on 4 cells
MINIMAL_FIELDS = {
    "smooth1d": {},
    "nonsmooth1d": {},
    "blocks2d": {"blocks": [{"species": 0, "box": [0.0, 0.5, 0.0, 1.0]},
                            {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]}]},
    "uniform": {"value": [0.25, 0.25, 0.5]},
    "table": {"values": [[0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                         [0.0, 0.0, 1.0]]},
}
MESHES = {1: uniform_interval(4), 2: uniform_rectangle(2, 2)}


class TestPresetTable:
    def test_every_preset_has_one_field_case(self):
        assert sorted(MINIMAL_FIELDS) == sorted(_PRESETS)
        for preset, (_, _, key, _) in _PRESETS.items():
            assert set(MINIMAL_FIELDS[preset]) == ({key} if key else set())

    @pytest.mark.parametrize("preset", sorted(MINIMAL_FIELDS))
    @pytest.mark.parametrize("dimension", sorted(MESHES))
    def test_builds_on_meshes_of_its_dimension_only(self, preset, dimension):
        need, _, _, _ = _PRESETS[preset]
        initial = InitialConfig(preset, MINIMAL_FIELDS[preset])
        if need not in (None, dimension):
            with pytest.raises(ConfigError, match=rf"^initial\.preset {preset} requires "
                                                  rf"a {need}D mesh$"):
                preset_initial(initial, MESHES[dimension], 3)
            return
        state = preset_initial(initial, MESHES[dimension], 3)
        assert state.values.shape == (3, 4)
        assert state.min_fraction() >= 0.0 and state.sum_deviation() <= 1e-15
        assert state.mass_vector.min() > 0.0
        doc = base_config(mesh={"dimension": 1, "N": 4} if dimension == 1 else
                          {"dimension": 2, "Nx": 2, "Ny": 2},
                          initial={"preset": preset, **MINIMAL_FIELDS[preset]})
        assert load_config(doc).initial == initial
