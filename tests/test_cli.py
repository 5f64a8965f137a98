import io
import json

import numpy as np
import pytest

import smfv.checks
from _probe import SolverProbe
from smfv.cli import (_SNAPSHOT_ROWS, _write_snapshot, cmd_check, cmd_convergence,
                      cmd_entropy_decay, cmd_run, fit_decay_rate, main)
from smfv.config import ConfigError, load_config, preset_initial
from smfv.diagnostics import (SampledRun, equilibrium_composition, l1_space_time_error,
                              relative_entropy)
from smfv.mesh import disjoint_union, uniform_interval, uniform_rectangle
from smfv.scheme import StateField, run


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def uniform_doc(out_dir, dt=1e-3, t_end=5e-3, n_cells=8, snapshots=()):
    return {
        "mesh": {"dimension": 1, "N": n_cells},
        "species": {"c": [[0, 0.2, 1.0], [0.2, 0, 0.1], [1.0, 0.1, 0]]},
        "initial": {"preset": "uniform", "value": [0.25, 0.25, 0.5]},
        "time": {"dt": dt, "T": t_end},
        "output": {"directory": str(out_dir), "snapshot_times": list(snapshots)},
    }


def smooth_doc(out_dir, dt=1e-3, t_end=2e-2, n_cells=16, snapshots=()):
    doc = uniform_doc(out_dir, dt, t_end, n_cells, snapshots)
    doc["initial"] = {"preset": "smooth1d"}
    return doc


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCmdRun:
    def test_uniform_state_constant_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(uniform_doc(out))
        assert cmd_run(config) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        d_col = header.index("D")
        h_col = header.index("H")
        e_col = header.index("E")
        assert all(float(r[d_col]) == 0.0 for r in rows)
        assert all(abs(float(r[h_col])) < 1e-12 for r in rows)
        energies = [float(r[e_col]) for r in rows]
        assert max(energies) - min(energies) < 1e-12
        assert len(rows) == 6  # t = 0 plus five steps

    def test_snapshot_files_emitted(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(smooth_doc(out, dt=1e-3, t_end=5e-3,
                                        snapshots=(0.0, 0.0025, 0.005)))
        assert cmd_run(config) == 0
        snaps = sorted(out.glob("u_t*.csv"))
        assert len(snaps) == 3
        header, rows = read_csv(snaps[0])
        assert header == ["cell", "x", "u_1", "u_2", "u_3"]
        assert len(rows) == 16

    def test_smooth_run_decays_relative_entropy(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(smooth_doc(out))
        assert cmd_run(config) == 0
        header, rows = read_csv(out / "diagnostics.csv")
        h = [float(r[header.index("H")]) for r in rows]
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert h[-1] < h[0]

    def test_outputs_are_deterministic(self, tmp_path):
        doc_a = smooth_doc(tmp_path / "a", snapshots=(0.01,))
        doc_b = smooth_doc(tmp_path / "b", snapshots=(0.01,))
        cmd_run(load_config(doc_a))
        cmd_run(load_config(doc_b))
        for name in ("diagnostics.csv", "u_t0.01.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_rows_satisfy_record_invariants(self, tmp_path):
        out = tmp_path / "out"
        cmd_run(load_config(smooth_doc(out)))
        header, rows = read_csv(out / "diagnostics.csv")
        lower = -np.log(3.0)  # unit-measure domain, three species
        for row in rows:
            assert lower - 1e-12 <= float(row[header.index("E")]) <= 1e-12
            assert float(row[header.index("D")]) >= 0.0
            assert float(row[header.index("H")]) >= -1e-12

    def test_diagnostics_every(self, tmp_path):
        out = tmp_path / "out"
        doc = uniform_doc(out, dt=1e-3, t_end=1e-2)
        doc["output"]["diagnostics_every"] = 4
        cmd_run(load_config(doc))
        _, rows = read_csv(out / "diagnostics.csv")
        # t = 0, steps 4 and 8, plus the always-written final step 10
        assert [r[0] for r in rows] == ["0", "0.0040000000000000001",
                                        "0.0080000000000000002", "0.01"]


class TestCmdConvergence:
    def test_tiny_study_orders(self, tmp_path):
        out = tmp_path / "out"
        doc = smooth_doc(out, dt=2e-3, t_end=2e-2, n_cells=8)
        config = load_config(doc)
        assert cmd_convergence(config, grids=(4, 8), ref_n=32) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["N", "l1_error", "observed_order"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > 0.0
        assert rows[0][2] == ""
        assert 1.0 < float(rows[1][2]) < 3.0

    def test_identical_grid_gives_zero_error(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(smooth_doc(out, dt=2e-3, t_end=1e-2, n_cells=8))
        cmd_convergence(config, grids=(8,), ref_n=8)
        _, rows = read_csv(out / "convergence.csv")
        assert float(rows[0][1]) == 0.0

    def test_outputs_are_deterministic(self, tmp_path):
        doc = smooth_doc(tmp_path / "out", dt=2e-3, t_end=1e-2, n_cells=8)
        written = []
        for name in ("a", "b"):
            cmd_convergence(load_config(doc), grids=(4, 8), ref_n=16, out_dir=tmp_path / name)
            written.append((tmp_path / name / "convergence.csv").read_bytes())
        assert written[0] == written[1]

    def test_errors_are_those_of_full_histories(self, tmp_path):
        # the per-step sums are, to the bit, the space-time errors of each
        # grid's full history in the union run against the reference's
        out = tmp_path / "out"
        config = load_config(smooth_doc(out, dt=2e-3, t_end=1e-2, n_cells=8))
        cmd_convergence(config, grids=(4, 8), ref_n=16)
        _, rows = read_csv(out / "convergence.csv")
        meshes = [uniform_interval(g) for g in (16, 4, 8)]
        union, offsets = disjoint_union(meshes)
        history = []
        run(config.species, preset_initial(config.initial, union, 3), config.time.dt,
            config.time.t_end, sink=lambda t, s, f, stats: history.append(s.values))
        runs = [SampledRun(mesh, [config.time.dt] * len(history),
                           [values[:, a:b] for values in history])
                for mesh, a, b in zip(meshes, offsets, offsets[1:])]
        assert len(history) == 5
        assert [float(r[1]) for r in rows] == [l1_space_time_error(grid, runs[0])
                                              for grid in runs[1:]]

    def test_table_preset_fails_before_any_step(self, tmp_path, monkeypatch):
        # the initial state is built on the union of all grids, which no
        # table matches, so no step runs
        import smfv.cli

        def no_run(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(smfv.cli, "run", no_run)
        doc = smooth_doc(tmp_path / "out", n_cells=4)
        doc["initial"] = {"preset": "table", "values": [[0.25, 0.25, 0.5]] * 4}
        with pytest.raises(ConfigError, match="one row per mesh cell"):
            cmd_convergence(load_config(doc), grids=(4,), ref_n=8)

    def test_non_nested_rejected(self, tmp_path):
        config = load_config(smooth_doc(tmp_path / "out"))
        with pytest.raises(Exception, match="multiple"):
            cmd_convergence(config, grids=(6,), ref_n=16)

    def test_nonsmooth_errors_decrease(self, tmp_path):
        out = tmp_path / "out"
        doc = smooth_doc(out, dt=2e-3, t_end=2e-2)
        doc["initial"] = {"preset": "nonsmooth1d"}
        cmd_convergence(load_config(doc), grids=(8, 16), ref_n=32)
        _, rows = read_csv(out / "convergence.csv")
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > 0.0


class TestCmdEntropyDecay:
    def test_uniform_initial_state_skips_fit(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(uniform_doc(out))
        assert cmd_entropy_decay(config) == 0
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["status"] == "already at equilibrium"
        header, rows = read_csv(out / "entropy.csv")
        assert header == ["t", "H"]
        assert all(abs(float(r[1])) < 1e-14 for r in rows)

    def test_smooth_profile_log_linear_tail(self, tmp_path):
        out = tmp_path / "out"
        config = load_config(smooth_doc(out, dt=1e-3, t_end=0.1, n_cells=16))
        assert cmd_entropy_decay(config) == 0
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["status"] == "ok"
        assert fit["slope"] < 0.0
        assert fit["r_squared"] >= 0.99

    def test_entropy_column_is_relative_entropy_to_the_bit(self, tmp_path):
        # the blocks data has exact zeros at t = 0; the steps' states do not
        doc = {
            "mesh": {"dimension": 2, "Nx": 10, "Ny": 10},
            "species": {"c": [[0, 0.1, 0.2], [0.1, 0, 2.0], [0.2, 2.0, 0]]},
            "initial": {"preset": "blocks2d", "blocks": [
                {"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
                {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]}]},
            "time": {"dt": 1e-4, "T": 5e-4},
            "output": {"directory": str(tmp_path / "out")},
        }
        config = load_config(doc)
        assert cmd_entropy_decay(config) == 0
        u0 = preset_initial(config.initial, config.mesh.build(), config.species.n)
        assert u0.min_fraction() == 0.0
        m = equilibrium_composition(u0)
        states = [u0]
        run(config.species, u0, 1e-4, 5e-4, lambda t, s, f, stats: states.append(s))
        _, rows = read_csv(tmp_path / "out" / "entropy.csv")
        assert [r[1] for r in rows] == [f"{relative_entropy(s, m):.17g}" for s in states]

    def test_slower_diffusion_slows_decay(self, tmp_path):
        fast_doc = smooth_doc(tmp_path / "fast", dt=2e-3, t_end=0.1, n_cells=12)
        slow_doc = smooth_doc(tmp_path / "slow", dt=2e-3, t_end=0.1, n_cells=12)
        slow_doc["species"]["c"] = (2.0 * np.array(fast_doc["species"]["c"])).tolist()
        cmd_entropy_decay(load_config(fast_doc))
        cmd_entropy_decay(load_config(slow_doc))
        fast = json.loads((tmp_path / "fast" / "decay_fit.json").read_text())
        slow = json.loads((tmp_path / "slow" / "decay_fit.json").read_text())
        assert abs(slow["slope"]) < abs(fast["slope"])


def _entropy_decay(out):
    config = load_config(smooth_doc(out))
    return config, config.mesh.build(), lambda: cmd_entropy_decay(config)


def _convergence(out):
    config = load_config(smooth_doc(out, dt=2e-3, n_cells=8))
    union, _ = disjoint_union([uniform_interval(n) for n in (32, 4, 8)])
    return config, union, lambda: cmd_convergence(config, grids=(4, 8), ref_n=32)


def _every_fourth_row(out):
    doc = smooth_doc(out, t_end=1e-2)
    doc["output"]["diagnostics_every"] = 4
    config = load_config(doc)
    return config, config.mesh.build(), lambda: cmd_run(config)


# the run writes rows with fluxes at steps 4, 8 and the final step 10
@pytest.mark.parametrize("command, reads", [(_entropy_decay, 0), (_convergence, 0),
                                            (_every_fourth_row, 3)],
                         ids=["entropy-decay", "convergence", "run"])
def test_fluxes_evaluated_only_when_read(tmp_path, monkeypatch, command, reads):
    # every edge evaluation serves a residual of the command's steps, as the
    # same steps run without a sink count them, except one per flux a row
    # reads
    config, mesh, call = command(tmp_path / "out")
    steps = []
    run(config.species, preset_initial(config.initial, mesh, 3), config.time.dt,
        config.time.t_end, sink=lambda t, s, f, stats: steps.append(stats))
    residuals = sum(stats.residual_evaluations for stats in steps)
    probe = SolverProbe(monkeypatch, config.time.dt)
    call()
    assert residuals > 0
    assert len(probe.evaluations) == residuals + reads


def _spread_values(rng, cells):
    shape = (3, cells)
    values = rng.random(shape) * 10.0 ** rng.uniform(-320, 3, shape)
    values[:, 0] = [0.0, 1e-12, 1.0]
    values[:, 1] = [-0.0, 5e-324, 1.0]
    return values


def _tied_values(rng, cells):
    # exact 0/1 fractions, as in the blocks data, with runs of repeated
    # values, -0.0 among 0.0, across the first boundary between row blocks
    values = np.zeros((3, cells))
    values[rng.integers(0, 3, cells), np.arange(cells)] = 1.0
    tied = slice(_SNAPSHOT_ROWS - 12, _SNAPSHOT_ROWS + 18)
    values[:, tied] = rng.random((3, 1))
    values[1, _SNAPSHOT_ROWS - 3:_SNAPSHOT_ROWS + 3] = -0.0
    values[2, _SNAPSHOT_ROWS - 1:_SNAPSHOT_ROWS + 1] = 0.1 + 0.2
    return values


@pytest.mark.parametrize("mesh, draw", [(uniform_interval(7), _spread_values),
                                        (uniform_rectangle(3, 4), _spread_values),
                                        (uniform_interval(1100), _spread_values),
                                        (uniform_rectangle(30, 20), _spread_values),
                                        (uniform_rectangle(30, 20), _tied_values)],
                         ids=["interval", "rectangle", "interval-blocks", "rectangle-blocks",
                              "rectangle-tied"])
def test_snapshot_matches_per_value_reference(tmp_path, mesh, draw):
    # one formatted string per value, as the writer's rows must read, over
    # one or several blocks of rows; these are the bytes np.savetxt writes
    values = draw(np.random.default_rng(9), mesh.num_cells)
    _write_snapshot(tmp_path, StateField(mesh, values), 0.25)
    coords = ["x", "y"][: mesh.dimension]
    header = ",".join(["cell"] + coords + ["u_1", "u_2", "u_3"])
    lines = [header]
    for k in range(mesh.num_cells):
        cols = [f"{c:.17g}" for c in list(mesh.cell_centers[k]) + list(values[:, k])]
        lines.append(",".join([str(k)] + cols))
    expected = "\n".join(lines) + "\n"
    assert (tmp_path / "u_t0.25.csv").read_bytes() == expected.encode()
    table = np.column_stack([np.arange(mesh.num_cells), mesh.cell_centers, values.T])
    savetxt = io.StringIO()
    np.savetxt(savetxt, table, fmt=["%d"] + ["%.17g"] * (table.shape[1] - 1),
               delimiter=",", header=header, comments="")
    assert savetxt.getvalue() == expected


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 1.0, 50)
        h = 3.0 * np.exp(-2.5 * t)
        status, slope, r2, points = fit_decay_rate(t, h, 0.5)
        assert status == "ok"
        assert slope == pytest.approx(-2.5, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_all_tiny_values(self):
        status, slope, r2, points = fit_decay_rate([0.0, 1.0], [0.0, 1e-18], 0.5)
        assert status == "already at equilibrium"
        assert slope is None

    def test_one_time_in_window(self):
        assert fit_decay_rate([0.0, 1.0, 1.0], [0.5, 0.2, 0.1], 0.5) == (
            "insufficient data in fit window", None, None, 2)


class TestCmdCheck:
    def test_default_seed_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smfv.checks, "ALL_CHECKS", tuple(
            c for c in smfv.checks.ALL_CHECKS
            if c.__name__ != "check_jacobian_fd"))  # covered by its own tests; slow
        assert cmd_check(seed=0, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["all_passed"] is True
        assert all(p["passed"] for p in report["properties"])

    def test_numpy_scalar_results_serialise(self, tmp_path, monkeypatch):
        # seed 48 makes a_kernel_rank's worst value a numpy float
        monkeypatch.setattr(smfv.checks, "ALL_CHECKS", tuple(
            c for c in smfv.checks.ALL_CHECKS
            if c.__name__ != "check_jacobian_fd"))
        assert cmd_check(seed=48, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["all_passed"] is True

    def test_injected_sign_error_detected(self, tmp_path, monkeypatch):
        import smfv.model

        good = smfv.model.mat_Abar

        def flipped(system, v):
            return -good(system, v)

        monkeypatch.setattr(smfv.model, "mat_Abar", flipped)
        monkeypatch.setattr(smfv.checks, "ALL_CHECKS", (
            smfv.checks.check_identity_decomposition,))
        assert cmd_check(seed=0, out_dir=tmp_path) == 1
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["all_passed"] is False
        (prop,) = report["properties"]
        assert prop["name"] == "identity_decomposition"
        assert not prop["passed"]


class TestMainEntry:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", uniform_doc(out))
        assert main(["run", "--config", cfg]) == 0
        assert (out / "diagnostics.csv").exists()

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", uniform_doc(tmp_path / "ignored"))
        override = tmp_path / "override"
        assert main(["run", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "diagnostics.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--config", str(bad)]) == 2

    def test_lu_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a 2D mesh is no chain: its factors are SuperLU's
        import smfv.scheme

        def failing_splu(*args, **kwargs):
            raise RuntimeError("failed to factorize matrix")

        monkeypatch.setattr(smfv.scheme.spla, "splu", failing_splu)
        doc = uniform_doc(tmp_path / "out")
        doc["mesh"] = {"dimension": 2, "Nx": 4, "Ny": 3}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted:")
        assert "failed to factorize matrix" in err

    def test_band_lu_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a 1D mesh is a chain: LAPACK's band factor reports the zero pivot
        # of an all-zero band as info = 1
        import smfv.scheme

        dgbtrf = smfv.scheme.lapack.dgbtrf

        def zero_band(ab, kl, ku, **kwargs):
            return dgbtrf(np.zeros_like(ab, order="F"), kl, ku, **kwargs)

        monkeypatch.setattr(smfv.scheme.lapack, "dgbtrf", zero_band)
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted:")
        assert "band LU factor is exactly singular: pivot 1 is zero" in err

    def test_stalled_damping_exit_code(self, tmp_path, monkeypatch, capsys):
        import smfv.scheme

        def flat_residual(system, mesh, values, old_values, dt):
            edges = smfv.scheme._edge_fluxes(system, mesh, values)
            return np.ones_like(values), edges

        monkeypatch.setattr(smfv.scheme, "_residual_values", flat_residual)
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted:")
        assert "no residual decrease in 30 halvings" in err

    @pytest.mark.parametrize("command", ["run", "convergence"])
    @pytest.mark.parametrize("fault", ["mesh", "factor"])
    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys, command, fault):
        # injected: a real request too large to grant may be granted under
        # memory overcommit, and the process then killed
        import smfv.mesh
        import smfv.scheme

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array with shape "
                              "(40000000000, 2) and data type float64")

        if fault == "mesh":
            monkeypatch.setattr(smfv.mesh, "_uniform_grid", exhausted)
        else:
            monkeypatch.setattr(smfv.scheme._StepPlan, "factor", exhausted)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(out, n_cells=8))
        argv = [command, "--config", cfg]
        if command == "convergence":
            argv += ["--grids", "4,8", "--ref", "16"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 596. GiB")
        assert err.count("\n") == 1

    def test_high_contrast_solver_failure_exit_code(self, tmp_path, capsys):
        # a genuine Newton failure, unpatched, ends in a typed error
        doc = uniform_doc(tmp_path / "out", dt=1e-4, t_end=1e-3)
        doc["initial"] = {"preset": "nonsmooth1d"}
        doc["species"]["c"] = [[0, 0.01, 0.2], [0.01, 0, 20], [0.2, 20, 0]]
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted:")
        assert "no residual decrease" in err

    def test_check_subcommand_with_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smfv.checks, "ALL_CHECKS",
                            (smfv.checks.check_simplex_identity,))
        cfg = write_config(tmp_path / "cfg.json", uniform_doc(tmp_path / "out"))
        chk = tmp_path / "chk"
        assert main(["check", "--config", cfg, "--seed", "3", "--out", str(chk)]) == 0
        report = json.loads((chk / "check_report.json").read_text())
        assert report["seed"] == 3

    @pytest.mark.parametrize("ref", ["0", "-16"])
    def test_nonpositive_ref_exit_code(self, tmp_path, capsys, ref):
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(tmp_path / "out"))
        assert main(["convergence", "--config", cfg, "--grids", "16", "--ref", ref]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "--ref" in err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["check", "--seed", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "--seed" in err
        assert not (tmp_path / "check_report.json").exists()

    @pytest.mark.parametrize("grids", [",", ""])
    def test_empty_grids_exit_code(self, tmp_path, capsys, grids):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(out, n_cells=4))
        assert main(["convergence", "--config", cfg, "--grids", grids, "--ref", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "--grids must be a nonempty list" in err
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_grids_exit_code(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        doc = smooth_doc(out, n_cells=4)
        argv = ["convergence", "--ref", "8"]
        if source == "flag":
            argv += ["--grids", "2,4,2"]
        else:
            doc["convergence"] = {"grids": [4, 2, 2], "ref": 8}
        argv += ["--config", write_config(tmp_path / "cfg.json", doc)]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("configuration error: study grids must "
                                           "be distinct (N = 2 is repeated)\n")
        assert not (out / "convergence.csv").exists()

    def test_solver_section_exit_code(self, tmp_path, capsys):
        doc = uniform_doc(tmp_path / "out")
        doc["solver"] = {"max_newton_iters": 2.5}
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("configuration error: "
                                           "config.solver is not a recognised field\n")

    def test_infinite_time_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(uniform_doc(tmp_path / "out"))
                       .replace('"T": 0.005', '"T": Infinity'))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_step_count_bound_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", uniform_doc(out, dt=1e-300, t_end=1.0))
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("configuration error: time.T / time.dt must "
                                           "be a finite number of steps, below 1e+12\n")
        assert not out.exists()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps(uniform_doc("caf\u00e9"), ensure_ascii=False)
                        .encode("latin-1"))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "not UTF-8 text" in err

    def test_convergence_flags(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json",
                           smooth_doc(out, dt=2e-3, t_end=6e-3, n_cells=4))
        assert main(["convergence", "--config", cfg, "--grids", "4,8", "--ref", "16"]) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert [r[0] for r in rows] == ["4", "8"]
