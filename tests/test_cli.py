import json

import numpy as np
import pytest

import smfv.checks
from smfv.cli import (cmd_check, cmd_convergence, cmd_entropy_decay, cmd_run,
                      fit_decay_rate, main)
from smfv.config import load_config


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

    def test_slower_diffusion_slows_decay(self, tmp_path):
        fast_doc = smooth_doc(tmp_path / "fast", dt=2e-3, t_end=0.1, n_cells=12)
        slow_doc = smooth_doc(tmp_path / "slow", dt=2e-3, t_end=0.1, n_cells=12)
        slow_doc["species"]["c"] = (2.0 * np.array(fast_doc["species"]["c"])).tolist()
        cmd_entropy_decay(load_config(fast_doc))
        cmd_entropy_decay(load_config(slow_doc))
        fast = json.loads((tmp_path / "fast" / "decay_fit.json").read_text())
        slow = json.loads((tmp_path / "slow" / "decay_fit.json").read_text())
        assert abs(slow["slope"]) < abs(fast["slope"])


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
        import smfv.scheme

        def failing_splu(*args, **kwargs):
            raise RuntimeError("failed to factorize matrix")

        monkeypatch.setattr(smfv.scheme.spla, "splu", failing_splu)
        cfg = write_config(tmp_path / "cfg.json", smooth_doc(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted:")
        assert "failed to factorize matrix" in err

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

    def test_convergence_flags(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json",
                           smooth_doc(out, dt=2e-3, t_end=6e-3, n_cells=4))
        assert main(["convergence", "--config", cfg, "--grids", "4,8", "--ref", "16"]) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert [r[0] for r in rows] == ["4", "8"]
