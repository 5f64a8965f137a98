"""The three benchmark workloads: their inputs, operation counts and output checks.

Each workload is one ``smfv`` CLI command on one of the paper's
deterministic configs (shortened horizons), so its Newton iteration counts
repeat exactly.  Checks run in the parent process on the files a repetition
wrote, after its timed region.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The 1D system shared by smooth1d, convergence1d and entropy1d.
SPECIES_1D = {"n": 3, "c": [[0, 0.2, 1.0], [0.2, 0, 0.1], [1.0, 0.1, 0]]}

CONV1D_CONFIG = {
    "mesh": {"dimension": 1, "N": 16},
    "species": SPECIES_1D,
    "initial": {"preset": "smooth1d"},
    "time": {"dt": 1e-4, "T": 0.006},
    "output": {"directory": "out"},
    "convergence": {"grids": [16, 32, 64, 128], "ref": 1024},
}

DECAY1D_CONFIG = {
    "mesh": {"dimension": 1, "N": 64},
    "species": SPECIES_1D,
    "initial": {"preset": "smooth1d"},
    "time": {"dt": 1e-4, "T": 0.2},
    "output": {"directory": "out"},
}

BLOCKS2D_CONFIG = {
    "mesh": {"dimension": 2, "Nx": 70, "Ny": 70},
    "species": {"n": 3, "c": [[0, 0.1, 0.2], [0.1, 0, 2.0], [0.2, 2.0, 0]]},
    "initial": {
        "preset": "blocks2d",
        "blocks": [
            {"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
            {"species": 0, "box": [0.5, 1.0, 0.5, 1.0]},
            {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]},
        ],
    },
    "time": {"dt": 1e-5, "T": 2e-5},
    "output": {"directory": "out", "snapshot_times": [0.0, 2e-5], "diagnostics_every": 1},
}

# Results of conv1d and decay1d at the revision this benchmark was written
# against.  A later change may move them at
# rounding level only; the relative tolerances leave room for final states
# that differ by about 1e-12.
CONV1D_L1_ERRORS = {16: 6.2181816924767772e-06, 32: 1.5532842904538839e-06,
                    64: 3.871791774953619e-07, 128: 9.5656742254477164e-08}
CONV1D_L1_RTOL = 1e-3
CONV1D_ORDER_RANGE = (1.7, 2.3)
DECAY1D_SLOPE = -24.99490674487455
DECAY1D_SLOPE_RTOL = 1e-4
DECAY1D_MIN_R2 = 0.99

# blocks2d acceptance tolerances, as in the acceptance tests.
ENTROPY_TOL = 1e-10
MASS_DRIFT_TOL = 1e-8
MIN_FRACTION = 1e-12
SUM_DEV_TOL = 1e-10
FLUX_SUM_TOL = 1e-10
SNAPSHOT_SUM_TOL = 1e-15


# Set-up ends at the first call into this function (the first time step).
SETUP_ENDS_AT = "smfv.scheme:newton_step"


def num_time_steps(dt, t_end):
    """Step count of ``smfv.scheme.num_time_steps`` (the CLI's own rule)."""
    return max(1, math.ceil((t_end / dt) * (1.0 - 1e-12)))


def _write_config(config, path):
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return str(path)


class Workload:
    """Base class: ``argv`` writes the inputs; ``check`` returns failures."""

    name = ""
    command = ""
    config = None

    def params(self):
        return {"command": self.command, "config": self.config}

    def argv(self, work_dir, out_dir):
        path = _write_config(self.config, work_dir / "config.json")
        return [self.command, "--config", path, "--out", str(out_dir)]

    def ops(self):
        t = self.config["time"]
        return num_time_steps(t["dt"], t["T"])

    def check(self, out_dir):
        raise NotImplementedError


class Conv1D(Workload):
    name = "conv1d"
    command = "convergence"
    config = CONV1D_CONFIG

    def ops(self):
        grids = len(self.config["convergence"]["grids"]) + 1  # plus the reference
        return grids * super().ops()

    def check(self, out_dir):
        with open(out_dir / "convergence.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bad = []
        if [int(r["N"]) for r in rows] != sorted(CONV1D_L1_ERRORS):
            return [f"convergence.csv grids {[r['N'] for r in rows]}"]
        lo, hi = CONV1D_ORDER_RANGE
        for r in rows:
            n, err = int(r["N"]), float(r["l1_error"])
            want = CONV1D_L1_ERRORS[n]
            if not abs(err - want) <= CONV1D_L1_RTOL * want:
                bad.append(f"N={n}: L1 error {err!r} vs reference {want!r}")
            if r["observed_order"] and not lo <= float(r["observed_order"]) <= hi:
                bad.append(f"N={n}: observed order {r['observed_order']} outside [{lo}, {hi}]")
        return bad


class Decay1D(Workload):
    name = "decay1d"
    command = "entropy-decay"
    config = DECAY1D_CONFIG

    def check(self, out_dir):
        bad = []
        fit = json.loads((out_dir / "decay_fit.json").read_text(encoding="utf-8"))
        if fit["status"] != "ok":
            return [f"decay fit status {fit['status']!r}"]
        if not fit["r_squared"] >= DECAY1D_MIN_R2:
            bad.append(f"decay fit R^2 {fit['r_squared']} < {DECAY1D_MIN_R2}")
        slope = fit["slope"]
        if not (slope < 0 and abs(slope - DECAY1D_SLOPE) <= DECAY1D_SLOPE_RTOL * abs(DECAY1D_SLOPE)):
            bad.append(f"decay slope {slope!r} vs reference {DECAY1D_SLOPE!r}")
        with open(out_dir / "entropy.csv", encoding="utf-8") as fh:
            h = [float(r["H"]) for r in csv.DictReader(fh)]
        if len(h) != self.ops() + 1:
            bad.append(f"entropy.csv has {len(h)} rows")
        rises = [p for p in range(1, len(h)) if h[p] > h[p - 1]]
        if rises:
            bad.append(f"H increases at {len(rises)} steps, first at step {rises[0]}")
        return bad


class Blocks2D(Workload):
    name = "blocks2d"
    command = "run"
    config = BLOCKS2D_CONFIG

    def check(self, out_dir):
        with open(out_dir / "diagnostics.csv", encoding="utf-8") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        bad = []
        if len(rows) != self.ops() + 1:
            bad.append(f"diagnostics.csv has {len(rows)} rows")
        dt = self.config["time"]["dt"]
        masses = sorted(k for k in rows[0] if k.startswith("mass_"))
        for p, row in enumerate(rows):
            if p > 0:
                prev = rows[p - 1]["E"]
                if not row["E"] + dt * row["D"] <= prev + ENTROPY_TOL * (1 + abs(prev)):
                    bad.append(f"step {p}: entropy inequality fails")
                if not row["min_u"] >= MIN_FRACTION:
                    bad.append(f"step {p}: min_u {row['min_u']!r}")
            for m in masses:
                drift = abs(row[m] - rows[0][m]) / abs(rows[0][m])
                if not drift <= MASS_DRIFT_TOL:
                    bad.append(f"step {p}: {m} drift {drift:.3e}")
            if not row["max_sum_dev"] <= SUM_DEV_TOL:
                bad.append(f"step {p}: max_sum_dev {row['max_sum_dev']!r}")
            if not row["max_fluxsum_dev"] <= FLUX_SUM_TOL:
                bad.append(f"step {p}: max_fluxsum_dev {row['max_fluxsum_dev']!r}")
        snapshots = {float(p.name[3:-4]): p for p in out_dir.glob("u_t*.csv")}
        if 0.0 not in snapshots or len(snapshots) < 2:
            return bad + [f"snapshots {sorted(snapshots)}"]
        with open(snapshots[max(snapshots)], encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            first_u = header.index("u_1")
            cells = 0
            for cols in reader:
                cells += 1
                total = math.fsum(float(v) for v in cols[first_u:])
                if not abs(total - 1.0) <= SNAPSHOT_SUM_TOL:
                    bad.append(f"final snapshot cell {cols[0]}: sum {total!r}")
                    break
        nx, ny = self.config["mesh"]["Nx"], self.config["mesh"]["Ny"]
        if cells != nx * ny:
            bad.append(f"final snapshot has {cells} rows")
        return bad


WORKLOADS = {w.name: w for w in (Conv1D(), Decay1D(), Blocks2D())}


def output_files(out_dir):
    """Relative path -> bytes of every file a repetition wrote."""
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}
