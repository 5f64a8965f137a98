"""Command-line driver: run, convergence, entropy-decay, check.

All outputs are headered CSV (UTF-8, LF line endings) with floats written
at 17 significant digits so values round-trip exactly; outputs are
byte-for-byte deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import run_property_suite
from .config import ConfigError, RunConfig, load_config_file, preset_initial
from .diagnostics import (DiagnosticsRecord, SampledRun, equilibrium_composition,
                          l1_space_time_error, relative_entropy)
from .mesh import uniform_interval
from .scheme import NonConvergence, num_time_steps, run

DEFAULT_GRIDS = (16, 32, 64, 128)
DEFAULT_REF = 1024


def _fmt(x) -> str:
    return f"{x:.17g}"


def _open_out(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_snapshot(out_dir: Path, mesh, values, t: float) -> Path:
    path = out_dir / f"u_t{t!r}.csv"
    n = values.shape[0]
    coords = ["x", "y"][: mesh.dimension]
    with _open_out(path) as fh:
        fh.write("cell," + ",".join(coords)
                 + "," + ",".join(f"u_{i + 1}" for i in range(n)) + "\n")
        for k in range(mesh.num_cells):
            cols = [str(k)]
            cols += [_fmt(c) for c in mesh.cell_centers[k]]
            cols += [_fmt(values[i, k]) for i in range(n)]
            fh.write(",".join(cols) + "\n")
    return path


class _SnapshotSchedule:
    """Emit each requested time at the first step time at or past it."""

    def __init__(self, out_dir, mesh, times):
        self.out_dir = out_dir
        self.mesh = mesh
        self.pending = sorted(times)
        self.written = []

    def offer(self, t, values):
        while self.pending and t >= self.pending[0] - 1e-12 * max(1.0, abs(self.pending[0])):
            self.pending.pop(0)
            path = _write_snapshot(self.out_dir, self.mesh, values, t)
            if not self.written or self.written[-1] != path:
                self.written.append(path)


def _diag_header(n: int) -> str:
    masses = ",".join(f"mass_{i + 1}" for i in range(n))
    return (f"t,E,D,H,{masses},min_u,max_sum_dev,max_fluxsum_dev,newton_iters\n")


def _diag_row(rec: DiagnosticsRecord) -> str:
    cols = [_fmt(rec.time), _fmt(rec.entropy), _fmt(rec.dissipation),
            _fmt(rec.relative_entropy)]
    cols += [_fmt(m) for m in rec.masses]
    cols += [_fmt(rec.min_fraction), _fmt(rec.max_sum_deviation),
             _fmt(rec.max_flux_sum_deviation), str(rec.newton_iterations)]
    return ",".join(cols) + "\n"


def cmd_run(config: RunConfig, out_dir=None) -> int:
    """Single simulation: diagnostics.csv plus the requested field snapshots."""
    mesh = config.build_mesh()
    system = config.species
    u0 = preset_initial(config.initial, mesh, system.n)
    equilibrium = equilibrium_composition(u0)
    out = Path(out_dir or config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    snapshots = _SnapshotSchedule(out, mesh, config.output.snapshot_times)
    every = config.output.diagnostics_every
    total_steps = num_time_steps(config.time.dt, config.time.t_end)

    with _open_out(out / "diagnostics.csv") as fh:
        fh.write(_diag_header(system.n))
        rec0 = DiagnosticsRecord.from_step(system, mesh, u0, None, equilibrium, 0.0)
        fh.write(_diag_row(rec0))
        snapshots.offer(0.0, u0.values)
        step_counter = {"p": 0}

        def sink(t, state, fluxes, stats):
            step_counter["p"] += 1
            p = step_counter["p"]
            if p % every == 0 or p == total_steps:
                rec = DiagnosticsRecord.from_step(system, mesh, state, fluxes,
                                                  equilibrium, t, stats)
                fh.write(_diag_row(rec))
            snapshots.offer(t, state.values)

        run(system, mesh, u0, config.time.dt, config.time.t_end,
            config.solver, sink)
    return 0


def _collect_sampled_run(config: RunConfig, n_cells: int) -> SampledRun:
    mesh = uniform_interval(n_cells)
    system = config.species
    u0 = preset_initial(config.initial, mesh, system.n)
    states = []

    def sink(t, state, fluxes, stats):
        states.append(state.values)

    run(system, mesh, u0, config.time.dt, config.time.t_end, config.solver, sink)
    dts = np.full(len(states), config.time.dt)
    return SampledRun(mesh, dts, states)


def cmd_convergence(config: RunConfig, grids=None, ref_n=None, out_dir=None) -> int:
    """Grid-refinement study against a nested reference run, same dt."""
    if config.mesh.dimension != 1:
        raise ConfigError("the convergence study requires a 1D mesh configuration")
    if grids is None:
        grids = config.convergence.grids if config.convergence else DEFAULT_GRIDS
    if ref_n is None:
        ref_n = config.convergence.ref_n if config.convergence else DEFAULT_REF
    grids = tuple(sorted(int(g) for g in grids))
    ref_n = int(ref_n)
    if ref_n < 1:
        raise ConfigError(f"--ref must be a positive integer (got {ref_n})")
    for g in grids:
        if g < 1 or ref_n % g != 0:
            raise ConfigError(f"reference grid {ref_n} must be an integer "
                              f"multiple of every study grid (offending N = {g})")

    ref_run = _collect_sampled_run(config, ref_n)
    errors = []
    for g in grids:
        coarse = _collect_sampled_run(config, g)
        errors.append(l1_space_time_error(coarse, ref_run))

    out = Path(out_dir or config.output.directory)
    with _open_out(out / "convergence.csv") as fh:
        fh.write("N,l1_error,observed_order\n")
        for i, (g, err) in enumerate(zip(grids, errors)):
            if i == 0 or errors[i - 1] <= 0.0 or err <= 0.0:
                order = ""
            else:
                order = _fmt(math.log(errors[i - 1] / err)
                             / math.log(g / grids[i - 1]))
            fh.write(f"{g},{_fmt(err)},{order}\n")
    for g, err in zip(grids, errors):
        print(f"N={g}: L1(Q_T) error vs N={ref_n} reference = {err:.6e}")
    return 0


def fit_decay_rate(times, values, window_start, tiny: float = 1e-15):
    """Least-squares slope of log(values) vs time over t >= window_start.

    Returns (status, slope, r_squared, n_points); rows with values <= tiny
    are excluded.  When no row anywhere exceeds ``tiny`` the data is already
    at equilibrium and the fit is skipped.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.any(values > tiny):
        return "already at equilibrium", None, None, 0
    keep = (times >= window_start) & (values > tiny)
    if keep.sum() < 2:
        return "insufficient data in fit window", None, None, int(keep.sum())
    t = times[keep]
    logs = np.log(values[keep])
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    ss_res = float(((logs - fitted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return "ok", float(slope), float(r2), int(keep.sum())


def cmd_entropy_decay(config: RunConfig, out_dir=None) -> int:
    """Relative-entropy trace plus a log-linear fit over the second half."""
    mesh = config.build_mesh()
    system = config.species
    u0 = preset_initial(config.initial, mesh, system.n)
    equilibrium = equilibrium_composition(u0)
    times = [0.0]
    h_values = [relative_entropy(mesh, u0, equilibrium)]

    def sink(t, state, fluxes, stats):
        times.append(t)
        h_values.append(relative_entropy(mesh, state, equilibrium))

    run(system, mesh, u0, config.time.dt, config.time.t_end, config.solver, sink)

    out = Path(out_dir or config.output.directory)
    with _open_out(out / "entropy.csv") as fh:
        fh.write("t,H\n")
        for t, h in zip(times, h_values):
            fh.write(f"{_fmt(t)},{_fmt(h)}\n")

    window_start = 0.5 * config.time.t_end
    status, slope, r2, points = fit_decay_rate(times, h_values, window_start)
    fit = {"status": status, "slope": slope, "r_squared": r2,
           "points": points, "window_start": window_start}
    with _open_out(out / "decay_fit.json") as fh:
        json.dump(fit, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if status == "ok":
        print(f"fitted decay rate: dH/dt log-slope = {slope:.6g} "
              f"(R^2 = {r2:.6f}, {points} points)")
    else:
        print(f"decay fit skipped: {status}")
    return 0


def cmd_check(seed: int = 0, out_dir=None, config: RunConfig = None) -> int:
    """Structural property suite; returns 1 when any property fails."""
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer (got {seed})")
    extra = config.species if config is not None else None
    results = run_property_suite(seed=seed, extra_system=extra)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        extra_txt = f"  ({res.detail})" if res.detail else ""
        print(f"{tag} {res.name}: worst deviation {res.worst:.3e} "
              f"vs tolerance {res.tolerance:.1e} over {res.samples} samples{extra_txt}")
    report = {"seed": seed, "all_passed": all(r.passed for r in results),
              "properties": [r.as_dict() for r in results]}
    out = Path(out_dir) if out_dir else Path(
        config.output.directory if config is not None else "out")
    with _open_out(out / "check_report.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if report["all_passed"] else 1


def _parse_grids(text: str):
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"--grids must be a comma-separated list of integers: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smfv",
        description="Entropy-stable finite-volume simulator for "
                    "multicomponent cross-diffusion mixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation with CSV outputs")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_conv = sub.add_parser("convergence", help="grid-refinement error study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--out", default=None)
    p_conv.add_argument("--grids", default=None,
                        help="comma-separated study grids, e.g. 16,32,64,128")
    p_conv.add_argument("--ref", type=int, default=None,
                        help="reference grid size (multiple of every study grid)")

    p_dec = sub.add_parser("entropy-decay", help="relative-entropy decay fit")
    p_dec.add_argument("--config", required=True)
    p_dec.add_argument("--out", default=None)

    p_chk = sub.add_parser("check", help="randomised structural property suite")
    p_chk.add_argument("--config", default=None,
                       help="optional config whose species system joins the suite")
    p_chk.add_argument("--out", default=None)
    p_chk.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(load_config_file(args.config), out_dir=args.out)
        if args.command == "convergence":
            grids = _parse_grids(args.grids) if args.grids else None
            return cmd_convergence(load_config_file(args.config),
                                   grids=grids, ref_n=args.ref, out_dir=args.out)
        if args.command == "entropy-decay":
            return cmd_entropy_decay(load_config_file(args.config), out_dir=args.out)
        if args.command == "check":
            config = load_config_file(args.config) if args.config else None
            return cmd_check(seed=args.seed, out_dir=args.out, config=config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
