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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checks import run_property_suite
from .config import (ConfigError, ConvergenceConfig, RunConfig, convergence_study,
                     load_config_file, preset_initial)
from .diagnostics import (DiagnosticsRecord, _relative_entropy_to, equilibrium_composition,
                          l1_level_args, l1_level_error)
from .mesh import disjoint_union, uniform_interval
from .scheme import NonConvergence, StateField, num_time_steps, run

_FIT_FLOOR = 1e-15   # relative entropies at or below this are left out of the fit
# Rows joined per snapshot write.  The blocks bound only the joined rows:
# each column's distinct text and inverse index live for the whole write.
# At 70x70 (4,900 rows; 2-core Xeon VM, Python 3.11, tracemalloc) the write
# traced 0.36 MiB for the blocks data's t = 0 state and 1.55 MiB for
# all-distinct fractions, against 1.12 and 2.69 MiB joined whole.  Taking
# the distinct values per block instead traced 0.26 MiB for all-distinct
# fractions but took the t = 0 write from 5.7 to 7.5 ms.
_SNAPSHOT_ROWS = 512


def _fmt(x) -> str:
    return f"{x:.17g}"


def _open_out(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _distinct_text(column):
    """``(text, inverse)``: the ``%.17g`` text of each distinct value of a float column.

    ``text[inverse]`` is the column's text, row by row.  Values are told
    apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    text = ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]
    return np.array(text, dtype=object), inverse


def _write_snapshot(out_dir: Path, state: StateField, t: float) -> None:
    """One row per cell of the state's mesh: index, center, volume fractions.

    The rows are those ``np.savetxt`` writes for the table with formats
    ``%d`` and ``%.17g``.  Each column of centers or fractions is formatted
    once per distinct value: a grid has few distinct coordinates, and
    initial data such as the blocks few distinct fractions.  The rows are
    joined from the looked-up text, ``_SNAPSHOT_ROWS`` at a time.
    """
    mesh = state.mesh
    coords = ["x", "y"][: mesh.dimension]
    species = [f"u_{i + 1}" for i in range(state.values.shape[0])]
    columns = [_distinct_text(c) for c in (*mesh.cell_centers.T, *state.values)]
    with _open_out(out_dir / f"u_t{t!r}.csv") as fh:
        fh.write(",".join(["cell"] + coords + species) + "\n")
        for start in range(0, mesh.num_cells, _SNAPSHOT_ROWS):
            stop = min(start + _SNAPSHOT_ROWS, mesh.num_cells)
            parts = [map(str, range(start, stop))]
            parts += [text[inverse[start:stop]].tolist() for text, inverse in columns]
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


class _SnapshotSchedule:
    """Emit each requested time at the first step time at or past it."""

    def __init__(self, out_dir, times):
        self.out_dir = out_dir
        self.pending = sorted(times)

    def offer(self, t, state: StateField):
        while self.pending and t >= self.pending[0] - 1e-12 * max(1.0, abs(self.pending[0])):
            self.pending.pop(0)
            _write_snapshot(self.out_dir, state, t)


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
    mesh = config.mesh.build()
    system = config.species
    u0 = preset_initial(config.initial, mesh, system.n)
    equilibrium = equilibrium_composition(u0)
    out = Path(out_dir or config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    snapshots = _SnapshotSchedule(out, config.output.snapshot_times)
    every = config.output.diagnostics_every
    total_steps = num_time_steps(config.time.dt, config.time.t_end)

    with _open_out(out / "diagnostics.csv") as fh:
        fh.write(_diag_header(system.n))
        rec0 = DiagnosticsRecord.from_step(system, u0, None, equilibrium, 0.0)
        fh.write(_diag_row(rec0))
        snapshots.offer(0.0, u0)
        step_counter = {"p": 0}

        def sink(t, state, fluxes, stats):
            step_counter["p"] += 1
            p = step_counter["p"]
            if p % every == 0 or p == total_steps:
                rec = DiagnosticsRecord.from_step(system, state, fluxes, equilibrium,
                                                  t, stats)
                fh.write(_diag_row(rec))
            snapshots.offer(t, state)

        run(system, u0, config.time.dt, config.time.t_end, sink)
    return 0


def cmd_convergence(config: RunConfig, grids=None, ref_n=None, out_dir=None) -> int:
    """Grid-refinement study against a nested reference run, same dt.

    The reference and every study grid of another size advance as one run
    on the disjoint union of their meshes.  After each step every grid's
    L1 term against the reference, restricted onto the grid, is added to
    its error; a grid of the reference's own size is the reference.
    """
    if config.mesh.dimension != 1:
        raise ConfigError("the convergence study requires a 1D mesh configuration")
    default = config.convergence or ConvergenceConfig()
    study = convergence_study(
        default.grids if grids is None else grids,
        default.ref_n if ref_n is None else ref_n,
        grids_field="convergence.grids" if grids is None else "--grids",
        ref_field="convergence.ref" if ref_n is None else "--ref")
    grids, ref_n = study.grids, study.ref_n
    sizes = [ref_n] + [g for g in grids if g != ref_n]
    meshes = [uniform_interval(g) for g in sizes]
    union, offsets = disjoint_union(meshes)
    dt = config.time.dt
    # per study grid: its cells in the union and its L1 grid arguments
    terms = [(offsets[j], offsets[j + 1], l1_level_args(meshes[j], meshes[0]))
             for j in map(sizes.index, grids)]
    errors = [0.0] * len(grids)

    def sink(t, state, fluxes, stats):
        ref = state.values[:, :offsets[1]]
        for i, (a, b, grid) in enumerate(terms):
            errors[i] += dt * l1_level_error(state.values[:, a:b], ref, *grid)

    u0 = preset_initial(config.initial, union, config.species.n)
    run(config.species, u0, dt, config.time.t_end, sink)

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


def fit_decay_rate(times, values, window_start):
    """Least-squares slope of log(values) vs time over t >= window_start.

    Returns (status, slope, r_squared, n_points); rows with values at or
    below 1e-15 are excluded.  When no row exceeds 1e-15 the data is already
    at equilibrium and the fit is skipped.  The line is fitted in closed
    form about the means: the LAPACK solve of ``np.polyfit`` took 1.25 MiB
    of resident memory, which set the entropy-decay run's peak.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.any(values > _FIT_FLOOR):
        return "already at equilibrium", None, None, 0
    keep = (times >= window_start) & (values > _FIT_FLOOR)
    t = times[keep]
    if len(np.unique(t)) < 2:
        return "insufficient data in fit window", None, None, len(t)
    logs = np.log(values[keep])
    t_dev, log_dev = t - t.mean(), logs - logs.mean()
    slope = float(t_dev @ log_dev) / float(t_dev @ t_dev)
    ss_res = float(((log_dev - slope * t_dev) ** 2).sum())
    ss_tot = float((log_dev ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return "ok", slope, float(r2), len(t)


def cmd_entropy_decay(config: RunConfig, out_dir=None) -> int:
    """Relative-entropy trace plus a log-linear fit over the second half."""
    mesh = config.mesh.build()
    system = config.species
    u0 = preset_initial(config.initial, mesh, system.n)
    # the equilibrium is checked and its logarithm taken once for the run
    to_equilibrium = _relative_entropy_to(equilibrium_composition(u0), system.n)
    times = [0.0]
    h_values = [to_equilibrium(u0)]

    def sink(t, state, fluxes, stats):
        times.append(t)
        h_values.append(to_equilibrium(state))

    run(system, u0, config.time.dt, config.time.t_end, sink)

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
              "properties": [asdict(r) for r in results]}
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
                       help="optional config whose species system every sample of the "
                            "system checks takes in place of a random one")
    p_chk.add_argument("--out", default=None)
    p_chk.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(load_config_file(args.config), out_dir=args.out)
        if args.command == "convergence":
            grids = _parse_grids(args.grids) if args.grids is not None else None
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
