"""Metric definitions: end-to-end metrics and the traced per-layer breakdown.

Each per-layer metric records which end-to-end metric it should move and on
which workload, so that a change to one layer can be checked against its
prediction.  ``BENCHMARK.json`` lists the same names and units; the
benchmark's tests keep the two in step.  A ``_s`` metric is the layer's self
time summed over the run (its spans minus their child spans), except
``scheme.newton_step_s``, which is inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower",
           "call into smfv.cli.main to its return, outputs included; at reference host speed"),
    Metric("setup_s", "s", "lower",
           "call into smfv.cli.main to the first smfv.scheme.newton_step; at reference host speed"),
    Metric("ops_per_s", "op/s", "higher",
           "time steps (every grid of conv1d) per second after setup; at reference host speed"),
    Metric("peak_rss_mb", "MiB", "lower",
           "peak resident set (VmHWM) of the process running smfv.cli.main"),
)

PER_LAYER = (
    Metric("config.load_s", "s", "lower", "setup_s on blocks2d; flat on decay1d"),
    Metric("config.initial_s", "s", "lower", "setup_s on blocks2d; flat on decay1d"),
    Metric("mesh.build_s", "s", "lower", "setup_s on blocks2d; flat on decay1d"),
    Metric("mesh.build_calls", "count", "lower", "setup_s on blocks2d; flat on decay1d"),
    Metric("scheme.lu_factor_s", "s", "lower",
           "ops_per_s and peak_rss_mb on blocks2d; small share of conv1d and decay1d"),
    Metric("scheme.lu_factor_calls", "count", "lower",
           "ops_per_s on blocks2d; Jacobian reuse trades it against failures on blocks2d"),
    Metric("scheme.lu_fill_nnz", "count", "lower",
           "L+U nonzeros of the first factor: ops_per_s and peak_rss_mb on blocks2d"),
    Metric("scheme.lu_solve_s", "s", "lower", "ops_per_s on blocks2d"),
    Metric("scheme.residual_s", "s", "lower",
           "ops_per_s on conv1d and decay1d; nearly flat on blocks2d"),
    Metric("scheme.residual_calls", "count", "lower",
           "ops_per_s on conv1d and decay1d; nearly flat on blocks2d"),
    Metric("scheme.residual_evals_per_step", "count/step", "lower",
           "ops_per_s on conv1d and decay1d; nearly flat on blocks2d"),
    Metric("scheme.line_search_useful_ratio", "ratio", "higher",
           "Newton iterations / (residual calls - steps): ops_per_s on conv1d and decay1d"),
    Metric("scheme.edge_fluxes_s", "s", "lower", "ops_per_s on conv1d, through its N=1024 reference"),
    Metric("scheme.edge_fluxes_calls", "count", "lower", "ops_per_s on conv1d and decay1d"),
    Metric("scheme.jacobian_s", "s", "lower",
           "ops_per_s on conv1d and decay1d; a pattern built once moves cost to setup_s and peak_rss_mb"),
    Metric("scheme.jacobian_calls", "count", "lower", "ops_per_s on conv1d and decay1d"),
    Metric("scheme.newton_iters", "count", "lower",
           "ops_per_s on every PDE workload; step 1 of blocks2d takes 28"),
    Metric("scheme.newton_iters_per_step", "count/step", "lower", "ops_per_s on conv1d and decay1d"),
    Metric("scheme.newton_step_calls", "count", "lower", "time steps taken; fixed by the workload"),
    Metric("scheme.newton_step_s", "s", "lower", "inclusive step time: ops_per_s on every PDE workload"),
    Metric("scheme.newton_step_self_s", "s", "lower", "ops_per_s on every PDE workload"),
    Metric("scheme.newton_step_max_ms", "ms", "lower", "step 1 of blocks2d: wall_s on blocks2d"),
    Metric("scheme.projection_s", "s", "lower", "ops_per_s on decay1d"),
    Metric("diagnostics.record_s", "s", "lower", "wall_s on blocks2d"),
    Metric("diagnostics.relative_entropy_s", "s", "lower", "wall_s on decay1d"),
    Metric("diagnostics.l1_error_s", "s", "lower", "wall_s on conv1d"),
    Metric("cli.snapshot_s", "s", "lower", "wall_s on blocks2d only"),
    Metric("cli.snapshot_calls", "count", "lower", "wall_s on blocks2d only"),
    Metric("cli.output_bytes", "bytes", "lower", "wall_s on blocks2d only"),
    Metric("cli.main_self_s", "s", "lower", "untraced rest of main: wall_s on every workload"),
    Metric("trace.wall_s", "s", "lower", "wall_s of the traced repetitions"),
    Metric("trace.overhead_s", "s", "lower", "traced minus untraced wall_s"),
    Metric("trace.overhead_ratio", "ratio", "lower", "tracing overhead over untraced wall_s"),
    Metric("trace.missing_hooks", "count", "lower", "hook targets that no longer exist"),
)

# Counts a later change may rest a claim on: they must repeat exactly.
EXACT_COUNTS = ("scheme.newton_iters", "scheme.residual_calls",
                "scheme.lu_factor_calls", "scheme.lu_fill_nnz")


def layer_metrics(summary, counters, missing, output_bytes, traced_wall, untraced_wall):
    """Per-layer metric values of one traced repetition."""

    def stat(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    steps = stat("scheme.newton_step", "calls")
    iters = counters.get("scheme.newton_iters", 0)
    residual_calls = stat("scheme.residual", "calls")
    factors = stat("scheme.lu_factor", "calls")
    wasted = residual_calls - steps
    values = {
        "config.load_s": stat("config.load"),
        "config.initial_s": stat("config.initial"),
        "mesh.build_s": stat("mesh.build"),
        "mesh.build_calls": stat("mesh.build", "calls"),
        "scheme.lu_factor_s": stat("scheme.lu_factor"),
        "scheme.lu_factor_calls": factors,
        "scheme.lu_fill_nnz": counters.get("scheme.lu_fill_nnz_first", 0),
        "scheme.lu_solve_s": stat("scheme.lu_solve"),
        "scheme.residual_s": stat("scheme.residual"),
        "scheme.residual_calls": residual_calls,
        "scheme.residual_evals_per_step": residual_calls / steps if steps else 0.0,
        "scheme.line_search_useful_ratio": iters / wasted if steps and wasted > 0 else 0.0,
        "scheme.edge_fluxes_s": stat("scheme.edge_fluxes"),
        "scheme.edge_fluxes_calls": stat("scheme.edge_fluxes", "calls"),
        "scheme.jacobian_s": stat("scheme.jacobian"),
        "scheme.jacobian_calls": stat("scheme.jacobian", "calls"),
        "scheme.newton_iters": iters,
        "scheme.newton_iters_per_step": iters / steps if steps else 0.0,
        "scheme.newton_step_calls": steps,
        "scheme.newton_step_s": stat("scheme.newton_step", "total_s"),
        "scheme.newton_step_self_s": stat("scheme.newton_step"),
        "scheme.newton_step_max_ms": 1e3 * stat("scheme.newton_step", "max_s"),
        "scheme.projection_s": stat("scheme.projection"),
        "diagnostics.record_s": stat("diagnostics.record"),
        "diagnostics.relative_entropy_s": stat("diagnostics.relative_entropy"),
        "diagnostics.l1_error_s": stat("diagnostics.l1_error"),
        "cli.snapshot_s": stat("cli.snapshot"),
        "cli.snapshot_calls": stat("cli.snapshot", "calls"),
        "cli.output_bytes": output_bytes,
        "cli.main_self_s": stat("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.missing_hooks": len(missing),
    }
    assert set(values) == {m.name for m in PER_LAYER}
    return values
