"""Acceptance suite: every criterion at its stated tolerance, one line each.

The heavy experiment bundles (grid-refinement sweep, 2D run, decay run) are
computed once per session and shared across the criteria that inspect them.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import _report
from smfv.checks import (check_abar_kernel_range, check_b_inverse_bound,
                         check_b_lower_bound, check_flux_formula_equivalence,
                         check_jacobian_fd, check_m_inv_abar_psd,
                         check_simplex_identity)
from smfv.cli import fit_decay_rate
from smfv.config import InitialConfig, preset_initial
from smfv.diagnostics import (DiagnosticsRecord, SampledRun,
                              equilibrium_composition, l1_space_time_error)
from smfv.mesh import disjoint_union, uniform_interval, uniform_rectangle
from smfv.model import build_system, mat_Abar
from smfv.scheme import FluxField, StateField, log_mean, newton_step, run

CONV_GRIDS = (16, 32, 64, 128)
CONV_REF = 1024
CONV_DT = 1e-4
CONV_T = 0.25
BLOCKS_2D = [
    {"species": 0, "box": [0.0, 0.5, 0.0, 0.5]},
    {"species": 0, "box": [0.5, 1.0, 0.5, 1.0]},
    {"species": 1, "box": [0.5, 1.0, 0.0, 0.5]},
]


def check(criterion, ok, detail):
    _report.record(criterion, ok, detail)
    assert ok, f"{criterion}: {detail}"


@dataclass
class RunTrace:
    """The diagnostics records of one run, at t = 0 and after every step."""

    dt: float
    records: list = field(default_factory=list)
    post_devs: list = field(default_factory=list)
    sampled: SampledRun = None

    def series(self, name, include_initial=False):
        return [getattr(rec, name) for rec in self.records[0 if include_initial else 1:]]

    def mass_drifts(self):
        initial = self.records[0].masses
        return [float((np.abs(rec.masses - initial) / initial).max())
                for rec in self.records[1:]]


def trace_run(system, u0, dt, t_end, sample=False, parts=None):
    """The traces of a run from ``u0``: one, or with ``parts`` one per component.

    ``parts`` lists, in order, the meshes whose disjoint union ``u0`` lies
    on; each component's trace is built from the slices of every step's
    state and fluxes that belong to it.
    """
    parts = parts or [u0.mesh]
    cells = np.cumsum([0] + [m.num_cells for m in parts])
    edges = np.cumsum([0] + [m.num_interior_edges for m in parts])

    def split(state, fluxes):
        for mesh, a, b, e, f in zip(parts, cells, cells[1:], edges, edges[1:]):
            yield (StateField(mesh, state.values[:, a:b]),
                   None if fluxes is None else FluxField(mesh, fluxes.values[:, e:f]))

    traces = [RunTrace(dt=dt) for _ in parts]
    equilibria = []
    for trace, (state, _) in zip(traces, split(u0, None)):
        equilibria.append(equilibrium_composition(state))
        trace.records.append(DiagnosticsRecord.from_step(system, state, None,
                                                         equilibria[-1], 0.0))
    states = [[] for _ in parts]

    def sink(t, state, fluxes, stats):
        for trace, equilibrium, sampled, (part, part_fluxes) in zip(
                traces, equilibria, states, split(state, fluxes)):
            trace.records.append(DiagnosticsRecord.from_step(
                system, part, part_fluxes, equilibrium, t, stats))
            trace.post_devs.append(part.sum_deviation())
            if sample:
                sampled.append(part.values)

    run(system, u0, dt, t_end, sink)
    if sample:
        for trace, mesh, sampled in zip(traces, parts, states):
            trace.sampled = SampledRun(mesh, np.full(len(sampled), dt), sampled)
    return traces


@pytest.fixture(scope="module")
def convergence_bundle(system_1d):
    # the reference and the study grids advance as one run on their union;
    # the pre-projection deviation of each grid's records is the union's
    sizes = (CONV_REF,) + CONV_GRIDS
    meshes = [uniform_interval(n) for n in sizes]
    u0 = preset_initial(InitialConfig("smooth1d"), disjoint_union(meshes)[0], 3)
    traces = dict(zip(sizes, trace_run(system_1d, u0, CONV_DT, CONV_T, sample=True,
                                       parts=meshes)))
    errors = {n: l1_space_time_error(traces[n].sampled, traces[CONV_REF].sampled)
              for n in CONV_GRIDS}
    return traces, errors


@pytest.fixture(scope="module")
def run_2d(system_2d):
    mesh = uniform_rectangle(35, 35)
    u0 = preset_initial(InitialConfig("blocks2d", {"blocks": BLOCKS_2D}), mesh, 3)
    trace, = trace_run(system_2d, u0, 1e-5, 200 * 1e-5)
    return trace


@pytest.fixture(scope="module")
def decay_run(system_1d):
    mesh = uniform_interval(64)
    u0 = preset_initial(InitialConfig("smooth1d"), mesh, 3)
    trace, = trace_run(system_1d, u0, 1e-4, 0.5)
    return trace


def all_traces(convergence_bundle, run_2d, decay_run):
    traces = list(convergence_bundle[0].values())
    traces.append(run_2d)
    traces.append(decay_run)
    return traces


def test_criterion_1_spatial_convergence(convergence_bundle):
    _, errors = convergence_bundle
    orders = [math.log2(errors[n] / errors[2 * n]) for n in CONV_GRIDS[:-1]]
    ok = all(1.7 <= o <= 2.3 for o in orders)
    detail = ("observed orders " + ", ".join(f"{o:.3f}" for o in orders)
              + f" on grids {CONV_GRIDS} vs reference N={CONV_REF}")
    check("criterion 1: spatial convergence order in [1.7, 2.3]", ok, detail)


def test_criterion_2_entropy_dissipation(convergence_bundle, run_2d):
    violations = 0
    worst = -np.inf
    total = 0
    for trace in list(convergence_bundle[0].values()) + [run_2d]:
        e = trace.series("entropy", include_initial=True)
        for p, d in enumerate(trace.series("dissipation"), start=1):
            slack = 1e-10 * (1.0 + abs(e[p - 1]))
            gap = e[p] + trace.dt * d - e[p - 1]
            worst = max(worst, gap - slack)
            violations += gap > slack
            total += 1
    ok = violations == 0
    check("criterion 2: per-step entropy-dissipation inequality",
          ok, f"{violations} violations over {total} steps "
              f"(worst slack excess {worst:.3e})")


def test_criterion_3_mass_conservation(convergence_bundle, run_2d, decay_run):
    worst = max(max(t.mass_drifts()) for t in
                all_traces(convergence_bundle, run_2d, decay_run))
    check("criterion 3: species mass conservation <= 1e-8 relative",
          worst <= 1e-8, f"worst relative drift {worst:.3e}")


def test_criterion_4_volume_filling(convergence_bundle, run_2d, decay_run):
    traces = all_traces(convergence_bundle, run_2d, decay_run)
    pre = max(max(t.series("max_sum_deviation")) for t in traces)
    post = max(max(t.post_devs) for t in traces)
    ok = pre <= 1e-10 and post <= 1e-15
    check("criterion 4: volume filling (pre <= 1e-10, post <= 1e-15)",
          ok, f"pre-projection {pre:.3e}, post-projection {post:.3e}")


def test_criterion_5_positivity(convergence_bundle, run_2d, decay_run):
    worst = min(min(t.series("min_fraction")) for t in
                all_traces(convergence_bundle, run_2d, decay_run))
    check("criterion 5: positivity min u >= 1e-12",
          worst >= 1e-12, f"smallest fraction seen {worst:.3e}")


def test_criterion_6_zero_total_flux(convergence_bundle, run_2d, decay_run):
    worst = max(max(t.series("max_flux_sum_deviation")) for t in
                all_traces(convergence_bundle, run_2d, decay_run))
    check("criterion 6: zero total flux <= 1e-10",
          worst <= 1e-10, f"worst |sum_i J_i| {worst:.3e}")


def test_criterion_7_exponential_decay(decay_run):
    times = np.array(decay_run.series("time", include_initial=True))
    h_values = np.array(decay_run.series("relative_entropy", include_initial=True))
    monotone = bool(np.all(np.diff(h_values) <= 0.0))
    status, slope, r2, points = fit_decay_rate(times, h_values, 0.25)
    ok = monotone and status == "ok" and slope < 0.0 and r2 >= 0.99
    check("criterion 7: relative entropy nonincreasing, log-linear tail R^2 >= 0.99",
          ok, f"monotone={monotone}, slope={slope:.4f}, R^2={r2:.6f} "
              f"({points} fit points)")


def test_criterion_8_matrix_algebra_properties():
    results = []
    for check_fn in (check_m_inv_abar_psd, check_simplex_identity,
                     check_abar_kernel_range, check_b_lower_bound,
                     check_b_inverse_bound):
        rng = np.random.default_rng([42, len(results)])
        results.append(check_fn(rng, count=1000))
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: worst {r.worst:.2e}" for r in results)
    check("criterion 8: matrix algebra properties, 1000 instances each", ok, detail)


def test_criterion_9_jacobian_vs_finite_differences(system_1d, system_2d):
    # random systems, then the coefficients of the 1D and the 2D experiments
    rng = np.random.default_rng(43)
    results = [check_jacobian_fd(rng, count=100)]
    results += [check_jacobian_fd(rng, count=10, extra_system=s)
                for s in (system_1d, system_2d)]
    check("criterion 9: analytic Jacobian vs central differences <= 1e-5",
          all(r.passed for r in results),
          f"worst relative error {max(r.worst for r in results):.3e} "
          f"over {sum(r.samples for r in results)} states")


def test_criterion_10_small_instance_oracle():
    system = build_system([[0.0, 1.0], [1.0, 0.0]])
    mesh = uniform_interval(2)
    u_old = StateField(mesh, np.array([[0.25, 0.75], [0.75, 0.25]]))
    dt = 0.1

    def scalar_residual(a):
        # volume filling and mass conservation reduce the step to one unknown
        u_k = np.array([a, 1.0 - a])
        u_l = np.array([1.0 - a, a])
        u_sigma = np.array([log_mean(u_k[0], u_l[0]), log_mean(u_k[1], u_l[1])])
        s = system.c_star * np.eye(2) + mat_Abar(system, u_sigma)
        j = np.linalg.solve(s, -(u_l - u_k) / 0.5)
        return 0.5 * (a - 0.25) / dt + j[0]

    lo, hi = 1e-12, 1.0 - 1e-12
    bracketed = scalar_residual(lo) < 0.0 < scalar_residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scalar_residual(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    state, _, _ = newton_step(system, u_old, dt)
    err = abs(state.values[0, 0] - oracle)
    # the root in closed form: with c12 = 1, Abar = 0 and J_1 = -(1 - 2a)/0.5
    closed = abs(state.values[0, 0] - 3.25 / 9.0)
    check("criterion 10: 2-cell implicit step matches bisection oracle to 1e-10",
          bracketed and err <= 1e-10 and closed <= 1e-10,
          f"|newton - oracle| = {err:.3e}, |newton - 3.25/9| = {closed:.3e}, "
          f"bracketed={bracketed}")


def test_criterion_11_flux_formula_equivalence():
    rng = np.random.default_rng(44)
    result = check_flux_formula_equivalence(rng, count=500)
    check("criterion 11: flux solve equals resistance-form solution <= 1e-10",
          result.passed, f"worst deviation {result.worst:.3e} over "
                         f"{result.samples} random edges")
