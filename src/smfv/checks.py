"""Randomised structural property suite backing the ``check`` subcommand.

Each check draws random systems/states from a seeded generator, measures the
worst deviation from the property it verifies, and reports pass/fail against
a fixed tolerance.  Failures are reported, never raised.  A check given an
``extra_system`` takes that system for every sample in place of a random
one; the states stay random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .mesh import Mesh, uniform_interval, uniform_rectangle, validate
from .scheme import (PROJECTION_FLOOR, StateField, _edge_fluxes,
                     _log_mean_with_partials, jacobian, log_mean, project_simplex,
                     residual)
from . import diagnostics

PSD_TOL = -1e-10
IDENTITY_TOL = 1e-14
_FD_STEP = 1e-6   # finite-difference Jacobian step at coefficient contrast <= 1


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    samples: int
    detail: str = ""

    def __post_init__(self):
        # checks may compute with numpy scalars; the report must be plain JSON
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))


def _random_system(rng, n=None):
    n = int(n if n is not None else rng.integers(2, 6))
    c = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = rng.uniform(0.1, 2.0, size=len(iu[0]))
    c[iu] = vals
    c = c + c.T
    return model.build_system(c)


def _random_positive(rng, n, low=0.01):
    return rng.uniform(low, 1.0, size=n)


def _random_simplex(rng, n, floor=0.01):
    v = rng.exponential(size=n) + floor
    return v / v.sum()


def _random_edge_composition(rng, n):
    """Componentwise log mean of two interior simplex points.

    This is the domain where the flux-resistance bounds are used; such
    vectors are strictly positive with components and component sum <= 1.
    """
    return log_mean(_random_simplex(rng, n), _random_simplex(rng, n))


def _min_eig_sym(x):
    return float(np.linalg.eigvalsh(0.5 * (x + x.T)).min())


def _systems(rng, count, extra_system):
    """The system of each of ``count`` samples: ``extra_system`` if given, else random."""
    for _ in range(count):
        yield extra_system if extra_system is not None else _random_system(rng)


def check_m_inv_abar_psd(rng, count=1000, extra_system=None):
    """diag(v)^-1 Abar(v) is symmetric PSD for v in (0, 1]^n."""
    worst_eig = np.inf
    worst_asym = 0.0
    for system in _systems(rng, count, extra_system):
        v = _random_positive(rng, system.n)
        x = model.mat_Abar(system, v) / v[:, None]
        worst_asym = max(worst_asym, float(np.abs(x - x.T).max()))
        worst_eig = min(worst_eig, _min_eig_sym(x))
    passed = worst_eig >= PSD_TOL and worst_asym <= 1e-12
    return PropertyResult("m_inv_abar_psd", passed, worst_eig, PSD_TOL, count,
                          detail=f"max asymmetry {worst_asym:.3e}")


def check_est_upper_bound(rng, count=1000, extra_system=None):
    """2 cbar_max diag(v)^-1 - diag(v)^-1 Abar(v) is PSD at edge compositions.

    The bound needs sum_{j != i} v_j <= 1 (it fails on the full unit box,
    e.g. cbar pattern (0, a, a) at v = (1, 1, 1)); edge compositions satisfy
    that because componentwise log means of simplex points sum to at most one.
    """
    worst = np.inf
    for system in _systems(rng, count, extra_system):
        v = _random_edge_composition(rng, system.n)
        x = 2.0 * system.c_bar_max * np.diag(1.0 / v) - model.mat_Abar(system, v) / v[:, None]
        worst = min(worst, _min_eig_sym(x))
    return PropertyResult("est_upper_bound_psd", worst >= PSD_TOL, worst,
                          PSD_TOL, count)


def check_identity_decomposition(rng, count=1000, extra_system=None):
    """A(v) = c* <1,v> I - c* C(v) + Abar(v) entrywise, for v >= 0."""
    worst = 0.0
    for system in _systems(rng, count, extra_system):
        v = rng.uniform(0.0, 1.0, size=system.n)
        lhs = model.mat_A(system, v)
        rhs = (system.c_star * v.sum() * np.eye(system.n)
               - system.c_star * model.mat_C(v) + model.mat_Abar(system, v))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return PropertyResult("identity_decomposition", worst <= IDENTITY_TOL,
                          worst, IDENTITY_TOL, count)


def check_simplex_identity(rng, count=1000, extra_system=None):
    """A(u) = c* I - c* C(u) + Abar(u) entrywise on the unit simplex."""
    worst = 0.0
    for system in _systems(rng, count, extra_system):
        u = _random_simplex(rng, system.n)
        lhs = model.mat_A(system, u)
        rhs = (system.c_star * np.eye(system.n)
               - system.c_star * model.mat_C(u) + model.mat_Abar(system, u))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return PropertyResult("simplex_identity", worst <= IDENTITY_TOL,
                          worst, IDENTITY_TOL, count)


def check_abar_kernel_range(rng, count=1000, extra_system=None):
    """Abar(v) v = 0 and columns of Abar(v) sum to zero, any v, w."""
    worst = 0.0
    for system in _systems(rng, count, extra_system):
        v = rng.uniform(-1.0, 1.0, size=system.n)
        w = rng.uniform(-1.0, 1.0, size=system.n)
        abar = model.mat_Abar(system, v)
        worst = max(worst, float(np.abs(abar @ v).max()),
                    abs(float(np.ones(system.n) @ (abar @ w))))
    return PropertyResult("abar_kernel_range", worst <= IDENTITY_TOL,
                          worst, IDENTITY_TOL, count)


def check_a_kernel_rank(rng, count=200, extra_system=None):
    """For positive v: ker A(v) = span{v} and ran A(v) = {sum = 0}."""
    worst = 0.0
    rank_ok = True
    for system in _systems(rng, count, extra_system):
        v = _random_positive(rng, system.n, low=0.05)
        a = model.mat_A(system, v)
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-2] <= 1e-10 * sv[0]:  # rank must be exactly n - 1
            rank_ok = False
        worst = max(worst,
                    sv[-1] / sv[0],
                    float(np.abs(a @ v).max()) / float(np.abs(a).max()),
                    float(np.abs(a.sum(axis=0)).max()) / float(np.abs(a).max()))
    passed = rank_ok and worst <= 1e-12
    return PropertyResult("a_kernel_rank", passed, worst, 1e-12, count,
                          detail="" if rank_ok else "rank deficiency detected")


def check_b_lower_bound(rng, count=1000, extra_system=None):
    """B(v) is symmetric with eigenvalues at least c*, for v in (0, 1]^n."""
    worst = np.inf
    worst_asym = 0.0
    for system in _systems(rng, count, extra_system):
        v = _random_positive(rng, system.n)
        b = model.mat_B(system, v)
        worst_asym = max(worst_asym, float(np.abs(b - b.T).max()))
        worst = min(worst, _min_eig_sym(b) - system.c_star)
    passed = worst >= PSD_TOL and worst_asym <= 1e-12
    return PropertyResult("b_lower_bound", passed, worst, PSD_TOL, count,
                          detail=f"max asymmetry {worst_asym:.3e}")


def check_b_inverse_bound(rng, count=1000, extra_system=None):
    """B(v)^-1 - M(v)/(c* + 2 cbar_max) is PSD at edge compositions.

    Follows from the est upper bound by operator-inverse monotonicity, hence
    shares its component-sum hypothesis; sampled on the same domain.
    """
    worst = np.inf
    for system in _systems(rng, count, extra_system):
        v = _random_edge_composition(rng, system.n)
        binv = np.linalg.inv(model.mat_B(system, v))
        x = binv - np.diag(v) / (system.c_star + 2.0 * system.c_bar_max)
        worst = min(worst, _min_eig_sym(x))
    return PropertyResult("b_inverse_bound", worst >= PSD_TOL, worst,
                          PSD_TOL, count)


def _edge_flux(system, uk, ul, d_sigma):
    """The scheme's flux J_{K->L} on two cells of width d_sigma sharing a unit face."""
    mesh = Mesh(cell_centers=[[0.5 * d_sigma], [1.5 * d_sigma]],
                cell_measures=[d_sigma, d_sigma], edge_cell_k=[0], edge_cell_l=[1],
                edge_measure=[1.0], edge_distance=[d_sigma], grid_shape=(2,),
                cell_lower=[[0.0], [d_sigma]], cell_upper=[[d_sigma], [2.0 * d_sigma]])
    return _edge_fluxes(system, mesh, np.column_stack([uk, ul]))[0][:, 0]


def check_flux_zero_sum(rng, count=500, extra_system=None):
    """The edge flux sums to -sum(du)/(c* d_sigma), zero when the jumps sum to zero.

    Since 1^T (c* I + Abar) = c* 1^T, the identity is exact; it is checked
    directly because the jumps of two rounded simplex points need not sum to
    exactly zero.
    """
    worst = 0.0
    for system in _systems(rng, count, extra_system):
        uk = _random_simplex(rng, system.n)
        ul = _random_simplex(rng, system.n)
        d_sigma = rng.uniform(0.1, 1.0)
        du = ul - uk
        j = _edge_flux(system, uk, ul, d_sigma)
        bound = 1e-12 * float(np.abs(du).max()) / d_sigma
        expected = -float(du.sum()) / (system.c_star * d_sigma)
        excess = abs(float(j.sum()) - expected) - bound
        worst = max(worst, excess)
    return PropertyResult("flux_zero_sum", worst <= 0.0, worst, 0.0, count,
                          detail="excess over 1e-12*|du|/d_sigma")


def check_flux_formula_equivalence(rng, count=500, extra_system=None):
    """The edge flux equals -B(u_sigma)^-1 (log u_L - log u_K)/d_sigma."""
    worst = 0.0
    for system in _systems(rng, count, extra_system):
        uk = _random_simplex(rng, system.n)
        ul = _random_simplex(rng, system.n)
        d_sigma = rng.uniform(0.1, 1.0)
        j = _edge_flux(system, uk, ul, d_sigma)
        dlog = np.log(ul) - np.log(uk)
        j_ref = -np.linalg.solve(model.mat_B(system, log_mean(uk, ul)), dlog) / d_sigma
        worst = max(worst, float(np.abs(j - j_ref).max()))
    return PropertyResult("flux_formula_equivalence", worst <= 1e-10, worst,
                          1e-10, count)


def finite_difference_jacobian(system, u_new: StateField, u_old: StateField,
                               dt: float) -> np.ndarray:
    """Dense central-difference Jacobian of the residual, the FD oracle.

    It is taken on the mesh of ``u_new``, which ``u_old`` must share.  The
    residual's rounding error grows with the coefficient contrast
    cbar_max/c*, and a central difference divides it by the step while its
    truncation error grows as the step squared; the step therefore grows
    as the contrast's cube root from ``_FD_STEP``.  At a contrast of 1e6 the
    fixed step 1e-6 left a rounding error of 1.4e-5, this one 2e-7.
    """
    n = system.n
    mesh = u_new.mesh
    size = mesh.num_cells * n
    out = np.zeros((size, size))
    base = u_new.values
    step = _FD_STEP * max(1.0, system.c_bar_max / system.c_star) ** (1.0 / 3.0)
    for cell in range(mesh.num_cells):
        for i in range(n):
            col = cell * n + i
            plus = base.copy()
            minus = base.copy()
            plus[i, cell] += step
            minus[i, cell] -= step
            r_plus = residual(system, StateField(mesh, plus), u_old, dt)
            r_minus = residual(system, StateField(mesh, minus), u_old, dt)
            out[:, col] = (r_plus - r_minus).T.ravel() / (2.0 * step)
    return out


def check_jacobian_fd(rng, count=100, extra_system=None):
    """Analytic Jacobian vs central differences on small random states."""
    worst = 0.0
    meshes = [uniform_interval(int(rng.integers(2, 9))) for _ in range(count // 2)]
    meshes += [uniform_rectangle(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
               for _ in range(count - count // 2)]
    for mesh in meshes:
        system = extra_system if extra_system is not None else _random_system(rng, n=3)
        vals = rng.uniform(0.05, 1.0, size=(system.n, mesh.num_cells))
        old = np.stack([_random_simplex(rng, system.n) for _ in range(mesh.num_cells)]).T
        u_new = StateField(mesh, vals)
        u_old = StateField(mesh, old)
        dt = 0.1
        analytic = jacobian(system, u_new, dt).toarray()
        fd = finite_difference_jacobian(system, u_new, u_old, dt)
        err = float(np.abs(analytic - fd).max() / np.abs(fd).max())
        worst = max(worst, err)
    return PropertyResult("jacobian_vs_finite_differences", worst <= 1e-5,
                          worst, 1e-5, count)


def check_log_mean(rng, count=2000, extra_system=None):
    """Branches, containment and partials (vs central differences) of the log mean.

    Every other pair has a relative gap in 1e-16..1e-2, where the closed
    form of the partials cancels and the series gives them; there both
    partials are checked (difference step 1e-6 a).  The log mean itself is
    one log1p formula on every pair.
    """
    worst = 0.0
    ok = True
    for k in range(count):
        a, b = rng.uniform(1e-8, 10.0, size=2)
        if k % 2:
            b = a * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -2.0))
            _, da, db = _log_mean_with_partials(a, b)
            h = 1e-6 * a
            fd_a = (log_mean(a + h, b) - log_mean(a - h, b)) / (2.0 * h)
            fd_b = (log_mean(a, b + h) - log_mean(a, b - h)) / (2.0 * h)
            worst = max(worst, abs(da - fd_a) / fd_a, abs(db - fd_b) / fd_b)
        lam = log_mean(a, b)
        if max(min(a, b) - lam, lam - max(a, b)) > 1e-15 * max(a, b):
            ok = False
        if log_mean(0.0, b) != 0.0 or log_mean(a, -b) != 0.0 or log_mean(a, a) != a:
            ok = False
    return PropertyResult("log_mean", ok and worst <= 1e-8, worst, 1e-8, count,
                          detail="relative partial error; branches and containment "
                                 "in [min, max] (to 1e-15) pass or fail")


def check_projection(rng, count=1000, extra_system=None):
    """project_simplex output sums to one and respects the floor scale."""
    worst = 0.0
    ok = True
    for _ in range(count):
        n = int(rng.integers(2, 6))
        u = rng.uniform(-0.5, 1.5, size=n)
        p = project_simplex(u)
        worst = max(worst, abs(float(p.sum()) - 1.0))
        if p.min() < PROJECTION_FLOOR / (1.0 + 2.0 * n * max(1.0, np.abs(u).sum())):
            ok = False
    passed = ok and worst <= 1e-15
    return PropertyResult("simplex_projection", passed, worst, 1e-15, count)


def check_mesh_invariants(rng, count=6, extra_system=None):
    """Constructed meshes pass the full geometric validation."""
    worst = 0
    for _ in range(count):
        n = int(rng.integers(1, 40))
        worst = max(worst, len(validate(uniform_interval(n))))
        nx = int(rng.integers(1, 12))
        ny = int(rng.integers(1, 12))
        worst = max(worst, len(validate(uniform_rectangle(nx, ny))))
    return PropertyResult("mesh_invariants", worst == 0, float(worst), 0.0,
                          2 * count, detail="violation count")


def check_entropy_bounds(rng, count=300, extra_system=None):
    """Entropy of simplex-valued states stays within [-m log n, 0]."""
    worst = 0.0
    for _ in range(count):
        mesh = uniform_interval(int(rng.integers(1, 20)))
        n = int(rng.integers(2, 6))
        vals = np.stack([_random_simplex(rng, n, floor=0.0)
                         for _ in range(mesh.num_cells)]).T
        e = diagnostics.entropy(StateField(mesh, vals))
        lower = -mesh.total_measure * np.log(n)
        worst = max(worst, e - 0.0, lower - e)
    return PropertyResult("entropy_bounds", worst <= 1e-12, worst, 1e-12, count)


ALL_CHECKS = (
    check_m_inv_abar_psd,
    check_est_upper_bound,
    check_identity_decomposition,
    check_simplex_identity,
    check_abar_kernel_range,
    check_a_kernel_rank,
    check_b_lower_bound,
    check_b_inverse_bound,
    check_flux_zero_sum,
    check_flux_formula_equivalence,
    check_jacobian_fd,
    check_log_mean,
    check_projection,
    check_mesh_invariants,
    check_entropy_bounds,
)


def run_property_suite(seed: int = 0, extra_system=None) -> list:
    """Run every structural check with a seeded generator; never raises."""
    results = []
    for check in ALL_CHECKS:
        rng = np.random.default_rng([seed, len(results)])
        results.append(check(rng, extra_system=extra_system))
    return results
