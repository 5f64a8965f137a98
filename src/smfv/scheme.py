"""Implicit finite-volume time stepping for the cross-diffusion system.

Each backward-Euler step solves, for the cell compositions u at the new
time level,

    m_K (u_iK - u_iK^old) / dt + sum_{sigma in E_K,int} m_sigma J_iKsigma = 0,

where the per-edge flux vector J_Ksigma is the unique solution of

    (c* I + Abar(u_sigma)) J_Ksigma = -(u_L - u_K) / d_sigma,

with edge compositions u_sigma given componentwise by the logarithmic mean
of the two adjacent cell values.  Boundary faces carry zero flux.  The
nonlinear system is solved by damped Newton iteration with an analytic
block-sparse Jacobian; the converged state is projected onto the interior
of the unit simplex by flooring and renormalising each cell.

The logarithmic mean keeps the scheme entropy stable: cell compositions
stay positive, cell sums stay at one without being enforced, species
masses are conserved, and the discrete entropy decays by at least the
dissipation rate computed in :mod:`smfv.diagnostics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .model import SpeciesSystem

# Relative gap |a - b| <= LOG_MEAN_MIDPOINT_GAP * max(a, b) below which the
# log mean is taken as the midpoint, avoiding the cancellation of its quotient.
LOG_MEAN_MIDPOINT_GAP = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Newton and projection parameters for one implicit step."""

    newton_tol: float = 1e-12           # infinity norm of the accepted update
    max_newton_iters: int = 50
    max_damping_halvings: int = 30
    projection_floor: float = 1e-12

    def __post_init__(self):
        for name in ("newton_tol", "projection_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_newton_iters", "max_damping_halvings"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class NonConvergence(RuntimeError):
    """Newton iteration failed; the caller should abort the run.

    Raised when the iteration budget is exhausted or, with ``reason`` set,
    when a linear solve inside the iteration fails.
    """

    def __init__(self, iterations, residual_norm, step_index=None, time=None,
                 reason=None):
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.step_index = step_index
        self.time = time
        self.reason = reason
        super().__init__(self._message())

    def _message(self):
        msg = (f"Newton did not converge within {self.iterations} iterations "
               f"(residual inf-norm {self.residual_norm:.3e})")
        if self.reason is not None:
            msg += f": {self.reason}"
        if self.step_index is not None:
            msg += f" at step {self.step_index} (t = {self.time})"
        return msg

    def __str__(self):
        return self._message()


@dataclass(frozen=True)
class StateField:
    """Per-cell volume fractions, shape (n_species, n_cells)."""

    mesh: Mesh
    values: np.ndarray
    mass_vector: np.ndarray = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != self.mesh.num_cells:
            raise ValueError("state values must have shape (n_species, n_cells)")
        object.__setattr__(self, "values", vals)
        if self.mass_vector is None:
            object.__setattr__(self, "mass_vector", vals @ self.mesh.cell_measures)

    def min_fraction(self) -> float:
        return float(self.values.min())

    def sum_deviation(self) -> float:
        """Largest per-cell deviation of the species sum from one."""
        return float(np.abs(self.values.sum(axis=0) - 1.0).max())


@dataclass(frozen=True)
class FluxField:
    """Oriented per-edge species fluxes J_{i,K->L}, shape (n, n_interior_edges).

    Storage is oriented from cell K to cell L, so flux anti-symmetry under
    orientation flip holds by construction; boundary fluxes are implicitly
    zero.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != self.mesh.num_interior_edges:
            raise ValueError("flux values must have shape (n_species, n_interior_edges)")
        object.__setattr__(self, "values", vals)

    def max_species_sum(self) -> float:
        """Largest |sum_i J_i| over edges; zero for converged states."""
        if self.values.shape[1] == 0:
            return 0.0
        return float(np.abs(self.values.sum(axis=0)).max())


@dataclass(frozen=True)
class StepStats:
    """Per-step solver metadata reported alongside the new state."""

    newton_iterations: int
    pre_projection_sum_deviation: float


def _log_mean_with_partials(a, b):
    """Vectorised log mean and its partial derivatives w.r.t. both arguments.

    The log mean (a - b)/(log a - log b) is totalised: 0 whenever
    min(a, b) <= 0, and the midpoint when a and b agree to within
    ``LOG_MEAN_MIDPOINT_GAP`` relative.  On the zero branch both partials
    vanish; on the midpoint branch they are 1/2; otherwise
    d/da = (L - (a-b)/a)/L^2 with L = log a - log b, and symmetrically for b.
    """
    lam = np.zeros_like(a)
    da = np.zeros_like(a)
    db = np.zeros_like(a)
    pos = (a > 0.0) & (b > 0.0)
    near = np.abs(a - b) <= LOG_MEAN_MIDPOINT_GAP * np.maximum(a, b)
    eq = pos & near
    gen = pos & ~near
    if eq.any():
        lam[eq] = 0.5 * (a[eq] + b[eq])
        da[eq] = 0.5
        db[eq] = 0.5
    if gen.any():
        ag = a[gen]
        bg = b[gen]
        big_l = np.log(ag) - np.log(bg)
        diff = ag - bg
        lam[gen] = diff / big_l
        da[gen] = (big_l - diff / ag) / big_l**2
        db[gen] = (diff / bg - big_l) / big_l**2
    return lam, da, db


def edge_fractions(u_k, u_l) -> np.ndarray:
    """Componentwise logarithmic mean of two composition vectors."""
    a = np.asarray(u_k, dtype=float)
    b = np.asarray(u_l, dtype=float)
    lam, _, _ = _log_mean_with_partials(a, b)
    return lam


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean of two scalars; see :func:`_log_mean_with_partials`.

    For positive arguments the result lies between min(a, b) and max(a, b).
    """
    return float(edge_fractions(a, b))


def edge_flux(system: SpeciesSystem, u_sigma, du, d_sigma: float) -> np.ndarray:
    """Solve (c* I + Abar(u_sigma)) J = -du/d_sigma for the edge flux vector.

    The matrix is invertible for any u_sigma >= 0 since its eigenvalues are
    bounded below by c*; the flux sums to -sum(du)/(c* d_sigma), hence to
    zero when the species jumps do.
    """
    if not d_sigma > 0.0:
        raise ValueError("d_sigma must be positive")
    mats = _edge_systems(system, np.asarray(u_sigma, dtype=float)[:, None])
    return np.linalg.solve(mats[0], -np.asarray(du, dtype=float) / d_sigma)


def _edge_systems(system, lam):
    """Stack of matrices c* I + Abar(u_sigma) over all edges, shape (E, n, n)."""
    st = lam.T  # (E, n)
    mats = -(system.c_bar[None, :, :] * st[:, :, None])
    diag = st @ system.c_bar.T + system.c_star  # c_bar diagonal is zero
    idx = np.arange(system.n)
    mats[:, idx, idx] = diag
    return mats


def _edge_fluxes(system, mesh, values):
    """Fluxes over all interior edges for a given cell state, shape (n, E)."""
    if mesh.num_interior_edges == 0:
        return np.zeros((system.n, 0))
    uk = values[:, mesh.edge_cell_k]
    ul = values[:, mesh.edge_cell_l]
    lam, _, _ = _log_mean_with_partials(uk, ul)
    mats = _edge_systems(system, lam)
    rhs = ((uk - ul) / mesh.edge_distance).T
    return np.linalg.solve(mats, rhs[:, :, None])[:, :, 0].T


def compute_fluxes(system: SpeciesSystem, mesh: Mesh, state: StateField) -> FluxField:
    """Flux field induced by a cell state via the per-edge flux solves."""
    if state.mesh is not mesh:
        raise ValueError("state does not belong to the given mesh")
    return FluxField(mesh, _edge_fluxes(system, mesh, state.values))


def _residual_values(system, mesh, values, old_values, dt):
    res = mesh.cell_measures * (values - old_values) / dt
    if mesh.num_interior_edges:
        flux = _edge_fluxes(system, mesh, values)
        weighted = mesh.edge_measure * flux
        for i in range(system.n):
            np.add.at(res[i], mesh.edge_cell_k, weighted[i])
            np.subtract.at(res[i], mesh.edge_cell_l, weighted[i])
    return res


def residual(system: SpeciesSystem, mesh: Mesh, u_new: StateField,
             u_old: StateField, dt: float) -> np.ndarray:
    """Backward-Euler residual of the implicit step, shape (n, n_cells).

    Boundary faces contribute nothing (zero-flux boundary).  Summed over all
    cells the flux contributions telescope, so the residual total equals the
    mass-change total for every species.
    """
    if u_new.mesh is not mesh or u_old.mesh is not mesh:
        raise ValueError("states do not belong to the given mesh")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return _residual_values(system, mesh, u_new.values, u_old.values, dt)


def _block_indices(cells_row, cells_col, n):
    i = np.arange(n)
    shape = (len(cells_row), n, n)
    rows = np.broadcast_to((cells_row[:, None, None] * n) + i[None, :, None], shape)
    cols = np.broadcast_to((cells_col[:, None, None] * n) + i[None, None, :], shape)
    return rows.ravel(), cols.ravel()


def _jacobian_matrix(system, mesh, values, dt):
    """Exact derivative of the residual w.r.t. the new state, CSR block-sparse.

    Unknown ordering is cell-major: flat index K * n + i.  Flux blocks follow
    from differentiating J = -S^-1 (u_L - u_K)/d_sigma through both the jump
    and the edge compositions inside S = c* I + Abar(u_sigma).
    """
    n = system.n
    n_cells = mesh.num_cells
    size = n_cells * n
    diag_rows = np.arange(size)
    diag_data = np.repeat(mesh.cell_measures / dt, n)
    if mesh.num_interior_edges == 0:
        return sp.coo_matrix((diag_data, (diag_rows, diag_rows)),
                             shape=(size, size)).tocsr()

    uk = values[:, mesh.edge_cell_k]
    ul = values[:, mesh.edge_cell_l]
    lam, da, db = _log_mean_with_partials(uk, ul)
    mats = _edge_systems(system, lam)
    rhs = ((uk - ul) / mesh.edge_distance).T
    flux = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]  # (E, n)

    # G[e, i, m] = d(Abar(s) J)_i / d s_m at fixed J
    gmat = system.c_bar[None, :, :] * flux[:, :, None]
    idx = np.arange(n)
    gmat[:, idx, idx] = -(flux @ system.c_bar.T)
    eye = np.eye(n)[None, :, :]
    inv_d = (1.0 / mesh.edge_distance)[:, None, None]
    rhs_k = eye * inv_d - gmat * da.T[:, None, :]
    rhs_l = -(eye * inv_d + gmat * db.T[:, None, :])
    blocks = np.linalg.solve(mats, np.concatenate([rhs_k, rhs_l], axis=2))
    scale = mesh.edge_measure[:, None, None]
    dk = scale * blocks[:, :, :n]  # m_sigma * dJ/du_K
    dl = scale * blocks[:, :, n:]  # m_sigma * dJ/du_L

    k = mesh.edge_cell_k
    l = mesh.edge_cell_l
    rows_kk, cols_kk = _block_indices(k, k, n)
    rows_kl, cols_kl = _block_indices(k, l, n)
    rows_lk, cols_lk = _block_indices(l, k, n)
    rows_ll, cols_ll = _block_indices(l, l, n)
    rows = np.concatenate([rows_kk, rows_kl, rows_lk, rows_ll, diag_rows])
    cols = np.concatenate([cols_kk, cols_kl, cols_lk, cols_ll, diag_rows])
    data = np.concatenate([dk.ravel(), dl.ravel(),
                           (-dk).ravel(), (-dl).ravel(), diag_data])
    return sp.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()


def jacobian(system: SpeciesSystem, mesh: Mesh, u_new: StateField,
             u_old: StateField, dt: float):
    """Analytic residual Jacobian as a sparse matrix (n|T| x n|T|).

    The time-derivative part is diagonal and independent of ``u_old``; the
    argument is kept for signature symmetry with :func:`residual`.
    """
    if u_new.mesh is not mesh or u_old.mesh is not mesh:
        raise ValueError("states do not belong to the given mesh")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return _jacobian_matrix(system, mesh, u_new.values, dt)


def project_simplex(u, floor: float) -> np.ndarray:
    """Floor the components at ``floor`` and renormalise each column to unit sum.

    ``u`` holds one composition per column (a 1D vector is one composition).
    Returns strict-interior simplex points.  Note that when the floored sum
    exceeds one, a floored component lands one part in 1/floor below the
    floor after normalisation.
    """
    if not floor > 0.0:
        raise ValueError("floor must be positive")
    v = np.maximum(np.asarray(u, dtype=float), floor)
    return v / v.sum(axis=0)


def _project_values(values, floor):
    """Cellwise floor-and-renormalise, then clamp back to the floor.

    The renormalisation can round a floored entry one part in 1/floor below
    the floor; the final clamp keeps every entry at or above the floor while
    moving cell sums away from one by at most a few units of n*floor^2.
    """
    return np.maximum(project_simplex(values, floor), floor)


def newton_step(system: SpeciesSystem, mesh: Mesh, u_old: StateField, dt: float,
                config: SolverConfig = None):
    """One implicit step: damped Newton solve, projection, flux recomputation.

    Returns ``(state, fluxes, stats)`` where ``stats`` carries the iteration
    count and the largest per-cell deviation of the species sum from one
    measured before the projection.  Raises :class:`NonConvergence` when the
    iteration budget is exhausted or a linear solve fails.
    """
    if config is None:
        config = SolverConfig()
    if u_old.mesh is not mesh:
        raise ValueError("state does not belong to the given mesh")
    if not dt > 0.0:
        raise ValueError("dt must be positive")

    x = u_old.values.copy()
    res_norm = math.inf
    converged = False
    iterations = 0
    try:
        res = _residual_values(system, mesh, x, u_old.values, dt)
        res_norm = float(np.abs(res).max())
        for _ in range(config.max_newton_iters):
            iterations += 1
            jac = _jacobian_matrix(system, mesh, x, dt)
            lu = spla.splu(jac.tocsc())
            delta = lu.solve(-res.T.ravel()).reshape(mesh.num_cells, system.n).T

            # Halve the update until the residual norm decreases; if it never
            # does (typically because the residual is already at rounding
            # level) fall back to the full step.
            step = 1.0
            accepted = None
            full = None
            for _h in range(config.max_damping_halvings + 1):
                cand = x + step * delta
                cand_res = _residual_values(system, mesh, cand, u_old.values, dt)
                cand_norm = float(np.abs(cand_res).max())
                if full is None:
                    full = (cand, cand_res, cand_norm)
                if cand_norm < res_norm:
                    accepted = (cand, cand_res, cand_norm, step)
                    break
                step *= 0.5
            if accepted is None:
                cand, cand_res, cand_norm = full
                step = 1.0
            else:
                cand, cand_res, cand_norm, step = accepted

            update_norm = step * float(np.abs(delta).max())
            x, res, res_norm = cand, cand_res, cand_norm
            if update_norm < config.newton_tol:
                converged = True
                break
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # SuperLU reports a failed factorisation or solve as RuntimeError,
        # numpy's batched edge solves a singular block as LinAlgError.
        raise NonConvergence(iterations, res_norm, reason=str(exc)) from exc

    if not converged:
        raise NonConvergence(iterations, res_norm)

    pre_projection_dev = float(np.abs(x.sum(axis=0) - 1.0).max())
    projected = _project_values(x, config.projection_floor)
    state = StateField(mesh, projected)
    fluxes = FluxField(mesh, _edge_fluxes(system, mesh, projected))
    return state, fluxes, StepStats(iterations, pre_projection_dev)


def num_time_steps(dt: float, t_end: float) -> int:
    """ceil(T/dt) with a guard against spurious extra steps from rounding."""
    return max(1, math.ceil((t_end / dt) * (1.0 - 1e-12)))


def run(system: SpeciesSystem, mesh: Mesh, u0: StateField, dt: float,
        t_end: float, config: SolverConfig = None, sink=None) -> StateField:
    """Advance the implicit scheme from ``u0`` over ceil(T/dt) steps of size dt.

    After each step the optional ``sink`` callback receives
    ``(t_p, state, fluxes, stats)``.  A Newton failure aborts the run (no
    adaptive stepping); the raised :class:`NonConvergence` carries the
    failing step index and time.
    """
    if config is None:
        config = SolverConfig()
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    state = u0
    for p in range(1, num_time_steps(dt, t_end) + 1):
        try:
            state, fluxes, stats = newton_step(system, mesh, state, dt, config)
        except NonConvergence as exc:
            exc.step_index = p
            exc.time = p * dt
            raise
        if sink is not None:
            sink(p * dt, state, fluxes, stats)
    return state
