"""Implicit finite-volume time stepping for the cross-diffusion system.

Each backward-Euler step solves, for the cell compositions u at the new
time level,

    m_K (u_iK - u_iK^old) / dt + sum_{sigma in E_K,int} m_sigma J_iKsigma = 0,

where the per-edge flux vector J_Ksigma is the unique solution of

    (c* I + Abar(u_sigma)) J_Ksigma = -(u_L - u_K) / d_sigma,

with edge compositions u_sigma given componentwise by the logarithmic mean
of the two adjacent cell values.  Boundary faces carry zero flux.  The
nonlinear system is solved by Newton iteration with an analytic
block-sparse Jacobian, exact also for nearly equal cell values through the
log-mean series of Ismail and Roe (J. Comput. Phys. 228, 2009).  Each
Newton state's log means, edge matrices and fluxes are computed once and
shared by the residual and the Jacobian, whose CSC pattern is built once
per step.  The first update below the tolerance is taken in full and ends
the iteration; others are halved until the residual norm decreases.  The
converged state is projected onto the unit simplex's interior by flooring
and renormalising.

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

MAX_DAMPING_HALVINGS = 30   # halvings without decrease before a step fails

# Below _SERIES_MAX_U the log-mean series through u^_SERIES_ORDER is exact to
# rounding; above it the closed form's partials lose less than 1e-14.
_SERIES_MAX_U = 1e-2
_SERIES_ORDER = 7


@dataclass(frozen=True)
class SolverConfig:
    """Newton and projection parameters for one implicit step."""

    newton_tol: float = 1e-12           # infinity norm of the final update
    max_newton_iters: int = 50
    projection_floor: float = 1e-12

    def __post_init__(self):
        for name in ("newton_tol", "max_newton_iters", "projection_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class NonConvergence(RuntimeError):
    """Newton iteration failed; the caller should abort the run.

    Raised when the iteration budget is exhausted or, with ``reason`` set,
    when a linear solve fails or no halving of an update helps.
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
        return float(np.abs(self.values.sum(axis=0)).max(initial=0.0))


@dataclass(frozen=True)
class StepStats:
    """Per-step solver metadata reported alongside the new state."""

    newton_iterations: int
    pre_projection_sum_deviation: float


def _log_mean_with_partials(a, b):
    """Vectorised log mean and its partial derivatives w.r.t. both arguments.

    The log mean (a - b)/log(a/b) is totalised: 0, with both partials 0,
    whenever min(a, b) <= 0.  With s = a + b, f = (a - b)/s and u = f^2 it
    equals s/(2 F(u)), F(u) = sum_k u^k/(2k + 1), with partials
    1/(2F) -/+ (f -/+ u) F'/F^2, exact to rounding as a and b approach each
    other.  For u >= ``_SERIES_MAX_U`` the closed form is used, with
    d/da = (L - (a-b)/a)/L^2, symmetrically for b, and L = log(a/b), which
    unlike log a - log b stays accurate for small a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # Both branches are evaluated everywhere; the discarded one may not be finite.
    with np.errstate(all="ignore"):
        d = a - b
        s = a + b
        f = d / s
        u = f * f
        big_f = 1.0 / (2 * _SERIES_ORDER + 1)    # F and F' by Horner's rule
        big_df = _SERIES_ORDER * big_f
        for k in range(_SERIES_ORDER - 1, 0, -1):
            big_f = big_f * u + 1.0 / (2 * k + 1)
            big_df = big_df * u + k / (2 * k + 1)
        g = 1.0 / (big_f * u + 1.0)
        lam = 0.5 * s * g
        t = big_df * g * g
        da = 0.5 * g - (f - u) * t
        db = 0.5 * g + (f + u) * t
        big_l = np.log(a / b)
        closed = u >= _SERIES_MAX_U
        lam = np.where(closed, d / big_l, lam)
        da = np.where(closed, (big_l - d / a) / (big_l * big_l), da)
        db = np.where(closed, (d / b - big_l) / (big_l * big_l), db)
    pos = (a > 0.0) & (b > 0.0)
    return np.where(pos, lam, 0.0), np.where(pos, da, 0.0), np.where(pos, db, 0.0)


def log_mean(a, b):
    """Componentwise log mean of scalars or equally shaped arrays, e.g. u_sigma.

    Zero where either argument is non-positive; otherwise it lies between
    min(a, b) and max(a, b).
    """
    lam, _, _ = _log_mean_with_partials(a, b)
    return lam[()]


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
    """Edge terms of a cell state from one log mean and one batched solve.

    Returns ``(flux, mats, da, db)``: the fluxes, shape (n, E), the matrices
    c* I + Abar(u_sigma), shape (E, n, n), and the log-mean partials
    w.r.t. u_K and u_L, shape (n, E).
    """
    uk = values[:, mesh.edge_cell_k]
    ul = values[:, mesh.edge_cell_l]
    lam, da, db = _log_mean_with_partials(uk, ul)
    mats = _edge_systems(system, lam)
    rhs = ((uk - ul) / mesh.edge_distance).T
    flux = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0].T
    return flux, mats, da, db


def compute_fluxes(system: SpeciesSystem, mesh: Mesh, state: StateField) -> FluxField:
    """Flux field induced by a cell state via the per-edge flux solves."""
    if state.mesh is not mesh:
        raise ValueError("state does not belong to the given mesh")
    return FluxField(mesh, _edge_fluxes(system, mesh, state.values)[0])


def _residual_values(system, mesh, values, old_values, dt):
    """Residual of ``values`` and its edge terms, which the Jacobian reuses."""
    edges = _edge_fluxes(system, mesh, values)
    res = mesh.cell_measures * (values - old_values) / dt
    weighted = mesh.edge_measure * edges[0]
    for i in range(system.n):
        np.add.at(res[i], mesh.edge_cell_k, weighted[i])
        np.subtract.at(res[i], mesh.edge_cell_l, weighted[i])
    return res, edges


def _check_step_args(mesh, dt, *states):
    if any(state.mesh is not mesh for state in states):
        raise ValueError("state does not belong to the given mesh")
    if not dt > 0.0:
        raise ValueError("dt must be positive")


def residual(system: SpeciesSystem, mesh: Mesh, u_new: StateField,
             u_old: StateField, dt: float) -> np.ndarray:
    """Backward-Euler residual of the implicit step, shape (n, n_cells).

    Boundary faces contribute nothing (zero-flux boundary).  Summed over all
    cells the flux contributions telescope, so the residual total equals the
    mass-change total for every species.
    """
    _check_step_args(mesh, dt, u_new, u_old)
    return _residual_values(system, mesh, u_new.values, u_old.values, dt)[0]


def _jacobian_pattern(mesh, n):
    """CSC structure of the Jacobian and the slot of every raw entry in it.

    Unknown ordering is cell-major: flat index K * n + i.  The raw entries
    are the n x n blocks at (K, K), (K, L), (L, K) and (L, L) of every
    interior edge, in that order, followed by the n diagonal entries of
    every cell.  Returns ``(indices, indptr, slot)``; summing the raw
    entries by ``slot`` gives the CSC ``data``.
    """
    size = mesh.num_cells * n
    k, l = mesh.edge_cell_k, mesh.edge_cell_l
    i = np.arange(n)
    rows = np.concatenate([k, k, l, l])[:, None, None] * n + i[:, None]
    cols = np.concatenate([k, l, k, l])[:, None, None] * n + i
    # column-major keys: sorting them gives the CSC order
    keys = np.concatenate([(cols * size + rows).ravel(), np.arange(size) * (size + 1)])
    unique, slot = np.unique(keys, return_inverse=True)
    indptr = np.searchsorted(unique // size, np.arange(size + 1))
    return unique % size, indptr, slot


def _jacobian_matrix(system, mesh, edges, dt, pattern):
    """Exact derivative of the residual w.r.t. the new state, CSC block-sparse.

    ``edges`` are the state's terms from :func:`_edge_fluxes` and
    ``pattern`` the structure from :func:`_jacobian_pattern`.  Flux blocks
    follow from differentiating J = -S^-1 (u_L - u_K)/d_sigma through both
    the jump and the edge compositions inside S = c* I + Abar(u_sigma).
    """
    flux, mats, da, db = edges
    n = system.n
    flux = flux.T  # (E, n)
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

    indices, indptr, slot = pattern
    raw = np.concatenate([dk.ravel(), dl.ravel(), (-dk).ravel(), (-dl).ravel(),
                          np.repeat(mesh.cell_measures / dt, n)])
    data = np.bincount(slot, weights=raw, minlength=len(indices))
    size = mesh.num_cells * n
    return sp.csc_matrix((data, indices, indptr), shape=(size, size))


def jacobian(system: SpeciesSystem, mesh: Mesh, u_new: StateField,
             u_old: StateField, dt: float):
    """Analytic residual Jacobian as a sparse matrix (n|T| x n|T|).

    The time-derivative part is diagonal and independent of ``u_old``; the
    argument is kept for signature symmetry with :func:`residual`.
    """
    _check_step_args(mesh, dt, u_new, u_old)
    return _jacobian_matrix(system, mesh, _edge_fluxes(system, mesh, u_new.values),
                            dt, _jacobian_pattern(mesh, system.n))


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
    """One implicit step: Newton solve, projection, flux recomputation.

    An update with infinity norm below ``newton_tol`` is taken in full and
    ends the iteration; any other is halved until the residual norm drops.
    Returns ``(state, fluxes, stats)`` where ``stats`` carries the iteration
    count and the largest per-cell deviation of the species sum from one
    measured before the projection.  Raises :class:`NonConvergence` when the
    iteration budget or the halvings run out, or a linear solve fails.
    """
    if config is None:
        config = SolverConfig()
    _check_step_args(mesh, dt, u_old)

    pattern = _jacobian_pattern(mesh, system.n)
    x = u_old.values.copy()
    res_norm = math.inf
    iterations = 0
    try:
        res, edges = _residual_values(system, mesh, x, u_old.values, dt)
        res_norm = float(np.abs(res).max())
        for iterations in range(1, config.max_newton_iters + 1):
            lu = spla.splu(_jacobian_matrix(system, mesh, edges, dt, pattern))
            delta = lu.solve(-res.T.ravel()).reshape(mesh.num_cells, system.n).T
            if float(np.abs(delta).max()) < config.newton_tol:
                x = x + delta
                break

            step = 1.0
            for _h in range(MAX_DAMPING_HALVINGS + 1):
                cand = x + step * delta
                trial = _residual_values(system, mesh, cand, u_old.values, dt)
                cand_norm = float(np.abs(trial[0]).max())
                if cand_norm < res_norm:
                    break
                step *= 0.5
            else:
                raise NonConvergence(iterations, res_norm, reason="no residual "
                                     f"decrease in {MAX_DAMPING_HALVINGS} halvings")
            x, (res, edges), res_norm = cand, trial, cand_norm
        else:
            raise NonConvergence(iterations, res_norm)
    except NonConvergence:
        raise
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # SuperLU reports a failed factorisation or solve as RuntimeError,
        # numpy's batched edge solves a singular block as LinAlgError.
        raise NonConvergence(iterations, res_norm, reason=str(exc)) from exc

    pre_projection_dev = float(np.abs(x.sum(axis=0) - 1.0).max())
    projected = _project_values(x, config.projection_floor)
    state = StateField(mesh, projected)
    fluxes = FluxField(mesh, _edge_fluxes(system, mesh, projected)[0])
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
