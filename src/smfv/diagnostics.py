"""Scalar and field diagnostics: entropy, dissipation, reconstructions, errors.

The discrete entropy E(u) = sum_K m_K sum_i u_iK log u_iK (with 0 log 0 = 0)
is a Lyapunov functional of the scheme: along any run

    E(u^p) + dt * D^p <= E(u^{p-1}),

where the dissipation rate D^p collects a flux part and a square-root jump
part over interior edges.  The relative entropy against the uniform state
with the same species masses decays exponentially in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .model import SpeciesSystem
from .scheme import FluxField, StateField, StepStats


def entropy(mesh: Mesh, state: StateField) -> float:
    """Discrete entropy sum_K m_K sum_i u log u, in [-m_Omega log n, 0]."""
    if state.mesh is not mesh:
        raise ValueError("state does not belong to the given mesh")
    u = state.values
    if np.any(u < 0.0):
        raise ValueError("entropy requires nonnegative volume fractions")
    logs = np.log(np.where(u > 0.0, u, 1.0))  # 0 log 0 := 0
    return float((mesh.cell_measures * (u * logs)).sum())


def dissipation(system: SpeciesSystem, mesh: Mesh, state: StateField,
                fluxes: FluxField) -> float:
    """Entropy dissipation rate of a step: flux part plus sqrt-jump part.

    D = sum_sigma [ (c*/2) m_sigma d_sigma |J_Ksigma|^2
                    + (alpha/2) tau_sigma |D_Ksigma sqrt(u)|^2 ].
    """
    if state.mesh is not mesh or fluxes.mesh is not mesh:
        raise ValueError("fields do not belong to the given mesh")
    j2 = (fluxes.values ** 2).sum(axis=0)
    flux_part = 0.5 * system.c_star * float(
        (mesh.edge_measure * mesh.edge_distance * j2).sum())
    root = np.sqrt(state.values)
    jump = root[:, mesh.edge_cell_l] - root[:, mesh.edge_cell_k]
    grad_part = 0.5 * system.alpha * float(
        (mesh.edge_tau * (jump ** 2).sum(axis=0)).sum())
    return flux_part + grad_part


def equilibrium_composition(state: StateField) -> np.ndarray:
    """Uniform composition with the same species masses, M_i / m_Omega."""
    return state.mass_vector / state.mesh.total_measure


def relative_entropy(mesh: Mesh, state: StateField, m) -> float:
    """Entropy relative to a uniform composition m > 0; nonnegative.

    Equals entropy(u) - entropy(m) when m carries the same species masses
    as the state.
    """
    if state.mesh is not mesh:
        raise ValueError("state does not belong to the given mesh")
    m = np.asarray(m, dtype=float)
    if m.shape != (state.values.shape[0],):
        raise ValueError("m must be one composition value per species")
    if np.any(m <= 0.0):
        raise ValueError("relative entropy requires strictly positive m")
    u = state.values
    if np.any(u < 0.0):
        raise ValueError("relative entropy requires nonnegative volume fractions")
    logs = np.log(np.where(u > 0.0, u, 1.0)) - np.log(m)[:, None]
    terms = np.where(u > 0.0, u * logs, 0.0)
    return float((mesh.cell_measures * terms).sum())


def reconstruct_gradient(mesh: Mesh, v) -> np.ndarray:
    """Piecewise-constant diamond-cell gradient of a scalar cell field.

    On the diamond of an interior edge the value is
    d * (v_L - v_K)/d_sigma * n_KL; boundary diamonds use the mirror-value
    convention (zero jump), hence vanish.  Rows are ordered interior edges
    first, then boundary edges.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.num_cells,):
        raise ValueError("v must hold one value per cell")
    total = mesh.num_interior_edges + mesh.num_boundary_edges
    grad = np.zeros((total, mesh.dimension))
    jump = v[mesh.edge_cell_l] - v[mesh.edge_cell_k]
    grad[:mesh.num_interior_edges] = (
        mesh.dimension * jump / mesh.edge_distance)[:, None] * mesh.edge_normals
    return grad


def reconstruct_flux_field(mesh: Mesh, fluxes: FluxField):
    """Diamond-cell vector reconstruction of a flux field and its squared norm.

    On the diamond of an interior edge species i takes the vector value
    d * J_iKsigma * n_KL; the squared space norm is
    sum_sigma m_diamond * d^2 * |J_Ksigma|^2 (note d * m_diamond =
    m_sigma * d_sigma).  Boundary diamonds carry zero flux.
    """
    if fluxes.mesh is not mesh:
        raise ValueError("fluxes do not belong to the given mesh")
    n = fluxes.values.shape[0]
    total = mesh.num_interior_edges + mesh.num_boundary_edges
    field = np.zeros((n, total, mesh.dimension))
    field[:, :mesh.num_interior_edges, :] = (
        mesh.dimension * fluxes.values[:, :, None] * mesh.edge_normals[None, :, :])
    j2 = (fluxes.values ** 2).sum(axis=0)
    sq_norm = float((mesh.edge_diamond * (mesh.dimension ** 2) * j2).sum())
    return field, sq_norm


@dataclass(frozen=True)
class SampledRun:
    """States of one run sampled at every step, for grid-comparison norms."""

    mesh: Mesh
    dts: np.ndarray
    states: list

    def __post_init__(self):
        object.__setattr__(self, "dts", np.asarray(self.dts, dtype=float))
        if len(self.states) != len(self.dts):
            raise ValueError("one state per time step is required")


def _restriction_factors(coarse_shape, fine_shape):
    factors = []
    for nc, nf in zip(coarse_shape, fine_shape):
        if nf % nc != 0:
            raise ValueError("reference grid must be an integer refinement "
                             f"of the coarse grid (got {nc} vs {nf})")
        factors.append(nf // nc)
    return factors


def _restrict(values, fine_shape, coarse_shape, factors):
    n = values.shape[0]
    if len(fine_shape) == 1:
        return values.reshape(n, coarse_shape[0], factors[0]).mean(axis=2)
    nxc, nyc = coarse_shape
    rx, ry = factors
    # row-major cell index iy * nx + ix
    blocks = values.reshape(n, nyc, ry, nxc, rx)
    return blocks.mean(axis=(2, 4)).reshape(n, nxc * nyc)


def l1_space_time_error(coarse: SampledRun, ref: SampledRun) -> float:
    """L1 space-time distance between two runs on nested uniform grids.

    The reference is restricted to the coarse grid by exact averaging over
    the nested subcells, then the cellwise L1 distance is accumulated with
    rectangle weights dt_p over the shared step times.  Restricted to the
    coarse-grid representations this is a metric: symmetric and zero exactly
    when the restricted fields coincide cellwise at every step.
    """
    if coarse.mesh.dimension != ref.mesh.dimension:
        raise ValueError("runs live on meshes of different dimension")
    if coarse.mesh.grid_shape is None or ref.mesh.grid_shape is None:
        raise ValueError("the error norm requires uniform structured meshes")
    if len(coarse.dts) != len(ref.dts) or not np.array_equal(coarse.dts, ref.dts):
        raise ValueError("runs must share identical time grids")
    factors = _restriction_factors(coarse.mesh.grid_shape, ref.mesh.grid_shape)
    measures = coarse.mesh.cell_measures
    acc = 0.0
    for dt_p, uc, uf in zip(coarse.dts, coarse.states, ref.states):
        restricted = _restrict(uf, ref.mesh.grid_shape, coarse.mesh.grid_shape, factors)
        acc += float(dt_p) * float((np.abs(uc - restricted) * measures).sum())
    return acc


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of per-step diagnostics as written to diagnostics.csv."""

    time: float
    entropy: float
    dissipation: float
    relative_entropy: float
    masses: np.ndarray
    min_fraction: float
    max_sum_deviation: float
    max_flux_sum_deviation: float
    newton_iterations: int

    @classmethod
    def from_step(cls, system: SpeciesSystem, mesh: Mesh, state: StateField,
                  fluxes: FluxField, equilibrium, time: float,
                  stats: StepStats = None):
        """Assemble a record; pass ``fluxes=None``/``stats=None`` at t = 0."""
        diss = dissipation(system, mesh, state, fluxes) if fluxes is not None else 0.0
        fdev = fluxes.max_species_sum() if fluxes is not None else 0.0
        if stats is not None:
            sum_dev = stats.pre_projection_sum_deviation
            iters = stats.newton_iterations
        else:
            sum_dev = state.sum_deviation()
            iters = 0
        return cls(
            time=float(time),
            entropy=entropy(mesh, state),
            dissipation=diss,
            relative_entropy=relative_entropy(mesh, state, equilibrium),
            masses=state.mass_vector.copy(),
            min_fraction=state.min_fraction(),
            max_sum_deviation=sum_dev,
            max_flux_sum_deviation=fdev,
            newton_iterations=iters,
        )

    def violations(self, mesh: Mesh, n_species: int, tol: float = 1e-10) -> list:
        """Check the structural bounds this record must satisfy."""
        bad = []
        lower = -mesh.total_measure * math.log(n_species)
        if not (lower - tol <= self.entropy <= tol):
            bad.append(f"entropy {self.entropy} outside [{lower}, 0]")
        if self.relative_entropy < -1e-12:
            bad.append(f"negative relative entropy {self.relative_entropy}")
        if self.dissipation < 0.0:
            bad.append(f"negative dissipation {self.dissipation}")
        return bad
