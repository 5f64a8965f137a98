"""Scalar diagnostics of a run: entropy, dissipation, relative entropy, errors.

The discrete entropy E(u) = sum_K m_K sum_i u_iK log u_iK (with 0 log 0 = 0)
is a Lyapunov functional of the scheme: along any run

    E(u^p) + dt * D^p <= E(u^{p-1}),

where the dissipation rate D^p collects a flux part and a square-root jump
part over interior edges.  The relative entropy against the uniform state
with the same species masses decays exponentially in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .model import SpeciesSystem
from .scheme import FluxField, StateField, StepStats


def entropy(state: StateField) -> float:
    """Entropy sum_K m_K sum_i u log u over the state's mesh, in [-m_Omega log n, 0].

    It is the relative entropy to m = 1, whose log is 0.
    """
    n = state.values.shape[0]
    return _relative_entropy_to(np.ones(n), n)(state)


def dissipation(system: SpeciesSystem, state: StateField, fluxes: FluxField) -> float:
    """Entropy dissipation rate of a step on the state's mesh, which the fluxes share.

    D = sum_sigma [ (c*/2) m_sigma d_sigma |J_Ksigma|^2
                    + (alpha/2) tau_sigma |D_Ksigma sqrt(u)|^2 ].
    """
    mesh = state.mesh
    if fluxes.mesh is not mesh:
        raise ValueError("fluxes do not belong to the given mesh of the state")
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


def relative_entropy(state: StateField, m) -> float:
    """Entropy relative to a uniform composition m > 0 on the state's mesh; nonnegative.

    Equals entropy(u) - entropy(m) when m carries the same species masses
    as the state.
    """
    return _relative_entropy_to(m, state.values.shape[0])(state)


def _relative_entropy_to(m, n):
    """The function ``state -> relative_entropy(state, m)`` for states of n species.

    m is checked and its logarithm taken here, once, for a run's every
    state; each value is that of :func:`relative_entropy` to the bit.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (n,):
        raise ValueError("m must be one composition value per species")
    if (m <= 0.0).any():
        raise ValueError("relative entropy requires strictly positive m")
    log_m = np.log(m)[:, None]

    def of(state):
        u = state.values
        low = state.min_fraction()
        if low < 0.0:
            raise ValueError("relative entropy requires nonnegative volume fractions")
        if low > 0.0:  # the projected states of a run: no zero entry to mask
            terms = u * (np.log(u) - log_m)
        else:
            logs = np.log(np.where(u > 0.0, u, 1.0)) - log_m
            terms = np.where(u > 0.0, u * logs, 0.0)
        return float((state.mesh.cell_measures * terms).sum())

    return of


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
    if coarse_shape is None or fine_shape is None:
        raise ValueError("restriction needs meshes that are tensor grids")
    for nc, nf in zip(coarse_shape, fine_shape):
        if nf % nc != 0:
            raise ValueError("reference grid must be an integer refinement "
                             f"of the coarse grid (got {nc} vs {nf})")
    return tuple(nf // nc for nc, nf in zip(coarse_shape, fine_shape))


def _restrict(values, coarse_shape, factors):
    """Mean of the fine-cell values over the nested subcells of each coarse cell."""
    # cells run with axis 0 fastest, so the array axes hold the grid axes reversed
    n = values.shape[0]
    split = [m for nc, r in zip(coarse_shape[::-1], factors[::-1]) for m in (nc, r)]
    blocks = values.reshape(n, *split)
    return blocks.mean(axis=tuple(range(2, len(split) + 1, 2))).reshape(n, -1)


def l1_level_args(coarse_mesh: Mesh, ref_mesh: Mesh):
    """The grid arguments ``(shape, factors, measures)`` of :func:`l1_level_error`.

    ``shape`` and ``measures`` are those of ``coarse_mesh``; ``factors``
    are the restriction factors from ``ref_mesh``, checked and computed
    here, once per pair of grids.
    """
    shape = coarse_mesh.grid_shape
    factors = _restriction_factors(shape, ref_mesh.grid_shape)
    return shape, factors, coarse_mesh.cell_measures


def l1_level_error(uc, uf, shape, factors, measures) -> float:
    """L1 distance of one time level between nested uniform grids.

    Returns sum_K m_K |uc_K - (R uf)_K| over the coarse cells K, where R
    restricts the reference values ``uf`` to the coarse grid by exact
    averaging over the nested subcells.  The grid arguments come from
    :func:`l1_level_args`.
    """
    return float((np.abs(uc - _restrict(uf, shape, factors)) * measures).sum())


def l1_space_time_error(coarse: SampledRun, ref: SampledRun) -> float:
    """L1 space-time distance between two runs on nested uniform grids.

    The reference is restricted to the coarse grid by exact averaging over
    the nested subcells, then the cellwise L1 distance of
    :func:`l1_level_error` is accumulated with rectangle weights dt_p over the
    shared step times.  Restricted to the coarse-grid representations this
    is a metric: symmetric and zero exactly when the restricted fields
    coincide cellwise at every step.
    """
    if coarse.mesh.dimension != ref.mesh.dimension:
        raise ValueError("runs live on meshes of different dimension")
    if len(coarse.dts) != len(ref.dts) or not np.array_equal(coarse.dts, ref.dts):
        raise ValueError("runs must share identical time grids")
    grid = l1_level_args(coarse.mesh, ref.mesh)
    acc = 0.0
    for dt_p, uc, uf in zip(coarse.dts, coarse.states, ref.states):
        acc += float(dt_p) * l1_level_error(uc, uf, *grid)
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
    def from_step(cls, system: SpeciesSystem, state: StateField, fluxes: FluxField,
                  equilibrium, time: float, stats: StepStats = None):
        """Assemble a record; pass ``fluxes=None``/``stats=None`` at t = 0.

        Every quantity is taken on the mesh of ``state``, the fluxes' too.
        """
        diss = dissipation(system, state, fluxes) if fluxes is not None else 0.0
        fdev = fluxes.max_species_sum() if fluxes is not None else 0.0
        sum_dev = (state.sum_deviation() if stats is None
                   else stats.pre_projection_sum_deviation)
        iters = 0 if stats is None else stats.newton_iterations
        return cls(
            time=float(time),
            entropy=entropy(state),
            dissipation=diss,
            relative_entropy=relative_entropy(state, equilibrium),
            masses=state.mass_vector.copy(),
            min_fraction=state.min_fraction(),
            max_sum_deviation=sum_dev,
            max_flux_sum_deviation=fdev,
            newton_iterations=iters,
        )
