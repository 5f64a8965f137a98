"""Species coefficient data and the friction-matrix algebra.

For a composition vector v >= 0 the friction matrix is

    A_ii(v) = sum_{j != i} c_ij v_j,      A_ij(v) = -c_ij v_i   (i != j),

where c_ij = c_ji > 0 is the inverse inter-diffusion coefficient of the
species pair (i, j).  Splitting c_ij = c* + cbar_ij with
c* = min_{i != j} c_ij gives the decomposition

    A(v) = c* <1, v> I - c* C(v) + Abar(v),       C_ij(v) = v_i,

where Abar has the same structure as A with cbar in place of c.  On the
strictly positive orthant, B(v) = M(v)^-1 (c* I + Abar(v)) with
M(v) = diag(v) is symmetric positive definite with B(v) >= c* M(v)^-1;
when additionally sum_{j != i} v_j <= 1 (true for componentwise log means
of simplex points, the vectors the flux solves feed in), the complementary
bound B(v)^-1 >= M(v) / (c* + 2 cbar_max) holds as well.  These bounds
drive the entropy dissipation rate alpha = 4 / (c* + 2 cbar_max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class SpeciesSystem:
    """Symmetric coefficient matrix and its derived constants."""

    n: int
    c: np.ndarray
    c_star: float
    c_bar: np.ndarray
    c_bar_max: float
    alpha: float


def build_system(c) -> SpeciesSystem:
    """Validate a coefficient matrix and derive c*, cbar, and alpha.

    Requires a square symmetric matrix with zero diagonal and strictly
    positive off-diagonal entries, for at least two species.
    """
    c = np.array(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("coefficient matrix must be square")
    n = c.shape[0]
    if n < 2:
        raise ValueError("at least two species are required")
    if not np.array_equal(c, c.T):
        raise ValueError("coefficient matrix must be symmetric")
    if np.any(np.diag(c) != 0.0):
        raise ValueError("coefficient matrix must have zero diagonal")
    off = ~np.eye(n, dtype=bool)
    if np.any(c[off] <= 0.0):
        raise ValueError("off-diagonal coefficients must be positive")

    c_star = float(c[off].min())
    c_bar = c - c_star
    np.fill_diagonal(c_bar, 0.0)
    c_bar_max = float(c_bar[off].max())
    alpha = 4.0 / (c_star + 2.0 * c_bar_max)
    return SpeciesSystem(n=n, c=c, c_star=c_star, c_bar=c_bar,
                         c_bar_max=c_bar_max, alpha=alpha)


def mat_A(system: SpeciesSystem, v) -> np.ndarray:
    """Friction matrix A(v); its columns sum to zero for any v."""
    v = np.asarray(v, dtype=float)
    a = -system.c * v[:, None]
    np.fill_diagonal(a, system.c @ v)  # zero diagonal of c makes this the off-row sum
    return a


def mat_Abar(system: SpeciesSystem, v) -> np.ndarray:
    """Reduced friction matrix Abar(v); satisfies Abar(v) v = 0."""
    v = np.asarray(v, dtype=float)
    a = -system.c_bar * v[:, None]
    np.fill_diagonal(a, system.c_bar @ v)
    return a


def mat_C(v) -> np.ndarray:
    """Rank-one matrix with constant rows, C_ij(v) = v_i."""
    v = np.asarray(v, dtype=float)
    return np.broadcast_to(v[:, None], (v.size, v.size)).copy()


def mat_B(system: SpeciesSystem, v) -> np.ndarray:
    """Edge-flux resistance matrix B(v) = M(v)^-1 (c* I + Abar(v)).

    Defined for strictly positive v only; symmetric positive definite with
    smallest eigenvalue at least c*.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("mat_B requires strictly positive components")
    s = system.c_star * np.eye(system.n) + mat_Abar(system, v)
    return s / v[:, None]


def _sum_deviation(values) -> float:
    """Largest deviation from one of a column sum of ``values``; a vector is one column."""
    return float(np.abs(values.sum(axis=0) - 1.0).max())


def is_simplex_point(v) -> bool:
    """Membership test for the closed unit simplex, up to 1e-12.

    ``v`` is one composition, or one per column of a 2D array, each of
    which must be a member.
    """
    v = np.asarray(v, dtype=float)
    return bool(np.all(v >= -_SIMPLEX_TOL) and _sum_deviation(v) <= _SIMPLEX_TOL)
