"""Implicit finite-volume time stepping for the cross-diffusion system.

Each backward-Euler step solves, for the cell compositions u at the new
time level,

    m_K (u_iK - u_iK^old) / dt + sum_{sigma in E_K,int} m_sigma J_iKsigma = 0,

where the per-edge flux vector J_Ksigma is the unique solution of

    (c* I + Abar(u_sigma)) J_Ksigma = -(u_L - u_K) / d_sigma,

with edge compositions u_sigma given componentwise by the logarithmic mean
of the two adjacent cell values, |a - b| / log1p(|a - b| / min(a, b)),
which needs no threshold near a == b.  Boundary faces carry zero flux.
The nonlinear system is solved by Newton iteration with an analytic
block-sparse Jacobian, exact also for nearly equal cell values through the
series of Ismail and Roe (J. Comput. Phys. 228, 2009) for the log-mean
partials.  Each Newton state's edge pass does each piece of work once: one
gather of the cell values either side of every edge, one gap, log1p term
and log mean, and one set of edge matrices, inverses and fluxes, shared by
the residual and the Jacobian.  The log-mean partials are computed only
for the states whose Jacobian is factored, from that state's gap, log1p
term and log mean, and each of their branches (the series, the closed
form, the zero branch) only if some edge takes it: near equilibrium every
edge takes the series.

The edge matrices S = c* I + Abar(u_sigma) are stored as an (n, n, E)
structure of arrays, one contiguous length-E vector per entry, and
inverted together by Gauss-Jordan elimination with a Python loop over
the n pivots only: each pivot updates the rows above it, and then those
below it, as one slice each.  The flux is S^-1 applied to the jump, and the
Jacobian's flux blocks are S^-1/d_sigma minus S^-1 G times the log-mean
partials, so the one inverse serves both and the edge terms need no
LAPACK call.  No pivoting is needed: S is <= 0 off the diagonal and each
of its columns sums to c*; every Schur complement keeps both properties
with column sums >= c*, so every pivot is >= c* > 0.

The species sum decouples.  Abar is built from the symmetric cbar, so
1^T (c* I + Abar(u_sigma)) = c* 1^T and sum_i J_iKsigma =
-(s_L - s_K)/(c* d_sigma) with s = sum_i u_i: the summed equation is
linear in the cell sums, free of the compositions, and solved by s = 1
when the old sums are 1.  Newton therefore keeps every cell sum at its
old value and factors only the Jacobian reduced to the first n - 1
species, with u_n = s - sum_{j<n} u_j; volume filling holds by
construction of the update.  The reduced Jacobian, of (n-1) x (n-1)
blocks, is stored once per run, in one of two ways chosen once per run
from the mesh's structure, and refilled in place for every factor: its
storage is zeroed, and its raw block entries, laid out in one array in a
fixed order, are summed into the storage itself by one ``np.add.at``, so
no second matrix is assembled.

On a chain mesh, whose every interior edge joins two consecutive cells
(an interval, a disjoint union of intervals, a one-cell-thick rectangle,
a mesh without edges), the two-point flux makes the Jacobian block
tridiagonal: in the natural cell-major order its half-bandwidth is
2(n-1) - 1.  It is stored in LAPACK's band storage and factored by the
banded LU with partial pivoting, ``dgbtrf``, and solved by ``dgbtrs``
(Anderson et al., LAPACK Users' Guide, SIAM 1999, section 2.4), which on
such a matrix cost a fraction of SuperLU's fixed per-column work.

On any other mesh the cells are split once per run into red cells, no
two of them neighbours, and black ones, by one greedy pass in cell order:
on every tensor grid and disjoint union of grids the red cells are one
checkerboard colour.  The two-point flux couples a red cell only to
itself and to black cells, so the red-red part of the reduced Jacobian
is block diagonal, one (n-1) x (n-1) block per red cell, and the red
unknowns are eliminated exactly (Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., SIAM 2003, section 3.3): the red blocks are
inverted by the elimination of the edge matrices, with partial pivoting
(no sign pattern bounds their pivots), each red cell's
product J_BR D^-1 J_RB with its black neighbours comes from one batched
``matmul`` and is subtracted through slots, and SuperLU factors only the
Schur complement S on the black unknowns.  A solve reduces the
right-hand side, solves with S and back-substitutes the red unknowns.
S's pattern, built from keys, is numbered once per run in SuperLU's
symmetric minimum-degree order on S^T + S, which suits the structurally
symmetric S, so each factor is SuperLU's in the natural order of that
matrix.  SuperLU runs with unit panels and no relaxed supernodes
(``SUPERLU_SETTINGS``): the supernodes are narrow, and on the 70x70
blocks workload these settings took 21% less time than SuperLU's
defaults for the whole Jacobian's factors, with the same fill and the
same order.  On that workload (two steps at dt = 1e-5, 31 factors) the
factors of S hold 16.4 million L+U entries against 20.0 million for the
whole reduced Jacobian in its own such order, and SuperLU took 0.49 s
against 0.59 s (the same matrices, best of 10 alternating rounds); in
the run the factors with their red elimination took 0.53-0.55 s and the
55 solves 63-70 ms, against 0.61 s and 72-91 ms.  At 140x140 the 15
factors of two steps took 1.91 s against 2.75 s (42.8 against 50.4
million entries).  On both paths two gathers take the residual into
the solve's order and the solution out of it; a chain's order is the
identity.

The first step of a run starts its iteration at the old state; every
later step starts at the polynomial extrapolation of order q = min(p, 3)
of the last q + 1 states (Hairer and Wanner, Solving Ordinary
Differential Equations II, on starting values for the Newton iteration),
with coefficients (-1)^j C(q + 1, j + 1): 2 u^p - u^(p-1),
3 u^p - 3 u^(p-1) + u^(p-2) or 4 u^p - 6 u^(p-1) + 4 u^(p-2) - u^(p-3),
projected onto the simplex and scaled to the old cell sums.  Order 2 or 3
is taken only when every state it reads has all its volume fractions
above ``PROJECTION_FLOOR``; otherwise the start is the linear one.  Near
zero volume fractions the error-estimate stop below is not honest, and a
quadratic start there moved the accepted states of the blocks data by
1.3e-12 from states iterated to 1e-15.  On smooth data the cubic start
makes nearly every step end at its first update: the convergence study's
union takes 66 solves in 60 steps, against 122 from the linear start.
Where the iteration from the extrapolated start fails, for whatever
reason, the step is solved again from the old state, which is the
iteration without extrapolation: on high-contrast data the extrapolation
can overshoot where the old state does not.

Within a step the iteration is a chord (Shamanskii) method (Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003): each
attempt factors at its first iterate and keeps that LU while full
updates at least halve the residual norm (``CHORD_CONTRACTION``).  A
halving drops the LU, and so does a weaker contraction; a kept LU whose
full update does not lower the residual is refactored at the same
iterate.

An LU may also serve the next steps of a run, as implicit Runge-Kutta
codes keep theirs (Hairer and Wanner, section IV.8).  A step that ends on
an update from an LU factored at the iterate x_f that update starts from,
at a state whose every volume fraction lies above ``PROJECTION_FLOOR``,
leaves the run's plan that LU, a copy of x_f in a buffer the plan
allocates once, dt, and the norm of the step's first update.  The next
step at the same dt solves for its first update with that LU before it
assembles any Jacobian, and takes the update only by the error estimate
of :func:`_estimate_passes`, whose rate then includes the drift of the
step's start from x_f.  The carried solve is tried only when the drift
alone passes that estimate.  Otherwise, or when the update fails its
estimate, the carried LU is dropped and the attempt goes on from the
start's residual and edge terms, to the bit the iteration without it.  A
step that ends on the carried LU keeps it for the next.  Near the floor
the estimate is not honest, and a state there carries nothing: no step of
the blocks data carries an LU.  A chain's LU overwrites the plan's band,
so a carried LU is used before the next refill or not at all.  A factor
carried with no drift test moved the shipped runs' final states by
1.2e-12; with it, the carried steps of the entropy-decay run below lie
within 8e-14 of the same steps iterated to 1e-15.

The iteration releases each LU and each iterate's edge terms as soon as
it can no longer use them, so that at every edge evaluation at most one
of a live LU and another iterate's edge terms is alive.  A halving drops
the LU, which a halved update never keeps, and the rejected trial before
the next trial is evaluated.  A kept LU's trial runs without the edge
terms of the iterate it starts from; if that update is rejected, they are
recomputed, to the same bits, for the iterate's fresh factor.  A
carried LU is alive between steps, and beside the next start's edge
terms only.  The line search's trial, beside at most the LU, then sets
the peak resident set.
Over two steps of the blocks data at dt = 1e-5 that peak is 77.5 MiB at
70x70 and 126.3 MiB at 140x140 (``scripts/peak_memory.py``); with the
whole reduced Jacobian factored it was 77.3 and 131.6 MiB, and 80.3 and
143.6 MiB with that LU and the earlier edge terms kept through the line
search, for the same output bytes.

An update is taken in full and ends the iteration by the stop rule of
:func:`_estimate_passes`, which gives the error estimate and the rate of
each kind of update; other updates from a fresh LU are halved until the
residual norm over all n species decreases.  A fresh LU's estimate comes
before any trial residual, so a step that its first update ends costs one
residual, one factor and one solve, or one residual and one solve from a
carried LU.  In the entropy-decay run (N=64, dt = 1e-4, 2,000 steps) every
step from the 4th on ends at its first update, of 8.0e-8 and less, whose
estimate is at most 7e-13.  From step 203 on, 1,730 steps solve for it
with a carried LU, and one carried update fails its estimate: the run
takes 2,006 solves, 270 factors and 2,005 residuals, against 2,005, 2,000
and 2,005 with no LU carried.  A carried step there does its residual, its
solve and its error estimate and little else: the start is summed in one
buffer from a table of weights, the smallest volume fraction of each
state, which the floor test of up to four starts reads, is computed once
per state, the start's residual norm only if the carried update is
dropped, the candidate's minimum once for the estimate and the carry, and
the projection is made in place on the iterate.  Such a step, its sink's
relative entropy included, took a median 105 us in process against 121 us
with each of these computed afresh (2-core VM, Python 3.11, numpy 2.4).
On the convergence study's union steps 2 to 4 take two solves each, the
second ended by the estimate with theta, and every later step one, from a
fresh factor: there drift is 1.7e-2 to 0.33 against first updates of
about 4e-9, and no carried solve is tried.

The converged state is projected onto the unit simplex's interior by
flooring at ``PROJECTION_FLOOR`` and renormalising; its fluxes are
computed only if a caller reads them.

The logarithmic mean keeps the scheme entropy stable: cell compositions
stay positive, species masses are conserved, and the discrete entropy
decays by at least the dissipation rate computed in
:mod:`smfv.diagnostics`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import Mesh
from .model import SpeciesSystem, _sum_deviation

NEWTON_TOL = 1e-12          # bound on the last update's norm or on the error estimated to remain
MAX_NEWTON_ITERS = 50
MAX_DAMPING_HALVINGS = 30   # halvings without decrease before a step fails
CHORD_CONTRACTION = 0.5     # largest residual-norm ratio of a full update that keeps the LU
PROJECTION_FLOOR = 1e-12    # smallest volume fraction after a step
EXTRAPOLATION_ORDER = 3     # highest order of a step's extrapolated start
MAX_STEP_RATIO = 1e12       # T/dt bound below which num_time_steps is exact

# _EXTRAPOLATION[q][j] = (-1)^j C(q + 1, j + 1) weighs the j-th state, most
# recent first, in the start of order q; row 0 is unused.
_EXTRAPOLATION = tuple(tuple(float((-1) ** j * math.comb(q + 1, j + 1)) for j in range(q + 1))
                       for q in range(EXTRAPOLATION_ORDER + 1))

# SuperLU settings of every factor and of the order's incomplete factor.
# With n - 1 unknowns per cell, two for three species, the supernodes are
# narrow, and SuperLU's default multi-column panels and relaxed supernodes
# (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999) cost more than they
# save.  Unit panels without relaxation left L+U fill and the order
# unchanged and, refactoring the Jacobians of the benchmark workloads, took
# 21% less time at 70x70 (31 factors), and 49% less on the 1D convergence
# union and 11% less at N=64, which now take the band LU; the order's
# incomplete factor at 70x70 took 9 ms in place of 15.  Wide panels are
# avoided: panel_size=32 with the default relaxation ended a 70x70 run with
# a segmentation fault at interpreter exit.
SUPERLU_SETTINGS = {"relax": 1, "panel_size": 1}

# The log-mean partials come from the series where u = f^2 < _SERIES_MAX_U:
# F through u^_SERIES_ORDER is exact to rounding there, and above it the
# closed form's partials lose less than 1e-14.  The log mean itself needs
# neither.  _SERIES_DF[k - 1] is the u^(k-1) coefficient of 4 F'(u).
_SERIES_MAX_U = 1e-2
_SERIES_ORDER = 7
_SERIES_DF = tuple(4.0 * k / (2 * k + 1) for k in range(1, _SERIES_ORDER + 1))


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
    """Per-cell volume fractions, shape (n_species, n_cells), and species masses.

    The values are not changed after construction: the species masses
    ``mass_vector`` and the smallest volume fraction are computed at their
    first read, once per state.
    """

    mesh: Mesh
    values: np.ndarray
    _low = None  # the smallest volume fraction, once computed

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != self.mesh.num_cells:
            raise ValueError("state values must have shape (n_species, n_cells)")
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def mass_vector(self) -> np.ndarray:
        return self.values @ self.mesh.cell_measures

    def min_fraction(self) -> float:
        if self._low is None:
            object.__setattr__(self, "_low", float(self.values.min()))
        return self._low

    def sum_deviation(self) -> float:
        """Largest per-cell deviation of the species sum from one."""
        return _sum_deviation(self.values)


class FluxField:
    """Oriented per-edge species fluxes J_{i,K->L}, shape (n, n_interior_edges).

    Storage is oriented from cell K to cell L, so flux anti-symmetry under
    orientation flip holds by construction; boundary fluxes are implicitly
    zero.  ``FluxField(mesh, values)`` holds the given values.  The field
    :func:`newton_step` returns holds the step's projected state instead and
    computes its fluxes at the first read of ``values``, once; a caller
    that never reads them costs no edge evaluation.
    """

    def __init__(self, mesh: Mesh, values):
        vals = np.ascontiguousarray(np.asarray(values, dtype=float))
        if vals.ndim != 2 or vals.shape[1] != mesh.num_interior_edges:
            raise ValueError("flux values must have shape (n_species, n_interior_edges)")
        self.mesh = mesh
        self.values = vals  # an instance value: the lazy property below is not used

    @classmethod
    def _of_state(cls, system, state):
        """The fluxes of ``state``, computed at the first read of ``values``."""
        fluxes = cls.__new__(cls)
        fluxes.mesh = state.mesh
        fluxes._source = (system, state)
        return fluxes

    @functools.cached_property
    def values(self) -> np.ndarray:
        system, state = self._source
        return _edge_fluxes(system, self.mesh, state.values)[0]

    def max_species_sum(self) -> float:
        """Largest |sum_i J_i| over edges; zero for converged states."""
        return float(np.abs(self.values.sum(axis=0)).max(initial=0.0))


@dataclass(frozen=True)
class StepStats:
    """Per-step solver metadata reported alongside the new state.

    ``newton_iterations`` counts linear solves, ``lu_factors`` the LU
    factorisations among them and ``residual_evaluations`` the residuals
    evaluated, line-search trials included, over both attempts of a step
    that is solved again from its old state.  A solve with a kept factor
    makes the first exceed the second, and so does one with a factor
    carried from an earlier step: a step that ends on a carried LU counts
    one solve, no factor and one residual, and one whose carried update
    fails its estimate one solve more than without it.
    """

    newton_iterations: int
    pre_projection_sum_deviation: float
    lu_factors: int
    residual_evaluations: int


def _log_mean_terms(a, b):
    """The log mean of two arrays of one shape, with the terms its partials reuse.

    Returns ``(lam, d, ell)``: the log mean lam = |d| / ell, with the gap
    d = a - b and ell = log1p(|d| / min(a, b)).  See
    :func:`_log_mean_with_partials` for the formula and its branches;
    :func:`_log_mean_partials` takes the three terms.
    """
    # Non-positive arguments give 0/0 and logs below -1, and a subnormal
    # min(a, b) an overflow; the where-masks discard them.
    with np.errstate(all="ignore"):
        d = a - b
        gap = np.abs(d)
        low = np.minimum(a, b)
        ell = np.log1p(gap / low)
        lam = np.where(low > 0.0, a, 0.0)
        np.divide(gap, ell, out=lam, where=ell > 0.0)
    return lam, d, ell


def _log_mean_partials(a, b, lam, d, ell):
    """The log mean's partials ``(da, db)`` from the terms of :func:`_log_mean_terms`.

    Each branch of :func:`_log_mean_with_partials` is evaluated only if
    some entry takes it: the closed form is skipped where every u is below
    ``_SERIES_MAX_U``, as on all edges near equilibrium, the series where
    none is, and the zero-branch masks where every lam is positive.  Every
    entry gets the bits of the formula that evaluates both branches
    everywhere.
    """
    # a == b gives an infinite 1/L^2, an overflowed quotient an infinite L,
    # and zero arguments 0/0; the branch and zero masks discard them.
    with np.errstate(all="ignore"):
        s = a + b
        f = d / s
        u = f * f
        every = u.max(initial=0.0) < _SERIES_MAX_U
        if not every:
            series = u < _SERIES_MAX_U
            big_l = np.copysign(ell, d)
            inv_l2 = 1.0 / (big_l * big_l)
            da = big_l - d / a
            da *= inv_l2
            db = d / b
            db -= big_l
            db *= inv_l2
        if every or series.any():
            # w = 4 F'(u) by Horner's rule, in place; r = lam/s = 1/(2F), so
            # w r^2 = F'/F^2
            w = _SERIES_DF[-1] * u + _SERIES_DF[-2]
            for coeff in _SERIES_DF[-3::-1]:
                w *= u
                w += coeff
            r = lam / s
            w *= r * r
            u *= w
            u += r
            f *= w
            if every:
                da, db = u - f, u + f
            else:
                da = np.where(series, u - f, da)
                db = np.where(series, u + f, db)
    # lam is 0 exactly on the zero branch and where the quotient overflows
    if not lam.min(initial=math.inf) > 0.0:
        nonzero = lam > 0.0
        da, db = np.where(nonzero, da, 0.0), np.where(nonzero, db, 0.0)
    return da, db


def _log_mean_with_partials(a, b):
    """Vectorised log mean and its partial derivatives w.r.t. both arguments.

    The log mean is computed as |a - b| / log1p(|a - b| / min(a, b)), which
    equals a where a == b and has no cancellation for any pair of positive
    normal doubles: the gap is exact or rounded once, and log1p is well
    conditioned on its positive arguments.  It is totalised: 0, with both
    partials 0, whenever min(a, b) <= 0.  Below the normal range (a
    subnormal min(a, b)) the quotient may overflow, and the log mean is then
    finite and >= 0 but need not be accurate; where the overflow makes it 0,
    both partials are 0 too.  The formula is symmetric, so swapping a and b
    gives the same bits.

    The partials use L = log(a/b) = copysign(ell, a - b), with ell the same
    log1p, in the closed form d/da = (L - (a-b)/a)/L^2, symmetrically for b.
    It cancels as a and b approach each other, so where u = f^2 <
    ``_SERIES_MAX_U``, f = (a - b)/(a + b), they come from the series of
    Ismail and Roe instead: the log mean is (a + b)/(2 F(u)), F(u) =
    sum_k u^k/(2k + 1), with partials 1/(2F) -/+ (f -/+ u) F'/F^2, and
    1/(2F) is taken as the log mean over a + b.

    This is the composition of the scheme's two kernels,
    :func:`_log_mean_terms` and :func:`_log_mean_partials`, which an edge
    evaluation calls apart: the log mean at every Newton state, the
    partials from its terms at the factored ones.  Returns ``(lam, da,
    db)``; :func:`log_mean` is ``lam`` alone, the same to the bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam, d, ell = _log_mean_terms(a, b)
    return (lam, *_log_mean_partials(a, b, lam, d, ell))


def log_mean(a, b):
    """Componentwise log mean of scalars or equally shaped arrays, e.g. u_sigma.

    Zero where either argument is non-positive; otherwise it lies between
    min(a, b) and max(a, b).
    """
    return _log_mean_terms(np.asarray(a, dtype=float), np.asarray(b, dtype=float))[0][()]


def _edge_systems(system, lam):
    """The matrices S = c* I + Abar(u_sigma) of all edges, shape (n, n, E).

    ``lam`` holds the edge compositions, shape (n, E).  The layout is a
    structure of arrays: entry (i, m) of every edge's matrix is one
    contiguous length-E vector ``S[i, m]``.  Off the diagonal S is
    -cbar_im lam_i <= 0, and because cbar is symmetric every column of S
    sums to c*.
    """
    n = system.n
    mats = (-system.c_bar)[:, :, None] * lam[:, None, :]
    # the diagonal through a strided view; c_bar's diagonal is zero
    mats.reshape(n * n, -1)[::n + 1] = system.c_bar @ lam + system.c_star
    return mats


def _edge_inverse(mats, pivoting=False):
    """Inverse of every matrix of an (n, n, E) stack, by Gauss-Jordan elimination.

    The Python loop runs over the n pivots only: each pivot's row is
    scaled, and the rows above it and the rows below it are updated as one
    slice each, with, row by row, the arithmetic of a loop over the rows.
    No pivoting is needed for the matrices of :func:`_edge_systems`: they
    are <= 0 off the diagonal with column sums c*, so the first pivot is
    >= c*, and eliminating it leaves a Schur complement that is again <= 0
    off the diagonal with column sums c* (1 - S_kj / S_kk) >= c*.  By
    induction every pivot is >= c* > 0; for such column-diagonally dominant
    matrices elimination without pivoting is stable (growth factor at most
    2).

    ``pivoting`` serves matrices with no such bound, the red blocks of
    :class:`_RedBlackSchur`: each pivot is then the entry of largest
    magnitude in its column on or below the diagonal, the two rows are
    exchanged matrix by matrix, and the inverse's columns are exchanged
    back in the reverse order at the end (Press et al., Numerical Recipes,
    3rd ed., section 2.1).  A matrix whose pivot is not above n eps times
    its largest entry's magnitude, or not finite, is singular to working
    precision and raises ``RuntimeError``.

    The stack is overwritten by the inverses and returned, so that an edge
    evaluation holds one (n, n, E) array, not two.
    """
    n = mats.shape[0]
    # one buffer for the products of every update: fresh temporaries of that
    # size cost page faults at large E
    products = np.empty((n - 1,) + mats.shape[1:])
    if pivoting:
        # maxima over the leading axes as chains of length-E maxima: a
        # reduction over a short axis with these strides is ten times slower
        floor = n * np.finfo(float).eps * functools.reduce(
            np.maximum, np.abs(mats).reshape(n * n, -1))
        exchanges = []
    for k in range(n):
        if pivoting:
            # the matrices whose pivot is not yet the largest of its column
            column = np.abs(mats[k:, k])
            cells = np.flatnonzero(functools.reduce(np.maximum, column) > column[0])
            if len(cells):
                rows = k + np.argmax(column[:, cells], axis=0)
                upper = mats[k][:, cells]
                mats[k][:, cells] = mats[rows, :, cells].T
                mats[rows, :, cells] = upper.T
                exchanges.append((k, rows, cells))
            if not np.all(np.abs(mats[k, k]) > floor):
                raise RuntimeError("a red cell's diagonal block is singular to working precision")
        row = mats[k]
        inv_pivot = 1.0 / row[k]
        row[k] = 1.0
        row *= inv_pivot
        for others in (mats[:k], mats[k + 1:]):
            if len(others):
                update = np.multiply(others[:, k, None], row, out=products[:len(others)])
                others[:, k] = 0.0
                others -= update
    if pivoting:
        for k, rows, cells in reversed(exchanges):
            left = mats[:, k][:, cells]
            mats[:, k][:, cells] = mats[:, rows, cells]
            mats[:, rows, cells] = left
    return mats


def _edge_fluxes(system, mesh, values):
    """Edge terms of a cell state from one log mean and one inverse per edge.

    Returns ``(flux, inv, terms)``: the fluxes J = -S^-1 (u_L - u_K)/d_sigma,
    shape (n, E), the inverses of S = c* I + Abar(u_sigma) from
    :func:`_edge_inverse`, shape (n, n, E), which the Jacobian blocks reuse,
    and the arguments and terms of the log mean, ``(uk, ul, lam, d, ell)``,
    each of shape (n, E), from which the Jacobian takes its partials.  The
    jump u_K - u_L is the log mean's d.
    """
    uk, ul = values.ravel().take(mesh.edge_sides(len(values)))
    lam, d, ell = _log_mean_terms(uk, ul)
    inv = _edge_inverse(_edge_systems(system, lam))
    flux = np.einsum("ijE,jE->iE", inv, d / mesh.edge_distance)
    return flux, inv, (uk, ul, lam, d, ell)


def _residual_values(system, mesh, values, old_values, dt):
    """Residual of ``values`` and its edge terms, which the Jacobian reuses.

    One ``np.bincount`` over the mesh's cell-edge incidence adds, per
    species and cell, the time term, then the flux of every edge leaving
    the cell and minus that of every edge entering it, in edge order.
    """
    edges = _edge_fluxes(system, mesh, values)
    n, cells = values.shape
    incidence = mesh.cell_edge_incidence(n)
    terms = np.empty(len(incidence))
    time_terms = terms[:n * cells].reshape(n, cells)
    weighted, entering = terms[n * cells:].reshape(2, n, -1)
    np.subtract(values, old_values, out=time_terms)
    time_terms *= mesh.cell_measures
    time_terms /= dt
    np.multiply(mesh.edge_measure, edges[0], out=weighted)
    np.negative(weighted, out=entering)
    res = np.bincount(incidence, weights=terms, minlength=n * cells)
    return res.reshape(n, cells), edges


def _check_dt(dt):
    if not dt > 0.0:
        raise ValueError("dt must be positive")


def residual(system: SpeciesSystem, u_new: StateField, u_old: StateField,
             dt: float) -> np.ndarray:
    """Backward-Euler residual of the implicit step, shape (n, n_cells).

    Both states must lie on one mesh, the one the residual is taken on.
    Boundary faces contribute nothing (zero-flux boundary).  Summed over all
    cells the flux contributions telescope, so the residual total equals the
    mass-change total for every species.
    """
    if u_old.mesh is not u_new.mesh:
        raise ValueError("u_old does not belong to the given mesh of u_new")
    _check_dt(dt)
    return _residual_values(system, u_new.mesh, u_new.values, u_old.values, dt)[0]


def _entry_keys(mesh, n, stride):
    """The key row + stride * column of every raw Jacobian entry, with n x n blocks.

    Unknown ordering is cell-major: flat index K * n + i.  The raw entries
    are the (K, K), (K, L), (L, K) and (L, L) blocks of the interior edges,
    each in the (n, n, E) layout of :func:`_edge_systems`, followed by the
    n diagonal entries of every cell.
    """
    k, l = mesh.edge_cell_k, mesh.edge_cell_l
    i = np.arange(n)
    rows = np.stack([k, k, l, l])[:, None, None, :] * n + i[:, None, None]
    cols = np.stack([k, l, k, l])[:, None, None, :] * n + i[:, None]
    return np.concatenate([(cols * stride + rows).ravel(),
                           np.arange(mesh.num_cells * n) * (stride + 1)])


def _csc(keys, size, data):
    """The canonical CSC matrix of sorted unique keys row + size * column, and ``data``.

    Its index arrays are ``np.intc``, as SuperLU takes them, and its
    ``data`` is ``data`` itself, not a copy.
    """
    indptr = np.searchsorted(keys // size, np.arange(size + 1)).astype(np.intc)
    matrix = sp.csc_matrix((np.zeros(len(keys)), (keys % size).astype(np.intc), indptr),
                           shape=(size, size))
    matrix.data = data
    matrix.has_canonical_format = True
    return matrix


def _jacobian_pattern(mesh, n):
    """A CSC matrix with n x n blocks, with zero data, and the slot of every raw entry.

    The raw entries are those of :func:`_entry_keys`.  Returns
    ``(matrix, slot, perm)``: summing the raw entries by ``slot`` gives
    the matrix's ``data``, and ``perm`` is the identity: unknown q is row
    and column q.
    """
    size = mesh.num_cells * n
    # column-major keys: sorting them gives the CSC order
    unique, slot = np.unique(_entry_keys(mesh, n, size), return_inverse=True)
    return _csc(unique, size, np.zeros(len(unique))), slot, np.arange(size)


def _minimum_degree_order(keys, size):
    """SuperLU's fill-reducing order of the CSC pattern of sorted unique ``keys``.

    Unknown q is to be row and column ``perm[q]`` of the matrix, which
    SuperLU is then to factor in its natural order.  ``perm`` is the
    ``perm_c`` of ``splu(A, permc_spec="MMD_AT_PLUS_A")`` for any A with
    the pattern: the symmetric minimum-degree order on A^T + A, which suits
    a structurally symmetric pattern, postordered by SuperLU's elimination
    tree.  scipy takes no ``perm_c`` input, so it is read off an incomplete
    factor of an M-matrix with the pattern (-1 off the diagonal, the matrix
    order on it, which every column must store), which exists for any
    dropping and costs a fraction of a full factor.  The order comes from
    the structure alone, never from values: S of the blocks data's first
    factor at 70x70, from its exact zeros, holds 26,557 numeric zeros in
    its 85,968 entries, and the order of the pattern without them took the
    fill of the last factor of two steps from 533,196 to 777,256 and its
    time from 14 to 46 ms.
    """
    m_matrix = _csc(keys, size, np.where(keys % (size + 1) == 0, float(size), -1.0))
    return spla.spilu(m_matrix, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                      fill_factor=1, **SUPERLU_SETTINGS).perm_c.astype(np.intp)


def _distinct(keys):
    """The distinct values of an integer array, sorted.

    ``np.unique`` gives the same, but numpy 2.4 hashes them first: on the
    keys of a 70x70 mesh it took ten times as long.
    """
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _red_cells(mesh):
    """A maximal independent set of the mesh's cells, as a boolean mask.

    One greedy pass in cell order: a cell is red unless an earlier
    neighbour is.  So no interior edge joins two red cells, and every
    black cell has a red neighbour.  On a tensor grid and on a disjoint
    union of grids the red cells are one checkerboard colour; on any other
    mesh they still form such a set.
    """
    k, l = mesh.edge_cell_k, mesh.edge_cell_l
    earlier, later = np.minimum(k, l), np.maximum(k, l)
    order = np.argsort(earlier, kind="stable")
    # memoryviews, not lists: their ints are freed as the loop goes, where
    # the lists' ints left 0.13 MiB of the blocks workload's peak at 70x70
    starts = memoryview(np.searchsorted(earlier[order], np.arange(mesh.num_cells + 1)))
    later = memoryview(later[order])
    red = bytearray(mesh.num_cells)
    blocked = bytearray(mesh.num_cells)
    for cell in range(mesh.num_cells):
        if not blocked[cell]:
            red[cell] = 1
            for other in later[starts[cell]:starts[cell + 1]]:
                blocked[other] = 1
    return np.frombuffer(red, dtype=bool)


def _band_width(n):
    """Half-bandwidth kl = ku of a chain mesh's Jacobian with n x n blocks, cell-major."""
    return 2 * n - 1


def _band_pattern(mesh, n):
    """LAPACK band storage of a chain mesh's Jacobian, zeroed, and the slot of every raw entry.

    On a chain mesh every interior edge joins cells K and K +- 1, so with
    n x n blocks in the cell-major order of :func:`_entry_keys` entry
    (r, c) is nonzero only for |r - c| <= kl = ku = 2n - 1.  It is stored
    at row kl + ku + r - c, column c of a (2 kl + ku + 1, n |T|) array in
    Fortran order, as LAPACK's ``dgbtrf`` takes it: the first kl rows hold
    the factor's fill from row interchanges.  That is memory offset
    2 kl + r + (ldab - 1) c, ldab = 3 kl + 1.  Returns ``(band, slot,
    perm)`` like :func:`_jacobian_pattern`, with ``perm`` the identity:
    summing the raw entries by ``slot`` into the band's memory fills it.
    """
    kl = _band_width(n)
    ldab = 3 * kl + 1
    band = np.zeros((ldab, mesh.num_cells * n), order="F")
    return band, _entry_keys(mesh, n, ldab - 1) + 2 * kl, np.arange(band.shape[1])


def _jacobian_matrix(system, mesh, edges, dt, pattern):
    """Exact derivative of the residual w.r.t. the new state, in a pattern's storage.

    ``edges`` are the state's terms from :func:`_edge_fluxes` and
    ``pattern`` the ``(matrix, slot, perm)`` of :func:`_jacobian_pattern`,
    of :func:`_band_pattern` or of :class:`_RedBlackSchur`, whose CSC
    matrix, band or storage array is refilled in place and returned; the
    pattern has b = len(perm) / |T| unknowns per cell.  Differentiating
    S J = -(u_L - u_K)/d_sigma, S = c* I + Abar(u_sigma), through the jump
    and the edge compositions gives, with the state's edge inverses
    S^-1 and P = S^-1 G, G = d(Abar(u_sigma) J)/du_sigma at fixed J,

        dJ/du_K = S^-1/d_sigma - P diag(dlam/du_K),
        dJ/du_L = -S^-1/d_sigma - P diag(dlam/du_L),

    so no further solve is needed.  The log-mean partials are computed here,
    by :func:`_log_mean_partials` from the log-mean terms the edge terms
    carry: the residual, which most states only need, does without them.
    All blocks are built in the (n, n, E) layout, one length-E vector per
    entry: -G with the sign of cbar folded in, -P by one ``np.einsum``,
    and m_sigma dJ/du_K and m_sigma dJ/du_L from them.

    With blocks of size b = n - 1 the pattern holds the reduction to the
    first n - 1 species at fixed cell sums, u_n = s - sum_{j<n} u_j: rows
    i < n and columns dF/du_j - dF/du_n for j < n.  The time-derivative
    diagonal is unchanged by it.
    """
    flux, inv, (uk, ul, lam, d, ell) = edges
    da, db = _log_mean_partials(uk, ul, lam, d, ell)
    n = system.n
    matrix, slot, perm = pattern
    b = len(perm) // mesh.num_cells
    weighted = mesh.edge_measure * flux
    # -m_sigma G[j, m] = -m_sigma d(Abar(s) J)_j / d s_m at fixed J
    gmat = (-system.c_bar)[:, :, None] * weighted[:, None, :]
    gmat.reshape(n * n, -1)[::n + 1] = system.c_bar @ weighted
    prod = np.einsum("ijE,jmE->imE", inv[:b], gmat)  # -m_sigma P, rows i < b
    del gmat
    tau = mesh.edge_tau * inv[:b]

    # the raw entries in their order: the (K, K), (K, L), (L, K) and (L, L)
    # blocks, then the time derivative of every cell's b unknowns
    m = b * b * mesh.num_interior_edges
    raw = np.empty(len(slot))
    blocks = raw[:4 * m].reshape(4, b, b, -1)
    # m_sigma dJ/du_K = -m_sigma P dlam/du_K + tau S^-1, then m_sigma dJ/du_L
    # = -m_sigma P dlam/du_L - tau S^-1, each reduced into its block
    full = np.empty_like(prod)
    for block, partial, add_tau in ((blocks[0], da, np.add), (blocks[1], db, np.subtract)):
        np.multiply(prod, partial, out=full)
        add_tau(full, tau, out=full)
        if b < n:
            np.subtract(full[:, :b], full[:, b:], out=block)
        else:
            block[...] = full
    np.negative(blocks[:2], out=blocks[2:])
    np.divide(mesh.cell_measures[:, None], dt, out=raw[4 * m:].reshape(-1, b))
    # summed into the storage itself, in the order of the raw entries: the
    # band's Fortran memory (a view), the Schur storage or the CSC data
    out = matrix.T.reshape(-1) if isinstance(matrix, np.ndarray) else matrix.data
    out[:] = 0.0
    np.add.at(out, slot, raw)
    return matrix


def jacobian(system: SpeciesSystem, u_new: StateField, dt: float):
    """Analytic residual Jacobian on the mesh of ``u_new``, sparse (n|T| x n|T|).

    The time-derivative part is diagonal, so the old state does not enter.
    """
    _check_dt(dt)
    mesh = u_new.mesh
    return _jacobian_matrix(system, mesh, _edge_fluxes(system, mesh, u_new.values),
                            dt, _jacobian_pattern(mesh, system.n))


def project_simplex(u) -> np.ndarray:
    """Floor the components at ``PROJECTION_FLOOR``, renormalise each column to unit sum.

    ``u`` holds one composition per column (a 1D vector is one composition).
    Returns strict-interior simplex points.  Note that when the floored sum
    exceeds one, a floored component lands one part in 1/floor below the
    floor after normalisation.
    """
    return _floor_and_normalise(np.asarray(u, dtype=float))


def _floor_and_normalise(u, out=None):
    """:func:`project_simplex` of the float array ``u``, written into ``out`` if given."""
    v = np.maximum(u, PROJECTION_FLOOR, out=out)
    v /= v.sum(axis=0)
    return v


def _project_values(values):
    """Cellwise floor-and-renormalise, then clamp back to the floor, in place.

    The renormalisation can round a floored entry one part in 1/floor below
    the floor; the final clamp keeps every entry at or above the floor while
    moving cell sums away from one by at most a few units of n*floor^2.
    """
    v = _floor_and_normalise(values, out=values)
    return np.maximum(v, PROJECTION_FLOOR, out=v)


class _RedBlackSchur:
    """A non-chain mesh's reduced Jacobian, condensed onto its black cells.

    The cells are split by :func:`_red_cells` into red cells, no two of
    them neighbours, and black ones.  With the unknowns of each colour
    grouped, the reduced Jacobian is [[D, J_RB], [J_BR, J_BB]], where D is
    block diagonal with one b x b block per red cell, b = n - 1.  The red
    unknowns are eliminated exactly: SuperLU factors only the Schur
    complement S = J_BB - J_BR D^-1 J_RB on the black unknowns (Saad,
    Iterative Methods for Sparse Linear Systems, 2nd ed., SIAM 2003,
    section 3.3).  Everything below is built once per run, from keys.

    ``pattern`` is the ``(storage, slot, perm)`` that
    :func:`_jacobian_matrix` fills: summing the raw entries by ``slot``
    into the zeroed ``storage`` lays out, in one array, J_BB on S's CSC
    pattern (the data of ``matrix``, a view), one spare entry, the red
    blocks D, shape (reds, b, b), and the coupling of every red cell with
    its black neighbours, ``width`` of them at most, in ``shape`` =
    (reds, b, width * b): J_BR with each red cell's part transposed, and
    J_RB.  A red cell with fewer neighbours leaves zero padding there.
    S's pattern is the union of J_BB's and that of the products of each
    red cell's neighbours, numbered by :func:`_minimum_degree_order`.
    ``perm`` places unknown q at ``perm[q]`` of the solve's vector: the
    black unknowns in S's order, then the red ones, cell by cell.
    ``products`` is the slot in ``storage`` of every entry of the
    per-red-cell products, the spare entry for padding, and ``spread`` the
    position in S of every black unknown next to a red cell, S's size for
    padding.  ``slot`` and ``products``, each about as long as the
    storage, are ``np.int32``, which numpy converts on every call: as
    ``np.intp`` their scatters took 0.45-0.50 and 0.24-0.26 ms at 70x70 in
    place of 0.47-0.51 and 0.29-0.32, but the blocks workload's peak
    resident set rose by 1.3 MiB.  ``spread`` is ``np.int32`` too.
    """

    def __init__(self, mesh, b):
        cells = mesh.num_cells
        # allocated before the temporaries, so that freeing them can shrink
        # the heap: made last, it kept 0.26 MiB of the blocks workload's peak
        perm = np.empty(cells * b, dtype=np.intp)
        red = _red_cells(mesh)
        reds = int(np.count_nonzero(red))
        blacks = cells - reds
        black_size = blacks * b
        # a cell's index among the cells of its colour
        local = np.empty(cells, dtype=np.intp)
        local[red] = np.arange(reds)
        local[~red] = np.arange(blacks)

        # each red cell's distinct black neighbours, as keys red * cells + black
        k, l = mesh.edge_cell_k, mesh.edge_cell_l
        ends, others = np.concatenate([k, l]), np.concatenate([l, k])
        mixed = red[ends] & ~red[others]
        pairs = _distinct(local[ends[mixed]] * cells + others[mixed])
        owner = pairs // cells
        first = np.searchsorted(owner, np.arange(reds))
        width = int(np.bincount(owner, minlength=reds).max(initial=0))
        near = np.full((reds, width), -1)
        near[owner, np.arange(len(pairs)) - first[owner]] = local[pairs % cells]
        coupled = (near >= 0)[:, :, None] & (near >= 0)[:, None, :]
        # the block of rows near[r, a] and columns near[r, c], as a key
        # column * blacks + row of black cells
        pair_blocks = near[:, None, :] * blacks + near[:, :, None]

        # S's blocks: every black cell's own, those of the edges between
        # black cells and those of every two black neighbours of a red cell
        joined = ~(red[ends] | red[others])
        blocks = _distinct(np.concatenate([np.arange(blacks) * (blacks + 1),
                                           local[others[joined]] * blacks + local[ends[joined]],
                                           pair_blocks[coupled]]))
        # entry (i, j) of every block, as a key column * black_size + row of
        # black unknowns; then S's data index of each in the order of S
        species = np.arange(b)
        entries = (((blocks // blacks * b)[:, None, None] + species) * black_size
                   + (blocks % blacks * b)[:, None, None] + species[:, None])
        order = _minimum_degree_order(np.sort(entries, axis=None), black_size)
        entries = (order[entries // black_size] * black_size + order[entries % black_size]).ravel()
        sorter = np.argsort(entries)
        keys = entries[sorter]
        table = np.empty_like(sorter)
        table[sorter] = np.arange(len(keys))
        table = table.reshape(-1, b, b)

        nnz = len(keys)
        block = b * b
        self.blocks = slice(nnz + 1, nnz + 1 + reds * block)
        self.below = slice(self.blocks.stop, self.blocks.stop + reds * width * block)
        self.right = slice(self.below.stop, self.below.stop + reds * width * block)
        storage = np.zeros(self.right.stop)
        self.matrix = _csc(keys, black_size, storage[:nnz])
        self.shape = (reds, b, width * b)
        # the index arrays below live for the whole run: every temporary of
        # their making goes before the next is made
        del entries, sorter, keys

        def slots(rows, cols):
            """The storage slot of entry (i, j) of the blocks (rows, cols), shape (len, b, b)."""
            out = np.empty((len(rows), b, b), dtype=np.intp)
            row_red, col_red = red[rows], red[cols]
            black = ~(row_red | col_red)
            out[black] = table[np.searchsorted(
                blocks, local[cols[black]] * blacks + local[rows[black]])]
            own = row_red & col_red  # a red cell's own block: no edge joins two red cells
            out[own] = (self.blocks.start + species[:, None] * b + species
                        + local[rows[own], None, None] * block)
            # a black row of a red column in J_BR, a red row of a black one in
            # J_RB, both (reds, b, width * b): block s of red cell r, with
            # the strides of the row's and the column's species
            for mask, red_cells, black_cells, start, i_step, j_step in (
                    (~row_red & col_red, cols, rows, self.below.start, 1, width * b),
                    (row_red & ~col_red, rows, cols, self.right.start, width * b, 1)):
                r = local[red_cells[mask]]
                s = np.searchsorted(pairs, r * cells + black_cells[mask]) - first[r]
                base = start + r * width * block + s * b
                out[mask] = base[:, None, None] + species[:, None] * i_step + species * j_step
            return out

        # the raw entries' layout: the (K, K), (K, L), (L, K) and (L, L)
        # blocks of the edges, each (b, b, E), then each cell's diagonal
        edge_entries = 4 * block * mesh.num_interior_edges
        slot = np.empty(edge_entries + cells * b, dtype=np.int32)
        for out, rows, cols in zip(slot[:edge_entries].reshape(4, b, b, -1),
                                   (k, k, l, l), (k, l, k, l)):
            out[...] = slots(rows, cols).transpose(1, 2, 0)
        diagonal = slots(np.arange(cells), np.arange(cells))
        slot[edge_entries:] = diagonal[:, species, species].ravel()

        # entry (a b + i, c b + j) of red cell r's product: entry (i, j) of
        # block pair_blocks[r, a, c], or the spare entry for padding
        products = table[np.searchsorted(blocks, np.where(coupled, pair_blocks, 0))]
        del table
        products[~coupled] = nnz
        self.products = products.transpose(0, 1, 3, 2, 4).astype(np.int32).ravel()
        del products
        # the black unknowns next to each red cell in S's order, S's size for padding
        spread = (near[:, :, None] * b + species).reshape(reds, -1)
        self.spread = np.where(spread >= 0, order[np.maximum(spread, 0)],
                               black_size).astype(np.int32)

        unknown = np.arange(cells * b)
        within = local[unknown // b] * b + unknown % b
        np.add(black_size, within, out=perm)
        is_black = ~red[unknown // b]
        perm[is_black] = order[within[is_black]]
        self.pattern = (storage, slot, perm)

    def condense(self, storage):
        """Eliminate the red unknowns of the filled ``storage`` in place; its red parts.

        D is inverted in place by :func:`_edge_inverse`, with partial
        pivoting, on its (b, b, reds) view, J_RB overwritten by D^-1 J_RB,
        and J_BR D^-1 J_RB, one (width * b) x (width * b) product per red
        cell by one batched ``matmul``, subtracted from J_BB, so that
        ``storage`` holds S, D^-1, J_BR and D^-1 J_RB.  Returns the views
        ``(D^-1, J_BR, D^-1 J_RB)``, each red cell's J_BR part transposed.
        A red block singular to working precision, or one whose inverse is
        not finite, raises ``RuntimeError``, as a singular SuperLU factor
        does.

        The pivots are not bounded away from zero as those of the edge
        matrices are: D is m_K/dt I plus the cell's flux derivatives, whose
        P diag(dlam/du_K) term and the reduction to b species can take
        either sign, so at a large dt nothing keeps a block's diagonal
        dominant.  Hence the pivoting, and the refusal of a block that is
        singular to working precision, whose inverse, and so S, would be
        rounding error: the whole Jacobian may still be regular there, but
        this elimination cannot serve it.
        """
        reds, b, span = self.shape
        blocks = storage[self.blocks].reshape(reds, b, b)
        below = storage[self.below].reshape(reds, b, span)
        right = storage[self.right].reshape(reds, b, span)
        # with partial pivoting: nothing bounds these blocks' pivots
        with np.errstate(all="ignore"):
            if not np.isfinite(_edge_inverse(blocks.transpose(1, 2, 0), pivoting=True)).all():
                raise RuntimeError("a red cell's diagonal block is singular to working precision")
        np.matmul(blocks, right, out=right)
        np.subtract.at(storage, self.products,
                       np.matmul(below.transpose(0, 2, 1), right).ravel())
        return blocks, below, right

    def factor(self, storage):
        """:meth:`condense` the filled ``storage`` and factor S; the function that solves.

        ``storage`` is the pattern's own, which ``matrix`` views.  SuperLU
        factors S in its natural order.  The solve reduces the right-hand
        side by J_BR D^-1, solves with S and back-substitutes the red
        unknowns through D^-1 and D^-1 J_RB, so a refill of ``storage``
        ends it.
        """
        blocks, below, right = self.condense(storage)
        reds, b, _ = self.shape
        # The order is fixed per run, so SuperLU orders nothing here.  Its
        # own symbolic reuse (options={"Fact": "SamePattern"}) crashes the
        # process in scipy 1.17.1 and is not used.
        lu = spla.splu(self.matrix, permc_spec="NATURAL", **SUPERLU_SETTINGS)
        black_size, spread = self.matrix.shape[0], self.spread

        # the per-cell products of the solve: einsum takes a third of the
        # time of matmul on these (b x b) and (b x width b) blocks
        def solve(rhs):
            red = np.einsum("rij,rj->ri", blocks, rhs[black_size:].reshape(reds, b))
            black = rhs[:black_size]
            black -= np.bincount(spread.ravel(), np.einsum("rja,rj->ra", below, red).ravel(),
                                 minlength=black_size + 1)[:black_size]
            black = lu.solve(black)
            # padding reads any entry: its columns of D^-1 J_RB are zero
            red -= np.einsum("ria,ra->ri", right, black.take(spread, mode="clip"))
            return np.concatenate([black, red.ravel()])

        return solve


class _StepPlan:
    """What every step of one run on one mesh shares: the reduced Jacobian's storage.

    ``chain`` is decided once, from the mesh: whether every interior edge
    joins two consecutive cells, as on an interval, a disjoint union of
    intervals, a one-cell-thick rectangle or a mesh without edges.  A
    chain's Jacobian is banded in the natural cell-major order and is
    stored and factored as a band by LAPACK.  Any other mesh's is stored
    by ``schur``, a :class:`_RedBlackSchur`, which eliminates the red
    cells' unknowns and leaves SuperLU the Schur complement on the black
    ones: on the 70x70 blocks workload that factor took a sixth less
    time than the whole reduced Jacobian's, with a sixth fewer L+U
    entries.  ``pattern`` is the band's or the Schur storage's
    ``(storage, slot, perm)``, and ``gathers`` take a residual into the
    solve's order and a solution out of it.  All of them are built at
    their first use, inside the first step.

    ``carried`` is None, or ``(solve, dt, norm)``: the LU a step ended on,
    factored at the iterate held in ``factored``, the step size of its
    Jacobian, and the norm of the first update of the last step that ended
    with it.  :func:`_chord_newton` takes it at the start of an attempt
    (:meth:`take_carried`), so an LU serves at most the next step of the
    plan, and sets it only as the attempt returns, before any other
    refill of the pattern.  ``factored`` is allocated once, at the first
    carry, and overwritten by every later one.
    """

    def __init__(self, mesh, n):
        self.mesh = mesh
        self.n = n
        self.carried = None

    @functools.cached_property
    def chain(self):
        return bool(np.all(np.abs(self.mesh.edge_cell_l - self.mesh.edge_cell_k) == 1))

    @functools.cached_property
    def pattern(self):
        if self.chain:
            return _band_pattern(self.mesh, self.n - 1)
        return self.schur.pattern

    @functools.cached_property
    def schur(self):
        return _RedBlackSchur(self.mesh, self.n - 1)

    @functools.cached_property
    def gathers(self):
        """Index arrays ``(into, out_of)`` of the two gathers of every solve.

        For a residual ``res`` of shape (n, cells), ``res.ravel()[into]``
        holds its first n - 1 rows in the matrix's order; for a solution
        in that order, ``solution[out_of]`` is the update of the first
        n - 1 species, shape (n - 1, cells).
        """
        perm = self.pattern[2]
        cells, b = self.mesh.num_cells, self.n - 1
        into = np.empty_like(perm)
        into[perm] = (np.arange(cells)[:, None] + cells * np.arange(b)).ravel()
        return into, perm.reshape(cells, b).T

    def factor(self, matrix):
        """LU factor of the refilled pattern; returns the function that solves with it.

        The solve function may overwrite its right-hand side, and it reads
        the storage, so it ends at the next refill.  A factor with an
        exactly zero pivot raises ``RuntimeError``, as SuperLU does, and so
        does a red block of the Schur storage that is singular to working
        precision.
        """
        if self.chain:
            # partial pivoting (dgbtrf) within the band; the factor
            # overwrites the band, which is refilled before the next one
            kl = _band_width(self.n - 1)
            lu, ipiv, info = lapack.dgbtrf(matrix, kl, kl, overwrite_ab=True)
            if info > 0:
                raise RuntimeError(f"band LU factor is exactly singular: pivot {info} is zero")
            return lambda rhs: lapack.dgbtrs(lu, kl, kl, rhs, ipiv, overwrite_b=True)[0]
        return self.schur.factor(matrix)

    @functools.cached_property
    def factored(self):
        """The buffer of the iterate the carried LU was factored at."""
        return np.empty((self.n, self.mesh.num_cells))

    def carry(self, solve, x, dt, norm):
        """Keep ``solve``, the LU factored at ``x``, for the next step at ``dt``."""
        np.copyto(self.factored, x)
        self.carried = (solve, dt, norm)

    def take_carried(self, x, dt):
        """The carried LU's ``(solve, drift)`` for an attempt at ``dt`` from ``x``, or None.

        The plan no longer holds the LU afterwards.  drift = max |x - x_f|/x,
        with x_f the factored iterate (see :func:`_estimate_passes`).  The
        LU is returned only at the step size it was factored at, and only
        if drift passes the error estimate with the carried first-update
        norm in place of the update's, whose norm it predicts.
        """
        carried, self.carried = self.carried, None
        if carried is None or carried[1] != dt:
            return None
        solve, _, norm = carried
        drift = _relative_change(np.abs(x - self.factored), x, x.min())
        if not _estimate_passes(drift, norm):
            return None
        return solve, drift


def _relative_change(size, cand, low):
    """max |delta|/cand from ``size`` = |delta|, which it overwrites, and ``low`` = min(cand).

    Infinite when ``cand`` has an entry <= 0; a quotient that overflows
    reads inf too, which no error estimate passes.
    """
    if not low > 0.0:
        return math.inf
    with np.errstate(over="ignore"):
        size /= cand
    return float(size.max())


def _estimate_passes(rate, norm):
    """Whether an update of infinity norm ``norm`` at ``rate`` passes the error estimate.

    This is the stop rule of the Newton iteration: an update is taken in
    full and ends the iteration when its norm is below ``NEWTON_TOL``, the
    absolute stop, or when this estimate passes.  The estimate is error
    oriented (Deuflhard, Newton Methods for Nonlinear Problems, Springer
    2004, ch. 2): the error left after the update is rate/(1 - rate) times
    its norm, which must be below ``NEWTON_TOL``; no rate >= 1 passes.  The
    rate of each kind of update:

    - An update from a fresh LU: rho, the largest relative change |delta|/u
      it makes to any volume fraction of the iterate it produces
      (:func:`_relative_change`, infinite if that iterate has an entry
      <= 0).  The log mean is monotone and homogeneous of degree one, so
      rho bounds the relative change of every edge composition, and with
      it the Jacobian's relative drift over the update: the Kantorovich
      quantity h, with which a Newton update leaves an error of about
      (h/2) |delta|.
    - An update from a carried LU: max(drift, rho), with drift = max
      |x0 - x_f|/x0 of the step's start x0 from the iterate x_f the LU was
      factored at, which bounds the Jacobian's relative change since the
      factor as rho bounds it over an update.  The carried solve is tried
      only when drift alone passes, with the norm of the previous step's
      first update in place of the update's.
    - The update after a full Newton update, one from a fresh LU accepted
      without halving: max(theta, rho_N), with theta the ratio of the two
      updates' norms and rho_N that Newton update's rho.  An update from a
      kept LU is estimated only so; one from a fresh LU also by its own
      rho.

    Theta alone, Newton's quadratic contraction, understated the error left
    by factors of 600 and more on the blocks data and on high-contrast
    cases near zero volume fractions, and so did theta of two updates from
    a kept LU.
    """
    return rate * norm < (1.0 - rate) * NEWTON_TOL


def _chord_newton(system, plan, x, old_values, dt, counts):
    """The chord-Newton root of the step from ``old_values``, iterated from ``x``.

    Returns the converged iterate before the projection.  ``counts`` holds
    the running totals ``[solves, factors, residual evaluations]`` and is
    incremented in place, so that the work of a failed attempt is counted
    too; recomputing an iterate's edge terms for its refactor is no residual
    evaluation.  Raises :class:`NonConvergence` when the iteration budget or
    the halvings run out, or a factor or solve fails.

    The attempt first takes the plan's carried LU (:meth:`_StepPlan.take_carried`)
    and solves for its first update with it; that update ends the attempt
    only by the error estimate with the carried LU's drift, and otherwise
    the iteration goes on from ``x``, its residual and its edge terms as
    without it.  An attempt that ends on an update from an LU factored at
    the iterate the update starts from, at a candidate whose every entry
    lies above ``PROJECTION_FLOOR``, leaves that LU to the plan; one that
    ends on the carried LU keeps it there.

    Each LU and each iterate's edge terms are released as soon as the
    iteration can no longer use them: at every edge evaluation at most one
    of a live LU and another iterate's edge terms is alive (see the module
    docstring).
    """
    mesh = plan.mesh
    reduced = system.n - 1
    carried = plan.take_carried(x, dt)
    delta = np.empty_like(x)
    res_norm = math.inf
    iterations = 0
    solve = None
    newton = None  # (norm, relative change) of the last update, if a full Newton update
    first = None  # the norm of the attempt's first update
    try:
        res, edges = _residual_values(system, mesh, x, old_values, dt)
        counts[2] += 1
        into, out_of = plan.gathers
        if carried is not None:
            solve, drift = carried
            delta[:reduced] = solve(-res.ravel()[into])[out_of]
            delta[reduced] = -delta[:reduced].sum(axis=0)
            counts[0] += 1
            size = np.abs(delta)
            first = float(size.max())
            cand = x + delta
            low = cand.min()
            rate = max(drift, _relative_change(size, cand, low))
            if _estimate_passes(rate, first):
                if low > PROJECTION_FLOOR:
                    plan.carried = (solve, dt, first)
                return cand
            # dropped: the iteration from x is the one without it
            carried = solve = None
        res_norm = float(np.abs(res).max())
        for iterations in range(1, MAX_NEWTON_ITERS + 1):
            stale = solve is not None
            if not stale:
                if edges is None:
                    # x's edge terms were released for a kept LU's trial,
                    # which was rejected: the same bits again
                    edges = _edge_fluxes(system, mesh, x)
                matrix = _jacobian_matrix(system, mesh, edges, dt, plan.pattern)
                # a freshly factored iterate is left by the line search and
                # never factored again, so its edge terms are released
                edges = None
                solve = plan.factor(matrix)
                counts[1] += 1
            delta[:reduced] = solve(-res.ravel()[into])[out_of]
            delta[reduced] = -delta[:reduced].sum(axis=0)
            counts[0] += 1
            size = np.abs(delta)
            delta_norm = float(size.max())
            if first is None:
                first = delta_norm
            cand = x + delta
            # a fresh LU's candidate needs its minimum for the estimate or
            # for the carry, a kept LU's for neither
            low = None if stale else cand.min()
            done = delta_norm < NEWTON_TOL
            if not done and newton is not None:
                rate = max(delta_norm / newton[0], newton[1])
                done = _estimate_passes(rate, delta_norm)
            if not done and not stale:
                change = _relative_change(size, cand, low)
                done = _estimate_passes(change, delta_norm)
            if done:
                if not stale and low > PROJECTION_FLOOR:
                    plan.carry(solve, x, dt, first)
                return cand
            del size  # before the line search, whose trial, beside at most the LU, sets the peak

            step = 1.0
            for _h in range(MAX_DAMPING_HALVINGS + 1):
                trial = _residual_values(system, mesh, cand, old_values, dt)
                counts[2] += 1
                cand_norm = float(np.abs(trial[0]).max())
                if cand_norm < res_norm or stale:
                    break
                # a halved update never keeps the LU; the rejected trial and
                # the LU go before the next trial is evaluated
                solve = trial = None
                step *= 0.5
                cand = x + step * delta
            else:
                raise NonConvergence(iterations, res_norm, reason="no residual "
                                     f"decrease in {MAX_DAMPING_HALVINGS} halvings")
            # only a full update that contracts enough keeps the LU; a kept
            # LU's update that brings no decrease leaves x, to be refactored
            if not cand_norm <= CHORD_CONTRACTION * res_norm:
                solve = None
            newton = None
            if cand_norm < res_norm:
                if not stale and step == 1.0:
                    newton = (delta_norm, change)
                x, (res, edges), res_norm = cand, trial, cand_norm
                if solve is not None:
                    # the kept LU's trial runs without them; they are
                    # recomputed only if that trial is rejected
                    edges = None
            del trial  # a rejected trial's edge terms are not kept
        raise NonConvergence(iterations, res_norm)
    except NonConvergence:
        raise
    except RuntimeError as exc:
        # A failed factorisation or solve is reported as RuntimeError.
        raise NonConvergence(iterations, res_norm, reason=str(exc)) from exc


def newton_step(system: SpeciesSystem, u_old: StateField, dt: float, *, _plan=None,
                _previous=None):
    """One implicit step on the mesh of ``u_old``: chord-Newton solve and projection.

    The update keeps every cell sum at its old value: it solves the Jacobian
    reduced to the first n - 1 species against their residual rows and sets
    delta_n = -sum_{i<n} delta_i.  The summed equation, linear in the cell
    sums, then holds whenever it holds for the old state.

    The iteration starts at ``u_old``.  :func:`run` also passes, from its
    second step on, the states before ``u_old``, most recent first, as the
    tuple ``_previous``; the iteration then starts at the extrapolation of
    order q = min(len(_previous), ``EXTRAPOLATION_ORDER``) through
    ``u_old`` and the first q of them (see the module docstring), or of
    order 1 unless every one of those states has all its volume fractions
    above ``PROJECTION_FLOOR``, projected onto the simplex and scaled to
    the old cell sums.  If that attempt raises :class:`NonConvergence`, for
    whatever reason, the step is solved once more from ``u_old``.  The
    stats count both attempts.

    The step factors the reduced Jacobian at its first iterate and keeps
    the LU after a full update whose residual norm, over all n species, is
    at most ``CHORD_CONTRACTION`` times the previous one.  Any halving, or a
    weaker contraction, drops it, and the next iterate is factored afresh.
    A full update from a kept LU that does not lower the residual norm is
    rejected without halving: the LU is refactored at the same iterate,
    whose residual is known and whose edge terms are recomputed, and the
    system solved again.
    An update, from a fresh or a kept LU, is taken in full and ends the
    iteration by the stop rule of :func:`_estimate_passes`.  Any other
    update from a fresh LU is halved until the residual norm drops.  Each
    factor refills the plan's one matrix in place.

    With ``_plan`` shared between steps at one dt, as :func:`run` shares
    it, a step whose last update came from an LU factored at the iterate
    that update starts from, and whose state lies above
    ``PROJECTION_FLOOR``, leaves that LU to the next; the next step's first
    attempt solves for its first update with it, and ends on that update
    only by the error estimate with the LU's drift.  Otherwise it drops the
    LU and iterates as without it.
    Without ``_plan`` the step carries nothing in or out.

    Returns ``(state, fluxes, stats)``.  ``fluxes`` are those of the
    projected state, computed at the first read of their values; ``stats``
    carries the number of linear solves (``newton_iterations``), of LU
    factors and of residual evaluations, and the largest per-cell deviation
    of the species sum from one measured before the projection.  Raises
    :class:`NonConvergence` when the iteration budget or the halvings run
    out, or a linear solve fails, in the iteration from ``u_old``, and
    ``ValueError`` when ``u_old`` has not one row per species of ``system``.
    """
    _check_dt(dt)
    if len(u_old.values) != system.n:
        raise ValueError(f"u_old has {len(u_old.values)} species, the system {system.n}")
    mesh = u_old.mesh
    plan = _StepPlan(mesh, system.n) if _plan is None else _plan
    counts = [0, 0, 0]
    x = None
    if _previous:
        states = (u_old, *_previous[:EXTRAPOLATION_ORDER])
        # near the floor the error-estimate stop is not honest, and a start
        # of order q > 1 from there moved accepted states past 1e-12
        if not all(s.min_fraction() > PROJECTION_FLOOR for s in states):
            states = states[:2]
        # the sum of the weighted states, in order, in one buffer
        weights = _EXTRAPOLATION[len(states) - 1]
        start = np.multiply(u_old.values, weights[0])
        for weight, s in zip(weights[1:], states[1:]):
            start += weight * s.values
        _floor_and_normalise(start, out=start)
        start *= u_old.values.sum(axis=0)
        try:
            x = _chord_newton(system, plan, start, u_old.values, dt, counts)
        except NonConvergence:
            pass  # solved again from u_old below
    if x is None:
        x = _chord_newton(system, plan, u_old.values, u_old.values, dt, counts)

    pre_projection_dev = _sum_deviation(x)
    # x is the iteration's own array, projected in place
    state = StateField(mesh, _project_values(x))
    return state, FluxField._of_state(system, state), StepStats(
        counts[0], pre_projection_dev, counts[1], counts[2])


def num_time_steps(dt: float, t_end: float) -> int:
    """ceil(T/dt) with a guard against spurious extra steps from rounding.

    The guard is worth less than one step only while T/dt < ``MAX_STEP_RATIO``.
    """
    if not t_end / dt < MAX_STEP_RATIO:
        raise ValueError(f"T/dt must be below {MAX_STEP_RATIO:g}")
    return max(1, math.ceil((t_end / dt) * (1.0 - 1e-12)))


def run(system: SpeciesSystem, u0: StateField, dt: float, t_end: float,
        sink=None) -> StateField:
    """Advance the implicit scheme from ``u0`` over ceil(T/dt) steps of size dt.

    Every step stays on the mesh of ``u0``; from the second on, it is given
    up to ``EXTRAPOLATION_ORDER`` states before its old one, from which
    :func:`newton_step` takes its extrapolated start.  All steps share one
    plan, through which a step may hand its LU to the next (see
    :func:`newton_step`).  After each step the
    optional ``sink`` callback receives ``(t_p, state, fluxes, stats)``.  A
    Newton failure aborts the run (no adaptive stepping); the raised
    :class:`NonConvergence` carries the failing step index and time.
    """
    _check_dt(dt)
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    state, previous = u0, ()
    plan = _StepPlan(u0.mesh, system.n)
    for p in range(1, num_time_steps(dt, t_end) + 1):
        try:
            new, fluxes, stats = newton_step(system, state, dt, _plan=plan,
                                             _previous=previous)
        except NonConvergence as exc:
            exc.step_index = p
            exc.time = p * dt
            raise
        state, previous = new, (state, *previous)[:EXTRAPOLATION_ORDER]
        if sink is not None:
            sink(p * dt, state, fluxes, stats)
    return state
