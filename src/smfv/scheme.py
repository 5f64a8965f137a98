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

On any other mesh the Jacobian is one CSC matrix whose unknowns are
numbered once per run in SuperLU's symmetric minimum-degree order on
A^T + A, which suits the structurally symmetric two-point-flux Jacobian,
so each factor is SuperLU's in the natural order of that matrix.  SuperLU
runs with unit panels and no relaxed supernodes (``SUPERLU_SETTINGS``):
the Jacobian's supernodes are narrow, and on the 70x70 blocks workload
these settings took 21% less time than SuperLU's defaults for the same
factors, with the same fill and the same order.  On both paths two
gathers take the residual into the matrix's order and the solution out
of it; a chain's order is the identity.

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
Over two steps of the blocks data at dt = 1e-5 that peak is 77.3 MiB at
70x70 and 131.8 MiB at 140x140, against 80.3 and 143.6 MiB with the LU
and the earlier edge terms kept through the line search, for the same
output bytes (``scripts/peak_memory.py``).

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


def _edge_inverse(mats):
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

    The stack is overwritten by the inverses and returned, so that an edge
    evaluation holds one (n, n, E) array, not two.
    """
    n = mats.shape[0]
    # one buffer for the products of every update: fresh temporaries of that
    # size cost page faults at large E
    products = np.empty((n - 1,) + mats.shape[1:])
    for k in range(n):
        row = mats[k]
        inv_pivot = 1.0 / row[k]
        row[k] = 1.0
        row *= inv_pivot
        for others in (mats[:k], mats[k + 1:]):
            if len(others):
                update = np.multiply(others[:, k, None], row, out=products[:len(others)])
                others[:, k] = 0.0
                others -= update
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


def _jacobian_pattern(mesh, n, ordered=False):
    """A CSC matrix with n x n blocks, with zero data, and the slot of every raw entry.

    The raw entries are those of :func:`_entry_keys`.  Returns
    ``(matrix, slot, perm)``: ``matrix`` is canonical with ``np.intc`` index
    arrays, as SuperLU takes them, and summing the raw entries by ``slot``
    gives its ``data``.  ``slot`` is ``np.int32``: its values are below the
    number of stored entries, which the ``np.intc`` indices already bound,
    and the array, longer than the data, lives for the whole run.

    ``perm`` is None, or with ``ordered`` a fill-reducing order: unknown q
    is then row and column ``perm[q]`` of the matrix, which SuperLU is to
    factor in its natural order.  ``perm`` is the ``perm_c`` of
    ``splu(A, permc_spec="MMD_AT_PLUS_A")`` for any A with the cell-major
    pattern: the symmetric minimum-degree order on A^T + A, postordered by
    SuperLU's elimination tree.  scipy takes no ``perm_c`` input, so it is
    read off an incomplete factor of an M-matrix with the pattern (-1 off
    the diagonal, the matrix order on it), which exists for any dropping
    and costs a fraction of a full factor.
    """
    size = mesh.num_cells * n
    # column-major keys: sorting them gives the CSC order
    unique, slot = np.unique(_entry_keys(mesh, n, size), return_inverse=True)

    def csc(keys, data):
        indptr = np.searchsorted(keys // size, np.arange(size + 1)).astype(np.intc)
        matrix = sp.csc_matrix((data, (keys % size).astype(np.intc), indptr),
                               shape=(size, size))
        matrix.has_canonical_format = True
        return matrix

    perm = None
    if ordered:
        m_matrix = csc(unique, np.where(unique % (size + 1) == 0, float(size), -1.0))
        perm = spla.spilu(m_matrix, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                          fill_factor=1, **SUPERLU_SETTINGS).perm_c.astype(np.intp)
        unique, rank = np.unique(perm[unique // size] * size + perm[unique % size],
                                 return_inverse=True)
        slot = rank[slot]
    return csc(unique, np.zeros(len(unique))), slot.astype(np.int32), perm


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
    """Exact derivative of the residual w.r.t. the new state, block-sparse or banded.

    ``edges`` are the state's terms from :func:`_edge_fluxes` and
    ``pattern`` the ``(matrix, slot, perm)`` of :func:`_jacobian_pattern`,
    or of :func:`_band_pattern`, whose matrix or band is refilled in place
    and returned.  Differentiating
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
    matrix, slot, _ = pattern
    b = matrix.shape[1] // mesh.num_cells
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
    # band's Fortran memory (a view) or the CSC data
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


class _StepPlan:
    """What every step of one run on one mesh shares: the reduced Jacobian's storage.

    ``chain`` is decided once, from the mesh: whether every interior edge
    joins two consecutive cells, as on an interval, a disjoint union of
    intervals, a one-cell-thick rectangle or a mesh without edges.  A
    chain's Jacobian is banded in the natural cell-major order and is
    stored and factored as a band by LAPACK; any other mesh's is a CSC
    pattern in a fill-reducing order, factored by SuperLU.  ``gathers``
    take a residual into the pattern's order and a solution out of it.
    All three are built at their first use, inside the first step.

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
        return _jacobian_pattern(self.mesh, self.n - 1, ordered=True)

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

        The solve function may overwrite its right-hand side.  A factor
        with an exactly zero pivot raises ``RuntimeError``, as SuperLU does.
        """
        if self.chain:
            # partial pivoting (dgbtrf) within the band; the factor
            # overwrites the band, which is refilled before the next one
            kl = _band_width(self.n - 1)
            lu, ipiv, info = lapack.dgbtrf(matrix, kl, kl, overwrite_ab=True)
            if info > 0:
                raise RuntimeError(f"band LU factor is exactly singular: pivot {info} is zero")
            return lambda rhs: lapack.dgbtrs(lu, kl, kl, rhs, ipiv, overwrite_b=True)[0]
        # The order is fixed per run, so SuperLU orders nothing here.  Its
        # own symbolic reuse (options={"Fact": "SamePattern"}) crashes the
        # process in scipy 1.17.1 and is not used.
        return spla.splu(matrix, permc_spec="NATURAL", **SUPERLU_SETTINGS).solve

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
