"""A solver probe: what the Newton iteration evaluates, factors and solves.

``SolverProbe(monkeypatch, dt)`` wraps two seams of :mod:`smfv.scheme` and
nothing else.  ``_edge_fluxes`` is the edge pass of a state: every
residual, every refactor's recomputation of an iterate's edge terms and
every flux read goes through it.  ``_StepPlan.factor()`` makes every LU
factor, through the plan's solver, band or red-black Schur.  The probe records, in order, an
:class:`Evaluation` per edge pass and a :class:`Factor` per factor, whose
solves it counts through a solve function whose lifetime a weak set
follows.  A solve may come in a later step than its factor, when the
plan carries the LU.

Every factor is made at the state of the most recent edge evaluation: the
probe asserts, at each factor, that the solver's ``fill`` is filled to the
bit as the scheme fills it from a fresh edge pass at that state, and, on
any mesh but a chain, that the factor leaves there to the bit the Schur
complement and red blocks that the solver's ``condense`` gives on a copy
of that fresh fill.  The factored
states, the rejected candidates, the recomputations, the flux reads and
the LU lifetimes all follow from that one fact and the order of the
events.

Every solve is made with storage that no refill has touched since its
factor: the probe asserts, at each solve, that ``fill`` holds what it held
right after the factor.  On a chain ``dgbtrf`` overwrites the band, which
``fill`` views, with the LU, and on any other mesh the solve reads the red
blocks' inverses and products there, so a solve after the next refill
would use another matrix's entries.
"""

import weakref
from dataclasses import dataclass

import numpy as np

import smfv.scheme


@dataclass
class Evaluation:
    """One edge pass.

    ``values`` is a copy of the state, ``inverse`` a weak reference to the
    edge inverses it made, ``alive`` the number of live LUs and of earlier
    evaluations' live inverses when it began, and ``repeated`` whether the
    state equals that of an evaluation since the previous factor's: the
    recomputation of a kept LU's iterate for its refactor.
    """

    values: np.ndarray
    inverse: weakref.ref
    alive: int
    repeated: bool


@dataclass
class Factor:
    """One LU factor: the solver's ``fill``, a copy of it as filled, a copy of
    it right after the factor, the index of the evaluation it was made at,
    and the number of solves made with it."""

    fill: np.ndarray
    filled: np.ndarray
    stored: np.ndarray
    evaluation: int
    solves: int = 0


class _Solve:
    """A factor's solve function, counted, whose lifetime a weak reference follows."""

    def __init__(self, solve, factor):
        self._solve, self._factor = solve, factor

    def __call__(self, res):
        factor = self._factor
        assert np.array_equal(factor.fill, factor.stored), \
            "a solve with an LU whose storage was refilled since its factor"
        factor.solves += 1
        return self._solve(res)


class SolverProbe:
    """Records the edge passes and LU factors made while it is installed.

    ``dt`` is the time step of the steps it observes, with which it checks
    every factored matrix.
    """

    def __init__(self, monkeypatch, dt):
        self.dt = dt
        self.evaluations = []
        self.factors = []
        self._live = weakref.WeakSet()
        self._edge_fluxes = smfv.scheme._edge_fluxes
        factor = smfv.scheme._StepPlan.factor

        def factored(plan):
            return self._factor(factor, plan)

        monkeypatch.setattr(smfv.scheme, "_edge_fluxes", self._evaluate)
        monkeypatch.setattr(smfv.scheme._StepPlan, "factor", factored)

    @property
    def solves(self):
        return sum(factor.solves for factor in self.factors)

    @property
    def live(self):
        """The number of LUs alive now."""
        return len(self._live)

    @property
    def recomputations(self):
        return sum(evaluation.repeated for evaluation in self.evaluations)

    def _evaluate(self, system, mesh, values):
        alive = self.live + sum(earlier.inverse() is not None
                                for earlier in self.evaluations)
        since = self.factors[-1].evaluation if self.factors else 0
        repeated = any(np.array_equal(values, earlier.values)
                       for earlier in self.evaluations[since:])
        edges = self._edge_fluxes(system, mesh, values)
        self.evaluations.append(Evaluation(values.copy(), weakref.ref(edges[1]), alive,
                                           repeated))
        self._system = system
        return edges

    def _factor(self, factor, plan):
        assert self.evaluations, "an LU factor before any edge evaluation"
        index = len(self.evaluations) - 1
        solver = plan.solver
        state = self.evaluations[index].values
        edges = self._edge_fluxes(self._system, plan.mesh, state)
        expected = np.empty_like(solver.fill)
        smfv.scheme._jacobian_matrix(self._system, plan.mesh, edges, self.dt, plan.n - 1,
                                     solver.slot, expected)
        assert np.array_equal(solver.fill, expected), \
            "an LU factor not made at the state of the most recent edge evaluation"
        filled = solver.fill.copy()
        solve = factor(plan)
        if isinstance(solver, smfv.scheme._RedBlackSchur):
            solver.condense(expected)
            assert np.array_equal(solver.fill, expected), \
                "a Schur complement not condensed from the most recent edge evaluation"
        record = Factor(solver.fill, filled, solver.fill.copy(), index)
        solve = _Solve(solve, record)
        self._live.add(solve)
        self.factors.append(record)
        return solve
