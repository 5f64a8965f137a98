"""Distance of the solver's accepted states from states iterated to 1e-15.

Usage, from the root of a source checkout::

    python3 scripts/tight_tolerance_battery.py

Each case runs ``smfv.scheme.run`` twice from the same initial state: once
as shipped, and once with ``smfv.scheme.NEWTON_TOL`` set to 1e-15, so that
every step iterates until its final update, or the error that update is
estimated to leave, is below 1e-15.  The case's distance is the largest
|delta u| between the two runs' states over all its steps.  It measures how
honest the stopping rule is: a stop that ends an iteration early leaves
that step's state, and the states after it, further from the tight run's.

The cases:

* ``smooth1d`` and ``nonsmooth1d`` on N = 8, 32, 128 and 512 cells at
  dt = 1e-5, 1e-4, 1e-3 and 1e-2, for 30 steps, with the 1D coefficients
  of ``configs/smooth1d.json``;
* the blocks data and coefficients of ``configs/blocks2d.json`` on 4x4,
  8x8 and 16x16 cells at dt = 1e-5, 1e-4 and 1e-3, for 20 steps;
* the entropy-decay run: ``smooth1d`` on 64 cells at dt = 1e-4 through
  t = 0.2, 2,000 steps, as ``perfbench``'s decay1d workload.

The script prints every case's distance and its steps' linear solves and
LU factors at both tolerances, and the SHA-256 digest of the final states
of every case's runs, their bytes in case order, the shipped run's before
the tight run's: two trees whose digests match computed the same states
to the bit.  A case whose tight run raises ``NonConvergence`` has
an infinite distance: near rounding level the residual of a fine grid no
longer decreases, and the 1e-15 iteration can stall.

The script is a gate, like ``scripts/high_contrast_sweep.py``.  Every case
is to stay within ``BOUND``, the 1e-12 that the shipped configs' final
states are held to.  ``ACCEPTED`` holds the bounds of the cases known to
end further away: the distance they measured, rounded up, or infinity
where the tight run stalls, the same before the first-update stop of
``scheme._chord_newton`` as after it.  The last lines list the cases
beyond their bound (``further:``), the accepted ones now within ``BOUND``
(``rescued:``) and those whose shipped run raises (``failed:``); the
script exits 1 when the first or the last list is not empty.  A change
that rescues cases shrinks the set; none may grow it.  The 42 cases take
2.3 to 2.8 s on a 2-core VM with Python 3.11.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import smfv.scheme  # noqa: E402
from smfv.config import InitialConfig, load_config_file, preset_initial  # noqa: E402
from smfv.mesh import uniform_interval, uniform_rectangle  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TIGHT_TOL = 1e-15
BOUND = 1e-12
ACCEPTED = {
    "nonsmooth1d-128-1e-05": math.inf,
    "nonsmooth1d-512-1e-05": math.inf,
    "blocks2d-8x8-1e-05": 3.0e-12,
}


def cases():
    """Every case as ``(name, system, u0, dt, steps)``."""
    system_1d = load_config_file(CONFIGS / "smooth1d.json").species
    blocks = load_config_file(CONFIGS / "blocks2d.json")
    for preset in ("smooth1d", "nonsmooth1d"):
        for cells in (8, 32, 128, 512):
            u0 = preset_initial(InitialConfig(preset), uniform_interval(cells), system_1d.n)
            for dt in (1e-5, 1e-4, 1e-3, 1e-2):
                yield f"{preset}-{cells}-{dt:g}", system_1d, u0, dt, 30
    for cells in (4, 8, 16):
        u0 = preset_initial(blocks.initial, uniform_rectangle(cells, cells), blocks.species.n)
        for dt in (1e-5, 1e-4, 1e-3):
            yield f"blocks2d-{cells}x{cells}-{dt:g}", blocks.species, u0, dt, 20
    u0 = preset_initial(InitialConfig("smooth1d"), uniform_interval(64), system_1d.n)
    yield "decay1d", system_1d, u0, 1e-4, 2000


def trajectory(system, u0, dt, steps):
    """The states and the summed ``[solves, factors]`` of ``steps`` steps from ``u0``."""
    states, work = [], [0, 0]

    def sink(t, state, fluxes, stats):
        states.append(state.values)
        work[0] += stats.newton_iterations
        work[1] += stats.lu_factors

    smfv.scheme.run(system, u0, dt, steps * dt, sink=sink)
    return states, work


def distance(system, u0, dt, steps, digest):
    """``(max |delta u|, work, tight work)`` of one case, work as ``[solves, factors]``.

    Adds the bytes of the final state of each run that ends to ``digest``.
    Raises ``NonConvergence`` if the run at the shipped tolerance does;
    where the tight run does, the distance and its work are infinite.
    """
    shipped = smfv.scheme.NEWTON_TOL
    states, work = trajectory(system, u0, dt, steps)
    digest.update(states[-1].tobytes())
    smfv.scheme.NEWTON_TOL = TIGHT_TOL
    try:
        tight, tight_work = trajectory(system, u0, dt, steps)
    except smfv.scheme.NonConvergence:
        return math.inf, work, [math.inf, math.inf]
    finally:
        smfv.scheme.NEWTON_TOL = shipped
    digest.update(tight[-1].tobytes())
    far = max(float(np.abs(a - b).max()) for a, b in zip(states, tight))
    return far, work, tight_work


def main():
    start = time.perf_counter()
    further, rescued, failed = [], [], []
    largest = 0.0
    digest = hashlib.sha256()
    for name, system, u0, dt, steps in cases():
        try:
            far, work, tight_work = distance(system, u0, dt, steps, digest)
        except smfv.scheme.NonConvergence as exc:
            failed.append(name)
            print(f"{name}: {exc}")
            continue
        bound = ACCEPTED.get(name, BOUND)
        print(f"{name}: max |du| {far:.2e} (bound {bound:.1e}), (solves, factors) "
              f"({work[0]}, {work[1]}) at the shipped tolerance, "
              f"({tight_work[0]}, {tight_work[1]}) at {TIGHT_TOL:g}")
        if far > bound:
            further.append(name)
        elif name in ACCEPTED and far <= BOUND:
            rescued.append(name)
        if far < math.inf:
            largest = max(largest, far)
    print(f"cases in {time.perf_counter() - start:.1f} s; largest finite distance {largest:.2e}")
    print(f"final states sha256: {digest.hexdigest()}")
    print(f"further: {further}")
    print(f"rescued: {rescued}")
    print(f"failed: {failed}")
    return 1 if further or failed else 0


if __name__ == "__main__":
    sys.exit(main())
