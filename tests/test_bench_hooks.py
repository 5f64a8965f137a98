"""The benchmark tracer's hook targets must exist in the package.

``perfbench/tracer.py`` rebinds module attributes by name; a renamed target
is silently skipped there and only shows as ``trace.missing_hooks``.  Its
LU figures come from the ``scipy.sparse.linalg.splu`` hook, so every factor
on a non-chain mesh must go through that attribute.  A chain mesh's band
factors (LAPACK's ``dgbtrf``) do not, and the tracer does not see them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse.linalg
from scipy.sparse.linalg._dsolve import linsolve

from smfv.mesh import uniform_rectangle
from smfv.model import build_system
from smfv.scheme import StateField, newton_step

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracer = _load_tracer()
    targets = [target for _, target in tracer.FUNCTION_HOOKS]
    targets += ["smfv.scheme:newton_step", "scipy.sparse.linalg:splu"]
    missing = []
    for target in targets:
        found = tracer.resolve(target)
        if found is None or not (callable(found[2]) or isinstance(found[2], classmethod)):
            missing.append(target)
    assert missing == []


def test_every_factor_goes_through_splu(monkeypatch):
    # SuperLU's gstrf makes every factor; each must come from the splu hook.
    # The one incomplete factor that orders the unknowns is no LU factor.
    calls = {"splu": 0, "gstrf": 0, "ilu": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls["ilu" if kwargs.get("ilu") else name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        counted("splu", scipy.sparse.linalg.splu))
    monkeypatch.setattr(linsolve._superlu, "gstrf",
                        counted("gstrf", linsolve._superlu.gstrf))
    system = build_system([[0.0, 0.2, 1.0], [0.2, 0.0, 0.1], [1.0, 0.1, 0.0]])
    mesh = uniform_rectangle(4, 4)
    rng = np.random.default_rng(2)
    u_old = StateField(mesh, rng.dirichlet(np.ones(3), size=mesh.num_cells).T)
    _, _, stats = newton_step(system, u_old, 1e-3)
    assert calls["gstrf"] == calls["splu"] == stats.lu_factors > 0
    assert calls["ilu"] == 1
