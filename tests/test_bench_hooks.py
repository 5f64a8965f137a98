"""The benchmark tracer's hook targets must exist in the package.

``perfbench/tracer.py`` rebinds module attributes by name; a renamed target
is silently skipped there and only shows as ``trace.missing_hooks``.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracer = _load_tracer()
    targets = [target for _, target in tracer.FUNCTION_HOOKS]
    targets.append("smfv.scheme:newton_step")
    missing = []
    for target in targets:
        found = tracer.resolve(target)
        if found is None or not (callable(found[2]) or isinstance(found[2], classmethod)):
            missing.append(target)
    assert missing == []
