"""The two solver gates in ``scripts/`` pass.

``scripts/high_contrast_sweep.py`` exits 1 when a high-contrast case fails
outside its accepted set, and ``scripts/tight_tolerance_battery.py`` when
a case's accepted states lie further from states iterated to 1e-15 than
its bound.  Each is loaded by path and its ``main()`` run in process, its
report printed to the captured output.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"gate_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["high_contrast_sweep", "tight_tolerance_battery"])
def test_gate_passes(name):
    assert _load(name).main() == 0
