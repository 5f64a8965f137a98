"""Paired wall times of one CLI command on two source trees, in one process.

Usage::

    python3 scripts/paired_timing.py A_DIR B_DIR CONFIG COMMAND ROUNDS

A_DIR and B_DIR are source checkouts (each with ``src/smfv``), for example
an older revision exported with ``git archive`` and the working tree.  Their
packages are imported side by side as ``smfv_a`` and ``smfv_b``.  Each
round calls ``smfv_x.cli.main([COMMAND, "--config", CONFIG, "--out", ...])``
once on each tree, with its printed lines discarded: A first in even
rounds and B first in odd ones, so drift of the host's speed within a
round falls on both sides alike.  One untimed call per tree comes first.
The script prints both trees' median wall times with their quartiles and
median minor page faults per call (the change of ``ru_minflt`` over the
call), the median of the per-round ratios B/A with its quartiles, the
number of rounds B was faster, and whether the two trees' last outputs are
byte-identical.  A gain resolves when B wins nearly every round and the
medians differ by more than A's quartile spread, which one run shows.  The faults show a change
of heap layout, such as glibc's dynamic mmap threshold moving, which can
move the wall time with the same outputs.  It exits 1 if a call returns a
nonzero status.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_tree(src_root: Path, name: str):
    """Import the ``smfv`` package under ``src_root/src`` as ``name``; return its ``cli``."""
    package = src_root / "src" / "smfv"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def quartiles(values):
    """The first and third quartiles, by ``statistics.quantiles``' default method.

    One value is its own quartiles.
    """
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def outputs(out_dir: Path) -> dict:
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*"))
            if p.is_file()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 5 or not args[4].isdigit() or int(args[4]) < 1:
        print("usage: paired_timing.py A_DIR B_DIR CONFIG COMMAND ROUNDS", file=sys.stderr)
        return 2
    a_dir, b_dir, config, command, rounds = args
    trees = {"A": load_tree(Path(a_dir), "smfv_a"), "B": load_tree(Path(b_dir), "smfv_b")}
    times = {"A": [], "B": []}
    faults = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        def call(label):
            out = Path(tmp) / label
            cli_argv = [command, "--config", config, "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                status = trees[label].main(cli_argv)
                elapsed = time.perf_counter() - start
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            if status != 0:
                raise SystemExit(f"tree {label} exited {status}")
            return elapsed, minflt

        for label in ("A", "B"):
            call(label)
        for r in range(int(rounds)):
            for label in ("A", "B") if r % 2 == 0 else ("B", "A"):
                elapsed, minflt = call(label)
                times[label].append(elapsed)
                faults[label].append(minflt)
        identical = outputs(Path(tmp) / "A") == outputs(Path(tmp) / "B")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    for label, src in (("A", a_dir), ("B", b_dir)):
        low, high = quartiles(times[label])
        print(f"{label} median {statistics.median(times[label]):.4f} s "
              f"(quartiles {low:.4f}-{high:.4f}), "
              f"{statistics.median(faults[label]):.0f} minor faults per call  ({src})")
    low, high = quartiles(ratios)
    print(f"median ratio B/A {statistics.median(ratios):.3f} (quartiles {low:.3f}-{high:.3f}); "
          f"B faster in {wins} of {len(ratios)} rounds")
    print(f"outputs byte-identical: {'yes' if identical else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
