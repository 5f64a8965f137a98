"""Paired peak memory of one CLI command on two source trees, each call in a fresh process.

Usage::

    python3 scripts/peak_memory.py A_DIR B_DIR CONFIG COMMAND ROUNDS

A_DIR and B_DIR are source checkouts (each with ``src/smfv``), for example
an older revision exported with ``git archive`` and the working tree.  Each
call is a new Python process that imports ``smfv`` from one tree's ``src``
and calls ``smfv.cli.main([COMMAND, "--config", CONFIG, "--out", ...])``
with its printed lines discarded, A first in even rounds and B first in odd
ones.  The process runs with the settings of a benchmark memory
repetition, read from ``perfbench/run.py`` and ``perfbench/child.py``:
glibc's mmap threshold fixed (``MALLOC_MMAP_THRESHOLD_``), so freed large
arrays leave the heap and the peak is the live high-water mark; one BLAS
and OpenMP thread; ``PYTHONHASHSEED=0``; and address-space randomisation
off for that process alone (its own personality, set between fork and
exec), with which its peak repeats exactly.

Every round prints each tree's peak resident set (VmHWM of the process's
own address space) and minor page faults (``ru_minflt``); the summary gives
both medians, the number of rounds in which B's peak was lower, and whether
the two trees' last outputs are byte-identical.  The script exits 1 if a
call returns a nonzero status.
"""

from __future__ import annotations

import ctypes
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_timing import outputs

# the benchmark's memory repetition settings, defined there once
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from child import ADDR_NO_RANDOMIZE  # noqa: E402
from run import child_env  # noqa: E402

# Run in the child: one CLI call, then its peak and page faults as JSON.
CHILD = """
import contextlib, io, json, resource, sys
import smfv.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = smfv.cli.main(json.loads(sys.argv[1]))
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"status": status, "vmhwm_mib": hwm / 1024.0,
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}))
"""


def _without_aslr():
    """Turn address randomisation off for the exec that follows (a ``preexec_fn``)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def measure(tree: Path, cli_argv) -> dict:
    """One CLI call in a fresh process on ``tree``; returns the child's JSON record."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(cli_argv)],
                          env=child_env(tree, "memory"),
                          capture_output=True, text=True, preexec_fn=_without_aslr)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the call failed with exit {proc.returncode}\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if record["status"] != 0:
        raise SystemExit(f"{tree}: smfv exited {record['status']}\n{proc.stderr}")
    return record


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 5 or not args[4].isdigit() or int(args[4]) < 1:
        print("usage: peak_memory.py A_DIR B_DIR CONFIG COMMAND ROUNDS", file=sys.stderr)
        return 2
    a_dir, b_dir, config, command, rounds = args
    trees = {"A": Path(a_dir).resolve(), "B": Path(b_dir).resolve()}
    config = str(Path(config).resolve())
    records = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(int(rounds)):
            for label in ("A", "B") if r % 2 == 0 else ("B", "A"):
                out = Path(tmp) / label
                records[label].append(
                    measure(trees[label], [command, "--config", config, "--out", str(out)]))
            a, b = records["A"][-1], records["B"][-1]
            print(f"round {r + 1}: A {a['vmhwm_mib']:.3f} MiB, {a['minflt']} faults; "
                  f"B {b['vmhwm_mib']:.3f} MiB, {b['minflt']} faults")
        identical = outputs(Path(tmp) / "A") == outputs(Path(tmp) / "B")
    for label, directory in (("A", a_dir), ("B", b_dir)):
        peaks = [rec["vmhwm_mib"] for rec in records[label]]
        faults = [rec["minflt"] for rec in records[label]]
        print(f"{label} median {statistics.median(peaks):.3f} MiB (range {min(peaks):.3f}"
              f"-{max(peaks):.3f}), {statistics.median(faults):.0f} minor faults  "
              f"({directory})")
    lower = sum(b["vmhwm_mib"] < a["vmhwm_mib"] for a, b in zip(records["A"], records["B"]))
    print(f"B's peak lower in {lower} of {len(records['A'])} rounds")
    print(f"outputs byte-identical: {'yes' if identical else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
