"""smfv benchmark: time to a checked solution, memory and failures per CLI command.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload conv1d --seed 1 --seconds 30 --trace 0

One run repeats the workload, closed loop with one client, until
``--seconds`` have passed (at least three timed or traced repetitions).  Each
repetition is a fresh single-threaded process (BLAS and OpenMP pinned to one
thread, address randomisation off) that imports ``smfv`` from ``src/`` and
calls ``smfv.cli.main`` on inputs written to a temporary directory.  Its
outputs are checked after the timed region.  The workloads are fixed
configs; the seed is recorded and selects nothing.

Times are rescaled to a reference host speed: each repetition times a fixed
speed probe (see ``child.py``), and its times, less the probe's own, are
multiplied by (``PROBE_REF_S`` / mean probe duration) ** ``PROBE_EXPONENT``.
The raw times stay in the result file.

``--trace 0`` first makes one memory repetition, which gives
``peak_rss_mb`` (see ``MEMORY_ENV``), and ``SETUP_REPS`` repetitions that
stop where set-up ends, then timed ones.  It reports the end-to-end metrics
as medians: ``wall_s`` and ``ops_per_s`` over the timed repetitions,
``setup_s`` over the set-up and timed ones.
``--trace 1`` runs one untraced repetition and then traced ones on the same
inputs, reports the per-layer metrics of ``metrics.PER_LAYER`` (medians over
traced repetitions), and fails the run unless the traced outputs are
byte-identical to the untraced ones and the counts in
``metrics.EXACT_COUNTS`` repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
the environment goes to ``.perfbench/results/``.  Exit status 0 means every
repetition succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, layer_metrics  # noqa: E402
from child import THREAD_VARS  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import SETUP_ENDS_AT, WORKLOADS, output_files  # noqa: E402

ROOT = HERE.parent
MIN_REPS = 3
SETUP_REPS = 3  # set-up-only repetitions in an untraced run
CHILD_TIMEOUT_S = 100  # a whole run must end within 180 s; a repetition takes ~10 s
# Mean duration of the child's speed probe at the reference host speed.  Times
# are multiplied by (PROBE_REF_S / the repetition's mean probe duration) to
# the power PROBE_EXPONENT.  The exponent is fitted: over 90 timed
# repetitions of the three workloads on a shared 2-vCPU virtual machine, the
# raw times varied as the probe's mean duration to the power 0.55 to 0.64,
# and the ten-run spread of the medians was least for exponents of 0.6 to
# 0.8.  An exponent of 1 over-corrects.
PROBE_REF_S = 2.5e-3
PROBE_EXPONENT = 0.65


# Kinds of repetition.  "timed" and "traced" run the whole workload; "setup"
# stops where set-up ends; "memory" runs the whole workload with glibc's
# mmap threshold fixed, and gives only peak_rss_mb.  By default glibc raises
# that threshold as large blocks are freed, which leaves freed arrays in the
# heap: the peak then reflects where they happened to land, and swung from
# 310 to 403 MiB on blocks2d when only the length of an environment variable
# changed.  With the threshold fixed, large arrays go back to the system
# when freed, and the peak is the live high-water mark, repeatable to 0.3%.
# It also makes the run about 25% slower, so its times are not used.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def child_env(root, kind="timed"):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({name: "1" for name in THREAD_VARS})
    if kind == "memory":
        env.update(MEMORY_ENV)
    return env


def run_rep(root, workload, kind, run_id, work_root):
    """Run one repetition in a fresh process and return its record.

    ``kind`` is "timed", "traced", "setup" or "memory" (see ``MEMORY_ENV``).
    """
    rep_dir = Path(tempfile.mkdtemp(prefix=f"rep{run_id}-", dir=work_root))
    out_dir = rep_dir / "out"
    out_dir.mkdir()
    job = {
        "argv": workload.argv(rep_dir, out_dir),
        "setup_ends_at": SETUP_ENDS_AT,
        "setup_only": kind == "setup",
        "trace": kind == "traced",
        "run_id": run_id,
        "result": str(rep_dir / "result.json"),
        "spans": str(rep_dir / "spans.npz"),
    }
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    rec = {"run_id": run_id, "kind": kind, "failures": []}
    started = time.perf_counter()
    with open(rep_dir / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  cwd=rep_dir, env=child_env(root, kind), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = None
    rec["duration_s"] = time.perf_counter() - started
    try:
        rec.update(_evaluate(workload, rep_dir, out_dir, exit_code, kind))
    except Exception as exc:  # a broken output counts as a failed repetition
        rec["failures"].append(f"evaluation raised {type(exc).__name__}: {exc}")
    if rec["failures"]:
        log_tail = (rep_dir / "child.log").read_text(encoding="utf-8", errors="replace")
        rec["log_tail"] = log_tail[-2000:]
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rec


def _evaluate(workload, rep_dir, out_dir, exit_code, kind):
    if exit_code is None:
        return {"failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    failures = []
    if result["error"]:
        failures.append("smfv.cli.main raised: " + result["error"].strip().splitlines()[-1])
    elif result["rc"] != 0:
        failures.append(f"smfv.cli.main returned {result['rc']}")
    elif exit_code != 0:
        failures.append(f"child exited with {exit_code}")
    if result["setup_s"] is None:
        failures.append(f"set-up end {SETUP_ENDS_AT} was never called")
    if not failures and kind != "setup":
        failures += workload.check(out_dir)
    rec = {"failures": failures, "missing_hooks": result["missing_hooks"],
           "environment": result["environment"], "probe_mean_s": result["probe_mean_s"],
           "probes": result["probes"], "raw_peak_rss_mb": result["peak_rss_mb"]}
    if failures:
        return rec
    if kind == "memory":
        rec["peak_rss_mb"] = result["peak_rss_mb"]
        return rec
    # Measured times less the probe's own time, rescaled to the reference
    # host speed.
    rec["raw_wall_s"] = result["wall_s"] - result["probe_in_main_s"]
    rec["raw_setup_s"] = result["setup_s"] - result["probe_in_setup_s"]
    speed = (PROBE_REF_S / result["probe_mean_s"]) ** PROBE_EXPONENT
    rec["setup_s"] = rec["raw_setup_s"] * speed
    if kind == "setup":
        return rec
    rec["wall_s"] = rec["raw_wall_s"] * speed
    rec["ops"] = workload.ops()
    rec["ops_per_s"] = rec["ops"] / (rec["wall_s"] - rec["setup_s"])
    rec["outputs"] = output_files(out_dir)
    if kind == "traced":
        with np.load(rep_dir / "spans.npz") as spans:
            rec["spans"] = int(spans["start"].size)
            rec["summary"] = summarize(spans)
        rec["counters"] = result["counters"]
        rec["iterations_by_cells"] = result["iterations_by_cells"]
    return rec


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _source_record(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                      capture_output=True, timeout=30).stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record(root, reps):
    child = next((r["environment"] for r in reps if "environment" in r), {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "processes_at_once": 1,
        **child,
        **_source_record(root),
    }


def plan_reps(seconds, traced, run_rep_fn):
    """Closed loop: repeat until ``seconds`` pass, with a minimum count.

    Untraced, one memory and ``SETUP_REPS`` set-up repetitions come first,
    then timed ones.  Traced, one timed repetition comes first, then traced
    ones.  ``MIN_REPS`` counts the timed or traced repetitions of the loop.
    """
    begin = time.perf_counter()
    kinds = ["timed"] if traced else ["memory"] + ["setup"] * SETUP_REPS
    reps = [run_rep_fn(run_id, kind) for run_id, kind in enumerate(kinds)]
    full = []
    while True:
        full.append(run_rep_fn(len(reps), "traced" if traced else "timed"))
        reps.append(full[-1])
        elapsed = time.perf_counter() - begin
        longest = max(r["duration_s"] for r in full)
        if len(full) >= MIN_REPS and elapsed + longest > seconds:
            return reps


def _trace_failures(reps):
    """Traced outputs must equal the untraced ones and the exact counts repeat."""
    base = reps[0]
    traced = [r for r in reps[1:] if "summary" in r]
    failures = []
    for r in traced:
        if r["outputs"] != base["outputs"]:
            diff = sorted(k for k in set(r["outputs"]) | set(base["outputs"])
                          if r["outputs"].get(k) != base["outputs"].get(k))
            failures.append(f"traced run {r['run_id']}: outputs differ from untraced: {diff}")
    counts = {tuple(r["layers"][k] for k in EXACT_COUNTS) for r in traced}
    if len(counts) > 1:
        failures.append(f"exact counts {EXACT_COUNTS} differ between traced runs: {sorted(counts)}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = ROOT
    if not (root / "src" / "smfv" / "cli.py").is_file():
        print(f"perfbench: no smfv source tree under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    state_dir = root / ".perfbench"
    (state_dir / "work").mkdir(parents=True, exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=state_dir / "work"))
    try:
        reps = plan_reps(args.seconds, bool(args.trace), lambda run_id, kind: run_rep(
            root, workload, kind, run_id, work_root))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    ok = [r for r in reps if not r["failures"]]
    extra_failures = []
    if args.trace:
        for r in ok:
            if r["kind"] == "traced":
                r["layers"] = layer_metrics(
                    r["summary"], r["counters"], r["missing_hooks"],
                    sum(len(v) for v in r["outputs"].values()), r["wall_s"],
                    reps[0].get("wall_s") or r["wall_s"])
        if reps[0]["failures"]:
            extra_failures.append("untraced reference repetition failed")
        else:
            extra_failures += _trace_failures(reps)
        table = PER_LAYER
        samples = [r["layers"] for r in ok if r["kind"] == "traced"]
    else:
        table = END_TO_END
        samples = ok
    failed = len(reps) - len(ok)
    correct = failed == 0 and not extra_failures and bool(samples)

    metrics, spread = {}, {}
    for m in table:
        values = [s[m.name] for s in samples if m.name in s] or [0.0]
        q1, med, q3 = _quartiles(values)
        metrics[m.name] = {"value": med, "unit": m.unit}
        spread[m.name] = {"q1": q1, "median": med, "q3": q3, "n": len(values),
                          "values": values, "unit": m.unit, "better": m.better,
                          "moves": m.moves}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one process at a time",
        "probe_ref_s": PROBE_REF_S,
        "probe_exponent": PROBE_EXPONENT,
        "parameters": workload.params(),
        "environment": environment_record(root, reps),
        "attempted": len(reps),
        "failed": failed,
        "fail_rate": failed / len(reps),
        "failures": [f"run {r['run_id']}: {f}" for r in reps for f in r["failures"]]
                    + extra_failures,
        "metrics": spread,
        "reps": [{k: v for k, v in r.items() if k not in ("outputs", "summary", "environment")}
                 for r in reps],
    }
    if args.trace:
        record["layer_summary"] = next((r["summary"] for r in ok if r["kind"] == "traced"), {})
    results_dir = state_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    _print_report(record, table)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _print_report(record, table):
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"reps={record['attempted']} failed={record['failed']} "
          f"fail_rate={record['fail_rate']:.3f}")
    print(f"  python {env.get('python')} numpy {env.get('numpy')} scipy {env.get('scipy')} "
          f"blas {env.get('numpy_blas')} | {env['cores']} cores, {env['cpu_model']} | "
          f"threads pinned to 1 | rev {env['git_revision']}")
    for m in table:
        s = record["metrics"][m.name]
        print(f"  {m.name:34s} {s['median']:>14.6g} {m.unit:10s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    traced = next((r for r in record["reps"] if "counters" in r), None)
    if traced is not None:
        counters = traced["counters"]
        if counters["scheme.lu_fill_nnz_first"]:
            print(f"  LU fill (L+U nonzeros): first factor {counters['scheme.lu_fill_nnz_first']}, "
                  f"largest {counters['scheme.lu_fill_nnz_max']}")
        for cells, its in traced["iterations_by_cells"].items():
            print(f"  newton iterations, {cells} cells: {sum(its) / len(its):.3f}/step "
                  f"over {len(its)} steps, first {its[:8]}")
    for f in record["failures"]:
        print(f"  FAILED {f}")


if __name__ == "__main__":
    sys.exit(main())
