"""One benchmark repetition in a fresh process: call ``smfv.cli.main`` and time it.

Usage: ``python3 perfbench/child.py JOB.json``.  The job names the argument
list to pass to ``smfv.cli.main``, the call whose first entry ends set-up,
whether to trace, whether to stop once set-up ends, and where to write the
result JSON and the spans.  ``smfv`` is imported from the ``PYTHONPATH`` the
parent sets.

Every repetition times a speed probe, a fixed piece of work that runs no
smfv code, back to back before and after the call; the parent divides by its
mean duration to take out the host's speed drift.  Untraced, the probe also
runs every ``PROBE_PERIOD_S`` during the call, from a ``SIGALRM`` handler,
and the only other hook is a timestamp on the first set-up-ending call.
Traced, :class:`tracer.Tracer` rebinds every layer hook for this process and
the probe runs only before and after, so that it adds to no span.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import sys
import time
import traceback

from tracer import Tracer, rebind, resolve

ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_BURST = 20  # probes timed back to back before the call
PROBE_PERIOD_S = 0.1


class SetupReached(BaseException):
    """Raised at the end of set-up in a set-up-only repetition.

    A ``BaseException``, so that ``smfv.cli.main`` does not catch it.
    """


def _exec_without_aslr():
    """Re-execute this process once with address-space randomisation off.

    With randomised addresses the peak resident set of one repetition varies
    by several MiB from process to process; without, it repeats exactly.
    The setting is this process's own personality and ends with it.  Returns
    whether randomisation is off.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current == -1:
        return False
    if current & ADDR_NO_RANDOMIZE:
        return True
    if libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        return False
    os.execv(sys.executable, [sys.executable] + sys.argv)


class SpeedProbe:
    """Times a fixed piece of work, about 3 ms; each sample is (start, duration).

    The work mixes the two kinds that smfv's time goes to: interpreted
    Python and many numpy calls on short arrays.  The numpy calls write into
    preallocated arrays: a probe that allocated at random points of the run
    would move its peak resident set by several MiB.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.linspace(0.1, 0.9, 192).reshape(3, 64)
        self._b = self._a + 0.1
        self._t = np.empty_like(self._a)
        self._u = np.empty_like(self._a)
        self._sum = np.empty(64)
        self.samples = []

    def _work(self):
        s = 0
        for i in range(20_000):
            s += i * i
        np, a, b, t, u = self._np, self._a, self._b, self._t, self._u
        for _ in range(150):
            np.subtract(a, b, out=t)
            np.divide(a, b, out=u)
            np.log(u, out=u)
            np.divide(t, u, out=t)
            t.sum(axis=0, out=self._sum)
        return s

    def once(self, *_):
        start = time.perf_counter()
        self._work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self, periodic):
        for _ in range(PROBE_BURST):
            self.once()
        if periodic:
            signal.signal(signal.SIGALRM, self.once)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(PROBE_BURST):
            self.once()


def _stamp_first_call(target, stamps, stop):
    """Record the time of the first call into ``target``; False if it is gone."""
    found = resolve(target)
    if found is None or not callable(found[2]):
        return False
    owner, attr, original = found

    def stamped(*args, **kwargs):
        if not stamps:
            stamps.append(time.perf_counter())
            if stop:
                raise SetupReached
        return original(*args, **kwargs)

    rebind(owner, attr, original, stamped)
    return True


def _peak_rss_mb():
    """Peak resident set size of this process's own address space, in MiB.

    Not ``ru_maxrss``: Linux carries the parent's peak across vfork+exec into
    it, so it would include the memory of the parent run.py process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _blas(config_fn):
    try:
        blas = config_fn(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _environment(aslr_off):
    import numpy
    import scipy

    return {
        "address_randomisation": "off" if aslr_off else "on",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_job(job, aslr_off):
    import smfv.cli

    tracer = Tracer(job["run_id"]) if job["trace"] else None
    missing = tracer.install() if tracer is not None else []
    stamps = []
    if not _stamp_first_call(job["setup_ends_at"], stamps, job["setup_only"]):
        missing.append(job["setup_ends_at"])
    probe = SpeedProbe()

    error = None
    probe.start(periodic=tracer is None)
    start = time.perf_counter()
    span = tracer.open("cli.main") if tracer is not None else None
    try:
        rc = smfv.cli.main(job["argv"])
    except SetupReached:
        rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        error = traceback.format_exc()
    finally:
        end = time.perf_counter()
        if span is not None:
            tracer.close(span)
        probe.stop()
    setup_end = stamps[0] if stamps else None
    in_main = [(s, d) for s, d in probe.samples if start <= s < end]

    result = {
        "rc": rc,
        "wall_s": end - start,
        "setup_s": setup_end - start if setup_end is not None else None,
        "probe_mean_s": sum(d for _, d in probe.samples) / len(probe.samples),
        "probes": len(probe.samples),
        "probe_in_main_s": sum(d for _, d in in_main),
        "probe_in_setup_s": sum(d for s, d in in_main
                                if setup_end is not None and s < setup_end),
        "peak_rss_mb": _peak_rss_mb(),
        "error": error,
        "missing_hooks": missing,
        "environment": _environment(aslr_off),
    }
    if tracer is not None:
        tracer.save(job["spans"])
        result["counters"] = tracer.counters
        result["iterations_by_cells"] = {
            str(cells): its for cells, its in sorted(tracer.iterations_by_cells.items())}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0 if error is None and rc == 0 else 1


if __name__ == "__main__":
    aslr_off = _exec_without_aslr()
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(run_job(json.load(fh), aslr_off))
