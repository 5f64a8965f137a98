"""In-memory span tracer that times calls into the program's layers.

Spans are recorded from the benchmark's side only: ``install`` rebinds, for
the life of one process, the module attributes the program looks up at call
time (for example ``smfv.scheme._residual_values``) to thin wrappers that
record a span around the original call.  Nothing under ``src/`` changes.

Each span holds a name, start, end, the index of the enclosing span (-1 for
a root) and the run id of the process.  Spans stay in memory and are saved
with :meth:`Tracer.save` once the traced run has ended.  numpy is imported
only there, so that importing this module loads nothing heavy.
"""

from __future__ import annotations

import importlib
import sys
import time

BOOKKEEPING = "trace.bookkeeping"
NEWTON_ITERATIONS = "smfv.scheme:newton_step -> stats.newton_iterations"

# (span name, "module:attribute").  Every loaded ``smfv`` module attribute
# that refers to the same object is rebound as well, so names imported with
# ``from .x import y`` are traced too.  A target that no longer exists is
# reported as missing and skipped.
FUNCTION_HOOKS = (
    ("config.load", "smfv.config:load_config_file"),
    ("config.initial", "smfv.config:preset_initial"),
    ("mesh.build", "smfv.mesh:uniform_interval"),
    ("mesh.build", "smfv.mesh:uniform_rectangle"),
    ("scheme.residual", "smfv.scheme:_residual_values"),
    ("scheme.edge_fluxes", "smfv.scheme:_edge_fluxes"),
    ("scheme.jacobian", "smfv.scheme:_jacobian_matrix"),
    ("scheme.projection", "smfv.scheme:_project_values"),
    ("diagnostics.record", "smfv.diagnostics:DiagnosticsRecord.from_step"),
    ("diagnostics.relative_entropy", "smfv.diagnostics:relative_entropy"),
    ("diagnostics.l1_error", "smfv.diagnostics:l1_space_time_error"),
    ("cli.snapshot", "smfv.cli:_write_snapshot"),
)


def resolve(target):
    """Return (owner, attribute, current value) for "module:Attr.path"."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def rebind(owner, attr, original, replacement):
    """Point ``owner.attr`` and every smfv module alias of it at the replacement."""
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name != "smfv" and not name.startswith("smfv."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class _TracedFactor:
    """Stand-in for a SuperLU factor whose ``solve`` is traced."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counters = {"scheme.newton_iters": 0, "scheme.lu_fill_nnz_total": 0,
                         "scheme.lu_fill_nnz_first": 0, "scheme.lu_fill_nnz_max": 0}
        self.iterations_by_cells = {}
        self.missing = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs in its own span."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                book = self.open(BOOKKEEPING)
                try:
                    result = after(result)
                finally:
                    self.close(book)
            return result

        return traced

    def install(self):
        """Rebind every hook target; return the list of missing targets."""
        for name, target in FUNCTION_HOOKS:
            self._hook(name, target)
        self._hook("scheme.newton_step", "smfv.scheme:newton_step",
                   after=self._count_newton)
        self._hook("scheme.lu_factor", "scipy.sparse.linalg:splu",
                   after=self._trace_factor)
        return self.missing

    def _hook(self, name, target, after=None):
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, value = found
        if isinstance(value, classmethod):
            replacement = classmethod(self.wrap(name, value.__func__, after))
        elif callable(value):
            replacement = self.wrap(name, value, after)
        else:
            self.missing.append(target)
            return
        rebind(owner, attr, value, replacement)

    def _count_newton(self, result):
        stats = result[2] if isinstance(result, tuple) and len(result) == 3 else None
        iterations = getattr(stats, "newton_iterations", None)
        if iterations is None:
            if NEWTON_ITERATIONS not in self.missing:
                self.missing.append(NEWTON_ITERATIONS)
            return result
        self.counters["scheme.newton_iters"] += int(iterations)
        cells = int(result[0].values.shape[1])
        self.iterations_by_cells.setdefault(cells, []).append(int(iterations))
        return result

    def _trace_factor(self, factor):
        fill = int(factor.L.nnz + factor.U.nnz)
        counters = self.counters
        counters["scheme.lu_fill_nnz_first"] = counters["scheme.lu_fill_nnz_first"] or fill
        counters["scheme.lu_fill_nnz_max"] = max(counters["scheme.lu_fill_nnz_max"], fill)
        counters["scheme.lu_fill_nnz_total"] += fill
        return _TracedFactor(factor, self.wrap("scheme.lu_solve", factor.solve))

    def save(self, path):
        import numpy as np

        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 parent=np.array(self.parent, dtype=np.int64),
                 run_id=np.full(len(self.start), self.run_id, dtype=np.int32))


def summarize(spans):
    """Per span name: calls, total (inclusive) time, self time, longest call."""
    import numpy as np

    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time
    name_id = spans["name_id"]
    out = {}
    for i, name in enumerate(spans["names"]):
        mask = name_id == i
        out[str(name)] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "max_s": float(dur[mask].max()) if mask.any() else 0.0,
        }
    return out
