"""Every module-level private name and every parameter of the package is used.

A ``_private`` function, class or constant is not part of the public API, so
nothing outside ``src/smfv`` may keep it alive; one that no module of the
package references is dead code.  So is a parameter its function never
reads, unless a calling protocol fixes it.  Nor does a function take a
``mesh`` beside a ``StateField``, which carries its own.  And tests patch
only a listed few names of ``smfv.scheme``, so that renaming a private
function breaks no test that does not call it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smfv"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    yield name.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "scheme.py" in trees
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == []


# Parameters a protocol fixes, which an implementation may leave unread:
# the property checks share check_*(rng, count, extra_system) and the
# callbacks of ``run`` receive (t, state, fluxes, stats).
_CHECK_PROTOCOL = {"rng", "count", "extra_system"}
_SINK_PROTOCOL = ["t", "state", "fluxes", "stats"]


def _parameters(fn):
    args = fn.args
    named = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return named + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            params = _parameters(fn)
            exempt = set()
            if fn.name.startswith("check_"):
                exempt = _CHECK_PROTOCOL
            elif params == _SINK_PROTOCOL:
                exempt = set(params)
            unread += [f"{path.name}:{fn.name}({p})" for p in params
                       if p not in read and p not in exempt]
    assert unread == []


def _annotation_names(fn):
    args = fn.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        if a.annotation is not None:
            for node in ast.walk(a.annotation):
                if isinstance(node, ast.Name):
                    yield node.id
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield node.value


def test_no_function_takes_a_mesh_beside_a_state():
    # a StateField carries its mesh; a second mesh argument has one valid value
    both = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(fn, ast.FunctionDef) and "mesh" in _parameters(fn)
                    and "StateField" in _annotation_names(fn)):
                both.append(f"{path.name}:{fn.name}")
    assert both == []


TESTS = Path(__file__).resolve().parent

# The names of smfv.scheme, and of its classes, that tests may patch, each
# with its reason.  The probe's two seams observe the solver; every other
# count or record a test needs comes from them, StepStats or the outputs.
_PATCHABLE = {
    "_edge_fluxes": "probe seam: every edge pass, and a flat residual's edge terms",
    "_StepPlan.factor": "probe seam: every LU factor, through the plan's solver; "
                        "also an injected MemoryError",
    "_residual_values": "injected fault: a flat residual that no update lowers",
    "NEWTON_TOL": "constant: a tighter stop",
    "MAX_NEWTON_ITERS": "constant: a smaller iteration budget",
}


def _imports(tree):
    """A namespace with the modules and names a test file imports, anywhere in it."""
    namespace = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0):
            exec(compile(ast.Module([node], []), "<imports>", "exec"), namespace)
    return namespace


def _patched_scheme_names(path):
    """The ``smfv.scheme`` names a test file patches by ``monkeypatch.setattr``."""
    import smfv.scheme

    tree = ast.parse(path.read_text(encoding="utf-8"))
    namespace = _imports(tree)
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "setattr" and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "monkeypatch"):
            continue
        target, name = call.args[0], call.args[1] if len(call.args) > 2 else None
        where = f"{path.name}:{call.lineno}"
        if isinstance(target, ast.Constant):  # the "module.attribute" form
            owner_path, _, attribute = target.value.rpartition(".")
            owner, name = eval(owner_path, namespace), ast.Constant(attribute)
        else:
            try:
                owner = eval(compile(ast.Expression(target), where, "eval"), namespace)
            except NameError:
                raise AssertionError(f"{where}: the patched object is not a module "
                                     "or class the file imports") from None
        if owner is smfv.scheme:
            prefix = ""
        elif isinstance(owner, type) and owner.__module__ == "smfv.scheme":
            prefix = f"{owner.__name__}."
        else:
            continue
        assert isinstance(name, ast.Constant), f"{where}: a non-literal attribute name"
        yield prefix + name.value


def test_tests_patch_only_the_seams():
    patched = {name for path in sorted(TESTS.glob("*.py"))
               for name in _patched_scheme_names(path)}
    assert patched == set(_PATCHABLE)
