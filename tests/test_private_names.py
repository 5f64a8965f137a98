"""Every module-level private name and every parameter of the package is used.

A ``_private`` function, class or constant is not part of the public API, so
nothing outside ``src/smfv`` may keep it alive; one that no module of the
package references is dead code.  So is a parameter its function never
reads, unless a calling protocol fixes it.  Nor does a function take a
``mesh`` beside a ``StateField``, which carries its own.
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
