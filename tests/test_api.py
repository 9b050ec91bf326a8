"""Every public name and method in `mskit` has a caller in the program.

The scan parses the package and the benchmark harness with `ast` and looks
for a use of each public top-level name, module constants included, and of
each public method or property of a public class (a load of the bare name,
or an attribute of that name), outside the name's own definition or
assignment. A name used only by the tests fails it: the behaviour either
gets a caller the program needs, or it goes together with its tests.

An attribute use is matched by name alone, so it cannot tell a call of
`obj.ok` on one type from one on another. A public method or property
whose name an ndarray, dict, list or tuple also has, or another mskit
class also has as a public member, therefore fails unless `SHARED_NAMES`
names it with its program caller, read by hand.

A second scan stands in for a linter's unused-import rule: every name a
`src/mskit` module imports must be read in that module, unless
`ALLOWED_UNREAD_IMPORTS` names it with the reason it stays.

A third scan holds the modules to one import order, `LAYERS`: a module
imports only siblings of a lower layer.

A fourth scan finds parameters that nothing sets: every defaulted parameter
of a `src/mskit` function, nested function or method, `__init__` included,
must be passed by some call in `src/mskit` or in a non-test
`perfbench/*.py`, by keyword, by position or through a `*` or `**` splat,
unless `ALLOWED_UNPASSED` names it with the reason it stays. A call is
matched to its callee by name alone (the class name for `__init__`), as the
first scan matches names, so a call of one function counts for every other
function of the same name.

Last, a fresh interpreter imports the command line and every module of the
package and must load no scipy module: the program runs on numpy alone,
and scipy, whose `ndimage` import once cost most of a cold start, is a
test dependency only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mskit"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without a caller, each with the reason it stays.
ALLOWED_UNUSED = {
    "grad_forward_adjoint": (
        "perfbench/tracing.py wraps `mskit.minmov.grad_forward_adjoint` by "
        "its name as a string; the solve runs the kernel that the private "
        "`_bind_grad_adjoint` binds, which grad_forward_adjoint calls too"
    ),
}

# Public methods and properties whose name another type also carries, each
# with the program code that calls it.
SHARED_NAMES = {
    "GridDomain.shape": (
        "array allocations such as `np.zeros(grid.shape)` in fields, energy, "
        "diagnostics, flows and checks (an ndarray attribute too)"
    ),
    "Trajectory.n_steps": (
        "`traj.n_steps` in cli.cmd_run (a field of ScenarioSpec too)"
    ),
}

# Imported names a module never reads, each with the reason it stays.
ALLOWED_UNREAD_IMPORTS = {
    "flows.interface_measure": (
        "perfbench/tracing.py wraps `mskit.flows.interface_measure`, and "
        "perfbench/test_perfbench.py looks the binding up there"
    ),
    "minmov.grad_forward_adjoint": (
        "perfbench/tracing.py wraps `mskit.minmov.grad_forward_adjoint`; the "
        "solve runs the kernel that the private `_bind_grad_adjoint` binds"
    ),
    "minmov.poisson_apply_raw": (
        "perfbench/tracing.py wraps `mskit.minmov.poisson_apply_raw`, and "
        "perfbench/test_perfbench.py deletes the binding there; the solve "
        "runs the kernel that the private `_bind_poisson` binds"
    ),
}

# Defaulted parameters no program call passes, each with the reason it stays.
ALLOWED_UNPASSED = {
    "cli.main(argv)": (
        "the `mskit` console script calls main() bare, and the tests drive "
        "the command line through argv"
    ),
}

# Layer of each `src/mskit` module: fields < energy < {diagnostics,
# minmov} < {flows, scenarios} < io < checks < cli.
LAYERS = {
    "fields": 0, "energy": 1, "diagnostics": 2, "minmov": 2,
    "flows": 3, "scenarios": 3, "io": 4, "checks": 5, "cli": 6,
}

BUILTIN_ATTRIBUTES = (
    set(dir(np.ndarray)) | set(dir(dict)) | set(dir(list)) | set(dir(tuple))
)


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def _public_constants(nodes):
    """(name, statement) for each public name a module-level assignment binds."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not sub.id.startswith("_"):
                    yield sub.id, node


def _public_definitions():
    """Qualified name -> (path, node) for public names and their methods.

    A module constant maps to its assignment statement.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _public_constants(tree.body):
            out[name] = (path, node)
        for node in _public(tree.body):
            out[node.name] = (path, node)
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    out["%s.%s" % (node.name, method.name)] = (path, method)
    return out


def _members(cls):
    """Public methods, properties, dataclass fields and instance attributes."""
    names = {node.name for node in _public(cls.body)}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    names.add(sub.attr)
    return {name for name in names if not name.startswith("_")}


def shared_method_names():
    """Public methods and properties whose name another type also has."""
    classes = [
        node
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef)
    ]
    members = [(cls, _members(cls)) for cls in classes]
    shared = set()
    for cls in _public(classes):
        elsewhere = BUILTIN_ATTRIBUTES.union(
            *(names for other, names in members if other is not cls)
        )
        for method in _public(cls.body):
            if method.name in elsewhere:
                shared.add("%s.%s" % (cls.name, method.name))
    return shared


def _uses(tree, skip):
    """Names loaded or read as attributes anywhere outside the node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_public_names():
    defs = _public_definitions()
    trees = {
        path: ast.parse(path.read_text(), filename=str(path)) for path in SCANNED
    }
    uses = {path: _uses(tree, None) for path, tree in trees.items()}
    unused = set()
    for qualname, (path, node) in defs.items():
        # uses inside the name's own definition or assignment do not count
        elsewhere = _uses(trees[path], node).union(
            *(found for other, found in uses.items() if other != path)
        )
        if qualname.rsplit(".", 1)[-1] not in elsewhere:
            unused.add(qualname)
    return unused


def test_public_names_have_callers():
    unused = unused_public_names()
    flagged = sorted(unused - set(ALLOWED_UNUSED))
    assert not flagged, "public names with no caller outside tests: %s" % flagged


def test_allowed_exceptions_are_current():
    defs = _public_definitions()
    unused = unused_public_names()
    for name in ALLOWED_UNUSED:
        assert name in defs, "%s is no longer defined" % name
        assert name in unused, "%s has a caller now; drop it from the list" % name


def test_shared_method_names_are_reviewed():
    flagged = sorted(shared_method_names() - set(SHARED_NAMES))
    assert not flagged, (
        "public methods whose name another type also has; the caller scan "
        "cannot vouch for them: %s" % flagged
    )


def test_shared_names_are_current():
    defs = _public_definitions()
    shared = shared_method_names()
    for name in SHARED_NAMES:
        assert name in defs, "%s is no longer defined" % name
        assert name in shared, "%s no longer shares its name; drop it" % name


def unread_imports():
    """module.name for each name a `src/mskit` module imports but never reads."""
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds `a`
                bound.update((alias.asname or alias.name).split(".")[0]
                             for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unread.update("%s.%s" % (path.stem, name) for name in bound - read)
    return unread


def test_imports_are_read():
    flagged = sorted(unread_imports() - set(ALLOWED_UNREAD_IMPORTS))
    assert not flagged, "imported names never read: %s" % flagged


def test_allowed_unread_imports_are_current():
    unread = unread_imports()
    for name in ALLOWED_UNREAD_IMPORTS:
        assert name in unread, "%s is read or gone now; drop it from the list" % name


def sibling_imports(path):
    """The `mskit` modules that one module of the package imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "mskit":
                    continue
                module = module[len("mskit"):].lstrip(".")
            if module:  # from .a import x, from mskit.a import x
                found.add(module.split(".")[0])
            else:  # from . import a, from mskit import a
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mskit."))
    return found


def layer_violations():
    """module -> sibling for each import of a sibling not in a lower layer."""
    return sorted(
        "%s -> %s" % (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in sibling_imports(path)
        if LAYERS.get(name, len(LAYERS)) >= LAYERS.get(path.stem, -1)
    )


def test_imports_follow_the_layer_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS), "modules without a layer: %s" % (
        sorted(modules ^ set(LAYERS)))
    flagged = layer_violations()
    assert not flagged, "imports against the layer order: %s" % flagged


def _defaulted_parameters(path):
    """(module.name(param), callee name, position or None, param) for each
    defaulted parameter of a function, nested function or method in `path`.

    The position counts the arguments a call passes before the parameter
    (a method's first parameter is bound, not passed); a keyword-only
    parameter has none. `__init__` is called by its class name.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {
        id(node): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = node.name
        if id(node) in methods and callee == "__init__":
            callee = methods[id(node)]
        positional = node.args.posonlyargs + node.args.args
        bound = 1 if id(node) in methods else 0
        defaulted = [
            (i - bound, arg)
            for i, arg in enumerate(positional)
            if i >= len(positional) - len(node.args.defaults)
        ] + [
            (None, arg)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        ]
        for position, arg in defaulted:
            name = "%s.%s(%s)" % (path.stem, callee, arg.arg)
            yield name, callee, position, arg.arg


def _passes(call, position, param):
    """Whether `call` passes the parameter at `position` named `param`."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args)


def unpassed_defaults():
    """module.name(param) for each defaulted parameter no program call passes."""
    program = [path for path in SCANNED if not path.name.startswith("test_")]
    calls = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, callee, position, param in _defaulted_parameters(path)
        if not any(_passes(call, position, param) for call in calls.get(callee, []))
    }


def test_defaulted_parameters_are_passed():
    unpassed = unpassed_defaults()
    flagged = sorted(unpassed - set(ALLOWED_UNPASSED))
    assert not flagged, "defaulted parameters no program call passes: %s" % flagged
    stale = sorted(set(ALLOWED_UNPASSED) - unpassed)
    assert not stale, "passed or gone now; drop them from the list: %s" % stale


def test_package_imports_without_scipy():
    modules = ["mskit.cli"] + ["mskit." + p.stem for p in sorted(PACKAGE.glob("*.py"))]
    code = (
        "import importlib, sys\n"
        "for name in %r:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        % (modules,)
    )
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", "scipy modules loaded: %s" % proc.stdout
