"""Every public name and method in `mskit` has a caller in the program.

The scan parses the package and the benchmark harness with `ast` and looks
for a use of each public top-level name, and of each public method or
property of a public class (a load of the bare name, or an attribute of
that name), outside the name's own definition. A name used only
by the tests fails it: the behaviour either gets a caller the program needs,
or it goes together with its tests.

An attribute use is matched by name alone, so it cannot tell a call of
`obj.ok` on one type from one on another. A public method or property
whose name an ndarray, dict, list or tuple also has, or another mskit
class also has as a public member, therefore fails unless `SHARED_NAMES`
names it with its program caller, read by hand.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mskit"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without a caller, each with the reason it stays.
ALLOWED_UNUSED = {}

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

BUILTIN_ATTRIBUTES = (
    set(dir(np.ndarray)) | set(dir(dict)) | set(dir(list)) | set(dir(tuple))
)


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def _public_definitions():
    """Qualified name -> (path, node) for public names and their methods."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
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
        # uses inside the name's own definition do not count
        elsewhere = _uses(trees[path], node).union(
            *(found for other, found in uses.items() if other != path)
        )
        if node.name not in elsewhere:
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
