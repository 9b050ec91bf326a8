"""Every public name and method in `mskit` has a caller in the program.

The scan parses the package and the benchmark harness with `ast` and looks
for a use of each public top-level name, and of each public method or
property of a public class (a load of the bare name, or an attribute of
that name), outside the name's own definition. A name used only
by the tests fails it: the behaviour either gets a caller the program needs,
or it goes together with its tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mskit"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without a caller, each with the reason it stays.
ALLOWED_UNUSED = {
    "metric_slope_variational": (
        "the descent-dictionary form of the metric slope, one of the slope "
        "representations of the weak formulation; waits for a `check slope` "
        "suite"
    ),
    "difference_quotient_slope": (
        "the difference-quotient form of the metric slope along a flow; "
        "waits for a `check slope` suite"
    ),
    "load_field": "reader for the .msfld files that `mskit run` writes",
}


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
