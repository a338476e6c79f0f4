"""No public API that only tests call.

Every public top-level function or class in `src/mavnav`, and every
public method of a public class, must be named somewhere in `src/` or
`perfbench/` outside its own definition: as a name, an attribute, an
import, or an identifier string (the perfbench tracer patches entry
points by name). Docstrings and comments do not count; a method counts
as named when any attribute of its name is. The exceptions are the
entry points of oracle tests and of tests of the paper's bounds, listed
in KEEP, and the methods in KEEP_METHODS. Each exception must itself be
a public definition that nothing calls, so that a stale entry cannot
widen them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mavnav"
KEEP = {"run_hover", "run_wind_step"}
KEEP_METHODS = {
    "Quat.angle_to": "the tests' measure of rotation error",
}


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) of every reference in the code of `tree`."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else None
        else:
            continue
        refs.append((name, getattr(node, "lineno", 0)))
    return refs


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of every public top-level function or class
    of `tree` and of every public method of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_caller():
    trees = {p: ast.parse(p.read_text()) for p in (*SRC.glob("*.py"), *ROOT.glob("perfbench/**/*.py"))}
    refs = {p: _references(tree) for p, tree in trees.items()}
    uncalled = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (p == path and line in own)
                       for p, file_refs in refs.items() for name, line in file_refs):
                uncalled.add(qualname)
    exceptions = KEEP | KEEP_METHODS.keys()
    unexplained, stale = sorted(uncalled - exceptions), sorted(exceptions - uncalled)
    assert not unexplained, f"public names that no code calls: {unexplained}"
    assert not stale, f"exceptions that are not uncalled public definitions: {stale}"
