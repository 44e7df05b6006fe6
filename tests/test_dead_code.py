"""Every top-level function and class of the package is used.

A name counts as used when it is referenced, as a name or an attribute,
somewhere in `src/treelat`, `scripts/` or the benchmark's own modules
(`perfbench/*.py`, not its tests) outside its own definition.  Exporting
a name in `treelat.__all__` does not count, and neither do tests: code
that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treelat"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unused_definitions() -> list[tuple[Path, str]]:
    # name -> the (file, enclosing top-level definition) pairs referring to it
    references: dict[str, set] = {}
    defined = []
    for path in [path for folder in USERS for path in sorted(folder.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner and path.parent == PACKAGE:
                defined.append((path, owner))
            for name in _referenced_names(stmt):
                references.setdefault(name, set()).add((path, owner))
    return [(path, name) for path, name in defined
            if not references.get(name, set()) - {(path, name)}]


def test_no_unused_public_definitions():
    assert [f"{path.name}: {name}" for path, name in unused_definitions()
            if not name.startswith("_")] == []


def test_no_unused_private_definitions():
    assert [f"{path.name}: {name}" for path, name in unused_definitions()
            if name.startswith("_")] == []
