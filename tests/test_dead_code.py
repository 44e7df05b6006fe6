"""Every public top-level function and class of the package is used.

A name counts as used when the package exports it in `treelat.__all__`, or
when it is referenced, as a name or an attribute, somewhere in
`src/treelat` or `scripts/` outside its own definition.  Tests do not
count: code that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

import treelat

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treelat"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unused_public_definitions() -> list[str]:
    # name -> the (file, enclosing top-level definition) pairs referring to it
    references: dict[str, set] = {}
    public = []
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner and path.parent == PACKAGE and not owner.startswith("_"):
                public.append((path, owner))
            for name in _referenced_names(stmt):
                references.setdefault(name, set()).add((path, owner))
    return [f"{path.name}: {name}" for path, name in public
            if name not in treelat.__all__
            and not references.get(name, set()) - {(path, name)}]


def test_no_unused_public_definitions():
    assert unused_public_definitions() == []
