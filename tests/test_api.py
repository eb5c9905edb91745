"""Every public top-level function and class of the package has a caller.

A caller is a use as a name, an attribute or an import alias somewhere else
in ``src/razor/`` or ``bench/``, or in its own module outside its own
definition. A re-export in ``razor/__init__.py`` is not a use: a function
only tests call belongs in the tests, and the tests should check the code a
run executes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "razor"


def used_names(node):
    """The names ``node`` uses as a Name, an Attribute or an import alias."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def uncalled_public_names():
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
        if path.name != "__init__.py"
    }
    used_in = {path: used_names(tree) for path, tree in modules.items()}
    uncalled = []
    for path, tree in modules.items():
        if path.parent != PACKAGE:
            continue
        elsewhere = set().union(*(names for other, names in used_in.items() if other != path))
        uses = [used_names(statement) for statement in tree.body]
        for i, statement in enumerate(tree.body):
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = statement.name
            if name.startswith("_") or name in elsewhere:
                continue
            if not any(name in names for j, names in enumerate(uses) if j != i):
                uncalled.append(f"{path.stem}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = uncalled_public_names()
    assert not uncalled, f"public names with no caller in src/razor/ or bench/: {uncalled}"
