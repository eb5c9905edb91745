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


# Names the tracer wraps in a module that does not call them: each module
# imports its name only so that bench/tracer.py finds it there. A wrap that
# nothing calls records nothing, so this list may only shrink.
UNCALLED_TRACER_HOOKS = {
    "razor.pipeline.surface_embedding": "the rewriter embeds candidates",
    "razor.pipeline.replace_text": "the rewriter tokenizes candidates",
}


def tracer_module_hooks():
    """``(module, name)`` of each ``self.patch(owner, "name", ...)`` in
    ``Tracer.install`` whose owner is a razor module, its dotted name read
    through the method's local aliases (``pipeline`` for ``razor.pipeline``)."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    install = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    aliases = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                aliases[target.id] = ast.unparse(value)
    hooks = []
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
        ):
            owner = ast.unparse(node.args[0])
            module = aliases.get(owner, owner)
            if (PACKAGE / f"{module.removeprefix('razor.')}.py").is_file():
                hooks.append((module, node.args[1].value))
    return hooks


def calls_by_name(module):
    """The plain names ``module`` (``razor.<stem>``) calls."""
    tree = ast.parse((PACKAGE / f"{module.removeprefix('razor.')}.py").read_text(encoding="utf-8"))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_tracer_hook_is_called_by_its_module():
    hooks = tracer_module_hooks()
    assert ("razor.rewriter", "surface_embedding") in hooks
    assert ("razor.evalkit", "corpus_bleu") in hooks
    uncalled = {f"{module}.{name}" for module, name in hooks if name not in calls_by_name(module)}
    assert uncalled == set(UNCALLED_TRACER_HOOKS), (
        "tracer hooks that record nothing (or listed ones that now have a caller): "
        f"{sorted(uncalled ^ set(UNCALLED_TRACER_HOOKS))}"
    )
