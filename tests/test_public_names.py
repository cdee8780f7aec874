"""Every public name the package defines is used.

A public top-level function or class of ``src/ncsim`` must either be
referenced by name in the package itself, outside ``__init__.py``, or be
imported by ``tests/test_acceptance.py`` to pin a guarantee of the paper.
A name that meets neither is code that no command runs.  An import alone
is no reference, so a re-export does not keep a name alive; and outside
``__init__.py`` a module imports from its siblings only names it uses.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ncsim"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_definition_is_referenced_or_pinned():
    modules = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in modules.items() if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    pinned = {
        alias.name
        for node in ast.walk(_tree(TESTS / "test_acceptance.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncsim")
        for alias in node.names
    }
    assert defined, PACKAGE
    unused = sorted(f"{module}:{name}" for module, name in defined if name not in referenced | pinned)
    assert unused == []


def test_no_module_imports_a_sibling_name_it_does_not_use():
    # ``__init__.py`` imports to re-export; any other module imports to use
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if (alias.asname or alias.name) not in used
        ]
    assert unused == []
