"""Every ``vsorank`` module uses the names it imports and defines the names
it exports.

Read with the standard library's ``ast``, without importing the modules.  A
name counts as used when the module reads it anywhere (a bare name, or the
base of an attribute) or lists it in ``__all__``.  The package's
``__init__`` imports names only to re-export them, so it is not checked for
unused imports.
"""

import ast
import os

import pytest

SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "vsorank")
MODULES = sorted(name for name in os.listdir(SOURCE) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as f:
        return ast.parse(f.read(), filename=module)


def _exports(tree):
    """The names listed in ``__all__``, or None if the module has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [element.value for element in node.value.elts]
    return None


def _imported(tree):
    """Each name an import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _defined(tree):
    """The names bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_module_is_checked():
    assert {"__init__.py", "autodiff.py", "temporal.py", "model.py"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_import(module):
    tree = _tree(module)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(_exports(tree) or ())
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_defined(module):
    tree = _tree(module)
    missing = sorted(set(_exports(tree) or ()) - _defined(tree))
    assert not missing, f"{module} lists names it does not define in __all__: {missing}"
