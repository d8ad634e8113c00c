"""Every cross-reference in a docstring of the package names something that exists.

A ``:func:``, ``:class:``, ``:meth:``, ``:data:`` or ``:attr:`` role, and a
double-backquoted ``module.name`` whose first part is a module of the
package, must resolve in the docstring's module, in its enclosing class, or
as ``steinperm.<module>.<name>``.
"""

import ast
import importlib
import pathlib
import re

import pytest

import steinperm

SOURCE = pathlib.Path(steinperm.__file__).parent
MODULES = sorted(path.stem for path in SOURCE.glob("*.py") if path.stem != "__init__")
ROLE = re.compile(r":(?:func|class|meth|data|attr):`~?([\w.]+?)(?:\(\))?`")
SPAN = re.compile(r"``((\w+)(?:\.\w+)+)``")


def references(name):
    """(line, "role" or "span", target, enclosing class or None) of each
    reference in the docstrings of module ``name``."""
    tree = ast.parse((SOURCE / f"{name}.py").read_text())
    module = importlib.import_module(f"steinperm.{name}")
    out = []

    def visit(node, cls):
        doc = ast.get_docstring(node, clean=False)
        if doc is not None:
            # the docstring opens on its first line, escapes aside
            start = node.body[0].lineno
            for kind, pattern in ("role", ROLE), ("span", SPAN):
                for match in pattern.finditer(doc):
                    if kind == "role" or match[2] in ("steinperm", *MODULES):
                        out.append((start + doc.count("\n", 0, match.start()), kind, match[1], cls))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, getattr(cls or module, child.name, None))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)

    visit(tree, None)
    return out


def resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def resolves(name, target, cls):
    first, _, rest = target.partition(".")
    scopes = [(importlib.import_module(f"steinperm.{name}"), target)]
    if cls is not None:
        scopes.append((cls, target))
    if first == "steinperm":
        scopes.append((steinperm, rest))
    elif first in MODULES:
        scopes.append((importlib.import_module(f"steinperm.{first}"), rest))
    for scope, dotted in scopes:
        try:
            resolve(scope, dotted)
        except AttributeError:
            continue
        return True
    return False


@pytest.mark.parametrize("name", MODULES)
def test_docstring_references_resolve(name):
    found = references(name)
    broken = [f"{name}.py:{line} {target}" for line, _, target, cls in found if not resolves(name, target, cls)]
    assert broken == []


def test_references_are_found():
    # both kinds occur, so a pattern that matched nothing would show here
    kinds = [kind for name in MODULES for _, kind, _, _ in references(name)]
    assert kinds.count("role") > 80 and kinds.count("span") > 15
