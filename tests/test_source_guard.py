"""Static guards over the package source, in place of a linter.

Every module under src/srlab is parsed with ``ast``.  Two kinds of dead
code fail the suite: an import that its module never uses (``__init__``
re-exports are exempt), and a module-level ``_private`` function or class
that nothing in the package refers to.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "srlab"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    """Names read as variables, attributes or imports anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    if path.name == "__init__.py":
        return  # its imports are the package's re-exports
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for name, line in imported_names(tree)
        if name not in used
    ]
    assert unused == []


def test_every_private_definition_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    dead = [
        "%s:%d %s" % (name, node.lineno, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert dead == []


def test_guards_see_dead_code():
    tree = ast.parse(
        "import os\nfrom a import b as c, d\ndef _gone():\n    return d\n"
    )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = [name for name, _ in imported_names(tree)]
    assert names == ["os", "c", "d"]
    assert [name for name in names if name not in used] == ["os", "c"]
    assert "_gone" not in referenced_names(tree)
