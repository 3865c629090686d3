"""Static guards over the package source, in place of a linter.

Every module under src/srlab is parsed with ``ast``.  Three kinds of dead
code fail the suite: an import that its module never uses (``__init__``
re-exports are exempt), a module-level ``_private`` function or class
that nothing in the package refers to, and a parameter or dataclass
field with a default that no call in src/, tests/ or perfbench/ sets.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "srlab"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = sorted(
    path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
)


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


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _init_fields(node):
    """(name, has default) of a dataclass's init fields, in order."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            kw.arg == "init" and getattr(kw.value, "value", True) is False
            for kw in value.keywords
        ):
            continue
        yield stmt.target.id, value is not None


def defaulted_parameters(tree):
    """(callable, parameter, position, line) for every parameter with a default.

    ``__init__`` and a dataclass's fields go by the class name, and a
    method's positions skip ``self``; a keyword-only parameter has
    position None.
    """
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for pos, (name, has_default) in enumerate(_init_fields(child)):
                        if has_default:
                            yield child.name, name, pos, child.lineno
                yield from visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                params = args.posonlyargs + args.args
                first = len(params) - len(args.defaults)
                skip = 1 if owner else 0
                name = owner if child.name == "__init__" else child.name
                for pos in range(first, len(params)):
                    yield name, params[pos].arg, pos - skip, child.lineno
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None, child.lineno
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    return list(visit(tree, None))


def call_sites(tree):
    """(callee name, positional count, keywords) of every call that
    passes no ``*args`` or ``**kwargs``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        if any(kw.arg is None for kw in node.keywords):
            continue
        yield name, len(node.args), {kw.arg for kw in node.keywords}


def unset_parameters(defaults, calls):
    """The entries of ``defaults`` that no call in ``calls`` sets."""
    most, keywords = {}, {}
    for name, count, names in calls:
        most[name] = max(most.get(name, 0), count)
        keywords.setdefault(name, set()).update(names)
    return [
        (owner, param, pos, line)
        for owner, param, pos, line in defaults
        if param not in keywords.get(owner, ())
        and (pos is None or most.get(owner, 0) <= pos)
    ]


def test_every_default_is_set_by_a_caller():
    calls = [call for path in CALLERS for call in call_sites(parse(path))]
    unset = [
        "%s:%d %s(%s)" % (path.name, line, owner, param)
        for path in MODULES
        for owner, param, _, line in unset_parameters(
            defaulted_parameters(parse(path)), calls
        )
    ]
    assert unset == []


def test_default_guard_sees_unset_parameters():
    tree = ast.parse(
        "def f(a, b=1, *, c=2):\n    return g(a, *b)\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0):\n        pass\n"
        "@dataclass\nclass D:\n    u: int\n    v: int = 0\n"
        "    w: int = field(default=0, init=False)\n"
        "def g(s=1, t=2):\n    return s\n"
        "f(1, 2)\ng(**{})\nK(1)\nk.m(z=3)\nD(1)\n"
    )
    defaults = defaulted_parameters(tree)
    assert [d[:3] for d in defaults] == [
        ("f", "b", 1), ("f", "c", None), ("K", "x", 0), ("K", "y", 1),
        ("m", "z", 0), ("D", "v", 1), ("g", "s", 0), ("g", "t", 1),
    ]
    unset = unset_parameters(defaults, list(call_sites(tree)))
    assert [d[:2] for d in unset] == [
        ("f", "c"), ("K", "y"), ("D", "v"), ("g", "s"), ("g", "t"),
    ]
