"""No dead names in the program: every function local that is assigned is
read, and every module-level import is used.

This walks the AST of each file under ``src/`` and ``tools/`` and runs none
of them.  A local whose name starts with ``_`` is exempt.  A read anywhere
in a function, nested functions included, counts for its locals.
"""

from __future__ import annotations

import ast

from conftest import ROOT

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope``'s body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, name) of each local assigned in a function and never read."""
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = set()
        stored: dict[str, int] = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
        read = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        dead += [
            (line, fn.name, name)
            for name, line in stored.items()
            if name not in read and name not in declared and not name.startswith("_")
        ]
    return sorted(dead)


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that the module never uses."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]


def test_no_dead_locals_or_unused_imports():
    paths = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(ROOT)
        found += [f"{where}:{line}: {fn} assigns {name}, never read"
                  for line, fn, name in dead_locals(tree)]
        found += [f"{where}:{line}: import {name}, never used"
                  for line, name in unused_imports(tree)]
    assert not found, "\n".join(found)


def test_the_check_sees_what_it_looks_for():
    tree = ast.parse(
        "import os\n"
        "import sys as system\n"
        "from a import b, c\n"
        "def f(x):\n"
        "    kept, dropped = x\n"
        "    for t, y in kept:\n"
        "        n = y\n"
        "        n += 1\n"
        "    _skipped = 1\n"
        "    def g():\n"
        "        return c(kept)\n"
        "    return g\n"
    )
    assert dead_locals(tree) == [(5, "f", "dropped"), (6, "f", "t"), (7, "f", "n")]
    assert unused_imports(tree) == [(1, "os"), (2, "system"), (3, "b")]
