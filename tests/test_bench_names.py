"""The package keeps every name the benchmark reads.

``bench/layers.py`` times and counts calls by (module, function name), and
``bench/*.py`` import from the package by name.  A renamed function would not
break the benchmark run; it would only read 0 on its metric.  These tests read
the bench files as text and never run them.
"""

from __future__ import annotations

import ast
import importlib
import inspect

from conftest import ROOT

BENCH = ROOT / "bench"


def _layers_tables() -> dict[str, dict]:
    tree = ast.parse((BENCH / "layers.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "SPANS", "COUNTS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _defines(module, name: str) -> bool:
    """Does ``module`` hold the code of a function called ``name``: a
    module-level function, bare or under a cache wrapper, or a method of a
    class the module defines?"""
    found = [getattr(module, name, None)]
    found += [cls.__dict__.get(name) for cls in vars(module).values()
              if inspect.isclass(cls) and cls.__module__ == module.__name__]
    found = [inspect.unwrap(f) for f in found if f is not None]
    return any(inspect.isfunction(f) and f.__module__ == module.__name__ for f in found)


def test_traced_names_exist():
    tables = _layers_tables()
    assert set(tables) == {"LAYERS", "SPANS", "COUNTS"}
    for layer in tables["LAYERS"]:
        importlib.import_module(f"frontinv.{layer}")
    missing = [
        f"frontinv.{layer}.{name}"
        for layer, name in [*tables["SPANS"], *tables["COUNTS"]]
        if name is not None and not _defines(importlib.import_module(f"frontinv.{layer}"), name)
    ]
    assert not missing


def test_bench_imports_resolve():
    seen = 0
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("frontinv")):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                seen += 1
                if hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    missing.append(f"{path.name}: from {node.module} import {alias.name}")
    assert seen
    assert not missing
