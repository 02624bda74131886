"""Every source file parses under the Python floor that pyproject.toml declares.

This checks grammar only (``ast.parse`` with ``feature_version``), and that
only as far as the parser enforces it: a call to a library API newer than
the floor, such as ``tomllib``, still passes.  It reads the files and runs
none of them.
"""

from __future__ import annotations

import ast
import re

from conftest import ROOT


def test_sources_parse_at_the_declared_floor():
    declared = re.search(
        r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    )
    floor = (3, int(declared.group(1)))
    paths = sorted(p for d in ("src", "tests", "tools", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
