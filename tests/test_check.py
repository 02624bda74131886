from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from frontinv.check import front_ok


def test_check_is_loaded_by_the_cli_only():
    # check compares the routes; no route, and not the package itself, may
    # depend on it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, frontinv, frontinv.diagram, frontinv.legskein, frontinv.rulings, "
        "frontinv.toposkein; print('frontinv.check' in sys.modules); "
        "import frontinv.cli; print('frontinv.check' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


RECORD = {"agree_3_1": True, "agree_4_1": True, "kauffman_sharp": True, "homfly_sharp": True}


@pytest.mark.parametrize(
    "change,verdicts",
    [
        ({}, (True, True, True)),
        ({"agree_3_1": False}, (False, True, False)),
        ({"agree_4_1": False}, (True, False, True)),
        # past the orientation budget Theorem 4.1 is unchecked, which fails it
        ({"agree_4_1": None}, (True, False, True)),
        # HOMFLY sharpness without Kauffman sharpness breaks the corollary
        ({"kauffman_sharp": False}, (True, True, False)),
        ({"kauffman_sharp": False, "homfly_sharp": False}, (True, True, True)),
    ],
)
def test_front_ok_per_theorem(change, verdicts):
    rec = dict(RECORD, **change)
    assert tuple(front_ok(rec, t) for t in ("3.1", "4.1", "corollaries")) == verdicts

