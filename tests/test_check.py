from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from frontinv import check
from frontinv.check import check_front, front_ok
from frontinv.front import crossing_signs, parse_front


SHARED = {"errors", "front"}
ROUTES = {"rulings", "legskein", "toposkein"}
# the frontinv submodules that a fresh `import M` may load, M included
LOADS = {
    "frontinv": set(),
    "frontinv.errors": {"errors"},
    "frontinv.poly": {"poly"},
    "frontinv.front": SHARED,
    "frontinv.rulings": SHARED | {"poly", "rulings"},
    "frontinv.legskein": SHARED | {"poly", "legskein"},
    "frontinv.diagram": SHARED | {"diagram"},
    "frontinv.toposkein": SHARED | {"diagram", "poly", "toposkein"},
    "frontinv.check": SHARED | ROUTES | {"diagram", "poly", "check"},
    "frontinv.cli": SHARED | ROUTES | {"diagram", "poly", "check", "cli"},
}


@pytest.mark.parametrize("module", LOADS)
def test_each_module_loads_only_its_dependencies(module):
    # the routes stay independent: importing one loads none of the others;
    # only check compares them, and only the CLI loads check
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        f"import sys, {module}; "
        "print(*(m[len('frontinv.'):] for m in sys.modules if m.startswith('frontinv.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert set(out.split()) == LOADS[module]


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


def test_default_pair_with_no_negative_crossing_reuses_R(monkeypatch):
    # T(2,4): the default pair's crossings are all positive, so its switch
    # mask is R's and only the other pair gets an oriented sweep
    swept = []
    sweep = check.oriented_ruling_polynomial

    def recording(of):
        swept.append(of)
        return sweep(of)

    monkeypatch.setattr(check, "oriented_ruling_polynomial", recording)
    rec = check_front(parse_front("l1 l2 x1 x1 x1 x1 r2 r1"))
    assert [of.choices for of in swept] == [(True, False)]
    assert set(crossing_signs(swept[0])) == {-1}
    assert rec["agree_4_1"] is True
    assert [o["OR"] for o in rec["oriented"]] == [rec["R"], "z^-1", "z^-1", rec["R"]]
