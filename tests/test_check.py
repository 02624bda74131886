from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import closed_words

from frontinv import check
from frontinv.check import check_front, front_ok
from frontinv.diagram import from_oriented_front
from frontinv.front import (
    FrontWord,
    Letter,
    all_orientations,
    crossing_signs,
    orient,
    parse_front,
    strand_counts,
)
from frontinv.legskein import evaluate_B
from frontinv.rulings import oriented_ruling_polynomial, ruling_polynomial
from frontinv.toposkein import homfly_H, kauffman_D


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


def _x_reflection(word: FrontWord) -> FrontWord:
    """The front mirrored left to right: the word reversed, l and r swapped."""
    kind = {"l": "r", "x": "x", "r": "l"}
    return FrontWord(tuple(Letter(kind[let.kind], let.index) for let in reversed(word.letters)))


def _z_reflection(word: FrontWord) -> FrontWord:
    """The front mirrored top to bottom: on N strands before the letter,
    l_m becomes l_(N+2-m), and x_m and r_m become x_(N-m) and r_(N-m)."""
    return FrontWord(
        tuple(
            Letter(let.kind, n + 2 * (let.kind == "l") - let.index)
            for n, let in zip(strand_counts(word.letters), word.letters)
        )
    )


def _route_values(word: FrontWord) -> tuple:
    """R, B_leg, D and the multiset of (H, OR) over orientations, each from
    its route alone."""
    oriented = Counter(
        (str(homfly_H(from_oriented_front(of))), str(oriented_ruling_polynomial(of)))
        for of in all_orientations(word)
    )
    d = kauffman_D(from_oriented_front(orient(word)))
    return str(ruling_polynomial(word)), str(evaluate_B(word)), str(d), oriented


def test_routes_are_invariant_under_legendrian_reflections():
    # both reflections are contactomorphisms of R^3 that keep the knot type,
    # so every invariant is unchanged; the z-reflection swaps the rewrite
    # machine's cases below and above the cusp, and the x-reflection makes
    # every route walk the front from its other end
    words = closed_words(7, 4)
    assert len(words) == 1694
    bad = []
    for w in words:
        values = _route_values(w)
        for reflect in (_x_reflection, _z_reflection):
            if _route_values(reflect(w)) != values:
                bad.append((reflect.__name__, w.render()))
    assert not bad
