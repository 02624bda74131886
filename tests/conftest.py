from __future__ import annotations

import inspect
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

from frontinv.check import check_front, front_ok
from frontinv.front import FrontWord, Letter, OrientedFront
from frontinv.poly import LaurentPoly
from frontinv.rulings import enumerate_rulings

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# Property tests draw the same examples on every run and store none.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# Fronts of 15 to 44 crossings or loops on which every route does little work.
LARGE_FRONTS = {
    "T(2,15)": "l1 l3 " + "x2 " * 15 + "r1 r1",
    "15-loops": "l1 r1 " * 15,
    "44-crossings": "l1 l3 l5 " + "x2 x3 x4 x3 " * 11 + "r1 r1 r1",
}


def corpus_paths() -> list[Path]:
    return sorted(CORPUS.glob("*.front"))


def corpus_words() -> list[tuple[str, FrontWord]]:
    from frontinv.front import parse_front_file

    out = []
    for path in corpus_paths():
        word, _ = parse_front_file(path.read_text())
        out.append((path.stem, word))
    return out


def expected_fixture(name: str) -> dict:
    return json.loads((CORPUS / "expected" / f"{name}.json").read_text())


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to ``frames`` above the current depth, and restore it."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def enumerated_polynomial(word: FrontWord, of: OrientedFront | None = None) -> LaurentPoly:
    """The (oriented) ruling polynomial counted off ``enumerate_rulings``:
    z**(s - c + 1) for each ruling with s switches."""
    c = word.num_left_cusps
    terms: dict[int, int] = {}
    for rho in enumerate_rulings(word, of):
        terms[rho.s - c + 1] = terms.get(rho.s - c + 1, 0) + 1
    return LaurentPoly(terms)


def random_front(rng: random.Random, max_len: int = 14, max_strands: int = 6) -> FrontWord | None:
    """A random valid closed front word, or None when closure fails."""
    letters: list[tuple[str, int]] = []
    n = 0
    for _ in range(max_len):
        opts: list[tuple[str, int]] = []
        if n + 2 <= max_strands:
            opts += [("l", m) for m in range(1, n + 2)]
        if n >= 2:
            opts += [("x", m) for m in range(1, n)] * 2
            opts += [("r", m) for m in range(1, n)]
        if not opts:
            break
        k, m = rng.choice(opts)
        letters.append((k, m))
        n += {"l": 2, "x": 0, "r": -2}[k]
    while n > 0:
        m = rng.randrange(1, n) if n > 2 else 1
        letters.append(("r", m))
        n -= 2
    try:
        return FrontWord(tuple(Letter(k, m) for k, m in letters))
    except Exception:
        return None


def closed_words(max_letters: int, max_strands: int) -> list[FrontWord]:
    """Every valid closed word of at most ``max_letters`` letters on at most
    ``max_strands`` strands, split unions included, in depth-first order."""
    out: list[FrontWord] = []
    prefix: list[Letter] = []

    def dfs(n: int) -> None:
        if n == 0 and prefix:
            out.append(FrontWord(tuple(prefix)))
        if len(prefix) == max_letters:
            return
        opts = [Letter("l", m) for m in range(1, n + 2)] if n + 2 <= max_strands else []
        opts += [Letter(k, m) for k in "xr" for m in range(1, n)]
        for let in opts:
            prefix.append(let)
            dfs(n + {"l": 2, "x": 0, "r": -2}[let.kind])
            prefix.pop()

    dfs(0)
    return out


def checked_front(word: FrontWord) -> dict:
    """``check_front``'s record of ``word``, asserted to pass every theorem:
    R == B_leg == B_topo, and OR == Q on every orientation."""
    rec = check_front(word)
    where = word.render()
    assert rec["R"] == rec["B_leg"] == rec["B_topo"], (where, rec)
    assert "oriented" in rec, (where, "Theorem 4.1 not checked")
    for o in rec["oriented"]:
        assert o["OR"] == o["Q"], (where, o)
    for theorem in ("3.1", "4.1", "corollaries"):
        assert front_ok(rec, theorem), (where, theorem, rec)
    return rec


def random_fronts(seed: int, count: int, **kw) -> list[FrontWord]:
    rng = random.Random(seed)
    out: list[FrontWord] = []
    while len(out) < count:
        w = random_front(rng, **kw)
        if w is not None and len(w.letters) >= 2:
            out.append(w)
    return out


@pytest.fixture
def corpus():
    return corpus_words()
