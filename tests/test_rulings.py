from __future__ import annotations

import importlib.util
import random

import pytest

from conftest import (
    CORPUS,
    ROOT,
    closed_words,
    corpus_paths,
    corpus_words,
    enumerated_polynomial,
    expected_fixture,
    random_fronts,
    recursion_headroom,
)

from frontinv.front import FrontWord, R, X, all_orientations, crossing_signs, orient, parse_front
from frontinv.poly import LaurentPoly, parse_poly1
from frontinv.rulings import (
    Ruling,
    enumerate_rulings,
    enumerate_rulings_bruteforce,
    is_ruling,
    oriented_ruling_polynomial,
    ruling_polynomial,
    sweep_step,
)


def switch_sets(rulings) -> list[tuple[int, ...]]:
    return sorted(r.switches for r in rulings)


# -- sweep_step unit behaviour


def test_sweep_step_trefoil_disjoint_switch():
    pairing = (1, 0, 3, 2)  # pairs (1,2) and (3,4) in 1-based terms
    assert sweep_step(pairing, X(2), switch=True) == pairing
    assert sweep_step(pairing, X(2)) == (2, 3, 0, 1)


def test_sweep_step_interleaved_switch_dies():
    pairing = (2, 3, 0, 1)  # pairs (1,3) and (2,4): interleaved at 2,3
    assert sweep_step(pairing, X(2), switch=True) is None


def test_sweep_step_same_eye_dies_both_ways():
    pairing = (1, 0)  # one eye
    assert sweep_step(pairing, X(1), switch=True) is None
    assert sweep_step(pairing, X(1)) is None


def test_sweep_step_nested_switch_allowed():
    pairing = (3, 2, 1, 0)  # pairs (1,4) and (2,3): nested
    assert sweep_step(pairing, X(3), switch=True) == pairing


def test_sweep_step_right_cusp():
    assert sweep_step((1, 0, 3, 2), R(1)) == (1, 0)
    assert sweep_step((2, 3, 0, 1), R(1)) is None


# -- enumeration examples


def test_enumerate_unknot():
    assert switch_sets(enumerate_rulings(parse_front("l1 r1"))) == [()]


def test_enumerate_stabilized_unknot():
    assert enumerate_rulings(parse_front("l1 x1 r1")) == []


def test_enumerate_trefoil():
    rulings = enumerate_rulings(parse_front("l1 l3 x2 x2 x2 r1 r1"))
    assert sorted(len(r.switches) for r in rulings) == [1, 1, 3]
    # canonical depth-first order explores non-switch before switch
    assert [r.switches for r in rulings] == [(3,), (1,), (1, 2, 3)]


def test_is_ruling_examples():
    unknot = parse_front("l1 r1")
    assert is_ruling(unknot, ())
    trefoil = parse_front("l1 l3 x2 x2 x2 r1 r1")
    assert is_ruling(trefoil, (1,))
    assert not is_ruling(trefoil, (2,))
    assert is_ruling(trefoil, (1, 2, 3))
    assert not is_ruling(trefoil, (9,))


def test_nonnormal_candidate_rejected_by_normality_alone():
    # second crossing only: both strands belong to different eyes but the
    # eyes interleave in the slice
    w = parse_front("l1 l2 l3 x4 x3 r2 r2 r1")
    assert not is_ruling(w, (2,))
    assert is_ruling(w, ())


def test_polynomial_examples():
    assert ruling_polynomial(parse_front("l1 r1")) == LaurentPoly.one()
    assert ruling_polynomial(parse_front("l1 r1 l1 r1")) == parse_poly1("z^-1")
    assert ruling_polynomial(parse_front("l1 l3 x2 x2 x2 r1 r1")) == parse_poly1("z^2 + 2")
    assert ruling_polynomial(parse_front("l1 x1 r1")).is_zero()


def test_oriented_polynomial_examples():
    assert oriented_ruling_polynomial(orient(parse_front("l1 r1"))) == LaurentPoly.one()
    assert oriented_ruling_polynomial(orient(parse_front("l1 x1 r1"))).is_zero()
    trefoil = orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))
    assert oriented_ruling_polynomial(trefoil) == parse_poly1("z^2 + 2")


def test_hopf_orientation_dependence():
    w = parse_front("l1 l3 x2 x2 r1 r1")
    values = {
        "".join("+" if c else "-" for c in of.choices): str(oriented_ruling_polynomial(of))
        for of in all_orientations(w)
    }
    assert values["++"] == "z^-1"  # default orientations are antiparallel here
    assert values["+-"] == "z + z^-1"


# -- oracle equivalence


@pytest.mark.parametrize("name,word", corpus_words())
def test_sweep_matches_oracle_on_corpus(name, word):
    assert switch_sets(enumerate_rulings(word)) == switch_sets(
        enumerate_rulings_bruteforce(word)
    )
    for of in all_orientations(word):
        assert switch_sets(enumerate_rulings(word, of)) == switch_sets(
            enumerate_rulings_bruteforce(word, of)
        )


def test_sweep_matches_oracle_on_random_fronts():
    for w in random_fronts(seed=41, count=120, max_len=12):
        if w.num_crossings > 8:
            continue
        assert switch_sets(enumerate_rulings(w)) == switch_sets(
            enumerate_rulings_bruteforce(w)
        )


def test_oriented_sweep_matches_oracle_on_census():
    # Every orientation of every closed word of <= 7 letters on <= 6 strands.
    # The sweep lists rulings depth first and the oracle in bit order, so
    # the switch sets are compared sorted.
    n = 0
    for w in closed_words(7, 6):
        for of in all_orientations(w):
            assert switch_sets(enumerate_rulings(w, of)) == switch_sets(
                enumerate_rulings_bruteforce(w, of)
            ), (w.render(), of.choices)
            n += 1
    assert n == 19088


def test_enumeration_is_not_bounded_by_recursion_depth():
    # 600 split eyes: one ruling, reached through 1200 letters.
    w = parse_front("l1 r1 " * 600)
    with recursion_headroom(100):
        assert enumerate_rulings(w) == [Ruling(())]
        assert enumerate_rulings(w, orient(w)) == [Ruling(())]
        assert enumerated_polynomial(w) == parse_poly1("z^-599")


def test_sweep_skips_the_switch_branch_at_negative_crossings(monkeypatch):
    # The orientation enters only as the mask of positive crossings: the
    # oriented sweep never tries a switch at a negative one.
    import frontinv.rulings as rulings

    w = parse_front("l1 l3 x2 x2 r1 r1")  # Hopf link, antiparallel by default
    of = orient(w)
    assert set(crossing_signs(of)) == {-1}
    calls = []
    real = rulings.sweep_step

    def counted(pairing, letter, switch=False):
        calls.append(switch)
        return real(pairing, letter, switch)

    monkeypatch.setattr(rulings, "sweep_step", counted)
    assert oriented_ruling_polynomial(of) == parse_poly1("z^-1")
    assert calls and True not in calls
    calls.clear()
    assert enumerate_rulings(w, of) == [Ruling(())]
    assert calls and True not in calls


@pytest.mark.parametrize(
    "text",
    [
        "l1 l3 " + "x2 " * 101 + "r1 r1",
        "l1 l2 l3 l4 l5 " + "x1 x3 x2 x4 " * 8 + "r5 r4 r3 r2 r1",
    ],
    ids=["T(2,101)", "5-strand-closure"],
)
def test_sweep_makes_no_polynomial_product(monkeypatch, text):
    # A switch multiplies a weight by z, which is a shift of its exponents.
    calls = []
    real = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    w = parse_front(text)
    of = orient(w)
    assert set(crossing_signs(of)) == {1}  # the oriented sweep switches everywhere too
    R = ruling_polynomial(w)
    assert oriented_ruling_polynomial(of) == R
    assert sum(R.terms.values()) > 1
    assert calls == []


@pytest.mark.parametrize(
    "text,value", [("", "z"), ("l1 l1 r2 r1", "0")], ids=["empty", "unknot-stab1"]
)
def test_polynomial_walk_ends(text, value):
    # the empty word walks no letter and keeps the factor z^(1-c) = z; a
    # word with no ruling has no live pairing in its first step
    w = parse_front(text) if text else FrontWord(())
    assert str(ruling_polynomial(w)) == value
    assert str(oriented_ruling_polynomial(orient(w))) == value


def test_polynomial_weighs_only_live_entries(monkeypatch):
    # figure8: the forward pass reaches switches after which no ruling
    # continues; the walk computes no weight for them, so it shifts one
    # weight per live switch, and the total once by z^(1-c)
    import frontinv.rulings as rulings

    w = parse_front("l1 l1 l1 x2 x2 x1 x1 x1 x4 r2 r1 r1")
    reached = []
    real = rulings.sweep_step

    def counted(pairing, letter, switch=False):
        out = real(pairing, letter, switch)
        reached.append(switch and out is not None)
        return out

    monkeypatch.setattr(rulings, "sweep_step", counted)
    steps = rulings._live_steps(w, None)
    live = sum(switched is not None for step in steps for _, switched in step.values())
    assert live < sum(reached)
    expected = enumerated_polynomial(w)
    shifts = []
    real_shift = LaurentPoly.shift

    def counted_shift(self, dz, da=0):
        shifts.append(dz)
        return real_shift(self, dz, da)

    monkeypatch.setattr(LaurentPoly, "shift", counted_shift)
    assert ruling_polynomial(w) == expected
    assert len(shifts) == live + 1


def test_fixtures_match_oracle_and_sweep():
    for name, word in corpus_words():
        fix = expected_fixture(name)
        assert fix["rulings"] == [list(s) for s in switch_sets(enumerate_rulings(word))]
        assert str(ruling_polynomial(word)) == fix["ruling_polynomial"]
        for of in all_orientations(word):
            key = "".join("+" if c else "-" for c in of.choices)
            assert (
                str(oriented_ruling_polynomial(of))
                == fix["orientations"][key]["oriented_polynomial"]
            )


def _fixture_tool():
    path = ROOT / "tools" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_fixtures_reproduce_from_bruteforce(path):
    # every committed fixture is exactly what the brute-force generator writes
    text = _fixture_tool().fixture_json(path.read_text())
    assert text.encode() == (CORPUS / "expected" / f"{path.stem}.json").read_bytes()


# -- structural properties


def test_oriented_rulings_are_rulings():
    for name, word in corpus_words():
        plain = set(switch_sets(enumerate_rulings(word)))
        for of in all_orientations(word):
            oriented = set(switch_sets(enumerate_rulings(word, of)))
            assert oriented <= plain
            if oriented_ruling_polynomial(of) != LaurentPoly.zero():
                assert ruling_polynomial(word) != LaurentPoly.zero()


def test_memo_matches_enumeration():
    # the merging sweep against the rulings it would list, counted one by one
    for w in random_fronts(seed=43, count=60, max_len=12):
        assert ruling_polynomial(w) == enumerated_polynomial(w)
        of = orient(w)
        assert oriented_ruling_polynomial(of) == enumerated_polynomial(w, of)


def test_skein_relation_on_random_sites():
    # value(.. l_{m+1} x_m ..) - value(.. l_m x_{m+1} ..)
    #   = z (value(.. l_{m+1} ..) - value(.. l_m ..))
    z = LaurentPoly.monomial(1)
    rng = random.Random(47)
    sites = 0
    attempts = 0
    while sites < 100 and attempts < 4000:
        attempts += 1
        w = None
        while w is None:
            w = random_fronts(seed=rng.randrange(10 ** 6), count=1, max_len=12)[0]
        letters = w.letters
        for k in range(len(letters) - 1):
            p, q = letters[k], letters[k + 1]
            if p.kind == "l" and q.kind == "x" and q.index == p.index - 1:
                from frontinv.front import L as Lf, X as Xf

                mu = p.index
                hi = FrontWord(letters[:k] + (Lf(mu - 1), Xf(mu)) + letters[k + 2:])
                del_hi = FrontWord(letters[:k] + (Lf(mu),) + letters[k + 2:])
                del_lo = FrontWord(letters[:k] + (Lf(mu - 1),) + letters[k + 2:])
                lhs = ruling_polynomial(w) - ruling_polynomial(hi)
                rhs = z * (ruling_polynomial(del_hi) - ruling_polynomial(del_lo))
                assert lhs == rhs
                sites += 1
    assert sites >= 100


def test_single_move_invariance_on_corpus():
    # every applicable relation, applied once, preserves the polynomial
    from frontinv.front import applicable_moves, apply_move

    for name, word in corpus_words():
        base = ruling_polynomial(word)
        for mv in applicable_moves(word):
            moved = apply_move(word, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
            assert ruling_polynomial(moved) == base, (name, mv)


def test_disjoint_union_rule():
    words = [w for _, w in corpus_words()]
    for w1 in words[:6]:
        for w2 in words[:6]:
            combined = FrontWord(w1.letters + w2.letters)
            assert ruling_polynomial(combined) == parse_poly1("z^-1") * ruling_polynomial(
                w1
            ) * ruling_polynomial(w2)
