from __future__ import annotations

import random

import pytest

from conftest import closed_words, corpus_words, random_fronts, recursion_headroom

from frontinv.cli import CROSSING_CAP
from frontinv.diagram import (
    _find_bigon,
    _find_kink,
    _smooth,
    _strip_bigon,
    _switch,
    from_oriented_front,
    pd_export,
    pd_import,
    writhe,
)
from frontinv.errors import FuelExhausted, ParseError
from frontinv.front import (
    all_orientations,
    applicable_moves,
    apply_move,
    invariants,
    orient,
    parse_front,
    stabilize,
)
from frontinv.poly import (
    NEG_INFINITY,
    LaurentPoly1,
    LaurentPoly2,
    coeff_a,
    deg_a,
    parse_poly1,
    parse_poly2,
)
from frontinv.rulings import oriented_ruling_polynomial, ruling_polynomial
from frontinv.toposkein import (
    B_of,
    Q_of,
    _SkeinEngine,
    homfly_H,
    homfly_P,
    kauffman_D,
    kauffman_F,
    sharpness,
)

A = LaurentPoly2.monomial(0, 1)
Z = LaurentPoly2.monomial(1, 0)
DELTA_D = parse_poly2("z^-1*a + 1 - z^-1*a^-1")
DELTA_H = parse_poly2("z^-1*a - z^-1*a^-1")


def top(text: str, choices=None):
    word = parse_front(text)
    return from_oriented_front(orient(word, choices))


def test_unknot_normalizations():
    d = top("l1 r1")
    assert d.n_crossings == 0 and d.free_loops == 1
    assert kauffman_D(d) == LaurentPoly2.one()
    assert homfly_H(d) == LaurentPoly2.one()
    assert deg_a(kauffman_D(d)) == 0  # forced by the degree bound with c = 1


def test_kink_values():
    # "l1 x1 r1" smooths to a one-crossing unknot diagram with writhe -1
    d = top("l1 x1 r1")
    assert d.n_crossings == 1 and writhe(d) == -1
    assert kauffman_D(d) == parse_poly2("a^-1")
    assert homfly_H(d) == parse_poly2("a^-1")
    # a positive kink arises from the Type 1 tangle l2 x1 r2
    d = top("l1 l2 x1 r2 r1")
    assert writhe(d) == 1
    assert kauffman_D(d) == parse_poly2("a")
    assert homfly_H(d) == parse_poly2("a")


def test_bigon_after_switch():
    # switching one crossing of the Hopf clasp leaves a Reidemeister II pair
    # that pulls apart into two free loops
    d = _switch(top("l1 l3 x2 x2 r1 r1"), 0)
    assert _find_bigon(d) == (0, 1)
    stripped = _strip_bigon(d, 0, 1)
    assert stripped.n_crossings == 0 and stripped.free_loops == 2
    # in T(2,3), switching the middle crossing pairs it with either neighbour;
    # removing the first pair leaves a one-crossing kink
    d = _switch(top("l1 l3 x2 x2 x2 r1 r1"), 1)
    assert _find_bigon(d) == (0, 1)
    stripped = _strip_bigon(d, 0, 1)
    assert stripped.n_crossings == 1 and _find_kink(stripped) is not None
    assert kauffman_D(d) == kauffman_D(stripped)
    assert homfly_H(d) == homfly_H(stripped)


def test_no_bigon_in_alternating_clasps():
    # in the unswitched clasps the over-strand alternates around every bigon
    for text in ("l1 l3 x2 x2 r1 r1", "l1 l3 x2 x2 x2 r1 r1"):
        assert _find_bigon(top(text)) is None


def test_no_bigon_in_kinks():
    # one kink, two split kinks, and two kinks of either sign on one circle
    for text in ("l1 x1 r1", "l1 x1 r1 l1 x1 r1", "l1 l2 x1 r2 l2 x1 r2 r1", "l1 l2 x1 r2 x1 r1"):
        d = top(text)
        assert _find_kink(d) is not None
        assert _find_bigon(d) is None


def test_split_values():
    d = top("l1 r1 l1 r1")
    assert d.free_loops == 2
    assert kauffman_D(d) == DELTA_D
    assert homfly_H(d) == DELTA_H
    assert coeff_a(kauffman_D(d), 1) == parse_poly1("z^-1")


def test_trefoil_coefficients():
    d = top("l1 l3 x2 x2 x2 r1 r1")
    D = kauffman_D(d)
    H = homfly_H(d)
    assert coeff_a(D, 1) == parse_poly1("z^2 + 2")
    assert coeff_a(H, 1) == parse_poly1("z^2 + 2")
    assert deg_a(D) == 1 and deg_a(H) == 1


def test_homfly_anchor_values():
    # writhe-normalized HOMFLY of the right trefoil and the figure eight
    assert homfly_P(orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))) == parse_poly2(
        "z^2*a^-2 + 2*a^-2 - a^-4"
    )
    assert homfly_P(orient(parse_front("l1 l1 l1 x2 x2 x1 x1 x1 x4 r2 r1 r1"))) == parse_poly2(
        "a^2 - 1 + a^-2 - z^2"
    )
    assert homfly_P(orient(parse_front("l1 r1"))) == LaurentPoly2.one()


def test_hopf_homfly_orientation_dependence():
    word = parse_front("l1 l3 x2 x2 r1 r1")
    values = set()
    for of in all_orientations(word):
        values.add(homfly_H(from_oriented_front(of)))
    # parallel and antiparallel orientations give different H
    assert len(values) == 2


def test_kauffman_F_and_P_normalization():
    of = orient(parse_front("l1 x1 r1"))
    d = from_oriented_front(of)
    assert kauffman_F(of) == kauffman_D(d) * A
    assert kauffman_F(of) == LaurentPoly2.one()  # unknot
    assert homfly_P(of) == LaurentPoly2.one()


def test_F_invariant_under_reidemeister_one():
    # Type 1 moves insert a positive kink in Top(K); F absorbs it
    w = parse_front("l1 l3 x2 x2 x2 r1 r1")
    F = kauffman_F(orient(w))
    P = homfly_P(orient(w))
    w1 = apply_move(w, "type1_lo", 2, inverse=True, m=3)
    assert kauffman_F(orient(w1)) == F
    assert homfly_P(orient(w1)) == P
    # and D gains exactly one positive kink factor
    assert kauffman_D(from_oriented_front(orient(w1))) == kauffman_D(
        from_oriented_front(orient(w))
    ) * A


def test_B_and_Q_examples():
    assert B_of(parse_front("l1 r1")) == LaurentPoly1.one()
    assert Q_of(orient(parse_front("l1 r1"))) == LaurentPoly1.one()
    assert B_of(parse_front("l1 r1 l1 r1")) == parse_poly1("z^-1")
    assert B_of(parse_front("l1 l3 x2 x2 x2 r1 r1")) == parse_poly1("z^2 + 2")
    assert Q_of(orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))) == parse_poly1("z^2 + 2")


@pytest.mark.parametrize("name,word", corpus_words())
def test_triangle_on_corpus(name, word):
    assert B_of(word) == ruling_polynomial(word)
    for of in all_orientations(word):
        assert Q_of(of) == oriented_ruling_polynomial(of)


def test_triangle_on_random_fronts():
    for w in random_fronts(seed=555, count=60, max_len=13, max_strands=8):
        if w.num_crossings > 7:
            continue
        assert B_of(w) == ruling_polynomial(w), w.render()
        orientations = all_orientations(w)
        if len(orientations) <= 4:
            for of in orientations:
                assert Q_of(of) == oriented_ruling_polynomial(of), w.render()


def _check_triangle(words) -> int:
    orientations = 0
    for w in words:
        assert B_of(w) == ruling_polynomial(w), w.render()
        for of in all_orientations(w):
            assert Q_of(of) == oriented_ruling_polynomial(of), (w.render(), of.choices)
            orientations += 1
    return orientations


def test_triangle_on_every_small_front():
    # every closed word of <= 7 letters on <= 6 strands, split unions
    # included: 4844 words and 19088 orientations
    assert _check_triangle(closed_words(7, 6)) == 19088


@pytest.mark.slow
def test_triangle_on_every_8_letter_front():
    # the same census one letter longer (run with `pytest -m slow`)
    assert _check_triangle(closed_words(8, 6)) == 214294


def _check_reversal_pairs(words) -> int:
    pairs = 0
    for w in words:
        for of in all_orientations(w):
            if not of.choices[0]:
                continue
            rev = orient(w, {cid: not c for cid, c in enumerate(of.choices, start=1)})
            assert homfly_H(from_oriented_front(of)) == homfly_H(from_oriented_front(rev)), (
                w.render(), of.choices)
            assert oriented_ruling_polynomial(of) == oriented_ruling_polynomial(rev), (
                w.render(), of.choices)
            pairs += 1
    return pairs


def test_global_reversal_invariance():
    # `frontinv verify` evaluates H and the oriented sweep once per pair of
    # orientations that differ by reversing every component; both must agree
    # on the two.  Each pair is checked once, from its orientation with
    # choices[0] true.
    assert _check_reversal_pairs(closed_words(7, 6)) == 9544
    assert _check_reversal_pairs(w for _, w in corpus_words()) > 0


def test_defining_relations_on_random_diagrams():
    # switch-smooth identities at every crossing of diagrams derived from
    # random fronts with random crossing switches applied
    rng = random.Random(7)
    checked = 0
    for w in random_fronts(seed=113, count=60, max_len=12):
        if w.num_crossings == 0 or w.num_crossings > 6:
            continue
        d = from_oriented_front(orient(w))
        for c in range(d.n_crossings):
            if rng.random() < 0.4:
                d = _switch(d, c)
        for c in range(d.n_crossings):
            q = d.view(c)
            pairs_a = ((q[0], q[1]), (q[2], q[3]))
            pairs_b = ((q[0], q[3]), (q[1], q[2]))
            lhs = kauffman_D(d) - kauffman_D(_switch(d, c))
            rhs = Z * (kauffman_D(_smooth(d, c, pairs_a)) - kauffman_D(_smooth(d, c, pairs_b)))
            assert lhs == rhs
            from frontinv.diagram import crossing_sign

            eps = crossing_sign(d, c)
            oriented_pairs = pairs_a if eps == 1 else pairs_b
            lhs_h = homfly_H(d) - homfly_H(_switch(d, c))
            rhs_h = eps * Z * homfly_H(_smooth(d, c, oriented_pairs))
            assert lhs_h == rhs_h
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize(
    "text",
    ["l1 l2 l3 l4 " + "x1 x2 x3 " * 5 + "r4 r3 r2 r1", "l1 l3 " + "x2 " * 31 + "r1 r1"],
    ids=["4-braid-15", "T(2,31)"],
)
def test_triangle_past_crossing_cap(text):
    # the CLI refuses these without --force; the tree must still agree with
    # the sweep
    w = parse_front(text)
    assert w.num_crossings > CROSSING_CAP
    assert B_of(w) == ruling_polynomial(w)
    for of in all_orientations(w):
        assert Q_of(of) == oriented_ruling_polynomial(of)


@pytest.mark.parametrize("evaluate", [kauffman_D, homfly_H])
def test_recursion_limit_is_fuel_exhausted(evaluate):
    d = top("l1 l3 " + "x2 " * 100 + "r1 r1")
    with recursion_headroom(150):
        with pytest.raises(FuelExhausted) as exc:
            evaluate(d)
    assert exc.value.code == "FUEL_EXHAUSTED"


def test_D_independent_of_orientation():
    words = [w for _, w in corpus_words()]
    words += [w for w in random_fronts(seed=41, count=40, max_len=12) if w.num_crossings <= 7]
    for w in words:
        values = {kauffman_D(from_oriented_front(of)) for of in all_orientations(w)}
        assert len(values) == 1, w.render()


def _h_multiset(word):
    return sorted(
        tuple(sorted(homfly_H(from_oriented_front(of)).terms.items()))
        for of in all_orientations(word)
    )


def test_regular_isotopy_invariance_via_front_moves():
    # front Type 2 / Type 3 / commutation moves induce Reidemeister II/III
    # moves (or nothing) on Top(K); D is invariant, and H is invariant once
    # compared over all orientations (moves can renumber components, so the
    # default orientation may land on a different choice)
    checked_23 = 0
    for w in random_fronts(seed=127, count=40, max_len=12):
        if w.num_crossings > 6:
            continue
        d = from_oriented_front(orient(w))
        D0 = kauffman_D(d)
        H0 = _h_multiset(w)
        for mv in applicable_moves(w, include_insertions=False):
            if mv.rule == "type1_lo" or mv.rule == "type1_hi":
                continue
            moved = apply_move(w, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
            d2 = from_oriented_front(orient(moved))
            assert kauffman_D(d2) == D0, (w.render(), mv)
            assert _h_multiset(moved) == H0, (w.render(), mv)
            if mv.rule in ("type2_lo", "type2_hi", "type3"):
                checked_23 += 1
    assert checked_23 >= 20


def test_bound_on_a_degree():
    for name, word in corpus_words():
        c = word.num_left_cusps
        d = from_oriented_front(orient(word))
        assert deg_a(kauffman_D(d)) <= c - 1
        assert deg_a(homfly_H(d)) <= c - 1


def test_sharpness_report():
    rep = sharpness(orient(parse_front("l1 r1")))
    assert rep.kauffman_sharp and rep.homfly_sharp
    assert rep.B == LaurentPoly1.one() and rep.Q == LaurentPoly1.one()
    stab = stabilize(parse_front("l1 r1"), 1, 1, "down")
    rep = sharpness(orient(stab))
    assert not rep.kauffman_sharp and not rep.homfly_sharp
    assert rep.B.is_zero() and rep.Q.is_zero()
    assert rep.beta == -2


def test_sharpness_implication_on_corpus():
    for name, word in corpus_words():
        for of in all_orientations(word):
            rep = sharpness(of)
            if rep.homfly_sharp:
                assert rep.kauffman_sharp


def test_zero_diagram_degenerate():
    assert deg_a(LaurentPoly2.zero()) is NEG_INFINITY


def test_determinism_memo_and_heuristics():
    for name, word in corpus_words():
        d = from_oriented_front(orient(word))
        values = {
            kauffman_D(d, memo=True, heuristic="first"),
            kauffman_D(d, memo=False, heuristic="first"),
            kauffman_D(d, memo=True, heuristic="last"),
            kauffman_D(d, memo=False, heuristic="last"),
        }
        assert len(values) == 1
        values = {
            homfly_H(d, memo=True, heuristic="first"),
            homfly_H(d, memo=False, heuristic="first"),
            homfly_H(d, memo=True, heuristic="last"),
            homfly_H(d, memo=False, heuristic="last"),
        }
        assert len(values) == 1


def test_pd_round_trip():
    for name, word in corpus_words():
        d = from_oriented_front(orient(word))
        text = pd_export(d)
        d2 = pd_import(text)
        assert d2.n_crossings == d.n_crossings
        assert d2.free_loops == d.free_loops
        assert writhe(d2) == writhe(d)
        assert kauffman_D(d2) == kauffman_D(d)
        assert homfly_H(d2) == homfly_H(d)
        # import normalizes the direction of components that never pass
        # under anything (PD text cannot encode it); after one round the
        # text is a fixed point of export % import
        text2 = pd_export(d2)
        assert pd_export(pd_import(text2)) == text2


def test_pd_export_format():
    d = top("l1 x1 r1")
    text = pd_export(d)
    assert text.splitlines() == ["X[1,1,2,2]"] or "X[" in text
    d = top("l1 r1")
    assert pd_export(d) == "O1\n"


def test_pd_import_empty():
    for text in ("", "\n# only a comment\n"):
        with pytest.raises(ParseError) as exc:
            pd_import(text)
        assert exc.value.code == "NOT_CLOSED"
