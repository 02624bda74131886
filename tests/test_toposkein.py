from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from conftest import (
    LARGE_FRONTS,
    checked_front,
    closed_words,
    corpus_words,
    random_fronts,
    recursion_headroom,
)

from frontinv.diagram import (
    PlanarDiagram,
    _find_reduction,
    _smooth,
    _strip_bigon,
    _strip_kink,
    _switch,
    from_oriented_front,
    traverse,
    writhe,
)
from frontinv.errors import FuelExhausted, InternalInconsistency
from frontinv.front import (
    all_orientations,
    applicable_moves,
    apply_move,
    crossing_signs,
    orient,
    parse_front,
    stabilize,
)
from frontinv.poly import (
    NEG_INFINITY,
    LaurentPoly,
    _decode,
    coeff_a,
    deg_a,
    parse_poly,
    parse_poly1,
)
from frontinv.rulings import oriented_ruling_polynomial
from frontinv import toposkein
from frontinv.toposkein import (
    B_of,
    Q_of,
    homfly_H,
    homfly_P,
    kauffman_D,
    kauffman_F,
    sharpness,
)

A = LaurentPoly.monomial(0, 1)
Z = LaurentPoly.monomial(1, 0)
DELTA_D = parse_poly("z^-1*a + 1 - z^-1*a^-1")
DELTA_H = parse_poly("z^-1*a - z^-1*a^-1")


def top(text: str, choices=None):
    word = parse_front(text)
    return from_oriented_front(orient(word, choices))


def test_unknot_normalizations():
    d = top("l1 r1")
    assert d.n_crossings == 0 and d.free_loops == 1
    assert kauffman_D(d) == LaurentPoly.one()
    assert homfly_H(d) == LaurentPoly.one()
    assert deg_a(kauffman_D(d)) == 0  # forced by the degree bound with c = 1


def test_kink_values():
    # "l1 x1 r1" smooths to a one-crossing unknot diagram with writhe -1
    d = top("l1 x1 r1")
    assert d.n_crossings == 1 and writhe(d) == -1
    assert kauffman_D(d) == parse_poly("a^-1")
    assert homfly_H(d) == parse_poly("a^-1")
    # a positive kink arises from the Type 1 tangle l2 x1 r2
    d = top("l1 l2 x1 r2 r1")
    assert writhe(d) == 1
    assert kauffman_D(d) == parse_poly("a")
    assert homfly_H(d) == parse_poly("a")


def test_bigon_after_switch():
    # switching one crossing of the Hopf clasp leaves a Reidemeister II pair
    # that pulls apart into two free loops
    d = _switch(top("l1 l3 x2 x2 r1 r1"), 0)
    p, da = _find_reduction(d)
    assert da == 0 and (p >> 2, d.nbr[p] >> 2) == (0, 1)
    stripped = _strip_bigon(d, p)
    assert stripped.n_crossings == 0 and stripped.free_loops == 2
    # in T(2,3), switching the middle crossing pairs it with either neighbour;
    # removing the first pair leaves a one-crossing kink
    d = _switch(top("l1 l3 x2 x2 x2 r1 r1"), 1)
    p, da = _find_reduction(d)
    assert da == 0 and (p >> 2, d.nbr[p] >> 2) == (0, 1)
    stripped = _strip_bigon(d, p)
    assert stripped.n_crossings == 1 and _find_reduction(stripped)[1] != 0
    assert kauffman_D(d) == kauffman_D(stripped)
    assert homfly_H(d) == homfly_H(stripped)


def test_no_bigon_in_alternating_clasps():
    # in the unswitched clasps the over-strand alternates around every bigon
    for text in ("l1 l3 x2 x2 r1 r1", "l1 l3 x2 x2 x2 r1 r1"):
        assert _find_reduction(top(text)) is None


def test_no_bigon_in_kinks():
    # one kink, two split kinks, and two kinks of either sign on one circle:
    # every reduction on the way down to no crossings is a kink
    for text in ("l1 x1 r1", "l1 x1 r1 l1 x1 r1", "l1 l2 x1 r2 l2 x1 r2 r1", "l1 l2 x1 r2 x1 r1"):
        d = top(text)
        while d.n_crossings:
            p, da = _find_reduction(d)
            assert da != 0, text
            d = _strip_kink(d, p)


def _is_under(d, p) -> bool:
    """Is port ``p`` on the under-strand of its crossing (places view[0], view[2])?"""
    c, i = divmod(p, 4)
    return i in d.view(c)[0::2]


def _is_kink(d, p) -> bool:
    """Does the arc at ``p`` run to the next place of its crossing, counterclockwise?"""
    c, i = divmod(p, 4)
    return d.nbr[p] == 4 * c + (i + 1) % 4


def _is_bigon(d, p) -> bool:
    """Do the arcs at places i, i+1 of p's crossing run to places k+1, k of a
    later crossing, with p's strand under at both or over at both?"""
    c, i = divmod(p, 4)
    c2, k1 = divmod(d.nbr[p], 4)
    return (
        c2 > c
        and d.nbr[4 * c + (i + 1) % 4] == 4 * c2 + (k1 - 1) % 4
        and _is_under(d, p) == _is_under(d, d.nbr[p])
    )


def test_find_reduction_census(monkeypatch):
    # every diagram the D and H trees visit: the first kink in port order,
    # with a = +1 when it leaves an under port, or else the first bigon; and
    # stripping that bigon in one rewiring equals smoothing both crossings
    # straight through, the later one first
    visited = []
    real = toposkein._find_reduction

    def recording(d):
        visited.append(d)
        return real(d)

    monkeypatch.setattr(toposkein, "_find_reduction", recording)
    for word in closed_words(6, 4) + [word for _, word in corpus_words()]:
        for of in all_orientations(word):
            d = from_oriented_front(of)
            kauffman_D(d)
            homfly_H(d)
    through = ((0, 2), (1, 3))
    kinds = Counter()
    for d in visited:
        ports = range(4 * d.n_crossings)
        kink = next((p for p in ports if _is_kink(d, p)), None)
        bigon = next((p for p in ports if _is_bigon(d, p)), None)
        if kink is not None:
            expected = (kink, 1 if _is_under(d, kink) else -1)
        elif bigon is not None:
            expected = (bigon, 0)
            c, c2 = bigon >> 2, d.nbr[bigon] >> 2
            assert _strip_bigon(d, bigon) == _smooth(_smooth(d, c2, through), c, through)
        else:
            expected = None
        assert real(d) == expected, d
        kinds[expected if expected is None else expected[1]] += 1
    assert kinds == {-1: 1906, 1: 251, 0: 250, None: 166}


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
    assert homfly_P(orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))) == parse_poly(
        "z^2*a^-2 + 2*a^-2 - a^-4"
    )
    assert homfly_P(orient(parse_front("l1 l1 l1 x2 x2 x1 x1 x1 x4 r2 r1 r1"))) == parse_poly(
        "a^2 - 1 + a^-2 - z^2"
    )
    assert homfly_P(orient(parse_front("l1 r1"))) == LaurentPoly.one()


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
    assert kauffman_F(of) == LaurentPoly.one()  # unknot
    assert homfly_P(of) == LaurentPoly.one()


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
    assert B_of(orient(parse_front("l1 r1"))) == LaurentPoly.one()
    assert Q_of(orient(parse_front("l1 r1"))) == LaurentPoly.one()
    assert B_of(orient(parse_front("l1 r1 l1 r1"))) == parse_poly1("z^-1")
    assert B_of(orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))) == parse_poly1("z^2 + 2")
    assert Q_of(orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))) == parse_poly1("z^2 + 2")


@pytest.mark.parametrize("name,word", corpus_words())
def test_triangle_on_corpus(name, word):
    checked_front(word)


def test_triangle_on_random_fronts():
    for w in random_fronts(seed=555, count=60, max_len=13, max_strands=8):
        if w.num_crossings <= 7:
            checked_front(w)


def _check_triangle(words) -> int:
    """All three routes on every word; the number of orientations checked."""
    return sum(len(checked_front(w)["oriented"]) for w in words)


def test_triangle_on_every_small_front():
    # every closed word of <= 7 letters on <= 6 strands, split unions
    # included: 4844 words and 19088 orientations.  check_front evaluates
    # one orientation per class of equal crossing signs;
    # test_global_reversal_invariance checks the others on the same words.
    assert _check_triangle(closed_words(7, 6)) == 19088


@pytest.mark.slow
def test_triangle_on_every_8_letter_front():
    # the same census one letter longer (run with `pytest -m slow`), sign
    # classes included
    words = closed_words(8, 6)
    assert _check_triangle(words) == 214294
    assert _check_sign_classes(words) == 164734


def _check_sign_classes(words) -> int:
    """H and the oriented sweep on every orientation equal their values on
    its class's evaluated orientation, the first with choices[0] true and the
    same crossing signs; the number of orientations that reuse another's."""
    reused = 0
    for w in words:
        orientations = all_orientations(w)
        evaluated = {}
        for of in orientations:
            signs = crossing_signs(of)
            if of.choices[0] and signs not in evaluated:
                evaluated[signs] = (
                    of, homfly_H(from_oriented_front(of)), oriented_ruling_polynomial(of))
        for of in orientations:
            rep, H, OR = evaluated[crossing_signs(of)]
            if of is rep:
                continue
            assert homfly_H(from_oriented_front(of)) == H, (w.render(), of.choices)
            assert oriented_ruling_polynomial(of) == OR, (w.render(), of.choices)
            reused += 1
    return reused


def test_global_reversal_invariance():
    # `frontinv verify` evaluates H and the oriented sweep once per class of
    # orientations with equal crossing signs, which holds each global
    # reversal pair and, on a split front, each reversal of whole split
    # parts; every orientation must agree with its class's evaluated one.
    assert _check_sign_classes(closed_words(7, 6)) == 14148
    assert _check_sign_classes(w for _, w in corpus_words()) == 29


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
def test_triangle_on_large_fronts(text):
    # more than twice the corpus's largest crossing count (6): the routes
    # must still agree
    checked_front(parse_front(text))


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
    return Counter(homfly_H(from_oriented_front(of)) for of in all_orientations(word))


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
        for mv in applicable_moves(w):
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
    assert rep.B == LaurentPoly.one() and rep.Q == LaurentPoly.one()
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


def test_sharpness_computes_each_flag_two_ways(monkeypatch):
    # an a^c term on the trefoil's D moves its a-degree past c - 1 but keeps
    # the a^(c-1) coefficient; the two Kauffman tests then disagree
    trefoil = orient(parse_front("l1 l3 x2 x2 x2 r1 r1"))
    c = trefoil.word.num_left_cusps
    D = toposkein.kauffman_D
    monkeypatch.setattr(toposkein, "kauffman_D", lambda d: D(d) + LaurentPoly.monomial(0, c))
    with pytest.raises(InternalInconsistency, match="Kauffman sharpness"):
        sharpness(trefoil)


def test_zero_diagram_degenerate():
    assert deg_a(LaurentPoly.zero()) is NEG_INFINITY


def test_traverse_stops_at_first_crossing_reached_under():
    # Top(K) of the trefoil: the upper strand of a crossing (ports 1, 3) is
    # over.  Without flow the walk starts at port 0 of crossing 0, which is
    # under.  With the default orientation both strands run left through
    # every crossing, so the walk starts at port 1 (over at crossing 0),
    # leaves by port 3 round the left cusp along the top strand, and enters
    # crossing 2 at its upper-right port 10, on the under-strand.
    d = top("l1 l3 x2 x2 x2 r1 r1")
    assert traverse(d, False) == (0, 0, 0)
    assert traverse(d, True) == (2, 0, 0)


@pytest.mark.parametrize(
    "text,under02,expected",
    [
        # Hopf clasp with crossing 0 switched: each component passes over
        # before under, and both crossings join different components.
        ("l1 l3 x2 x2 r1 r1", (False, True), (None, 0, 2)),
        # One kink each: switching turns the negative crossing of
        # l1 x1 r1 (strands running opposite ways) positive, and the
        # positive one of l1 l2 x1 r2 r1 (both running right) negative.
        ("l1 x1 r1", (False,), (None, 1, 1)),
        ("l1 l2 x1 r2 r1", (False,), (None, -1, 1)),
    ],
)
def test_traverse_values_descending_diagrams(text, under02, expected):
    d = top(text)._replace(under02=sum(bit << c for c, bit in enumerate(under02)))
    assert traverse(d, False) == expected
    assert traverse(d, True) == expected


# Two positive braid closures whose node count depends on which bad crossing
# is resolved; on the corpus alone other orders give the same total.
TREE_SHAPE_FRONTS = {
    "b3-1112211": "l1 l2 l3 x1 x1 x1 x2 x2 x1 x1 r3 r2 r1",
    "b3-2112222": "l1 l2 l3 x2 x1 x1 x2 x2 x2 x2 r3 r2 r1",
}


def test_skein_tree_shape_is_pinned(monkeypatch):
    """One traversal per resolved node: the counts pin the resolution order."""
    real = toposkein.traverse
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(toposkein, "traverse", counted)
    words = [("corpus", word) for _, word in corpus_words()]
    words += [(name, parse_front(text)) for name, text in TREE_SHAPE_FRONTS.items()]
    counts = Counter()
    for name, word in words:
        for of in all_orientations(word):
            d = from_oriented_front(of)
            before = len(calls)
            kauffman_D(d)
            homfly_H(d)
            counts[name] += len(calls) - before
    assert counts == {"corpus": 102, "b3-1112211": 51, "b3-2112222": 76}


def relabel(d, rng):
    """``d`` with its crossings permuted and each crossing's places rotated."""
    n = d.n_crossings
    perm = rng.sample(range(n), n)
    rot = [rng.randrange(4) for _ in range(n)]

    def port(p):
        c, i = divmod(p, 4)
        return 4 * perm[c] + (i + rot[c]) % 4

    nbr = [0] * (4 * n)
    under02 = flow_in = 0
    for p, q in enumerate(d.nbr):
        nbr[port(p)] = port(q)
        flow_in |= (d.flow_in >> p & 1) << port(p)
    for c in range(n):
        under02 |= ((d.under02 >> c & 1) ^ rot[c] % 2) << perm[c]
    return PlanarDiagram(tuple(nbr), under02, flow_in, d.free_loops)


def test_values_do_not_depend_on_port_numbering():
    # Top(K) numbers crossings left to right with the under-strand at places
    # 0 and 2; the skein tree must give the same D and H on any numbering,
    # though its walks and memo keys change with it.
    rng = random.Random(11)
    words = [word for _, word in corpus_words()] + closed_words(6, 4)
    relabelled = 0
    for word in words:
        for of in all_orientations(word):
            d = from_oriented_front(of)
            w, D, H = writhe(d), kauffman_D(d), homfly_H(d)
            for _ in range(3):
                d2 = relabel(d, rng)
                relabelled += d2 != d
                assert (writhe(d2), kauffman_D(d2), homfly_H(d2)) == (w, D, H), word.render()
    assert relabelled > 1000


def test_top_k_diagrams_are_pinned():
    # Top(K) port for port on every orientation: a change to how the
    # diagram is built must leave every skein tree, memo key and value as is
    words = closed_words(7, 4) + [word for _, word in corpus_words()]
    words += [parse_front(text) for text in (*TREE_SHAPE_FRONTS.values(), *LARGE_FRONTS.values())]
    digest = hashlib.sha256()
    n = 0
    for word in words:
        for of in all_orientations(word):
            d = from_oriented_front(of)
            # the digest was taken with under02 a tuple of bools and flow_in
            # a set of ports
            under02 = tuple(bool(d.under02 >> c & 1) for c in range(d.n_crossings))
            flow_in = tuple(p for p in range(4 * d.n_crossings) if d.flow_in >> p & 1)
            digest.update(repr((d.nbr, under02, flow_in, d.free_loops)).encode())
            n += 1
    assert (n, digest.hexdigest()) == (
        39276, "d1506a4048a8258eb85666e1394cb425a9f0de06dd44da48a16ef6fda0972dce")


# The Kauffman bracket, as a Laurent polynomial in A stored in the z slot.


def _A_pow(k: int, sign: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(k, 0, sign)


_BRACKET_DELTA = _A_pow(2, -1) + _A_pow(-2, -1)


def _power(p: LaurentPoly, n: int) -> LaurentPoly:
    out = LaurentPoly.one()
    for _ in range(n):
        out = out * p
    return out


def bracket(d: PlanarDiagram) -> LaurentPoly:
    """<d> by the 2^n state sum, with a crossingless circle 1.

    The A-smoothing of crossing c joins places (q0, q1) and (q2, q3) of
    ``d.view(c)`` and the B-smoothing (q0, q3) and (q1, q2); a state's loops
    are the classes of a union-find over the arcs and the joins, plus the
    free loops.
    """
    n = d.n_crossings
    parent: list[int] = []

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def join(p: int, q: int) -> None:
        parent[find(p)] = find(q)

    weights: Counter = Counter()
    for state in range(2 ** n):
        parent[:] = range(4 * n)
        for p, q in enumerate(d.nbr):
            join(p, q)
        n_a = 0
        for c in range(n):
            q0, q1, q2, q3 = (4 * c + i for i in d.view(c))
            if state >> c & 1:
                join(q0, q3)
                join(q1, q2)
            else:
                n_a += 1
                join(q0, q1)
                join(q2, q3)
        loops = sum(find(p) == p for p in range(4 * n)) + d.free_loops
        weights[2 * n_a - n, loops] += 1
    out = LaurentPoly.zero()
    for (e, loops), count in weights.items():
        out = out + _A_pow(e) * _power(_BRACKET_DELTA, loops - 1) * count
    return out


def _specialize(p: LaurentPoly, z: LaurentPoly, a_pow, k: int) -> LaurentPoly:
    """z**k * p with z and each power a**j replaced by polynomials in A;
    ``k`` must make every power of z in the product non-negative."""
    out = LaurentPoly.zero()
    for key, c in p._terms.items():
        i, j = _decode(key)
        out = out + _power(z, i + k) * a_pow(j) * c
    return out


def _mirror(p: LaurentPoly) -> LaurentPoly:
    """p(A**-1)."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def test_D_and_H_specialize_to_the_bracket():
    # D(z = A - A^-1, a = -A^3) = <K>(A) and
    # H(z = A^2 - A^-2, a = A^-4) = (-1)^w A^-w <K>(A^-1), w the writhe of
    # Top(K): exact Laurent polynomials, both sides times the image of z**k
    z_d = _A_pow(1) - _A_pow(-1)
    z_h = _A_pow(2) - _A_pow(-2)
    words = closed_words(6, 4) + [word for _, word in corpus_words()]
    checked = 0
    for word in words:
        for of in all_orientations(word):
            d = from_oriented_front(of)
            br = bracket(d)
            D, H = kauffman_D(d), homfly_H(d)
            k = max([0] + [-_decode(key)[0] for key in (*D._terms, *H._terms)])
            lhs = _specialize(D, z_d, lambda j: _A_pow(3 * j, 1 - 2 * (j % 2)), k)
            assert lhs == br * _power(z_d, k), (word.render(), of.choices)
            w = writhe(d)
            lhs = _specialize(H, z_h, lambda j: _A_pow(-4 * j), k)
            assert lhs == _A_pow(-w, 1 - 2 * (w % 2)) * _mirror(br) * _power(z_h, k), (
                word.render(), of.choices)
            checked += 1
    assert checked == 1206
