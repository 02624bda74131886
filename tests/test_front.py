from __future__ import annotations

import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import closed_words, random_fronts

from frontinv.diagram import from_oriented_front, writhe
from frontinv.errors import BadArgument, MoveNotApplicable, ParseError
from frontinv.front import (
    LEFT,
    RIGHT,
    FrontWord,
    L,
    R,
    X,
    all_orientations,
    applicable_moves,
    apply_move,
    components,
    invariants,
    occupancy,
    orient,
    parse_front,
    parse_front_file,
    random_move_sequence,
    stabilize,
    swap_adjacent,
    swap_adjacent_all,
)
from frontinv.rulings import ruling_polynomial
from frontinv.poly import LaurentPoly


def test_parse_unknot():
    w = parse_front("l1 r1")
    assert len(w.letters) == 2
    assert w.strand_counts == (0, 2, 0)


def test_parse_stabilized_unknot():
    w = parse_front("l1 x1 r1")
    assert len(w.letters) == 3


def test_parse_crossing_on_empty():
    with pytest.raises(ParseError) as exc:
        parse_front("x1")
    assert exc.value.code == "INDEX_OUT_OF_RANGE"


def test_parse_unknown_token():
    with pytest.raises(ParseError) as exc:
        parse_front("l1 q3 r1")
    assert exc.value.code == "UNKNOWN_TOKEN"
    assert exc.value.line == 1


def test_parse_not_closed():
    with pytest.raises(ParseError) as exc:
        parse_front("l1 l1 r2")
    assert exc.value.code == "NOT_CLOSED"


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_front("   \n# nothing\n")


def test_parse_index_bounds():
    with pytest.raises(ParseError):
        parse_front("l4 r1")  # left cusp index > N+1
    with pytest.raises(ParseError):
        parse_front("l1 r2")  # right cusp needs m <= N-1
    parse_front("l1 l3 r1 r1")  # l3 on two strands is legal (m = N+1)


def test_parse_front_file_header_and_comments():
    word, flags = parse_front_file("# a Hopf link\norient: 1=+,2=-\nl1 l3 x2 x2 r1 r1\n")
    assert word.render() == "l1 l3 x2 x2 r1 r1"
    assert flags == {1: True, 2: False}


def test_parse_front_file_orient_unknown_component():
    with pytest.raises(ParseError) as exc:
        parse_front_file("orient: 7=-\nl1 r1\n")
    assert exc.value.code == "INDEX_OUT_OF_RANGE"


def test_parse_reports_repeated_token_at_its_own_column():
    # the third token repeats the second, but is out of range on 0 strands
    with pytest.raises(ParseError) as exc:
        parse_front("l1 r1 r1")
    assert exc.value.code == "INDEX_OUT_OF_RANGE"
    assert (exc.value.line, exc.value.col) == (1, 7)


def test_front_word_constructor_validates():
    with pytest.raises(ParseError) as exc:
        FrontWord((L(1), R(2)))
    assert exc.value.code == "INDEX_OUT_OF_RANGE"
    with pytest.raises(ParseError) as exc:
        FrontWord((L(1), X(2), R(1)))
    assert exc.value.code == "INDEX_OUT_OF_RANGE"
    with pytest.raises(ParseError) as exc:
        FrontWord((L(1), L(1), R(1)))
    assert exc.value.code == "NOT_CLOSED"


def test_front_word_is_an_immutable_value():
    letters = (L(1), X(1), R(1))
    w = FrontWord(letters)
    with pytest.raises(AttributeError):
        w.letters = (L(1), R(1))
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.letters
    assert w.letters == letters
    same = parse_front("l1 x1 r1")
    assert w == same and hash(w) == hash(same) and len({w, same}) == 1
    assert w != FrontWord((L(1), R(1)))
    assert w != letters and letters != w
    assert copy.deepcopy(w) == w
    assert repr(w) == f"FrontWord(letters={letters!r})"


def test_import_loads_no_dataclasses():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, frontinv.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_render_round_trip():
    for w in random_fronts(seed=5, count=40):
        assert parse_front(w.render()) == w


def test_components():
    assert components(parse_front("l1 r1")).n_components == 1
    assert components(parse_front("l1 r1 l1 r1")).n_components == 2
    assert components(parse_front("l1 l3 x2 x2 x2 r1 r1")).n_components == 1
    assert components(parse_front("l1 l3 x2 x2 r1 r1")).n_components == 2


def test_all_orientations_computes_components_once():
    # 5 components, 32 orientations, one partition of the strands.
    w = parse_front("l1 l3 x2 x2 r1 r1 l1 l3 x2 x2 r1 r1 l1 r1")
    components.cache_clear()
    orientations = all_orientations(w)
    assert len(orientations) == 32
    assert components.cache_info().misses == 1


def test_orientations_follow_the_definition_on_the_census():
    # Every orientation of every closed word of <= 7 letters on <= 6 strands,
    # checked against the strands and cusps of occupancy() alone.
    n_orientations = 0
    for w in closed_words(7, 6):
        occ = occupancy(w)
        comp_of = components(w).comp_of
        cusps = [pair for _, pair in occ.left_cusps + occ.right_cusps]
        # each component id names one connected cycle of cusps
        for cid in set(comp_of):
            members = {s for s, c in enumerate(comp_of) if c == cid}
            reached = {min(members)}
            while True:
                grown = reached | {v for pair in cusps if reached & set(pair) for v in pair}
                if grown == reached:
                    break
                reached = grown
            assert reached == members
        # ids are numbered by the position of each component's first left cusp
        firsts = {}
        for _, (upper, _) in occ.left_cusps:
            firsts.setdefault(comp_of[upper], upper)
        assert list(firsts) == list(range(1, len(firsts) + 1))
        default, *others = all_orientations(w)
        assert all(default.dirs[upper] == RIGHT for upper in firsts.values())
        for of in (default, *others):
            assert all(of.dirs[u] == -of.dirs[v] for u, v in cusps)
            assert set(of.dirs) <= {RIGHT, LEFT}
            flips = [1 if of.choices[c - 1] else -1 for c in comp_of]
            assert of.dirs == tuple(d * f for d, f in zip(default.dirs, flips))
            n_orientations += 1
    assert n_orientations == 19_088


def test_default_orientation_unknot():
    of = orient(parse_front("l1 r1"))
    occ = occupancy(of.word)
    (t, (upper, lower)), = occ.left_cusps
    assert of.dirs[upper] == RIGHT
    assert of.dirs[lower] == LEFT


def test_invariants_unknot():
    inv = invariants(orient(parse_front("l1 r1")))
    assert (inv.c, inv.cr, inv.w, inv.beta, inv.r) == (1, 0, 0, -1, 0)


def test_invariants_stabilized():
    inv = invariants(orient(parse_front("l1 x1 r1")))
    assert (inv.c, inv.cr, inv.w, inv.beta) == (1, 1, -1, -2)


def test_invariants_trefoil():
    w = parse_front("l1 l3 x2 x2 x2 r1 r1")
    inv = invariants(orient(w))
    assert (inv.c, inv.cr, inv.w, inv.beta) == (2, 3, 3, 1)
    # writhe of the exported diagram must agree with the front count
    assert writhe(from_oriented_front(orient(w))) == 3


def test_beta_orientation_independent_for_knots():
    for w in [parse_front("l1 l3 x2 x2 x2 r1 r1"), parse_front("l1 x1 r1")]:
        betas = {invariants(of).beta for of in all_orientations(w)}
        assert len(betas) == 1


def test_reversed_knot_negates_rotation():
    w = parse_front("l1 x1 r1")
    plus, minus = all_orientations(w)
    assert invariants(plus).r == -invariants(minus).r != 0


def test_unlink_reversal_keeps_writhe():
    w = parse_front("l1 r1 l1 r1")
    for of in all_orientations(w):
        assert invariants(of).w == 0


def test_diagram_writhe_matches_front_writhe():
    from conftest import corpus_words

    for w in random_fronts(seed=17, count=60) + [w for _, w in corpus_words()]:
        for of in all_orientations(w):
            assert writhe(from_oriented_front(of)) == invariants(of).w


# -- moves


def test_type2_canonical_example():
    # l_{m-1} x_m x_{m-1} = l_m with m = 2
    w = parse_front("l1 l1 x2 x1 r1 r1")
    moved = apply_move(w, "type2_lo", 1)
    assert moved.render() == "l1 l2 r1 r1"
    back = apply_move(moved, "type2_lo", 1, inverse=True)
    assert back == w


def test_type1_example():
    w = parse_front("l1 l2 x1 r2 r1")
    moved = apply_move(w, "type1_lo", 1)
    assert moved.render() == "l1 r1"
    again = apply_move(moved, "type1_lo", 1, inverse=True, m=2)
    assert again == w


def test_commutation_example():
    w = parse_front("l1 l3 l5 x1 x3 r1 r1 r1")
    moved = apply_move(w, "comm", 3)
    assert moved.letters[3].index == 3 and moved.letters[4].index == 1


def test_type3_example():
    w = parse_front("l1 l3 x2 x1 x2 r1 r1")
    moved = apply_move(w, "type3", 2)
    assert [str(l) for l in moved.letters[2:5]] == ["x1", "x2", "x1"]
    assert apply_move(moved, "type3", 2) == w


def test_move_not_applicable():
    w = parse_front("l1 r1")
    with pytest.raises(MoveNotApplicable):
        apply_move(w, "type3", 0)
    with pytest.raises(MoveNotApplicable):
        apply_move(w, "comm", 0)


def test_swap_adjacent_round_trip_stays_in_class():
    # Swapping twice returns the original pair except across the cusp
    # diamond (r_a l_a), where it may land on the third member of the
    # two-letter class.
    def closure(pair):
        seen = {pair}
        frontier = [pair]
        while frontier:
            form = frontier.pop()
            for nxt in swap_adjacent_all(*form):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    for w in random_fronts(seed=23, count=60):
        for i in range(len(w.letters) - 1):
            pair = (w.letters[i], w.letters[i + 1])
            swapped = swap_adjacent(*pair)
            if swapped is not None:
                back = swap_adjacent(*swapped)
                assert back in closure(pair)


def test_moves_preserve_strand_closure_and_beta():
    rng = random.Random(11)
    for w in random_fronts(seed=29, count=25):
        beta = invariants(orient(w)).beta
        current = w
        for _ in range(8):
            moves = applicable_moves(current)
            if not moves:
                break
            mv = rng.choice(moves)
            current = apply_move(current, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
        assert current.strand_counts[0] == current.strand_counts[-1] == 0
        assert invariants(orient(current)).beta == beta


def test_random_move_sequence_deterministic():
    w = parse_front("l1 l3 x2 x2 x2 r1 r1")
    w1, s1 = random_move_sequence(w, 12, seed=99)
    w2, s2 = random_move_sequence(w, 12, seed=99)
    assert w1 == w2 and [m.as_str() for m in s1] == [m.as_str() for m in s2]


# -- stabilization


def test_stabilize_unknot():
    w = stabilize(parse_front("l1 r1"), gap=1, pos=1, flavor="down")
    assert len(w.letters) == 4
    assert invariants(orient(w)).beta == -2
    assert ruling_polynomial(w) == LaurentPoly.zero()


def test_stabilize_up_flavor():
    w = stabilize(parse_front("l1 r1"), gap=1, pos=2, flavor="up")
    assert invariants(orient(w)).beta == -2
    assert ruling_polynomial(w) == LaurentPoly.zero()


def test_stabilize_refuses_unknown_flavor():
    # the CLI limits --flavor to its choices; a library caller gets the code
    with pytest.raises(BadArgument):
        stabilize(parse_front("l1 r1"), gap=1, pos=1, flavor="sideways")


def test_stabilize_twice():
    w = parse_front("l1 l3 x2 x2 x2 r1 r1")
    beta = invariants(orient(w)).beta
    once = stabilize(w, gap=1, pos=1, flavor="down")
    twice = stabilize(once, gap=1, pos=1, flavor="down")
    assert invariants(orient(once)).beta == beta - 1
    assert invariants(orient(twice)).beta == beta - 2
    assert ruling_polynomial(once).is_zero() and ruling_polynomial(twice).is_zero()


def test_stabilized_fronts_have_zero_polynomial_everywhere():
    rng = random.Random(31)
    for w in random_fronts(seed=37, count=20):
        counts = w.strand_counts
        gaps = [g for g in range(len(w.letters) + 1) if counts[g] >= 1]
        gap = rng.choice(gaps)
        pos = rng.randrange(1, counts[gap] + 1)
        flavor = rng.choice(["up", "down"])
        assert ruling_polynomial(stabilize(w, gap, pos, flavor)).is_zero()
