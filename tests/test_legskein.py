from __future__ import annotations

import random

import pytest

from conftest import corpus_words, random_fronts, recursion_headroom

from frontinv.errors import FuelExhausted, PatternMismatch
from frontinv.front import FrontWord, L, Letter, R, X, parse_front
from frontinv.legskein import canonicalize, evaluate_B, skein_expand
from frontinv.poly import LaurentPoly1, parse_poly1
from frontinv.rulings import ruling_polynomial


# -- canonical forms


def test_canonicalize_commuting_crossings():
    a = parse_front("l1 l3 x1 x3 r1 r1")
    b = parse_front("l1 l3 x3 x1 r1 r1")
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_idempotent():
    for w in random_fronts(seed=53, count=50, max_len=12):
        c = canonicalize(w)
        assert canonicalize(c) == c


def _closed_instance(side: list[Letter], n_before: int) -> FrontWord:
    """Embed a tangle piece acting on n_before strands between nested cusps."""
    letters = [L(1)] * (n_before // 2) + list(side)
    n = n_before + sum({"l": 2, "x": 0, "r": -2}[let.kind] for let in side)
    letters += [R(1)] * (n // 2)
    return FrontWord(tuple(letters))


def _relation_instances(rng: random.Random):
    """Random in-bounds instantiations of the listed commutation families."""
    n = rng.choice([2, 4, 6])
    out = []
    for a in range(1, n):
        for b in range(1, n):
            if abs(a - b) >= 2:
                out.append((n, [X(a), X(b)], [X(b), X(a)]))
    for m1 in range(1, n + 2):
        for m2 in range(1, n + 1):
            if m1 > m2 + 1:
                out.append((n, [L(m1), X(m2)], [X(m2), L(m1)]))
            if m2 > m1 + 1 and m2 <= n + 1:
                out.append((n, [L(m1), X(m2)], [X(m2 - 2), L(m1)]))
    for m2 in range(1, n):
        for m1 in range(1, n):
            if m1 > m2 + 1:
                out.append((n, [X(m2), R(m1)], [R(m1), X(m2)]))
            if m2 > m1 + 1:
                out.append((n, [X(m2), R(m1)], [R(m1), X(m2 - 2)]))
    for m2 in range(1, n + 2):
        for m1 in range(1, n + 4):
            if m1 > m2 + 1 and m1 <= n + 3:
                out.append((n, [L(m2), L(m1)], [L(m1 - 2), L(m2)]))
    for m1 in range(1, n):
        for m2 in range(1, n - 1):
            if m1 > m2 + 1:
                out.append((n, [R(m1), R(m2)], [R(m2), R(m1 - 2)]))
    for m1 in range(1, n):
        for m2 in range(1, n):
            if m1 >= m2:
                out.append((n, [R(m1), L(m2)], [L(m2), R(m1 + 2)]))
                out.append((n, [R(m2), L(m1)], [L(m1 + 2), R(m2)]))
    return out


def test_canonicalize_identifies_listed_commutations():
    # both sides of every commutation family, random in-bounds instantiations
    rng = random.Random(59)
    checked = 0
    for _ in range(40):
        for n, lhs, rhs in _relation_instances(rng):
            w1 = _closed_instance(lhs, n)
            w2 = _closed_instance(rhs, n)
            assert canonicalize(w1) == canonicalize(w2), (w1.render(), w2.render())
            checked += 1
    assert checked > 500


def test_canonicalize_preserves_ruling_polynomial():
    for w in random_fronts(seed=67, count=40, max_len=12):
        assert ruling_polynomial(canonicalize(w)) == ruling_polynomial(w)


def test_canonicalize_cusp_diamond():
    # r_a l_a commutes two ways; all three forms share one class
    forms = [
        FrontWord((L(1), L(3), R(3), L(3), R(3), R(1))),
        FrontWord((L(1), L(3), L(3), R(5), R(3), R(1))),
        FrontWord((L(1), L(3), L(5), R(3), R(3), R(1))),
    ]
    cs = {canonicalize(f) for f in forms}
    assert len(cs) == 1


# -- skein_expand


def test_skein_expand_shapes():
    w = parse_front("l1 l2 x1 r1 r1")
    expr = skein_expand(w, 1)  # pair l2 x1
    assert len(expr.terms) == 3
    crossing_counts = sorted(t.num_crossings for t in expr.terms)
    assert crossing_counts == [0, 0, 1]


def test_skein_expand_round_trip():
    w = parse_front("l1 l2 x1 r1 r1")
    expr = skein_expand(w, 1)
    main = next(t for t in expr.terms if t.num_crossings == 1)
    back = skein_expand(main, 1)
    total = expr.substitute(main, back)
    assert total.terms == {w: LaurentPoly1.one()}


def test_skein_expand_rejects_bad_sites():
    w = parse_front("l1 l2 x1 r1 r1")
    with pytest.raises(PatternMismatch):
        skein_expand(w, 0)  # l1 l2 is not a cusp-crossing pair
    with pytest.raises(PatternMismatch):
        skein_expand(w, 2)  # x1 r1
    with pytest.raises(PatternMismatch):
        skein_expand(parse_front("l1 l3 x1 r1 r1"), 1)  # l3 x1 has the wrong offset


def test_skein_expand_preserves_value():
    rng = random.Random(71)
    checked = 0
    for w in random_fronts(seed=73, count=300, max_len=12):
        for site in range(len(w.letters) - 1):
            p, q = w.letters[site], w.letters[site + 1]
            if p.kind == "l" and q.kind == "x" and abs(p.index - q.index) == 1:
                expr = skein_expand(w, site)
                total = LaurentPoly1.zero()
                for term, coeff in expr.terms.items():
                    total = total + coeff * ruling_polynomial(term)
                assert total == ruling_polynomial(w)
                checked += 1
    assert checked >= 50


# -- evaluate_B


def test_terminal_values():
    assert evaluate_B(parse_front("l1 r1")) == LaurentPoly1.one()
    assert evaluate_B(parse_front("l1 x1 r1")).is_zero()
    assert evaluate_B(parse_front("l1 l1 r2 r1")).is_zero()  # zig-zag
    assert evaluate_B(parse_front("l1 r1 l1 r1")) == parse_poly1("z^-1")


def test_trefoil_value():
    assert evaluate_B(parse_front("l1 l3 x2 x2 x2 r1 r1")) == parse_poly1("z^2 + 2")


@pytest.mark.parametrize("name,word", corpus_words())
def test_matches_ruling_polynomial_on_corpus(name, word):
    assert evaluate_B(word) == ruling_polynomial(word)


def test_matches_ruling_polynomial_on_random_fronts():
    for w in random_fronts(seed=79, count=80, max_len=12):
        assert evaluate_B(w) == ruling_polynomial(w), w.render()


def test_memoization_soundness():
    for w in random_fronts(seed=83, count=30, max_len=12):
        assert evaluate_B(w, memo=True) == evaluate_B(w, memo=False)


def test_trace_measure_monotone():
    # within each machine run, (L, M) never increases across a rewriting
    # step, and steps holding it fixed grow N1 + N2; terminal entries read a
    # value off without rewriting and are exempt
    for name, word in corpus_words():
        trace: list = []
        evaluate_B(word, trace=trace)
        by_run: dict[int, list[dict]] = {}
        for entry in trace:
            by_run.setdefault(entry["run"], []).append(entry)
        for entries in by_run.values():
            for prev, cur in zip(entries, entries[1:]):
                if cur["terminal"]:
                    continue
                assert (cur["L"], cur["M"]) <= (prev["L"], prev["M"])
                if (cur["L"], cur["M"]) == (prev["L"], prev["M"]):
                    assert cur["N1"] + cur["N2"] > prev["N1"] + prev["N2"]
        for e in trace:
            assert e["N1"] + e["N2"] <= e["N"] - 2


def test_fuel_budget_is_generous():
    # the documented default must be far above anything desk scale needs
    for name, word in corpus_words():
        evaluate_B(word, fuel=10 ** 6)


def test_fuel_exhaustion_raises():
    with pytest.raises(FuelExhausted):
        evaluate_B(parse_front("l1 l3 x2 x2 x2 r1 r1"), fuel=1)


@pytest.mark.parametrize("memo", [True, False])
def test_recursion_limit_is_fuel_exhausted(memo):
    word = parse_front("l1 l3 " + "x2 " * 100 + "r1 r1")
    with recursion_headroom(150):
        with pytest.raises(FuelExhausted) as exc:
            evaluate_B(word, memo=memo)
    assert exc.value.code == "FUEL_EXHAUSTED"


def test_mirrored_type2_word_identity():
    # x_i x_{i-1} r_i rewrites to r_{i-1}; both sides have equal invariants
    w1 = parse_front("l1 l3 x2 x1 r2 r1")
    w2 = parse_front("l1 l3 r1 r1")
    assert ruling_polynomial(w1) == ruling_polynomial(w2)
    assert evaluate_B(w1) == evaluate_B(w2)
    # and the upper form x_i x_{i+1} r_i -> r_{i+1}
    w3 = parse_front("l1 l3 x2 x3 r2 r1")
    w4 = parse_front("l1 l3 r3 r1")
    assert ruling_polynomial(w3) == ruling_polynomial(w4)
    assert evaluate_B(w3) == evaluate_B(w4)


def test_empty_word_convention():
    # value(empty) = z keeps the split rule and the unknot value consistent
    assert evaluate_B(FrontWord(())) == LaurentPoly1.z(1)


def test_fuel_env_variable(monkeypatch):
    from frontinv.legskein import default_fuel

    assert default_fuel() == 10 ** 6
    monkeypatch.setenv("FRONTINV_LEGSKEIN_FUEL", "123")
    assert default_fuel() == 123
