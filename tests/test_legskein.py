from __future__ import annotations

import hashlib
import itertools
import json
import random
from functools import lru_cache

import pytest

from conftest import closed_words, corpus_words, random_fronts, recursion_headroom

from frontinv import errors, legskein
from frontinv.diagram import from_oriented_front
from frontinv.errors import Budget, FuelExhausted
from frontinv.front import FrontWord, L, Letter, R, X, orient, parse_front, swap_adjacent_all
from frontinv.legskein import _Evaluator, _Machine, _scan_eye, _scan_zero, canonicalize, evaluate_B
from frontinv.poly import LaurentPoly, parse_poly1
from frontinv.rulings import enumerate_rulings, oriented_ruling_polynomial, ruling_polynomial
from frontinv.toposkein import homfly_H, kauffman_D


# -- memo keys


def _key(word: FrontWord) -> FrontWord:
    return FrontWord(canonicalize(word.letters, Budget()))


def test_canonicalize_commuting_crossings():
    a = parse_front("l1 l3 x1 x3 r1 r1")
    b = parse_front("l1 l3 x3 x1 r1 r1")
    assert _key(a) == _key(b)


def _closed_instance(side: list[Letter], n_before: int) -> FrontWord:
    """Embed a tangle piece acting on n_before strands between nested cusps."""
    letters = [L(1)] * (n_before // 2) + list(side)
    n = n_before + sum({"l": 2, "x": 0, "r": -2}[let.kind] for let in side)
    letters += [R(1)] * (n // 2)
    return FrontWord(tuple(letters))


def _relation_instances(n: int):
    """The in-bounds instances on n strands of the listed commutation families."""
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


def test_listed_commutations_follow_the_support_rule():
    # each listed family, on odd strand counts too, is one commutation of
    # swap_adjacent_all read either way
    checked = 0
    for n in range(2, 8):
        for _, lhs, rhs in _relation_instances(n):
            assert tuple(rhs) in swap_adjacent_all(*lhs), (n, lhs, rhs)
            assert tuple(lhs) in swap_adjacent_all(*rhs), (n, lhs, rhs)
            checked += 1
    assert checked == 419


def test_canonicalize_identifies_listed_commutations():
    # both sides of every commutation family on n strands, n drawn from 2, 4
    # and 6 (so instances repeat and their keys are cached); one descent need
    # not reach a fixed point, so a few r l -> l r instances keep two keys,
    # and this pins which merge
    key = lru_cache(maxsize=None)(_key)
    rng = random.Random(59)
    checked = 0
    split = []
    for _ in range(40):
        for n, lhs, rhs in _relation_instances(rng.choice([2, 4, 6])):
            w1 = _closed_instance(lhs, n)
            w2 = _closed_instance(rhs, n)
            if key(w1) != key(w2):
                split.append((lhs[0].kind + lhs[1].kind, w1.render(), w2.render()))
            checked += 1
    assert checked == 2064
    assert len(split) == 13
    assert {kinds for kinds, _, _ in split} == {"rl"}


def test_canonicalize_preserves_ruling_polynomial():
    for w in random_fronts(seed=67, count=40, max_len=12):
        assert ruling_polynomial(_key(w)) == ruling_polynomial(w)


def test_canonicalize_cusp_diamond():
    # r_a l_a commutes two ways; all three forms share one class
    forms = [
        FrontWord((L(1), L(3), R(3), L(3), R(3), R(1))),
        FrontWord((L(1), L(3), L(3), R(5), R(3), R(1))),
        FrontWord((L(1), L(3), L(5), R(3), R(3), R(1))),
    ]
    cs = {_key(f) for f in forms}
    assert len(cs) == 1


# -- the skein relation, checked on the sweep


def _sweep(letters) -> LaurentPoly:
    """The sweep's value of a word; the empty word evaluates to z."""
    return ruling_polynomial(FrontWord(tuple(letters))) if letters else LaurentPoly.monomial(1)


def test_skein_relation_on_sweep():
    # l_mu x_(mu+d) = l_(mu+d) x_mu + z [l_mu] - z [l_(mu+d)], d = -1 or +1,
    # with all three words built here from each cusp-crossing site
    z = LaurentPoly.monomial(1)
    checked = 0
    for w in random_fronts(seed=73, count=300, max_len=12):
        for site in range(len(w.letters) - 1):
            p, q = w.letters[site], w.letters[site + 1]
            if p.kind == "l" and q.kind == "x" and abs(p.index - q.index) == 1:
                mu, d = p.index, q.index - p.index
                head, tail = w.letters[:site], w.letters[site + 2:]
                rhs = (
                    _sweep(head + (L(mu + d), X(mu)) + tail)
                    + z * _sweep(head + (L(mu),) + tail)
                    - z * _sweep(head + (L(mu + d),) + tail)
                )
                assert rhs == _sweep(w.letters), (w.render(), site)
                checked += 1
    assert checked >= 50


# For each rule and run state before it (each of N1, N2 zero or not) that
# closed_words(9, 6) reaches and closed_words(8, 4) never does, the shortest
# word of closed_words(9, 6) that reaches it.
RUN_STATE_WORDS = [
    "l1 l1 x2 x3 x2 x1 x1 r2 r1",
    "l1 l1 l2 x1 x3 x4 r1 r1 r1",
    "l1 l1 l1 x2 x5 r4 x3 r2 r1",
    "l1 l1 l2 x1 r4 x3 r2 r1",
    "l1 l1 l4 x2 x3 x5 r1 r1 r1",
    "l1 l1 l1 x2 x4 r3 r2 r1",
    "l1 l1 l2 x1 x3 r4 x3 r2 r1",
    "l1 l1 l4 x3 x5 r2 r1 r1",
    "l1 l1 l4 x3 x2 x5 r3 r2 r1",
    "l1 l1 l2 x1 x3 x4 r3 r2 r1",
    "l1 l2 x3 l5 r3 r2 r1",
]


def test_each_machine_run_preserves_value():
    # one machine run rewrites its word into side words plus a remainder;
    # the sweep must give both sides of that identity the same value
    for word in closed_words(8, 4) + [parse_front(text) for text in RUN_STATE_WORDS]:
        trace: list = []
        machine = _Machine(word.letters, Budget(), trace, 1)
        rest = machine.run()
        total = LaurentPoly.zero()
        for coeff, side in machine.sides:
            total = total + coeff * _sweep(side)
        if rest is not None:
            coeff, remainder = rest
            total = total + coeff * _sweep(remainder)
        assert total == _sweep(word.letters), (word.render(), [e["rule"] for e in trace])


# -- evaluate_B


def test_terminal_values():
    assert evaluate_B(parse_front("l1 r1")) == LaurentPoly.one()
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


def test_matches_sweep_on_every_small_front():
    # every closed word of <= 8 letters on <= 4 strands, split unions
    # included; the smallest Type 3 fronts are among them
    bad = [
        (w.render(), memo)
        for w in closed_words(8, 4)
        for memo in (False, True)
        if evaluate_B(w, memo=memo) != ruling_polynomial(w)
    ]
    assert not bad


def test_memo_key_built_only_for_machine_words(monkeypatch):
    # the empty, zero and eye rules read the raw letters before the memo key
    # is built, so no key is built for a word that they decide
    seen = []
    real = legskein.canonicalize

    def recording(letters, budget):
        seen.append(letters)
        return real(letters, budget)

    monkeypatch.setattr(legskein, "canonicalize", recording)
    for w in closed_words(7, 4):
        evaluate_B(w)
    assert seen
    assert not [
        FrontWord(s).render()
        for s in seen
        if not s or _scan_zero(s) or _scan_eye(s) is not None
    ]


@pytest.mark.parametrize(
    "text,descent,fixed_point",
    [
        # the shortest machine word whose one descent is not a fixed point
        ("l1 l2 l3 r1 r1 r1", "l1 l2 l1 r1 r1 r1", "l1 l1 l2 r1 r1 r1"),
        # and one with a crossing
        ("l1 l1 r3 l1 x2 r1 r1", "l1 l1 x2 l3 r1 r1 r1", "l1 l1 x2 l1 r1 r1 r1"),
    ],
)
def test_memo_key_is_one_descent(text, descent, fixed_point):
    # any deterministic member of the commutation class is a sound key, so
    # the evaluator keys on one descent, not on its fixed point
    ev = _Evaluator(True, None)
    ev.eval(parse_front(text).letters)
    assert parse_front(descent).letters in ev.memo
    assert parse_front(fixed_point).letters not in ev.memo


def test_memo_key_merges_pinned_machine_runs():
    # Machine runs are memo misses, so they move when the canonical key
    # merges words differently; a faster key must keep them.
    def runs(word):
        ev = _Evaluator(True, None)
        ev.eval(word.letters)
        return ev.runs

    assert sum(runs(w) for _, w in corpus_words()) == 23
    for text, expected in [
        ("l1 l2 l3 l4 x3 x3 x3 x2 x2 x2 x2 x2 x3 x3 x3 x3 r4 r3 r2 r1", 53),
        ("l1 l2 l3 x2 x2 x2 x2 x1 x1 x1 x2 x2 x2 x2 x2 r3 r2 r1", 44),
        ("l1 l2 l3 l4 x1 x2 x3 x1 x2 x3 x1 x2 x3 x1 x2 x3 r4 r3 r2 r1", 182),
    ]:
        assert runs(parse_front(text)) == expected, text


def test_matches_ruling_polynomial_on_three_run_braid_closures():
    # Theorem 3.1 with the memo on, past the census: every closure
    # l1 .. lk s_g1^a s_g2^b s_g3^c rk .. r1 on 3 and 4 strands with
    # g1 != g2 != g3, each exponent 2..4 and 10..12 crossings (16..20 letters)
    checked = 0
    for k in (3, 4):
        for g1, g2, g3 in itertools.product(range(1, k), repeat=3):
            if g1 == g2 or g2 == g3:
                continue
            for a, b, c in itertools.product(range(2, 5), repeat=3):
                if not 10 <= a + b + c <= 12:
                    continue
                gens = [g1] * a + [g2] * b + [g3] * c
                text = " ".join(
                    [f"l{i}" for i in range(1, k + 1)]
                    + [f"x{g}" for g in gens]
                    + [f"r{i}" for i in range(k, 0, -1)]
                )
                w = parse_front(text)
                assert evaluate_B(w) == ruling_polynomial(w), text
                checked += 1
    assert checked == 140


@pytest.mark.parametrize(
    "text",
    [
        # the smallest fronts that fire the Type 3 step
        "l1 l2 x1 x3 x2 x1 r2 r1",
        "l1 l2 x1 x3 x2 x3 r2 r1",
        "l1 l2 x3 x1 x2 x1 r2 r1",
        "l1 l2 x3 x1 x2 x3 r2 r1",
        # 3-braid closures (x1 x2)^4, (x1 x2)^5, 1211212, 2111212, 2121212
        "l1 l2 l3 x1 x2 x1 x2 x1 x2 x1 x2 r3 r2 r1",
        "l1 l2 l3 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 r3 r2 r1",
        "l1 l2 l3 x1 x2 x1 x1 x2 x1 x2 r3 r2 r1",
        "l1 l2 l3 x2 x1 x1 x1 x2 x1 x2 r3 r2 r1",
        "l1 l2 l3 x2 x1 x2 x1 x2 x1 x2 r3 r2 r1",
    ],
)
def test_type3_fronts_with_memo(text):
    w = parse_front(text)
    assert evaluate_B(w, memo=True) == ruling_polynomial(w)


def test_split_chain_of_eyes():
    # the split rule applies before the memo lookup, so a chain costs one
    # lookup per eye
    for k in range(1, 9):
        assert evaluate_B(parse_front(" ".join(["l1 r1"] * k))) == LaurentPoly.monomial(1 - k)
    trefoil_with_eyes = parse_front("l1 r1 l1 l3 x2 x2 x2 r1 r1 l1 r1 l1 r1")
    assert evaluate_B(trefoil_with_eyes) == parse_poly1("z^-3") * parse_poly1("z^2 + 2")


def test_memoization_soundness():
    for w in random_fronts(seed=83, count=30, max_len=12):
        assert evaluate_B(w, memo=True) == evaluate_B(w, memo=False)


def _census() -> list[FrontWord]:
    """Every closed word of <= 8 letters on <= 4 strands, the corpus and the
    run-state words."""
    corpus = [word for _, word in corpus_words()]
    return closed_words(8, 4) + corpus + [parse_front(text) for text in RUN_STATE_WORDS]


# The machine's 23 rules; each case of run1 (below the cusp) has a mirror of run2.
RULES = {
    "case1.absorb-below", "case1.grow-run1", "case1.skein-type2-lo", "case1.braid-slide-run1",
    "case1.absorb-above", "case1.grow-run2", "case1.skein-type2-hi", "case1.braid-slide-run2",
    "case1.type2-lo", "case1.type2-hi", "case1.zero-lx", "case1.skein-type3",
    "case2.absorb-below", "case2.skein-zigzag-lo", "case2.type2-run1", "case2.type1-lo",
    "case2.absorb-above", "case2.skein-zigzag-hi", "case2.type2-run2", "case2.type1-hi",
    "case2.zero-xr", "case2.split-eye", "case2.skein-type2",
}


def test_census_traces_are_pinned():
    # every trace entry, with the word and its value, of the census under
    # one SHA-256: a rewrite of the machine that keeps the digest fires the
    # same rules at the same sites, with the same measures, on every word
    digest = hashlib.sha256()
    fired = set()
    for word in _census():
        trace: list = []
        value = evaluate_B(word, trace=trace)
        fired |= {e["rule"] for e in trace}
        digest.update(json.dumps([word.render(), str(value), trace], sort_keys=True).encode())
    assert len(RULES) == 23 and fired == RULES | {"start"}
    assert digest.hexdigest() == "3517c4de7486078251cc8cbcd55bd84c6579571224e280de460ec3b6a2721d4a"


# The three 4-strand closures of test_memo_key_merges_pinned_machine_runs.
KEYED_CLOSURES = [
    "l1 l2 l3 l4 x3 x3 x3 x2 x2 x2 x2 x2 x3 x3 x3 x3 r4 r3 r2 r1",
    "l1 l2 l3 x2 x2 x2 x2 x1 x1 x1 x2 x2 x2 x2 x2 r3 r2 r1",
    "l1 l2 l3 l4 x1 x2 x3 x1 x2 x3 x1 x2 x3 x1 x2 x3 r4 r3 r2 r1",
]


def test_memo_keys_are_pinned(monkeypatch):
    # the memo key of every census word that reaches one (a single split
    # factor, not empty, no zero pattern, no eye), and the budget its
    # descent spends, under one SHA-256: a rewrite of the key function that
    # keeps the digest keys and spends alike on every such word
    monkeypatch.setattr(_Evaluator, "_compute", lambda self, letters: LaurentPoly.zero())
    digest = hashlib.sha256()
    keyed = 0
    for word in _census() + [parse_front(text) for text in KEYED_CLOSURES]:
        letters = word.letters
        if len(legskein._split_factors(letters)) > 1 or _scan_zero(letters):
            continue
        if _scan_eye(letters) is not None:
            continue
        ev = _Evaluator(True, None)
        ev.eval(letters)
        (key,) = ev.memo
        digest.update(json.dumps([word.render(), FrontWord(key).render(), ev.budget.spent]).encode())
        keyed += 1
    assert keyed == 907
    assert digest.hexdigest() == "3e38cbb6d3d9ac433638d5534d8d933eea30888416e9b590b5105a0a305722d6"


def test_trace_measure_monotone():
    # within each machine run, every rewriting step lowers the measure
    # (L, M, -(N1 + N2), N1) lexicographically: (L, M) never increases, and
    # steps holding it fixed grow N1 + N2 or, for a lone skein step, hold it
    # and shorten run1; terminal entries read a value off without rewriting
    # and are exempt.  The census fires every rule, on both sides of the cusp.
    def measure(e):
        return (e["L"], e["M"], -(e["N1"] + e["N2"]), e["N1"])

    fired = set()
    for word in _census():
        trace: list = []
        evaluate_B(word, trace=trace)
        fired |= {e["rule"] for e in trace}
        by_run: dict[int, list[dict]] = {}
        for entry in trace:
            by_run.setdefault(entry["run"], []).append(entry)
        for entries in by_run.values():
            for prev, cur in zip(entries, entries[1:]):
                if not cur["terminal"]:
                    assert measure(cur) < measure(prev), (word.render(), cur["rule"])
        for e in trace:
            assert e["N1"] + e["N2"] <= e["N"] - 2
    assert RULES <= fired


def test_fuel_budget_is_generous(monkeypatch):
    # the default budget must be at least 100x what desk-scale fronts need on
    # every route, and 50x what the benchmark's widest sweep needs.  Largest
    # needs measured: the rewrite route 6 881 on twist(37) (740 machine steps,
    # 6 141 memo-key misses) and 1 608 on the 4-strand closure; the skein tree
    # 2 074 (D on twist(37)); the sweep 78; the corpus <= 115 on any route;
    # braid6x30 of sweep-wide (seed 4) 12 910 in the sweep, 77x below.
    monkeypatch.setattr(errors, "DEFAULT_FUEL", 10 ** 4)
    corpus = [word for _, word in corpus_words()]
    for word in corpus:
        enumerate_rulings(word)
    twist = parse_front("l1 l3 " + "x2 " * 37 + "r1 r1")
    closure = parse_front("l1 l2 l3 l4 x3 x3 x3 x2 x2 x2 x2 x2 x3 x3 x3 x3 r4 r3 r2 r1")
    for word in corpus + [twist, closure]:
        evaluate_B(word)
        of = orient(word)
        ruling_polynomial(word)
        oriented_ruling_polynomial(of)
        d = from_oriented_front(of)
        kauffman_D(d)
        homfly_H(d)
    monkeypatch.setattr(errors, "DEFAULT_FUEL", 2 * 10 ** 4)
    braid6x30 = parse_front(
        "l1 l2 l3 l4 l5 l6 x5 x4 x3 x2 x1 x1 x2 x3 x4 x5 x5 x4 x3 x2 x1"
        " x5 x4 x3 x2 x1 x5 x4 x3 x2 x1 x1 x2 x3 x4 x5 r6 r5 r4 r3 r2 r1"
    )
    ruling_polynomial(braid6x30)
    oriented_ruling_polynomial(orient(braid6x30))


def test_fuel_budget_counts_memo_keys(monkeypatch):
    # building canonical memo keys spends the budget too: one step per word
    # the descent minimizes afresh, so the machine steps alone run out
    word = parse_front("l1 l3 " + "x2 " * 37 + "r1 r1")
    trace = []
    value = evaluate_B(word, trace=trace)
    machine_steps = sum(1 for e in trace if e["rule"] != "start")
    ev = _Evaluator(True, None)
    ev.eval(word.letters)
    assert ev.budget.spent > machine_steps
    monkeypatch.setattr(errors, "DEFAULT_FUEL", machine_steps)
    with pytest.raises(FuelExhausted):
        evaluate_B(word)
    monkeypatch.setattr(errors, "DEFAULT_FUEL", ev.budget.spent)
    assert evaluate_B(word) == value


def test_fuel_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_FUEL", 1)
    with pytest.raises(FuelExhausted):
        evaluate_B(parse_front("l1 l3 x2 x2 x2 r1 r1"))


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
    assert evaluate_B(FrontWord(())) == LaurentPoly.monomial(1)
