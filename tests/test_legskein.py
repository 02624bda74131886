from __future__ import annotations

import random

import pytest

from conftest import closed_words, corpus_words, random_fronts, recursion_headroom

from frontinv.errors import FuelExhausted
from frontinv.front import FrontWord, L, Letter, R, X, parse_front
from frontinv import legskein
from frontinv.legskein import _Budget, _Machine, _scan_eye, _scan_zero, canonicalize, evaluate_B
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


# -- the skein relation, checked on the sweep


def _sweep(letters) -> LaurentPoly1:
    """The sweep's value of a word; the empty word evaluates to z."""
    return ruling_polynomial(FrontWord(tuple(letters))) if letters else LaurentPoly1.z(1)


def test_skein_relation_on_sweep():
    # l_mu x_(mu+d) = l_(mu+d) x_mu + z [l_mu] - z [l_(mu+d)], d = -1 or +1,
    # with all three words built here from each cusp-crossing site
    z = LaurentPoly1.z(1)
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


def test_each_machine_run_preserves_value():
    # one machine run rewrites its word into side words plus a remainder;
    # the sweep must give both sides of that identity the same value
    for word in closed_words(8, 4):
        trace: list = []
        machine = _Machine(word.letters, _Budget(10 ** 6), trace, 1)
        result = machine.run()
        total = LaurentPoly1.zero()
        for coeff, side in machine.sides:
            total = total + coeff * _sweep(side)
        if result[0] == "recurse":
            total = total + result[1] * _sweep(result[2])
        assert total == _sweep(word.letters), (word.render(), [e["rule"] for e in trace])


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
    # is built, so canonicalize never sees a word that they decide
    seen = []

    def recording(word):
        seen.append(word.letters)
        return canonicalize(word)

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
        assert evaluate_B(parse_front(" ".join(["l1 r1"] * k))) == LaurentPoly1.z(1 - k)
    trefoil_with_eyes = parse_front("l1 r1 l1 l3 x2 x2 x2 r1 r1 l1 r1 l1 r1")
    assert evaluate_B(trefoil_with_eyes) == parse_poly1("z^-3") * parse_poly1("z^2 + 2")


def test_memoization_soundness():
    for w in random_fronts(seed=83, count=30, max_len=12):
        assert evaluate_B(w, memo=True) == evaluate_B(w, memo=False)


def test_trace_measure_monotone():
    # within each machine run, every rewriting step lowers the measure
    # (L, M, -(N1 + N2), N1) lexicographically: (L, M) never increases, and
    # steps holding it fixed grow N1 + N2 or, for a lone skein step, hold it
    # and shorten run1; terminal entries read a value off without rewriting
    # and are exempt.  The two extra words fire the lone skein steps.
    def measure(e):
        return (e["L"], e["M"], -(e["N1"] + e["N2"]), e["N1"])

    words = [word for _, word in corpus_words()]
    words += [parse_front("l1 l2 x1 x3 x2 x1 r2 r1"), parse_front("l1 l1 x2 x1 x1 x3 r2 r1")]
    fired = set()
    for word in words:
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
    assert {"case1.skein-type3", "case2.skein-type2"} <= fired


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
