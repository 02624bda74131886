"""Acceptance suite: the exact identities the package is built to verify.

Each criterion is a function returning (passed, detail); the pytest wrappers
assert and print one line per criterion (run with ``pytest -s`` to see them
all, or ``python3 tests/test_acceptance.py`` for a standalone report).
"""

from __future__ import annotations

import random
from collections import Counter
import time

import pytest

from conftest import corpus_words, enumerated_polynomial, random_fronts

from frontinv.check import check_front, front_ok
from frontinv.diagram import _smooth, _switch, crossing_sign, from_oriented_front
from frontinv.front import (
    FrontWord,
    L,
    X,
    R,
    all_orientations,
    apply_move,
    applicable_moves,
    invariants,
    orient,
    parse_front,
    random_move_sequence,
    stabilize,
    strand_counts,
)
from frontinv.legskein import evaluate_B
from frontinv.poly import LaurentPoly, deg_a, parse_poly1
from frontinv.rulings import (
    enumerate_rulings,
    enumerate_rulings_bruteforce,
    oriented_ruling_polynomial,
    ruling_polynomial,
)
from frontinv.toposkein import homfly_H, kauffman_D, sharpness

Z2 = LaurentPoly.monomial(1, 0)


def criterion_1() -> tuple[bool, str]:
    """Ruling polynomial == rewrite evaluator == Kauffman coefficient."""
    words = corpus_words()
    t0 = time.perf_counter()
    for name, word in words:
        rec = check_front(word)
        if not (rec["R"] == rec["B_leg"] == rec["B_topo"] and front_ok(rec, "3.1")):
            return False, f"triangle broken on {name}"
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        return False, f"triangle exact but too slow: {elapsed:.1f}s"
    return True, f"{len(words)} fronts, exact equality, {elapsed:.2f}s"


def criterion_2() -> tuple[bool, str]:
    """Oriented ruling polynomial == HOMFLY coefficient, all orientations.

    ``check_front`` evaluates one orientation of each pair that differs by
    reversing every component; test_global_reversal_invariance checks that
    both orientations of a pair give the same values.
    """
    checked = 0
    for name, word in corpus_words():
        rec = check_front(word)
        if not front_ok(rec, "4.1"):
            return False, f"oriented identity not checked or broken on {name}"
        for o in rec["oriented"]:
            if o["OR"] != o["Q"]:
                return False, f"oriented identity broken on {name} {o['choices']}"
            checked += 1
    return True, f"{checked} (front, orientation) pairs, exact equality"


def criterion_3() -> tuple[bool, str]:
    """Sweep enumeration == exhaustive filter through the direct checker."""
    for name, word in corpus_words():
        sweep = sorted(r.switches for r in enumerate_rulings(word))
        brute = sorted(r.switches for r in enumerate_rulings_bruteforce(word))
        if sweep != brute:
            return False, f"oracle mismatch on {name}"
        for of in all_orientations(word):
            sweep = sorted(
                r.switches for r in enumerate_rulings(word, of)
            )
            brute = sorted(
                r.switches
                for r in enumerate_rulings_bruteforce(word, of)
            )
            if sweep != brute:
                return False, f"oriented oracle mismatch on {name}"
    return True, "exact set equality on every corpus front, plain and oriented"


def criterion_4() -> tuple[bool, str]:
    """Terminal values: unknot, zero patterns, split-union product rule."""
    if ruling_polynomial(parse_front("l1 r1")) != LaurentPoly.one():
        return False, "unknot value wrong"
    # fronts containing a zig-zag or l_i x_i / x_i r_i pattern
    rng = random.Random(2024)
    zero_checked = 0
    for w in random_fronts(seed=2024, count=40, max_len=10):
        counts = strand_counts(w.letters)
        gaps = [g for g in range(len(w.letters) + 1) if counts[g] >= 1]
        gap = rng.choice(gaps)
        pos = rng.randrange(1, counts[gap] + 1)
        stabbed = stabilize(w, gap, pos, rng.choice(["up", "down"]))
        if not ruling_polynomial(stabbed).is_zero():
            return False, f"zig-zag front has nonzero value: {stabbed.render()}"
        zero_checked += 1
    for text in ["l1 x1 r1", "l1 l3 x2 x1 r1 r1", "l1 l3 x2 x2 x1 r1 r1"]:
        w = parse_front(text)  # contains l_i x_i or x_i r_i
        if not ruling_polynomial(w).is_zero():
            return False, f"pattern front has nonzero value: {text}"
        zero_checked += 1
    z_inv = parse_poly1("z^-1")
    words = [w for _, w in corpus_words()]
    for w1 in words:
        for w2 in words:
            if ruling_polynomial(FrontWord(w1.letters + w2.letters)) != z_inv * ruling_polynomial(w1) * ruling_polynomial(w2):
                return False, "split-union rule broken"
    return True, f"{zero_checked} zero fronts and {len(words) ** 2} split unions, exact"


def _orientation_profile(word: FrontWord):
    """Multiset over all orientations of (beta, r, OR); move-invariant.

    The writhe itself changes under Type 1 moves (they insert a kink), and
    moves may renumber components, so single-orientation values of r and OR
    are compared as a multiset over all 2**k orientation choices.
    """
    out = []
    for of in all_orientations(word):
        inv = invariants(of)
        out.append(
            (inv.beta, inv.r, tuple(sorted(oriented_ruling_polynomial(of).terms.items())))
        )
    return sorted(out)


def criterion_5() -> tuple[bool, str]:
    """Randomized Legendrian move sequences preserve R, OR, beta, r."""
    sequences = 0
    for name, word in corpus_words():
        base_R = ruling_polynomial(word)
        base_profile = _orientation_profile(word)
        for k in range(500):
            length = (k % 20) + 1
            moved, _ = random_move_sequence(word, length, seed=100000 + 17 * k)
            if ruling_polynomial(moved) != base_R:
                return False, f"R changed on {name} sequence {k}"
            if _orientation_profile(moved) != base_profile:
                return False, f"orientation profile changed on {name} sequence {k}"
            sequences += 1
    return True, f"{sequences} move sequences (length <= 20), all invariants preserved"


def criterion_6() -> tuple[bool, str]:
    """Skein relations and Reidemeister II/III invariance."""
    z1 = LaurentPoly.monomial(1)
    rng = random.Random(31337)
    sites = 0
    attempts = 0
    while sites < 100 and attempts < 6000:
        attempts += 1
        w = random_fronts(seed=rng.randrange(10 ** 7), count=1, max_len=12)[0]
        letters = w.letters
        for k in range(len(letters) - 1):
            p, q = letters[k], letters[k + 1]
            if p.kind == "l" and q.kind == "x" and q.index == p.index - 1:
                mu = p.index
                other = FrontWord(letters[:k] + (L(mu - 1), X(mu)) + letters[k + 2:])
                del_hi = FrontWord(letters[:k] + (L(mu),) + letters[k + 2:])
                del_lo = FrontWord(letters[:k] + (L(mu - 1),) + letters[k + 2:])
                lhs = ruling_polynomial(w) - ruling_polynomial(other)
                rhs = z1 * (ruling_polynomial(del_hi) - ruling_polynomial(del_lo))
                if lhs != rhs:
                    return False, f"ruling skein identity broken at {w.render()} site {k}"
                sites += 1
    if sites < 100:
        return False, f"only {sites} skein sites found"

    diagrams = 0
    for w in random_fronts(seed=777, count=300, max_len=12):
        if not 1 <= w.num_crossings <= 6:
            continue
        d = from_oriented_front(orient(w))
        for c in range(d.n_crossings):
            if rng.random() < 0.5:
                d = _switch(d, c)
        for c in range(d.n_crossings):
            q = d.view(c)
            pairs_a = ((q[0], q[1]), (q[2], q[3]))
            pairs_b = ((q[0], q[3]), (q[1], q[2]))
            if kauffman_D(d) - kauffman_D(_switch(d, c)) != Z2 * (
                kauffman_D(_smooth(d, c, pairs_a)) - kauffman_D(_smooth(d, c, pairs_b))
            ):
                return False, "Dubrovnik defining relation broken"
            eps = crossing_sign(d, c)
            if homfly_H(d) - homfly_H(_switch(d, c)) != eps * Z2 * homfly_H(
                _smooth(d, c, pairs_a if eps == 1 else pairs_b)
            ):
                return False, "HOMFLY defining relation broken"
        diagrams += 1
        if diagrams >= 100:
            break
    if diagrams < 100:
        return False, f"only {diagrams} diagrams tested"

    moves_checked = 0
    for w in random_fronts(seed=888, count=80, max_len=12):
        if w.num_crossings > 6:
            continue
        d0 = kauffman_D(from_oriented_front(orient(w)))
        for mv in applicable_moves(w):
            if mv.rule not in ("type2_lo", "type2_hi", "type3"):
                continue
            moved = apply_move(w, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
            dm = from_oriented_front(orient(moved))
            if kauffman_D(dm) != d0:
                return False, f"RII/RIII invariance broken: {w.render()} {mv}"
            hs0 = Counter(homfly_H(from_oriented_front(of)) for of in all_orientations(w))
            hs1 = Counter(homfly_H(from_oriented_front(of)) for of in all_orientations(moved))
            if hs0 != hs1:
                return False, f"RII/RIII HOMFLY invariance broken: {w.render()} {mv}"
            moves_checked += 1
        if moves_checked >= 100:
            break
    if moves_checked < 100:
        return False, f"only {moves_checked} Reidemeister moves tested"
    return True, f"{sites} skein sites, {diagrams} diagrams, {moves_checked} RII/RIII moves"


def criterion_7() -> tuple[bool, str]:
    """Degree bounds and agreement of the sharpness computations."""
    for name, word in corpus_words():
        c = word.num_left_cusps
        d = from_oriented_front(orient(word))
        if not deg_a(kauffman_D(d)) <= c - 1:
            return False, f"Kauffman degree bound broken on {name}"
        if not deg_a(homfly_H(d)) <= c - 1:
            return False, f"HOMFLY degree bound broken on {name}"
        for of in all_orientations(word):
            sharpness(of)  # raises InternalInconsistency on disagreement
    return True, "degree bounds hold; all sharpness computations agree"


def criterion_8() -> tuple[bool, str]:
    """HOMFLY sharpness implies Kauffman sharpness; stabilization kills both."""
    for name, word in corpus_words():
        for of in all_orientations(word):
            rep = sharpness(of)
            if rep.homfly_sharp and not rep.kauffman_sharp:
                return False, f"implication broken on {name}"
    rng = random.Random(55)
    for name, word in corpus_words():
        counts = strand_counts(word.letters)
        gaps = [g for g in range(len(word.letters) + 1) if counts[g] >= 1]
        gap = rng.choice(gaps)
        stabbed = stabilize(word, gap, rng.randrange(1, counts[gap] + 1), "down")
        rep = sharpness(orient(stabbed))
        if rep.kauffman_sharp or not rep.B.is_zero():
            return False, f"stabilized {name} still sharp"
    return True, "implication and stabilization checks exact on the corpus"


def criterion_9() -> tuple[bool, str]:
    """The merging sweep agrees with the listed rulings, and the rewrite
    evaluator with its canonical-key memo on with it off."""
    for name, word in corpus_words():
        if ruling_polynomial(word) != enumerated_polynomial(word):
            return False, f"sweep differs from enumeration on {name}"
        if evaluate_B(word, memo=True) != evaluate_B(word, memo=False):
            return False, f"rewrite memoization differs on {name}"
    return True, "sweep equals enumeration; rewrite values identical with the memo on and off"


CRITERIA = [
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
]


@pytest.mark.parametrize("number,func", CRITERIA, ids=[f"criterion_{n}" for n, _ in CRITERIA])
def test_criterion(number, func):
    passed, detail = func()
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


if __name__ == "__main__":
    failures = 0
    for number, func in CRITERIA:
        passed, detail = func()
        print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}", flush=True)
        failures += not passed
    raise SystemExit(1 if failures else 0)
