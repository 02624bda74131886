"""Evaluation of the ruling invariant by rewriting tangle words.

This module never enumerates rulings.  It computes the same polynomial by a
skein calculus on front words: the linear relation

    value(.. l_{m+1} x_m ..) = value(.. l_m x_{m+1} ..)
                               + z * value(.. l_{m+1} ..)
                               - z * value(.. l_m ..)

together with the terminal rules value(l1 r1) = 1, value = 0 for fronts
containing a zig-zag (l_m r_{m-1} or l_m r_{m+1}) or an l_i x_i / x_i r_i
pattern, and the split rule value(K1 | K2) = z^-1 value(K1) value(K2).

The reduction walks the suffix after the rightmost left cusp, keeping the
normal form  X l_m (x_{m-1} .. x_{m-N1}) (x_{m+1} .. x_{m+N2}) Y  and
dispatching on the first letter of Y.  Each dispatch either absorbs a letter
into X, grows a run, removes crossings with a Type 1/2/3 move, or fires the
skein relation (spawning two lower-crossing side words).  The lexicographic
measure (L, M) with L the left-cusp count and M = N + cr(suffix) never
increases, and steps that hold it fixed grow N1 + N2, so the walk
terminates; a fuel counter guards against implementation bugs.

Words equal up to planar-isotopy commutations share a canonical form, used
as the memoization key.  The empty word evaluates to z, which makes the
split rule and the unknot value consistent.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from .errors import FuelExhausted, InternalInconsistency, PatternMismatch
from .front import FrontWord, L, Letter, R, X, letter_delta, swap_adjacent_all
from .poly import LaurentPoly1

Letters = tuple[Letter, ...]

_KIND_RANK = {"x": 0, "l": 1, "r": 2}


def default_fuel() -> int:
    return int(os.environ.get("FRONTINV_LEGSKEIN_FUEL", "1000000"))


# ---------------------------------------------------------------------------
# Canonical form for planar-isotopy commutation classes


def _letter_key(letter: Letter) -> tuple[int, int]:
    return (_KIND_RANK[letter.kind], letter.index)


def _word_key(letters) -> tuple:
    return tuple(_letter_key(l) for l in letters)


def _pair_forms(p: Letter, q: Letter) -> tuple[tuple[Letter, Letter], ...]:
    """The full commutation class of an adjacent pair (at most three forms)."""
    seen = {(p, q)}
    frontier = [(p, q)]
    while frontier:
        form = frontier.pop()
        for nxt in swap_adjacent_all(*form):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(seen)


def _front_candidates(letters: tuple[Letter, ...]) -> set[tuple[Letter, tuple[Letter, ...]]]:
    """All (first letter, remainder) decompositions reachable by commutations.

    Bubbles every letter to the front along every commutation path (adjacent
    swaps can branch at the cusp diamond), then closes the results under
    rewrites of the leading pair, which can rename the front letter in place.
    """
    out: set[tuple[Letter, tuple[Letter, ...]]] = set()
    n = len(letters)
    for i in range(n):
        # state: (next prefix index to pass, moving letter, transformed prefix)
        stack: list[tuple[int, Letter, tuple[Letter, ...]]] = [(i - 1, letters[i], ())]
        seen = set()
        while stack:
            j, moving, passed = stack.pop()
            if j < 0:
                out.add((moving, passed + letters[i + 1:]))
                continue
            for new_moving, transformed in swap_adjacent_all(letters[j], moving):
                state = (j - 1, new_moving, (transformed,) + passed)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    # close under leading-pair rewrites (they rename the front letter)
    worklist = list(out)
    while worklist:
        front, rest = worklist.pop()
        if not rest:
            continue
        for f2, r0 in _pair_forms(front, rest[0]):
            cand = (f2, (r0,) + rest[1:])
            if cand not in out:
                out.add(cand)
                worklist.append(cand)
    return out


class _Canonicalizer:
    def __init__(self):
        self.memo: dict[tuple[Letter, ...], tuple[Letter, ...]] = {}

    def run(self, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
        while True:
            improved = self._minimize(letters)
            if improved == letters:
                return letters
            letters = improved

    def _minimize(self, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
        if not letters:
            return letters
        cached = self.memo.get(letters)
        if cached is not None:
            return cached
        self.memo[letters] = letters  # guards accidental cycles
        candidates = _front_candidates(letters)
        best_front_key = min(_letter_key(front) for front, _ in candidates)
        best: tuple[Letter, ...] | None = None
        for front, rest in candidates:
            if _letter_key(front) != best_front_key:
                continue
            full = (front,) + self._minimize(rest)
            if best is None or _word_key(full) < _word_key(best):
                best = full
        assert best is not None
        self.memo[letters] = best
        return best


def canonicalize(word: FrontWord) -> FrontWord:
    """Deterministic representative of the commutation class.

    Lexicographically minimal word (crossings sort before left cusps before
    right cusps, ties by index) reachable by repeatedly extracting a least
    possible first letter, where extraction explores every commutation path
    and is closed under rewrites of the leading pair.  Idempotent and value
    preserving; both sides of every commutation relation, instantiated with
    any in-bounds indices, share their canonical form.

    The descent is not a complete class invariant: words containing freely
    floating split pieces can reach the lexicographic minimum only through
    lexicographically larger intermediates, so one planar-isotopy class may
    occasionally split across several representatives.  Used as a
    memoization key this costs duplicate entries, never wrong values.
    """
    return FrontWord(_Canonicalizer().run(word.letters))


# ---------------------------------------------------------------------------
# Word expressions


@dataclass
class WordExpr:
    """A finite z-Laurent-weighted combination of front words."""

    terms: dict[FrontWord, LaurentPoly1] = field(default_factory=dict)

    @classmethod
    def single(cls, word: FrontWord, coeff: LaurentPoly1 | None = None) -> "WordExpr":
        return cls({word: coeff if coeff is not None else LaurentPoly1.one()})

    def add_term(self, word: FrontWord, coeff: LaurentPoly1) -> None:
        cur = self.terms.get(word, LaurentPoly1.zero()) + coeff
        if cur.is_zero():
            self.terms.pop(word, None)
        else:
            self.terms[word] = cur

    def __add__(self, other: "WordExpr") -> "WordExpr":
        out = WordExpr(dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def scale(self, coeff: LaurentPoly1) -> "WordExpr":
        if coeff.is_zero():
            return WordExpr()
        return WordExpr({w: c * coeff for w, c in self.terms.items()})

    def substitute(self, word: FrontWord, expansion: "WordExpr") -> "WordExpr":
        """Replace one word by an equivalent expression."""
        if word not in self.terms:
            return self
        coeff = self.terms[word]
        out = WordExpr({w: c for w, c in self.terms.items() if w != word})
        for w, c in expansion.terms.items():
            out.add_term(w, c * coeff)
        return out


def skein_expand(word: FrontWord, site: int) -> WordExpr:
    """Expand the pair at ``site`` by the skein relation.

    The site must hold adjacent letters ``l_{m+1} x_m`` or ``l_m x_{m+1}``;
    the result is the equivalent three-term combination (the interchanged
    word plus two z-weighted words with the crossing deleted).
    """
    letters = word.letters
    if not 0 <= site < len(letters) - 1:
        raise PatternMismatch(f"no letter pair at site {site}")
    a, b = letters[site], letters[site + 1]
    if a.kind != "l" or b.kind != "x":
        raise PatternMismatch(f"pair {a} {b} is not a cusp-crossing pair")
    z = LaurentPoly1.z
    head, tail = letters[:site], letters[site + 2:]
    if b.index == a.index - 1:
        # l_{m+1} x_m -> l_m x_{m+1} + z [l_{m+1}] - z [l_m]
        mu = a.index
        out = WordExpr.single(FrontWord(head + (L(mu - 1), X(mu)) + tail))
        out.add_term(FrontWord(head + (L(mu),) + tail), z(1))
        out.add_term(FrontWord(head + (L(mu - 1),) + tail), z(1, -1))
        return out
    if b.index == a.index + 1:
        # l_m x_{m+1} -> l_{m+1} x_m - z [l_{m+1}] + z [l_m]
        mu = a.index
        out = WordExpr.single(FrontWord(head + (L(mu + 1), X(mu)) + tail))
        out.add_term(FrontWord(head + (L(mu + 1),) + tail), z(1, -1))
        out.add_term(FrontWord(head + (L(mu),) + tail), z(1))
        return out
    raise PatternMismatch(f"pair {a} {b} does not match l_(m+1) x_m or l_m x_(m+1)")


# ---------------------------------------------------------------------------
# The reduction machine


def _strand_counts(letters: Letters) -> list[int]:
    counts = [0]
    for let in letters:
        counts.append(counts[-1] + letter_delta(let.kind))
    return counts


def _split_factors(letters: Letters) -> list[Letters]:
    counts = _strand_counts(letters)
    factors = []
    start = 0
    for t in range(1, len(letters) + 1):
        if counts[t] == 0:
            factors.append(letters[start:t])
            start = t
    return factors


_ZERO_PATTERNS = {
    ("l", "x"): lambda a, b: a == b,
    ("x", "r"): lambda a, b: a == b,
    ("l", "r"): lambda a, b: abs(a - b) == 1,
}


def _scan_zero(letters: Letters) -> bool:
    for k in range(len(letters) - 1):
        p, q = letters[k], letters[k + 1]
        check = _ZERO_PATTERNS.get((p.kind, q.kind))
        if check and check(p.index, q.index):
            return True
    return False


def _scan_eye(letters: Letters) -> int | None:
    """Position of an adjacent l_m r_m pair (a split unknot), if any."""
    for k in range(len(letters) - 1):
        p, q = letters[k], letters[k + 1]
        if p.kind == "l" and q.kind == "r" and p.index == q.index:
            return k
    return None


class _Budget:
    def __init__(self, fuel: int):
        self.remaining = fuel
        self.spent = 0

    def spend(self) -> None:
        if self.remaining <= 0:
            raise FuelExhausted(
                f"reduction exceeded the step budget after {self.spent} steps"
            )
        self.remaining -= 1
        self.spent += 1


class _Machine:
    """One run of the rightmost-cusp reduction on a single word."""

    def __init__(self, letters: Letters, budget: _Budget, trace, run_id: int):
        t0 = max(t for t, let in enumerate(letters) if let.kind == "l")
        self.X = list(letters[:t0])
        self.m = letters[t0].index
        self.n_strands = _strand_counts(letters)[t0] + 2
        self.n1 = 0
        self.n2 = 0
        self.Y = list(letters[t0 + 1:])
        self.L_count = sum(1 for let in letters if let.kind == "l")
        self.sides: list[tuple[LaurentPoly1, Letters]] = []
        self.budget = budget
        self.trace = trace
        self.run_id = run_id
        self._log("start")

    # -- bookkeeping

    def _run1(self) -> list[Letter]:
        return [X(i) for i in range(self.m - 1, self.m - self.n1 - 1, -1)]

    def _run2(self) -> list[Letter]:
        return [X(i) for i in range(self.m + 1, self.m + self.n2 + 1)]

    def _measure(self) -> tuple[int, int]:
        cr_suffix = self.n1 + self.n2 + sum(1 for let in self.Y if let.kind == "x")
        return self.L_count, self.n_strands + cr_suffix

    def _log(self, rule: str, terminal: bool = False) -> None:
        if self.trace is None:
            return
        Lc, M = self._measure()
        self.trace.append(
            {
                "run": self.run_id,
                "step": len(self.trace),
                "rule": rule,
                "site": len(self.X),
                "L": Lc,
                "M": M,
                "N": self.n_strands,
                "N1": self.n1,
                "N2": self.n2,
                "terminal": terminal,
            }
        )

    def _emit(self, coeff: LaurentPoly1, letters: list[Letter]) -> None:
        self.sides.append((coeff, tuple(letters)))

    # -- skein-move loops (side words keep the still-pending Y)

    def _skein_cascade_lo(self, count: int) -> None:
        """count moves l_mu x_{mu-1} -> l_{mu-1} x_mu, emitting side words."""
        z = LaurentPoly1.z
        for _ in range(count):
            mu = self.m
            tail = [X(i) for i in range(mu - 2, mu - self.n1 - 1, -1)]
            r2 = self._run2()
            self._emit(z(1), self.X + [L(mu)] + tail + r2 + self.Y)
            self._emit(z(1, -1), self.X + [L(mu - 1)] + tail + r2 + self.Y)
            self.m -= 1
            self.n1 -= 1
            self.n2 += 1

    def _skein_cascade_hi(self, count: int) -> None:
        """count moves l_mu x_{mu+1} -> l_{mu+1} x_mu, emitting side words."""
        z = LaurentPoly1.z
        for _ in range(count):
            mu = self.m
            r1 = self._run1()
            tail = [X(i) for i in range(mu + 2, mu + self.n2 + 1)]
            self._emit(z(1, -1), self.X + [L(mu + 1)] + r1 + tail + self.Y)
            self._emit(z(1), self.X + [L(mu)] + r1 + tail + self.Y)
            self.m += 1
            self.n2 -= 1
            self.n1 += 1

    # -- the dispatch loop; returns ("zero",) or ("recurse", coeff, letters)

    def run(self):
        while True:
            self.budget.spend()
            if not self.Y:
                raise InternalInconsistency("reduction ran out of suffix")
            head = self.Y[0]
            if head.kind == "l":
                raise InternalInconsistency("left cusp after the rightmost left cusp")
            result = self._dispatch_x(head) if head.kind == "x" else self._dispatch_r(head)
            if result is not None:
                return result

    def _dispatch_x(self, head: Letter):
        m, n1, n2 = self.m, self.n1, self.n2
        i = head.index
        if i <= m - n1 - 2:
            self.Y.pop(0)
            self.X.append(X(i))
            self._log("case1.absorb-below")
        elif i == m - n1 - 1:
            self.Y.pop(0)
            self.n1 += 1
            self._log("case1.grow-run1")
        elif i == m - n1 and n1 >= 1:
            self._skein_cascade_lo(n1)
            self.Y.pop(0)
            # now cusp m-n1 with empty run1; finish with the Type 2 move
            self.m += 1
            self.n2 -= 1
            self._log("case1.skein-type2-lo")
        elif i < m:
            self.Y.pop(0)
            self.X.append(X(i - 1))
            self._log("case1.braid-slide-run1")
        elif i == m:
            return self._case1_sub5()
        elif i < m + n2:
            self.Y.pop(0)
            self.X.append(X(i - 1))
            self._log("case1.braid-slide-run2")
        elif i == m + n2 and n2 >= 1:
            self._skein_cascade_hi(n2)
            self.Y.pop(0)
            self.m -= 1
            self.n1 -= 1
            self._log("case1.skein-type2-hi")
        elif i == m + n2 + 1:
            self.Y.pop(0)
            self.n2 += 1
            self._log("case1.grow-run2")
        else:
            self.Y.pop(0)
            self.X.append(X(i - 2))
            self._log("case1.absorb-above")
        return None

    def _case1_sub5(self):
        z = LaurentPoly1.z
        m, n1, n2 = self.m, self.n1, self.n2
        if n1 == 0 and n2 == 0:
            self._log("case1.zero-lx", terminal=True)
            return ("zero",)
        self.Y.pop(0)
        if n2 == 0:
            self.m -= 1
            self.n1 -= 1
            self._log("case1.type2-lo")
        elif n1 == 0:
            self.m += 1
            self.n2 -= 1
            self._log("case1.type2-hi")
        else:
            rest1 = [X(i) for i in range(m - 2, m - n1 - 1, -1)]
            rest2 = [X(i) for i in range(m + 2, m + n2 + 1)]
            self._emit(z(1), self.X + [L(m), X(m + 1), X(m)] + rest1 + rest2 + self.Y)
            self._emit(z(1, -1), self.X + [L(m - 1), X(m + 1), X(m)] + rest1 + rest2 + self.Y)
            self.m -= 1
            self.n1 -= 1
            self.n2 += 1
            self._log("case1.skein-type3")
        return None

    def _dispatch_r(self, head: Letter):
        m, n1, n2 = self.m, self.n1, self.n2
        i = head.index
        if i <= m - n1 - 2:
            self.Y.pop(0)
            self.X.append(R(i))
            self.m -= 2
            self.n_strands -= 2
            self._log("case2.absorb-below")
        elif i == m - n1 - 1:
            self._skein_cascade_lo(n1)
            self._log("case2.skein-zigzag-lo", terminal=True)
            return ("zero",)
        elif i == m - n1 and n1 >= 1:
            self._log("case2.zero-xr", terminal=True)
            return ("zero",)
        elif i < m:
            self.Y.pop(0)
            moved = [X(k) for k in range(i - 2, m - n1 - 1, -1)]
            shifted2 = [X(k - 2) for k in range(m + 1, m + n2 + 1)]
            self.Y[0:0] = [R(i - 1)] + moved + shifted2
            self.n1 = m - 1 - i
            self.n2 = 0
            self._log("case2.type2-run1")
        elif i == m:
            return self._case2_sub5()
        elif i < m + n2:
            self.Y.pop(0)
            shifted2 = [X(k - 2) for k in range(i + 2, m + n2 + 1)]
            self.Y[0:0] = [R(i + 1)] + shifted2
            self.n2 = i - 1 - m
            self._log("case2.type2-run2")
        elif i == m + n2 and n2 >= 1:
            self._log("case2.zero-xr", terminal=True)
            return ("zero",)
        elif i == m + n2 + 1:
            self._skein_cascade_hi(n2)
            self._log("case2.skein-zigzag-hi", terminal=True)
            return ("zero",)
        else:
            self.Y.pop(0)
            self.X.append(R(i - 2))
            self.n_strands -= 2
            self._log("case2.absorb-above")
        return None

    def _case2_sub5(self):
        z = LaurentPoly1.z
        m, n1, n2 = self.m, self.n1, self.n2
        self.Y.pop(0)
        if n1 == 0 and n2 == 0:
            self._log("case2.split-eye", terminal=True)
            return ("recurse", z(-1), tuple(self.X + self.Y))
        if n2 == 0:
            rest1 = [X(i) for i in range(m - 2, m - n1 - 1, -1)]
            self._log("case2.type1-lo", terminal=True)
            return ("recurse", LaurentPoly1.one(), tuple(self.X + rest1 + self.Y))
        if n1 == 0:
            rest2 = [X(i - 2) for i in range(m + 2, m + n2 + 1)]
            self._log("case2.type1-hi", terminal=True)
            return ("recurse", LaurentPoly1.one(), tuple(self.X + rest2 + self.Y))
        rest1 = [X(i) for i in range(m - 2, m - n1 - 1, -1)]
        rest2 = [X(i - 2) for i in range(m + 2, m + n2 + 1)]
        self._emit(z(1), self.X + [L(m), X(m + 1), R(m)] + rest1 + rest2 + self.Y)
        self._emit(z(1, -1), self.X + [L(m - 1), X(m + 1), R(m)] + rest1 + rest2 + self.Y)
        self.Y[0:0] = [R(m + 1)] + rest1 + rest2
        self.m -= 1
        self.n1 = 0
        self.n2 = 0
        self._log("case2.skein-type2")
        return None


class _Evaluator:
    def __init__(self, memo: bool, fuel: int, trace):
        self.memo: dict[Letters, LaurentPoly1] | None = {} if memo else None
        self.budget = _Budget(fuel)
        self.trace = trace
        self.runs = 0

    def eval(self, letters: Letters) -> LaurentPoly1:
        key = None
        if self.memo is not None:
            key = canonicalize(FrontWord(letters)).letters if letters else ()
            cached = self.memo.get(key)
            if cached is not None:
                return cached
            letters = key
        value = self._compute(letters)
        if self.memo is not None:
            self.memo[key] = value
        return value

    def _compute(self, letters: Letters) -> LaurentPoly1:
        z = LaurentPoly1.z
        if not letters:
            return z(1)
        factors = _split_factors(letters)
        if len(factors) > 1:
            out = z(-(len(factors) - 1))
            for f in factors:
                out = out * self.eval(f)
            return out
        if _scan_zero(letters):
            return LaurentPoly1.zero()
        eye = _scan_eye(letters)
        if eye is not None:
            return z(-1) * self.eval(letters[:eye] + letters[eye + 2:])
        self.runs += 1
        machine = _Machine(letters, self.budget, self.trace, self.runs)
        result = machine.run()
        total = LaurentPoly1.zero()
        for coeff, side in machine.sides:
            total = total + coeff * self.eval(side)
        if result[0] == "recurse":
            _, coeff, rest = result
            total = total + coeff * self.eval(rest)
        return total


def evaluate_B(
    word: FrontWord,
    *,
    memo: bool = True,
    fuel: int | None = None,
    trace: list | None = None,
) -> LaurentPoly1:
    """Value of the ruling invariant computed purely by word rewriting."""
    ev = _Evaluator(memo, fuel if fuel is not None else default_fuel(), trace)
    try:
        return ev.eval(word.letters)
    except RecursionError:
        raise FuelExhausted(
            f"reduction nested deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
