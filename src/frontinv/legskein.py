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
into X, grows a run, removes crossings with a Type 1/2 move, or fires the
skein relation.

The skein relation is built in one place, ``_Machine._skein``.  With d = -1
or +1 it reads

    X l_m x_{m+d} rest = X l_{m+d} x_m rest + z * [X l_m rest]
                                            - z * [X l_{m+d} rest]

(for d = -1 this is the relation above; for d = +1 it is the same relation
solved for its other side).  It fires on the first crossing of run1 (d = -1)
or of run2 (d = +1, after x_{m+1} commutes past run1).  The two bracketed
side words have one crossing fewer.  The main word is again in normal form,
at cusp m+d: the fired run is one crossing shorter, and x_m heads the other
run.

The Type 3 step follows from the relation alone.  When Y starts with x_m and
both runs are non-empty, the word is

    X l_m x_{m-1} rest1 (x_{m+1} .. x_{m+N2}) x_m Y'.

Firing the relation on l_m x_{m-1} leaves the main word

    X l_{m-1} rest1 (x_m x_{m+1} .. x_{m+N2}) x_m Y',

which has as many crossings as the input and still begins its suffix with
the head x_m.  So the head stays in Y: relative to cusp m-1 it now lies
inside run2, and the next dispatch slides it through run2 into X by a braid
move.  The side words keep the head too.  A head r_m with both runs
non-empty takes the same step, after which a Type 2 move removes r_m.

The lexicographic measure (L, M, -(N1 + N2), N1), with L the left-cusp
count and M = N + N1 + N2 + cr(Y), falls at every rewriting step.  Absorbs,
slides, Type 1/2 moves and skein cascades that end in a Type 2 move lower M.
Growing a run holds M and grows N1 + N2.  A lone skein step (Type 3, or its
twin before r_m) holds M and N1 + N2 and shortens run1.  Since
N1 + N2 <= N - 2, the walk terminates; a fuel counter guards against
implementation bugs.

Each word meets the rules in a fixed order, all read off its raw letters:
the split rule (a split union is the product of its factors), then the
empty word (value z, which makes the split rule and the unknot value
consistent), then a zero pattern, then an eye l_m r_m (removed with a
factor z^-1).  Only a word that none of them decides gets a memo key and,
on a miss, a machine run.  So a chain of eyes costs one lookup per factor,
and the memo holds only words the machine runs on.  Words equal up to
planar-isotopy commutations share a canonical form, which is the key.
"""

from __future__ import annotations

import sys

from .errors import FuelExhausted, InternalInconsistency
from .front import FrontWord, L, Letter, R, X, letter_delta, swap_adjacent_all
from .poly import LaurentPoly1

Letters = tuple[Letter, ...]

_KIND_RANK = {"x": 0, "l": 1, "r": 2}

_DEFAULT_FUEL = 1_000_000  # reduction steps per evaluate_B call


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

    # -- the skein relation, the only source of side words

    def _skein(self, d: int, times: int) -> None:
        """Apply the skein relation to l_m x_(m+d), d = -1 or +1, ``times`` times.

        x_(m+d) is the first crossing of run1 (d = -1) or run2 (d = +1).  The
        side words z [X l_m rest] and -z [X l_(m+d) rest] go to ``sides``; the
        main word is the normal form at cusp m+d, with the fired run one
        crossing shorter and the other one crossing longer.
        """
        z = LaurentPoly1.z
        for _ in range(times):
            r1, r2 = self._run1(), self._run2()
            rest = (r1[1:] + r2 if d < 0 else r1 + r2[1:]) + self.Y
            self.sides.append((z(1), tuple(self.X + [L(self.m)] + rest)))
            self.sides.append((z(1, -1), tuple(self.X + [L(self.m + d)] + rest)))
            self.m += d
            self.n1 += d
            self.n2 -= d

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
            self._skein(-1, n1)
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
            self._skein(+1, n2)
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
        n1, n2 = self.n1, self.n2
        if n1 == 0 and n2 == 0:
            self._log("case1.zero-lx", terminal=True)
            return ("zero",)
        if n2 == 0:
            self.Y.pop(0)
            self.m -= 1
            self.n1 -= 1
            self._log("case1.type2-lo")
        elif n1 == 0:
            self.Y.pop(0)
            self.m += 1
            self.n2 -= 1
            self._log("case1.type2-hi")
        else:
            # the head x_m stays: it now lies inside run2 (see the module docstring)
            self._skein(-1, 1)
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
            self._skein(-1, n1)
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
            self._skein(+1, n2)
            self._log("case2.skein-zigzag-hi", terminal=True)
            return ("zero",)
        else:
            self.Y.pop(0)
            self.X.append(R(i - 2))
            self.n_strands -= 2
            self._log("case2.absorb-above")
        return None

    def _case2_sub5(self):
        m, n1, n2 = self.m, self.n1, self.n2
        if n1 >= 1 and n2 >= 1:
            # as in Type 3, the head r_m stays and now lies inside run2
            self._skein(-1, 1)
            self._log("case2.skein-type2")
            return None
        self.Y.pop(0)
        if n1 == 0 and n2 == 0:
            self._log("case2.split-eye", terminal=True)
            return ("recurse", LaurentPoly1.z(-1), tuple(self.X + self.Y))
        if n2 == 0:
            rest1 = [X(i) for i in range(m - 2, m - n1 - 1, -1)]
            self._log("case2.type1-lo", terminal=True)
            return ("recurse", LaurentPoly1.one(), tuple(self.X + rest1 + self.Y))
        rest2 = [X(i - 2) for i in range(m + 2, m + n2 + 1)]
        self._log("case2.type1-hi", terminal=True)
        return ("recurse", LaurentPoly1.one(), tuple(self.X + rest2 + self.Y))


class _Evaluator:
    def __init__(self, memo: bool, fuel: int, trace):
        self.memo: dict[Letters, LaurentPoly1] | None = {} if memo else None
        self.budget = _Budget(fuel)
        self.trace = trace
        self.runs = 0

    def eval(self, letters: Letters) -> LaurentPoly1:
        # The split, empty, zero and eye rules read the raw letters, so only
        # words that the machine must run on reach the memo key.
        factors = _split_factors(letters)
        if len(factors) > 1:
            out = LaurentPoly1.z(1 - len(factors))
            for f in factors:
                out = out * self.eval(f)
            return out
        if not letters:
            return LaurentPoly1.z(1)
        if _scan_zero(letters):
            return LaurentPoly1.zero()
        eye = _scan_eye(letters)
        if eye is not None:
            return LaurentPoly1.z(-1) * self.eval(letters[:eye] + letters[eye + 2:])
        key = None
        if self.memo is not None:
            key = canonicalize(FrontWord(letters)).letters
            cached = self.memo.get(key)
            if cached is not None:
                return cached
            letters = key
        value = self._compute(letters)
        if self.memo is not None:
            self.memo[key] = value
        return value

    def _compute(self, letters: Letters) -> LaurentPoly1:
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
    ev = _Evaluator(memo, _DEFAULT_FUEL if fuel is None else fuel, trace)
    try:
        return ev.eval(word.letters)
    except RecursionError:
        raise FuelExhausted(
            f"reduction nested deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
