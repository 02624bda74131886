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
skein relation.  The cases below the cusp (side d = -1, run1) mirror those
above it (d = +1, run2), so each is written once for d.  Three steps do not
mirror: a right cusp absorbed below also moves the cusp two strands down, a
Type 2 move inside run1 also carries run2 into Y (run2 follows run1 in the
word), and the Type 3 step always fires on run1.

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
N1 + N2 <= N - 2, the walk terminates; an ``errors.Budget`` of 10**6 units,
one per machine step and per memo-key miss, guards against bugs and slow keys.

Each word meets the rules in a fixed order, all read off one pass over its
raw letters (``_read_rules``): the split rule (a split union is the product
of its factors), then the empty word (value z, which makes the split rule
and the unknot value consistent), then a zero pattern, then an eye l_m r_m
(removed with a factor z^-1).  Only a word that none of them decides gets a
memo key and, on a miss, a machine run.  So a chain of eyes costs one lookup
per factor, and the memo holds only words the machine runs on.  The key,
built by ``canonicalize``, is one descent to a deterministic member of the
word's planar-isotopy commutation class, so words that share it share a
value.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .errors import Budget, FuelExhausted, InternalInconsistency
from .front import FrontWord, L, Letter, R, X, swap_adjacent_all
from .poly import LaurentPoly

Letters = tuple[Letter, ...]

_KIND_RANK = {"x": 0, "l": 1, "r": 2}


# ---------------------------------------------------------------------------
# Memo keys: one descent in the planar-isotopy commutation class


def _letter_key(letter: Letter) -> tuple[int, int]:
    return (_KIND_RANK[letter.kind], letter.index)


def _word_key(letters) -> tuple:
    return tuple(_letter_key(l) for l in letters)


@lru_cache(maxsize=4096)
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
    for i in range(len(letters)):
        # one depth-first walk per moving letter; ``passed`` holds the letters
        # it has moved past, nearest first, and is cut back on each branch
        passed: list[Letter] = []
        branches: list[tuple[int, Letter, Letter]] = []
        j, moving = i, letters[i]
        while True:
            forms = swap_adjacent_all(letters[j - 1], moving) if j else None
            if forms:
                branches.extend((j - 1, *alt) for alt in forms[1:])
                moving, transformed = forms[0]
                passed.append(transformed)
                j -= 1
                continue
            if j == 0:
                out.add((moving, tuple(reversed(passed)) + letters[i + 1:]))
            if not branches:
                break
            j, moving, transformed = branches.pop()
            del passed[i - j - 1:]
            passed.append(transformed)
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


def canonicalize(letters: Letters, budget: Budget) -> Letters:
    """The memo key of a word: one descent in its commutation class.

    Takes a least possible first letter (crossings before left cusps before
    right cusps, ties by index) over every commutation path, closed under
    rewrites of the leading pair, then keeps the lexicographically least
    word over the descents of the remainders.  Each word minimized afresh
    spends one step of ``budget``.  The key has the word's value, but one
    class may split across several keys: a descent need not reach a fixed
    point, and floating split pieces may reach the lexicographic minimum
    only through larger intermediates.  That costs memo entries, never
    wrong values.
    """
    return _minimize(letters, {}, budget)


def _minimize(letters: Letters, memo: dict[Letters, Letters], budget: Budget) -> Letters:
    if not letters:
        return letters
    cached = memo.get(letters)
    if cached is not None:
        return cached
    budget.spend()
    candidates = _front_candidates(letters)
    best_front_key = min(_letter_key(front) for front, _ in candidates)
    best = None
    for front, rest in candidates:
        if _letter_key(front) != best_front_key:
            continue
        full = (front,) + _minimize(rest, memo, budget)
        if best is None or _word_key(full) < _word_key(best):
            best = full
    memo[letters] = best
    return best


# ---------------------------------------------------------------------------
# The reduction machine


def _read_rules(letters: Letters) -> tuple[list[int], bool, int | None]:
    """The split, zero and eye rules of a word, read off one pass.

    Returns the cuts between split factors (each position before the end
    where the strand count returns to 0), whether a zero pattern occurs
    (l_m x_m, x_m r_m, or l_m r_(m+-1)), and the position of the first eye
    l_m r_m, or None.
    """
    cuts = []
    zero = False
    eye = None
    n = 0
    prev_kind, prev_index = "", 0
    for t, (kind, index) in enumerate(letters):
        if kind == "l":
            n += 2
        elif kind == "x":
            if prev_kind == "l" and index == prev_index:
                zero = True
        else:
            n -= 2
            if n == 0:
                cuts.append(t + 1)
            if prev_kind == "l":
                if index == prev_index:
                    if eye is None:
                        eye = t - 1
                elif abs(index - prev_index) == 1:
                    zero = True
            elif prev_kind == "x" and index == prev_index:
                zero = True
        prev_kind, prev_index = kind, index
    if cuts:
        cuts.pop()  # the end of the word
    return cuts, zero, eye


# A step's return when the run goes on.
_GO_ON = object()

# The words that name side d in rule names: beyond run d, run d, its end.
_SIDE_WORDS = {-1: ("below", "run1", "lo"), +1: ("above", "run2", "hi")}


class _Machine:
    """One run of the rightmost-cusp reduction on a single word.

    The runs are keyed by side: ``n[-1]`` is N1 (run1, below the cusp) and
    ``n[+1]`` is N2 (run2, above it).  A head letter lies on side d at
    distance k = (i - m) * d from the cusp; at the cusp, d is the side of the
    non-empty run, if only one is.  Moved left past l_m, a letter on side d
    drops 1 + d in index: none below the cusp, two above it.
    """

    def __init__(self, letters: Letters, budget: Budget, trace, run_id: int):
        # one pass for the rightmost left cusp t0, the strands it adds to and
        # the left-cusp count
        t0 = n_before = L_count = n = 0
        for t, (kind, _) in enumerate(letters):
            if kind == "l":
                t0, n_before = t, n
                L_count += 1
                n += 2
            elif kind == "r":
                n -= 2
        self.X = list(letters[:t0])
        self.m = letters[t0].index
        self.n_strands = n_before + 2
        self.n = {-1: 0, +1: 0}
        self.Y = list(letters[t0 + 1:])
        self.L_count = L_count
        self.sides: list[tuple[LaurentPoly, Letters]] = []
        self.budget = budget
        self.trace = trace
        self.run_id = run_id
        self._log("start")

    # -- bookkeeping

    def _run(self, d: int) -> list[Letter]:
        """Run d, from the cusp outward: x_(m+d), x_(m+2d), .."""
        return [X(self.m + d * j) for j in range(1, self.n[d] + 1)]

    def _measure(self) -> tuple[int, int]:
        cr_suffix = self.n[-1] + self.n[+1] + sum(1 for let in self.Y if let.kind == "x")
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
                "N1": self.n[-1],
                "N2": self.n[+1],
                "terminal": terminal,
            }
        )

    # -- the skein relation, the only source of side words

    def _skein(self, d: int, times: int) -> None:
        """Apply the skein relation to l_m x_(m+d), d = -1 or +1, ``times`` times.

        x_(m+d) is the first crossing of run d.  The side words z [X l_m rest]
        and -z [X l_(m+d) rest] go to ``sides``; the main word is the normal
        form at cusp m+d, with run d one crossing shorter and the other one
        crossing longer.
        """
        z = LaurentPoly.monomial
        for _ in range(times):
            below, above = self._run(-1), self._run(+1)
            rest = (below[1:] + above if d < 0 else below + above[1:]) + self.Y
            self.sides.append((z(1), tuple(self.X + [L(self.m)] + rest)))
            self.sides.append((z(1, 0, -1), tuple(self.X + [L(self.m + d)] + rest)))
            self.m += d
            self.n[d] -= 1
            self.n[-d] += 1

    # -- the dispatch loop; returns None for a zero, or (coeff, letters) when
    #    the value is the sides plus coeff * value(letters)

    def run(self):
        while True:
            self.budget.spend()
            if not self.Y:
                raise InternalInconsistency("reduction ran out of suffix")
            head = self.Y[0]
            if head.kind == "l":
                raise InternalInconsistency("left cusp after the rightmost left cusp")
            if head.index != self.m:
                d = -1 if head.index < self.m else +1
            elif self.n[-1] and self.n[+1]:
                # the Type 3 step: the head stays and now lies inside run2
                # (see the module docstring)
                self._skein(-1, 1)
                self._log("case1.skein-type3" if head.kind == "x" else "case2.skein-type2")
                continue
            else:
                d = -1 if self.n[-1] else +1
            k = (head.index - self.m) * d
            step = self._crossing if head.kind == "x" else self._right_cusp
            result = step(head.index, d, k)
            if result is not _GO_ON:
                return result

    def _crossing(self, i: int, d: int, k: int):
        n = self.n[d]
        beyond, run, end = _SIDE_WORDS[d]
        if k == 0:
            if n == 0:
                self._log("case1.zero-lx", terminal=True)
                return None
            self.Y.pop(0)
            self.m += d
            self.n[d] -= 1
            self._log(f"case1.type2-{end}")
        elif k == n:
            self._skein(d, n)
            self.Y.pop(0)
            # now cusp m + n d with run d empty; finish with the Type 2 move
            self.m -= d
            self.n[-d] -= 1
            self._log(f"case1.skein-type2-{end}")
        elif k < n:
            self.Y.pop(0)
            self.X.append(X(i - 1))
            self._log(f"case1.braid-slide-{run}")
        elif k == n + 1:
            self.Y.pop(0)
            self.n[d] += 1
            self._log(f"case1.grow-{run}")
        else:
            self.Y.pop(0)
            self.X.append(X(i - 1 - d))
            self._log(f"case1.absorb-{beyond}")
        return _GO_ON

    def _right_cusp(self, i: int, d: int, k: int):
        n = self.n[d]
        beyond, run, end = _SIDE_WORDS[d]
        if k == 0:
            self.Y.pop(0)
            if n == 0:
                self._log("case2.split-eye", terminal=True)
                return (LaurentPoly.monomial(-1), tuple(self.X + self.Y))
            rest = [X(c.index - 1 - d) for c in self._run(d)[1:]]
            self._log(f"case2.type1-{end}", terminal=True)
            return (LaurentPoly.one(), tuple(self.X + rest + self.Y))
        if k == n:
            self._log("case2.zero-xr", terminal=True)
            return None
        if k == n + 1:
            self._skein(d, n)
            self._log(f"case2.skein-zigzag-{end}", terminal=True)
            return None
        self.Y.pop(0)
        if k > n + 1:
            self.X.append(R(i - 1 - d))
            self.n_strands -= 2
            if d < 0:
                self.m -= 2
            self._log(f"case2.absorb-{beyond}")
            return _GO_ON
        # x_i x_(i+d) r_i = r_(i+d): run d keeps its first k - 1 crossings and
        # the rest follow r_(i+d) into Y; below the cusp run2 follows too,
        # since r_i had to pass it first
        tail = [X(c.index - 1 - d) for c in self._run(d)[k + 1:]]
        if d < 0:
            tail += [X(c.index - 2) for c in self._run(+1)]
            self.n[+1] = 0
        self.Y[0:0] = [R(i + d)] + tail
        self.n[d] = k - 1
        self._log(f"case2.type2-{run}")
        return _GO_ON


class _Evaluator:
    def __init__(self, memo: bool, trace):
        self.memo: dict[Letters, LaurentPoly] | None = {} if memo else None
        self.budget = Budget()
        self.trace = trace
        self.runs = 0

    def eval(self, letters: Letters) -> LaurentPoly:
        # The split, empty, zero and eye rules read the raw letters, so only
        # words that the machine must run on reach the memo key.
        cuts, zero, eye = _read_rules(letters)
        if cuts:
            out = LaurentPoly.monomial(-len(cuts))
            for start, end in zip([0, *cuts], [*cuts, len(letters)]):
                out = out * self.eval(letters[start:end])
            return out
        if not letters:
            return LaurentPoly.monomial(1)
        if zero:
            return LaurentPoly.zero()
        if eye is not None:
            return LaurentPoly.monomial(-1) * self.eval(letters[:eye] + letters[eye + 2:])
        if self.memo is None:
            return self._compute(letters)
        key = canonicalize(letters, self.budget)
        if key not in self.memo:
            self.memo[key] = self._compute(key)
        return self.memo[key]

    def _compute(self, letters: Letters) -> LaurentPoly:
        self.runs += 1
        machine = _Machine(letters, self.budget, self.trace, self.runs)
        rest = machine.run()
        total = LaurentPoly.zero()
        for coeff, side in machine.sides:
            total = total + coeff * self.eval(side)
        if rest is not None:
            coeff, remainder = rest
            total = total + coeff * self.eval(remainder)
        return total


def evaluate_B(
    word: FrontWord,
    *,
    memo: bool = True,
    trace: list | None = None,
) -> LaurentPoly:
    """Value of the ruling invariant computed purely by word rewriting."""
    ev = _Evaluator(memo, trace)
    try:
        return ev.eval(word.letters)
    except RecursionError:
        raise FuelExhausted(
            f"reduction nested deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
