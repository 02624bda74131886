"""Front diagrams of Legendrian links as words in elementary tangles.

A closed front is written left to right as a word in the letters

* ``l<m>`` -- left cusp inserted between strands m-1 and m (two new strands
  appear at positions m, m+1); valid for 1 <= m <= N+1 on N incoming strands;
* ``x<m>`` -- crossing of the strands at positions m, m+1; 1 <= m <= N-1;
* ``r<m>`` -- right cusp closing the strands at positions m, m+1;
  1 <= m <= N-1.

Strand positions are numbered 1..N from the top (position 1 is the highest).
A word is closed when the strand count starts and ends at 0 and every letter
index is in bounds.

Orientations assign each strand segment a horizontal travel direction
(RIGHT/LEFT).  Directions reverse at cusps and persist through crossings.
The default orientation of a component makes the upper strand at its first
left cusp travel RIGHT.  A crossing is positive exactly when its two strands
travel the same horizontal direction; the writhe is the signed crossing
count, and the Bennequin number is ``beta = w - c`` with ``c`` the number of
left cusps.

All values here are immutable after construction and every operation is
pure, so they are safe to share between threads.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

from .errors import BadArgument, FrontError, MoveNotApplicable, ParseError

RIGHT = 1
LEFT = -1


class Letter(NamedTuple):
    kind: str  # "l" | "x" | "r"
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def L(m: int) -> Letter:
    return Letter("l", m)


def X(m: int) -> Letter:
    return Letter("x", m)


def R(m: int) -> Letter:
    return Letter("r", m)


def _letter_from_token(tok: str, line: int, col: int) -> Letter:
    kind, digits = tok[:1], tok[1:]
    if kind not in ("l", "x", "r") or not (digits.isascii() and digits.isdigit()):
        raise ParseError("UNKNOWN_TOKEN", f"unknown token {tok!r}", line=line, col=col)
    index = int(digits)
    if index < 1:
        raise ParseError("INDEX_OUT_OF_RANGE", f"index must be positive in {tok!r}", line=line, col=col)
    return Letter(kind, index)


_LETTER_DELTA = {"l": 2, "x": 0, "r": -2}


def strand_counts(letters: Iterable[Letter]) -> list[int]:
    """Strand count before each letter, plus the final count."""
    # A list, not tuple(accumulate(...)): tuple() over an iterator of unknown
    # length allocates at a guessed size and resizes, so the tuples it frees
    # pile up on the free list of their final length (up to 2000 a length).
    return list(accumulate((_LETTER_DELTA[let.kind] for let in letters), initial=0))


def _check_letter(letter: Letter, n: int) -> bool:
    """Is ``letter`` applicable on n incoming strands?"""
    m = letter.index
    if letter.kind == "l":
        return 1 <= m <= n + 1
    return 1 <= m <= n - 1


class FrontWord:
    """A validated closed front word, compared and hashed by its letters.

    The constructor raises ParseError (INDEX_OUT_OF_RANGE or NOT_CLOSED) on
    letters that do not form a closed front; assignment is refused.
    """

    __slots__ = ("letters",)
    letters: tuple[Letter, ...]

    def __init__(self, letters: tuple[Letter, ...]):
        n = 0
        for pos, let in enumerate(letters):
            if not _check_letter(let, n):
                raise ParseError(
                    "INDEX_OUT_OF_RANGE",
                    f"letter {let} out of range on {n} strands (word position {pos})",
                )
            n += _LETTER_DELTA[let.kind]
        if n != 0:
            raise ParseError("NOT_CLOSED", f"final strand count is {n}, expected 0")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable FrontWord")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable FrontWord")

    def __reduce__(self):
        return FrontWord, (self.letters,)

    def __eq__(self, other):
        if other.__class__ is FrontWord:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"FrontWord(letters={self.letters!r})"

    @property
    def strand_counts(self) -> tuple[int, ...]:
        """Strand count before each letter, plus the final count."""
        return tuple(strand_counts(self.letters))

    @property
    def num_crossings(self) -> int:
        return sum(1 for let in self.letters if let.kind == "x")

    @property
    def num_left_cusps(self) -> int:
        return sum(1 for let in self.letters if let.kind == "l")

    def render(self) -> str:
        return " ".join(str(let) for let in self.letters)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.letters)

    def concat(self, other: "FrontWord") -> "FrontWord":
        """Horizontal split union (place ``other`` to the right)."""
        return FrontWord(self.letters + other.letters)


def parse_front(text: str) -> FrontWord:
    """Parse a whitespace-separated token stream into a validated FrontWord.

    Lines starting with ``#`` are comments.  Raises ParseError with codes
    UNKNOWN_TOKEN, INDEX_OUT_OF_RANGE or NOT_CLOSED.
    """
    letters: list[Letter] = []
    # One Letter per distinct token; the range check still runs per token.
    parsed: dict[str, Letter] = {}
    n = 0
    for lineno, line in enumerate(text.splitlines() or [text], start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            let = parsed.get(tok)
            if let is None:
                let = parsed[tok] = _letter_from_token(tok, lineno, col + 1)
            if not _check_letter(let, n):
                raise ParseError(
                    "INDEX_OUT_OF_RANGE",
                    f"letter {let} out of range on {n} strands",
                    line=lineno,
                    col=col + 1,
                )
            letters.append(let)
            n += _LETTER_DELTA[let.kind]
            col += len(tok)
    if n != 0:
        raise ParseError("NOT_CLOSED", f"final strand count is {n}, expected 0")
    if not letters:
        raise ParseError("NOT_CLOSED", "empty front")
    # Every letter was checked above, so the word skips FrontWord's own pass.
    word = object.__new__(FrontWord)
    object.__setattr__(word, "letters", tuple(letters))
    return word


def parse_front_file(text: str) -> tuple[FrontWord, dict[int, bool]]:
    """Parse a ``.front`` file: comments, optional ``orient:`` header, tokens.

    The header ``orient: 1=+,2=-`` assigns per-component direction flags
    (``+`` is the default direction, ``-`` the reverse).  Returns the word
    and the flag mapping.
    """
    flags: dict[int, bool] = {}
    token_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("orient:"):
            body = stripped[len("orient:"):].strip()
            if body:
                for item in body.split(","):
                    comp, _, sign = item.strip().partition("=")
                    if sign not in ("+", "-") or not (comp.isascii() and comp.isdigit()):
                        raise ParseError("UNKNOWN_TOKEN", f"bad orient entry {item!r}")
                    flags[int(comp)] = sign == "+"
            token_lines.append("")
        else:
            token_lines.append(line)
    word = parse_front("\n".join(token_lines))
    n = components(word).n_components
    for comp in flags:
        if not 1 <= comp <= n:
            raise ParseError(
                "INDEX_OUT_OF_RANGE", f"orient entry for component {comp}; the front has {n}"
            )
    return word, flags


# ---------------------------------------------------------------------------
# Strand identity, components, orientation


class Occupancy(NamedTuple):
    """Persistent strand ids through the sweep of a word.

    ``slices[t]`` lists the strand ids at positions 1..N just before letter
    t; ids are assigned in birth order, upper strand of each cusp first.
    """

    slices: tuple[tuple[int, ...], ...]
    n_strands: int
    left_cusps: tuple[tuple[int, tuple[int, int]], ...]   # (letter pos, (upper, lower))
    right_cusps: tuple[tuple[int, tuple[int, int]], ...]  # (letter pos, (upper, lower))
    crossing_pairs: tuple[tuple[int, tuple[int, int]], ...]  # (letter pos, (upper, lower))


@lru_cache(maxsize=4096)
def occupancy(word: FrontWord) -> Occupancy:
    occ: list[int] = []
    slices = [tuple(occ)]
    lefts = []
    rights = []
    pairs = []
    next_id = 0
    for t, let in enumerate(word.letters):
        m = let.index
        if let.kind == "l":
            u, v = next_id, next_id + 1
            next_id += 2
            occ[m - 1:m - 1] = [u, v]
            lefts.append((t, (u, v)))
        elif let.kind == "x":
            pairs.append((t, (occ[m - 1], occ[m])))
            occ[m - 1], occ[m] = occ[m], occ[m - 1]
        else:
            rights.append((t, (occ[m - 1], occ[m])))
            del occ[m - 1:m + 1]
        slices.append(tuple(occ))
    return Occupancy(tuple(slices), next_id, tuple(lefts), tuple(rights), tuple(pairs))


class Components(NamedTuple):
    """The link components of a word and their default orientation.

    Components are numbered 1.. by the word position of their first left
    cusp.  ``dirs`` is the default direction of every strand: the upper
    strand at each component's first left cusp travels RIGHT, and the
    direction flips at every cusp along the component.
    """

    comp_of: tuple[int, ...]       # strand id -> 1-based component id
    n_components: int
    dirs: tuple[int, ...]          # strand id -> RIGHT or LEFT, default orientation


@lru_cache(maxsize=4096)
def components(word: FrontWord) -> Components:
    """Walk each component's cusp cycle once, from its first left cusp."""
    occ = occupancy(word)
    n = occ.n_strands
    right_mate = [0] * n
    for _, (u, v) in occ.right_cusps:
        right_mate[u], right_mate[v] = v, u
    comp_of = [0] * n
    dirs = [0] * n
    k = 0
    # Strand ids go in birth order, so the left cusps' upper strands are the
    # even ids in word order and the left-cusp mate of strand s is s ^ 1.
    for start in range(0, n, 2):
        if comp_of[start]:
            continue
        k += 1
        s = start
        while not comp_of[s]:
            e = right_mate[s]
            comp_of[s] = comp_of[e] = k
            dirs[s], dirs[e] = RIGHT, LEFT
            s = e ^ 1
    return Components(tuple(comp_of), k, tuple(dirs))


class OrientedFront(NamedTuple):
    """A front word with a consistent travel direction on every strand."""

    word: FrontWord
    dirs: tuple[int, ...]          # strand id -> RIGHT or LEFT
    choices: tuple[bool, ...]      # per component: True = default direction

    @property
    def n_components(self) -> int:
        return len(self.choices)


def orient(word: FrontWord, choices: Mapping[int, bool] | None = None) -> OrientedFront:
    """Assign directions; ``choices`` maps component id -> flag (True=default).

    Missing components take the default (``Components.dirs``); a component
    whose flag is False has every strand's default direction negated.
    """
    comp = components(word)
    flags = tuple(
        (choices or {}).get(cid, True) for cid in range(1, comp.n_components + 1)
    )
    dirs = comp.dirs
    if not all(flags):
        dirs = tuple([d if flags[c - 1] else -d for d, c in zip(dirs, comp.comp_of)])
    return OrientedFront(word, dirs, flags)


def all_orientations(word: FrontWord) -> list[OrientedFront]:
    """All 2^k orientation choices, default-first, in lexicographic order."""
    k = components(word).n_components
    outs = []
    for bits in range(2 ** k):
        choices = {cid: not (bits >> (cid - 1)) & 1 for cid in range(1, k + 1)}
        outs.append(orient(word, choices))
    return outs


class FrontInvariants(NamedTuple):
    c: int
    cr: int
    w: int
    beta: int
    r: int


def crossing_signs(of: OrientedFront) -> tuple[int, ...]:
    """+1 for each co-directed crossing, -1 otherwise, in word order."""
    occ = occupancy(of.word)
    signs = []
    for _, (upper, lower) in occ.crossing_pairs:
        signs.append(1 if of.dirs[upper] == of.dirs[lower] else -1)
    return tuple(signs)


def invariants(of: OrientedFront | FrontWord) -> FrontInvariants:
    """Classical invariants c, cr, w, beta = w - c, and rotation number r.

    The rotation number counts cusps by traversal direction: at each cusp the
    strand travelling toward the cusp enters and the other leaves; a cusp
    traversed downward (upper strand in) counts +1, upward -1, and r is half
    the total.  It negates under orientation reversal of a component.
    """
    if isinstance(of, FrontWord):
        of = orient(of)
    word = of.word
    occ = occupancy(word)
    c = len(occ.left_cusps)
    cr = len(occ.crossing_pairs)
    w = sum(crossing_signs(of))
    down = up = 0
    for _, (upper, _) in occ.left_cusps:
        # Upper strand travelling LEFT means the traversal enters on it.
        if of.dirs[upper] == LEFT:
            down += 1
        else:
            up += 1
    for _, (upper, _) in occ.right_cusps:
        if of.dirs[upper] == RIGHT:
            down += 1
        else:
            up += 1
    return FrontInvariants(c, cr, w, w - c, (down - up) // 2)


# ---------------------------------------------------------------------------
# Planar-isotopy commutations (shared by moves and the rewrite evaluator)


def swap_adjacent_all(first: Letter, second: Letter) -> tuple[tuple[Letter, Letter], ...]:
    """All ways to commute two adjacent letters by planar isotopy.

    Indices shift when a letter slides past a cusp.  The result usually has
    zero or one entries; an adjacent right cusp followed by a left cusp at
    the same index commutes two ways (the new cusp may pass above or below
    the dying pair).
    """
    a, b = first.index, second.index
    k1, k2 = first.kind, second.kind
    out: list[tuple[Letter, Letter]] = []
    if k1 == "x" and k2 == "x":
        if abs(a - b) >= 2:
            out.append((second, first))
    elif k1 == "l" and k2 == "x":
        if a >= b + 2:
            out.append((X(b), first))
        elif b >= a + 2:
            out.append((X(b - 2), first))
    elif k1 == "x" and k2 == "l":
        if b >= a + 2:
            out.append((second, first))
        elif a >= b:
            out.append((second, X(a + 2)))
    elif k1 == "x" and k2 == "r":
        if b >= a + 2:
            out.append((second, first))
        elif a >= b + 2:
            out.append((second, X(a - 2)))
    elif k1 == "r" and k2 == "x":
        if a >= b + 2:
            out.append((X(b), first))
        elif b >= a:
            out.append((X(b + 2), first))
    elif k1 == "l" and k2 == "l":
        if b >= a + 2:
            out.append((L(b - 2), first))
        elif a >= b:
            out.append((second, L(a + 2)))
    elif k1 == "r" and k2 == "r":
        if a >= b + 2:
            out.append((second, R(a - 2)))
        elif b >= a:
            out.append((R(b + 2), first))
    elif k1 == "r" and k2 == "l":
        if a >= b:
            out.append((second, R(a + 2)))
        if b >= a:
            out.append((L(b + 2), first))
    elif k1 == "l" and k2 == "r":
        if b >= a + 2:
            out.append((R(b - 2), first))
        elif a >= b + 2:
            out.append((second, L(a - 2)))
    return tuple(out)


def swap_adjacent(first: Letter, second: Letter) -> tuple[Letter, Letter] | None:
    """One commuted form of an adjacent pair, or None when the pair is rigid."""
    forms = swap_adjacent_all(first, second)
    return forms[0] if forms else None


# ---------------------------------------------------------------------------
# Legendrian moves


MOVE_RULES = ("comm", "type1_lo", "type1_hi", "type2_lo", "type2_hi", "type3")


def apply_move(
    word: FrontWord,
    rule: str,
    site: int,
    *,
    inverse: bool = False,
    m: int | None = None,
) -> FrontWord:
    """Apply one relation at ``site`` (index into the word).

    Rules: ``comm`` (adjacent planar-isotopy commutation), ``type1_lo``
    (l_m x_{m-1} r_m = id), ``type1_hi`` (l_m x_{m+1} r_m = id), ``type2_lo``
    (l_{m-1} x_m x_{m-1} = l_m), ``type2_hi`` (l_{m+1} x_m x_{m+1} = l_m) and
    ``type3`` (x_{m+1} x_m x_{m+1} = x_m x_{m+1} x_m).  ``inverse`` applies
    right-to-left; insertion moves (inverse type1, inverse type2) need ``m``.
    Raises MoveNotApplicable when the pattern is absent at the site.
    """
    letters = list(word.letters)

    def fail(msg: str):
        raise MoveNotApplicable(f"{rule} at {site}: {msg}")

    if rule == "comm":
        if not 0 <= site < len(letters) - 1:
            fail("site out of range")
        swapped = swap_adjacent(letters[site], letters[site + 1])
        if swapped is None:
            fail("letters do not commute")
        letters[site:site + 2] = list(swapped)
    elif rule in ("type1_lo", "type1_hi"):
        off = -1 if rule == "type1_lo" else 1
        if inverse:
            if m is None:
                fail("insertion needs m")
            if not 0 <= site <= len(letters):
                fail("site out of range")
            letters[site:site] = [L(m), X(m + off), R(m)]
        else:
            pat = letters[site:site + 3]
            if len(pat) != 3:
                fail("site out of range")
            lm, xm, rm = pat
            if not (lm.kind == "l" and xm.kind == "x" and rm.kind == "r"
                    and rm.index == lm.index and xm.index == lm.index + off):
                fail("pattern absent")
            del letters[site:site + 3]
    elif rule in ("type2_lo", "type2_hi"):
        off = -1 if rule == "type2_lo" else 1
        if inverse:
            pat = letters[site:site + 1]
            if len(pat) != 1 or pat[0].kind != "l":
                fail("pattern absent")
            mm = pat[0].index
            letters[site:site + 1] = [L(mm + off), X(mm), X(mm + off)]
        else:
            pat = letters[site:site + 3]
            if len(pat) != 3:
                fail("site out of range")
            la, xb, xc = pat
            if not (la.kind == "l" and xb.kind == "x" and xc.kind == "x"
                    and la.index == xc.index and xb.index == la.index - off):
                fail("pattern absent")
            letters[site:site + 3] = [L(xb.index)]
    elif rule == "type3":
        pat = letters[site:site + 3]
        if len(pat) != 3:
            fail("site out of range")
        xa, xb, xc = pat
        if not (xa.kind == xb.kind == xc.kind == "x"
                and xa.index == xc.index and abs(xa.index - xb.index) == 1):
            fail("pattern absent")
        letters[site:site + 3] = [X(xb.index), X(xa.index), X(xb.index)]
    else:
        fail(f"unknown rule {rule!r}")

    try:
        return FrontWord(tuple(letters))
    except FrontError as exc:
        raise MoveNotApplicable(f"{rule} at {site}: result invalid ({exc})") from exc


class Move(NamedTuple):
    rule: str
    site: int
    inverse: bool = False
    m: int | None = None

    def as_str(self) -> str:
        s = f"{self.rule}@{self.site}"
        if self.inverse:
            s += ",inverse"
        if self.m is not None:
            s += f",m={self.m}"
        return s


def applicable_moves(word: FrontWord, *, include_insertions: bool = True) -> list[Move]:
    """Enumerate applicable moves in deterministic order (test/driver use)."""
    out: list[Move] = []
    counts = word.strand_counts
    for site in range(len(word.letters) - 1):
        if swap_adjacent(word.letters[site], word.letters[site + 1]) is not None:
            out.append(Move("comm", site))
    for rule in ("type1_lo", "type1_hi", "type2_lo", "type2_hi", "type3"):
        for site in range(len(word.letters)):
            try:
                apply_move(word, rule, site)
            except FrontError:
                pass
            else:
                out.append(Move(rule, site))
    for site in range(len(word.letters)):
        try:
            apply_move(word, "type2_lo", site, inverse=True)
        except FrontError:
            pass
        else:
            out.append(Move("type2_lo", site, inverse=True))
        try:
            apply_move(word, "type2_hi", site, inverse=True)
        except FrontError:
            pass
        else:
            out.append(Move("type2_hi", site, inverse=True))
    if include_insertions:
        for site in range(len(word.letters) + 1):
            n = counts[site]
            for mm in range(2, n + 2):
                out.append(Move("type1_lo", site, inverse=True, m=mm))
            for mm in range(1, n + 1):
                out.append(Move("type1_hi", site, inverse=True, m=mm))
    return out


def random_move_sequence(word: FrontWord, n_moves: int, seed: int) -> tuple[FrontWord, list[Move]]:
    """Apply ``n_moves`` randomly sampled applicable moves (seeded).

    Moves are drawn by rejection sampling over (rule, site, parameters), so
    long sequences stay cheap on larger words.
    """
    rng = random.Random(seed)
    rules = list(MOVE_RULES)
    applied = []
    current = word
    for _ in range(n_moves):
        found = None
        for _attempt in range(400):
            rule = rng.choice(rules)
            counts = current.strand_counts
            if rule == "comm":
                mv = Move("comm", rng.randrange(max(1, len(current.letters) - 1)))
            elif rule in ("type1_lo", "type1_hi"):
                if rng.random() < 0.5:
                    site = rng.randrange(len(current.letters) + 1)
                    n = counts[site]
                    lo, hi = (2, n + 1) if rule == "type1_lo" else (1, n)
                    if lo > hi:
                        continue
                    mv = Move(rule, site, inverse=True, m=rng.randint(lo, hi))
                else:
                    mv = Move(rule, rng.randrange(len(current.letters)))
            elif rule in ("type2_lo", "type2_hi"):
                inverse = rng.random() < 0.5
                mv = Move(rule, rng.randrange(len(current.letters)), inverse=inverse)
            else:
                mv = Move("type3", rng.randrange(max(1, len(current.letters))))
            try:
                nxt = apply_move(current, mv.rule, mv.site, inverse=mv.inverse, m=mv.m)
            except FrontError:
                continue
            found = (mv, nxt)
            break
        if found is None:
            break
        applied.append(found[0])
        current = found[1]
    return current, applied


def stabilize(word: FrontWord, gap: int, pos: int, flavor: str = "down") -> FrontWord:
    """Insert a zig-zag on the strand at position ``pos`` in word gap ``gap``.

    ``flavor="down"`` inserts ``l_pos r_{pos+1}``, ``"up"`` inserts
    ``l_{pos+1} r_pos``.  Adds one left cusp and no crossings, so beta drops
    by 1 and every ruling is destroyed.
    """
    counts = word.strand_counts
    if not 0 <= gap <= len(word.letters):
        raise BadArgument(f"gap {gap} out of range")
    n = counts[gap]
    if not 1 <= pos <= n:
        raise BadArgument(f"no strand at position {pos} in gap {gap}")
    if flavor == "down":
        insert = [L(pos), R(pos + 1)]
    elif flavor == "up":
        insert = [L(pos + 1), R(pos)]
    else:
        raise BadArgument(f"unknown flavor {flavor!r}")
    letters = list(word.letters)
    letters[gap:gap] = insert
    return FrontWord(tuple(letters))
