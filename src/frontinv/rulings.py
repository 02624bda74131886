"""Rulings of a front and the ruling polynomials.

A ruling is a set of crossings (switches) whose horizontal resolution splits
the front into eyes: components of two strands with one left cusp, one right
cusp, and no self crossings.  At every switch the two eyes must meet a
normality condition: seen in the vertical slice through the switch, the two
eyes are nested or disjoint, never interleaved.  An oriented ruling allows
switches only at positive (co-directed) crossings.

The ruling polynomial is the sum of z**(s - c + 1) over rulings with s
switches, where c is the number of left cusps.

Two independent implementations are provided.  A left-to-right sweep over
position pairings (:func:`sweep_step`) fills one table per front and
orientation (:func:`_live_steps`), which :func:`enumerate_rulings` walks
depth first and both polynomials walk forward.  A direct checker
(:func:`is_ruling`) resolves a candidate switch set and tests the defining
conditions literally; it shares no logic with the sweep and is its oracle.

The sweep's state is the pairing alone.  It reads an orientation only
through :func:`~frontinv.front.crossing_signs`, as the mask of crossings
where a switch may be taken, so reversing every component, which keeps
every sign, keeps the oriented rulings.  Building the table spends one unit
of an ``errors.Budget`` (10**6 units) per pairing reached before each letter.

Everything here is pure; enumeration order is deterministic (depth-first,
non-switch branch before switch).
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, NamedTuple

from .errors import Budget
from .front import FrontWord, Letter, OrientedFront, crossing_signs
from .poly import LaurentPoly


def _insert_pair(pairing: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Insert a new mutually-paired couple at 0-based positions m, m+1."""
    shifted = [p + 2 if p >= m else p for p in pairing]
    shifted[m:m] = [m + 1, m]
    return tuple(shifted)


def _delete_pair(pairing: tuple[int, ...], m: int) -> tuple[int, ...]:
    kept = [p for i, p in enumerate(pairing) if i not in (m, m + 1)]
    return tuple(p - 2 if p > m + 1 else p for p in kept)


def _swap(pairing: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Pairing after the strands at positions m, m+1 cross."""
    tau = lambda p: m + 1 if p == m else m if p == m + 1 else p
    out = [tau(pairing[tau(i)]) for i in range(len(pairing))]
    return tuple(out)


def _nested_or_disjoint(i: int, pi: int, j: int, pj: int) -> bool:
    """Whether the pairs {i, pi} and {j, pj} are nested or disjoint, given
    j > i: then {j, pj} cannot lie wholly below {i, pi}."""
    a = (min(i, pi), max(i, pi))
    b = (min(j, pj), max(j, pj))
    if a[1] < b[0]:
        return True
    return (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])


def sweep_step(
    pairing: tuple[int, ...], letter: Letter, switch: bool = False
) -> tuple[int, ...] | None:
    """Advance the sweep across one letter: the next pairing, or None when
    no ruling continues.

    ``pairing[i]`` is the 0-based position paired with position i, a fixed-
    point-free involution.  ``switch`` is read only at crossings.
    """
    m = letter.index - 1
    if letter.kind == "l":
        return _insert_pair(pairing, m)
    if letter.kind == "r":
        return _delete_pair(pairing, m) if pairing[m] == m + 1 else None
    if pairing[m] == m + 1:
        return None  # the two strands of one eye never cross
    if not switch:
        return _swap(pairing, m)
    if _nested_or_disjoint(m, pairing[m], m + 1, pairing[m + 1]):
        return pairing
    return None


class Ruling(NamedTuple):
    """A switch set, as 1-based crossing ordinals in increasing order."""

    switches: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.switches)


def _live_steps(word: FrontWord, of: OrientedFront | None) -> list[dict]:
    """Per letter, a map from every pairing that is reachable there and still
    ends in a ruling to its (plain, switched) next pairings; a step that
    leads to no ruling is None.  A ruling may switch at every crossing, or
    given an orientation ``of``, at its positive crossings only.  The
    sweep's one caller of :func:`sweep_step`; with no ruling, the first map
    is empty."""
    budget = Budget()
    positive = repeat(True) if of is None else (s == 1 for s in crossing_signs(of))
    steps = []
    reached: set[tuple[int, ...]] = {()}
    for let in word.letters:
        budget.spend(len(reached))
        may_switch = let.kind == "x" and next(positive)
        step = {
            p: (sweep_step(p, let), sweep_step(p, let, switch=True) if may_switch else None)
            for p in reached
        }
        steps.append(step)
        reached = {q for pair in step.values() for q in pair if q is not None}
    live = reached  # {()} or empty: a closed word ends with no strands
    for step in reversed(steps):
        for p, (plain, switched) in list(step.items()):
            plain = plain if plain in live else None
            switched = switched if switched in live else None
            if plain is None and switched is None:
                del step[p]
            else:
                step[p] = (plain, switched)
        live = set(step)
    return steps


def enumerate_rulings(word: FrontWord, of: OrientedFront | None = None) -> list[Ruling]:
    """All rulings, in depth-first order exploring non-switch before switch.

    Given an orientation ``of`` of the word, only its oriented rulings.  The
    walk enters only pairings that still end in a ruling, so past one pass
    over the reachable pairings its cost is at most the number of rulings
    times the word's length.
    """
    letters = word.letters
    steps = _live_steps(word, of)
    ordinals = tuple(accumulate(let.kind == "x" for let in letters))
    out: list[Ruling] = []
    # An explicit stack, so the depth of a word is not bounded by Python's
    # recursion limit.  The switch branch is pushed first and popped last.
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    if not steps or () in steps[0]:
        stack.append((0, (), ()))
    while stack:
        t, pairing, chosen = stack.pop()
        if t == len(letters):
            out.append(Ruling(chosen))
            continue
        plain, switched = steps[t][pairing]
        if switched is not None:
            stack.append((t + 1, switched, chosen + (ordinals[t],)))
        if plain is not None:
            stack.append((t + 1, plain, chosen))
    return out


def is_ruling(
    word: FrontWord,
    candidate: Iterable[int],
    of: OrientedFront | None = None,
) -> bool:
    """Direct check of the ruling conditions for a candidate switch set.

    The candidate is given as 1-based crossing ordinals.  The front is
    resolved at the switches, components of the resolution are traced, and
    each condition is tested literally: every component must be an eye (one
    left cusp, no self crossings), each switch joins two different eyes, and
    each switch is normal, the companion strands of the two eyes compared by
    vertical position at the switch slice.  Given an orientation ``of``,
    each switch must also join strands travelling the same way.  Independent
    of the sweep.
    """
    switches = set(candidate)
    n_crossings = word.num_crossings
    if any(not 1 <= s <= n_crossings for s in switches):
        return False

    # Resolve: strands keep their ids; switches leave positions unchanged,
    # plain crossings swap.  Record joins and switch slices.  Ids follow the
    # same birth order (upper first) as front.occupancy, so oriented fronts
    # index directions by the same numbering.
    occ_positions: list[int] = []
    next_id = 0
    joins: list[tuple[int, int]] = []
    left_cusp_of: dict[int, int] = {}  # strand id -> left-cusp ordinal (for counting)
    birth_dirs: dict[int, int] = {}
    self_cross_events: list[tuple[int, int]] = []
    switch_events: list[tuple[int, int, tuple[int, ...]]] = []  # (P, Q, slice)
    ordinal = 0
    n_lefts = 0
    for t, let in enumerate(word.letters):
        m = let.index - 1
        if let.kind == "l":
            u, v = next_id, next_id + 1
            next_id += 2
            occ_positions[m:m] = [u, v]
            joins.append((u, v))
            left_cusp_of[u] = n_lefts
            n_lefts += 1
        elif let.kind == "x":
            ordinal += 1
            P, Q = occ_positions[m], occ_positions[m + 1]
            if ordinal in switches:
                switch_events.append((P, Q, tuple(occ_positions)))
            else:
                self_cross_events.append((P, Q))
                occ_positions[m], occ_positions[m + 1] = Q, P
        else:
            joins.append((occ_positions[m], occ_positions[m + 1]))
            del occ_positions[m:m + 2]

    parent = list(range(next_id))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in joins:
        parent[find(u)] = find(v)

    comp_members: dict[int, list[int]] = {}
    for s in range(next_id):
        comp_members.setdefault(find(s), []).append(s)

    # (i) one left cusp per component, no self crossings.
    for members in comp_members.values():
        if sum(1 for s in members if s in left_cusp_of) != 1:
            return False
    for P, Q in self_cross_events:
        if find(P) == find(Q):
            return False

    # (ii) and (iii) per switch.
    for P, Q, snapshot in switch_events:
        if find(P) == find(Q):
            return False
        pos = {s: i for i, s in enumerate(snapshot)}
        P_mate = next(s for s in comp_members[find(P)] if s != P)
        Q_mate = next(s for s in comp_members[find(Q)] if s != Q)
        p_upper = pos[P] < pos[P_mate]
        q_upper = pos[Q] < pos[Q_mate]
        if not p_upper and q_upper:
            ok = True  # disjoint configuration
        elif p_upper and q_upper:
            ok = pos[P_mate] > pos[Q_mate]  # lower companion of P's eye below
        elif not p_upper and not q_upper:
            ok = pos[P_mate] > pos[Q_mate]  # upper companion of P's eye below
        else:
            ok = False
        if not ok:
            return False
        if of is not None and of.dirs[P] != of.dirs[Q]:
            return False
    return True


def enumerate_rulings_bruteforce(word: FrontWord, of: OrientedFront | None = None) -> list[Ruling]:
    """Exhaustive 2**cr filter through :func:`is_ruling` (oracle)."""
    cr = word.num_crossings
    out = []
    for bits in range(2 ** cr):
        cand = tuple(i + 1 for i in range(cr) if (bits >> i) & 1)
        if is_ruling(word, cand, of):
            out.append(Ruling(cand))
    return out


def _polynomial(word: FrontWord, of: OrientedFront | None) -> LaurentPoly:
    """A forward walk of the live table: equal pairings merge their weights,
    and a switch multiplies a weight by z."""
    steps = _live_steps(word, of)
    if steps and () not in steps[0]:
        return LaurentPoly.zero()
    current: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one()}
    for step in steps:
        nxt: dict[tuple[int, ...], LaurentPoly] = {}
        for pairing, weight in current.items():
            plain, switched = step[pairing]
            if plain is not None:
                nxt[plain] = nxt[plain] + weight if plain in nxt else weight
            if switched is not None:
                w = weight.shift(1)
                nxt[switched] = nxt[switched] + w if switched in nxt else w
        current = nxt
    return current[()].shift(1 - word.num_left_cusps)


def ruling_polynomial(word: FrontWord) -> LaurentPoly:
    """Sum of z**(s - c + 1) over all rulings."""
    return _polynomial(word, None)


def oriented_ruling_polynomial(of: OrientedFront) -> LaurentPoly:
    """As :func:`ruling_polynomial` but switches only at positive crossings."""
    return _polynomial(of.word, of)
