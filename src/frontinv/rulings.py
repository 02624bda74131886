"""Rulings of a front and the ruling polynomials.

A ruling is a set of crossings (switches) whose horizontal resolution splits
the front into eyes: components of two strands with one left cusp, one right
cusp, and no self crossings.  At every switch the two eyes must meet a
normality condition: seen in the vertical slice through the switch, the two
eyes are nested or disjoint, never interleaved.  An oriented ruling allows
switches only at positive (co-directed) crossings.

The ruling polynomial is the sum of z**(s - c + 1) over rulings with s
switches, where c is the number of left cusps.

Two independent implementations are provided: a left-to-right sweep over
position pairings (:func:`sweep_step`, :func:`enumerate_rulings`) and a
direct checker (:func:`is_ruling`) that resolves a candidate switch set and
tests the defining conditions literally.  The checker shares no logic with
the sweep and serves as its oracle.

Everything here is pure; enumeration order is deterministic (depth-first,
non-switch branch before switch).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .front import FrontWord, Letter, OrientedFront, occupancy
from .poly import LaurentPoly


class _Dead:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEAD"

    def __bool__(self):
        return False


DEAD = _Dead()


class SweepState(NamedTuple):
    """Eye pairing on strand positions during the sweep.

    ``pairing[i]`` is the 0-based position paired with position i (a fixed-
    point-free involution).  ``dirs`` carries per-position travel directions
    when sweeping an oriented front.
    """

    pairing: tuple[int, ...]
    switches: int = 0
    dirs: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.pairing)


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
    a = (min(i, pi), max(i, pi))
    b = (min(j, pj), max(j, pj))
    if a[1] < b[0] or b[1] < a[0]:
        return True
    return (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])


def sweep_step(
    state: SweepState,
    letter: Letter,
    decide_switch: bool | None = None,
    cusp_dirs: tuple[int, int] | None = None,
):
    """Advance the sweep across one letter; returns a new state or DEAD.

    ``decide_switch`` is consulted only at crossings.  A state with ``dirs``
    sweeps an oriented front: it tracks directions, switches only where the
    two strands travel the same way, and its left cusps need ``cusp_dirs``,
    the travel directions of the new upper and lower strands.
    """
    m = letter.index - 1
    pairing = state.pairing
    dirs = state.dirs
    if letter.kind == "l":
        new_pairing = _insert_pair(pairing, m)
        new_dirs = None
        if dirs is not None:
            lst = [d for d in dirs]
            lst[m:m] = list(cusp_dirs or (0, 0))
            new_dirs = tuple(lst)
        return SweepState(new_pairing, state.switches, new_dirs)
    if letter.kind == "r":
        if pairing[m] != m + 1:
            return DEAD
        new_dirs = None
        if dirs is not None:
            new_dirs = dirs[:m] + dirs[m + 2:]
        return SweepState(_delete_pair(pairing, m), state.switches, new_dirs)
    # crossing
    same_eye = pairing[m] == m + 1
    new_dirs = None
    if dirs is not None:
        lst = list(dirs)
        lst[m], lst[m + 1] = lst[m + 1], lst[m]
        new_dirs = tuple(lst)
    if not decide_switch:
        if same_eye:
            return DEAD
        return SweepState(_swap(pairing, m), state.switches, new_dirs)
    if same_eye:
        return DEAD
    if not _nested_or_disjoint(m, pairing[m], m + 1, pairing[m + 1]):
        return DEAD
    if dirs is not None and dirs[m] != dirs[m + 1]:
        return DEAD
    return SweepState(pairing, state.switches + 1, new_dirs)


class Ruling(NamedTuple):
    """A switch set, as 1-based crossing ordinals in increasing order."""

    switches: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.switches)


def _initial_state(of: OrientedFront | None) -> SweepState:
    return SweepState((), 0, () if of is not None else None)


def _cusp_dirs_table(of: OrientedFront) -> dict[int, tuple[int, int]]:
    occ = occupancy(of.word)
    return {t: (of.dirs[u], of.dirs[v]) for t, (u, v) in occ.left_cusps}


def enumerate_rulings(word: FrontWord, of: OrientedFront | None = None) -> list[Ruling]:
    """All rulings, in depth-first order exploring non-switch before switch.

    Given an orientation ``of`` of the word, only its oriented rulings.
    """
    cusp_dirs = _cusp_dirs_table(of) if of is not None else {}
    letters = word.letters
    out: list[Ruling] = []

    def walk(t: int, state: SweepState, chosen: tuple[int, ...], ordinal: int) -> None:
        if t == len(letters):
            out.append(Ruling(chosen))
            return
        let = letters[t]
        if let.kind == "x":
            nxt = sweep_step(state, let, decide_switch=False)
            if nxt is not DEAD:
                walk(t + 1, nxt, chosen, ordinal + 1)
            nxt = sweep_step(state, let, decide_switch=True)
            if nxt is not DEAD:
                walk(t + 1, nxt, chosen + (ordinal,), ordinal + 1)
        else:
            nxt = sweep_step(state, let, cusp_dirs=cusp_dirs.get(t))
            if nxt is not DEAD:
                walk(t + 1, nxt, chosen, ordinal)

    walk(0, _initial_state(of), (), 1)
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


def _polynomial_from_rulings(rulings: Sequence[Ruling], c: int) -> LaurentPoly:
    out: dict[int, int] = {}
    for rho in rulings:
        e = rho.s - c + 1
        out[e] = out.get(e, 0) + 1
    return LaurentPoly(out)


def _polynomial_memo(word: FrontWord, of: OrientedFront | None) -> LaurentPoly:
    """Sweep with branch merging: states with equal pairing share weights."""
    cusp_dirs = _cusp_dirs_table(of) if of is not None else {}
    z = LaurentPoly.monomial
    current: dict[SweepState, LaurentPoly] = {_initial_state(of): LaurentPoly.one()}

    def add(table, state, weight):
        key = SweepState(state.pairing, 0, state.dirs)
        if key in table:
            table[key] = table[key] + weight
        else:
            table[key] = weight

    for t, let in enumerate(word.letters):
        nxt: dict[SweepState, LaurentPoly] = {}
        for state, weight in current.items():
            if let.kind == "x":
                s1 = sweep_step(state, let, decide_switch=False)
                if s1 is not DEAD:
                    add(nxt, s1, weight)
                s2 = sweep_step(state, let, decide_switch=True)
                if s2 is not DEAD:
                    add(nxt, s2, weight * z(1))
            else:
                s1 = sweep_step(state, let, cusp_dirs=cusp_dirs.get(t))
                if s1 is not DEAD:
                    add(nxt, s1, weight)
        current = nxt
        if not current:
            return LaurentPoly.zero()
    total = LaurentPoly.zero()
    for state, weight in current.items():
        total = total + weight
    c = word.num_left_cusps
    return total.shift(1 - c)


def ruling_polynomial(word: FrontWord, *, memo: bool = True) -> LaurentPoly:
    """Sum of z**(s - c + 1) over all rulings."""
    if memo:
        return _polynomial_memo(word, None)
    return _polynomial_from_rulings(enumerate_rulings(word), word.num_left_cusps)


def oriented_ruling_polynomial(of: OrientedFront, *, memo: bool = True) -> LaurentPoly:
    """As :func:`ruling_polynomial` but switches only at positive crossings."""
    if memo:
        return _polynomial_memo(of.word, of)
    rulings = enumerate_rulings(of.word, of)
    return _polynomial_from_rulings(rulings, of.word.num_left_cusps)
