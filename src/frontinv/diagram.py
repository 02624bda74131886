"""Planar diagrams of topological links, built from fronts by smoothing cusps.

A diagram is a set of 4-valent crossings joined by arcs.  Ports are integers:
port ``4*c + i`` is port ``i`` (0..3, counterclockwise) of crossing ``c``, so
``p >> 2`` is its crossing, ``p & 3`` its place there, and ``p ^ 2`` the port
across the crossing on the same strand.  Two int bit masks carry the rest.
Bit ``c`` of ``under02`` is set when the under-strand of crossing ``c`` runs
through places 0 and 2, and clear when it runs through 1 and 3 (switching a
crossing flips its bit, so arcs and traversal order stay stable); port ``p``
is on the under-strand exactly when ``(under02 >> (p >> 2) ^ p) & 1``.  Bit
``p`` of ``flow_in`` is set when an arc enters its crossing at port ``p``.
Crossingless closed components are counted in ``free_loops``.

Front crossings smooth to the convention that the strand entering from the
upper left exits lower right and is the overstrand: port 0 = lower left,
1 = lower right, 2 = upper right, 3 = upper left, which is counterclockwise.

Every function that builds or rewires a diagram's ports lives in this module;
the skein evaluators in ``toposkein`` only read diagrams and call the surgery
below.
"""

from __future__ import annotations

from typing import NamedTuple

from .front import OrientedFront, components, occupancy


class PlanarDiagram(NamedTuple):
    """An immutable, hashable diagram; equal diagrams are equal memo keys.

    ``nbr[p]`` is the port that an arc joins to port ``p`` (so ``nbr`` is an
    involution on ``range(4 * n_crossings)`` without fixed points).
    ``under02`` and ``flow_in`` are the bit masks of the module docstring:
    bit ``c`` of ``under02`` puts crossing ``c``'s under-strand on places 0
    and 2, bit ``p`` of ``flow_in`` makes port ``p`` an entry.  A ``flow_in``
    of 0 is a diagram whose orientation is ignored.
    """

    nbr: tuple[int, ...]
    under02: int
    flow_in: int
    free_loops: int = 0

    @property
    def n_crossings(self) -> int:
        return len(self.nbr) >> 2

    def view(self, c: int) -> tuple[int, ...]:
        """Places of crossing ``c`` in canonical order (under-strand at 0 and 2)."""
        return (0, 1, 2, 3) if self.under02 >> c & 1 else (1, 2, 3, 0)


def from_oriented_front(of: OrientedFront) -> PlanarDiagram:
    """Top(K): smooth cusps, overstrand by the lesser-slope rule.

    Crossing ``c`` is the ``c``-th crossing of the word; travelling right,
    its upper strand passes ports ``4c+3, 4c+1`` and its lower ``4c, 4c+2``.
    Along each cusp cycle (``Components.cycles``) the ports alternate
    between entering and leaving a crossing, and smoothing the cusps joins
    each port that leaves to the next one that enters.
    """
    occ = occupancy(of.word)
    ports: list[list[int]] = [[] for _ in range(occ.n_strands)]
    for c, (upper, lower) in enumerate(occ.crossing_pairs):
        ports[upper] += (4 * c + 3, 4 * c + 1)
        ports[lower] += (4 * c, 4 * c + 2)
    n = len(occ.crossing_pairs)
    nbr = [0] * (4 * n)
    flow_in = 0
    free_loops = 0
    for cycle, default in zip(components(of.word).cycles, of.choices):
        seq: list[int] = []
        for i, s in enumerate(cycle):
            seq += ports[s] if i % 2 == 0 else ports[s][::-1]
        if not seq:
            free_loops += 1
        for k in range(1, len(seq), 2):
            p, q = seq[k], seq[(k + 1) % len(seq)]
            nbr[p], nbr[q] = q, p
        for p in seq[0::2] if default else seq[1::2]:
            flow_in |= 1 << p
    return PlanarDiagram(tuple(nbr), (1 << n) - 1, flow_in, free_loops)


def crossing_sign(d: PlanarDiagram, c: int) -> int:
    """Writhe sign of an oriented crossing."""
    q = d.view(c)
    flow = d.flow_in >> 4 * c
    return 1 if (flow >> q[0] & 1) == (flow >> q[3] & 1) else -1


def writhe(d: PlanarDiagram) -> int:
    return sum(crossing_sign(d, c) for c in range(d.n_crossings))


# ---------------------------------------------------------------------------
# Diagram surgery


def _switch(d: PlanarDiagram, c: int) -> PlanarDiagram:
    """Exchange the over- and under-strand of crossing ``c``."""
    return PlanarDiagram(d.nbr, d.under02 ^ 1 << c, d.flow_in, d.free_loops)


def _smooth(d: PlanarDiagram, c: int, pairs: tuple[tuple[int, int], tuple[int, int]]) -> PlanarDiagram:
    """Remove crossing ``c`` joining its places pairwise as given."""
    lo = 4 * c
    hop = {}
    for i, j in pairs:
        hop[lo + i], hop[lo + j] = lo + j, lo + i
    return _cut(d, hop, (c,))


def _cut(d: PlanarDiagram, hop: dict[int, int], crossings: tuple[int, ...]) -> PlanarDiagram:
    """Remove ``crossings`` (ascending), rejoining the paths through them.

    ``hop`` joins each port where a path enters the removed part to the port
    where it leaves; the paths run from port to port by ``hop`` and ``nbr``.
    Paths that reach outside ports join them by one arc, and paths that
    close are counted as free loops.
    """
    old = d.nbr
    nbr = list(old)
    seen = set()
    for start in hop:
        a = old[start]
        if start in seen or a in hop:
            continue
        p = start
        while True:
            q = hop[p]
            seen.add(p)
            seen.add(q)
            p = old[q]
            if p not in hop:
                break
        nbr[a], nbr[p] = p, a
    free_loops = d.free_loops
    for start in hop:
        if start in seen:
            continue
        free_loops += 1
        p = start
        while p not in seen:
            q = hop[p]
            seen.add(p)
            seen.add(q)
            p = old[q]
    under, flow = d.under02, d.flow_in
    for c in reversed(crossings):
        lo, hi = 4 * c, 4 * c + 4
        del nbr[lo:hi]
        nbr = [q - 4 if q >= hi else q for q in nbr]
        under = (under & ((1 << c) - 1)) | (under >> (c + 1) << c)
        flow = (flow & ((1 << lo) - 1)) | (flow >> hi << lo)
    return PlanarDiagram(tuple(nbr), under, flow, free_loops)


def _find_reduction(d: PlanarDiagram) -> tuple[int, int] | None:
    """The first kink, or else the first bigon, in port order, as ``(p, da)``.

    A kink is an arc from port ``p`` to the next place of its crossing
    (counterclockwise); ``da`` is its factor's power of a: +1 when ``p`` is
    on the under-strand, else -1.  A bigon, ``da = 0``, is a pair of arcs
    from places ``i, i+1`` of crossing ``c`` (``p`` at place ``i``) to
    places ``k+1, k`` of a crossing ``c2 > c``, with the strand through
    ``p`` under at both crossings or over at both, so that a Reidemeister
    II move removes both.  One scan finds both: it returns at the first
    kink and keeps the first bigon until no kink is left to find.
    """
    nbr, under = d.nbr, d.under02
    bigon = None
    for p, q in enumerate(nbr):
        c = p >> 2
        if q >> 2 == c:
            if (q - p) & 3 == 1:
                return p, 1 if (under >> c ^ p) & 1 else -1
        elif (
            bigon is None
            and q > p
            and nbr[(p & ~3) | ((p + 1) & 3)] == (q & ~3) | ((q - 1) & 3)
            and not (under >> c ^ under >> (q >> 2) ^ p ^ q) & 1
        ):
            bigon = p
    return None if bigon is None else (bigon, 0)


def _strip_kink(d: PlanarDiagram, p: int) -> PlanarDiagram:
    """Undo the curl whose arc leaves port ``p``: the smoothing that keeps it on one path."""
    i = p & 3
    return _smooth(d, p >> 2, ((i, (i + 3) % 4), ((i + 1) % 4, (i + 2) % 4)))


def _strip_bigon(d: PlanarDiagram, p: int) -> PlanarDiagram:
    """Pull apart the two strands of the bigon at port ``p``: both go straight on.

    Each strand enters the bigon at one crossing and leaves at the other, so
    one rewiring removes both crossings.
    """
    nbr = d.nbr
    q = nbr[p]
    p1 = (p & ~3) | ((p + 1) & 3)
    q1 = nbr[p1]
    hop = {p ^ 2: q ^ 2, q ^ 2: p ^ 2, p1 ^ 2: q1 ^ 2, q1 ^ 2: p1 ^ 2}
    return _cut(d, hop, (p >> 2, q >> 2))


# ---------------------------------------------------------------------------
# Based walk


def traverse(d: PlanarDiagram, use_flow: bool) -> tuple[int | None, int, int]:
    """Walk the components until a crossing is first reached on its under-strand.

    Components are walked in order of their smallest port, each from that
    port.  With ``use_flow`` the walk follows arc orientations; otherwise the
    direction is the one induced by the starting port, which keeps the walk
    stable under crossing switches.

    Returns ``(c, 0, 0)`` for the first crossing ``c`` whose first passage is
    on its under-strand.  When there is none the diagram is descending, and
    the result is ``(None, e, k)`` with ``e`` the sum of the signs of the
    crossings of a component with itself and ``k`` the number of walked
    components.
    """
    n = d.n_crossings
    nbr, under, flow = d.nbr, d.under02, d.flow_in
    consumed = [False] * (4 * n)
    over_entry = [0] * n     # port of the first passage, on the over-strand
    comp_of = [-1] * n       # component of the first passage
    exponent = 0
    k = 0
    for start in range(4 * n):
        if consumed[start] or (use_flow and not flow >> start & 1):
            continue
        p = start
        while True:
            consumed[p] = consumed[p ^ 2] = True
            c = p >> 2
            if comp_of[c] < 0:
                if (under >> c ^ p) & 1:
                    return c, 0, 0
                over_entry[c] = p
                comp_of[c] = k
            elif comp_of[c] == k:
                q = d.view(c)
                exponent += 1 if (p % 4 == q[0]) == (over_entry[c] % 4 == q[3]) else -1
            p = nbr[p ^ 2]
            if p == start:
                break
        k += 1
    return None, exponent, k
