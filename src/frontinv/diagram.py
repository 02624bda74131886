"""Planar diagrams of topological links, built from fronts by smoothing cusps.

A diagram is a set of 4-valent crossings joined by arcs.  Ports are integers:
port ``4*c + i`` is port ``i`` (0..3, counterclockwise) of crossing ``c``, so
``p // 4`` is its crossing, ``p % 4`` its place there, and ``p ^ 2`` the port
across the crossing on the same strand.  When ``under02[c]`` is true the
under-strand runs through ports 0 and 2, otherwise through 1 and 3 (the flag
flips when a crossing is switched, so arcs and traversal order stay stable).
``flow_in`` lists the ports where an arc enters its crossing.  Crossingless
closed components are counted in ``free_loops``.

Front crossings smooth to the convention that the strand entering from the
upper left exits lower right and is the overstrand: port 0 = lower left,
1 = lower right, 2 = upper right, 3 = upper left, which is counterclockwise.

Every function that builds or rewires a diagram's ports lives in this module;
the skein evaluators in ``toposkein`` only read diagrams and call the surgery
below.
"""

from __future__ import annotations

from typing import NamedTuple

from .front import RIGHT, OrientedFront, occupancy


class PlanarDiagram(NamedTuple):
    """An immutable, hashable diagram; equal diagrams are equal memo keys.

    ``nbr[p]`` is the port that an arc joins to port ``p`` (so ``nbr`` is an
    involution on ``range(4 * n_crossings)`` without fixed points).  An empty
    ``flow_in`` is a diagram whose orientation is ignored.
    """

    nbr: tuple[int, ...]
    under02: tuple[bool, ...]
    flow_in: frozenset[int]
    free_loops: int = 0

    @property
    def n_crossings(self) -> int:
        return len(self.under02)

    def view(self, c: int) -> tuple[int, ...]:
        """Places of crossing ``c`` in canonical order (under-strand at 0 and 2)."""
        return (0, 1, 2, 3) if self.under02[c] else (1, 2, 3, 0)

    def is_under_port(self, p: int) -> bool:
        return (p % 2 == 0) == self.under02[p // 4]


def from_oriented_front(of: OrientedFront) -> PlanarDiagram:
    """Top(K): smooth cusps, overstrand by the lesser-slope rule."""
    word = of.word
    occ = occupancy(word)
    other_end: dict[int, int] = {}
    pinned: dict[int, int] = {}
    open_ends: list[int] = []
    free_loops = 0
    next_tok = 0
    flow_in: set[int] = set()
    c_idx = -1

    def fresh_pair() -> tuple[int, int]:
        nonlocal next_tok
        t1, t2 = next_tok, next_tok + 1
        next_tok += 2
        other_end[t1] = t2
        other_end[t2] = t1
        return t1, t2

    for let in word.letters:
        m = let.index
        if let.kind == "l":
            t1, t2 = fresh_pair()
            open_ends[m - 1:m - 1] = [t1, t2]
        elif let.kind == "x":
            c_idx += 1
            base = 4 * c_idx
            upper, lower = occ.crossing_pairs[c_idx]
            flow_in.add(base + 3 if of.dirs[upper] == RIGHT else base + 1)
            flow_in.add(base if of.dirs[lower] == RIGHT else base + 2)
            pinned[open_ends[m - 1]] = base + 3
            pinned[open_ends[m]] = base
            ne_pin, ne_run = fresh_pair()
            se_pin, se_run = fresh_pair()
            pinned[ne_pin] = base + 2
            pinned[se_pin] = base + 1
            open_ends[m - 1] = ne_run
            open_ends[m] = se_run
        else:
            t1 = open_ends[m - 1]
            t2 = open_ends[m]
            if other_end[t1] == t2:
                free_loops += 1
            else:
                a, b = other_end[t1], other_end[t2]
                other_end[a] = b
                other_end[b] = a
            del open_ends[m - 1:m + 1]

    # Once every cusp is closed, each pinned token's far end is pinned too.
    n = c_idx + 1
    nbr = [0] * (4 * n)
    for tok, port in pinned.items():
        nbr[port] = pinned[other_end[tok]]
    return PlanarDiagram(tuple(nbr), (True,) * n, frozenset(flow_in), free_loops)


def crossing_sign(d: PlanarDiagram, c: int) -> int:
    """Writhe sign of an oriented crossing."""
    q = d.view(c)
    return 1 if ((4 * c + q[0] in d.flow_in) == (4 * c + q[3] in d.flow_in)) else -1


def writhe(d: PlanarDiagram) -> int:
    return sum(crossing_sign(d, c) for c in range(d.n_crossings))


# ---------------------------------------------------------------------------
# Diagram surgery


def _switch(d: PlanarDiagram, c: int) -> PlanarDiagram:
    """Exchange the over- and under-strand of crossing ``c``."""
    under = d.under02[:c] + (not d.under02[c],) + d.under02[c + 1:]
    return PlanarDiagram(d.nbr, under, d.flow_in, d.free_loops)


def _smooth(d: PlanarDiagram, c: int, pairs: tuple[tuple[int, int], tuple[int, int]]) -> PlanarDiagram:
    """Remove crossing ``c`` joining its places pairwise as given."""
    lo, hi = 4 * c, 4 * c + 4
    old = d.nbr
    hop = [0, 0, 0, 0]
    for i, j in pairs:
        hop[i], hop[j] = j, i
    done = [False, False, False, False]
    nbr = list(old)
    # Walk the paths that leave the crossing first: each joins two outside
    # ports.  Places left over lie on closed loops.
    for start in range(4):
        if done[start] or lo <= old[lo + start] < hi:
            continue
        i = start
        while True:
            j = hop[i]
            done[i] = done[j] = True
            p = old[lo + j]
            if not lo <= p < hi:
                a = old[lo + start]
                nbr[a], nbr[p] = p, a
                break
            i = p - lo
    free_loops = d.free_loops
    for start in range(4):
        if done[start]:
            continue
        free_loops += 1
        i = start
        while not done[i]:
            j = hop[i]
            done[i] = done[j] = True
            i = old[lo + j] - lo
    del nbr[lo:hi]
    return PlanarDiagram(
        tuple([q - 4 if q >= hi else q for q in nbr]),
        d.under02[:c] + d.under02[c + 1:],
        frozenset([p - 4 if p >= hi else p for p in d.flow_in if not lo <= p < hi]),
        free_loops,
    )


def _find_kink(d: PlanarDiagram) -> tuple[int, int] | None:
    """Smallest crossing with an arc joining two adjacent ports, with sign.

    The arc joins places ``i`` and ``i+1`` (counterclockwise); the kink is
    positive when place ``i`` is on the under-strand.
    """
    for p, q in enumerate(d.nbr):
        if q == (p & ~3) | ((p + 1) & 3):
            return p >> 2, 1 if d.is_under_port(p) else -1
    return None


def _strip_kink(d: PlanarDiagram, c: int) -> PlanarDiagram:
    """Undo the curl at crossing ``c``: the smoothing that keeps its arc on one path."""
    i = next(i for i in range(4) if d.nbr[4 * c + i] == 4 * c + (i + 1) % 4)
    return _smooth(d, c, ((i, (i + 3) % 4), ((i + 1) % 4, (i + 2) % 4)))


def _find_bigon(d: PlanarDiagram) -> tuple[int, int] | None:
    """Smallest crossings ``c < c2`` that a Reidemeister II move removes.

    Places ``i, i+1`` of ``c`` are joined to places ``k+1, k`` of ``c2``, so
    the two arcs bound a bigon face, and the strand through place ``i`` is
    under at both crossings (or over at both).
    """
    nbr, under = d.nbr, d.under02
    for p, q in enumerate(nbr):
        # The last test is d.is_under_port(p) == d.is_under_port(q), expanded.
        if (
            q >> 2 > p >> 2
            and nbr[(p & ~3) | ((p + 1) & 3)] == (q & ~3) | ((q - 1) & 3)
            and ((p & 1) == (q & 1)) == (under[p >> 2] == under[q >> 2])
        ):
            return p >> 2, q >> 2
    return None


def _strip_bigon(d: PlanarDiagram, c: int, c2: int) -> PlanarDiagram:
    """Pull the two strands of the bigon at ``c < c2`` apart: both go straight on."""
    through = ((0, 2), (1, 3))
    return _smooth(_smooth(d, c2, through), c, through)


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
    nbr = d.nbr
    consumed = [False] * (4 * n)
    over_entry = [0] * n     # port of the first passage, on the over-strand
    comp_of = [-1] * n       # component of the first passage
    exponent = 0
    k = 0
    for start in range(4 * n):
        if consumed[start] or (use_flow and start not in d.flow_in):
            continue
        p = start
        while True:
            consumed[p] = consumed[p ^ 2] = True
            c = p >> 2
            if comp_of[c] < 0:
                if d.is_under_port(p):
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
