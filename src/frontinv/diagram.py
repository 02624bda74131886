"""Planar diagrams of topological links, built from fronts by smoothing cusps.

A diagram is a set of 4-valent crossings with counterclockwise port order
plus oriented arcs.  Ports are pairs ``(crossing, i)`` with ``i`` in 0..3;
when ``under02[c]`` is true the under-strand runs through ports 0 and 2,
otherwise through 1 and 3 (the flag flips when a crossing is switched, so
arcs and traversal order stay stable).  ``flow_in`` lists the ports where an
arc enters its crossing.  Crossingless closed components are counted in
``free_loops``.

Front crossings smooth to the convention that the strand entering from the
upper left exits lower right and is the overstrand: port 0 = lower left,
1 = lower right, 2 = upper right, 3 = upper left, which is counterclockwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .front import RIGHT, OrientedFront, occupancy

Port = tuple[int, int]


@dataclass(frozen=True)
class PlanarDiagram:
    n_crossings: int
    under02: tuple[bool, ...]
    conn: dict[Port, Port]
    flow_in: frozenset[Port]
    free_loops: int = 0

    def view(self, c: int) -> tuple[int, ...]:
        """Actual port indices in canonical order (under-strand at 0 and 2)."""
        return (0, 1, 2, 3) if self.under02[c] else (1, 2, 3, 0)

    def is_under_port(self, port: Port) -> bool:
        c, i = port
        return (i % 2 == 0) == self.under02[c]

    def through(self, port: Port) -> Port:
        """The opposite port of the strand passing through the crossing."""
        c, i = port
        return (c, (i + 2) % 4)


def from_oriented_front(of: OrientedFront) -> PlanarDiagram:
    """Top(K): smooth cusps, overstrand by the lesser-slope rule."""
    word = of.word
    occ = occupancy(word)
    other_end: dict[int, int] = {}
    pinned: dict[int, Port] = {}
    open_ends: list[int] = []
    free_loops = 0
    next_tok = 0
    flow_in: set[Port] = set()
    c_idx = -1

    def fresh_pair() -> tuple[int, int]:
        nonlocal next_tok
        t1, t2 = next_tok, next_tok + 1
        next_tok += 2
        other_end[t1] = t2
        other_end[t2] = t1
        return t1, t2

    for t, let in enumerate(word.letters):
        m = let.index
        if let.kind == "l":
            t1, t2 = fresh_pair()
            open_ends[m - 1:m - 1] = [t1, t2]
        elif let.kind == "x":
            c_idx += 1
            d_up = of.dirs[occ.slices[t][m - 1]]
            d_down = of.dirs[occ.slices[t][m]]
            flow_in.add((c_idx, 3) if d_up == RIGHT else (c_idx, 1))
            flow_in.add((c_idx, 0) if d_down == RIGHT else (c_idx, 2))
            pinned[open_ends[m - 1]] = (c_idx, 3)
            pinned[open_ends[m]] = (c_idx, 0)
            ne_pin, ne_run = fresh_pair()
            se_pin, se_run = fresh_pair()
            pinned[ne_pin] = (c_idx, 2)
            pinned[se_pin] = (c_idx, 1)
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

    conn: dict[Port, Port] = {}
    for tok, port in pinned.items():
        far = other_end[tok]
        if far in pinned:
            conn[port] = pinned[far]
    n = c_idx + 1
    return PlanarDiagram(n, (True,) * n, conn, frozenset(flow_in), free_loops)


def crossing_sign(d: PlanarDiagram, c: int) -> int:
    """Writhe sign of an oriented crossing."""
    q = d.view(c)
    return 1 if (((c, q[0]) in d.flow_in) == ((c, q[3]) in d.flow_in)) else -1


def writhe(d: PlanarDiagram) -> int:
    return sum(crossing_sign(d, c) for c in range(d.n_crossings))


@dataclass(frozen=True)
class Traversal:
    """Passage order of a based traversal; one passage per (component, strand)."""

    components: tuple[tuple[Port, ...], ...]   # arrival ports in walk order
    comp_of_crossing: tuple[tuple[int, ...], ...]  # crossing -> component ids (2 passages)
    arrivals: tuple[tuple[Port, ...], ...]     # crossing -> its two arrival ports


def traverse(d: PlanarDiagram, use_flow: bool) -> Traversal:
    """Walk every component; deterministic basepoints (smallest port first).

    With ``use_flow`` the walk follows arc orientations; otherwise the
    direction is the canonical one induced by the smallest port of each
    component, which keeps the walk stable under crossing switches.
    """
    all_ports = [(c, i) for c in range(d.n_crossings) for i in range(4)]
    consumed: set[Port] = set()
    comps: list[tuple[Port, ...]] = []
    arrivals_of: dict[int, list[Port]] = {c: [] for c in range(d.n_crossings)}
    comp_of: dict[int, list[int]] = {c: [] for c in range(d.n_crossings)}

    for start in all_ports:
        if start in consumed:
            continue
        if use_flow and start not in d.flow_in:
            continue
        walk: list[Port] = []
        p = start
        while True:
            walk.append(p)
            consumed.add(p)
            exit_port = d.through(p)
            consumed.add(exit_port)
            p = d.conn[exit_port]
            if p == start:
                break
        cid = len(comps)
        comps.append(tuple(walk))
        for p in walk:
            arrivals_of[p[0]].append(p)
            comp_of[p[0]].append(cid)
    return Traversal(
        tuple(comps),
        tuple(tuple(comp_of[c]) for c in range(d.n_crossings)),
        tuple(tuple(arrivals_of[c]) for c in range(d.n_crossings)),
    )


def sign_from_arrivals(d: PlanarDiagram, c: int, arrivals: tuple[Port, ...]) -> int:
    """Crossing sign using the two traversal arrival ports."""
    q = d.view(c)
    under_arr = next(p for p in arrivals if d.is_under_port(p))
    over_arr = next(p for p in arrivals if not d.is_under_port(p))
    return 1 if ((under_arr[1] == q[0]) == (over_arr[1] == q[3])) else -1


# ---------------------------------------------------------------------------
# PD-code text format: one `X[i,j,k,l]` line per crossing (arc labels listed
# counterclockwise from the incoming under-strand) and one `O<n>` line per
# crossingless loop.

_X_RE = re.compile(r"^X\[(\d+),(\d+),(\d+),(\d+)\]$")
_O_RE = re.compile(r"^O(\d+)$")


def pd_export(d: PlanarDiagram) -> str:
    # Walk components from intrinsic basepoints (under-strand entry ports in
    # crossing order, then over-strand entries), so the arc labels do not
    # depend on the internal port numbering and re-export is stable.
    starts = sorted(
        (p for p in d.flow_in if d.is_under_port(p))
    ) + sorted(p for p in d.flow_in if not d.is_under_port(p))
    visited: set[Port] = set()
    arc_at: dict[Port, int] = {}
    label = 0
    for start in starts:
        if start in visited:
            continue
        p = start
        while True:
            visited.add(p)
            label += 1
            exit_port = d.through(p)
            arc_at[exit_port] = label
            arc_at[d.conn[exit_port]] = label
            p = d.conn[exit_port]
            if p == start:
                break
    lines = []
    for c in range(d.n_crossings):
        q = d.view(c)
        start = q[0] if (c, q[0]) in d.flow_in else q[2]
        ports = [(c, (start + k) % 4) for k in range(4)]
        lines.append("X[" + ",".join(str(arc_at[p]) for p in ports) + "]")
    for k in range(d.free_loops):
        lines.append(f"O{k + 1}")
    return "\n".join(lines) + ("\n" if lines else "")


def pd_import(text: str) -> PlanarDiagram:
    """Rebuild a diagram from PD text.

    Arc orientations are recovered from the incoming-under convention and
    propagated; a component that is everywhere the overstrand has a free
    direction, fixed canonically (its smallest port becomes an entry port).
    """
    crossings: list[tuple[int, int, int, int]] = []
    free_loops = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        m = _X_RE.match(s)
        if m:
            crossings.append(tuple(int(g) for g in m.groups()))
            continue
        if _O_RE.match(s):
            free_loops += 1
            continue
        raise ParseError("UNKNOWN_TOKEN", f"bad PD line {s!r}", line=lineno, col=1)
    if not crossings and not free_loops:
        raise ParseError("NOT_CLOSED", "empty PD code")

    ends: dict[int, list[Port]] = {}
    for c, labels in enumerate(crossings):
        for i, lab in enumerate(labels):
            ends.setdefault(lab, []).append((c, i))
    conn: dict[Port, Port] = {}
    for lab, ports in ends.items():
        if len(ports) != 2:
            raise ParseError("UNKNOWN_TOKEN", f"arc label {lab} appears {len(ports)} times")
        conn[ports[0]] = ports[1]
        conn[ports[1]] = ports[0]

    n = len(crossings)
    flow: dict[Port, int] = {}  # +1 in, -1 out

    def set_flow(port: Port, value: int) -> None:
        stack = [(port, value)]
        while stack:
            p, v = stack.pop()
            if p in flow:
                if flow[p] != v:
                    raise ParseError("UNKNOWN_TOKEN", "inconsistent PD orientations")
                continue
            flow[p] = v
            stack.append((conn[p], -v))
            c, i = p
            mate = (c, (i + 2) % 4)
            stack.append((mate, -v))

    for c in range(n):
        set_flow((c, 0), 1)
    for c in range(n):
        for i in (1, 3):
            if (c, i) not in flow:
                set_flow((c, i), 1)

    flow_in = frozenset(p for p, v in flow.items() if v == 1)
    return PlanarDiagram(n, (True,) * n, conn, flow_in, free_loops)
