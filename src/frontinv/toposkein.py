"""Dubrovnik (Kauffman) and regular-isotopy HOMFLY polynomials by skein trees.

Both evaluators recurse on planar diagrams.  Each node first removes one
kink (Reidemeister I, a factor a**(+-1)), else one bigon whose two crossings
have the same strand on top (Reidemeister II, a regular isotopy, so no
factor for D or H in either orientation).  Only a diagram with neither is
resolved at a crossing: crossings are examined along a based traversal
(components ordered by smallest port, each walked from its smallest port),
and the first crossing first reached on its understrand is switched and
smoothed.  Kink and bigon removal and smoothing take away one or two
crossings, and switching keeps the crossings and the traversal and makes
one fewer crossing bad, so the tree is finite.  Descending diagrams are
regular-isotopic to split unions of kinked circles and evaluate to
a**(sum of self-crossing signs) * delta**(components - 1).

Conventions, pinned by the corpus identities (ruling polynomial equals the
chosen Kauffman coefficient, oriented version for HOMFLY):

* Dubrovnik: D(L+) - D(L-) = z (D(L0) - D(Loo)); a positive kink multiplies
  by a, a negative one by a**-1; D(unknot) = 1; a split unknot multiplies by
  delta = (a - a**-1)/z + 1.
* HOMFLY: H(L+) - H(L-) = z H(L0) with L0 the oriented smoothing; kinks as
  above; H(unknot) = 1; split factor (a - a**-1)/z.

For a front, both are evaluated on Top(K); the Kauffman/HOMFLY invariants
are F = a**-w D and P = a**-w H, and the distinguished coefficients are
B = [a**(c-1)] D and Q = [a**(c-1)] H with c the left-cusp count.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .diagram import (
    PlanarDiagram,
    Traversal,
    _find_bigon,
    _find_kink,
    _smooth,
    _strip_bigon,
    _strip_kink,
    _switch,
    crossing_sign,
    from_oriented_front,
    sign_from_arrivals,
    traverse,
    writhe,
)
from .errors import FuelExhausted, InternalInconsistency
from .front import FrontWord, OrientedFront, invariants, orient
from .poly import LaurentPoly, coeff_a, deg_a

_A = LaurentPoly.monomial
_DELTA_H = _A(-1, 1) - _A(-1, -1)          # (a - a^-1) / z
_DELTA_D = _DELTA_H + LaurentPoly.one()   # (a - a^-1) / z + 1


# ---------------------------------------------------------------------------
# Skein recursion


def _bad_crossings(d: PlanarDiagram, trav: Traversal) -> list[int]:
    seen: set[int] = set()
    bads: list[int] = []
    for walk in trav.components:
        for p in walk:
            c = p // 4
            if c in seen:
                continue
            seen.add(c)
            if d.is_under_port(p):
                bads.append(c)
    return bads


def _descending_value(d: PlanarDiagram, trav: Traversal, delta: LaurentPoly) -> LaurentPoly:
    exponent = 0
    for c in range(d.n_crossings):
        comps = trav.comp_of_crossing[c]
        if comps[0] == comps[1]:
            exponent += sign_from_arrivals(d, c, trav.arrivals[c])
    k = len(trav.components) + d.free_loops
    return (delta ** (k - 1)).shift(0, exponent)


class _SkeinEngine:
    def __init__(self, homfly: bool, memo: bool, heuristic: str):
        if heuristic not in ("first", "last"):
            raise ValueError(f"unknown heuristic {heuristic!r}")
        self.homfly = homfly
        self.memo: dict | None = {} if memo else None
        self.heuristic = heuristic
        self.delta = _DELTA_H if homfly else _DELTA_D

    def eval(self, d: PlanarDiagram) -> LaurentPoly:
        if d.n_crossings == 0:
            if d.free_loops == 0:
                raise InternalInconsistency("empty diagram has no polynomial")
            return self.delta ** (d.free_loops - 1)
        if self.memo is not None:
            cached = self.memo.get(d)
            if cached is not None:
                return cached
        value = self._compute(d)
        if self.memo is not None:
            self.memo[d] = value
        return value

    def _compute(self, d: PlanarDiagram) -> LaurentPoly:
        kink = _find_kink(d)
        if kink is not None:
            c, sign = kink
            return self.eval(_strip_kink(d, c)).shift(0, sign)
        bigon = _find_bigon(d)
        if bigon is not None:
            return self.eval(_strip_bigon(d, *bigon))
        trav = traverse(d, self.homfly)
        bads = _bad_crossings(d, trav)
        if not bads:
            return _descending_value(d, trav, self.delta)
        c = bads[0] if self.heuristic == "first" else bads[-1]
        q = d.view(c)
        pairs_a = ((q[0], q[1]), (q[2], q[3]))
        pairs_b = ((q[0], q[3]), (q[1], q[2]))
        if self.homfly:
            eps = crossing_sign(d, c)
            oriented_pairs = pairs_a if eps == 1 else pairs_b
            return self.eval(_switch(d, c)) + self.eval(
                _smooth(d, c, oriented_pairs)
            ).shift(1) * eps
        return self.eval(_switch(d, c)) + (
            self.eval(_smooth(d, c, pairs_a)) - self.eval(_smooth(d, c, pairs_b))
        ).shift(1)


def _run(engine: _SkeinEngine, d: PlanarDiagram) -> LaurentPoly:
    try:
        return engine.eval(d)
    except RecursionError:
        raise FuelExhausted(
            f"skein tree nested deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None


def kauffman_D(d: PlanarDiagram, *, memo: bool = True, heuristic: str = "first") -> LaurentPoly:
    """Dubrovnik polynomial of a diagram, D(unknot) = 1."""
    # D never reads orientation; without it, diagrams that differ only in arc
    # directions share one memo entry.
    return _run(_SkeinEngine(False, memo, heuristic), d._replace(flow_in=frozenset()))


def homfly_H(d: PlanarDiagram, *, memo: bool = True, heuristic: str = "first") -> LaurentPoly:
    """Regular-isotopy HOMFLY polynomial of an oriented diagram, H(unknot) = 1."""
    return _run(_SkeinEngine(True, memo, heuristic), d)


def _as_oriented(front: FrontWord | OrientedFront) -> OrientedFront:
    return front if isinstance(front, OrientedFront) else orient(front)


def kauffman_F(of: FrontWord | OrientedFront, **kw) -> LaurentPoly:
    """Kauffman polynomial F = a**-w D(Top(K)) of an oriented front."""
    of = _as_oriented(of)
    d = from_oriented_front(of)
    return kauffman_D(d, **kw).shift(0, -writhe(d))


def homfly_P(of: FrontWord | OrientedFront, **kw) -> LaurentPoly:
    """HOMFLY polynomial P = a**-w H(Top(K)) of an oriented front."""
    of = _as_oriented(of)
    d = from_oriented_front(of)
    return homfly_H(d, **kw).shift(0, -writhe(d))


def B_of(front: FrontWord | OrientedFront, **kw) -> LaurentPoly:
    """Coefficient of a**(c-1) in D(Top(K))."""
    of = _as_oriented(front)
    return coeff_a(kauffman_D(from_oriented_front(of), **kw), of.word.num_left_cusps - 1)


def Q_of(of: FrontWord | OrientedFront, **kw) -> LaurentPoly:
    """Coefficient of a**(c-1) in H(Top(K))."""
    of = _as_oriented(of)
    return coeff_a(homfly_H(from_oriented_front(of), **kw), of.word.num_left_cusps - 1)


class SharpnessReport(NamedTuple):
    beta: int
    kauffman_sharp: bool
    homfly_sharp: bool
    B: LaurentPoly
    Q: LaurentPoly


def sharpness(front: FrontWord | OrientedFront, **kw) -> SharpnessReport:
    """Sharpness of the two Bennequin bounds, each checked independently.

    Each sharpness flag is computed two ways (the distinguished coefficient
    nonzero, and the a-degree of the polynomial hitting c-1); disagreement
    raises InternalInconsistency, as does a writhe of Top(K) that differs
    from the front's.  Given equal writhes, beta = -deg_a(F) - 1 is the
    second Kauffman test restated.
    """
    of = _as_oriented(front)
    inv = invariants(of)
    d = from_oriented_front(of)
    w = writhe(d)
    if w != inv.w:
        raise InternalInconsistency(f"writhe of Top(K) is {w}, the front's is {inv.w}")
    D = kauffman_D(d, **kw)
    H = homfly_H(d, **kw)
    B = coeff_a(D, inv.c - 1)
    Q = coeff_a(H, inv.c - 1)

    k1 = not B.is_zero()
    k2 = deg_a(D) == inv.c - 1
    if k1 != k2:
        raise InternalInconsistency(
            f"Kauffman sharpness computations disagree: {k1}, {k2}"
        )
    h1 = not Q.is_zero()
    h2 = deg_a(H) == inv.c - 1
    if h1 != h2:
        raise InternalInconsistency(
            f"HOMFLY sharpness computations disagree: {h1}, {h2}"
        )
    return SharpnessReport(inv.beta, k1, h1, B, Q)
