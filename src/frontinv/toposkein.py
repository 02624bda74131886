"""Dubrovnik (Kauffman) and regular-isotopy HOMFLY polynomials by skein trees.

Both evaluators recurse on planar diagrams.  Each node first removes one
kink (Reidemeister I, a factor a**(+-1)), else one bigon whose two crossings
have the same strand on top (Reidemeister II, a regular isotopy, so no
factor for D or H in either orientation); one scan of the diagram,
``diagram._find_reduction``, finds the first of either in port order.  A
diagram with neither gets one walk, ``diagram.traverse`` (components ordered
by smallest port, each walked from its smallest port), which stops at the
first crossing first reached on its understrand; that crossing is switched
and smoothed.  Kink and bigon removal and smoothing take away one or two
crossings, and switching keeps the crossings and the walk and makes one
fewer crossing bad, so the tree is finite.  A walk that meets no such
crossing has found a descending diagram, regular-isotopic to a split union
of kinked circles, and has summed what its value needs on the way:
a**(sum of self-crossing signs) * delta**(components - 1).  Each evaluation
spends from one ``errors.Budget`` (10**6 units): a memo miss costs its
diagram's crossing count, which bounds that node's scans and walk, and the
loop factor delta**n one unit per term of each power built for it.

Conventions, pinned by the corpus identities (ruling polynomial equals the
chosen Kauffman coefficient, oriented version for HOMFLY):

* Dubrovnik: D(L+) - D(L-) = z (D(L0) - D(Loo)); a positive kink multiplies
  by a, a negative one by a**-1; D(unknot) = 1; a split unknot multiplies by
  delta = (a - a**-1)/z + 1.
* HOMFLY: H(L+) - H(L-) = z H(L0) with L0 the oriented smoothing; kinks as
  above; H(unknot) = 1; split factor (a - a**-1)/z.

For a front, both are evaluated on Top(K); the Kauffman/HOMFLY invariants
are F = a**-w D and P = a**-w H, and the distinguished coefficients are
B = [a**(c-1)] D and Q = [a**(c-1)] H with c the left-cusp count.  The
front-level functions (``kauffman_F``, ``homfly_P``, ``B_of``, ``Q_of`` and
``sharpness``) take an ``OrientedFront``; ``front.orient`` makes one.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .diagram import (
    PlanarDiagram,
    _find_reduction,
    _smooth,
    _strip_bigon,
    _strip_kink,
    _switch,
    crossing_sign,
    from_oriented_front,
    traverse,
    writhe,
)
from .errors import Budget, FuelExhausted, InternalInconsistency, ParseError
from .front import OrientedFront, invariants
from .poly import LaurentPoly, coeff_a, deg_a

_A = LaurentPoly.monomial
_DELTA_H = _A(-1, 1) - _A(-1, -1)          # (a - a^-1) / z
_DELTA_D = _DELTA_H + LaurentPoly.one()   # (a - a^-1) / z + 1


# ---------------------------------------------------------------------------
# Skein recursion


class _SkeinEngine:
    def __init__(self, homfly: bool):
        self.homfly = homfly
        self.memo: dict[PlanarDiagram, LaurentPoly] = {}
        self.delta = _DELTA_H if homfly else _DELTA_D
        self.budget = Budget()

    def loops(self, n: int) -> LaurentPoly:
        """delta ** n, the factor of n + 1 split loops."""
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self.delta
            self.budget.spend(len(out))
        return out

    def eval(self, d: PlanarDiagram) -> LaurentPoly:
        if d.n_crossings == 0:
            if d.free_loops == 0:
                # Only a root diagram can be empty (every cut that leaves no
                # crossing counts a free loop), so the input is at fault.
                raise ParseError("NOT_CLOSED", "empty front")
            return self.loops(d.free_loops - 1)
        value = self.memo.get(d)
        if value is None:
            self.budget.spend(d.n_crossings)
            value = self.memo[d] = self._compute(d)
        return value

    def _compute(self, d: PlanarDiagram) -> LaurentPoly:
        found = _find_reduction(d)
        if found is not None:
            p, da = found
            if da:
                return self.eval(_strip_kink(d, p)).shift(0, da)
            return self.eval(_strip_bigon(d, p))
        c, exponent, k = traverse(d, self.homfly)
        if c is None:
            return self.loops(k + d.free_loops - 1).shift(0, exponent)
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


def kauffman_D(d: PlanarDiagram) -> LaurentPoly:
    """Dubrovnik polynomial of a diagram, D(unknot) = 1."""
    # D never reads orientation; without it, diagrams that differ only in arc
    # directions share one memo entry.
    return _run(_SkeinEngine(False), d._replace(flow_in=0))


def homfly_H(d: PlanarDiagram) -> LaurentPoly:
    """Regular-isotopy HOMFLY polynomial of an oriented diagram, H(unknot) = 1."""
    return _run(_SkeinEngine(True), d)


def kauffman_F(of: OrientedFront) -> LaurentPoly:
    """Kauffman polynomial F = a**-w D(Top(K)) of an oriented front."""
    d = from_oriented_front(of)
    return kauffman_D(d).shift(0, -writhe(d))


def homfly_P(of: OrientedFront) -> LaurentPoly:
    """HOMFLY polynomial P = a**-w H(Top(K)) of an oriented front."""
    d = from_oriented_front(of)
    return homfly_H(d).shift(0, -writhe(d))


def B_of(of: OrientedFront) -> LaurentPoly:
    """Coefficient of a**(c-1) in D(Top(K))."""
    return coeff_a(kauffman_D(from_oriented_front(of)), of.word.num_left_cusps - 1)


def Q_of(of: OrientedFront) -> LaurentPoly:
    """Coefficient of a**(c-1) in H(Top(K))."""
    return coeff_a(homfly_H(from_oriented_front(of)), of.word.num_left_cusps - 1)


class SharpnessReport(NamedTuple):
    beta: int
    kauffman_sharp: bool
    homfly_sharp: bool
    B: LaurentPoly
    Q: LaurentPoly


def sharpness(of: OrientedFront) -> SharpnessReport:
    """Sharpness of the two Bennequin bounds, each checked independently.

    Each sharpness flag is computed two ways (the distinguished coefficient
    nonzero, and the a-degree of the polynomial hitting c-1); disagreement
    raises InternalInconsistency, as does a writhe of Top(K) that differs
    from the front's.  Given equal writhes, beta = -deg_a(F) - 1 is the
    second Kauffman test restated.
    """
    inv = invariants(of)
    d = from_oriented_front(of)
    w = writhe(d)
    if w != inv.w:
        raise InternalInconsistency(f"writhe of Top(K) is {w}, the front's is {inv.w}")
    D = kauffman_D(d)
    H = homfly_H(d)
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
