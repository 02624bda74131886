"""One front through all three routes, and the verdict per theorem.

:func:`check_front` evaluates the ruling sweep (``rulings``), the rewrite
evaluator (``legskein``) and the skein tree (``toposkein``) on one front and
returns a JSON-ready record of their values; :func:`front_ok` reads that
record as a pass or a fail for one theorem.  This module only compares the
routes: it imports all three, and none of them imports it.
"""

from __future__ import annotations

import time

from .errors import FrontError
from .front import FrontWord, all_orientations, components, crossing_signs, invariants, orient
from .legskein import evaluate_B
from .rulings import oriented_ruling_polynomial, ruling_polynomial
from .toposkein import Q_of, sharpness

# Bounds the 2^k orientations listed for k components, one record each, to
# 2 * this many (2^(k-1) reversal pairs); past it Theorem 4.1 is unchecked.
ORIENTATION_PAIR_BUDGET = 16


def check_front(word: FrontWord, flags=None, *, timings: bool = False) -> dict:
    """The three routes' values on ``word`` and whether they agree.

    ``flags`` maps component id -> orientation flag, as read from a
    ``.front`` file; it sets only the record's ``beta``.  The record holds
    ``R``, ``B_leg``, ``B_topo`` and ``agree_3_1`` (Theorem 3.1), the
    sharpness flags, and per orientation ``OR`` and ``Q`` with ``agree_4_1``
    (Theorem 4.1), which is None when the front has more reversal pairs than
    :data:`ORIENTATION_PAIR_BUDGET`.  With ``timings`` it also holds each
    route's time in ms.
    """
    ms = dict.fromkeys(("sweep", "rewrite", "skein"), 0.0)

    def timed(route, fn, *args):
        t = time.perf_counter()
        try:
            value = fn(*args)
        except FrontError as exc:
            exc.args = (f"{route}: {exc}",)  # name the route in the one error line
            raise
        ms[route] += time.perf_counter() - t
        return value

    t0 = time.perf_counter()
    n_pairs = 2 ** (components(word).n_components - 1)
    # all_orientations lists the default orientation first.
    orientations = all_orientations(word) if n_pairs <= ORIENTATION_PAIR_BUDGET else None
    default = orientations[0] if orientations else orient(word)
    R = timed("sweep", ruling_polynomial, word)
    B_leg = timed("rewrite", evaluate_B, word)
    # One skein tree per polynomial: the report's B and Q are [a^(c-1)] of D
    # and of H under the default orientation.
    rep = timed("skein", sharpness, default)
    record: dict = {
        "beta": invariants(orient(word, flags)).beta if flags else rep.beta,
        "R": str(R),
        "B_leg": str(B_leg),
        "B_topo": str(rep.B),
        "agree_3_1": R == B_leg == rep.B,
        "kauffman_sharp": rep.kauffman_sharp,
        "homfly_sharp": rep.homfly_sharp,
    }
    if orientations:
        # OR and H read an orientation only through its crossing signs: the
        # oriented sweep is the plain one with switches only at positive
        # crossings, and reversing all of one split part keeps H.  So each
        # class of equal signs is evaluated once, on its first orientation
        # with choices[0] true (a global reversal keeps every sign).
        default_signs = crossing_signs(default)
        values: dict = {}
        for of in orientations:
            signs = crossing_signs(of)
            if of.choices[0] and signs not in values:
                OR = R if -1 not in signs else timed("sweep", oriented_ruling_polynomial, of)
                Q = rep.Q if signs == default_signs else timed("skein", Q_of, of)
                values[signs] = (OR, Q)
        record["oriented"] = []
        for of in orientations:
            OR, Q = values[crossing_signs(of)]
            choices = "".join("+" if c else "-" for c in of.choices)
            record["oriented"].append({"choices": choices, "OR": str(OR), "Q": str(Q)})
        record["agree_4_1"] = all(OR == Q for OR, Q in values.values())
    else:
        # null: Theorem 4.1 was not checked on this front.
        record["agree_4_1"] = None
    if timings:
        ms["total"] = time.perf_counter() - t0
        record["ms"] = {route: round(1000 * s, 1) for route, s in ms.items()}
    return record


def front_ok(record: dict, theorem: str) -> bool:
    """Whether a :func:`check_front` record passes ``theorem``: "3.1", "4.1"
    or "corollaries" (Theorem 3.1, and HOMFLY sharpness implies Kauffman
    sharpness)."""
    if theorem == "4.1":
        return record["agree_4_1"] is True
    if theorem == "corollaries" and record["homfly_sharp"] and not record["kauffman_sharp"]:
        return False
    return record["agree_3_1"]
