"""Invariants of Legendrian front diagrams.

Fronts are closed words in elementary tangles (left cusps, crossings, right
cusps).  The package computes the ruling polynomial three mutually
independent ways: by sweep enumeration of rulings, by a rewriting calculus
on words, and as a distinguished coefficient of the Dubrovnik polynomial of
the underlying topological diagram; the oriented analogue is matched against
a HOMFLY coefficient.
"""

__version__ = "0.1.0"

from .front import (  # noqa: F401
    FrontWord,
    OrientedFront,
    all_orientations,
    apply_move,
    components,
    invariants,
    orient,
    parse_front,
    parse_front_file,
    stabilize,
)
from .diagram import from_oriented_front, pd_export, pd_import  # noqa: F401
from .legskein import canonicalize, evaluate_B  # noqa: F401
from .poly import LaurentPoly, NEG_INFINITY, coeff_a, deg_a  # noqa: F401
from .rulings import (  # noqa: F401
    enumerate_rulings,
    enumerate_rulings_bruteforce,
    is_ruling,
    oriented_ruling_polynomial,
    ruling_polynomial,
)
from .toposkein import B_of, Q_of, homfly_H, homfly_P, kauffman_D, kauffman_F, sharpness  # noqa: F401
