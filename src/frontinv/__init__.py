"""Invariants of Legendrian front diagrams.

Fronts are closed words in elementary tangles (left cusps, crossings, right
cusps).  The package computes the ruling polynomial three mutually
independent ways: by sweep enumeration of rulings, by a rewriting calculus
on words, and as a distinguished coefficient of the Dubrovnik polynomial of
the underlying topological diagram; the oriented analogue is matched against
a HOMFLY coefficient.
"""

__version__ = "0.1.0"
