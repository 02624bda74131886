"""Exact sparse Laurent polynomials in ``z`` and ``a`` over the integers.

One class, :class:`LaurentPoly`, serves both the one-variable polynomials in
``z`` (ruling polynomials, B and Q) and the two-variable ones in ``(z, a)``
(the Dubrovnik and HOMFLY polynomials).  Coefficients are Python ints, so
arithmetic is exact at any size.  Values are immutable and hashable; the zero
polynomial is the empty term map, and ``deg_a`` of the zero polynomial is
:data:`NEG_INFINITY`, which is ``float("-inf")`` and so compares below every
integer degree.

Key layout: the term map is ``dict[int, int]``, and the term z^i a^j has the
key ``i + j * 2**32``.  Multiplying monomials adds their keys, so products and
shifts are integer additions, and a polynomial with no ``a`` term is keyed by
its z-exponents alone.  Both exponents must satisfy ``|e| < 2**31``; the
parsers reject text outside that bound.  A key decodes as
``z = ((k + 2**31) mod 2**32) - 2**31`` and ``a = (k - z) / 2**32``.

Canonical text rendering sorts terms by a-exponent descending, then
z-exponent descending, e.g. ``z^-1*a + 1 - z^-1*a^-1``; with no ``a`` term
that is the z-exponent order.  The same grammar is accepted by the parsers.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

_A = 1 << 32          # key step of one power of a
_HALF = 1 << 31       # exponents lie strictly between -_HALF and _HALF
NEG_INFINITY = float("-inf")  # deg_a of the zero polynomial


def _decode(key: int) -> tuple[int, int]:
    """(z-exponent, a-exponent) of a packed key."""
    z = ((key + _HALF) & (_A - 1)) - _HALF
    return z, (key - z) >> 32


class LaurentPoly:
    """Integer Laurent polynomial in ``(z, a)``; term map packed key -> coefficient."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = {k: c for k, c in (terms or {}).items() if c != 0}
        self._hash = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, z: int = 0, a: int = 0, c: int = 1) -> "LaurentPoly":
        """c * z**z * a**a."""
        return cls({z + a * _A: c})

    @property
    def terms(self) -> dict[int, int]:
        """z-exponent -> coefficient; ValueError if the polynomial has an a term."""
        if any(not -_HALF <= k < _HALF for k in self._terms):
            raise ValueError(f"{self} has an a term; read it with coeff_a or deg_a")
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(out)

    def _scaled(self, d: int, m: int) -> "LaurentPoly":
        """The product by the monomial with key ``d`` and coefficient ``m != 0``.

        Over the integers it moves and scales every term and makes no zero
        coefficient, so the term map skips the zero filter of ``__init__``.
        """
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k + d: c * m for k, c in self._terms.items()}
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        return self._scaled(0, -1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return self._scaled(0, other) if other else LaurentPoly()
        if len(other._terms) == 1:
            ((d, m),) = other._terms.items()
            return self._scaled(d, m)
        if len(self._terms) == 1:
            ((d, m),) = self._terms.items()
            return other._scaled(d, m)
        out: dict[int, int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, dz: int, da: int = 0) -> "LaurentPoly":
        """Multiply by z**dz * a**da."""
        return self._scaled(dz + da * _A, 1)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        # Keys order as (a-exponent, z-exponent) pairs do.
        parts = [_term_text(c, *_decode(k)) for k, c in sorted(self._terms.items(), reverse=True)]
        if not parts:
            return "0"
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def coeff_a(p: LaurentPoly, n: int) -> LaurentPoly:
    """The z-polynomial multiplying a**n in ``p``."""
    base = n * _A
    return LaurentPoly({k - base: c for k, c in p._terms.items() if -_HALF <= k - base < _HALF})


def deg_a(p: LaurentPoly):
    """Maximal a-exponent with nonzero coefficient; ``float("-inf")`` for 0."""
    if p.is_zero():
        return NEG_INFINITY
    return (max(p._terms) + _HALF) >> 32


# ---------------------------------------------------------------------------
# Canonical text form


def _term_text(coeff: int, z_exp: int, a_exp: int) -> tuple[str, str]:
    """Return (sign, body) for one term."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    factors = []
    if z_exp != 0:
        factors.append("z" if z_exp == 1 else f"z^{z_exp}")
    if a_exp != 0:
        factors.append("a" if a_exp == 1 else f"a^{a_exp}")
    if not factors or mag != 1:
        factors.insert(0, str(mag))
    return sign, "*".join(factors)


_FACTOR_RE = re.compile(r"^(?:(-?\d+)|([za])(?:\^(-?\d+))?)$")


def _parse_terms(text: str) -> Iterable[tuple[int, int, int]]:
    """Yield (coeff, z_exp, a_exp) triples from the canonical grammar."""
    s = text.strip()
    if s in ("", "0"):
        return
    # Protect exponent signs before splitting on binary +/-.
    s = s.replace("^-", "^~")
    s = s.replace("-", " - ").replace("+", " + ")
    tokens = s.split()
    sign: int | None = None
    seen_term = False
    for tok in tokens:
        if tok in ("+", "-"):
            if sign is not None:
                raise ValueError("two consecutive signs in polynomial text")
            sign = -1 if tok == "-" else 1
            continue
        if seen_term and sign is None:
            raise ValueError(f"missing operator before {tok!r}")
        coeff = sign if sign is not None else 1
        z_exp = 0
        a_exp = 0
        for factor in tok.replace("^~", "^-").split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in polynomial text")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                var, exp = m.group(2), int(m.group(3) or 1)
                if var == "z":
                    z_exp += exp
                else:
                    a_exp += exp
        if abs(z_exp) >= _HALF or abs(a_exp) >= _HALF:
            raise ValueError(f"exponent of {tok!r} out of range (|e| < 2**31)")
        yield coeff, z_exp, a_exp
        sign = None
        seen_term = True
    if sign is not None:
        raise ValueError("polynomial text ends with a dangling sign")


def parse_poly(text: str) -> LaurentPoly:
    out: dict[int, int] = {}
    for coeff, z_exp, a_exp in _parse_terms(text):
        k = z_exp + a_exp * _A
        out[k] = out.get(k, 0) + coeff
    return LaurentPoly(out)


def parse_poly1(text: str) -> LaurentPoly:
    """As :func:`parse_poly`, for text in ``z`` alone."""
    if "a" in text:
        raise ValueError("unexpected variable a in one-variable polynomial")
    return parse_poly(text)
