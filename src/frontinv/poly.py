"""Exact sparse Laurent polynomials over the integers.

Two flavours are provided: :class:`LaurentPoly1` in the single variable ``z``
and :class:`LaurentPoly2` in ``(z, a)``.  Coefficients are Python ints, so
arithmetic is exact at any size.  Values are immutable and hashable; the zero
polynomial is the empty term map, and ``deg_a`` of the zero polynomial is the
distinguished :data:`NEG_INFINITY` marker rather than a sentinel integer.

Canonical text rendering sorts terms by a-exponent descending, then
z-exponent descending (z-exponent only for the one-variable flavour), e.g.
``z^-1*a + 1 - z^-1*a^-1``.  The same grammar is accepted by the parsers.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Union


class _NegInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NEG_INFINITY"

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("NEG_INFINITY")


NEG_INFINITY = _NegInfinity()


def _clean(terms: Mapping) -> dict:
    return {k: c for k, c in terms.items() if c != 0}


class LaurentPoly1:
    """Integer Laurent polynomial in ``z``; term map z-exponent -> coefficient."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = _clean(terms or {})
        self._hash = None

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return cls({0: 1})

    @classmethod
    def z(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly1":
        return cls({exp: coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly1(out)

    def __neg__(self) -> "LaurentPoly1":
        return LaurentPoly1({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly1", int]) -> "LaurentPoly1":
        if isinstance(other, int):
            return LaurentPoly1({e: c * other for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly1(out)

    __rmul__ = __mul__

    def shift(self, dz: int) -> "LaurentPoly1":
        """Multiply by z**dz."""
        return LaurentPoly1({e + dz: c for e, c in self._terms.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly1({self})"

    def __str__(self) -> str:
        return render_poly1(self)


class LaurentPoly2:
    """Integer Laurent polynomial in ``(z, a)``; keys are (z-exp, a-exp)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self._terms = _clean(terms or {})
        self._hash = None

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, z_exp: int = 0, a_exp: int = 0, coeff: int = 1) -> "LaurentPoly2":
        return cls({(z_exp, a_exp): coeff})

    @classmethod
    def from_poly1(cls, p: LaurentPoly1) -> "LaurentPoly2":
        return cls({(e, 0): c for e, c in p.terms.items()})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly2", int]) -> "LaurentPoly2":
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self._terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (z1, a1), c1 in self._terms.items():
            for (z2, a2), c2 in other._terms.items():
                k = (z1 + z2, a1 + a2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly2":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPoly2.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, dz: int = 0, da: int = 0) -> "LaurentPoly2":
        """Multiply by z**dz * a**da."""
        return LaurentPoly2({(z + dz, a + da): c for (z, a), c in self._terms.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly2({self})"

    def __str__(self) -> str:
        return render_poly2(self)


def coeff_a(p: LaurentPoly2, n: int) -> LaurentPoly1:
    """The z-polynomial multiplying a**n in ``p``."""
    return LaurentPoly1({z: c for (z, a), c in p.terms.items() if a == n})


def deg_a(p: LaurentPoly2):
    """Maximal a-exponent with nonzero coefficient, or NEG_INFINITY for 0."""
    if p.is_zero():
        return NEG_INFINITY
    return max(a for (_, a) in p.terms)


# ---------------------------------------------------------------------------
# Canonical text form


def _term_text(coeff: int, z_exp: int, a_exp: int = 0) -> tuple[str, str]:
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


def _join_terms(parts: list[tuple[str, str]]) -> str:
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def render_poly1(p: LaurentPoly1) -> str:
    items = sorted(p.terms.items(), key=lambda kv: -kv[0])
    return _join_terms([_term_text(c, e) for e, c in items])


def render_poly2(p: LaurentPoly2) -> str:
    items = sorted(p.terms.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
    return _join_terms([_term_text(c, z, a) for (z, a), c in items])


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
        yield coeff, z_exp, a_exp
        sign = None
        seen_term = True
    if sign is not None:
        raise ValueError("polynomial text ends with a dangling sign")


def parse_poly1(text: str) -> LaurentPoly1:
    out: dict[int, int] = {}
    for coeff, z_exp, a_exp in _parse_terms(text):
        if a_exp != 0:
            raise ValueError("unexpected variable a in one-variable polynomial")
        out[z_exp] = out.get(z_exp, 0) + coeff
    return LaurentPoly1(out)


def parse_poly2(text: str) -> LaurentPoly2:
    out: dict[tuple[int, int], int] = {}
    for coeff, z_exp, a_exp in _parse_terms(text):
        k = (z_exp, a_exp)
        out[k] = out.get(k, 0) + coeff
    return LaurentPoly2(out)
