from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from frontinv.poly import (
    NEG_INFINITY,
    LaurentPoly,
    coeff_a,
    deg_a,
    parse_poly,
    parse_poly1,
)

A = LaurentPoly.monomial(0, 1)
Z2 = LaurentPoly.monomial(1, 0)
ONE = LaurentPoly.one()
EDGE = 2 ** 31 - 1


def p2(text: str) -> LaurentPoly:
    return parse_poly(text)


def test_additive_inverse():
    assert A + -A == LaurentPoly.zero()
    assert not A + -A


def test_additive_identity():
    assert (A + Z2) + LaurentPoly.zero() == A + Z2


def test_coefficient_addition():
    t = LaurentPoly.monomial(-1, 1)
    assert t + t == LaurentPoly.monomial(-1, 1, 2)


def test_difference_of_squares():
    assert (A + Z2) * (A - Z2) == p2("a^2 - z^2")


def test_mul_identity():
    p = p2("3*z^2*a^-1 - 7 + z^-5")
    assert p * ONE == p


def test_exponent_addition():
    assert LaurentPoly.monomial(-1, 0) * (A - p2("a^-1")) == p2("z^-1*a - z^-1*a^-1")


def test_coeff_a_read_off():
    p = p2("z^-1*a - z^-1*a^-1 + 1")
    assert coeff_a(p, 1) == parse_poly1("z^-1")
    assert coeff_a(p, 0) == LaurentPoly.one()
    assert coeff_a(p, 5) == LaurentPoly.zero()


def test_coeff_a_zero_poly():
    for n in range(-3, 4):
        assert coeff_a(LaurentPoly.zero(), n) == LaurentPoly.zero()


def test_deg_a():
    assert deg_a(p2("z^-1*a - z^-1*a^-1 + 1")) == 1
    assert deg_a(LaurentPoly.zero()) is NEG_INFINITY


def test_neg_infinity_total_order():
    assert NEG_INFINITY < -(10 ** 9)
    assert not NEG_INFINITY < NEG_INFINITY
    assert NEG_INFINITY <= NEG_INFINITY
    assert NEG_INFINITY == NEG_INFINITY
    assert not NEG_INFINITY > -5
    assert 0 > NEG_INFINITY


def test_terms_only_without_a():
    assert p2("z^2 + 2").terms == {2: 1, 0: 2}
    assert p2(f"z^{EDGE} - z^-{EDGE}").terms == {EDGE: 1, -EDGE: -1}
    for p in (A, p2("1 + z*a^-1"), p2(f"z^{EDGE}*a^-{EDGE}")):
        with pytest.raises(ValueError):
            p.terms


def test_parse_rejects_exponents_out_of_range():
    for text in ("z^2147483648", "a^-2147483648", "z^2147483647*z", "3 + a^9999999999"):
        with pytest.raises(ValueError):
            parse_poly(text)
    with pytest.raises(ValueError):
        parse_poly1("z^-2147483648")
    with pytest.raises(ValueError):
        parse_poly1("z + a")
    assert parse_poly1("z^-2147483647") == LaurentPoly.monomial(-EDGE)


# -- a naive reference: term maps keyed by (z-exponent, a-exponent) tuples


def _ref_clean(p):
    return {k: c for k, c in p.items() if c != 0}


def _ref_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for (z1, a1), c1 in p.items():
        for (z2, a2), c2 in q.items():
            k = (z1 + z2, a1 + a2)
            out[k] = out.get(k, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(p, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_render(p):
    parts = []
    for (z, a), c in sorted(p.items(), key=lambda kv: (-kv[0][1], -kv[0][0])):
        factors = [] if abs(c) == 1 and (z, a) != (0, 0) else [str(abs(c))]
        if z:
            factors.append("z" if z == 1 else f"z^{z}")
        if a:
            factors.append("a" if a == 1 else f"a^{a}")
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    if not parts:
        return "0"
    return ("-" if parts[0][0] == "-" else "") + parts[0][1] + "".join(
        f" {sign} {body}" for sign, body in parts[1:]
    )


def _build(p) -> LaurentPoly:
    return sum((LaurentPoly.monomial(z, a, c) for (z, a), c in p.items()), LaurentPoly.zero())


def _check(poly: LaurentPoly, ref) -> None:
    assert poly == _build(ref)
    assert str(poly) == _ref_render(ref)


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-4, max_value=4)
poly2s = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=6).map(_build)
poly1s = st.dictionaries(exps, coeffs, max_size=6).map(LaurentPoly)

wide = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
edge = wide | st.sampled_from([-EDGE, EDGE])
refs_wide = st.dictionaries(st.tuples(wide, wide), coeffs, max_size=6).map(_ref_clean)
refs_edge = st.dictionaries(st.tuples(edge, edge), coeffs, max_size=6).map(_ref_clean)


@given(refs_wide, refs_wide, wide, wide, st.integers(min_value=0, max_value=3))
def test_arithmetic_matches_tuple_reference(p, q, dz, da, n):
    P, Q = _build(p), _build(q)
    _check(P + Q, _ref_add(p, q))
    _check(P - Q, _ref_add(p, {k: -c for k, c in q.items()}))
    _check(P * Q, _ref_mul(p, q))
    _check(P * 3, _ref_clean({k: 3 * c for k, c in p.items()}))
    _check(P.shift(dz, da), {(z + dz, a + da): c for (z, a), c in p.items()})
    _check(P ** n, _ref_pow(p, n))


@given(refs_edge)
def test_readers_match_tuple_reference(p):
    P = _build(p)
    assert str(P) == _ref_render(p)
    assert parse_poly(str(P)) == P
    a_exps = {a for (_, a) in p}
    assert deg_a(P) == (max(a_exps) if p else NEG_INFINITY)
    for n in a_exps | {0, 1, -EDGE}:
        assert coeff_a(P, n).terms == {z: c for (z, a), c in p.items() if a == n}


@given(poly2s, poly2s, poly2s)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=6))
def test_coeff_a_reconstructs(p):
    P = _build(p)
    total = LaurentPoly.zero()
    for n in {a for (_, a) in p}:
        total = total + coeff_a(P, n).shift(0, n)
    assert total == P


@given(poly2s, poly2s)
def test_deg_a_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert deg_a(p * q) is NEG_INFINITY
    else:
        assert deg_a(p * q) == deg_a(p) + deg_a(q)


@given(poly2s)
def test_render_parse_round_trip_2(p):
    assert parse_poly(str(p)) == p


@given(poly1s)
def test_render_parse_round_trip_1(p):
    assert parse_poly1(str(p)) == p


def test_canonical_rendering():
    # terms sorted by a-exponent descending, then z-exponent descending
    delta = p2("z^-1*a - z^-1*a^-1 + 1")
    assert str(delta) == "z^-1*a + 1 - z^-1*a^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(parse_poly1("2 + z^2")) == "z^2 + 2"
    assert str(parse_poly1("-z + 3*z^-2")) == "-z + 3*z^-2"


def test_shift():
    p = parse_poly1("z^2 + 2")
    assert p.shift(-1) == parse_poly1("z + 2*z^-1")
    q = p2("a^2 - z")
    assert q.shift(1, -2) == p2("z - z^2*a^-2")
