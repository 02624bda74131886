from __future__ import annotations

from hypothesis import given, strategies as st

from frontinv.poly import (
    NEG_INFINITY,
    LaurentPoly1,
    LaurentPoly2,
    coeff_a,
    deg_a,
    parse_poly1,
    parse_poly2,
    render_poly1,
    render_poly2,
)

A = LaurentPoly2.monomial(0, 1)
Z2 = LaurentPoly2.monomial(1, 0)
ONE = LaurentPoly2.one()


def p2(text: str) -> LaurentPoly2:
    return parse_poly2(text)


def test_additive_inverse():
    assert A + -A == LaurentPoly2.zero()
    assert not A + -A


def test_additive_identity():
    assert (A + Z2) + LaurentPoly2.zero() == A + Z2


def test_coefficient_addition():
    t = LaurentPoly2.monomial(-1, 1)
    assert t + t == LaurentPoly2.monomial(-1, 1, 2)


def test_difference_of_squares():
    assert (A + Z2) * (A - Z2) == p2("a^2 - z^2")


def test_mul_identity():
    p = p2("3*z^2*a^-1 - 7 + z^-5")
    assert p * ONE == p


def test_exponent_addition():
    assert LaurentPoly2.monomial(-1, 0) * (A - p2("a^-1")) == p2("z^-1*a - z^-1*a^-1")


def test_coeff_a_read_off():
    p = p2("z^-1*a - z^-1*a^-1 + 1")
    assert coeff_a(p, 1) == parse_poly1("z^-1")
    assert coeff_a(p, 0) == LaurentPoly1.one()
    assert coeff_a(p, 5) == LaurentPoly1.zero()


def test_coeff_a_zero_poly():
    for n in range(-3, 4):
        assert coeff_a(LaurentPoly2.zero(), n) == LaurentPoly1.zero()


def test_deg_a():
    assert deg_a(p2("z^-1*a - z^-1*a^-1 + 1")) == 1
    assert deg_a(LaurentPoly2.zero()) is NEG_INFINITY


def test_neg_infinity_total_order():
    assert NEG_INFINITY < -(10 ** 9)
    assert not NEG_INFINITY < NEG_INFINITY
    assert NEG_INFINITY <= NEG_INFINITY
    assert NEG_INFINITY == NEG_INFINITY
    assert not NEG_INFINITY > -5
    assert 0 > NEG_INFINITY


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-4, max_value=4)
poly2s = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=6).map(LaurentPoly2)
poly1s = st.dictionaries(exps, coeffs, max_size=6).map(LaurentPoly1)


@given(poly2s, poly2s, poly2s)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(poly2s)
def test_coeff_a_reconstructs(p):
    total = LaurentPoly2.zero()
    for n in {a for (_, a) in p.terms}:
        total = total + LaurentPoly2.from_poly1(coeff_a(p, n)).shift(0, n)
    assert total == p


@given(poly2s, poly2s)
def test_deg_a_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert deg_a(p * q) is NEG_INFINITY
    else:
        assert deg_a(p * q) == deg_a(p) + deg_a(q)


@given(poly2s)
def test_render_parse_round_trip_2(p):
    assert parse_poly2(render_poly2(p)) == p


@given(poly1s)
def test_render_parse_round_trip_1(p):
    assert parse_poly1(render_poly1(p)) == p


def test_canonical_rendering():
    # terms sorted by a-exponent descending, then z-exponent descending
    delta = p2("z^-1*a - z^-1*a^-1 + 1")
    assert render_poly2(delta) == "z^-1*a + 1 - z^-1*a^-1"
    assert render_poly2(LaurentPoly2.zero()) == "0"
    assert render_poly1(parse_poly1("2 + z^2")) == "z^2 + 2"
    assert render_poly1(parse_poly1("-z + 3*z^-2")) == "-z + 3*z^-2"


def test_shift():
    p = parse_poly1("z^2 + 2")
    assert p.shift(-1) == parse_poly1("z + 2*z^-1")
    q = p2("a^2 - z")
    assert q.shift(1, -2) == p2("z - z^2*a^-2")
