from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divalg.poly import (
    HomogeneousPoly,
    PolyError,
    divide_exact,
    monomial_count,
    monomials,
    poly_content_gcd,
)

X0 = HomogeneousPoly.variable(3, 0)
X1 = HomogeneousPoly.variable(3, 1)
X2 = HomogeneousPoly.variable(3, 2)


def evaluate(p, point):
    """p at a rational point, term by term in Fractions."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        for x, e in zip(point, exps):
            coeff *= Fraction(x) ** e
        total += coeff
    return total


def polys(nvars=3, degree=2):
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    monos = monomials(nvars, degree)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=4).map(
        lambda terms: HomogeneousPoly(nvars, degree, terms)
    )


def test_monomials_order_and_count():
    assert monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials(7, 5)) == monomial_count(7, 5) == 462
    assert monomial_count(7, 8) == 3003


def test_arith_examples():
    assert X0 * X1 == HomogeneousPoly(3, 2, {(1, 1, 0): 1})
    x0sq = X0 * X0
    assert (x0sq + -x0sq).is_zero()
    assert (X0 + X1) * (X0 - X1) == x0sq - X1 * X1


def test_add_degree_mismatch():
    with pytest.raises(PolyError):
        X0 + X0 * X0
    with pytest.raises(PolyError):
        X0 * HomogeneousPoly.variable(2, 0)


def test_mul_degree_adds_and_eval():
    p = (X0 + X1) * (X1 + X2)
    assert p.degree == 2
    assert evaluate(p, (1, 2, 3)) == Fraction(15)
    assert evaluate(X0, (Fraction(1, 2), 0, 0)) == Fraction(1, 2)


def test_leading_grlex():
    p = HomogeneousPoly(3, 2, {(0, 1, 1): 5, (1, 1, 0): 2})
    assert p.leading() == ((1, 1, 0), Fraction(2))


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_mul_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), polys(degree=1))
def test_distributive_and_associative(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


# -- gcd ---------------------------------------------------------------------


def test_gcd_examples():
    assert poly_content_gcd([X0 * X0, X0 * X0 * X0]) == X0 * X0
    assert poly_content_gcd([X0 * X1, X0 * X2]) == X0
    one = HomogeneousPoly.constant(3, 1)
    assert poly_content_gcd([X0 + X1, X0 - X1]) == one
    with pytest.raises(PolyError):
        poly_content_gcd([HomogeneousPoly.zero(3, 2)])


def test_gcd_is_monic_in_grlex():
    g = poly_content_gcd([2 * (X0 * X0), 4 * (X0 * X1)])
    assert g == X0


def test_gcd_divides_inputs():
    # dual route: gcd comes from sympy, divisibility from our own division
    ps = [
        (X0 + X1) * (X0 + X1) * X2,
        (X0 + X1) * (X1 + X2) * (X1 + X2),
        (X0 + X1) * (X0 * X0 + X1 * X2),
    ]
    g = poly_content_gcd(ps)
    assert g == X0 + X1
    for p in ps:
        q = divide_exact(p, g)
        assert q is not None
        assert q * g == p


def test_divide_exact_detects_indivisibility():
    assert divide_exact(X0 * X0 + X1 * X1, X0 + X1) is None
    assert divide_exact((X0 + X1) * (X0 + X2), X0 + X1) == X0 + X2


def test_zero_poly_identity_and_nominal_degree():
    z2 = HomogeneousPoly.zero(3, 2)
    assert (X0 * X0 + z2) == X0 * X0
    assert z2 == HomogeneousPoly.zero(3, 5)  # zeros compare equal across degrees
    assert repr(z2) == "0"


def test_term_validation():
    with pytest.raises(PolyError):
        HomogeneousPoly(3, 2, {(1, 0, 0): 1})  # degree mismatch
    with pytest.raises(PolyError):
        HomogeneousPoly(3, 2, {(1, 1): 1})  # arity mismatch
