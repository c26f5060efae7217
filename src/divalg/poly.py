"""Homogeneous multivariate polynomials with rational coefficients.

A polynomial is a map from exponent tuples (all summing to the same total
degree) to nonzero Fractions.  The monomial order used everywhere is graded
lexicographic with x0 > x1 > ...; since all polynomials here are homogeneous
this reduces to plain lexicographic comparison of exponent tuples within one
degree.  A Lifting is n such polynomials in n variables of one common
degree.  GCDs are delegated to sympy (a mature exact implementation) and then
renormalized to leading coefficient 1 under this order.  divide_exact, an
exact division written here, has no caller in the package: it stays as the
tests' independent check of the sympy GCD.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exact import as_fraction, scalar_to_str


class PolyError(ValueError):
    pass


def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lex descending."""
    if degree < 0:
        raise PolyError("negative degree")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def monomial_count(nvars: int, degree: int) -> int:
    return comb(degree + nvars - 1, nvars - 1)


class HomogeneousPoly:
    """Homogeneous polynomial in ``nvars`` variables of fixed total degree.

    The zero polynomial is the empty term map with a nominal degree.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise PolyError(f"bad exponent tuple {exps} for {nvars} variables")
            if sum(exps) != degree:
                raise PolyError(f"term {exps} is not of degree {degree}")
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
        clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPoly is immutable")

    # -- constructors

    @staticmethod
    def zero(nvars: int, degree: int = 0) -> "HomogeneousPoly":
        return HomogeneousPoly(nvars, degree, {})

    @staticmethod
    def constant(nvars: int, c) -> "HomogeneousPoly":
        return HomogeneousPoly(nvars, 0, {(0,) * nvars: as_fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "HomogeneousPoly":
        exps = [0] * nvars
        exps[i] = 1
        return HomogeneousPoly(nvars, 1, {tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps, coeff=1) -> "HomogeneousPoly":
        exps = tuple(exps)
        return HomogeneousPoly(nvars, sum(exps), {exps: as_fraction(coeff)})

    # -- basics

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        # zero polynomials of any nominal degree are equal
        if self.is_zero() and other.is_zero():
            return self.nvars == other.nvars
        return (self.nvars, self.degree, self.terms) == (other.nvars, other.degree, other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
            )
            if mono:
                bits.append(f"{scalar_to_str(coeff)}*{mono}" if coeff != 1 else mono)
            else:
                bits.append(scalar_to_str(coeff))
        return " + ".join(bits)

    def leading(self):
        """(exponent tuple, coefficient) of the grlex-leading term."""
        if self.is_zero():
            raise PolyError("leading term of the zero polynomial")
        exps = max(self.terms)
        return exps, self.terms[exps]

    # -- arithmetic

    def _check_nvars(self, other):
        if self.nvars != other.nvars:
            raise PolyError("variable count mismatch")

    def __add__(self, other):
        self._check_nvars(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise PolyError("degree mismatch in homogeneous addition")
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return HomogeneousPoly(self.nvars, self.degree, terms)

    def __neg__(self):
        return HomogeneousPoly(self.nvars, self.degree,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return self.scale(other)
        self._check_nvars(other)
        degree = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return HomogeneousPoly.zero(self.nvars, degree)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
        return HomogeneousPoly(self.nvars, degree, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "HomogeneousPoly":
        c = as_fraction(c)
        if c == 0:
            return HomogeneousPoly.zero(self.nvars, self.degree)
        return HomogeneousPoly(self.nvars, self.degree,
                               {e: c * v for e, v in self.terms.items()})


# The lifting of a dissident map has degree at most 5: the degree scan stops
# there, and lifting_from_json rejects a higher degree.
DEFAULT_MAX_DEGREE = 5


class Lifting:
    """A lifting: n components in n variables, homogeneous of common degree
    >= 1, not all zero (checked here), relatively prime (proved by the scan's
    kernels, lifting_from_json's GCD, or identity's distinct variables)."""

    __slots__ = ("n", "degree", "components")

    def __init__(self, n, degree, components):
        components = tuple(components)
        if len(components) != n:
            raise ValueError("component count differs from n")
        if degree < 1:
            raise ValueError("lifting degree must be >= 1")
        for p in components:
            if p.nvars != n or p.degree != degree:
                raise ValueError("components must share nvars and degree")
        if all(p.is_zero() for p in components):
            raise ValueError("lifting components are all zero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("Lifting is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Lifting)
            and (self.n, self.degree, self.components)
            == (other.n, other.degree, other.components)
        )

    @staticmethod
    def identity(n) -> "Lifting":
        return Lifting(n, 1, [HomogeneousPoly.variable(n, i) for i in range(n)])


def divide_exact(p: HomogeneousPoly, g: HomogeneousPoly):
    """Exact quotient p / g, or None when g does not divide p.

    Single-divisor division in grlex order: the leading term of any multiple
    of g is divisible by the leading term of g, so the first failure proves
    indivisibility.
    """
    p._check_nvars(g)
    if g.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return HomogeneousPoly.zero(p.nvars, max(p.degree - g.degree, 0))
    if p.degree < g.degree:
        return None
    quotient = {}
    r = p
    g_exps, g_coeff = g.leading()
    while not r.is_zero():
        r_exps, r_coeff = r.leading()
        diff = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(d < 0 for d in diff):
            return None
        c = r_coeff / g_coeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        r = r - g * HomogeneousPoly.monomial(p.nvars, diff, c)
    return HomogeneousPoly(p.nvars, p.degree - g.degree, quotient)


# ---------------------------------------------------------------------------
# GCD (sympy-backed, renormalized to our monomial order).  sympy is imported
# on the first GCD only: it is most of the import time of the package, and
# lift and degree never need it (the scan's kernels prove relative primality).


def _to_sympy(p: HomogeneousPoly, gens):
    import sympy

    rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(rep, *gens, domain="QQ")


def _from_sympy(poly, nvars) -> HomogeneousPoly:
    terms = {}
    degree = 0
    for exps, coeff in poly.as_dict().items():
        exps = tuple(int(e) for e in exps)
        degree = sum(exps)
        coeff = Fraction(int(coeff.p), int(coeff.q))
        terms[exps] = coeff
    if not terms:
        return HomogeneousPoly.zero(nvars, 0)
    degrees = {sum(e) for e in terms}
    if len(degrees) != 1:
        raise PolyError("gcd of homogeneous inputs came back inhomogeneous")
    return HomogeneousPoly(nvars, degree, terms)


def poly_content_gcd(polys) -> HomogeneousPoly:
    """GCD of a family of homogeneous polynomials.

    Returns the common divisor normalized to leading coefficient 1 in grlex
    order; the constant 1 iff the inputs are relatively prime.  Raises on an
    empty family or all-zero inputs.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise PolyError("gcd of all-zero inputs")
    nvars = polys[0].nvars
    for p in polys:
        if p.nvars != nvars:
            raise PolyError("variable count mismatch")
    import sympy

    gens = sympy.symbols(f"x0:{nvars}")
    acc = _to_sympy(polys[0], gens)
    one = sympy.Poly(1, *gens, domain="QQ")
    for p in polys[1:]:
        acc = acc.gcd(_to_sympy(p, gens))
        if acc == one:
            break
    result = _from_sympy(acc, nvars)
    _, lead = result.leading()
    return result.scale(1 / lead)

