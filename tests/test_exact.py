import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from divalg.exact import (
    Contraction,
    DimensionError,
    Matrix,
    contraction_width,
    dot,
    is_rational_square,
    primitive_vector,
    scalar_from_str,
    scalar_to_str,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def square_matrices(n, entries=small_fractions):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def test_scalar_strings():
    assert scalar_to_str(Fraction(3, 2)) == "3/2"
    assert scalar_to_str(Fraction(-4, 2)) == "-2"
    assert scalar_from_str("7/3") == Fraction(7, 3)
    assert scalar_from_str("-5") == Fraction(-5)
    assert scalar_from_str(" 2/4 ") == Fraction(1, 2)


def test_primitive_vector_and_lines():
    assert primitive_vector((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)
    assert primitive_vector((Fraction(-2), Fraction(4))) == (1, -2)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_rational_square(Fraction(0)) == 0
    assert is_rational_square(Fraction(2)) is None
    assert is_rational_square(Fraction(-1)) is None


# -- determinants ------------------------------------------------------------


def test_det_examples():
    assert Matrix.identity(7).det() == 1
    assert Matrix.diagonal([2] * 7).det() == 128
    assert Matrix([[0, 1], [-1, 0]]).det() == 1
    assert Matrix([[1, 1], [1, 1]]).det() == 0


def _det_permutation_expansion(m):
    # independent oracle: Leibniz formula
    import itertools

    n = m.rows
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m[i, perm[i]]
        total += sign * term
    return total


@settings(max_examples=30, deadline=None)
@given(square_matrices(4))
def test_det_matches_permutation_expansion(m):
    assert m.det() == _det_permutation_expansion(m)


@settings(max_examples=25, deadline=None)
@given(square_matrices(4), square_matrices(4))
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


def test_det_multiplicative_7x7_seeded():
    import random

    rng = random.Random(2)
    mk = lambda: Matrix(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(7)] for _ in range(7)]
    )
    for _ in range(3):
        a, b = mk(), mk()
        assert (a * b).det() == a.det() * b.det()


def test_det_at_the_width_bound():
    # the pivots of a diagonal matrix whose entries shrink down the
    # diagonal are the largest minors minor_widths sizes each field for:
    # powers of two of either sign put them at the top of their fields;
    # the row permutations add swaps
    rng = random.Random(0)
    for n in range(1, 9):
        diagonal = sorted((rng.choice((-1, 1)) << rng.randrange(300) for _ in range(n)),
                          key=abs, reverse=True)
        rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diagonal)]
        assert Matrix(rows).det() == prod(diagonal)
        order = rng.sample(range(n), n)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        assert Matrix([rows[i] for i in order]).det() == (-1) ** inversions * prod(diagonal)


def test_det_requires_square():
    with pytest.raises(DimensionError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


# -- kernels -----------------------------------------------------------------


def test_kernel_examples():
    assert Matrix.identity(3).kernel() == []
    basis = Matrix.zeros(2, 3).kernel()
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert Matrix([[1, 1], [1, 1]]).kernel() == [(1, -1)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=2, max_size=5
    )
)
def test_kernel_membership_and_dimension(rows):
    m = Matrix(rows)
    basis = m.kernel()
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))
        assert primitive_vector(v) == v
    oracle_dim = len(sympy.Matrix(rows).nullspace())
    assert len(basis) == oracle_dim


def test_kernel_canonical_is_rref_of_subspace():
    m = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]])
    basis = m.kernel()
    # spans must be stable under re-canonicalization
    again = Matrix(basis).rref()[0]
    assert [primitive_vector(r) for r in again.entries[: len(basis)]] == basis


# -- predicates --------------------------------------------------------------


def test_predicates():
    assert Matrix.identity(4).is_orthogonal()
    assert Matrix([[0, 1], [-1, 0]]).is_antisymmetric()
    assert not Matrix([[0, 1], [1, 0]]).is_antisymmetric()
    assert Matrix([[2, 1], [1, 2]]).is_positive_definite()
    assert not Matrix([[1, 2], [2, 1]]).is_positive_definite()
    assert not Matrix([[1, 2], [3, 4]]).is_positive_definite()  # not symmetric
    # a zero first pivot, and a zero second one: no row swap rescues either
    assert not Matrix([[0, 1], [1, 0]]).is_positive_definite()
    assert not Matrix([[1, 1], [1, 1]]).is_positive_definite()
    assert not Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).is_positive_definite()


def test_positive_definite_matches_the_leading_minors():
    import random

    rng = random.Random(5)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 5)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            m[i][i] += rng.randint(0, 6)
        m = Matrix(m)
        minors = [_det_permutation_expansion(Matrix([row[:k] for row in m.entries[:k]]))
                  for k in range(1, n + 1)]
        expected = all(x > 0 for x in minors)
        assert m.is_positive_definite() == expected
        seen.add(expected)
    assert seen == {True, False}


# -- products ----------------------------------------------------------------


def _fraction_dot(u, v):
    """The dot product as a sum of Fraction products: the reference for
    the integer products."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


# numerators and denominators up to 10**30, and rows of zeros
wide_fractions = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**30)


def _rows(rows, cols):
    row = st.one_of(st.just([Fraction(0)] * cols),
                    st.lists(wide_fractions, min_size=cols, max_size=cols))
    return st.lists(row, min_size=rows, max_size=rows)


@pytest.mark.parametrize("rows,inner,cols", [(1, 1, 1), (1, 4, 1), (4, 1, 4), (3, 4, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_match_fraction_sums(rows, inner, cols, data):
    a = Matrix(data.draw(_rows(rows, inner)))
    b = Matrix(data.draw(_rows(inner, cols)))
    v = data.draw(_rows(1, inner))[0]
    product = a * b
    assert product.entries == tuple(
        tuple(_fraction_dot(row, col) for col in zip(*b.entries)) for row in a.entries)
    assert all(type(x) is Fraction for row in product.entries for x in row)
    image = a.matvec(v)
    assert image == tuple(_fraction_dot(row, v) for row in a.entries)
    assert all(type(x) is Fraction for x in image)
    assert dot(a.row(0), v) == _fraction_dot(a.row(0), v)


def _contraction_cases(n):
    """(t, x, y): an n x n x n cube and two vectors, signed entries up to 2**200."""
    ints = st.integers(-2**200, 2**200)
    vectors = st.lists(ints, min_size=n, max_size=n)
    cubes = st.lists(st.lists(vectors, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(cubes, vectors, vectors)


_TOP = [2**200] * 7


@pytest.mark.parametrize("order", ["t[a][b][f]", "t[a][f][b]"])
@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from((1, 3, 7)).flatmap(_contraction_cases))
@example(case=([[_TOP] * 7] * 7, _TOP, _TOP))
@example(case=([[[-x for x in _TOP]] * 7] * 7, _TOP, [-x for x in _TOP]))
def test_contraction_matches_the_triple_sum(order, case):
    # x and y contract with the slots a and b of the cube, which holds t
    # as the falsifier does, or with the slots j and k of t[j][i][k] as the
    # pointwise validation does; all entries at 2**200 put a field exactly
    # at the bound contraction_width proves
    t, x, y = case
    n = len(t)
    if order == "t[a][b][f]":
        cube = t
        expected = [sum(x[a] * y[b] * t[a][b][f] for a in range(n) for b in range(n))
                    for f in range(n)]
    else:
        cube = [[[t[a][f][b] for f in range(n)] for b in range(n)] for a in range(n)]
        expected = [sum(x[j] * y[k] * t[j][i][k] for j in range(n) for k in range(n))
                    for i in range(n)]
    contraction = Contraction(cube, contraction_width(cube, max(map(abs, x)),
                                                      sum(map(abs, y))))
    assert contraction(x, y) == expected
    assert contraction.vanishes(x, contraction.pack(y)) == (not any(expected))
    assert (contraction.pack(y) == 0) == (not any(y))
    # antisymmetric in the slots of x and y, the cube contracts x with
    # itself to 0 between fields that do not vanish
    anti = [[[cube[a][b][f] - cube[b][a][f] for f in range(n)] for b in range(n)]
            for a in range(n)]
    contraction = Contraction(anti, contraction_width(anti, max(map(abs, x)),
                                                      sum(map(abs, x))))
    assert contraction(x, x) == [0] * n
    assert contraction.vanishes(x, contraction.pack(x))


def test_rank_and_solve():
    m = Matrix([[1, 2], [2, 4], [1, 0]])
    assert m.rank() == 2
    sol = Matrix([[1, 1], [0, 1]]).solve_right((3, 2))
    assert sol == (Fraction(1), Fraction(2))
    assert Matrix([[1, 1], [1, 1]]).solve_right((1, 2)) is None


def test_matrix_immutable_and_hashable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(Matrix([[1, 2], [3, 4]]))
    assert dot((1, 2), (3, 4)) == 11
