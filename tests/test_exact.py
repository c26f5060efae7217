from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divalg.exact import (
    DimensionError,
    Matrix,
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
