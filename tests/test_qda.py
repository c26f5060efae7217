from fractions import Fraction

import pytest

from divalg import modkernel
from divalg.builtins import cross3_triple, cross7_triple, octonion_algebra, quaternion_algebra
from divalg.dissident import (
    DissidentMap,
    DissidentTriple,
    MatrixQuadruple,
    quadruple_to_triple,
    random_antisymmetric,
    random_quadruple,
    sample_vector,
    seeded_rng,
    triple_morphism_check,
)
from divalg.exact import Matrix, dot
from divalg.octonion import NotUnital, extend_quaternion_automorphism, rotation_from_quaternion
from divalg.qda import (
    AlgebraPresentation,
    BadDimension,
    IndefiniteForm,
    algebra_morphism_check,
    division_check,
    functor_on_morphism,
    make_qda,
    quadratic_check,
    quadruple_algebra,
    recover_triple,
)

from test_octonion import matrix_algebra


def e(i, dim):
    return tuple(Fraction(int(i == t)) for t in range(dim))


def test_make_qda_unity_and_squares():
    alg = make_qda(cross7_triple())
    one = e(0, 8)
    x = (Fraction(0), 1, 2, 0, 0, 0, 0, 3)
    assert alg.mul(one, x) == x and alg.mul(x, one) == x
    # (0, v)(0, v) = (-|v|^2, 0)
    sq = alg.mul(x, x)
    assert sq == tuple([-dot(x, x)] + [Fraction(0)] * 7)


def test_cross7_algebra_is_the_octonion_table():
    assert make_qda(cross7_triple()) == octonion_algebra()
    assert make_qda(cross3_triple()) == quaternion_algebra()


def test_quadruple_algebra_matches_composition():
    for seed in (0, 1, 2):
        q = random_quadruple(seed)
        assert quadruple_algebra(q) == make_qda(quadruple_to_triple(q))


def test_quadruple_algebra_scalar_slot():
    # (A, 0, I, I): (a,v)(b,w) scalar slot is ab - v.w + v^t A w
    a = random_antisymmetric(seeded_rng(0, "slot"))
    q = MatrixQuadruple(a, Matrix.zeros(7, 7), Matrix.identity(7), Matrix.identity(7))
    alg = quadruple_algebra(q)
    rng = seeded_rng(1, "slot-pts")
    for _ in range(5):
        x = sample_vector(rng, 8)
        y = sample_vector(rng, 8)
        v, w = x[1:], y[1:]
        prod = alg.mul(x, y)
        assert prod[0] == x[0] * y[0] - dot(v, w) + dot(v, a.matvec(w))


def test_recover_octonions_and_quaternions():
    triple = recover_triple(octonion_algebra())
    assert triple == cross7_triple()
    assert recover_triple(quaternion_algebra()) == cross3_triple()


def test_roundtrip_exact():
    for seed in range(4):
        q = random_quadruple(seed)
        t = quadruple_to_triple(q)
        assert recover_triple(make_qda(t)) == t
    # arbitrary antisymmetric xi with the vector product
    t = DissidentTriple(7, random_antisymmetric(seeded_rng(5, "xi")), cross7_triple().eta)
    assert recover_triple(make_qda(t)) == t


def test_recover_bad_dimension():
    with pytest.raises(BadDimension):
        recover_triple(matrix_algebra(3))  # dim 9


def test_recover_indefinite_form():
    # 2x2 matrices are quadratic but their trace form on sl_2 is indefinite
    with pytest.raises(IndefiniteForm):
        recover_triple(matrix_algebra(2))


def test_division_check_octonions():
    alg = octonion_algebra()
    assert division_check(alg, 200, 0) is None
    a = e(0, 8)
    a = tuple(x + y for x, y in zip(a, e(1, 8)))  # 1 + e1
    assert alg.left_mul_matrix(a).det() == 16
    assert alg.right_mul_matrix(a).det() == 16


def test_division_det_formula_octonions():
    alg = octonion_algebra()
    rng = seeded_rng(2, "detL")
    for _ in range(20):
        a = sample_vector(rng, 8)
        norm = a[0] ** 2 + dot(a[1:], a[1:])
        assert alg.left_mul_matrix(a).det() == norm ** 4


def test_division_fails_for_zero_eta():
    t = DissidentTriple(7, Matrix.zeros(7, 7), DissidentMap(7, [[[0] * 7] * 7] * 7))
    alg = make_qda(t)
    witness = division_check(alg, 50, 0)
    assert witness is not None
    assert (alg.left_mul_matrix(witness).det() == 0
            or alg.right_mul_matrix(witness).det() == 0)


def complex_numbers():
    return AlgebraPresentation([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0])


def test_division_check_complex_numbers():
    assert division_check(complex_numbers(), 50, 0) is None


def _parent_division_check(alg, trials, seed):
    """division_check as it was before it screened its samples mod p: the
    reference for its witnesses."""
    rng = seeded_rng(seed, "division")
    for _ in range(trials):
        a = sample_vector(rng, alg.dim)
        if alg.left_mul_matrix(a).det() == 0 or alg.right_mul_matrix(a).det() == 0:
            return a
    return None


def test_division_screen_with_a_tiny_prime_keeps_the_witnesses(monkeypatch):
    # mod 3 a sample with a denominator 3 has no residue, so the exact path
    # decides nearly every draw (382 dets for the 200 octonion samples of
    # seed 0); mod 5 every sample reduces and about a fifth of the operators
    # are singular (72 dets).  The octonions pass, the zero-eta algebra fails
    zero_eta = make_qda(DissidentTriple(7, Matrix.zeros(7, 7),
                                        DissidentMap(7, [[[0] * 7] * 7] * 7)))
    cases = [(octonion_algebra(), 200, 0), (octonion_algebra(), 200, 5),
             (complex_numbers(), 200, 0), (zero_eta, 50, 0), (zero_eta, 50, 3)]
    cases += [(quadruple_algebra(random_quadruple(s)), 60, s) for s in range(3)]
    witnesses = []
    for prime in (modkernel.SCREEN_PRIME, 3, 5):
        monkeypatch.setattr(modkernel, "SCREEN_PRIME", prime)
        got = [division_check(alg, trials, seed) for alg, trials, seed in cases]
        witnesses.append(got)
    assert witnesses[0] == witnesses[1] == witnesses[2] == [
        _parent_division_check(alg, trials, seed) for alg, trials, seed in cases]
    assert witnesses[0][3] is not None and witnesses[0][4] is not None


def test_quadratic_check():
    assert quadratic_check(octonion_algebra())
    assert quadratic_check(make_qda(quadruple_to_triple(random_quadruple(3))))
    # quadratic for EVERY triple, dissident or not
    t = DissidentTriple(7, Matrix.zeros(7, 7), DissidentMap(7, [[[0] * 7] * 7] * 7))
    assert quadratic_check(make_qda(t))
    # 2x2 matrices are quadratic by Cayley-Hamilton; 3x3 are not
    assert quadratic_check(matrix_algebra(2))
    assert not quadratic_check(matrix_algebra(3))


def test_quadratic_check_not_unital():
    constants = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(NotUnital):
        AlgebraPresentation(constants, [1, 0])


def test_algebra_morphism_examples():
    alg = octonion_algebra()
    assert algebra_morphism_check(alg, alg, Matrix.identity(8))
    # swapping 1 and e1 is not multiplicative
    swap = Matrix([[0, 1, 0, 0, 0, 0, 0, 0],
                   [1, 0, 0, 0, 0, 0, 0, 0]] + [e(i, 8) for i in range(2, 8)])
    assert not algebra_morphism_check(alg, alg, swap)
    with pytest.raises(ValueError):
        algebra_morphism_check(alg, alg, Matrix.zeros(8, 8))


def test_morphism_transport():
    s = extend_quaternion_automorphism(rotation_from_quaternion((1, 1, 1, 1)))
    q = random_quadruple(11)
    conj = MatrixQuadruple(
        s * q.a * s.transpose(), s * q.b * s.transpose(),
        s * q.c * s.transpose(), s * q.d * s.transpose(),
    )
    src, dst = quadruple_to_triple(q), quadruple_to_triple(conj)
    assert triple_morphism_check(src, dst, s)
    assert algebra_morphism_check(make_qda(src), make_qda(dst), functor_on_morphism(s))


def test_frobenius_consistency_gram_positive_definite():
    from divalg.octonion import frobenius_form, frobenius_split

    alg = make_qda(quadruple_to_triple(random_quadruple(6)))
    rho, v_basis = frobenius_split(alg)
    gram = Matrix([[frobenius_form(alg, rho)[i + 1, j + 1] for j in range(7)]
                   for i in range(7)])
    assert gram.is_positive_definite()
    assert gram == Matrix.identity(7)
