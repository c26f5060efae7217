from fractions import Fraction

import pytest

from divalg import modkernel
from divalg.dissident import (
    DegenerateSpan,
    DissidentMap,
    DissidentTriple,
    InvariantViolation,
    MatrixQuadruple,
    ZeroVector,
    cross_product_map,
    dissidence_falsify,
    eta_P_point,
    eval_eta,
    quadruple_to_triple,
    random_quadruple,
    sample_vector,
    seeded_rng,
    triple_morphism_check,
)
from divalg.exact import Matrix, dot, primitive_vector
from divalg.octonion import extend_quaternion_automorphism, rotation_from_quaternion, vector_product


def e(i, n=7):
    return tuple(Fraction(int(i == t)) for t in range(n))


def zero_map(n):
    z = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return DissidentMap(n, z)


def test_tensor_invariants():
    bad = [[[Fraction(1)] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(InvariantViolation):
        DissidentMap(3, bad)
    with pytest.raises(InvariantViolation):
        DissidentMap(5, [[[0] * 5] * 5] * 5)


def test_eval_eta_examples():
    x7 = cross_product_map(7)
    assert eval_eta(x7, e(0), e(1)) == e(2)
    v = sample_vector(seeded_rng(0, "v"), 7)
    assert eval_eta(x7, v, v) == tuple([Fraction(0)] * 7)
    identity_triple = quadruple_to_triple(MatrixQuadruple.identity())
    assert eval_eta(identity_triple.eta, e(0), e(1)) == e(2)


def test_quadruple_to_triple_formulas():
    q = MatrixQuadruple.identity()
    t = quadruple_to_triple(q)
    assert t.xi == Matrix.zeros(7, 7)
    assert t.eta == cross_product_map(7)

    # (A, 0, I, I): xi = A, eta stays the vector product
    rng = seeded_rng(1, "A")
    from divalg.dissident import random_antisymmetric

    a = random_antisymmetric(rng)
    t = quadruple_to_triple(MatrixQuadruple(a, Matrix.zeros(7, 7), Matrix.identity(7), Matrix.identity(7)))
    assert t.xi == a
    assert t.eta == cross_product_map(7)

    # (0, 0, I, D) diagonal with product 1: eta(v ^ w) = D(Dv x Dw)
    diag = [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3), 1, 1, 1]
    d = Matrix.diagonal(diag)
    t = quadruple_to_triple(MatrixQuadruple(Matrix.zeros(7, 7), Matrix.zeros(7, 7), Matrix.identity(7), d))
    expected = DissidentMap.from_bilinear(
        7, lambda v, w: d.matvec(vector_product(d.matvec(v), d.matvec(w)))
    )
    assert t.eta == expected


def test_quadruple_invariants_enforced():
    eye = Matrix.identity(7)
    zero = Matrix.zeros(7, 7)
    with pytest.raises(InvariantViolation):
        MatrixQuadruple(eye, zero, eye, eye)  # A not antisymmetric
    with pytest.raises(InvariantViolation):
        MatrixQuadruple(zero, zero, zero, eye)  # C not positive definite
    with pytest.raises(InvariantViolation):
        MatrixQuadruple(zero, zero, eye, eye.scale(2))  # det D != 1


def test_dissidence_falsify():
    assert dissidence_falsify(cross_product_map(7), 300, 0) is None
    assert dissidence_falsify(cross_product_map(3), 300, 0) is None
    witness = dissidence_falsify(zero_map(7), 1, 0)
    assert witness is not None
    v, w = witness
    assert Matrix([v, w]).rank() == 2  # the witness pair itself is independent


def _parent_falsify(eta, trials, seed):
    """dissidence_falsify as it was before it skipped rank [v; w] on
    rank-3 draws: the reference for its witnesses."""
    rng = seeded_rng(seed, "dissidence")
    n = eta.n
    for _ in range(trials):
        while True:
            v = sample_vector(rng, n)
            w = sample_vector(rng, n)
            if Matrix([v, w]).rank() == 2:
                break
        if Matrix([v, w, eval_eta(eta, v, w)]).rank() < 3:
            return (v, w)
    return None


def partial_map(images, n=3):
    """eta(e_i ^ e_j) = images[i, j] for i < j, zero on the other pairs."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), image in images.items():
        for k, x in enumerate(image):
            t[i][j][k], t[j][i][k] = x, -x
    return DissidentMap(n, t)


# witnesses lie 3..158 trials deep; seeds 18, 40 and 62 of TWO redraw a
# dependent pair before theirs, and seeds 3 and 6 of TWO find none.  Seed 18
# finds its witness in trial 70, so a budget of 69 must not.
ONE = partial_map({(0, 1): (0, 0, 1)})
TWO = partial_map({(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
WITNESS_CASES = (
    [(ONE, s, 200) for s in range(8)]
    + [(TWO, s, 200) for s in (*range(8), 18, 40, 62)]
    + [(TWO, 18, 69), (TWO, 18, 70), (zero_map(7), 0, 1), (cross_product_map(3), 1, 200)]
)


def test_dissidence_falsify_keeps_the_witnesses():
    for eta, seed, trials in WITNESS_CASES:
        assert dissidence_falsify(eta, trials, seed) == _parent_falsify(eta, trials, seed)
    assert dissidence_falsify(TWO, 69, 18) is None and dissidence_falsify(TWO, 70, 18)


@pytest.mark.parametrize("prime", [3, 5])
def test_dissidence_screen_with_a_tiny_prime_keeps_the_witnesses(monkeypatch, prime):
    # mod 3 a sample with a denominator 3 has no residue, so the exact path
    # decides most draws (175 of 200 for cross3, seed 1); mod 5 every sample
    # reduces and the screen leaves 36 of them rank-deficient
    monkeypatch.setattr(modkernel, "SCREEN_PRIME", prime)
    for eta, seed, trials in WITNESS_CASES:
        assert dissidence_falsify(eta, trials, seed) == _parent_falsify(eta, trials, seed)
    t = quadruple_to_triple(random_quadruple(0))
    assert dissidence_falsify(t.eta, 100, 0) is None
    assert dissidence_falsify(cross_product_map(7), 300, 2) is None


def test_random_quadruples_are_dissident():
    for seed in range(3):
        t = quadruple_to_triple(random_quadruple(seed))
        assert dissidence_falsify(t.eta, 120, seed) is None


def test_eta_P_point_cross_products():
    for n in (3, 7):
        xn = cross_product_map(n)
        assert eta_P_point(xn, e(0, n)) == primitive_vector(e(0, n))
        rng = seeded_rng(3, "pts")
        for _ in range(10):
            v = sample_vector(rng, n)
            assert eta_P_point(xn, v) == primitive_vector(v)


def test_eta_P_point_errors():
    with pytest.raises(ZeroVector):
        eta_P_point(cross_product_map(7), tuple([Fraction(0)] * 7))
    with pytest.raises(DegenerateSpan):
        eta_P_point(zero_map(7), e(0))


def test_eta_P_point_projective_and_orthogonal():
    t = quadruple_to_triple(random_quadruple(9))
    rng = seeded_rng(4, "proj")
    norms = [Fraction(3), Fraction(-1, 2), Fraction(7, 3)]
    for _ in range(6):
        v = sample_vector(rng, 7)
        line = eta_P_point(t.eta, v)
        for lam in norms:
            assert eta_P_point(t.eta, tuple(lam * x for x in v)) == line
        # the output line is orthogonal to every eta(v ^ w_i(v))
        n2 = dot(v, v)
        for i in range(7):
            w_i = tuple(n2 * a - v[i] * b for a, b in zip(e(i), v))
            assert dot(line, eval_eta(t.eta, v, w_i)) == 0


def test_eta_P_injectivity_sampling():
    t = quadruple_to_triple(random_quadruple(13))
    rng = seeded_rng(5, "inj")
    lines = set()
    images = []
    for _ in range(20):
        v = sample_vector(rng, 7)
        ln = primitive_vector(v)
        if ln in lines:
            continue
        lines.add(ln)
        images.append(eta_P_point(t.eta, v))
    assert len(set(images)) == len(images)


def test_triple_morphism_examples():
    t = quadruple_to_triple(random_quadruple(2))
    assert triple_morphism_check(t, t, Matrix.identity(7))

    s = extend_quaternion_automorphism(rotation_from_quaternion((1, 1, 0, 0)))
    q = random_quadruple(2)
    conj = MatrixQuadruple(
        s * q.a * s.transpose(), s * q.b * s.transpose(),
        s * q.c * s.transpose(), s * q.d * s.transpose(),
    )
    assert triple_morphism_check(quadruple_to_triple(q), quadruple_to_triple(conj), s)

    # xi mismatch
    x7 = cross_product_map(7)
    with_xi = DissidentTriple(7, random_quadruple(4).a, x7)
    without_xi = DissidentTriple(7, Matrix.zeros(7, 7), x7)
    assert not triple_morphism_check(without_xi, with_xi, Matrix.identity(7))


def test_sampling_determinism():
    a = dissidence_falsify(zero_map(3), 5, 123)
    b = dissidence_falsify(zero_map(3), 5, 123)
    assert a == b
    assert random_quadruple(7).d == random_quadruple(7).d
