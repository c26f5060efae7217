from fractions import Fraction
from math import lcm

import pytest

from divalg import dissident
from divalg.dissident import (
    DRAW_BOUND,
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
    as_fractions,
    sample_fraction,
    sample_integer_vector,
    sample_vector,
    seeded_rng,
    triple_morphism_check,
)
from divalg.exact import DimensionError, Matrix, dot, integer_multiple, primitive_vector
from divalg.octonion import extend_quaternion_automorphism, rotation_from_quaternion, vector_product
from conftest import _perfbench_module


def e(i, n=7):
    return tuple(Fraction(int(i == t)) for t in range(n))


def zero_map(n):
    z = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return DissidentMap(n, z)


def tabulate(n, fn):
    """The map with eta(e_i ^ e_j) = fn(e_i, e_j), one call per basis pair."""
    return DissidentMap(n, [[fn(e(i, n), e(j, n)) for j in range(n)] for i in range(n)])


def fraction_matvec(m, v):
    """m v as sums of Fraction products: the reference for the integer
    products."""
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.entries)


def paper_eta(q):
    """The paper's eta(v ^ w) = (B+C) D (Dv x Dw) of a quadruple, each
    product a Fraction sum."""
    bc = q.b + q.c

    def eta(v, w):
        cross = vector_product(fraction_matvec(q.d, v), fraction_matvec(q.d, w))
        return fraction_matvec(bc, fraction_matvec(q.d, cross))

    return tabulate(7, eta)


def test_tensor_invariants():
    bad = [[[Fraction(1)] * 3 for _ in range(3)] for _ in range(3)]
    with pytest.raises(InvariantViolation):
        DissidentMap(3, bad)
    with pytest.raises(InvariantViolation):
        DissidentMap(5, [[[0] * 5] * 5] * 5)


def test_oversized_tensor_is_rejected():
    # a fourth plane and a fourth cell in a plane were sliced off, which
    # left cross3
    t = [[list(cell) for cell in plane] + [[0] * 3] for plane in cross_product_map(3).tensor]
    t.append([[0] * 3 for _ in range(4)])
    with pytest.raises(DimensionError, match="tensor is not n x n x n"):
        DissidentMap(3, t)
    t = [[list(cell) for cell in plane] for plane in cross_product_map(3).tensor]
    t[1].append([0] * 3)
    with pytest.raises(DimensionError, match="tensor is not n x n x n"):
        DissidentMap(3, t)


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
    expected = tabulate(7, lambda v, w: fraction_matvec(
        d, vector_product(fraction_matvec(d, v), fraction_matvec(d, w))))
    assert t.eta == expected


@pytest.mark.parametrize("seed", [None, *range(20)], ids=["identity", *map(str, range(20))])
def test_quadruple_to_triple_matches_the_paper_formula(seed):
    q = MatrixQuadruple.identity() if seed is None else random_quadruple(seed)
    t = quadruple_to_triple(q)
    assert t.xi == q.a
    assert t.eta == paper_eta(q)


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
    assert dissidence_falsify(cross_product_map(7), 300, 2) is None
    assert dissidence_falsify(cross_product_map(3), 300, 0) is None
    witness = dissidence_falsify(zero_map(7), 1, 0)
    assert witness is not None
    v, w = witness
    assert Matrix([v, w]).rank() == 2  # the witness pair itself is independent


def _parent_falsify(eta, trials, seed, sample=sample_vector):
    """dissidence_falsify as a loop of Fraction ranks: the reference for
    its witnesses."""
    rng = seeded_rng(seed, "dissidence")
    n = eta.n
    for _ in range(trials):
        while True:
            v = sample(rng, n)
            w = sample(rng, n)
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


def dense_map():
    """ONE on R^7 conjugated by the rotation cayley_orthogonal(5) and scaled
    by (2**41 + 7) / 3**20: every cell is dense, and the cleared tensor's
    entries reach 46 bits."""
    inputs = _perfbench_module("inputs")
    one = partial_map({(0, 1): (0, 0, 1, 0, 0, 0, 0)}, n=7)
    tensor = inputs.conjugate(one.tensor, inputs.cayley_orthogonal(5))
    return scaled_map(DissidentMap(7, tensor), Fraction(2**41 + 7, 3**20))


def scaled_map(eta, c):
    return DissidentMap(eta.n, [[[c * x for x in cell] for cell in row] for row in eta.tensor])


# witnesses lie 3..158 trials deep; seeds 18, 40 and 62 of TWO redraw a
# dependent pair before theirs, and seeds 3 and 6 of TWO find none.  Seed 18
# finds its witness in trial 70, so a budget of 69 must not.  The dense map
# finds witnesses at seeds 0 and 4 and none at seed 1.
ONE = partial_map({(0, 1): (0, 0, 1)})
TWO = partial_map({(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
DENSE = dense_map()
WITNESS_CASES = (
    [(ONE, s, 200) for s in range(8)]
    + [(TWO, s, 200) for s in (*range(8), 18, 40, 62)]
    + [(TWO, 18, 69), (TWO, 18, 70), (zero_map(7), 0, 1), (cross_product_map(3), 1, 200)]
    + [(DENSE, s, 200) for s in (0, 1, 4)]
)


def test_dissidence_falsify_keeps_the_witnesses():
    for eta, seed, trials in WITNESS_CASES:
        assert dissidence_falsify(eta, trials, seed) == _parent_falsify(eta, trials, seed)
    assert dissidence_falsify(TWO, 69, 18) is None and dissidence_falsify(TWO, 70, 18)
    assert dissidence_falsify(DENSE, 200, 0) and dissidence_falsify(DENSE, 200, 4)


def draws_off_two_coordinates(rng, n, nonzero=True):
    """sample_integer_vector on the last n - 2 coordinates, with zeros on
    the first two."""
    ints, den = sample_integer_vector(rng, n - 2)
    return [0, 0, *ints], den


def test_dissidence_falsify_pivots_past_zero_pluecker_coordinates(monkeypatch):
    # p_0j = p_1j = 0 for every pair of these draws, so each is decided on
    # a later pair of coordinates; cross7 finds no witness, the dense map
    # finds one at each seed
    monkeypatch.setattr(dissident, "sample_integer_vector", draws_off_two_coordinates)
    cases = [(cross_product_map(7), 0), (cross_product_map(7), 1), (DENSE, 0), (DENSE, 1)]
    for eta, seed in cases:
        assert dissidence_falsify(eta, 100, seed) == _parent_falsify(
            eta, 100, seed, lambda rng, n: as_fractions(draws_off_two_coordinates(rng, n)))


def test_dissidence_memory_does_not_grow_with_the_budget(traced_peaks):
    one, ten = traced_peaks(
        lambda trials: dissidence_falsify(cross_product_map(7), trials, 0), (100, 1000))
    assert ten < 2 * one


def test_dissidence_falsify_is_invariant_under_scaling_eta():
    # [v; w; c eta(v ^ w)] has the rank of [v; w; eta(v ^ w)] for c != 0;
    # c = -7/3 also gives the tensor denominators to clear, and
    # c = (2**300 + 1) / 3 widens the packed fields past 300 bits
    for c in (Fraction(-7, 3), Fraction(2**300 + 1, 3)):
        for eta, seed, trials in WITNESS_CASES:
            assert (dissidence_falsify(scaled_map(eta, c), trials, seed)
                    == dissidence_falsify(eta, trials, seed))


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


@pytest.mark.parametrize("label", ["dissidence", "division", "lifting-points"])
@pytest.mark.parametrize("seed", range(3))
def test_sample_fraction_follows_the_randint_stream(seed, label):
    # the frozen witnesses, liftings and digests were drawn as
    # Fraction(randint(-8, 8), randint(1, 3)); the sampler must give the
    # same values and leave the generator in the same state
    rng, reference = seeded_rng(seed, label), seeded_rng(seed, label)
    for _ in range(10_000):
        assert sample_fraction(rng) == Fraction(reference.randint(-8, 8),
                                                reference.randint(1, 3))
    assert rng.getstate() == reference.getstate()


def test_integer_draws_reach_the_draw_bound():
    # the division check sizes its packed fields from DRAW_BOUND
    rng = seeded_rng(0, "division")
    largest = max(max(map(abs, sample_integer_vector(rng, 8)[0])) for _ in range(2000))
    assert largest == DRAW_BOUND


def test_integer_sampler_has_no_nonzero_vector_of_r0():
    # R^0 has only the zero vector, which a nonzero draw redrew forever
    rng = seeded_rng(0, "division")
    with pytest.raises(ValueError):
        sample_integer_vector(rng, 0)
    assert sample_integer_vector(rng, 0, nonzero=False) == ([], 1)


@pytest.mark.parametrize("label", ["dissidence", "division", "lifting-points"])
@pytest.mark.parametrize("seed", range(3))
def test_integer_sampler_follows_the_randint_stream(seed, label):
    # each integer draw is the integer multiple and the lcm of the vector
    # the randint loop draws, with the same redraws of zero vectors (one
    # in 17 at n = 1), and sample_vector is its Fraction view
    rng, reference = seeded_rng(seed, label), seeded_rng(seed, label)
    for t in range(3000):
        n, nonzero = (1, 3, 7, 8)[t % 4], t % 5 != 0
        while True:
            want = tuple(Fraction(reference.randint(-8, 8), reference.randint(1, 3))
                         for _ in range(n))
            if not nonzero or any(want):
                break
        if t % 2:
            assert sample_vector(rng, n, nonzero) == want
            continue
        ints, den = sample_integer_vector(rng, n, nonzero)
        assert (ints, den) == (integer_multiple(want), lcm(*(x.denominator for x in want)))
        assert as_fractions((ints, den)) == want
    assert rng.getstate() == reference.getstate()
