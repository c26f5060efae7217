"""Dissident maps, dissident triples, and matrix quadruples.

A dissident map on V is a linear map eta: V wedge V -> V such that
v, w, eta(v ^ w) are linearly independent whenever v, w are; such maps exist
only for dim V in {0, 1, 3, 7}, and this module constructs the two
interesting sizes.  Maps are stored as antisymmetric structure tensors over
the standard basis.  Dissidence itself is only ever falsified (each seeded
random pair is decided exactly in Python ints from its Pluecker
coordinates), never certified: no terminating exact decision procedure is
implemented here, so a clean falsification budget is reported as
"consistent with dissident", nothing stronger.

A matrix quadruple (A, B, C, D) - two antisymmetric matrices, a positive
definite symmetric matrix, and a positive definite symmetric matrix of
determinant 1 - yields the dissident triple (R^7, v^t A w, (B+C)D(Dv x Dw));
these are exactly the degree-1 triples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

from .exact import (
    Contraction,
    DimensionError,
    Matrix,
    basis_vector,
    bilinear,
    cleared,
    cleared_tensor,
    contraction_width,
    is_zero_vector,
    vector,
)


class ZeroVector(ValueError):
    pass


class DegenerateSpan(ValueError):
    """The image span eta(v ^ v_perp) is not a hyperplane: eta is not
    dissident at this point."""


class InvariantViolation(ValueError):
    """A constructor argument fails its exact structural predicate."""


class DissidentMap:
    """Antisymmetric structure tensor t with eta(e_i ^ e_j) = sum_k t[i][j][k] e_k."""

    __slots__ = ("n", "tensor", "_integer_tensor")

    def __init__(self, n, tensor):
        if n not in (3, 7):
            raise InvariantViolation(f"no dissident maps are built for n={n}")
        if len(tensor) != n or any(len(plane) != n or any(len(cell) != n for cell in plane)
                                   for plane in tensor):
            raise DimensionError("tensor is not n x n x n")
        tensor = tuple(tuple(vector(cell) for cell in plane) for plane in tensor)
        for i in range(n):
            for j in range(n):
                if tensor[i][j] != tuple(-x for x in tensor[j][i]):
                    raise InvariantViolation("structure tensor is not antisymmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("DissidentMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DissidentMap)
            and self.n == other.n
            and self.tensor == other.tensor
        )

    def __hash__(self):
        return hash((self.n, self.tensor))

    def __call__(self, v, w):
        return eval_eta(self, v, w)

    @property
    def integer_tensor(self):
        """The tensor times the lcm of its denominators, as nested lists of
        ints (exact.cleared_tensor): the form every integer computation on
        the map reads, computed on first use and kept, so callers must not
        change it."""
        try:
            return self._integer_tensor
        except AttributeError:
            object.__setattr__(self, "_integer_tensor", cleared_tensor(self.tensor)[0])
            return self._integer_tensor


def cross_product_map(n) -> DissidentMap:
    """The vector product on R^3 or R^7 as a dissident map."""
    from .octonion import CROSS3_TENSOR, CROSS7_TENSOR

    tensor = {3: CROSS3_TENSOR, 7: CROSS7_TENSOR}[n]
    return DissidentMap(n, tensor)


def eval_eta(eta: DissidentMap, v, w):
    """Bilinear, antisymmetric evaluation of eta(v ^ w) from the tensor."""
    return bilinear(eta.tensor, vector(v), vector(w))


class DissidentTriple:
    """(R^n with the standard scalar product, xi, eta): xi an antisymmetric
    form given by a matrix (xi(v ^ w) = v^t Xi w), eta a dissident map."""

    __slots__ = ("n", "xi", "eta")

    def __init__(self, n, xi: Matrix, eta: DissidentMap):
        if eta.n != n or xi.rows != n or xi.cols != n:
            raise DimensionError("triple components disagree on n")
        if not xi.is_antisymmetric():
            raise InvariantViolation("xi matrix is not antisymmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)

    def __setattr__(self, name, value):
        raise AttributeError("DissidentTriple is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DissidentTriple)
            and (self.n, self.xi, self.eta) == (other.n, other.xi, other.eta)
        )

    def __hash__(self):
        return hash((self.n, self.xi, self.eta))


class MatrixQuadruple:
    """(A, B, C, D): A, B antisymmetric; C positive definite symmetric;
    D positive definite symmetric of determinant 1.  All predicates are
    verified exactly on construction."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Matrix, b: Matrix, c: Matrix, d: Matrix):
        for name, m in (("A", a), ("B", b), ("C", c), ("D", d)):
            if (m.rows, m.cols) != (7, 7):
                raise DimensionError(f"{name} must be 7x7")
        if not a.is_antisymmetric():
            raise InvariantViolation("A is not antisymmetric")
        if not b.is_antisymmetric():
            raise InvariantViolation("B is not antisymmetric")
        if not c.is_positive_definite():
            raise InvariantViolation("C is not positive definite symmetric")
        if not d.is_positive_definite():
            raise InvariantViolation("D is not positive definite symmetric")
        if d.det() != 1:
            raise InvariantViolation("det D is not 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixQuadruple is immutable")

    @staticmethod
    def identity() -> "MatrixQuadruple":
        zero = Matrix.zeros(7, 7)
        eye = Matrix.identity(7)
        return MatrixQuadruple(zero, zero, eye, eye)


@cache
def _cross7_terms():
    """The nonzero entries (a, b, k, t) of the integer vector product tensor
    on R^7."""
    from .octonion import CROSS7_TENSOR

    return tuple((a, b, k, t) for a, plane in enumerate(CROSS7_TENSOR)
                 for b, cell in enumerate(plane) for k, t in enumerate(cell) if t)


def quadruple_to_triple(q: MatrixQuadruple) -> DissidentTriple:
    """(A,B,C,D) -> (R^7, v^t A w, (B+C) D (Dv x Dw)) expanded to tensors.

    eta(e_i ^ e_j) = (B+C) D (d_i x d_j) for the columns d_i of D.  D and
    (B+C) D are each cleared to integers by one common denominator, delta
    and mu, so each of the 21 cells i < j is an integer vector product and
    an integer matrix-vector product over mu delta**2; the cells j > i are
    their negatives and the diagonal is zero.
    """
    d, delta = cleared([x for row in q.d.entries for x in row])
    cols = [d[j::7] for j in range(7)]
    bc_d, mu = cleared([x for row in ((q.b + q.c) * q.d).entries for x in row])
    rows = [bc_d[7 * i:7 * i + 7] for i in range(7)]
    den = mu * delta * delta
    terms = _cross7_terms()
    zero = (Fraction(0),) * 7
    tensor = [[zero] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            x, y = cols[i], cols[j]
            cross = [0] * 7
            for a, b, k, t in terms:
                cross[k] += t * x[a] * y[b]
            cell = [sum(map(mul, row, cross)) for row in rows]
            tensor[i][j] = tuple(Fraction(c, den) for c in cell)
            tensor[j][i] = tuple(Fraction(-c, den) for c in cell)
    return DissidentTriple(7, q.a, DissidentMap(7, tensor))


# ---------------------------------------------------------------------------
# deterministic sampling


def seeded_rng(seed, *labels) -> random.Random:
    """A random stream keyed by the seed and a label path.  String seeding is
    hash-randomization-free, so runs are reproducible across processes."""
    return random.Random(":".join(["divalg", str(seed), *labels]))


# Fraction(num, den) in lowest terms, as (numerator, denominator), for num in
# -8..8 and den in 1..3, indexed by (num + 8, den - 1).
_PAIRS = tuple(tuple(Fraction(num, den).as_integer_ratio() for den in (1, 2, 3))
               for num in range(-8, 9))

# The largest absolute value of an entry of sample_integer_vector's ints:
# |num| <= 8 times den // b <= lcm(1, 2, 3).
DRAW_BOUND = 8 * 6


def sample_integer_vector(rng: random.Random, n, nonzero=True):
    """n draws of Fraction(rng.randint(-8, 8), rng.randint(1, 3)) as (ints,
    den): den the lcm of their denominators, ints their multiple by it.  A
    zero vector is redrawn unless ``nonzero`` is false; with ``nonzero``, n
    must be at least 1, since every vector of R^0 is zero.

    randint(a, b) is a + rng._randbelow(b - a + 1), and for a Random
    _randbelow(k) draws getrandbits(k.bit_length()) until the value is
    below k.  The same draws give the same values and leave the generator
    in the same state, without the cost of randint and of a Fraction per
    entry.
    """
    if nonzero and n < 1:
        raise ValueError(f"R^{n} has no nonzero vector")
    getrandbits = rng.getrandbits
    while True:
        pairs = []
        for _ in range(n):
            num = getrandbits(5)
            while num >= 17:
                num = getrandbits(5)
            den = getrandbits(2)
            while den == 3:
                den = getrandbits(2)
            pairs.append(_PAIRS[num][den])
        den = lcm(*(b for _, b in pairs))
        ints = [a * (den // b) for a, b in pairs]
        if not nonzero or any(ints):
            return ints, den


def as_fractions(draw):
    """The rational vector ints / den of a draw (ints, den)."""
    ints, den = draw
    return tuple(Fraction(a, den) for a in ints)


def sample_vector(rng: random.Random, n, nonzero=True):
    """The Fraction view of sample_integer_vector."""
    return as_fractions(sample_integer_vector(rng, n, nonzero))


def sample_fraction(rng: random.Random) -> Fraction:
    """Fraction(rng.randint(-8, 8), rng.randint(1, 3)): one entry of
    sample_vector."""
    return sample_vector(rng, 1, nonzero=False)[0]


def dissidence_falsify(eta: DissidentMap, trials: int, seed):
    """Search for an exact witness against dissidence.

    Samples `trials` independent rational pairs (v, w) (dependent draws are
    rejected and redrawn) and decides whether v, w and x = eta(v ^ w) are
    independent.  Returns the first pair where they are not, or None if
    the budget passes.  Deterministic given the seed.  The check stays
    sampled: a passing budget is consistent with dissidence, not a proof
    of it.

    Each draw is decided in Python ints.  Scaling v, w or the tensor by a
    nonzero rational changes no span, so v and w are the integer draws
    (sample_integer_vector) and the tensor is its integer multiple
    (cleared_tensor).  v and w are dependent exactly when their Pluecker
    coordinates p_ij = v_i w_j - v_j w_i, i < j, are all zero.  Otherwise
    x = eta(v ^ w) = sum_{a,b} v_a w_b t[a][b] is one packed big-int
    product (exact.Contraction), whose field width holds for every draw,
    as no entry of a draw exceeds DRAW_BOUND.  Take the first nonzero
    p_ab: the coordinates a and b of v and w form an invertible 2x2
    system, so by Cramer's rule x is in span(v, w) exactly when
    p_ab x = (x_a w_b - x_b w_a) v + (v_a x_b - v_b x_a) w, the only
    combination that matches x in those two coordinates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed, "dissidence")
    n = eta.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cube = eta.integer_tensor
    eta_of = Contraction(cube, contraction_width(cube, DRAW_BOUND, n * DRAW_BOUND))
    while trials:
        v_draw, w_draw = sample_integer_vector(rng, n), sample_integer_vector(rng, n)
        v, w = v_draw[0], w_draw[0]
        ab = next(((i, j) for i, j in pairs if v[i] * w[j] != v[j] * w[i]), None)
        if ab is None:
            continue
        x = eta_of(v, w)
        a, b = ab
        p = v[a] * w[b] - v[b] * w[a]
        alpha, beta = x[a] * w[b] - x[b] * w[a], v[a] * x[b] - v[b] * x[a]
        if all(p * xk == alpha * vk + beta * wk for xk, vk, wk in zip(x, v, w)):
            return as_fractions(v_draw), as_fractions(w_draw)
        trials -= 1
    return None


def eta_P_point(eta: DissidentMap, v):
    """One point of the induced projective map: [v] -> (eta(v ^ v_perp))_perp.

    eta(v ^ v) = 0, so eta(v ^ v_perp) = eta(v ^ R^n) is spanned by the n
    images eta(v ^ e_i); the kernel computation tolerates the redundancy.
    Returns the canonical primitive vector of the orthogonal line.  Raises
    DegenerateSpan when the image span is not a hyperplane (i.e. eta is not
    dissident at v).

    The pointwise validation of liftings screens its samples mod p
    (lifting._sample_lines) and calls this exact computation only for the
    samples whose residue leaves the line undecided.
    """
    n = eta.n
    if len(v) != n:
        raise DimensionError("point length mismatch")
    v = vector(v)
    if is_zero_vector(v):
        raise ZeroVector("eta_P is undefined at 0")
    rows = [eval_eta(eta, v, basis_vector(n, i)) for i in range(n)]
    kernel = Matrix(rows).kernel()
    if len(kernel) != 1:
        raise DegenerateSpan(
            f"eta(v ^ v_perp) has rank {n - len(kernel)}, expected {n - 1}"
        )
    return kernel[0]


def triple_morphism_check(src: DissidentTriple, dst: DissidentTriple, phi: Matrix) -> bool:
    """Exact morphism test: phi orthogonal, xi = xi'(phi ^ phi), and
    phi eta = eta'(phi ^ phi), checked on all basis pairs."""
    if src.n != dst.n:
        raise DimensionError("triple dimensions differ")
    n = src.n
    if (phi.rows, phi.cols) != (n, n):
        raise DimensionError("phi has wrong shape")
    if not phi.is_orthogonal():
        return False
    if phi.transpose() * dst.xi * phi != src.xi:
        return False
    cols = [phi.column(j) for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = phi.matvec(src.eta.tensor[i][j])
            rhs = eval_eta(dst.eta, cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# seeded random quadruples (exact invariants by construction)

_PYTHAGOREAN_UNITS = (
    (3, 4, 0, 0, 0, 0, 0),
    (0, 0, 3, 4, 0, 0, 0),
    (1, 2, 2, 0, 0, 0, 0),
    (0, 0, 0, 2, 3, 6, 0),
    (0, 0, 0, 0, 1, 4, 8),
    (2, 6, 3, 0, 0, 0, 0),
)


def _householder(u) -> Matrix:
    """The reflection I - 2 u u^t / |u|^2 along an integer vector u."""
    n2 = sum(x * x for x in u)
    return Matrix([[Fraction(n2 * (i == j) - 2 * ui * uj, n2) for j, uj in enumerate(u)]
                   for i, ui in enumerate(u)])


def random_antisymmetric(rng, n=7) -> Matrix:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = sample_fraction(rng)
            m[i][j] = x
            m[j][i] = -x
    return Matrix(m)


def random_quadruple(seed) -> MatrixQuadruple:
    """A deterministic random element of the quadruple set.

    C = N^t N + I is positive definite; D is a rational-orthogonal conjugate
    of a diagonal matrix with product 1, so det D = 1 exactly and D stays
    rational (the conjugating rotation is a product of two Householder
    reflections along Pythagorean unit vectors).
    """
    rng = seeded_rng(seed, "quadruple")
    a = random_antisymmetric(rng)
    b = random_antisymmetric(rng)
    n_mat = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                     for _ in range(7)] for _ in range(7)])
    c = n_mat.transpose() * n_mat + Matrix.identity(7)
    diag = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(6)]
    last = Fraction(1)
    for x in diag:
        last /= x
    diag.append(last)
    h1 = _householder(rng.choice(_PYTHAGOREAN_UNITS))
    h2 = _householder(rng.choice(_PYTHAGOREAN_UNITS))
    rot = h1 * h2
    d = rot * Matrix.diagonal(diag) * rot.transpose()
    return MatrixQuadruple(a, b, c, d)
