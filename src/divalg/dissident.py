"""Dissident maps, dissident triples, and matrix quadruples.

A dissident map on V is a linear map eta: V wedge V -> V such that
v, w, eta(v ^ w) are linearly independent whenever v, w are; such maps exist
only for dim V in {0, 1, 3, 7}, and this module constructs the two
interesting sizes.  Maps are stored as antisymmetric structure tensors over
the standard basis.  Dissidence itself is only ever falsified (by rank
checks on seeded random pairs, screened mod p and decided exactly), never
certified: no terminating exact decision procedure is implemented here, so
a clean falsification budget is reported as "consistent with dissident",
nothing stronger.

A matrix quadruple (A, B, C, D) - two antisymmetric matrices, a positive
definite symmetric matrix, and a positive definite symmetric matrix of
determinant 1 - yields the dissident triple (R^7, v^t A w, (B+C)D(Dv x Dw));
these are exactly the degree-1 triples.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import modkernel
from .exact import (
    DimensionError,
    Matrix,
    basis_vector,
    bilinear,
    dot,
    is_zero_vector,
    vector,
)
from .octonion import CROSS3_TENSOR, CROSS7_TENSOR, vector_product


class ZeroVector(ValueError):
    pass


class DegenerateSpan(ValueError):
    """The image span eta(v ^ v_perp) is not a hyperplane: eta is not
    dissident at this point."""


class InvariantViolation(ValueError):
    """A constructor argument fails its exact structural predicate."""


class DissidentMap:
    """Antisymmetric structure tensor t with eta(e_i ^ e_j) = sum_k t[i][j][k] e_k."""

    __slots__ = ("n", "tensor")

    def __init__(self, n, tensor):
        if n not in (3, 7):
            raise InvariantViolation(f"no dissident maps are built for n={n}")
        tensor = tuple(
            tuple(vector(tensor[i][j]) for j in range(n)) for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if len(tensor[i][j]) != n:
                    raise DimensionError("tensor is not n x n x n")
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

    @staticmethod
    def from_bilinear(n, fn) -> "DissidentMap":
        """Tabulate eta(e_i ^ e_j) = fn(e_i, e_j) into a tensor."""
        basis = [basis_vector(n, i) for i in range(n)]
        return DissidentMap(
            n, [[vector(fn(basis[i], basis[j])) for j in range(n)] for i in range(n)]
        )

    def __call__(self, v, w):
        return eval_eta(self, v, w)


def cross_product_map(n) -> DissidentMap:
    """The vector product on R^3 or R^7 as a dissident map."""
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


def quadruple_to_triple(q: MatrixQuadruple) -> DissidentTriple:
    """(A,B,C,D) -> (R^7, v^t A w, (B+C) D (Dv x Dw)) expanded to tensors."""
    bc_d = (q.b + q.c) * q.d

    def eta_fn(v, w):
        return bc_d.matvec(vector_product(q.d.matvec(v), q.d.matvec(w)))

    return DissidentTriple(7, q.a, DissidentMap.from_bilinear(7, eta_fn))


# ---------------------------------------------------------------------------
# deterministic sampling


def seeded_rng(seed, *labels) -> random.Random:
    """A random stream keyed by the seed and a label path.  String seeding is
    hash-randomization-free, so runs are reproducible across processes."""
    return random.Random(":".join(["divalg", str(seed), *labels]))


def sample_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 3))


def sample_vector(rng: random.Random, n, nonzero=True):
    while True:
        v = tuple(sample_fraction(rng) for _ in range(n))
        if not nonzero or not is_zero_vector(v):
            return v


def dissidence_falsify(eta: DissidentMap, trials: int, seed):
    """Search for an exact witness against dissidence.

    Samples `trials` independent rational pairs (v, w) (dependent draws are
    rejected and redrawn) and decides whether [v; w; eta(v^w)] has rank 3.
    Returns the first rank-deficient pair, or None if the budget passes.
    Deterministic given the seed.  The check stays sampled: a passing
    budget is consistent with dissidence, not a proof of it.

    Each batch of pairs is screened first: the matrices are formed mod
    modkernel.SCREEN_PRIME by one contraction with the tensor, and rank 3
    mod p proves rank 3 over Q, because a nonzero 3x3 minor mod p is the
    reduction of a nonzero rational minor.  Only the other draws are
    decided exactly, in draw order: rank 3 passes, and otherwise an
    independent pair (rank [v; w] = 2) is the witness and a dependent one
    is redrawn.  A batch is drawn for the trials still owed, so the pairs
    come from the stream in the order a one-by-one loop draws them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed, "dissidence")
    n = eta.n
    p = modkernel.SCREEN_PRIME
    tensor, table_ok = modkernel.residues(eta.tensor, p)
    while trials:
        pairs = [(sample_vector(rng, n), sample_vector(rng, n)) for _ in range(trials)]
        screened = np.zeros(len(pairs), dtype=bool)
        if table_ok.all():
            vw, ok = modkernel.residues(pairs, p)
            # eta(v ^ w)_k = sum_ij v_i w_j t[i][j][k], one sum at a time
            # so that each stays below n p**2
            partial = np.einsum("bi,ijk->bjk", vw[:, 0], tensor) % p
            image = np.einsum("bj,bjk->bk", vw[:, 1], partial) % p
            ranks = modkernel.rank_mod_p(np.concatenate([vw, image[:, None]], axis=1), p)
            screened = ok & (ranks == 3)
        dependent = 0
        for (v, w), full in zip(pairs, screened):
            if full or Matrix([v, w, eval_eta(eta, v, w)]).rank() == 3:
                continue
            if Matrix([v, w]).rank() == 2:
                return (v, w)
            dependent += 1
        trials = dependent
    return None


def eta_P_point(eta: DissidentMap, v):
    """One point of the induced projective map: [v] -> (eta(v ^ v_perp))_perp.

    eta(v ^ v) = 0, so eta(v ^ v_perp) = eta(v ^ R^n) is spanned by the n
    images eta(v ^ e_i); the kernel computation tolerates the redundancy.
    Returns the canonical primitive vector of the orthogonal line.  Raises
    DegenerateSpan when the image span is not a hyperplane (i.e. eta is not
    dissident at v).
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
    u = vector(u)
    n2 = dot(u, u)
    eye = Matrix.identity(len(u))
    outer = Matrix([[2 * ui * uj / n2 for uj in u] for ui in u])
    return eye - outer


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
