"""Quadratic division algebras from dissident triples, and back.

A dissident triple (R^n, xi, eta) yields the algebra R x R^n with

    (a, v)(b, w) = (ab - <v,w> + xi(v ^ w),  aw + bv + eta(v ^ w)),

an (n+1)-dimensional real quadratic division algebra; conversely a quadratic
unital presentation splits as R1 + V (Frobenius), and the products of purely
imaginary elements recover xi (the antisymmetric part of the scalar slot)
and eta (the imaginary slot).  On morphisms the construction sends an
orthogonal triple morphism phi to diag(1, phi).

Division is only ever falsified: det L_a is a degree-(dim) polynomial whose
nonvanishing away from 0 we test on seeded exact samples, so a clean budget
means "sampled, no counterexample", never "certified".
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import modkernel
from .dissident import DissidentMap, DissidentTriple, MatrixQuadruple, quadruple_to_triple, sample_vector, seeded_rng
from .exact import DimensionError, Matrix, basis_vector, bilinear, dot, is_rational_square, vector
from .octonion import NotQuadratic, NotUnital, frobenius_form, frobenius_split


class BadDimension(ValueError):
    """recover_triple only handles presentations of dimension 4 or 8."""


class IndefiniteForm(ValueError):
    """The recovered bilinear form is not positive definite, so the
    presentation carries no Euclidean triple (it cannot be a division
    algebra)."""


class IrrationalGram(ValueError):
    """Orthonormalizing the recovered form needs irrational square roots.

    Carries a basis-change certificate instead of a rotated triple: an
    orthogonal-by-construction rational basis of V and the diagonal of the
    form on it.
    """

    def __init__(self, basis, diagonal):
        super().__init__("orthonormalization leaves the rationals")
        self.basis = basis
        self.diagonal = diagonal


class AlgebraPresentation:
    """Structure constants of a finite-dimensional real algebra with a
    distinguished two-sided unity (verified exactly on construction)."""

    __slots__ = ("dim", "constants", "unity")

    def __init__(self, constants, unity):
        dim = len(constants)
        tensor = tuple(
            tuple(vector(constants[i][j]) for j in range(dim)) for i in range(dim)
        )
        for plane in tensor:
            if len(plane) != dim or any(len(cell) != dim for cell in plane):
                raise DimensionError("structure constants are not dim^3")
        unity = vector(unity)
        if len(unity) != dim:
            raise DimensionError("unity coordinate length mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", tensor)
        object.__setattr__(self, "unity", unity)
        _check_unity(self)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraPresentation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and (self.dim, self.constants, self.unity)
            == (other.dim, other.constants, other.unity)
        )

    def mul(self, x, y):
        """Exact product of coefficient vectors."""
        return bilinear(self.constants, x, y)

    def left_mul_matrix(self, a) -> Matrix:
        """L_a: x -> a x as a matrix on the presentation basis."""
        cols = [self.mul(a, basis_vector(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(cols)

    def right_mul_matrix(self, a) -> Matrix:
        """R_a: x -> x a."""
        cols = [self.mul(basis_vector(self.dim, j), a) for j in range(self.dim)]
        return Matrix.from_columns(cols)


def _check_unity(alg):
    for i in range(alg.dim):
        e_i = basis_vector(alg.dim, i)
        if alg.mul(alg.unity, e_i) != e_i or alg.mul(e_i, alg.unity) != e_i:
            raise NotUnital(f"unity fails on basis index {i}")


# ---------------------------------------------------------------------------
# the triple -> algebra construction


def make_qda(triple: DissidentTriple) -> AlgebraPresentation:
    """The algebra of a triple on the basis (1, e_1, ..., e_n)."""
    n = triple.n
    dim = n + 1
    zero = Fraction(0)
    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    constants[0][0][0] = Fraction(1)
    for j in range(n):
        constants[0][j + 1][j + 1] = Fraction(1)
        constants[j + 1][0][j + 1] = Fraction(1)
    for i in range(n):
        for j in range(n):
            scalar = triple.xi[i, j] - Fraction(int(i == j))
            constants[i + 1][j + 1][0] = scalar
            for k in range(n):
                constants[i + 1][j + 1][k + 1] = triple.eta.tensor[i][j][k]
    return AlgebraPresentation(constants, basis_vector(dim, 0))


def quadruple_algebra(q: MatrixQuadruple) -> AlgebraPresentation:
    """The matrix-quadruple algebra: exactly make_qda(quadruple_to_triple(q))."""
    return make_qda(quadruple_to_triple(q))


def functor_on_morphism(phi: Matrix) -> Matrix:
    """A triple morphism phi becomes the algebra morphism diag(1, phi)."""
    n = phi.rows
    zero = Fraction(0)
    out = [[zero] * (n + 1) for _ in range(n + 1)]
    out[0][0] = Fraction(1)
    for i in range(n):
        for j in range(n):
            out[i + 1][j + 1] = phi[i, j]
    return Matrix(out)


# ---------------------------------------------------------------------------
# the algebra -> triple recovery


def recover_triple(alg: AlgebraPresentation) -> DissidentTriple:
    """Recover (V, xi, eta) from a quadratic presentation of dimension 4 or 8.

    The Frobenius split gives rho and a basis of V; the bilinear form
    <x,y> = 2 rho(x) rho(y) - rho(xy+yx)/2 is orthonormalized on it by exact
    Gram-Schmidt, which leaves an orthonormal basis as it is.  Square roots
    are avoided: if some diagonal norm is not a rational square the
    basis-change certificate is raised as IrrationalGram.

    Each product u_i u_j is formed once.  xi(u_i ^ u_j) is
    (rho(u_i u_j) - rho(u_j u_i))/2, and eta(u_i ^ u_j), the imaginary part
    iota = u_i u_j - rho(u_i u_j) 1, has k-th coordinate <u_i u_j, u_k>
    with no solve: rho(iota) = rho(u_i u_j)(1 - rho(1)) = 0 puts iota in V,
    whose basis is orthonormal, and <1, u_k> = rho(u_k) = 0.  Round-trips
    make_qda exactly, same basis, for algebras built here.
    """
    if alg.dim not in (4, 8):
        raise BadDimension(f"dimension {alg.dim} not in {{4, 8}}")
    n = alg.dim - 1
    rho, v_basis = frobenius_split(alg)
    frobenius = frobenius_form(alg, rho)

    # Gram-Schmidt, keeping the image F u of each vector under the form
    ortho, images, norms = [], [], []
    for v in v_basis:
        u = v
        for t, ft, d in zip(ortho, images, norms):
            c = dot(v, ft) / d
            u = tuple(a - c * b for a, b in zip(u, t))
        ortho.append(u)
        images.append(frobenius.matvec(u))
        norms.append(dot(u, images[-1]))
        if norms[-1] <= 0:
            raise IndefiniteForm("recovered form is not positive definite")
    roots = [is_rational_square(d) for d in norms]
    if None in roots:
        raise IrrationalGram(ortho, norms)
    basis = [tuple(x / r for x in u) for u, r in zip(ortho, roots)]
    images = [tuple(x / r for x in fu) for fu, r in zip(images, roots)]

    prods = [[alg.mul(u, w) for w in basis] for u in basis]
    rho_prod = [[dot(rho, p) for p in row] for row in prods]
    xi = [[(rho_prod[i][j] - rho_prod[j][i]) / 2 for j in range(n)] for i in range(n)]
    tensor = [[[dot(p, fu) for fu in images] for p in row] for row in prods]
    return DissidentTriple(n, Matrix(xi), DissidentMap(n, tensor))


# ---------------------------------------------------------------------------
# checks


def division_check(alg: AlgebraPresentation, trials: int, seed):
    """Search for a nonzero a with det L_a = 0 or det R_a = 0 (exact).

    Returns the first such witness among `trials` seeded samples, or None
    when the budget passes.  Deterministic given the seed.  The check stays
    sampled: a passing budget finds no singular operator, it proves none
    absent.

    All samples are drawn first and screened mod modkernel.SCREEN_PRIME:
    L_a[k][j] = sum_i a_i C[i][j][k] and R_a[k][i] = sum_j a_j C[i][j][k]
    are each one contraction of the table with the batch, and rank dim mod
    p proves det != 0 over Q, because det mod p is the reduction of the
    rational det.  Only operators whose residue is singular get the exact
    Bareiss det, in draw order, so the first witness is unchanged.  When p
    divides a denominator of the table, every sample is decided exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed, "division")
    samples = [sample_vector(rng, alg.dim) for _ in range(trials)]
    p = modkernel.SCREEN_PRIME
    table, table_ok = modkernel.residues(alg.constants, p)
    left = right = np.zeros(trials, dtype=bool)
    if table_ok.all():
        a, ok = modkernel.residues(samples, p)
        left_mul = np.einsum("bi,ijk->bkj", a, table) % p
        right_mul = np.einsum("bj,ijk->bki", a, table) % p
        left = ok & (modkernel.rank_mod_p(left_mul, p) == alg.dim)
        right = ok & (modkernel.rank_mod_p(right_mul, p) == alg.dim)
    for a, left_ok, right_ok in zip(samples, left, right):
        if (not left_ok and alg.left_mul_matrix(a).det() == 0) or (
                not right_ok and alg.right_mul_matrix(a).det() == 0):
            return a
    return None


def quadratic_check(alg: AlgebraPresentation) -> bool:
    """True iff 1, x, x^2 are dependent for every x, decided symbolically
    through the Frobenius split certificate."""
    try:
        frobenius_split(alg)
        return True
    except NotQuadratic:
        return False


def algebra_morphism_check(src: AlgebraPresentation, dst: AlgebraPresentation,
                           f: Matrix) -> bool:
    """Exact multiplicativity f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
    if f.cols != src.dim or f.rows != dst.dim:
        raise DimensionError("morphism matrix has the wrong shape")
    if all(x == 0 for row in f.entries for x in row):
        raise ValueError("the zero map is not a morphism candidate")
    images = [f.column(j) for j in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = f.matvec(src.constants[i][j])
            rhs = dst.mul(images[i], images[j])
            if lhs != rhs:
                return False
    return True
