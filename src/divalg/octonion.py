"""Octonions, quaternions, vector products, and G2 membership.

Convention: the octonion basis is ordered (1, i, j, k, l, il, jl, kl), the
Cayley-Dickson doubling of the quaternions, and the multiplication table is
stored as the seven oriented triples below: (a, b, c) means
e_a e_b = e_c = -e_b e_a, cyclically.  All G2 matrices and structure
constants produced by this package are relative to this basis choice; the
choice is declared, not canonical.

The vector product on R^7 (and on R^3 via the quaternions) is the imaginary
part of the product of imaginary elements.  G2 is realized concretely as the
orthogonal 7x7 matrices that preserve this vector product.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Matrix, as_fraction, basis_vector, bilinear, cleared, cleared_dot, cleared_tensor, dot, integer_multiple, vector

OCTONION_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (2, 4, 6),
    (3, 4, 7),
    (2, 5, 7),
    (5, 3, 6),
    (6, 1, 7),
)

QUATERNION_TRIPLES = ((1, 2, 3),)


class NotUnital(ValueError):
    """The presentation's distinguished element is not a two-sided unity."""


class NotQuadratic(ValueError):
    """Some element x has 1, x, x^2 linearly independent."""


def _signed_table(dim, triples):
    """dim x dim x dim integer structure tensor: e_i e_j = sum_k c[i][j][k] e_k."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        c[0][i][i] = 1
        c[i][0][i] = 1
    for i in range(1, dim):
        c[i][i][0] = -1
    for a, b, k in triples:
        for x, y, z in ((a, b, k), (b, k, a), (k, a, b)):
            c[x][y][z] = 1
            c[y][x][z] = -1
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


OCTONION_TABLE = _signed_table(8, OCTONION_TRIPLES)
QUATERNION_TABLE = _signed_table(4, QUATERNION_TRIPLES)


def structure_table(dim):
    """The embedded structure-constant tensor for dim 4 or 8."""
    if dim == 8:
        return OCTONION_TABLE
    if dim == 4:
        return QUATERNION_TABLE
    raise ValueError(f"no table of dimension {dim}")


def oct_mul(x, y):
    """Exact octonion product of coefficient 8-vectors."""
    return bilinear(OCTONION_TABLE, vector(x), vector(y))


def quat_mul(x, y):
    return bilinear(QUATERNION_TABLE, vector(x), vector(y))


def oct_conj(x):
    x = vector(x)
    return (x[0],) + tuple(-a for a in x[1:])


# ---------------------------------------------------------------------------
# vector products


def _cross_tensor(n):
    if n == 7:
        table = OCTONION_TABLE
    elif n == 3:
        table = QUATERNION_TABLE
    else:
        raise ValueError(f"no vector product on R^{n}")
    # imaginary part of the product of imaginary basis elements, as ints
    return tuple(
        tuple(tuple(table[i + 1][j + 1][1:]) for j in range(n))
        for i in range(n)
    )


CROSS7_TENSOR = _cross_tensor(7)
CROSS3_TENSOR = _cross_tensor(3)


def vector_product(v, w):
    """v x w on R^3 or R^7 (quaternion / octonion imaginary part)."""
    n = len(v)
    if n == 7:
        tensor = CROSS7_TENSOR
    elif n == 3:
        tensor = CROSS3_TENSOR
    else:
        raise ValueError(f"no vector product on R^{n}")
    return bilinear(tensor, vector(v), vector(w))


def g2_check(s: Matrix) -> bool:
    """Exact G2 membership: orthogonal and preserves the vector product.

    Checks S^t S = I and S(e_i x e_j) = S e_i x S e_j on all 21 basis pairs;
    by bilinearity that settles every pair.
    """
    if (s.rows, s.cols) != (7, 7):
        raise ValueError("g2_check expects a 7x7 matrix")
    if not s.is_orthogonal():
        return False
    cols = [s.column(j) for j in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            if s.matvec(CROSS7_TENSOR[i][j]) != vector_product(cols[i], cols[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# exact G2 elements from quaternion automorphisms


def rotation_from_quaternion(q) -> Matrix:
    """The SO(3) matrix of x -> q x q^{-1} on span(i, j, k), exact."""
    a, b, c, d = (as_fraction(t) for t in q)
    n = a * a + b * b + c * c + d * d
    if n == 0:
        raise ValueError("zero quaternion")
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return Matrix([[x / n for x in row] for row in rows])


def extend_quaternion_automorphism(r3: Matrix) -> Matrix:
    """Extend an automorphism of the quaternions (an exact SO(3) matrix on
    span(i,j,k)) to the octonions via a + b*l -> alpha(a) + alpha(b)*l.

    The result acts on the imaginary basis (i, j, k, l, il, jl, kl) as
    diag(R, 1, R) and lies in G2.
    """
    if (r3.rows, r3.cols) != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    zero = Fraction(0)
    out = [[zero] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            out[i][j] = r3[i, j]
            out[4 + i][4 + j] = r3[i, j]
    out[3][3] = Fraction(1)
    return Matrix(out)


# ---------------------------------------------------------------------------
# Frobenius decomposition of a quadratic presentation


def frobenius_split(alg):
    """Split a quadratic unital presentation as (unity line) + (hyperplane V).

    Returns (rho, v_basis): the linear form rho (coefficients on the
    presentation basis, rho(1) = 1) and a basis of V = ker(rho), the purely
    imaginary hyperplane {v not in R1 | v^2 in R1} + {0}.

    Products of basis elements are read from the structure constants:
    e_i e_j is alg.constants[i][j].  rho is read off basis squares: if e_i
    is independent of the unity then e_i^2 = c*1 + 2 rho_i e_i, so rho_i is
    half the e_i-coefficient.  The split is then certified exactly:
    x^2 - 2 rho(x) x is a quadratic form in the coordinates of
    x = sum x_i e_i, so it lies on the unity line for every x iff each of
    its coefficients does, namely e_i e_j + e_j e_i - 2 rho_i e_j
    - 2 rho_j e_i for i <= j (for i = j, twice e_i^2 - 2 rho_i e_i).  That
    holds iff the presentation is quadratic, so failure raises NotQuadratic.

    Two facts follow and are not checked again.  As rho(1) = 1, the
    vectors e_i - rho_i 1 span ker(rho) with the one relation
    sum u_i (e_i - rho_i 1) = 0 (u the unity), so leaving out the last i
    with u_i != 0 gives a basis of V, a hyperplane.  And v^2 is in R1 for v
    in V, as the certificate gives v^2 - 2 rho(v) v in R1 and rho(v) = 0.
    The unity of an AlgebraPresentation is checked when it is built.  The
    tests run on the table, the unity and rho cleared to integers.
    """
    dim = alg.dim
    u = integer_multiple(alg.unity)
    table, t = cleared_tensor(alg.constants)  # table[i][j] is t e_i e_j

    rho = []
    for i in range(dim):
        # e_i^2 = c*1 + 2 rho_i e_i off coordinate i, where c is read at p
        p = next((k for k, a in enumerate(u) if a and k != i), None)
        if p is None:  # e_i is a multiple of the unity
            rho.append(1 / alg.unity[i])
            continue
        s = table[i][i]
        if not _on_unity_line(s, u, p, skip=i):
            raise NotQuadratic(f"basis element {i}: 1, x, x^2 independent")
        rho.append(Fraction(s[i] * u[p] - s[p] * u[i], 2 * t * u[p]))
    rho = tuple(rho)
    if dot(rho, alg.unity) != 1:
        raise NotQuadratic("inconsistent unity coefficient in the split")

    # certificate: every coefficient of x^2 - 2 rho(x) x lies on the unity line
    r, f = cleared(rho)
    p = next(k for k, a in enumerate(u) if a)
    for i in range(dim):
        for j in range(i, dim):
            deviation = [(a + b) * f for a, b in zip(table[i][j], table[j][i])]
            deviation[j] -= 2 * t * r[i]
            deviation[i] -= 2 * t * r[j]
            if not _on_unity_line(deviation, u, p):
                raise NotQuadratic("x^2 - 2 rho(x) x leaves the unity line")

    dropped = max(i for i, a in enumerate(u) if a != 0)
    v_basis = tuple(
        tuple(e - rho[i] * a for e, a in zip(basis_vector(dim, i), alg.unity))
        for i in range(dim) if i != dropped
    )
    return rho, v_basis


def _on_unity_line(x, u, p, skip=None):
    """Whether x = c u off coordinate skip, for integer x and u, u_p != 0."""
    return all(a * u[p] == x[p] * b for k, (a, b) in enumerate(zip(x, u)) if k != skip)


def frobenius_form(alg, rho):
    """Gram matrix of <x,y> = 2 rho(x) rho(y) - rho(xy + yx)/2 on the
    presentation basis, with e_i e_j read from alg.constants[i][j].  The
    values rho(e_i e_j) are integer dot products of rho and each product,
    both cleared to integers."""
    r = cleared(rho)
    rho_prod = [[cleared_dot(r, cell) for cell in map(cleared, plane)] for plane in alg.constants]
    return Matrix([
        [2 * rho[i] * rho[j] - (rho_prod[i][j] + rho_prod[j][i]) / 2
         for j in range(alg.dim)]
        for i in range(alg.dim)
    ])
