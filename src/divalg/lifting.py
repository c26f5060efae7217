"""Polynomial liftings of the induced projective map, and the degree scan.

A lifting of eta_P is a polynomial map Phi: R^n -> R^n whose components are
homogeneous of one common degree d >= 1 and relatively prime, with
[Phi(v)] = eta_P([v]) and Phi(v) != 0 away from the origin.  For a dissident
map such a lifting exists, is unique up to nonzero scalar multiples, and has
1 <= d <= 5, so the degree of the map is found by scanning d = 1..5.

At each candidate degree the orthogonality condition

    < Phi(v), eta(v ^ (|v|^2 w - <v,w> v)) > = 0   as a polynomial in (v, w)

is a linear system in Phi's coefficients.  Since eta(v ^ v) = 0 its left
side is |v|^2 < Phi(v), eta(v ^ w) >, and Q[v] has no zero divisors, so the
kernel is computed from the equivalent divided system

    < Phi(v), eta(v ^ e_j) > = 0   for j = 1..n:

rows are indexed by the slot j and the degree-(d+1) monomials in v, columns
by the unknown coefficients.  Reports quote the shape of the paper's system
(degree-(d+3) rows, constraint_shape).  The divided system M is kept as the
formula of its cells in the integer tensor (ConstraintSystem), from which
the exact product M phi = 0 is read.  Below degree n - 2 its exact kernel
is computed modulo word-size primes and certified by that product
(modkernel.sparse_kernel); at degree n - 2 it is the line of the adjugate
(below), certified by the same product.  The first nonzero kernel decides
the scan: its elements are checked for nonvanishing at seeded sample
points, and a single validated element of a one-dimensional kernel is the
lifting.  Scanning in order makes the returned degree minimal by
construction.

Modulo each prime the kernel is read off the eta_P lines at points
instead of eliminating the n*C columns of M, C = monomial_count(n, d)
(_kernel_at_points).  A kernel vector mod p puts Phi(u) on the kernel line
of A(u) (below) wherever that matrix has rank n - 1 mod p, so the values
of one component Phi_k* at C points whose monomial matrix V0 is
invertible fix every component, and further points give a system in C
columns.  The map from the kernel to the values of Phi_k* is injective
(rank n - 1 and an invertible V0), so the subspace solved for contains
ker(M mod p), and with it the exact kernel's reduction: sparse_kernel's
sandwich between the verified count and the modular dimension holds
unchanged, and the exact M phi = 0 remains the only certificate.  This is
the scan's only solve mod p.

One point stage in Python ints finds the lines (_points_on_lines): k* is
the first nonzero component of the first line found, which is nonzero at
almost every point since the entries of a line are polynomials in u, and
the seeded points are read until C + E of them have a line nonzero at
k*.  A prime whose draws run out first, or with a singular V0, is
skipped (modkernel.UnluckyPrime), and a degree whose ladder ends without
a verified candidate raises modkernel.ModularKernelError.  By chance
either happens rarely: a nonzero polynomial vanishes at few random
points of F_p^n (Schwartz, JACM 1980; Zippel, EUROSAM 1979).  Where the
(n - 1)-minors of A(u) vanish identically no point has a line, and the
scan has stopped before its first kernel: a validation sample without a
line decides that there is no lifting (solve_lifting_scan).

The eliminations of the solve at points run on packed Python ints
(modkernel.rref_packed).  Degree n - 2 needs no solve: v^T A(v) = 0 (below)
makes adj A(v) = H(v) v^T, with H a vector of integer forms of degree
n - 2 and A(v) H(v) = 0, which is the paper's bound d <= 5 on R^7.  A scan
that reaches d = n - 2 >= 2 has the line of H as its kernel
(solve_lifting_scan), and H is computed exactly from its values at points
(_adjugate_column), with no prime.

The samples are checked in Python ints, one point at a time.  Each sample
v is replaced by its primitive integer point u, and A(u) is the integer
matrix whose rows are eta(u ^ e_i).  Since eta(u ^ u) = 0, u^T A(u) = 0
and rank A(u) <= n - 1, so rank n - 1 modulo a word-size prime proves
that the eta_P line, the kernel of A(u), is defined at u; the few points
the residue cannot decide go to the exact eta_P_point.  The scan screens
every sample so before its first kernel.  That proves rank A(v) = n - 1
over Q(v), so the kernel of A(v) is one line, spanned by one primitive
polynomial vector Phi0, and every kernel vector of every degree is
g Phi0 for a form g.  A kernel vector has A(u) Phi(u) = 0 at every u,
since M phi = 0 is that identity, so at a screened sample it is on the
line wherever it is nonzero: nonvanishing is all the validation samples.

The scan proves every condition of its winner once and returns the
verification report those proofs establish: the kernel solver's exact
M phi = 0 is the orthogonality identity, the screen with the validation
samples nonvanishing and [Phi(v)] = eta_P([v]), the Lifting constructor
(poly) checks the common degree, and a first nonzero kernel of dimension
1 proves the components relatively prime (solve_lifting_scan).
verify_lifting checks a candidate from elsewhere, which need not be a
kernel vector: at each sample it checks nonvanishing and A(u) Phi(u) = 0
itself, and it runs a content GCD.

Nonvanishing of Phi on R^n - {0} is established by sampling plus the
uniqueness of the lifting; it is reported as a confidence statement, not
certified symbolically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import factorial, gcd, lcm
from operator import mul

from . import modkernel
from .dissident import (DegenerateSpan, DissidentMap, eta_P_point, sample_integer_vector,
                        seeded_rng)
from .exact import cofactors, primitive_vector
from .modkernel import invert_packed, pack, rref_packed, sparse_kernel, unpack
from .poly import (
    DEFAULT_MAX_DEGREE,
    HomogeneousPoly,
    Lifting,
    PolyError,
    monomial_count,
    monomials,
    poly_content_gcd,
)

DEFAULT_SAMPLES = 64


class LiftingError(RuntimeError):
    pass


class NoLiftingFound(LiftingError):
    """No validated kernel element at any degree <= max_degree: the input is
    not dissident, or the solver is broken."""


class AmbiguousKernel(LiftingError):
    """More than one validated projective solution at the minimal degree,
    contradicting uniqueness of the lifting."""


def constraint_shape(n, d):
    """(rows, cols) of the paper's degree-d constraint system on R^n, with
    degree-(d+3) rows; this is the shape the scan reports.  The system
    actually solved is the divided one, n * monomial_count(n, d + 1) rows by
    the same columns, with the same kernel."""
    return n * monomial_count(n, d + 3), n * monomial_count(n, d)


class ConstraintSystem:
    """The divided constraint matrix M at degree d of an integer tensor t
    (nested lists of Python ints), kept as the formula of its cells.

    Column k*C + c, C = monomial_count(n, d), is the coefficient of the
    monomial m_c in component k, and rows are indexed j-major by the R =
    monomial_count(n, d + 1) monomials of degree d + 1.  The slot j of that
    column is m_c(v) <e_k, eta(v ^ e_j)> = sum_i t[i][j][k] (m_c x_i), so
    with shift[i][c] the index of m_c x_i,

        M[j*R + shift[i][c], k*C + c] = t[i][j][k],

    one term per cell, since m_c x_i differs for different i.  shift is
    built on first use, so a degree whose solve returns {0} builds nothing.
    """

    def __init__(self, tensor, d):
        n = len(tensor)
        self.tensor, self.d = tensor, d
        self.nrows, self.ncols = n * monomial_count(n, d + 1), n * monomial_count(n, d)

    @property
    def nnz(self):
        """The number of nonzero cells: C per nonzero entry of t."""
        n = len(self.tensor)
        return sum(len(self._terms(j)) for j in range(n)) * self.ncols // n

    @cached_property
    def shift(self):
        """shift[i][c] as n lists of C ints."""
        n = len(self.tensor)
        index = _monomial_index(n, self.d + 1)
        return [[index[m[:i] + (m[i] + 1,) + m[i + 1:]] for m in monomials(n, self.d)]
                for i in range(n)]

    def _terms(self, j):
        """The nonzero t[i][j][k] of the slot j, as (i, k, t)."""
        return [(i, k, t) for i, plane in enumerate(self.tensor)
                for k, t in enumerate(plane[j]) if t]

    def annihilates(self, vectors):
        """Whether M phi = 0 exactly for every integer vector phi in
        ``vectors``: the certificate, in Python ints.  For each slot j,
        every nonzero t[i][j][k] adds t[i][j][k] * phi_k(c) into the row
        shift[i][c], for each nonzero coefficient phi_k(c)."""
        shift = self.shift
        n, C = len(shift), len(shift[0])
        R = self.nrows // n
        for phi in vectors:
            components = [[(c, x) for c, x in enumerate(phi[k * C:(k + 1) * C]) if x]
                          for k in range(n)]
            for j in range(n):
                row = [0] * R
                for i, k, t in self._terms(j):
                    rows = shift[i]
                    for c, x in components[k]:
                        row[rows[c]] += t * x
                if any(row):
                    return False
        return True


def _sparse_system(eta: DissidentMap, d) -> ConstraintSystem:
    """The divided constraint system at degree d of eta's integer tensor."""
    return ConstraintSystem(eta.integer_tensor, d)


def _interpolation_points(n, count, d, p):
    """``count`` points of (Z/p)^n drawn from a stream keyed by d and p, as
    lists of n residues, each drawn when it is read."""
    rng = seeded_rng(0, "interpolation-points", str(d), str(p))
    for _ in range(count):
        yield [rng.randrange(p) for _ in range(n)]


def _kernel_at_points(system, p):
    """A subspace of F_p^(n*C) that contains ker(M mod p), for the
    ConstraintSystem M of the integer tensor t at degree d: the (rows,
    pivot tuple) of its RREF, the rows lists of Python ints, or None for
    {0}.  This is sparse_kernel's solve.

    A kernel vector is a lifting mod p: A(u) Phi(u) = 0 at every point u,
    with A(u) the matrix of rows eta(u ^ e_j).  At a point u_s where A(u_s)
    has rank n - 1 mod p its kernel is a line l_s, and Phi(u_s) lies on it.
    With one component k* such that l_s[k*] != 0 at every point used, and
    r_(s,k) = l_s[k] / l_s[k*], that says Phi_k(u_s) = r_(s,k) Phi_k*(u_s)
    for every k.  So the values y = V0 c_k* of Phi_k* at the first C =
    monomial_count(n, d) points fix every component, c_k = V0^-1 diag(r_k) y,
    when their monomial matrix V0 is invertible mod p.  Each of E =
    ceil(C / (n - 1)) + n further points u_e gives the n - 1 rows

        Phi_k(u_e) - r_(e,k) Phi_k*(u_e) = sum_s B[e, s] (r_(s,k) - r_(e,k)) y_s = 0,

    k != k*, with B = V_E V0^-1 the interpolation weights.  Their kernel
    in C columns, mapped to the coefficient vectors (c_1, ..., c_n), spans
    the returned subspace.  It contains ker(M mod p), since every kernel
    vector meets all these conditions and is determined by its y (c_k* =
    V0^-1 y); with enough points it equals it.  Only the C x 2C inversion
    and a C-column kernel are eliminated, not the n*C columns of M.

    One point stage in Python ints (_points_on_lines) reads at most twice
    C + E seeded residue points in draw order, each drawn as it is read.
    Those where A(u) mod p has rank n - 1 have a line (_PointLines).  k*
    is the first nonzero component of the first line found, and the
    points whose line is nonzero at k* are kept until there are C + E.
    An entry of a line is a ratio of (n - 1)-minors of A(u), a polynomial
    in u: one that is nonzero at a point is a nonzero polynomial, which
    vanishes at few random points (Schwartz), and one that is identically
    zero is never picked.  When the draws run out first, or V0 is singular
    mod p, the prime is skipped (modkernel.UnluckyPrime).

    The eliminations run on packed Python ints, each row one int: the
    inversion of V0 (modkernel.invert_packed), the C-column kernel
    (modkernel._kernel_mod_p of a list of rows) and the final RREF
    (modkernel.rref_packed).
    """
    star, points, ratios = _points_on_lines(system, p)
    n = len(system.tensor)
    steps = _monomial_steps(n, system.d)
    C = len(steps[-1])
    table = [[x % p for x in _monomial_values(u, steps)] for u in points]
    v0_inverse = invert_packed(map(pack, table[:C]), C, p)
    if v0_inverse is None:
        raise modkernel.UnluckyPrime(f"the monomial matrix of the points is singular mod {p}")
    packed_inverse = [pack(row) for row in v0_inverse]
    rows = []
    for values, ratio in zip(table[C:], ratios[C:]):
        weights = unpack(sum(map(mul, values, packed_inverse)), C, p)
        for k in range(n):
            if k != star:
                gap = p - ratio[k]
                rows.append([w * (r[k] + gap) for w, r in zip(weights, ratios)])
    kernel = modkernel._kernel_mod_p(rows, p)
    if kernel is None:
        return None
    inverse_columns = [pack(column) for column in zip(*v0_inverse)]
    basis = []
    for y in kernel[0]:
        row = 0
        for k in range(n):
            z = [r[k] * x % p for r, x in zip(ratios, y)]
            row += sum(map(mul, z, inverse_columns)) << 64 * C * k
        basis.append(row)
    reduced, pivots = rref_packed(basis, n * C, p)
    return [unpack(row, n * C, p) for row in reduced], tuple(pivots)

def _point_count(n, C):
    """C + E, the number of points a solve at points uses."""
    return C + -(-C // (n - 1)) + n


def _points_on_lines(system, p):
    """The point stage of _kernel_at_points: (k*, the C + E points used,
    their ratios r_s = l_s / l_s[k*]), points and ratios as lists of
    residues.  Raises UnluckyPrime when the draws run out first."""
    tensor, d = system.tensor, system.d
    n = len(tensor)
    used = _point_count(n, monomial_count(n, d))
    line_at = _PointLines(tensor, p)
    star, points, ratios = None, [], []
    for u in _interpolation_points(n, 2 * used, d, p):
        line = line_at(u)
        if line is None:
            continue
        if star is None:
            star = next(k for k, x in enumerate(line) if x)
        if line[star]:
            inverse = pow(line[star], -1, p)
            points.append(u)
            ratios.append([x * inverse % p for x in line])
            if len(points) == used:
                return star, points, ratios
    raise modkernel.UnluckyPrime(f"{len(points)} of {used} points have a line mod {p}")


class _PointLines:
    """The eta_P lines mod p of an integer tensor t at residue points u:
    called with u, the kernel line of A(u) mod p as a list of residues
    where A(u) has rank n - 1 mod p, else None.

    Each row of A(u) is one packed int, sum_j u_j t[j][i] over the rows of
    t packed once, and the rows are brought to reduced echelon form by
    Gauss-Jordan elimination without division: a row r with entry f in
    the pivot column of the pivot row b, whose pivot is x, becomes
    x r + (p - f) b.  Every residue read is reduced when it is read.  At
    rank n - 1 a pivot row b says b[c] l[c] + b[f] l[f] = 0 on the free
    column f, so the line is l[f] = 1, l[c] = -b[f] / b[c].  No row is
    unpacked to be scaled, which makes a 7 x 7 line about twice as fast as
    through rref_packed; a scan and its validation take hundreds of them.

    When t is antisymmetric mod p (p odd), u^T A(u) = eta(u ^ u) = 0, so
    at the first j0 with u_j0 != 0 mod p the row j0 of A(u) is a
    combination of the others, and only those n - 1 rows are eliminated:
    they span the same row space, so the pivots and the line are the same,
    at about 8 % less time per line on R^7.  At u = 0 mod p, A(u) = 0 and
    there is no line.  Other tensors have all n rows eliminated.  Each
    pivot step at most multiplies the fields by 2p, so fields of ``width``
    bits, the size of (2p)**m times the n p**2 bound of the contraction
    for m rows, never carry into each other.
    """

    def __init__(self, tensor, p):
        n = len(tensor)
        self.n, self.p = n, p
        self.antisymmetric = all((x + y) % p == 0 for i in range(n) for j in range(i, n)
                                 for x, y in zip(tensor[i][j], tensor[j][i]))
        m = n - 1 if self.antisymmetric else n
        self.width = width = ((2 * p) ** m * n * p * p).bit_length()
        self.mask = (1 << width) - 1
        self.rows = [[sum((x % p) << width * k for k, x in enumerate(plane[i]))
                      for plane in tensor] for i in range(n)]

    def __call__(self, u):
        n, p, width, mask = self.n, self.p, self.width, self.mask
        rows = self.rows
        if self.antisymmetric:
            j0 = next((j for j, x in enumerate(u) if x % p), None)
            if j0 is None:
                return None
            rows = rows[:j0] + rows[j0 + 1:]
        rows = [sum(map(mul, u, row)) for row in rows]
        m = len(rows)
        pivots = []
        for c in range(n):
            shift, r = width * c, len(pivots)
            for i in range(r, m):
                x = (rows[i] >> shift & mask) % p
                if x:
                    break
            else:
                continue
            lead = rows[i]
            rows[i], rows[r] = rows[r], lead
            for t in range(m):
                if t != r:
                    f = (rows[t] >> shift & mask) % p
                    if f:
                        rows[t] = rows[t] * x + (p - f) * lead
            pivots.append(c)
        if len(pivots) != n - 1:
            return None
        free, = set(range(n)).difference(pivots)
        line = [0] * n
        line[free] = 1
        for c, row in zip(pivots, rows):
            pivot = (row >> width * c & mask) % p
            line[c] = -(row >> width * free & mask) * pow(pivot, -1, p) % p
        return line


def _adjugate_kernel(system):
    """The kernel at d = n - 2 of a scan whose lower kernels are {0}: [phi],
    phi the primitive coefficient vector of H (_adjugate_column), certified
    by M phi = 0; a phi that fails, or H = 0, raises LiftingError."""
    h = _adjugate_column(system.tensor)
    kernel = [primitive_vector(h)] if any(h) else []
    if not (kernel and system.annihilates(kernel)):
        raise LiftingError(f"the adjugate's line fails the certificate at degree {system.d}")
    return kernel


def _adjugate_column(tensor):
    """The coefficients of the n forms H of degree D = n - 2 with
    adj A(v) = H(v) v^T, for the integer tensor of an antisymmetric map, in
    the column order of ConstraintSystem at degree D.

    Column 0 of adj A(u) is H(u) u_0, so at u = (1, x) H is the cofactors
    of row 0 of A(u).  x runs over the principal lattice, x = m[1:] for m
    in monomials(n, D), where a polynomial of total degree at most D is
    fixed by its values (Chung & Yao, SIAM J. Numer. Anal. 14, 1977).
    Forward differences along each axis in turn give its coefficients on
    the products of falling factorials x_i (x_i - 1) ... (x_i - a_i + 1),
    once the a-th difference along a line is divided by a!, which is exact
    for a polynomial with integer coefficients.  Horner's rule, b_0 +
    x (b_1 + (x - 1) (b_2 + ...)), then expands each line into monomials.
    The monomial x^e of H(1, x) is v_0^(D - |e|) x^e in H(v), the monomial
    m of the point x = m[1:] itself.
    """
    n = len(tensor)
    # rows[i - 1][k] holds the t[j][i][k], so that A(u)[i][k] = sum_j u_j t[j][i][k]
    rows = [[[plane[i][k] for plane in tensor] for k in range(n)] for i in range(1, n)]
    values = [cofactors([[sum(map(mul, (1, *m[1:]), column)) for column in row] for row in rows])
              for m in monomials(n, n - 2)]
    lines = _lattice_lines(n, n - 2)
    out = []
    for f in map(list, zip(*values)):
        for line in lines:
            for a in range(1, len(line)):
                for j in range(len(line) - 1, a - 1, -1):
                    f[line[j]] -= f[line[j - 1]]
            for a, i in enumerate(line):
                f[i] //= factorial(a)
        for line in lines:
            q = []
            for a in range(len(line) - 1, -1, -1):
                q = [c - a * x for c, x in zip([f[line[a]], *q], [*q, 0])]
            for i, c in zip(line, q):
                f[i] = c
        out += f
    return out


@cache
def _lattice_lines(n, d):
    """The lines of the principal lattice {m[1:] : m in monomials(n, d)},
    axis 1 to n - 1 in turn: each the positions in monomials(n, d) of the
    points with x_i = 0, 1, ... and the other coordinates fixed."""
    index = _monomial_index(n, d)
    return tuple(tuple(index[(m[0] - a, *m[1:i], a, *m[i + 1:])] for a in range(m[0] + 1))
                 for i in range(1, n) for m in monomials(n, d) if m[i] == 0)


@cache
def _monomial_index(n, d):
    """{m: its position in monomials(n, d)}, built once per (n, d); callers
    must not change it."""
    return {m: j for j, m in enumerate(monomials(n, d))}


@cache
def _monomial_steps(n, d):
    """How _monomial_values builds the monomials of degree 1..d: for each
    degree e, one pair (j, i) per monomial m of monomials(n, e), with m the
    j-th monomial of degree e - 1 times x_i, i the first variable of m.
    Built once per (n, d), as tuples."""
    steps = []
    for e in range(1, d + 1):
        index = _monomial_index(n, e - 1)
        level = []
        for m in monomials(n, e):
            i = next(i for i, x in enumerate(m) if x)
            level.append((index[m[:i] + (m[i] - 1,) + m[i + 1:]], i))
        steps.append(tuple(level))
    return tuple(steps)


def _monomial_values(point, steps):
    """The monomials of the top degree of ``steps`` (_monomial_steps) at an
    integer point, in monomials order, in Python ints."""
    values = [1]
    for level in steps:
        values = [values[j] * point[i] for j, i in level]
    return values


def _components_from_vector(n, d, vec):
    monos = monomials(n, d)
    C = len(monos)
    return tuple(HomogeneousPoly(n, d, {m: Fraction(c) for m, c in zip(monos, vec[k * C:]) if c})
                 for k in range(n))


def _sample_points(eta: DissidentMap, samples, seed):
    """The seeded validation points, one at a time, as (u, L).

    The points v = ints / den are drawn as integers (sample_integer_vector),
    in the order a one-by-one loop draws them.  eta_P is projective, so
    each is kept as its integer point u = ints / g = primitive_vector(v), g
    the content of ints with the sign of its first nonzero entry, and
    u = L v with L = den / g.
    """
    rng = seeded_rng(seed, "lifting-points")
    for _ in range(samples):
        draw, den = sample_integer_vector(rng, eta.n)
        g = gcd(*draw) if next(a for a in draw if a) > 0 else -gcd(*draw)
        yield [a // g for a in draw], Fraction(den, g)


def _sample_lines(eta: DissidentMap, samples, seed):
    """The points of _sample_points with whether eta_P is defined at each,
    as (u, L, defined), one at a time.  u^T A(u) = eta(u ^ u) = 0, so
    rank A(u) <= n - 1, and rank n - 1 mod SCREEN_PRIME (_PointLines)
    proves rank n - 1 over Q: the line, the kernel of A(u), is defined.  A
    point whose residue rank is lower is decided by the exact eta_P_point.
    """
    prime = modkernel.SCREEN_PRIME
    line_at = _PointLines(eta.integer_tensor, prime)
    for u, scale in _sample_points(eta, samples, seed):
        yield u, scale, (line_at([x % prime for x in u]) is not None
                         or _line_is_defined(eta, u))


def _line_is_defined(eta, u):
    """Whether eta_P is defined at the integer point u, decided exactly."""
    try:
        eta_P_point(eta, u)
    except DegenerateSpan:
        return False
    return True


def _validate(eta: DissidentMap, kernel, d, samples, seed):
    """The integer vectors of a certified degree-d kernel whose Phi is
    nonzero at every validation sample, in kernel order.

    The scan has screened the samples (_sample_lines), so the eta_P line is
    defined at each of them, and a kernel vector, with A(u) Phi(u) = 0 at
    every u, is on that line wherever Phi(u) != 0.  So the points are drawn
    again and not screened, and Phi(u) != 0 is read from the coefficients,
    C multiply-adds per component up to the first nonzero one.  The draws
    stop once no vector is left.
    """
    n = eta.n
    steps = _monomial_steps(n, d)
    C = len(steps[-1])
    accepted = list(kernel)
    for u, _ in _sample_points(eta, samples, seed):
        values = _monomial_values(u, steps)
        accepted = [vec for vec in accepted
                    if any(sum(map(mul, values, vec[k * C:(k + 1) * C])) for k in range(n))]
        if not accepted:
            break
    return accepted


def _pointwise_failures(eta: DissidentMap, components, lines):
    """Pointwise condition (b) for a candidate from elsewhere, a sequence
    of components in the n variables of eta's space, at the points
    ``lines`` that _sample_lines yields: the counts of the points where
    Phi(v) vanishes and where it is off the eta_P line, as (nonvanishing,
    line), in Python ints.

    One lcm clears the denominators of all coefficients.  At u = L v with
    L = a/b, a component of degree d is scaled by a**(D - d) * b**d, D the
    largest degree, so that the values y are the nonzero multiple
    lcm * b**D * L**D of Phi(v) even when the degrees differ.  A nonzero y
    is on the line exactly when it has n entries, eta_P is defined at the
    point and A(u) y = 0, since A(u) then has rank n - 1 and its kernel is
    the line; (A(u) y)_i = sum_j u_j <t[j][i], y> for the integer tensor t.
    """
    n, tensor = eta.n, eta.integer_tensor
    den = lcm(*(c.denominator for p in components for c in p.terms.values()))
    top = max((p.degree for p in components), default=0)
    columns = []
    for p in components:
        index = _monomial_index(n, p.degree)
        coeffs = [0] * len(index)
        for mono, c in p.terms.items():
            coeffs[index[mono]] = c.numerator * (den // c.denominator)
        columns.append((p.degree, _monomial_steps(n, p.degree), coeffs))
    nonvanishing = line = 0
    for u, scale, defined in lines:
        a, b = scale.numerator, scale.denominator
        y = [sum(map(mul, _monomial_values(u, steps), coeffs)) * a ** (top - d) * b ** d
             for d, steps, coeffs in columns]
        if not any(y):
            nonvanishing += 1
        elif not (len(y) == n and defined
                  and not any(sum(x * sum(map(mul, plane[i], y)) for x, plane in zip(u, tensor))
                              for i in range(n))):
            line += 1
    return nonvanishing, line


def _verification(degree, a_pass, b_identity, failures, samples, c_pass, gcd_repr):
    """The verification report of conditions (a), (b), (c); `failures` is
    the (nonvanishing, line) pair of _pointwise_failures."""
    nonvanishing_failures, line_failures = failures
    return {
        "degree": degree,
        "a_homogeneous_common_degree": a_pass,
        "b_orthogonality_identity": b_identity,
        "b_sampled_nonvanishing": {"checked": samples, "failures": nonvanishing_failures},
        "b_sampled_line_agreement": {"checked": samples, "failures": line_failures},
        "c_relatively_prime": c_pass,
        "content_gcd": gcd_repr,
        "nonvanishing_certified": False,
        "all_pass": a_pass and b_identity and failures == (0, 0) and c_pass,
    }


def solve_lifting_scan(eta: DissidentMap, samples=DEFAULT_SAMPLES, seed=0,
                       max_degree=DEFAULT_MAX_DEGREE):
    """Scan d = 1..max_degree up to the first nonzero kernel; return
    (Lifting, scan report list, verification report).

    The scan report carries one entry per visited degree with the shape of
    the paper's system (constraint_shape; the divided system solved here has
    the same kernel), exact kernel dimension, and how many kernel elements
    survived pointwise validation.  The verification report is the one
    verify_lifting gives the winner, built from the scan's own proofs: the
    solver certified M phi = 0 for its coefficient vector, the screen and
    the validation put it on the eta_P line at every sample, and the
    Lifting constructor checked (a).  Deterministic given (eta, seed).

    A candidate is on the eta_P line at a sample only where that line is
    defined, and the samples do not depend on d, so one pass over them
    before the first kernel, stopping at the first undefined line, may
    decide that no degree can validate a candidate (NoLiftingFound, with
    the message the end of the scan would give).  When it passes, rank
    A(v) = n - 1 over Q(v).  Its kernel is spanned by one polynomial
    vector Phi0 of relatively prime components, of degree d0: a polynomial
    kernel vector h Phi0, h = p/q in Q(v), has q dividing every p Phi0_k,
    so q is a constant.  So the degree-d kernel is {g Phi0 : g a form of
    degree d - d0}, of dimension monomial_count(n, d - d0), and the first
    nonzero one is {c Phi0} at d = d0, or, for a constant Phi0 = c, the
    n-dimensional {g c} at d = 1, whose RREF rows are the x_i c.  The
    adjugate's H, nonzero at rank n - 1, is a kernel vector of degree
    n - 2, so d0 <= n - 2.  A scan that reaches d = n - 2 >= 2 has found
    {0} at d = 1 .. n - 3, so d0 = n - 2 (a constant Phi0 gives a nonzero
    kernel at d = 1), and the kernel is the line of H, which
    _adjugate_kernel gives without a solve.  On R^3 n - 2 = 1 is the first
    degree, whose kernel can be {g c}, so it is solved.  That kernel
    decides:

    - no element validated: later kernel vectors g Phi0 vanish where Phi0
      does, and later RREF rows m c, m a monomial, where some x_i c does,
      so NoLiftingFound;
    - one element of a one-dimensional kernel validated: it is Phi0 up to
      a scalar, so condition (c) holds, and it is the lifting;
    - otherwise two or more validated elements raise AmbiguousKernel with
      their count, and one, some x_i c with the factor x_i, raises
      AmbiguousKernel("validated solution reduced below the scanned
      degree") without a GCD.

    The kernel vectors need no normalization and no deduplication.
    sparse_kernel returns the rows of an RREF scaled to content 1 with a
    positive pivot entry, and a row is zero before its pivot column.  The
    columns run component-major with the monomials lex descending, so the
    pivot entry is the first coefficient of the components in the order
    they are written out, and it is positive.  Rows of an RREF have
    distinct pivot columns, so no two of them are equal.  The adjugate's
    line is returned in the same form (primitive_vector).
    """
    if max_degree < 1 or max_degree > 5:
        raise ValueError("max_degree out of range 1..5")
    if samples < 1:
        raise ValueError("at least one validation sample is required")
    no_lifting = f"no validated lifting up to degree {max_degree} ({samples} validation samples)"
    if not all(defined for _, _, defined in _sample_lines(eta, samples, seed)):
        raise NoLiftingFound(no_lifting)
    scan = []
    for d in range(1, max_degree + 1):
        system = _sparse_system(eta, d)
        kernel = (_adjugate_kernel(system) if d == eta.n - 2 >= 2
                  else sparse_kernel(system, _kernel_at_points))
        rows, cols = constraint_shape(eta.n, d)
        scan.append({"degree": d, "rows": rows, "cols": cols, "kernel_dim": len(kernel),
                     "validated": 0})
        if kernel:
            break
    else:
        raise NoLiftingFound(no_lifting)
    accepted = _validate(eta, kernel, d, samples, seed)
    scan[-1]["validated"] = len(accepted)
    if not accepted:
        raise NoLiftingFound(no_lifting)
    if len(accepted) > 1:
        raise AmbiguousKernel(f"{len(accepted)} validated projective solutions at degree {d}")
    if len(kernel) > 1:
        raise AmbiguousKernel("validated solution reduced below the scanned degree")
    verification = _verification(d, a_pass=True, b_identity=True, failures=(0, 0),
                                 samples=samples, c_pass=True, gcd_repr="1")
    return Lifting(eta.n, d, _components_from_vector(eta.n, d, accepted[0])), scan, verification


def solve_lifting(eta: DissidentMap, samples=DEFAULT_SAMPLES, seed=0,
                  max_degree=DEFAULT_MAX_DEGREE) -> Lifting:
    return solve_lifting_scan(eta, samples, seed, max_degree)[0]


def verify_lifting(eta: DissidentMap, phi, samples=DEFAULT_SAMPLES, seed=0):
    """Check conditions (a), (b), (c) for a candidate lifting; returns a
    report dict (never raises on a failing condition).

    This is the library's checker for candidates from elsewhere; nothing in
    the package calls it, since for a lifting the scan computed the scan
    already returned this report.  (a) is structural: n components in the n
    variables of eta's space, sharing one degree >= 1, not all zero.  The
    identity part of (b) is certified by the exact product M phi = 0, where
    M is the degree-d divided constraint system and phi the primitive
    coefficient vector: the same annihilates call with which the kernel
    solver certifies each kernel vector.  The pointwise part of (b) is
    checked by exact sampling at the points the scan draws for the same
    (samples, seed), nonvanishing and the line both, since the candidate
    need not be a kernel vector (_pointwise_failures).  (c) is an exact
    content GCD, run for every candidate, a Lifting or a sequence of
    components.
    """
    components = tuple(getattr(phi, "components", phi))
    n = eta.n
    degrees = {p.degree for p in components}
    nonzero = [p for p in components if not p.is_zero()]
    maps_on_space = all(p.nvars == n for p in components)
    a_pass = (len(components) == n and maps_on_space and len(degrees) == 1 and bool(nonzero)
              and next(iter(degrees)) >= 1)

    b_identity = False
    if a_pass:
        d = components[0].degree
        coeffs = [p.terms.get(m, 0) for p in components for m in monomials(n, d)]
        b_identity = _sparse_system(eta, d).annihilates([primitive_vector(coeffs)])

    if maps_on_space:
        failures = _pointwise_failures(eta, components, _sample_lines(eta, samples, seed))
    else:
        failures = (0, samples)  # no point of R^n can be evaluated

    c_pass, gcd_repr = False, "0"
    if nonzero:
        try:
            content = poly_content_gcd(nonzero)
        except PolyError as exc:  # components in differing variables
            gcd_repr = str(exc)
        else:
            c_pass, gcd_repr = content.degree == 0, repr(content)

    return _verification(max(degrees) if degrees else None, a_pass, b_identity,
                         failures, samples, c_pass, gcd_repr)

