import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divalg import modkernel
from divalg.exact import Matrix, primitive_vector
from divalg.lifting import ConstraintSystem, _kernel_at_points
from divalg.modkernel import (
    PRIMES,
    ModularKernelError,
    sparse_kernel,
)
from divalg.poly import monomials


class IntMatrix:
    """An integer matrix from (row, col, value) cells of any size, as
    sparse_kernel reads a system: its shape and the exact M v = 0, in
    Python ints; and its dense residues, which dense_solve eliminates."""

    def __init__(self, nrows, ncols, cells):
        self.nrows, self.ncols = nrows, ncols
        self.rows = [{} for _ in range(nrows)]
        for r, c, v in cells:
            self.rows[r][c] = v

    def residues(self, p):
        dense = np.zeros((self.nrows, self.ncols))
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                dense[r, c] = v % p
        return dense

    def annihilates(self, vectors):
        return all(sum(x * v[c] for c, x in row.items()) == 0
                   for v in vectors for row in self.rows)


def dense_matrix(rows):
    cells = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    return IntMatrix(len(rows), len(rows[0]), cells)


def dense_solve(mat, p):
    """sparse_kernel's solve for an IntMatrix: the kernel mod p of the whole
    matrix."""
    return modkernel._kernel_mod_p(mat.residues(p), p)


def dense_kernel(mat, primes=PRIMES):
    return sparse_kernel(mat, dense_solve, primes)


def python_product(tensor, d, phi):
    """M phi of the divided system at degree d, in Python ints from the
    polynomials: slot j is sum_k Phi_k * sum_i t[i][j][k] x_i, keyed by
    exponent tuple, with Phi_k read from phi in monomials(n, d) order."""
    n = len(tensor)
    monos = monomials(n, d)
    C = len(monos)
    image = []
    for j in range(n):
        slot = dict.fromkeys(monomials(n, d + 1), 0)
        for k in range(n):
            for c, m in enumerate(monos):
                for i in range(n):
                    slot[m[:i] + (m[i] + 1,) + m[i + 1:]] += tensor[i][j][k] * phi[k * C + c]
        image += slot.values()
    return image


def test_exact_product_matches_python():
    # the certificate sparse_kernel verifies against, M phi = 0 in Python
    # ints, agrees with the polynomial product on every vector of a box and
    # on the kernel line of a hand system whose slot 1 is zero: slot 0 is
    # (3 x0 + 7 x1) Phi_0 + (-2 x0 + x1) Phi_1, so Phi = (-2 x0 + x1,
    # -3 x0 - 7 x1) spans the kernel at degree 1
    tensor = [[[3, -2], [0, 0]], [[7, 1], [0, 0]]]
    system = ConstraintSystem(tensor, 1)
    assert (system.nrows, system.ncols) == (6, 4)
    col = {m: c for c, m in enumerate(monomials(2, 1))}
    kernel = [0] * 4
    for k, poly in enumerate(({(1, 0): -2, (0, 1): 1}, {(1, 0): -3, (0, 1): -7})):
        for m, x in poly.items():
            kernel[k * 2 + col[m]] = x
    vectors = [[a, b, c, e] for a in range(-2, 3) for b in range(-2, 3)
               for c in range(-2, 3) for e in range(-2, 3)]
    vectors += [[s * x for x in kernel] for s in (1, -5, 2 ** 70)]
    vectors += [[x + (i == 2) for i, x in enumerate(kernel)]]
    zero = [not any(python_product(tensor, 1, v)) for v in vectors]
    assert sum(zero) == 4 and zero[-4:] == [True, True, True, False]
    for v, z in zip(vectors, zero):
        assert system.annihilates([v]) == z, v
    assert sparse_kernel(system, _kernel_at_points) == [tuple(-x for x in kernel)]


def test_kernel_zero_matrix_is_identity_basis():
    mat = IntMatrix(4, 3, [])
    assert dense_kernel(mat) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_full_column_rank_is_empty():
    mat = dense_matrix([[1, 0], [0, 1], [1, 1]])
    assert dense_kernel(mat) == []


def test_kernel_hand_example():
    mat = dense_matrix([[1, 1], [1, 1]])
    assert dense_kernel(mat) == [(1, -1)]


def test_kernel_agrees_with_exact_rref():
    rng = random.Random(11)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        sparse = dense_kernel(dense_matrix(rows))
        assert sparse == Matrix(rows).kernel()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=5, max_size=5), min_size=3, max_size=9
    )
)
def test_kernel_membership_property(rows):
    mat = dense_matrix(rows)
    kernel = dense_kernel(mat)
    m = Matrix(rows)
    for v in kernel:
        assert all(x == 0 for x in m.matvec(v))
    assert len(kernel) == 5 - m.rank()


def test_kernel_with_huge_entries():
    # entries past int64: the residues and the verification take Python ints
    big = 2 ** 80
    rows = [[big, -big, 0], [0, big, -big]]
    kernel = dense_kernel(dense_matrix(rows))
    assert kernel == [(1, 1, 1)]


def test_kernel_survives_residue_wraparound():
    # divisible by one of the ladder primes: that prime sees a bigger kernel,
    # fails verification, and the next prime takes over
    from divalg.modkernel import PRIMES

    p = PRIMES[0]
    rows = [[p, 0], [0, 1]]
    assert dense_kernel(dense_matrix(rows)) == []


def test_wide_zero_matrix_kernel():
    # a zero matrix wider than many panels: the full identity basis comes back
    ncols = 2500
    mat = IntMatrix(1, ncols, [])
    kernel = dense_kernel(mat)
    assert len(kernel) == ncols
    for i in (0, 1234, 2499):
        assert kernel[i] == tuple(int(t == i) for t in range(ncols))


def test_blocked_processing_matches_small():
    # rank 150 over 160 columns, two full panels of 64 columns and a short
    # one, and 400 rows, most of them below the last pivot
    rng = random.Random(3)
    rank, dim = 150, 10
    mix = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(rank)]
    rows = []
    for _ in range(400):
        row = [rng.randint(-4, 4) if rng.random() < 0.1 else 0 for _ in range(rank)]
        rows.append(row + [sum(row[i] * mix[i][j] for i in range(rank)) for j in range(dim)])
    kernel = dense_kernel(dense_matrix(rows))
    assert len(kernel) == dim
    assert kernel == _sympy_kernel(rows)


def _quadruple_system(seed):
    """The degree-1 system of a random quadruple's map: 37-39-bit kernel
    entries, which take three primes."""
    from divalg.dissident import quadruple_to_triple, random_quadruple
    from divalg.lifting import _sparse_system

    return _sparse_system(quadruple_to_triple(random_quadruple(seed)).eta, 1)


def test_kernel_independent_of_prime_ladder_order():
    # the kernel needs three primes, so the ladder order decides which
    # residues get combined
    system = _quadruple_system(0)
    with pytest.raises(ModularKernelError):
        sparse_kernel(system, _kernel_at_points, PRIMES[:2])
    forward = sparse_kernel(system, _kernel_at_points)
    assert len(forward) == 1
    assert sparse_kernel(system, _kernel_at_points, PRIMES[::-1]) == forward
    assert sparse_kernel(system, _kernel_at_points, PRIMES[5:] + PRIMES[:5]) == forward


def test_conjugate_bent_kernel_takes_one_prime(conjugate_bent_tensor):
    # the degree-3 system of the bent map conjugated by a Cayley rotation:
    # 12-bit entries over the pivot 2525 = 25 * 101, where Wang's
    # per-entry bound sqrt(p/2) is about 836
    from divalg.dissident import DissidentMap
    from divalg.lifting import _sparse_system

    system = _sparse_system(DissidentMap(7, conjugate_bent_tensor), 3)
    one = sparse_kernel(system, _kernel_at_points, PRIMES[:1])
    assert len(one) == 1 and next(x for x in one[0] if x) == 2525
    assert max(abs(x) for x in one[0]).bit_length() == 12
    assert one == sparse_kernel(system, _kernel_at_points, PRIMES[1:])


def _planted(phi):
    """An integer matrix whose kernel is spanned by the primitive vector
    phi (phi[0] > 0): the rows phi[i] e_0 - phi[0] e_i.  Its kernel's RREF
    row is phi / phi[0], with its pivot on column 0."""
    return [[phi[i]] + [-phi[0] * (c == i) for c in range(1, len(phi))]
            for i in range(1, len(phi))]


def _primitive_row(rng, pivot, entries, bits):
    """A primitive vector: ``pivot``, then ``entries`` nonzero entries of
    at most ``bits`` bits."""
    while True:
        phi = [pivot] + [rng.choice((-1, 1)) * rng.randint(1, 2 ** bits - 1)
                         for _ in range(entries)]
        if gcd(*phi) == 1:
            return phi


def test_one_prime_reconstructs_a_denominator_above_wang_bound():
    # a 12-bit pivot and 12-bit entries: per entry, Wang's algorithm needs
    # both below sqrt(p/2) (about 836); the common denominator needs one
    # prime
    p = PRIMES[0]
    rng = random.Random(41)
    for pivot in (2 ** 11 + 5, 3001, 4093):
        assert pivot > isqrt(p // 2)
        phi = _primitive_row(rng, pivot, 60, 12)
        assert dense_kernel(dense_matrix(_planted(phi)), PRIMES[:1]) == [tuple(phi)]


def test_denominator_shared_with_the_sampled_entries():
    # the first entries are multiples of 60, which divides the pivot 3960:
    # lattice reduction on them finds only 3960 / 60, and the entries after
    # them must supply the 60
    p = PRIMES[0]
    rng = random.Random(43)
    pivot, k = 3960, modkernel._LATTICE_ENTRIES
    phi = ([pivot] + [60 * rng.choice((-1, 1)) * rng.randint(1, 68) for _ in range(k)]
           + [rng.choice((-1, 1)) * rng.randint(1, 2 ** 12 - 1) for _ in range(40)])
    assert gcd(*phi) == 1
    residues = [x * pow(pivot, -1, p) % p for x in phi[1:]]
    assert modkernel._common_denominator(residues[:k], p) == pivot // 60
    assert modkernel._common_denominator(residues, p) == pivot
    assert dense_kernel(dense_matrix(_planted(phi)), PRIMES[:1]) == [tuple(phi)]


def test_too_small_a_modulus_fails_verification_not_reconstruction():
    # 30-bit entries are beyond one prime: the lattice vector there is not
    # the row's, yet each of the four entries has a residue within the
    # bounds, so a candidate comes back and only M v = 0 rejects it; the
    # ladder then goes on to the exact kernel
    rng = random.Random(47)
    phi = _primitive_row(rng, 2 ** 29 + 11, 4, 30)
    rows = _planted(phi)
    mat = dense_matrix(rows)
    p = PRIMES[0]
    basis, pivots = dense_solve(mat, p)
    candidate = modkernel._reconstruct_basis([(p, basis)], pivots)
    assert candidate is not None
    assert not modkernel._verify_candidate(mat, candidate)
    with pytest.raises(ModularKernelError):
        dense_kernel(mat, PRIMES[:1])
    assert dense_kernel(mat) == _sympy_kernel(rows) == [tuple(phi)]


def _sympy_kernel(rows):
    """The kernel of an integer matrix from sympy's DomainMatrix nullspace
    over QQ, as the primitive rows of its RREF: the form sparse_kernel
    returns."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    mat = DomainMatrix([[QQ(x) for x in row] for row in rows], (len(rows), len(rows[0])), QQ)
    basis = mat.nullspace()
    if basis.shape[0] == 0:
        return []
    reduced, _ = basis.rref()
    return [primitive_vector([Fraction(int(x.numerator), int(x.denominator)) for x in row])
            for row in reduced.to_list()]


def _rank_deficient(rng, nrows, ncols, rank):
    """A seeded integer matrix of rank at most ``rank``: a product of a tall
    factor with entries up to 2**40 and a wide one with entries up to 2**10,
    so the entries reach about 2**52 while the kernel stays reconstructible
    with the ladder."""
    left = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-2 ** 10, 2 ** 10) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def test_kernel_matches_sympy_nullspace():
    # rows scaled by 2**70 leave int64; multiples of PRIMES[0] make that
    # prime see a bigger kernel, which the ladder must get past
    rng = random.Random(29)
    p = PRIMES[0]
    for case in range(24):
        ncols = rng.randint(3, 12)
        nrows = rng.randint(1, 10)
        rows = _rank_deficient(rng, nrows, ncols, rng.randint(1, min(nrows, ncols - 1)))
        if case % 3 == 1:
            rows[0] = [x * 2 ** 70 for x in rows[0]]
        if case % 4 == 2:
            rows = [[x * p for x in row] for row in rows]
        elif case % 4 == 3:
            rows[-1] = [x * p for x in rows[-1]]
        assert dense_kernel(dense_matrix(rows)) == _sympy_kernel(rows), case


@pytest.mark.parametrize("p", [PRIMES[0], 3])
def test_reduce_is_exact_over_its_range(p):
    # the floor(x/p) reduction must agree with integer % on every value
    # the elimination can hold: -(2**53 - p) <= x < 2**53
    top = 2 ** 53
    edges = [0, 1, p - 1, p, p + 1, -1, -p, -p - 1, top - 1, top - p, top - p - 1,
             -(top - p), -(top - p) + 1, (top // p) * p, -((top - p) // p) * p]
    rng = random.Random(p)
    values = edges + [rng.randrange(-(top - p), top) for _ in range(2000)]
    got = modkernel._reduce(np.array(values, dtype=np.float64), p)
    assert [int(x) for x in got] == [v % p for v in values]

def _parent_rref_mod(a, p):
    """The per-pivot elimination _rref_mod used before it was blocked,
    kept as the reference: one rank-1 update of the whole matrix per pivot."""
    rows, cols = a.shape
    budget = int((2 ** 53 - p) // ((p - 1) ** 2))
    since_reduce = 0
    pivots = []
    free = []
    r = 0
    for c in range(cols):
        if r == rows:
            free.extend(range(c, cols))
            break
        col = np.mod(a[:, c], p)
        a[:, c] = col
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            free.append(c)
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, :] = np.mod(a[r, :], p)
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, :] = np.mod(a[r, :] * inv, p)
        factors = a[:, c].copy()
        factors[r] = 0.0
        if np.any(factors):
            a -= np.outer(factors, a[r, :])
        a[:, c] = 0.0
        a[r, c] = 1.0
        pivots.append(c)
        r += 1
        since_reduce += 1
        if since_reduce >= budget:
            np.mod(a, p, out=a)
            since_reduce = 0
    np.mod(a, p, out=a)
    return a, pivots, free


def _rref_cases(p):
    """Seeded residue matrices mod p: planted rank deficiency, widths at
    and around the panel edges, zero columns on an edge, the zero matrix
    and the identity."""
    k = modkernel._PANEL
    rng = np.random.default_rng(p % 1000)

    def planted(rows, cols, rank):
        left = rng.integers(0, p, (rows, rank))
        right = rng.integers(0, p, (rank, cols))
        return (left @ right % p).astype(np.float64)

    for cols in (k - 1, k, k + 1, 2 * k + 1):
        for rows in (cols // 2, cols + 20):
            full = min(rows, cols)
            for rank in (full, full - 3, full // 3):
                yield f"{rows}x{cols} rank {rank}", planted(rows, cols, rank)
    # sparse: mod 3 most residues are 0, so pivots are searched far down
    sparse = rng.integers(0, p, (90, 2 * k + 1)) * (rng.random((90, 2 * k + 1)) < 0.15)
    yield "sparse", sparse.astype(np.float64)
    edge = planted(100, 2 * k + 1, 70)
    edge[:, [k - 1, k, 2 * k - 1, 2 * k]] = 0.0
    yield "zero columns on panel edges", edge
    shifted = planted(80, 2 * k + 1, 60)
    shifted[:, :k] = 0.0
    yield "first panel zero", shifted
    yield "zero", np.zeros((40, 2 * k + 1))
    yield "identity", np.eye(2 * k + 1)
    yield "wide identity", np.eye(k + 1, 2 * k + 1, k - 1)


@pytest.mark.parametrize("p", [PRIMES[0], 3])
def test_blocked_rref_matches_the_per_pivot_elimination(p):
    # the RREF mod p is unique, so the blocked elimination must give the
    # parent's pivots, free columns and reduced rows byte for byte
    for name, a in _rref_cases(p):
        want, want_pivots, want_free = _parent_rref_mod(a.copy(), p)
        got, pivots, free = modkernel._rref_mod(a.copy(), p)
        rank = len(want_pivots)
        assert (pivots, free) == (want_pivots, want_free), name
        assert got.shape == a.shape, name
        assert np.array_equal(got[:rank], want[:rank]), name
        # and the elimination on packed Python ints
        ncols = a.shape[1]
        reduced, pivots = modkernel.rref_packed(
            [modkernel.pack(row) for row in a.astype(np.int64).tolist()], ncols, p)
        assert pivots == want_pivots, name
        assert ([modkernel.unpack(row, ncols, p) for row in reduced]
                == want[:rank].astype(np.int64).tolist()), name


@pytest.mark.parametrize("p", [PRIMES[0], 3])
def test_packed_kernel_matches_the_float64_kernel(p):
    # the kernel of a list of rows is read from an echelon basis by back
    # substitution, that of an array from the full RREF: both must give the
    # kernel subspace's RREF, or None for {0}
    for name, a in _rref_cases(p):
        rows = a.astype(np.int64).tolist()
        assert modkernel._kernel_mod_p(rows, p) == modkernel._kernel_mod_p(a.copy(), p), name


@pytest.mark.parametrize("p", [PRIMES[0], 3])
def test_invert_packed_matches_the_rref_of_the_augmented_matrix(p):
    # the inverse in place against the right half of the RREF of [A | I]:
    # a zero leading entry makes the inversion swap rows, and a repeated
    # row, or most matrices mod 3, make A singular
    rng = random.Random(p % 1000)
    for n in (1, 2, 5, 12):
        for case in range(8):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if case % 2:
                a[0][0] = 0
            if case == 7 and n > 1:
                a[-1] = a[0]
            augmented = [modkernel.pack(row + [int(i == j) for j in range(n)])
                         for i, row in enumerate(a)]
            reduced, pivots = modkernel.rref_packed(augmented, 2 * n, p)
            want = ([modkernel.unpack(row, 2 * n, p)[n:] for row in reduced]
                    if pivots == list(range(n)) else None)
            got = modkernel.invert_packed([modkernel.pack(row) for row in a], n, p)
            assert got == want, (n, case)
