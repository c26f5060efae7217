import random

from hypothesis import given, settings, strategies as st

from divalg.exact import Matrix
from divalg.modkernel import SparseIntMatrix, sparse_kernel


def dense_to_sparse(rows):
    coo = [
        (r, c, v)
        for r, row in enumerate(rows)
        for c, v in enumerate(row)
        if v
    ]
    return SparseIntMatrix(len(rows), len(rows[0]), coo)


def test_matvec_exact_matches_python():
    rows = [[3, 0, -2], [0, 0, 0], [7, 1, 1]]
    mat = dense_to_sparse(rows)
    v = [5, -1, 4]
    expected = [sum(a * b for a, b in zip(row, v)) for row in rows]
    assert mat.matvec_exact(v) == expected


def test_matvec_exact_bigint_path():
    big = 2 ** 70
    mat = SparseIntMatrix(2, 2, [(0, 0, big), (1, 1, -big)])
    assert mat.matvec_exact([1, 2]) == [big, -2 * big]


def test_kernel_zero_matrix_is_identity_basis():
    mat = SparseIntMatrix(4, 3, [])
    assert sparse_kernel(mat) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_full_column_rank_is_empty():
    mat = dense_to_sparse([[1, 0], [0, 1], [1, 1]])
    assert sparse_kernel(mat) == []


def test_kernel_hand_example():
    mat = dense_to_sparse([[1, 1], [1, 1]])
    assert sparse_kernel(mat) == [(1, -1)]


def test_kernel_agrees_with_exact_rref():
    rng = random.Random(11)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        sparse = sparse_kernel(dense_to_sparse(rows))
        assert sparse == Matrix(rows).kernel()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=5, max_size=5), min_size=3, max_size=9
    )
)
def test_kernel_membership_property(rows):
    mat = dense_to_sparse(rows)
    kernel = sparse_kernel(mat)
    m = Matrix(rows)
    for v in kernel:
        assert all(x == 0 for x in m.matvec(v))
    assert len(kernel) == 5 - m.rank()


def test_kernel_with_huge_entries():
    # exceeds the int64 fast path; exercises the Python-int verification
    big = 2 ** 80
    rows = [[big, -big, 0], [0, big, -big]]
    kernel = sparse_kernel(dense_to_sparse(rows))
    assert kernel == [(1, 1, 1)]


def test_kernel_survives_residue_wraparound():
    # divisible by one of the ladder primes: that prime sees a bigger kernel,
    # fails verification, and the next prime takes over
    from divalg.modkernel import PRIMES

    p = PRIMES[0]
    rows = [[p, 0], [0, 1]]
    assert sparse_kernel(dense_to_sparse(rows)) == []


def test_wide_zero_matrix_kernel():
    # kernel wider than one elimination block: full identity basis comes back
    ncols = 2500
    mat = SparseIntMatrix(1, ncols, [])
    kernel = sparse_kernel(mat)
    assert len(kernel) == ncols
    for i in (0, 1234, 2499):
        assert kernel[i] == tuple(int(t == i) for t in range(ncols))


def test_blocked_processing_matches_small():
    rng = random.Random(3)
    ncols = 40
    rows = []
    for _ in range(2100):  # spans several 1024-row blocks
        row = [0] * ncols
        for _ in range(3):
            row[rng.randrange(ncols)] = rng.randint(-4, 4)
        rows.append(row)
    mat = dense_to_sparse(rows)
    kernel = sparse_kernel(mat)
    assert kernel == Matrix(rows).kernel()


def test_kernel_independent_of_prime_ladder_order(conjugate_bent_tensor):
    # the degree-3 system of the bent map conjugated by a Cayley rotation:
    # its kernel needs two primes and a CRT retry, so the ladder order
    # decides which residues get combined
    import pytest

    from divalg.dissident import DissidentMap
    from divalg.lifting import _sparse_system
    from divalg.modkernel import PRIMES, ModularKernelError

    system = _sparse_system(DissidentMap(7, conjugate_bent_tensor), 3)
    with pytest.raises(ModularKernelError):
        sparse_kernel(system, primes=PRIMES[:1])
    forward = sparse_kernel(system)
    assert len(forward) == 1
    assert sparse_kernel(system, primes=PRIMES[::-1]) == forward
