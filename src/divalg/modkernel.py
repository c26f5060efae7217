"""Exact kernels of large sparse integer matrices via a modular pass.

The expensive part of a kernel computation, rank and pivot discovery, runs
modulo word-sized primes in float64 numpy (all intermediate values stay below
2**53, so the arithmetic is exact integer arithmetic).  The candidate kernel
basis is recovered by Chinese remaindering and rational reconstruction and
then certified by an exact integer multiply against the original matrix.

Certification logic: the exact kernel reduces injectively modulo any prime
(the integer kernel lattice is saturated), so dim ker(M mod p) >= dim ker(M)
for every p.  Hence

  * full column rank mod a single prime proves the exact kernel is {0};
  * a reconstructed family of dim-many independent vectors that all verify
    M v = 0 exactly is a full exact kernel basis, because dim ker(M) is
    sandwiched between the verified count and the modular dimension.

Unlucky primes can only make the modular kernel too big, never too small,
and any such candidate fails exact verification, so the final answer is
independent of the prime ladder.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .exact import primitive_vector

# Primes sized so that a 4096-term dot product of residues fits in 2**53,
# keeping float64 matmuls exact.
PRIMES = (
    1399999, 1399963, 1399943, 1399919, 1399913, 1399883, 1399861, 1399847,
    1399843, 1399837, 1399819, 1399817, 1399813, 1399793, 1399789, 1399777,
    1399751, 1399733, 1399721, 1399709, 1399691, 1399687, 1399679, 1399663,
)

_MATMUL_CHUNK = 4096


class ModularKernelError(RuntimeError):
    """Reconstruction failed for every prime in the ladder (solver bug)."""


class SparseIntMatrix:
    """Immutable CSR matrix with arbitrary-precision integer entries."""

    def __init__(self, nrows, ncols, coo):
        self.nrows = nrows
        self.ncols = ncols
        cells = sorted(coo)
        self.indices = np.array([c for _, c, _ in cells], dtype=np.int64)
        self.data = [int(v) for _, _, v in cells]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        for r, _, _ in cells:
            indptr[r + 1] += 1
        self.indptr = np.cumsum(indptr)
        self.max_abs = max((abs(v) for v in self.data), default=0)
        # int64 mirror for fast exact matvec when entries are word-sized
        if self.max_abs < 2 ** 62:
            self._data64 = np.array(self.data, dtype=np.int64)
        else:
            self._data64 = None

    @property
    def nnz(self):
        return len(self.data)

    def dense_block_mod(self, row_start, row_stop, p):
        """Rows [row_start, row_stop) as a dense float64 block of residues."""
        rows = row_stop - row_start
        block = np.zeros((rows, self.ncols), dtype=np.float64)
        lo = int(self.indptr[row_start])
        hi = int(self.indptr[row_stop])
        if lo == hi:
            return block
        if self._data64 is not None:
            vals = np.mod(self._data64[lo:hi], p)
        else:
            vals = np.array([v % p for v in self.data[lo:hi]], dtype=np.int64)
        row_idx = np.repeat(
            np.arange(rows, dtype=np.int64),
            np.diff(self.indptr[row_start:row_stop + 1]),
        )
        block[row_idx, self.indices[lo:hi]] = vals
        return block

    def matvec_exact(self, v):
        """Exact integer matrix-vector product (list of Python ints)."""
        vmax = max((abs(x) for x in v), default=0)
        max_row_nnz = int(np.max(np.diff(self.indptr))) if self.nnz else 0
        if (
            self._data64 is not None
            and vmax > 0
            and self.max_abs * vmax * max(max_row_nnz, 1) < 2 ** 62
        ):
            varr = np.array(v, dtype=np.int64)
            prods = self._data64 * varr[self.indices]
            sums = np.zeros(self.nrows, dtype=np.int64)
            nonempty = np.flatnonzero(np.diff(self.indptr))
            if nonempty.size:
                seg = np.add.reduceat(prods, self.indptr[nonempty])
                sums[nonempty] = seg
            return sums.tolist()
        out = [0] * self.nrows
        for r in range(self.nrows):
            lo, hi = int(self.indptr[r]), int(self.indptr[r + 1])
            acc = 0
            for k in range(lo, hi):
                acc += self.data[k] * v[int(self.indices[k])]
            out[r] = acc
        return out


# ---------------------------------------------------------------------------
# mod-p elimination primitives (exact integer arithmetic inside float64)


def _matmul_mod(a, b, p):
    inner = a.shape[1]
    if inner <= _MATMUL_CHUNK:
        return np.mod(a @ b, p)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for s in range(0, inner, _MATMUL_CHUNK):
        acc = np.mod(acc + a[:, s:s + _MATMUL_CHUNK] @ b[s:s + _MATMUL_CHUNK, :], p)
    return acc


def _rref_mod(a, p):
    """In-place RREF of a residue matrix.  Returns (a, pivots, free_cols).

    Row entries are lazily reduced: after s rank-1 updates every value is
    bounded by p + s*(p-1)**2, so a full reduction is forced every
    `budget` pivots to keep all float64 arithmetic exact.
    """
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


def _kernel_from_rref(reduced, pivots, free, p):
    """Kernel basis (cols x len(free)) of a matrix given in RREF mod p."""
    cols = reduced.shape[1]
    basis = np.zeros((cols, len(free)), dtype=np.float64)
    for idx, f in enumerate(free):
        basis[f, idx] = 1.0
    if pivots:
        piv = np.array(pivots, dtype=np.int64)
        basis[piv, :] = np.mod(-reduced[: len(pivots)][:, free], p)
    return basis


def _kernel_mod_p(mat, p, block=1024):
    """Canonical kernel basis of mat modulo p, or None if it is {0}.

    Processes rows in blocks, maintaining a spanning set K of the kernel of
    the rows seen so far; each block only needs the compressed system
    (block @ K), which collapses to a cheap multiply once the rank has
    saturated.  Returns (basis_rows int64 array of shape dim x ncols, pivot
    column tuple of the subspace RREF).
    """
    m = mat.ncols
    kern = None  # None encodes the identity (no constraints yet)
    for start in range(0, mat.nrows, block):
        stop = min(start + block, mat.nrows)
        rows = mat.dense_block_mod(start, stop, p)
        if not np.any(rows):
            continue
        compressed = rows if kern is None else _matmul_mod(rows, kern, p)
        reduced, pivots, free = _rref_mod(compressed, p)
        if not pivots:
            continue
        if not free:
            return None
        basis = _kernel_from_rref(reduced, pivots, free, p)
        kern = basis if kern is None else _matmul_mod(kern, basis, p)
    if kern is None:
        kern = np.eye(m, dtype=np.float64)
    reduced, pivots, _ = _rref_mod(np.ascontiguousarray(kern.T), p)
    rows = np.asarray(reduced[: len(pivots)], dtype=np.int64)
    return rows, tuple(pivots)


# ---------------------------------------------------------------------------
# rational reconstruction


def _crt_pair(x1, n1, x2, n2):
    inv = pow(n1 % n2, -1, n2)
    t = ((x2 - x1) * inv) % n2
    return x1 + n1 * t, n1 * n2


def _reconstruct_rational(residue, modulus):
    """Wang's algorithm: the unique p/q with |p|, q <= sqrt(modulus/2)
    and p = q*residue mod modulus, or None."""
    bound = isqrt(modulus // 2)
    v0, v1 = modulus, residue
    s0, s1 = 0, 1
    while v1 > bound:
        q = v0 // v1
        v0, v1 = v1, v0 - q * v1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(v1, s1) != 1:
        return None
    num, den = v1, s1
    if den < 0:
        num, den = -num, -den
    return Fraction(num, den)


def _reconstruct_basis(bases):
    """CRT-combine per-prime bases and rationally reconstruct each entry.

    ``bases`` is a nonempty list of (prime, int64 array) with equal shapes.
    Returns a list of rows of Fractions, or None if any entry fails.  One
    path serves any number of primes: with one prime the CRT loop is empty,
    and Wang's algorithm returns the residue r, or r - p, whenever that is
    within its bound, so small entries need no path of their own.
    """
    p0, b0 = bases[0]
    shape = b0.shape
    residues = b0.tolist()
    modulus = p0
    for p, b in bases[1:]:
        for i in range(shape[0]):
            row = b[i]
            for j in range(shape[1]):
                residues[i][j], _ = _crt_pair(residues[i][j], modulus, int(row[j]), p)
        modulus *= p
    rows = []
    for i in range(shape[0]):
        row = []
        for j in range(shape[1]):
            val = _reconstruct_rational(residues[i][j] % modulus, modulus)
            if val is None:
                return None
            row.append(val)
        rows.append(row)
    return rows


def sparse_kernel(mat, primes=PRIMES):
    """Exact canonical kernel basis of a SparseIntMatrix.

    Returns primitive integer vectors (content 1, positive leading entry),
    the rows of the reduced row echelon form of the kernel subspace; [] iff
    the kernel is {0}.  Deterministic: the prime ladder is fixed and every
    returned basis is exactly verified.
    """
    best = None
    collected = []
    for p in primes:
        result = _kernel_mod_p(mat, p)
        if result is None:
            return []
        rows, pivots = result
        structure = (rows.shape[0], pivots)
        if best is None or structure < best:
            best = structure
            collected = [(p, rows)]
        elif structure == best:
            collected.append((p, rows))
        else:
            continue
        attempts = [collected]
        if len(collected) > 1:
            # a same-structure but unlucky earlier prime would poison the
            # CRT forever; the newest prime alone is a cheap second chance
            attempts.append(collected[-1:])
        for subset in attempts:
            candidate = _reconstruct_basis(subset)
            if candidate is None:
                continue
            verified = _verify_candidate(mat, candidate, best[1])
            if verified is not None:
                return verified
    raise ModularKernelError(
        f"kernel not reconstructible with {len(primes)} primes "
        f"({mat.nrows}x{mat.ncols}, nnz={mat.nnz})"
    )


def _verify_candidate(mat, rows, pivots):
    vectors = []
    for i, row in enumerate(rows):
        # RREF structure: 1 on own pivot, 0 on the others; anything else
        # means reconstruction produced garbage for this prime set.
        for j, c in enumerate(pivots):
            if row[c] != (1 if j == i else 0):
                return None
        vec = primitive_vector(row)
        if mat.matvec_exact(list(vec)) != [0] * mat.nrows:
            return None
        vectors.append(vec)
    return vectors
