"""Modular arithmetic: exact kernels of integer systems from their
eliminations mod word-sized primes.

A system M is read through its shape (nrows, ncols) and annihilates(vectors),
whether M v = 0 exactly for each integer vector v of a family
(lifting.ConstraintSystem reads it from the formula of its cells).  Its
exact kernel is found modulo word-sized primes.  For each prime p a
caller's solve gives a subspace of F_p^ncols that contains ker(M mod p)
(the degree scan's is lifting._kernel_at_points).  The candidate kernel
basis is recovered by Chinese remaindering of the entries off its pivot
columns and, row by row, one common denominator found by lattice reduction
and completed by Wang's rational reconstruction, so that one prime serves
entries of nearly its own size.  The candidate is then certified by the
system's exact annihilates.

The scan's eliminations mod p run on packed Python ints (echelon_packed,
rref_packed, invert_packed, and _kernel_mod_p of a list of rows): a row of
residues is one int with one 64-bit field per entry (after Dumas, Fousse &
Salvy, "Simultaneous modular reduction and Kronecker substitution for
small finite fields", J. Symbolic Comput. 46, 2011), a row operation is
one multiply and one add of big ints, and a field is reduced mod p only
when it is read.  The eliminations in float64 numpy (_rref_mod, and
_kernel_mod_p of an array) have no caller in the package: the tests
eliminate whole reference systems with them, and the benchmark's tracer
times _rref_mod.  All their intermediate values stay below 2**53, so the
arithmetic is exact integer arithmetic, every reduction mod p goes through
_reduce, and numpy is imported only inside them.  They are blocked by
columns: pivots are found one at a time only inside panels of 64 columns,
and each panel's row transform reaches the rest of the matrix in one
matmul.

Certification logic: the exact kernel reduces injectively modulo any prime
(the integer kernel lattice is saturated), so dim ker(M mod p) >= dim ker(M)
for every p, and a subspace that contains ker(M mod p) has dimension at
least dim ker(M); a subspace of exactly that dimension is the exact
kernel's reduction.  Hence

  * a solve that gives {0} proves the exact kernel is {0};
  * a reconstructed family of dim-many independent vectors that all verify
    M v = 0 exactly is a full exact kernel basis, because dim ker(M) is
    sandwiched between the verified count and the subspace's dimension.

Unlucky primes can only make the subspace too big, never too small, and
any such candidate fails exact verification, so the final answer is
independent of the prime ladder.  A solve that cannot serve a prime raises
UnluckyPrime, and the ladder goes on to the next one.

Reduction mod p is a ring map on the integers: a minor of the reduced
matrix is the reduction of the exact minor, so a nonzero residue means a
nonzero minor over Q, and full rank mod SCREEN_PRIME proves full exact
rank.  The degree scan screens its validation points so
(lifting._sample_lines, on packed ints); a rank-deficient residue proves
nothing, and those points are decided exactly.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect
from math import gcd, isqrt

# Word-size primes: the packed fields stay below 2**64 (echelon_packed),
# and a 64-term dot product of residues, a panel of _rref_mod, below 2**53.
PRIMES = (
    1399999, 1399963, 1399943, 1399919, 1399913, 1399883, 1399861, 1399847,
    1399843, 1399837, 1399819, 1399817, 1399813, 1399793, 1399789, 1399777,
    1399751, 1399733, 1399721, 1399709, 1399691, 1399687, 1399679, 1399663,
)

# Columns per panel of the blocked elimination in _rref_mod, and the widest
# part of a panel that is eliminated one pivot at a time.
_PANEL = 64
_BASE = 16

# Nonzero residues of an RREF row that lattice reduction finds its common
# denominator from (_common_denominator).
_LATTICE_ENTRIES = 4

# The prime the scan's validation points are screened with.
SCREEN_PRIME = PRIMES[0]


class ModularKernelError(RuntimeError):
    """No prime of the ladder gave a candidate that verifies: the kernel's
    entries need a larger modulus than the ladder's, or every prime was
    skipped or saw too large a subspace."""


class UnluckyPrime(ArithmeticError):
    """A solve cannot serve this prime; sparse_kernel takes the next one."""


# ---------------------------------------------------------------------------
# mod-p elimination primitives (exact integer arithmetic inside float64)


def _reduce(x, p, out=None):
    """x mod p, exactly, for integers x in float64 with
    -(2**53 - p) <= x < 2**53.

    Write x = q*p + s with 0 <= s < p.  The rounded quotient x/p is within
    half an ulp, at most |x|/p * 2**-53 < 1/p, of q + s/p, so it stays in
    [q, q + 1) and its floor is q; q*p and x - q*p are then exact.  This
    is several times faster than numpy's remainder, which takes an fmod
    per entry.
    """
    import numpy as np

    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def _rref_mod(a, p):
    """In-place RREF of a residue matrix.  Returns (a, pivots, free_cols),
    with a[:rank] the RREF mod p.

    Blocked Gauss-Jordan elimination (after Dumas, Giorgi & Pernet, "FFLAS
    and FFPACK", ACM TOMS 35(3), 2008).  The columns are taken in panels of
    _PANEL.  _eliminate_panel finds a panel's greedy pivots with updates
    confined to the panel, moves the pivot rows S to rows r..r+n-1, and
    leaves in the pivot columns J the columns of the row transform it
    applied: A[S,J]^-1 on S and -A[i,J] A[S,J]^-1 on every other row i,
    above the panel's rows and below.  One matmul then applies the
    transform to the columns c1: right of the panel (_carry):

        a[:, c1:] += L @ a[S, c1:],  L = the pivot columns minus I on S,

    which leaves W = A[S,J]^-1 A[S, c1:] on S and A[i, c1:] - A[i,J] W on
    every other row.  The RREF mod p is unique, so the pivots, free columns
    and rows are those of the per-pivot elimination of the whole matrix.

    Exactness: the factors of every update are residues in [0, p), or -1
    on the diagonal of L: the reduced column and pivot row of a rank-1
    update, or L and the reduced a[S, c1:] of a matmul with at most
    _PANEL inner terms.  So s pivots change any entry by
    less than s*(p-1)**2, and every float64 value stays in
    (-s*(p-1)**2, p + s*(p-1)**2).  A full reduction is forced before the
    pivots since the last one could pass `budget`, which keeps that below
    2**53 and all arithmetic exact.  Entries are otherwise reduced lazily:
    a column when a panel searches it, a row when it becomes a pivot row,
    and the whole matrix at the end.
    """
    import numpy as np

    rows, cols = a.shape
    budget = int((2 ** 53 - p) // ((p - 1) ** 2))
    since_reduce = 0
    pivots = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        if since_reduce + (c1 - c0) > budget:
            _reduce(a, p, out=a)
            since_reduce = 0
        found = _eliminate_panel(a, r, c0, c1, p)
        if not found:
            continue
        n = len(found)
        if c1 < cols:
            _carry(a, r, found, c1, cols, p)
        a[:, found] = 0.0
        a[r + np.arange(n), found] = 1.0
        pivots.extend(found)
        r += n
        since_reduce += n
    _reduce(a, p, out=a)
    return a, pivots, _off_pivot(cols, pivots)


def _eliminate_panel(a, r, c0, c1, p):
    """Gauss-Jordan of the columns c0:c1 of ``a`` over all rows, with the
    pivots searched greedily in rows r and below.  Returns the pivot
    columns; their pivot rows end up at r, r+1, ...

    Row swaps move whole rows of ``a``; every other change stays inside
    the panel.  Each pivot column ends up holding the column of the row
    transform that belongs to its pivot row instead of a unit vector
    (Gauss-Jordan inversion in place), which _carry applies to other
    columns.  A panel wider than _BASE is split in two: the left half's
    transform is carried to the right half before the right half is
    eliminated, and the right half's to the left half after, so that the
    left half's pivot columns hold the transform of the whole panel (the
    right half's pivot rows are 0 in the other columns of the left half).
    Up to _BASE columns are eliminated one pivot at a time with rank-1
    updates.
    """
    import numpy as np

    if c1 - c0 > _BASE:
        mid = (c0 + c1) // 2
        left = _eliminate_panel(a, r, c0, mid, p)
        if left:
            _carry(a, r, left, mid, c1, p)
        right = _eliminate_panel(a, r + len(left), mid, c1, p)
        if left and right:
            _carry(a, r + len(left), right, c0, mid, p)
        return left + right
    rows = a.shape[0]
    panel = a[:, c0:c1]
    found = []
    for j in range(c1 - c0):
        if r == rows:
            break
        col = _reduce(panel[:, j], p)
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            col[[r, i]] = col[[i, r]]
        inv = pow(int(col[r]), p - 2, p)
        col[r] = 0.0
        panel[:, j] = 0.0
        panel[r, j] = 1.0
        panel[r] = _reduce(_reduce(panel[r], p) * inv, p)
        if np.any(col):
            panel -= np.outer(col, panel[r])
        found.append(c0 + j)
        r += 1
    return found


def _carry(a, r, found, c0, c1, p):
    """Apply the row transform held in the pivot columns ``found`` (pivot
    rows r, r+1, ...) to the columns c0:c1 of ``a``: one matmul."""
    import numpy as np

    n = len(found)
    lift = _reduce(a[:, found], p)
    lift[r + np.arange(n), np.arange(n)] -= 1.0
    if np.any(lift):
        a[:, c0:c1] += lift @ _reduce(a[r:r + n, c0:c1], p)


def _kernel_from_rref(reduced, pivots, free, p):
    """Kernel basis (cols x len(free)) of a matrix given in RREF mod p."""
    import numpy as np

    cols = reduced.shape[1]
    basis = np.zeros((cols, len(free)), dtype=np.float64)
    for idx, f in enumerate(free):
        basis[f, idx] = 1.0
    if pivots:
        piv = np.array(pivots, dtype=np.int64)
        basis[piv, :] = _reduce(-reduced[: len(pivots)][:, free], p)
    return basis


def _kernel_mod_p(a, p):
    """Canonical kernel basis of the residue matrix ``a`` mod p, or None if
    it is {0}: (the rows of the kernel subspace's RREF as lists of Python
    ints, shape dim x ncols, pivot column tuple), the form a solve of
    sparse_kernel returns.  ``a`` is a float64 array, eliminated in numpy
    and overwritten, or a list of rows of residues, eliminated on packed
    ints: an echelon basis (echelon_packed), from which each free column's
    kernel vector is read by back substitution (_back_substitute)."""
    if isinstance(a, list):
        ncols = len(a[0])
        basis, pivots = echelon_packed(map(pack, a), ncols, p)
        free = _off_pivot(ncols, pivots)
        if not free:
            return None
        solved = _back_substitute(basis, pivots, free, ncols, p)
        kernel = []
        for t, f in enumerate(free):
            vec = [0] * ncols
            vec[f] = 1
            for c, row in zip(pivots, solved):
                vec[c] = -row[t] % p
            kernel.append(pack(vec))
        reduced, pivots = rref_packed(kernel, ncols, p)
        return [unpack(row, ncols, p) for row in reduced], tuple(pivots)
    import numpy as np

    reduced, pivots, free = _rref_mod(a, p)
    if not free:
        return None
    basis = _kernel_from_rref(reduced, pivots, free, p)
    reduced, pivots, _ = _rref_mod(np.ascontiguousarray(basis.T), p)
    return reduced[: len(pivots)].astype(np.int64).tolist(), tuple(pivots)


def _back_substitute(basis, pivots, free, ncols, p):
    """The entries in the columns ``free`` of the RREF rows of an echelon
    basis (echelon_packed), as one list of residues per row.

    Row i of the RREF is the echelon row E_i minus E_i[c_k] times RREF row
    k for every later pivot c_k, since RREF row k is 1 at c_k and 0 at the
    other pivots.  So its free entries are those of E_i minus
    sum_k E_i[c_k] R_k, computed from the last row up, with R_k packed
    over the free columns alone: one multiply-add of len(free) fields per
    pair of rows, where clearing the pivot columns (rref_packed) takes one
    of ncols fields.  Fields grow as in echelon_packed.
    """
    r = len(basis)
    solved, packed = [None] * r, [0] * r
    for i in range(r - 1, -1, -1):
        row = unpack(basis[i], ncols, p)
        acc = pack([row[f] for f in free])
        for k in range(i + 1, r):
            e = row[pivots[k]]
            if e:
                acc += (p - e) * packed[k]
        solved[i] = unpack(acc, len(free), p)
        packed[i] = pack(solved[i])
    return solved


# ---------------------------------------------------------------------------
# mod-p elimination on packed Python ints

_FIELD = (1 << 64) - 1


def pack(values):
    """The packed row of the non-negative ints ``values``, each below
    2**64: one int with value j in bits 64j to 64j + 63."""
    words = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def unpack(row, ncols, p):
    """The ncols fields of a packed row, each reduced mod p."""
    words = array("Q", row.to_bytes(8 * ncols, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return [x % p for x in words]


def echelon_packed(rows, ncols, p):
    """An echelon basis mod p of the row space of the matrix whose rows are
    the packed ints ``rows`` of ncols fields: (its rows, packed, in
    increasing pivot order, pivot column list).  Each row is 1 at its pivot
    column and 0 left of it, but not cleared in the pivot columns of the
    rows after it (rref_packed clears them).  Every field is reduced.

    The rows are inserted one at a time: a row is reduced by the basis
    rows in increasing pivot order, each step one multiply and one add of
    big ints, r + (p - f) * b for the entry f of r in the pivot column of
    b, which leaves that entry a multiple of p; b is 0 left of its pivot,
    so later steps keep it.  A row that does not reduce to 0 is unpacked,
    scaled to a leading 1 and packed again as a new basis row.  Once every
    column has a pivot no further row is read.

    Fields are reduced only when read, and each step adds less than p**2
    to a field, since the row it adds has reduced fields: after s steps a
    field that started below b is below b + s * p**2, under 2**64 for
    every prime of PRIMES while b < 2**62 and s < 2**21, far more steps
    than the rows of any system here take.
    """
    pivots, shifts, basis = [], [], []
    for row in rows:
        for shift, lead in zip(shifts, basis):
            f = (row >> shift & _FIELD) % p
            if f:
                row += (p - f) * lead
        fields = unpack(row, ncols, p)
        x = next(filter(None, fields), 0)
        if not x:
            continue
        c = fields.index(x)
        inv = pow(x, -1, p)
        at = bisect(pivots, c)
        pivots.insert(at, c)
        shifts.insert(at, 64 * c)
        basis.insert(at, pack([x * inv % p for x in fields]))
        if len(pivots) == ncols:
            break
    return basis, pivots


def rref_packed(rows, ncols, p):
    """The RREF mod p of the matrix whose rows are the packed ints ``rows``
    of ncols fields: (its nonzero rows, packed, pivot column list).  The
    fields of a returned row are congruent mod p to the RREF's entries, and
    unpack reduces them.

    The echelon basis (echelon_packed) is cleared above its pivots: each
    basis row b, in increasing pivot order, clears its pivot column from
    the rows above it; b is then still as it was inserted, and the rows
    that b changes are zero in the pivot columns left of it, which later
    steps leave so.  At full rank the RREF is the identity.  Fields grow
    as in echelon_packed.
    """
    basis, pivots = echelon_packed(rows, ncols, p)
    if len(pivots) == ncols:
        return [1 << 64 * c for c in pivots], pivots
    for b in range(1, len(basis)):
        shift, lead = 64 * pivots[b], basis[b]
        for a in range(b):
            f = (basis[a] >> shift & _FIELD) % p
            if f:
                basis[a] += (p - f) * lead
    return basis, pivots


def invert_packed(rows, n, p):
    """The inverse mod p of the n x n matrix whose rows are the packed ints
    ``rows``, as lists of residues, or None if it is singular mod p.

    Gauss-Jordan inversion in place with row pivoting, so that rows stay n
    fields wide where the RREF of [V | I] has 2n (at n = 84 about 7 against
    11 ms).  At the pivot (r, r), with x its entry and t = 1/x, row r is
    scaled by t and its field r set to t + 1; every other row s with entry
    f in column r then takes s + (p - f) * row r, rref_packed's step,
    which leaves in field r f - f (t + 1) = -f t mod p, the entry of the
    row transform.  Row r then keeps t there.  A row swap at step r is
    undone at the end by swapping the columns of the result back, in
    reverse order.  Fields grow as in rref_packed.
    """
    rows = list(rows)
    swaps = []
    for r in range(n):
        shift = 64 * r
        for i in range(r, n):
            x = (rows[i] >> shift & _FIELD) % p
            if x:
                break
        else:
            return None
        if i != r:
            rows[i], rows[r] = rows[r], rows[i]
            swaps.append((r, i))
        inv = pow(x, -1, p)
        fields = [f * inv % p for f in unpack(rows[r], n, p)]
        fields[r] = inv + 1
        lead = pack(fields)
        for s in range(n):
            if s != r:
                f = (rows[s] >> shift & _FIELD) % p
                if f:
                    rows[s] += (p - f) * lead
        rows[r] = lead - (1 << shift)
    inverse = [unpack(row, n, p) for row in rows]
    for r, i in reversed(swaps):
        for row in inverse:
            row[r], row[i] = row[i], row[r]
    return inverse


# ---------------------------------------------------------------------------
# rational reconstruction


def _crt_pair(x1, n1, x2, n2):
    inv = pow(n1 % n2, -1, n2)
    t = ((x2 - x1) * inv) % n2
    return x1 + n1 * t, n1 * n2


def _reconstruct_rational(residue, modulus, num_bound, den_bound):
    """Wang's algorithm with bounds: the unique a/b with |a| <= num_bound,
    0 < b <= den_bound, gcd(a, b) = 1 and a = b*residue mod modulus, as the
    pair (a, b), or None.  Unique when 2*num_bound*den_bound < modulus."""
    v0, v1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while v1 > num_bound:
        q = v0 // v1
        v0, v1 = v1, v0 - q * v1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > den_bound or gcd(v1, s1) != 1:
        return None
    return (v1, s1) if s1 > 0 else (-v1, -s1)


def _lll(basis):
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    independent integer rows ``basis``, in Python ints only.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7): the Gram-Schmidt data are kept as the
    integers d[i] (Gram determinants, d[0] = 1) and lam[k][j] = d[j+1]
    mu[k][j], and every division is exact.
    """
    b = [list(v) for v in basis]
    n = len(b)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        top = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, known + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (top * t + mu * lam[i][k]) // d[k + 1]
        d[k] = top

    k, known = 1, 0
    while k < n:
        if k > known:
            known = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


def _common_denominator(row, modulus):
    """The common denominator L of an RREF row given by its residues
    ``row`` mod ``modulus`` (the entries off the pivot columns; the pivot
    entry is 1), or None when no L fits the bounds below.

    Let the row be phi/q, with phi primitive and q > 0 its pivot entry.
    Take the first k = _LATTICE_ENTRIES nonzero residues r_i, and let v be
    (q, phi_1, ..., phi_k) divided by its content g.  v lies in the lattice
    of the vectors (x, x*r_1, ..., x*r_k) mod modulus, and is short in it.
    A lattice vector (x, y) with |(x, y)| |v| < modulus is a multiple of
    v, because each x*v_i - v_0*y_i is a multiple of the modulus smaller
    than it.  LLL's first vector is at most 2**(k/2) times the shortest,
    so when 2**(k/2) |v|**2 < modulus its primitive part is +-v and L =
    q/g.  In practice LLL finds v as soon as v is the shortest vector, that
    is once the modulus has about (k+1)/k times the bits of |v| (Bright &
    Storjohann, "Vector rational number reconstruction", ISSAC 2011), where
    Wang's algorithm for each entry needs twice the bits.

    The factor g that the k entries share with q is then picked up one
    entry at a time: L*r_j = phi_j / (q/L) mod modulus, and Wang's
    algorithm gives the reduced fraction, whose denominator L takes on.
    Its bounds split the bits of modulus/2 beyond h, the largest entry of
    v, evenly: numerators up to sqrt(h*modulus/2), which leaves room for g
    and for entries larger than the k sampled ones, and denominators up to
    sqrt(modulus/(2h)).  Their product stays below modulus/2, so each
    fraction is unique.  Both bounds grow with the modulus, so beyond a
    bound set by the row alone every entry is found and L = q.

    Any L is only a candidate: a wrong candidate fails the exact M v = 0.
    """
    nonzero = [r for r in row if r]
    if not nonzero:
        return 1
    sample = nonzero[:_LATTICE_ENTRIES]
    k = len(sample)
    short = _lll([[1, *sample]] + [[modulus * (i == j) for j in range(k + 1)]
                                   for i in range(1, k + 1)])[0]
    content = gcd(*short)
    scale = abs(short[0]) // content
    if not scale:
        return None
    half = modulus // 2
    num_bound = isqrt(max(map(abs, short)) // content * half)
    den_bound = max(1, half // num_bound)
    for r in nonzero:
        frac = _reconstruct_rational(scale * r, modulus, num_bound, den_bound)
        if frac is None:
            return None
        scale *= frac[1]
    return scale


def _reconstruct_basis(bases, pivots):
    """CRT-combine per-prime bases, rationally reconstruct the entries off
    the pivot columns, and return the primitive integer kernel vectors.

    ``bases`` is a nonempty list of (prime, rows) with equal shapes: the
    rows of the RREF of one kernel subspace mod each prime, as lists of
    Python ints, with pivot columns ``pivots``.  The RREF fixes the pivot entries (1 on a row's own
    pivot, 0 on the others) for every prime, so only the other columns are
    reconstructed.  A row with the common denominator L (_common_denominator)
    has the entries s/L, with s the symmetric residue of L*r (the modulus is
    odd, so it lies in [-modulus//2, modulus//2]).  Its primitive vector is
    L/g on its pivot column, 0 on the other pivot columns and s/g elsewhere,
    with g = gcd(L, every s): the content is 1, and the leading entry, the
    pivot one, is positive.  Returns a list of tuples, or None if a row has
    no common denominator.
    """
    p0, b0 = bases[0]
    ncols = len(b0[0])
    off = _off_pivot(ncols, pivots)
    residues = [[row[c] for c in off] for row in b0]
    modulus = p0
    for p, b in bases[1:]:
        for row, new in zip(residues, b):
            for j, c in enumerate(off):
                row[j], _ = _crt_pair(row[j], modulus, new[c], p)
        modulus *= p
    half = modulus // 2
    vectors = []
    for pivot, row in zip(pivots, residues):
        scale = _common_denominator(row, modulus)
        if scale is None:
            return None
        entries = [(scale * r + half) % modulus - half for r in row]
        g = gcd(scale, *entries)
        vec = [0] * ncols
        vec[pivot] = scale // g
        for c, s in zip(off, entries):
            vec[c] = s // g
        vectors.append(tuple(vec))
    return vectors


def _off_pivot(ncols, pivots):
    """The columns of range(ncols) that are not in ``pivots``, in order."""
    return sorted(set(range(ncols)).difference(pivots))


def sparse_kernel(mat, solve, primes=PRIMES):
    """Exact canonical kernel basis of an integer system (see the module
    docstring for what it reads of ``mat``).

    Returns primitive integer vectors (content 1, positive leading entry),
    the rows of the reduced row echelon form of the kernel subspace; [] iff
    the kernel is {0}.  Deterministic: the prime ladder is fixed and every
    returned basis is exactly verified.

    ``solve(mat, p)`` gives each prime's subspace as _kernel_mod_p gives a
    kernel: the (rows, pivot tuple) of its RREF, the rows lists of Python
    ints, or None for {0}.
    Any subspace that contains ker(M mod p) will do, because everything
    below only needs the exact kernel's reduction mod p inside it.  A solve
    raises UnluckyPrime for a prime it cannot serve.

    A prime's kernel RREF has structure (dim, pivots), never below the
    exact one: mod p the kernel only grows and column-prefix ranks only
    drop, and a subspace that contains it has a larger dim or is the
    kernel itself.  The primes of the least structure so far are
    CRT-combined.  If it is the exact one, they all reduce the same
    rational RREF, so they give the exact basis once their product passes
    a bound set by that RREF's rows alone (_common_denominator); a prime of
    the same structure only raises the product.  If not, nothing verifies:
    dim independent kernel vectors in RREF form with pivots P would make P
    the exact pivots.  So no subset of the primes is worth a second
    attempt.
    """
    best = None
    collected = []
    for p in primes:
        try:
            result = solve(mat, p)
        except UnluckyPrime:
            continue
        if result is None:
            return []
        rows, pivots = result
        structure = (len(rows), pivots)
        if best is None or structure < best:
            best = structure
            collected = [(p, rows)]
        elif structure == best:
            collected.append((p, rows))
        else:
            continue
        candidate = _reconstruct_basis(collected, best[1])
        if candidate is not None and _verify_candidate(mat, candidate):
            return candidate
    raise ModularKernelError(
        f"kernel not reconstructible with {len(primes)} primes "
        f"({mat.nrows}x{mat.ncols})"
    )


def _verify_candidate(mat, vectors):
    """Whether M v = 0 exactly for every reconstructed kernel vector v: the
    certificate of sparse_kernel's answer, the system's own annihilates."""
    return mat.annihilates(vectors)
