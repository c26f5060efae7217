"""Exact rational scalars, vectors, and dense linear algebra.

Scalars are ``fractions.Fraction`` at every boundary: always reduced,
positive denominator, arbitrary precision.  Matrices are immutable dense
grids of Fractions with exact products, determinants (fraction-free Bareiss
elimination), reduced row echelon forms and kernels.

Matrix, matrix-vector and dot products run on integer multiples.  A row,
column or vector is cleared to integers once, by the lcm of its
denominators (``cleared``); its dot products are then sums of Python ints,
and each result entry becomes one Fraction of an integer over the product
of the two lcms (``cleared_dot``).  Determinants and the
positive-definiteness test eliminate on the cleared rows, each packed
into one int (pack), so that a step of the elimination is a few integer
operations per row, not per entry; packed_det, the elimination behind
Matrix.det, also decides the division check's integer operators.  This
module is the substrate for everything else; it never touches floating
point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul


class DimensionError(ValueError):
    """Shapes do not match the operation."""


# ---------------------------------------------------------------------------
# scalars


def as_fraction(x) -> Fraction:
    """Coerce an int / Fraction / 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return scalar_from_str(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_to_str(x: Fraction) -> str:
    """Serialize as 'p/q', or just 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    """Parse 'p/q' or 'p' (integers, optional sign) exactly."""
    text = s.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def is_rational_square(x: Fraction):
    """Return sqrt(x) as a Fraction if x is the square of a rational, else None."""
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fractions)


def vector(entries) -> tuple:
    return tuple(as_fraction(x) for x in entries)


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise DimensionError("dot product of unequal lengths")
    return cleared_dot(cleared(u), cleared(v))


def basis_vector(n, i) -> tuple:
    """The standard basis vector e_i of Q^n."""
    return tuple(Fraction(int(i == t)) for t in range(n))


def bilinear(tensor, x, y) -> tuple:
    """The bilinear map with structure tensor t: sum_{i,j} x_i y_j t[i][j],
    where t[i][j] is the image of the basis pair (e_i, e_j)."""
    n = len(tensor)
    if len(x) != n or len(y) != n:
        raise DimensionError("bilinear argument length mismatch")
    out = [Fraction(0)] * n
    for xi, plane in zip(x, tensor):
        if xi == 0:
            continue
        for yj, cell in zip(y, plane):
            if yj == 0:
                continue
            c = xi * yj
            for k, t in enumerate(cell):
                if t:
                    out[k] += c * t
    return tuple(out)


def is_zero_vector(u) -> bool:
    return all(a == 0 for a in u)


def cleared(u):
    """(ints, den) with u = ints / den: den is the lcm of the denominators
    of the rational vector u, and ints its integer multiple."""
    den = lcm(*(x.denominator for x in u))
    return [x.numerator * (den // x.denominator) for x in u], den


def cleared_dot(u, v) -> Fraction:
    """The dot product of two cleared vectors (ints, den): one integer dot
    product over the product of the denominators."""
    (a, da), (b, db) = u, v
    return Fraction(sum(map(mul, a, b)), da * db)


def integer_multiple(u) -> list:
    """The least positive multiple of a rational vector with integer
    entries: u times the lcm of its denominators."""
    return cleared(u)[0]


def cleared_tensor(tensor):
    """(cube, t): t is the lcm of all the denominators of a cube of
    rationals, and cube, nested lists of ints, its multiple by t.  One
    positive factor scales every product the table defines, so no rank or
    kernel formed from cube changes."""
    flat, t = cleared([x for plane in tensor for row in plane for x in row])
    flat = iter(flat)
    return [[[next(flat) for _ in row] for row in plane] for plane in tensor], t


def primitive_vector(u) -> tuple:
    """Scale a nonzero rational vector to integer entries, content 1,
    first nonzero entry positive.  This is the canonical representative
    of the line spanned by u."""
    u = [as_fraction(x) for x in u]
    if all(x == 0 for x in u):
        raise ValueError("primitive_vector of the zero vector")
    ints = integer_multiple(u)
    content = 0
    for a in ints:
        content = gcd(content, a)
    ints = [a // content for a in ints]
    first = next(a for a in ints if a != 0)
    if first < 0:
        ints = [-a for a in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# matrices


def pack(row, widths) -> int:
    """A row of integers as one int: entry j in field j, widths[j] bits wide
    from bit sum(widths[:j]).  Each entry must be below 2**(widths[j] - 1) in
    absolute value (minor_widths); a negative one borrows from the fields
    above it, and the entry in field 0 is still the residue of the int mod
    2**widths[0] closest to 0.  Packing is linear: a sum of multiples of
    packed rows is the packed sum, as long as its entries fit."""
    total = shift = 0
    for x, width in zip(row, widths):
        total += x << shift
        shift += width
    return total


def minor_widths(norms) -> list:
    """Field widths for packing, for Bareiss elimination, a square integer
    matrix whose rows have sums of absolute values at most norms.  After k
    steps every entry left is a minor of order k + 1, and column j is gone
    after step j, so field j only holds minors of order at most j + 1; it
    holds them all.  By Hadamard's inequality a minor is at most the
    product of the Euclidean lengths of its rows, each at most the row's
    sum of absolute values, so a minor of order m is at most the product of
    the m largest norms."""
    widths = []
    bound = 1
    for s in sorted((max(1, s) for s in norms), reverse=True):
        bound *= s
        widths.append(bound.bit_length() + 1)
    return widths


def contraction_width(cube, x_bound, y_norm) -> int:
    """The field width for Contraction(cube, width) and arguments x, y with
    every |x_a| <= x_bound and sum |y_b| <= y_norm: every field of the
    product, and every y_b, is then below 2**(width - 1) in absolute value.

    A term x_a y_b' T[a][b][f] of the product lands in field
    n f + b + n - 1 - b', so for a field and a b' there is one (b, f) at
    most, and the field is at most sum_b' |y_b'| sum_a |x_a T[a][b][f]|,
    which is at most x_bound * y_norm * tau, with tau the largest
    sum_a |T[a][b][f]|."""
    n = len(cube)
    tau = max(sum(abs(plane[b][f]) for plane in cube) for b in range(n) for f in range(n))
    return (max(1, x_bound) * max(1, y_norm) * max(1, tau)).bit_length() + 1


class Contraction:
    """The bilinear map (x, y) -> (sum_{a,b} x_a y_b T[a][b][f])_f of an
    n x n x n cube T of ints, as one big-int product (Kronecker
    substitution: von zur Gathen and Gerhard, Modern Computer Algebra, 8.4).

    With B = 2**width, each plane is packed once, P_a = sum_{b,f}
    T[a][b][f] B**(n f + b), and y in reverse order, Y = sum_b y_b
    B**(n - 1 - b) (pack).  Field n f + n - 1 of (sum_a x_a P_a) Y is then
    sum_{a,b} x_a y_b T[a][b][f]: a term x_a y_b' T[a][b][f] lands in the
    field n f + n - 1 + b - b', which has that form only if n divides
    b - b', that is b = b'.  With width from contraction_width every field
    is below B/2 in absolute value, so adding B/2 to each field of the
    product (bias) reads every field without a borrow, and a packed Y is
    0 exactly when every y_b is.
    """

    __slots__ = ("width", "widths", "planes", "bias", "reads", "fields")

    def __init__(self, cube, width):
        n = len(cube)
        self.width, self.widths = width, [width] * n
        self.planes = [pack([plane[b][f] for f in range(n) for b in range(n)], [width] * n * n)
                       for plane in cube]
        self.bias = pack([1] * n * n, [width] * n * n) << width - 1
        self.reads = [width * (n * f + n - 1) for f in range(n)]
        self.fields = sum(((1 << width) - 1) << shift for shift in self.reads)

    def pack(self, y) -> int:
        """Y: the entries of y in reverse order, one field each."""
        return pack(y[::-1], self.widths)

    def product(self, x, packed_y) -> int:
        """(sum_a x_a P_a) * packed_y, with the bias added."""
        return sum(map(mul, x, self.planes)) * packed_y + self.bias

    def __call__(self, x, y) -> list:
        """The n entries sum_{a,b} x_a y_b T[a][b][f]."""
        total, half = self.product(x, self.pack(y)), 1 << self.width - 1
        mask = (half << 1) - 1
        return [(total >> shift & mask) - half for shift in self.reads]

    def vanishes(self, x, packed_y) -> bool:
        """Whether every entry of the contraction of x and the packed y is 0:
        the fields read hold exactly the bias."""
        return self.product(x, packed_y) & self.fields == self.bias & self.fields


def _low_field(row, width) -> int:
    """The entry in field 0, width bits wide, of a packed row."""
    half = 1 << width - 1
    return (row + half & (half << 1) - 1) - half


def _eliminate_below(rows, k, prev, width):
    """One fraction-free (Bareiss) step on packed integer rows whose field
    0, width bits wide, is column k: clear that column below the pivot
    rows[k] and drop it, so each row below moves one field down.  prev is
    the previous step's pivot (1 at the first step), which divides every new
    entry exactly.  Returns the pivot."""
    half = 1 << width - 1
    mask = (half << 1) - 1
    top = rows[k]
    pivot = (top + half & mask) - half
    # field 0 of pivot * r - m * top is pivot * m - m * pivot = 0
    rows[k + 1:] = [((pivot * r - ((r + half & mask) - half) * top) >> width) // prev
                    for r in rows[k + 1:]]
    return pivot


def packed_det(rows, widths) -> int:
    """The determinant of a square integer matrix given as its packed rows
    (pack, with widths from minor_widths), which it eliminates in place by
    fraction-free Bareiss elimination: every intermediate value is an
    integer minor, so no Fraction is formed.  A zero pivot is swapped with
    the first row below that has a nonzero entry in its column.  After n - 1
    steps the last row holds one field, the determinant."""
    n = len(rows)
    sign = prev = 1
    for k in range(n - 1):
        mask = (1 << widths[k]) - 1
        if not rows[k] & mask:
            i = next((i for i in range(k + 1, n) if rows[i] & mask), None)
            if i is None:
                return 0
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        prev = _eliminate_below(rows, k, prev, widths[k])
    return sign * rows[n - 1]


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        if not grid:
            raise DimensionError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0 or any(len(row) != width for row in grid):
            raise DimensionError("ragged or empty matrix rows")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(columns) -> "Matrix":
        return Matrix(list(zip(*columns)))

    @staticmethod
    def diagonal(diag) -> "Matrix":
        diag = [as_fraction(d) for d in diag]
        n = len(diag)
        return Matrix([[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    # -- basics

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(scalar_to_str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries)))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.entries])

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix([[c * a for a in row] for row in self.entries])

    def __mul__(self, other):
        """The product with a matrix, each entry one integer dot product of
        a cleared row and a cleared column; or the product with a scalar."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError("matrix product shape mismatch")
            cols = [cleared(col) for col in zip(*other.entries)]
            return Matrix([[cleared_dot(row, col) for col in cols]
                           for row in map(cleared, self.entries)])
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionError("matvec length mismatch")
        x = cleared(vector(v))
        return tuple(cleared_dot(row, x) for row in map(cleared, self.entries))

    # -- predicates (all decided exactly)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square() and self == -self.transpose()

    def is_orthogonal(self) -> bool:
        return self.is_square() and self.transpose() * self == Matrix.identity(self.rows)

    def is_positive_definite(self) -> bool:
        """Sylvester criterion: symmetric with all leading principal minors > 0.

        One fraction-free elimination without row swaps, on the rows cleared
        to integers, finds them all: its k-th pivot is the k-th leading
        principal minor of the cleared matrix, whose sign is that of the
        minor here, as each row was scaled by a positive integer.  It stops
        at the first pivot <= 0; the pivots before it are nonzero, so no
        swap is ever needed.
        """
        if not self.is_symmetric():
            return False
        m = [integer_multiple(row) for row in self.entries]
        widths = minor_widths(sum(map(abs, row)) for row in m)
        rows = [pack(row, widths) for row in m]
        prev = 1
        for k, width in enumerate(widths):
            if _low_field(rows[k], width) <= 0:
                return False
            prev = _eliminate_below(rows, k, prev, width)
        return True

    # -- elimination

    def det(self) -> Fraction:
        """Exact determinant: packed_det of the rows cleared to integers,
        over the product of their denominators."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        rows = [cleared(row) for row in self.entries]
        widths = minor_widths(sum(map(abs, ints)) for ints, _ in rows)
        det = packed_det([pack(ints, widths) for ints, _ in rows], widths)
        return Fraction(det, prod(den for _, den in rows))

    def rref(self):
        """Reduced row echelon form.  Returns (Matrix, pivot column tuple)."""
        m = [list(row) for row in self.entries]
        rows, cols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self):
        """Exact basis of the right null space.

        Returns the canonical basis: rows of the reduced row echelon form of
        the kernel subspace, each scaled to integer entries with content 1 and
        positive leading entry.  Empty list iff the matrix has full column
        rank.
        """
        reduced, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        if not free:
            return []
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -reduced.entries[r][f]
            basis.append(v)
        # canonicalize: RREF of the spanning rows is unique for the subspace
        canon, _ = Matrix(basis).rref()
        return [primitive_vector(row) for row in canon.entries[: len(free)]]

    def solve_right(self, rhs):
        """One exact solution x of self @ x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise DimensionError("solve_right length mismatch")
        aug = Matrix([list(row) + [b] for row, b in zip(self.entries, vector(rhs))])
        reduced, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, c in enumerate(pivots):
            x[c] = reduced.entries[r][self.cols]
        return tuple(x)
