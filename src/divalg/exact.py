"""Exact rational scalars, vectors, and dense linear algebra.

Scalars are ``fractions.Fraction`` throughout: always reduced, positive
denominator, arbitrary precision.  Matrices are immutable dense grids of
Fractions with exact determinants (fraction-free Bareiss elimination),
exact reduced row echelon form, and exact kernels.  This module is the
substrate for everything else; it never touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


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
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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


def primitive_vector(u) -> tuple:
    """Scale a nonzero rational vector to integer entries, content 1,
    first nonzero entry positive.  This is the canonical representative
    of the line spanned by u."""
    u = [as_fraction(x) for x in u]
    if all(x == 0 for x in u):
        raise ValueError("primitive_vector of the zero vector")
    den = lcm(*(x.denominator for x in u))
    ints = [x.numerator * (den // x.denominator) for x in u]
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
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError("matrix product shape mismatch")
            cols = other.transpose().entries
            return Matrix([[dot(row, col) for col in cols] for row in self.entries])
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionError("matvec length mismatch")
        v = vector(v)
        return tuple(dot(row, v) for row in self.entries)

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
        """Sylvester criterion: symmetric with all leading principal minors > 0."""
        if not self.is_symmetric():
            return False
        for k in range(1, self.rows + 1):
            minor = Matrix([row[:k] for row in self.entries[:k]])
            if minor.det() <= 0:
                return False
        return True

    # -- elimination

    def det(self) -> Fraction:
        """Exact determinant by fraction-free Bareiss elimination.

        Rows are cleared to integers first, so every intermediate value is an
        integer minor of the scaled matrix.
        """
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        scale = Fraction(1)
        m = []
        for row in self.entries:
            den = lcm(*(x.denominator for x in row))
            scale *= den
            m.append([x.numerator * (den // x.denominator) for x in row])
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            pivot = m[k][k]
            for i in range(k + 1, n):
                mik = m[i][k]
                row_i = m[i]
                row_k = m[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
                row_i[k] = 0
            prev = pivot
        return Fraction(sign * m[n - 1][n - 1], 1) / scale

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
