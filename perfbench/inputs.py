"""Seeded inputs for the benchmark workloads.

Everything here is plain Python over ``fractions.Fraction`` and does not
import divalg: the program under test only ever sees the JSON documents and
argv built from these values.
"""

from __future__ import annotations

import random
from fractions import Fraction

N = 7

# Oriented triples (a, b, c) with e_a e_b = e_c in the octonion basis
# (1, i, j, k, l, il, jl, kl) that divalg documents; the vector product on
# R^7 is the imaginary part of that table.
_OCTONION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7),
                     (2, 5, 7), (5, 3, 6), (6, 1, 7))


def scalar(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def map_document(tensor) -> dict:
    """The kinded ``dissident_map`` JSON document of a 7x7x7 tensor."""
    return {
        "kind": "dissident_map",
        "n": N,
        "tensor": [[[scalar(x) for x in cell] for cell in plane] for plane in tensor],
    }


def cross7_tensor():
    t = [[[Fraction(0)] * N for _ in range(N)] for _ in range(N)]
    for a, b, c in _OCTONION_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            t[x - 1][y - 1][z - 1] = Fraction(1)
            t[y - 1][x - 1][z - 1] = Fraction(-1)
    return t


def bent3_tensor():
    """The README's degree-3 map: the vector product with
    eta(e1 ^ e2) = e3 + e5."""
    t = cross7_tensor()
    t[0][1][4] += 1
    t[1][0][4] -= 1
    return t


def random_tensor(seed):
    """Antisymmetric tensor with entries in [-2, 2], drawn exactly as the
    ``rand5`` fixture of the test suite draws it (seed 7 gives rand5)."""
    rng = random.Random(f"divalg:{seed}:tensor")
    t = [[[Fraction(rng.randint(-2, 2)) for _ in range(N)] for _ in range(N)]
         for _ in range(N)]
    for i in range(N):
        for j in range(i + 1):
            for k in range(N):
                t[i][j][k] = Fraction(0) if i == j else -t[j][i][k]
    return t


def _solve(a, b):
    """X with a X = b for square invertible a (Gauss-Jordan over Q)."""
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def cayley_orthogonal(seed):
    """A rational orthogonal S = (I + A)^-1 (I - A), the Cayley transform of
    a sparse antisymmetric A with four entries in {-2, -1, 1, 2} above the
    diagonal."""
    rng = random.Random(f"perfbench:cayley:{seed}")
    a = [[Fraction(0)] * N for _ in range(N)]
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    for i, j in rng.sample(pairs, 4):
        x = Fraction(rng.choice((-2, -1, 1, 2)))
        a[i][j], a[j][i] = x, -x
    eye = [[Fraction(int(i == j)) for j in range(N)] for i in range(N)]
    plus = [[eye[i][j] + a[i][j] for j in range(N)] for i in range(N)]
    minus = [[eye[i][j] - a[i][j] for j in range(N)] for i in range(N)]
    return _solve(plus, minus)


def conjugate(tensor, s):
    """eta'(v ^ w) = S eta(S^t v ^ S^t w) as a tensor:
    t'[i][j][k] = sum_{a,b,c} S[i][a] S[j][b] S[k][c] t[a][b][c]."""
    def contract(t, axis):
        out = [[[Fraction(0)] * N for _ in range(N)] for _ in range(N)]
        for x in range(N):
            for y in range(N):
                for z in range(N):
                    acc = Fraction(0)
                    for m in range(N):
                        sm = s[(x, y, z)[axis]][m]
                        if sm:
                            idx = [x, y, z]
                            idx[axis] = m
                            acc += sm * t[idx[0]][idx[1]][idx[2]]
                    out[x][y][z] = acc
        return out

    for axis in range(3):
        tensor = contract(tensor, axis)
    return tensor

