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
(degree-(d+3) rows, constraint_shape).  The exact kernel of the divided
system is computed with a modular pivot pass, kernel elements are filtered
by exact pointwise comparison against eta_P at seeded sample points (this
removes solutions that vanish somewhere or pick a wrong line), and the
first degree with a validated element wins.  Scanning in order makes the
returned degree minimal by construction.

verify_lifting reuses the scan's certificates: the orthogonality identity
is the exact product M phi = 0 against the same constraint system, and the
sample points and their eta_P lines are computed once per process and shared
with the scan.

Nonvanishing of Phi on R^n - {0} is established by sampling plus the
uniqueness of the lifting; it is reported as a confidence statement, not
certified symbolically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .dissident import DissidentMap, ZeroVector, DegenerateSpan, eta_P_point, sample_vector, seeded_rng
from .exact import Matrix, primitive_vector
from .modkernel import SparseIntMatrix, sparse_kernel
from .poly import (
    HomogeneousPoly,
    PolyError,
    monomial_count,
    monomials,
    poly_content_gcd,
    primitive_poly_vector,
)

DEFAULT_SAMPLES = 64
DEFAULT_MAX_DEGREE = 5


class LiftingError(RuntimeError):
    pass


class NoLiftingFound(LiftingError):
    """No validated kernel element at any degree <= max_degree: the input is
    not dissident, or the solver is broken."""


class AmbiguousKernel(LiftingError):
    """More than one validated projective solution at the minimal degree,
    contradicting uniqueness of the lifting."""


class OddnessViolation(LiftingError):
    """A computed degree on R^7 came out even, which is impossible for a
    dissident map; treated as a solver bug signal."""


class SharedFactor(ValueError):
    """Lifting components with a nonconstant common factor."""


class Lifting:
    """A validated lifting: n components, homogeneous of common degree >= 1,
    not all zero, relatively prime (all enforced on construction)."""

    __slots__ = ("n", "degree", "components")

    def __init__(self, n, degree, components):
        components = tuple(components)
        if len(components) != n:
            raise ValueError("component count differs from n")
        if degree < 1:
            raise ValueError("lifting degree must be >= 1")
        for p in components:
            if p.nvars != n or p.degree != degree:
                raise ValueError("components must share nvars and degree")
        nonzero = [p for p in components if not p.is_zero()]
        if not nonzero:
            raise ValueError("lifting components are all zero")
        gcd = poly_content_gcd(nonzero)
        if gcd.degree != 0:
            raise SharedFactor(f"components share the factor {gcd!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("Lifting is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Lifting)
            and (self.n, self.degree, self.components)
            == (other.n, other.degree, other.components)
        )

    def __call__(self, point):
        return tuple(p.eval(point) for p in self.components)

    @staticmethod
    def identity(n) -> "Lifting":
        return Lifting(n, 1, [HomogeneousPoly.variable(n, i) for i in range(n)])


def constraint_shape(n, d):
    """(rows, cols) of the paper's degree-d constraint system on R^n, with
    degree-(d+3) rows; this is the shape the scan reports.  The system
    actually solved is the divided one, n * monomial_count(n, d + 1) rows by
    the same columns, with the same kernel."""
    return n * monomial_count(n, d + 3), n * monomial_count(n, d)


def _integer_tensor(eta: DissidentMap):
    """Clear denominators of the whole tensor; scaling every entry by one
    rational scales each constraint row uniformly, so the kernel is
    unchanged."""
    dens = [
        x.denominator for plane in eta.tensor for row in plane for x in row
    ]
    scale = lcm(*dens) if dens else 1
    n = eta.n
    return [
        [[int(x * scale) for x in eta.tensor[i][j]] for j in range(n)]
        for i in range(n)
    ]


def _assemble_coo(eta: DissidentMap, d, tensor):
    """COO cells of the divided constraint matrix for the given structure
    tensor.

    Column (k, m): coefficient monomial m of component k.  Its contribution
    to the slot j is m(v) * <e_k, eta(v ^ e_j)> = sum_i tensor[i][j][k] *
    (m * x_i), so each cell gets exactly one term.  Rows are indexed j-major
    by the degree-(d+1) monomials.
    """
    n = eta.n
    cols_monos = monomials(n, d)
    rows_monos = monomials(n, d + 1)
    row_index = {m: i for i, m in enumerate(rows_monos)}
    coo = []
    for k in range(n):
        for m_idx, m in enumerate(cols_monos):
            col = k * len(cols_monos) + m_idx
            for i in range(n):
                exps = list(m)
                exps[i] += 1
                row = row_index[tuple(exps)]
                for j in range(n):
                    if tensor[i][j][k]:
                        coo.append((j * len(rows_monos) + row, col, tensor[i][j][k]))
    return coo, len(rows_monos) * n, len(cols_monos) * n


def build_constraint_system(eta: DissidentMap, d) -> Matrix:
    """The exact dense divided constraint matrix at candidate degree d (1..5).

    Rows: monomials of < Phi(v), eta(v ^ e_j) > (degree d+1 in v, slot j
    major); the paper's identity is this one times |v|^2 and has the same
    kernel.  Columns: the unknown coefficients of Phi, component-major in
    the fixed monomial order.  Intended for the small cases; the solver
    itself works on the sparse integer form.
    """
    if not 1 <= d <= 5:
        raise ValueError("candidate degree out of range 1..5")
    coo, nrows, ncols = _assemble_coo(eta, d, eta.tensor)
    grid = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, c, v in coo:
        grid[r][c] += v
    return Matrix(grid)


def _sparse_system(eta: DissidentMap, d) -> SparseIntMatrix:
    coo, nrows, ncols = _assemble_coo(eta, d, _integer_tensor(eta))
    return SparseIntMatrix(nrows, ncols, coo)


def _components_from_vector(n, d, vec):
    cols_monos = monomials(n, d)
    per = len(cols_monos)
    comps = []
    for k in range(n):
        terms = {}
        for m_idx, m in enumerate(cols_monos):
            c = vec[k * per + m_idx]
            if c:
                terms[m] = Fraction(c)
        comps.append(HomogeneousPoly(n, d, terms))
    return tuple(comps)


@lru_cache(maxsize=8)
def _sample_lines(eta: DissidentMap, samples, seed):
    """The seeded validation points with their eta_P lines (None where eta_P
    is undefined), as ((point, line), ...).

    Memoised so that the scan and verify_lifting, which draw the same points
    from the same seed, compute each line once per process.
    """
    rng = seeded_rng(seed, "lifting-points")
    out = []
    for _ in range(samples):
        point = sample_vector(rng, eta.n)
        try:
            line = eta_P_point(eta, point)
        except (DegenerateSpan, ZeroVector):
            line = None
        out.append((point, line))
    return tuple(out)


def _validate(components, lines):
    """Pointwise condition (b) at every sample: Phi(v) nonzero and on the
    eta_P line."""
    for point, target in lines:
        value = tuple(p.eval(point) for p in components)
        if all(x == 0 for x in value):
            return False
        if target is None or primitive_vector(value) != target:
            return False
    return True


def solve_lifting_scan(eta: DissidentMap, samples=DEFAULT_SAMPLES, seed=0,
                       max_degree=DEFAULT_MAX_DEGREE):
    """Scan d = 1..max_degree; return (Lifting, scan report list).

    The scan report carries one entry per visited degree with the shape of
    the paper's system (constraint_shape; the divided system solved here has
    the same kernel), exact kernel dimension, and how many kernel elements
    survived pointwise validation.  Deterministic given (eta, seed).
    """
    if max_degree < 1 or max_degree > 5:
        raise ValueError("max_degree out of range 1..5")
    if samples < 1:
        raise ValueError("at least one validation sample is required")
    scan = []
    for d in range(1, max_degree + 1):
        kernel = sparse_kernel(_sparse_system(eta, d))
        rows, cols = constraint_shape(eta.n, d)
        entry = {
            "degree": d,
            "rows": rows,
            "cols": cols,
            "kernel_dim": len(kernel),
            "validated": 0,
        }
        scan.append(entry)
        if not kernel:
            continue
        distinct = []
        for vec in kernel:
            comps = _components_from_vector(eta.n, d, vec)
            if _validate(comps, _sample_lines(eta, samples, seed)):
                comps = primitive_poly_vector(comps)
                if comps not in distinct:
                    distinct.append(comps)
        entry["validated"] = len(distinct)
        if not distinct:
            continue
        if len(distinct) > 1:
            raise AmbiguousKernel(
                f"{len(distinct)} validated projective solutions at degree {d}"
            )
        try:
            return Lifting(eta.n, d, distinct[0]), scan
        except SharedFactor as exc:
            # a common factor means a lower-degree solution the scan missed
            raise AmbiguousKernel(
                "validated solution reduced below the scanned degree"
            ) from exc
    raise NoLiftingFound(
        f"no validated lifting up to degree {max_degree} "
        f"({samples} validation samples)"
    )


def solve_lifting(eta: DissidentMap, samples=DEFAULT_SAMPLES, seed=0,
                  max_degree=DEFAULT_MAX_DEGREE) -> Lifting:
    return solve_lifting_scan(eta, samples, seed, max_degree)[0]


def verify_lifting(eta: DissidentMap, phi, samples=DEFAULT_SAMPLES, seed=0):
    """Check conditions (a), (b), (c) for a candidate lifting; returns a
    report dict (never raises on a failing condition).

    (a) is structural: n components in the n variables of eta's space,
    sharing one degree >= 1, not all zero.  The identity part of (b) is
    certified by the exact product M phi = 0, where M is the degree-d
    divided constraint system and phi the coefficient vector with
    denominators cleared: the same certificate the kernel solver gives each
    kernel vector.  The pointwise part of (b) is checked by exact sampling,
    at the points and eta_P lines the scan validated against for the same
    (samples, seed).  (c) is an exact content GCD, which a Lifting has
    passed on construction.
    """
    components = tuple(phi.components) if isinstance(phi, Lifting) else tuple(phi)
    n = eta.n
    degrees = {p.degree for p in components}
    nonzero = [p for p in components if not p.is_zero()]
    maps_on_space = all(p.nvars == n for p in components)
    a_pass = (
        len(components) == n
        and maps_on_space
        and len(degrees) == 1
        and bool(nonzero)
        and next(iter(degrees)) >= 1
    )

    b_identity = False
    if a_pass:
        d = components[0].degree
        coeffs = [p.terms.get(m, 0) for p in components for m in monomials(n, d)]
        image = _sparse_system(eta, d).matvec_exact(list(primitive_vector(coeffs)))
        b_identity = not any(image)

    nonvanishing_failures = line_failures = 0
    if not maps_on_space:
        line_failures = samples  # no point of R^n can be evaluated
    else:
        for point, target in _sample_lines(eta, samples, seed):
            value = tuple(p.eval(point) for p in components)
            if all(x == 0 for x in value):
                nonvanishing_failures += 1
            elif target is None or primitive_vector(value) != target:
                line_failures += 1

    if isinstance(phi, Lifting):
        c_pass, gcd_repr = True, "1"
    elif nonzero:
        try:
            gcd = poly_content_gcd(nonzero)
        except PolyError as exc:  # components in differing variables
            c_pass, gcd_repr = False, str(exc)
        else:
            c_pass, gcd_repr = gcd.degree == 0, repr(gcd)
    else:
        c_pass = False
        gcd_repr = "0"

    report = {
        "degree": max(degrees) if degrees else None,
        "a_homogeneous_common_degree": a_pass,
        "b_orthogonality_identity": b_identity,
        "b_sampled_nonvanishing": {
            "checked": samples,
            "failures": nonvanishing_failures,
        },
        "b_sampled_line_agreement": {
            "checked": samples,
            "failures": line_failures,
        },
        "c_relatively_prime": c_pass,
        "content_gcd": gcd_repr,
        "nonvanishing_certified": False,
    }
    report["all_pass"] = (
        a_pass
        and b_identity
        and nonvanishing_failures == 0
        and line_failures == 0
        and c_pass
    )
    return report


def degree(eta: DissidentMap, samples=DEFAULT_SAMPLES, seed=0,
           max_degree=DEFAULT_MAX_DEGREE) -> int:
    """The degree of a dissident map via the minimal validated lifting.

    On R^7 the result is asserted to lie in {1, 3, 5}; dissident maps on R^7
    never have even degree, so an even value is raised as OddnessViolation
    (solver bug signal).
    """
    lifting = solve_lifting(eta, samples=samples, seed=seed, max_degree=max_degree)
    if eta.n == 7 and lifting.degree % 2 == 0:
        raise OddnessViolation(f"computed an even degree {lifting.degree} on R^7")
    return lifting.degree
