import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divalg import modkernel
from divalg.dissident import (
    DegenerateSpan,
    DissidentMap,
    cross_product_map,
    eta_P_point,
    eval_eta,
    quadruple_to_triple,
    random_quadruple,
    sample_vector,
    seeded_rng,
)
from divalg.lifting import (
    DEFAULT_SAMPLES,
    AmbiguousKernel,
    ConstraintSystem,
    Lifting,
    LiftingError,
    NoLiftingFound,
    constraint_shape,
    solve_lifting,
    solve_lifting_scan,
    verify_lifting,
    _PointLines,
    _adjugate_column,
    _adjugate_kernel,
    _interpolation_points,
    _kernel_at_points,
    _pointwise_failures,
    _sample_lines,
    _sparse_system,
    _validate,
)
from divalg.exact import Matrix, cleared_tensor, primitive_vector
from divalg.modkernel import sparse_kernel
from divalg.octonion import rotation_from_quaternion
from divalg.poly import HomogeneousPoly, monomial_count, monomials
from divalg.serialize import canonical_json, lifting_to_json
from conftest import _perfbench_module
from test_dissident import ONE, TWO, scaled_map
from test_modkernel import IntMatrix, dense_kernel
from test_poly import evaluate


def bent_cross7():
    """The vector product with eta(e1 ^ e2) bent from e3 to e3 + e5.

    Stays dissident (an open condition) but leaves the matrix-quadruple
    family, so its degree must be an odd number > 1; the scan finds 3.
    """
    x7 = cross_product_map(7)
    tensor = [[list(cell) for cell in row] for row in x7.tensor]
    tensor[0][1][4] += 1
    tensor[1][0][4] -= 1
    return DissidentMap(7, tensor)


def zero_map(n):
    return DissidentMap(n, [[[0] * n for _ in range(n)] for _ in range(n)])


def reference_columns(eta, d):
    """The columns of the divided constraint matrix at degree d, from
    polynomial arithmetic on eta's rational tensor: the reference for the
    solver's integer system.  Column (k, m) holds, one slot j after
    another, the coefficients of m(v) * <e_k, eta(v ^ e_j)> =
    m * sum_i t[i][j][k] x_i over the degree-(d+1) monomials."""
    n, t = eta.n, eta.tensor
    rows_monos = monomials(n, d + 1)
    slots = [[sum((HomogeneousPoly.variable(n, i).scale(t[i][j][k]) for i in range(n)),
                  HomogeneousPoly.zero(n, 1)) for j in range(n)] for k in range(n)]
    columns = []
    for k in range(n):
        for m in monomials(n, d):
            monomial = HomogeneousPoly.monomial(n, m)
            column = []
            for slot in slots[k]:
                product = monomial * slot
                column += [product.terms.get(r, 0) for r in rows_monos]
            columns.append(column)
    return columns


def build_constraint_system(eta, d):
    """The reference divided constraint matrix as a dense exact Matrix."""
    return Matrix.from_columns(reference_columns(eta, d))


def reference_residues(eta, d, p):
    """The reference matrix of an integer map mod p, as the float64 array
    modkernel._kernel_mod_p eliminates."""
    columns = [[int(x) % p for x in column] for column in reference_columns(eta, d)]
    return np.ascontiguousarray(np.array(columns, dtype=np.float64).T)


def reference_solve(system, p):
    """sparse_kernel's solve from the reference: the kernel mod p of the
    whole dense matrix of a ConstraintSystem."""
    eta = SimpleNamespace(n=len(system.tensor), tensor=system.tensor)
    return modkernel._kernel_mod_p(reference_residues(eta, system.d, p), p)


def identity_coefficients(n, d=1):
    monos = monomials(n, d)
    vec = [0] * (n * len(monos))
    for k in range(n):
        exps = tuple(1 if t == k else 0 for t in range(n))
        vec[k * len(monos) + monos.index(exps)] = 1
    return vec


def test_constraint_shape_counts():
    assert constraint_shape(7, 5) == (21021, 3234)
    assert constraint_shape(7, 1) == (1470, 49)
    assert constraint_shape(3, 1) == (45, 9)


def test_identity_lifting_solves_cross7_degree1_system():
    m = build_constraint_system(cross_product_map(7), 1)
    assert (m.rows, m.cols) == (196, 49)
    image = m.matvec(identity_coefficients(7))
    assert all(x == 0 for x in image)


def test_zero_map_gives_zero_matrix():
    m = build_constraint_system(zero_map(3), 2)
    assert all(x == 0 for row in m.entries for x in row)


def integer_map(eta):
    """eta times the lcm of its denominators: the map whose cells the
    solver's system holds."""
    return DissidentMap(eta.n, cleared_tensor(eta.tensor)[0])


def test_dense_and_sparse_systems_agree(conjugate_bent_tensor):
    # the kernel of the dense reference against the scan's, and its exact
    # product against the certificate: on seeded vectors (almost never in
    # the kernel), on the kernel's vectors and their sum, and on each
    # kernel vector plus one unit vector
    rng = random.Random(23)
    for name, d in (("cross3", 1), ("cross3", 2), ("cross7", 1), ("conjugate", 1),
                    ("quadruple0", 1)):
        eta = named_map(name, conjugate_bent_tensor)
        dense = build_constraint_system(integer_map(eta), d)
        system = _sparse_system(eta, d)
        assert (system.nrows, system.ncols) == (dense.rows, dense.cols)
        assert system.nnz == sum(x != 0 for row in dense.entries for x in row)
        kernel = sparse_kernel(system, reference_solve)
        assert sparse_kernel(system, _kernel_at_points) == kernel, (name, d)
        vectors = [[rng.randint(-3, 3) for _ in range(dense.cols)] for _ in range(8)]
        if kernel:
            vectors += kernel + [[sum(x) for x in zip(*kernel)]]
        vectors += [[x + (c == rng.randrange(dense.cols)) for c, x in enumerate(v)]
                    for v in kernel]
        for v in vectors:
            exact = all(x == 0 for x in dense.matvec(v))
            assert system.annihilates([v]) == exact, (name, d)
        assert system.annihilates(kernel)


def test_certificate_checks_every_slot():
    # for an antisymmetric tensor each slot's rows follow from the others'
    # (sum_j v_j eta(v ^ e_j) = eta(v ^ v) = 0), so this takes the tensor
    # with t[0][j][j] = 1 and no other entry: slot j holds x_0 * Phi_j, and
    # every vector that the other slots annihilate, one with only Phi_j
    # nonzero, is rejected by slot j alone
    n, d = 3, 2
    tensor = [[[int(i == 0 and k == j) for k in range(n)] for j in range(n)] for i in range(n)]
    system = ConstraintSystem(tensor, d)
    dense = build_constraint_system(SimpleNamespace(n=n, tensor=tensor), d)
    R = dense.rows // n
    for j in range(n):
        others = Matrix([row for r, row in enumerate(dense.entries) if r // R != j])
        vectors = others.kernel()
        assert len(vectors) == monomial_count(n, d)
        assert not any(system.annihilates([v]) for v in vectors), j


def coefficients(lifting):
    """The lifting's coefficient vector in the system's column order."""
    n, d = lifting.n, lifting.degree
    return [int(p.terms.get(m, 0)) for p in lifting.components for m in monomials(n, d)]


@pytest.mark.parametrize("name", ["cross3", "cross7", "conjugate", "conjugate_2_70", "rand5"])
def test_certificate_accepts_the_scan_lifting(conjugate_bent_tensor, rand5, name):
    # the 2**70 multiple of the conjugated bent map has the same lifting,
    # against cells past int64
    if name == "rand5":
        eta, lifting = rand5[:2]
    else:
        eta = named_map(name.removesuffix("_2_70"), conjugate_bent_tensor)
        lifting = solve_lifting(eta, samples=8, seed=0)
        if name == "conjugate_2_70":
            eta = scaled_map(eta, 2 ** 70)
    assert _sparse_system(eta, lifting.degree).annihilates([coefficients(lifting)])


def test_certificate_rejects_single_coefficient_changes(conjugate_bent_tensor):
    # no column of the degree-3 system is zero, so changing one coefficient
    # of the lifting always leaves M phi != 0; changes by 1, to 0 (or by
    # 2**64 where it is 0 already, which int64 products would wrap to 0),
    # and a multiple of 2**64 + 1 with 2**64 added to one entry
    eta = DissidentMap(7, conjugate_bent_tensor)
    lifting = solve_lifting(eta, samples=8, seed=0)
    system = _sparse_system(eta, 3)
    phi = coefficients(lifting)
    assert system.annihilates([phi])
    for c in range(len(phi)):
        for delta in (1, -phi[c] or 2 ** 64):
            changed = phi[:c] + [phi[c] + delta] + phi[c + 1:]
            assert not system.annihilates([changed]), (c, delta)
    assert not system.annihilates([phi, changed])
    wrapped = [x * (2 ** 64 + 1) for x in phi]
    assert system.annihilates([wrapped])
    wrapped[0] += 2 ** 64
    assert not system.annihilates([wrapped])


# (map name, degree) -> SHA-256 of the float64 bytes of the residues of the
# dense reference: all rows mod PRIMES[0], and the rows
# [nrows // 3 + 1, 2 * nrows // 3 + 2) mod PRIMES[1].  Frozen from the row
# blocks the solver read when it eliminated the whole system mod p.
BLOCK_SHA256 = {
    ("cross3", 1): ("efee95db4c865d01e2781892006141d9ba51bcb6f8170c371ee2309ad7117a89",
                    "88ef2de772ab8361e813cf59e7d5601d0e9c3c4dd7ea7a2b7e082613b1ecf5c9"),
    ("cross3", 2): ("74a4395142a8112c54ee57752544e5d6d46b7ca4e214dd9b345d616624cf772d",
                    "5c188a4452d3242687d24666b280d80493522b5ccb98b0e1de2233b96d2a99cd"),
    ("cross7", 1): ("113d68a58da5d61fabacc673f14d9d413456b274d4b573987e4992174c23bb20",
                    "a3cf8ae2a7bf6634f1503497c2427b0ed1e007a00d32b76c1f4a30a87963c1d7"),
    ("conjugate", 1): ("43b831ed9cf6dd8498feb496d8be7ef93d6478a806f86547d6c9556646d8abaa",
                       "c76daf39053ab74ad8e1c36bc196cca72324fb609c636da157e4ba7cddc17c2c"),
    ("conjugate", 2): ("2bf05b7a79b06d7ca28a727834e1373f8c4fc9ec096e8bfe278c210fd436959a",
                       "5ca99691b2381632bfa79377fd36795f3892e6277d4da4771056f7d0b4d97ef2"),
    ("conjugate", 3): ("5c8031aedc33dd172ff07c1f171aeb7c187b8a324ccb93c7395afe26ee8161e2",
                       "3a088bef19902d3963fb0e4d2f6bfe071cedbdf7b7fb7f1bb631d9c9f706aceb"),
    ("quadruple0", 1): ("b60e2492e9991e4276298ef6ebaab58d663e85d00e7226ad0b958e4b0f9924b6",
                        "a9172fa5a2f5e2b6cf652c6dfb95c41c807fff90ebdfa23d73be645f6992af1b"),
    ("conjugate_2_70", 1): ("28d5b5e57cc64af824b170cd5b4d0dba66c17f59a7201ac4b745ee504e553bbb",
                            "54cb8d9faf64893785535162016010c7cba63e6f1817dd59f6d77f2134f4d50e"),
}


def block_digests(eta, d):
    whole = reference_residues(integer_map(eta), d, modkernel.PRIMES[0])
    lo, hi = len(whole) // 3 + 1, 2 * len(whole) // 3 + 2
    blocks = (whole, reference_residues(integer_map(eta), d, modkernel.PRIMES[1])[lo:hi])
    return tuple(hashlib.sha256(block.tobytes()).hexdigest() for block in blocks)


@pytest.mark.parametrize("name, d", BLOCK_SHA256)
def test_system_bytes_are_frozen(conjugate_bent_tensor, name, d):
    if name == "conjugate_2_70":
        # entries of 2**70 and more
        eta = DissidentMap(7, [[[x * 2 ** 70 for x in cell] for cell in plane]
                               for plane in conjugate_bent_tensor])
    else:
        eta = named_map(name, conjugate_bent_tensor)
    assert block_digests(eta, d) == BLOCK_SHA256[name, d]


def test_object_path_system_has_the_same_cells(conjugate_bent_tensor):
    # eta times 2**70 has entries past int64: the same cells hold the
    # scaled Python ints, and the scan finds the same lifting
    eta = DissidentMap(7, conjugate_bent_tensor)
    big = DissidentMap(7, [[[x * 2 ** 70 for x in cell] for cell in plane]
                           for plane in conjugate_bent_tensor])
    small, large = _sparse_system(eta, 1), _sparse_system(big, 1)
    assert large.tensor == [[[x * 2 ** 70 for x in cell] for cell in plane]
                            for plane in small.tensor]
    lifting, scan, _ = solve_lifting_scan(eta, samples=16, seed=3)
    assert solve_lifting_scan(big, samples=16, seed=3)[:2] == (lifting, scan)


def test_nothing_is_built_at_a_degree_whose_kernel_is_zero(conjugate_bent_tensor, monkeypatch):
    # the solve at points proves the kernel {0} at d = 1 and 2 without
    # reading the system, so only d = 3 builds its shift table, for the
    # certificate of the lifting
    systems = []
    build = _sparse_system

    def recording(eta, d):
        systems.append(build(eta, d))
        return systems[-1]

    monkeypatch.setattr("divalg.lifting._sparse_system", recording)
    solve_lifting_scan(DissidentMap(7, conjugate_bent_tensor), samples=8, seed=0)
    assert [(s.d, "shift" in vars(s)) for s in systems] == [(1, False), (2, False), (3, True)]


def test_solve_cross_products_degree_one_identity():
    for n in (3, 7):
        lifting, scan, _ = solve_lifting_scan(cross_product_map(n), samples=24, seed=0)
        assert lifting.degree == 1
        assert lifting.components == Lifting.identity(n).components
        assert scan[0]["kernel_dim"] == 1 and scan[0]["validated"] == 1


def test_solve_quadruple_map_degree_one():
    t = quadruple_to_triple(random_quadruple(1))
    assert solve_lifting(t.eta, samples=32, seed=0).degree == 1


def test_degree_three_input():
    eta = bent_cross7()
    lifting, scan, _ = solve_lifting_scan(eta, samples=32, seed=0)
    assert lifting.degree == 3
    assert [s["kernel_dim"] for s in scan] == [0, 0, 1]
    report = verify_lifting(eta, lifting, samples=16, seed=7)
    assert report["all_pass"]
    rescaled = tuple(p.scale(Fraction(2, 7)) for p in lifting.components)
    assert verify_lifting(eta, rescaled, samples=16, seed=7) == report


def test_no_lifting_for_zero_map():
    with pytest.raises(NoLiftingFound):
        solve_lifting(zero_map(3), samples=8, seed=0)


# SHA-256 of repr of the exact kernels at d = 1..5 of maps whose A(u) has
# rank below n - 1 at every point, so that no eta_P line is defined anywhere
RANK_DEFICIENT_KERNELS_SHA256 = {
    "zero3": "18c4c81e96f44756c4cfb1480e764100323e5ae3ab510c94f11ecdf7cb5d8cf2",
    "one": "135b5187afc118b2e22a5d3d1e226d9c49974680bac8100f6d8c280a36424ba7",
}


@pytest.mark.parametrize("name", RANK_DEFICIENT_KERNELS_SHA256)
def test_scan_of_a_map_without_lines(monkeypatch, name):
    # no point has a line, so the points serve no prime, and the kernels
    # come from the dense reference; the scan decides from its samples
    # alone and builds no kernel
    eta = {"zero3": zero_map(3), "one": ONE}[name]
    systems = [_sparse_system(eta, d) for d in range(1, 6)]
    kernels = [sparse_kernel(system, reference_solve) for system in systems]
    digest = hashlib.sha256(repr(kernels).encode("utf-8")).hexdigest()
    assert digest == RANK_DEFICIENT_KERNELS_SHA256[name]
    assert all(kernels)
    for system in systems:
        with pytest.raises(modkernel.UnluckyPrime):
            _kernel_at_points(system, modkernel.PRIMES[0])
    solves = []
    monkeypatch.setattr("divalg.lifting.sparse_kernel", lambda *args: solves.append(args))
    with pytest.raises(NoLiftingFound, match=r"^no validated lifting up to degree 5 \(8 "):
        solve_lifting_scan(eta, samples=8, seed=0)
    assert not solves


def test_homogeneity_law():
    eta = bent_cross7()
    lifting = solve_lifting(eta, samples=16, seed=0)
    rng = seeded_rng(8, "homog")
    for _ in range(5):
        v = sample_vector(rng, 7)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        lv = tuple(lam * x for x in v)
        assert [evaluate(p, lv) for p in lifting.components] == [
            lam ** lifting.degree * evaluate(p, v) for p in lifting.components]


def test_padding_consistency():
    # |v|^2 * (a degree-d lifting) solves the degree-(d+2) system
    n = 7
    eta = cross_product_map(n)
    system = _sparse_system(eta, 3)
    monos3 = monomials(n, 3)
    vec = [0] * (n * len(monos3))
    for k in range(n):
        for l in range(n):
            exps = [0] * n
            exps[l] += 2
            exps[k] += 1
            vec[k * len(monos3) + monos3.index(tuple(exps))] += 1
    assert system.annihilates([vec])


def test_verify_lifting_failures():
    n = 7
    eta = cross_product_map(n)
    good = Lifting.identity(n)
    assert verify_lifting(eta, good, samples=12, seed=0)["all_pass"]

    # |v|^2 * v: right line everywhere but components share |v|^2
    norm = HomogeneousPoly(n, 2, {tuple(2 if t == l else 0 for t in range(n)): 1
                                  for l in range(n)})
    padded = tuple(norm * HomogeneousPoly.variable(n, k) for k in range(n))
    report = verify_lifting(eta, padded, samples=12, seed=0)
    assert report["b_orthogonality_identity"]
    assert report["b_sampled_line_agreement"]["failures"] == 0
    assert not report["c_relatively_prime"]
    assert not report["all_pass"]

    zero = tuple(HomogeneousPoly.zero(n, 2) for _ in range(n))
    report = verify_lifting(eta, zero, samples=6, seed=0)
    assert report["b_sampled_nonvanishing"]["failures"] == 6
    assert not report["all_pass"]

    # one coefficient perturbed: still homogeneous, no longer orthogonal
    perturbed = (good.components[0] + HomogeneousPoly.variable(n, 1),) + good.components[1:]
    report = verify_lifting(eta, perturbed, samples=12, seed=0)
    assert report["a_homogeneous_common_degree"]
    assert not report["b_orthogonality_identity"]
    assert not report["all_pass"]

    # a rational multiple of a lifting is the same projective solution
    rescaled = tuple(p.scale(Fraction(2, 7)) for p in good.components)
    report = verify_lifting(eta, rescaled, samples=12, seed=0)
    assert report["all_pass"] and report["content_gcd"] == "1"

    # seven linear components in 3 variables are no map on R^7
    short = tuple(HomogeneousPoly.variable(3, k % 3) for k in range(n))
    report = verify_lifting(eta, short, samples=12, seed=0)
    assert not report["a_homogeneous_common_degree"]
    assert not report["b_orthogonality_identity"]
    assert report["b_sampled_line_agreement"]["failures"] == 12
    assert not report["all_pass"]
    mixed = short[:6] + (HomogeneousPoly.variable(n, 6),)
    report = verify_lifting(eta, mixed, samples=12, seed=0)
    assert not report["c_relatively_prime"] and not report["all_pass"]


def test_lift_computes_each_sample_line_once():
    # each sample's eta_P line is screened once: the scan screens the
    # samples before its first kernel and its validation draws them again
    # without a screen, the lift report reuses the scan's proofs instead
    # of calling verify_lifting, and the screen decides every sample of a
    # dissident map, so the exact eta_P_point never runs.  The screens
    # counted are the points _sample_lines yields.
    script = """
import io, sys
from contextlib import redirect_stdout
import divalg.cli, divalg.dissident, divalg.lifting
screens, exact = [], []
sample_lines, eta_P_point = divalg.lifting._sample_lines, divalg.dissident.eta_P_point
def counted_lines(*args):
    for point in sample_lines(*args):
        screens.append(point)
        yield point
def counted_exact(*args):
    exact.append(args)
    return eta_P_point(*args)
divalg.lifting._sample_lines = counted_lines
for module in (divalg.dissident, divalg.lifting):
    module.eta_P_point = counted_exact
with redirect_stdout(io.StringIO()):
    code = divalg.cli.main(["lift", "--builtin", "cross7", "--trials", "5", "--samples", "12"])
print(code, len(screens), len(exact))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["0", "12", "0"]


def test_validation_memory_does_not_grow_with_the_samples(traced_peaks):
    # the samples are drawn, screened and evaluated one at a time, so that
    # --samples bounds the time of a lift, not its memory
    eta = cross_product_map(3)
    one, ten = traced_peaks(
        lambda samples: solve_lifting_scan(eta, samples=samples, seed=0), (200, 2000))
    assert ten < 2 * one


def test_lifting_type_invariants():
    with pytest.raises(ValueError):
        Lifting(3, 0, [HomogeneousPoly.constant(3, 1)] * 3)
    with pytest.raises(ValueError):
        Lifting(3, 2, [HomogeneousPoly.zero(3, 2)] * 3)


def test_verify_lifting_reports_the_factor_of_a_lifting():
    # the constructor runs no GCD; verify_lifting runs it for a Lifting too
    x = [HomogeneousPoly.variable(3, i) for i in range(3)]
    shared = Lifting(3, 2, [x[0] * x[0], x[0] * x[1], x[0] * x[2]])
    report = verify_lifting(cross_product_map(3), shared, samples=6, seed=0)
    assert report["c_relatively_prime"] is False
    assert report["content_gcd"] == "x0"
    assert not report["all_pass"]


def constant_kernel_map():
    """The map on R^3 with eta(e0 ^ e1) = e0, eta(e0 ^ e2) = e1 and
    eta(e1 ^ e2) = e0 + e1.  Every image lies in span(e0, e1), so A(v), the
    matrix with rows eta(v ^ e_j), kills e2 at every point, and its kernel
    line is the constant e2 wherever its rank is 2.  So the degree-1 kernel
    is {g e2 : g linear}, of dimension 3, and x_i e2 is validated exactly
    where no sample has u_i = 0."""
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), cell in (((0, 1), [1, 0, 0]), ((0, 2), [0, 1, 0]), ((1, 2), [1, 1, 0])):
        t[i][j], t[j][i] = cell, [-x for x in cell]
    return DissidentMap(3, t)


# (seed, samples) -> the exception and message of the scan of constant_kernel_map
CONSTANT_KERNEL_OUTCOMES = {
    (0, 1): (AmbiguousKernel, "3 validated projective solutions at degree 1"),
    (0, 2): (AmbiguousKernel, "2 validated projective solutions at degree 1"),
    (5, 2): (AmbiguousKernel, "validated solution reduced below the scanned degree"),
    (4, 16): (NoLiftingFound, "no validated lifting up to degree 5 (16 validation samples)"),
    (0, 64): (NoLiftingFound, "no validated lifting up to degree 5 (64 validation samples)"),
}


@pytest.mark.parametrize("seed, samples", CONSTANT_KERNEL_OUTCOMES)
def test_scan_of_a_constant_kernel_map(seed, samples):
    error, message = CONSTANT_KERNEL_OUTCOMES[seed, samples]
    with pytest.raises(LiftingError) as raised:
        solve_lifting_scan(constant_kernel_map(), samples=samples, seed=seed)
    assert type(raised.value) is error and str(raised.value) == message


def test_constant_kernel_scan_solves_one_kernel_without_sympy(monkeypatch):
    # the first nonzero kernel decides: at (4, 16) none of the x_i e2 is
    # validated, and the scan stops there, where it used to solve d = 2..5
    # as well.  The rank of A(v) proves the reduction below the scanned
    # degree, so no case runs a content GCD or loads sympy.
    solves = []
    monkeypatch.setattr("divalg.lifting.sparse_kernel",
                        lambda *args: solves.append(args) or sparse_kernel(*args))
    with pytest.raises(NoLiftingFound):
        solve_lifting_scan(constant_kernel_map(), samples=16, seed=4)
    assert len(solves) == 1
    script = f"""
import sys
from divalg.dissident import DissidentMap
from divalg.lifting import LiftingError, solve_lifting_scan
for seed, samples in {list(CONSTANT_KERNEL_OUTCOMES)!r}:
    try:
        solve_lifting_scan(DissidentMap(3, {constant_kernel_map().integer_tensor!r}),
                           samples=samples, seed=seed)
    except LiftingError as exc:
        print(type(exc).__name__, exc)
print("sympy" in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.splitlines() == [f"{error.__name__} {message}" for error, message
                                in CONSTANT_KERNEL_OUTCOMES.values()] + ["False"]


# SHA-256 of canonical_json(lifting_to_json(...)) of the rand5 lifting.  Its
# degree-5 kernel row is one whose first few entries miss a factor of the
# row's common denominator, so a reconstruction that trusts a subset of the
# entries changes these bytes.
RAND5_LIFTING_SHA256 = "6e04a01a38ef4138f6ffc6309ffac36d463e3c184587239ba9033b72a26bfa75"


def test_rand5_lifting_bytes_are_frozen(rand5):
    _, lifting, _, _ = rand5
    blob = canonical_json(lifting_to_json(lifting)).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == RAND5_LIFTING_SHA256


def test_rand5_lifting_is_independent_of_the_prime_ladder(rand5, monkeypatch):
    # every kernel of the scan and the sample screen run on the ladder
    # reversed: the scan report and the lifting's bytes must not change.
    # Each kernel below degree 5 keeps the scan's solve from the eta_P lines
    # at points, and the points serve every prime; degree 5 = n - 2 is the
    # adjugate's line and uses no prime.
    eta, lifting, scan, _ = rand5
    ladder = modkernel.PRIMES[::-1]
    solves = []

    def served(mat, p):
        try:
            return _kernel_at_points(mat, p)
        except modkernel.UnluckyPrime as exc:
            raise AssertionError(f"prime {p} was skipped") from exc

    def reversed_ladder(mat, solve):
        solves.append(solve)
        return sparse_kernel(mat, served, ladder)

    monkeypatch.setattr("divalg.lifting.sparse_kernel", reversed_ladder)
    monkeypatch.setattr(modkernel, "SCREEN_PRIME", ladder[0])
    again, rescan, _ = solve_lifting_scan(eta, samples=24, seed=0)
    assert solves == [_kernel_at_points] * 4
    assert rescan == scan
    assert canonical_json(lifting_to_json(again)) == canonical_json(lifting_to_json(lifting))


def test_rand5_lifting_is_independent_of_the_seed(rand5):
    # the seed draws the validation points, not the answer: a new seed
    # validates at other points and must find the same scan and lifting
    eta, lifting, scan, _ = rand5
    points = [[u for u, _, _ in _sample_lines(eta, 24, seed)] for seed in (0, 1)]
    assert points[0] != points[1]
    again, rescan, _ = solve_lifting_scan(eta, samples=24, seed=1)
    assert rescan == scan
    assert canonical_json(lifting_to_json(again)) == canonical_json(lifting_to_json(lifting))


def test_lifting_is_invariant_under_scaling_eta(rand5):
    # eta and c eta span the same lines, so they have one lifting and one
    # scan; c = -7/3 also gives the integer tensor a denominator to clear
    bent = bent_cross7()
    cases = [(bent, 16, *solve_lifting_scan(bent, samples=16, seed=0)[:2]),
             (rand5[0], 24, *rand5[1:3])]
    for eta, samples, lifting, scan in cases:
        again, rescan, _ = solve_lifting_scan(scaled_map(eta, Fraction(-7, 3)),
                                              samples=samples, seed=0)
        assert rescan == scan
        assert canonical_json(lifting_to_json(again)) == canonical_json(lifting_to_json(lifting))


@pytest.mark.parametrize("name", ["cross3", "bent3", "rand5", "random0"])
def test_lifting_is_equivariant_under_conjugation(rand5, monkeypatch, name):
    # eta_S(v ^ w) = S eta(S^t v ^ S^t w) for a rational rotation S has the
    # degree of eta, and its lifting is S Phi(S^t v), which the benchmark's
    # reference composes exactly.  On R^7, S is the Cayley transform of a
    # seeded antisymmetric matrix; on R^3 it is a quaternion rotation, which
    # fixes the cross product, so there only S Phi(S^t v) = v is new.
    # random0, the benchmark's random tensor of seed 0, is a second map of
    # degree 5 beside rand5 (seed 7).
    inputs = _perfbench_module("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    workloads = _perfbench_module("workloads")
    if name == "rand5":
        eta, lifting, scan, _ = rand5
        s = inputs.cayley_orthogonal(8)
    elif name == "random0":
        eta = DissidentMap(7, inputs.random_tensor(0))
        lifting, scan, _ = solve_lifting_scan(eta, samples=16, seed=0)
        assert lifting.degree == 5
        s = inputs.cayley_orthogonal(8)
    else:
        eta = cross_product_map(3) if name == "cross3" else bent_cross7()
        lifting, scan, _ = solve_lifting_scan(eta, samples=16, seed=0)
        s = (rotation_from_quaternion((1, 2, 3, 4)).entries if name == "cross3"
             else inputs.cayley_orthogonal(5))
    rotation = np.array(s, dtype=object)
    tensor = np.einsum("ia,jb,kc,abc->ijk", rotation, rotation, rotation,
                       np.array(eta.tensor, dtype=object), optimize=True)
    again, rescan, _ = solve_lifting_scan(DissidentMap(eta.n, tensor.tolist()),
                                          samples=16, seed=0)
    assert rescan == scan
    doc = json.loads(canonical_json(lifting_to_json(lifting)))
    assert (json.loads(canonical_json(lifting_to_json(again)))
            == workloads.conjugated_lifting(doc, s))


def test_solver_determinism():
    eta = bent_cross7()
    a = solve_lifting(eta, samples=16, seed=5)
    b = solve_lifting(eta, samples=16, seed=5)
    assert a.components == b.components


# ---------------------------------------------------------------------------
# differential: the paper's |v|^2-padded identity against the divided one


def _paper_assemble_coo(eta, d, tensor):
    """COO cells of the paper's system <Phi(v), eta(v ^ (|v|^2 e_j - v_j v))>
    = 0, with degree-(d+3) rows: the l loop expands |v|^2 = sum_l x_l^2."""
    n = eta.n
    cols_monos = monomials(n, d)
    rows_monos = monomials(n, d + 3)
    row_index = {m: i for i, m in enumerate(rows_monos)}
    coo = []
    for k in range(n):
        for m_idx, m in enumerate(cols_monos):
            col = k * len(cols_monos) + m_idx
            for j in range(n):
                cells = {}
                for i in range(n):
                    t = tensor[i][j][k]
                    if not t:
                        continue
                    for l in range(n):
                        exps = list(m)
                        exps[l] += 2
                        exps[i] += 1
                        key = tuple(exps)
                        cells[key] = cells.get(key, 0) + t
                base = j * len(rows_monos)
                for key, val in cells.items():
                    if val:
                        coo.append((base + row_index[key], col, val))
    return coo, len(rows_monos) * n, len(cols_monos) * n


def _paper_eta_P_line(eta, v):
    """eta_P at v from the rows eta(v ^ (|v|^2 e_i - v_i v))."""
    n = eta.n
    norm2 = sum(x * x for x in v)
    rows = [eval_eta(eta, v, [norm2 * (i == t) - v[i] * v[t] for t in range(n)])
            for i in range(n)]
    kernel = Matrix(rows).kernel()
    assert len(kernel) == 1
    return kernel[0]


# map name -> the degrees at which the two systems are compared
DIFFERENTIAL_DEGREES = {
    "cross3": (1, 2),
    "cross7": (1, 2),
    "quadruple0": (1,),
    "bent3": (1, 2, 3),
    "conjugate": (1, 2, 3),
}


def named_map(name, conjugate_bent_tensor):
    return {
        "cross3": lambda: cross_product_map(3),
        "cross7": lambda: cross_product_map(7),
        "quadruple0": lambda: quadruple_to_triple(random_quadruple(0)).eta,
        "bent3": bent_cross7,
        "conjugate": lambda: DissidentMap(7, conjugate_bent_tensor),
    }[name]()


@pytest.mark.parametrize("name", DIFFERENTIAL_DEGREES)
def test_divided_system_has_the_paper_kernel(conjugate_bent_tensor, name):
    eta = named_map(name, conjugate_bent_tensor)
    for d in DIFFERENTIAL_DEGREES[name]:
        coo, nrows, ncols = _paper_assemble_coo(eta, d, cleared_tensor(eta.tensor)[0])
        assert (nrows, ncols) == constraint_shape(eta.n, d)
        divided = _sparse_system(eta, d)
        assert divided.ncols == ncols and divided.nrows < nrows
        assert dense_kernel(IntMatrix(nrows, ncols, coo)) == sparse_kernel(divided,
                                                                          _kernel_at_points)


@pytest.mark.parametrize("name", DIFFERENTIAL_DEGREES)
def test_scan_report_equals_verify_lifting(conjugate_bent_tensor, name):
    # the scan reports what it proved; verify_lifting proves it again
    eta = named_map(name, conjugate_bent_tensor)
    lifting, _, verification = solve_lifting_scan(eta, samples=16, seed=3)
    assert verification == verify_lifting(eta, lifting, samples=16, seed=3)
    assert verification["all_pass"]


@pytest.mark.parametrize("name", DIFFERENTIAL_DEGREES)
def test_scan_lifting_is_primitive(conjugate_bent_tensor, name):
    # the scan keeps its kernel vector as sparse_kernel returns it, so that
    # vector must already be integral, of content 1, with a positive first
    # entry
    eta = named_map(name, conjugate_bent_tensor)
    lifting = solve_lifting(eta, samples=16, seed=3)
    coeffs = [p.terms.get(m, Fraction(0)) for p in lifting.components
              for m in monomials(eta.n, lifting.degree)]
    assert all(x.denominator == 1 for x in coeffs)
    assert gcd(*(x.numerator for x in coeffs)) == 1
    assert next(x for x in coeffs if x) > 0


def test_eta_P_point_matches_the_padded_rows(conjugate_bent_tensor):
    conjugate = DissidentMap(7, conjugate_bent_tensor)
    for eta in (cross_product_map(7), bent_cross7(), conjugate):
        rng = seeded_rng(3, "padded-rows")
        for _ in range(32):
            v = sample_vector(rng, 7)
            assert eta_P_point(eta, v) == _paper_eta_P_line(eta, v)


# ---------------------------------------------------------------------------
# differential: the integer pointwise validation against the Fraction loop


def _reference_sample_lines(eta, samples, seed):
    """_sample_lines as it was before the integer screen: every sample's
    eta_P line from the exact kernel, None where it is undefined."""
    rng = seeded_rng(seed, "lifting-points")
    out = []
    for _ in range(samples):
        point = sample_vector(rng, eta.n)
        try:
            line = eta_P_point(eta, point)
        except DegenerateSpan:
            line = None
        out.append((point, line))
    return tuple(out)


def _reference_sample_failures(components, lines):
    """_sample_failures as it was: Phi evaluated in Fractions at each
    sample and compared with the line as a primitive vector."""
    nonvanishing = line = 0
    for point, target in lines:
        value = tuple(evaluate(p, point) for p in components)
        if all(x == 0 for x in value):
            nonvanishing += 1
        elif target is None or primitive_vector(value) != target:
            line += 1
    return nonvanishing, line


def _candidates(phi):
    """Candidates derived from a lifting's components: itself, a rational
    multiple, a multiple by 2**200 + 1 (which widens the packed fields),
    two components swapped, a common factor x0, one nonzero component, its
    first n - 1 components only, and mixed degrees (every component but
    the first times x_{n-1}, which is Phi(v) wherever v_{n-1} = 1)."""
    n = len(phi)
    zero = HomogeneousPoly.zero(n, phi[0].degree)
    x0, last = HomogeneousPoly.variable(n, 0), HomogeneousPoly.variable(n, n - 1)
    return {
        "lifting": phi,
        "rescaled": tuple(p.scale(Fraction(2, 7)) for p in phi),
        "wide": tuple(p.scale(2**200 + 1) for p in phi),
        "swapped": (phi[1], phi[0]) + phi[2:],
        "x0": tuple(x0 * p for p in phi),
        "single": (phi[0],) + (zero,) * (n - 1),
        "short": phi[:n - 1],
        "mixed": (phi[0],) + tuple(p * last for p in phi[1:]),
    }


def validation_maps(conjugate_bent_tensor):
    """The dissident maps with their scan's lifting, and non-dissident maps,
    whose samples include degenerate ones, with the identity map."""
    maps = {}
    for name in DIFFERENTIAL_DEGREES:
        eta = named_map(name, conjugate_bent_tensor)
        maps[name] = (eta, solve_lifting(eta, samples=16, seed=3).components)
    for name, eta in (("one", ONE), ("two", TWO), ("zero7", zero_map(7))):
        maps[name] = (eta, Lifting.identity(eta.n).components)
    return maps


def cleared_coefficients(components):
    """The coefficient vector of components of one degree, in the system's
    column order, times the lcm of its denominators."""
    n, d = components[0].nvars, components[0].degree
    coeffs = [p.terms.get(m, Fraction(0)) for p in components for m in monomials(n, d)]
    den = lcm(*(x.denominator for x in coeffs))
    return [int(x * den) for x in coeffs]


def test_integer_validation_matches_the_fraction_loop(conjugate_bent_tensor, monkeypatch):
    # at the real prime the screen decides every sample of a dissident map;
    # mod 3 and mod 5 it leaves many to the exact eta_P_point.
    # verify_lifting's sampling counts both failures of every candidate.
    # The scan's _validate, which relies on the screen and on M phi = 0,
    # checks only nonvanishing: of the candidates whose n components share
    # one degree, it must accept exactly those nonzero at every sample.
    for name, (eta, phi) in validation_maps(conjugate_bent_tensor).items():
        reference_lines = _reference_sample_lines(eta, 64, 5)
        candidates = _candidates(phi)
        expected = {key: _reference_sample_failures(comps, reference_lines)
                    for key, comps in candidates.items()}
        vectors = {}
        for key, comps in candidates.items():
            if len(comps) == eta.n and len({p.degree for p in comps}) == 1:
                vectors.setdefault(comps[0].degree, {})[key] = cleared_coefficients(comps)
        for d, by_key in vectors.items():
            accepted = _validate(eta, list(by_key.values()), d, 64, 5)
            assert accepted == [vec for key, vec in by_key.items() if expected[key][0] == 0], \
                (name, d)
        for prime in (modkernel.SCREEN_PRIME, 3, 5):
            with monkeypatch.context() as m:
                m.setattr(modkernel, "SCREEN_PRIME", prime)
                lines = list(_sample_lines(eta, 64, 5))
                assert [defined for _, _, defined in lines] == [
                    line is not None for _, line in reference_lines]
                failures = {key: _pointwise_failures(eta, comps, lines)
                            for key, comps in candidates.items()}
                assert failures == expected, (name, prime)


# ---------------------------------------------------------------------------
# differential: each prime's subspace from the eta_P lines at points against
# the kernel mod p of the whole dense reference

# map name -> {degree: the kernel dimension there}; cross7 at d = 4 is the
# widest system solved at points (C = 210) with a kernel of dimension 84,
# and random0, the benchmark's random tensor of seed 0, a second map of
# degree 5 beside rand5
POINT_SOLVE_KERNEL_DIMS = {
    "cross3": {1: 1},
    "cross7": {1: 1, 2: 7, 4: 84},
    "conjugate": {1: 0, 2: 0, 3: 1},
    "quadruple0": {1: 1},
    "rand5": {1: 0, 2: 0, 3: 0, 4: 0, 5: 1},
    "random0": {5: 1},
}


def recorded_solves(eta, d):
    """The scan's kernel at degree d, with the (prime, result) of every
    prime it solved at points, the result an UnluckyPrime where the prime
    was skipped."""
    solves = []

    def recorded(mat, p):
        try:
            solves.append((p, _kernel_at_points(mat, p)))
        except modkernel.UnluckyPrime as exc:
            solves.append((p, exc))
            raise
        return solves[-1][1]

    return sparse_kernel(_sparse_system(eta, d), recorded), solves


def same_subspace(result, expected):
    """Whether two solve results, (rows, pivots) of an RREF or None, are equal."""
    if result is None or expected is None:
        return result is expected
    return result == expected


@pytest.mark.parametrize("name", POINT_SOLVE_KERNEL_DIMS)
def test_points_solve_matches_the_elimination(conjugate_bent_tensor, rand5, name):
    # every prime is served by the points.  The degree-5 system (6468 x
    # 3234) is beyond a dense elimination in a test; there each prime's
    # subspace must be the certified lifting's line mod p, which lies in
    # ker(M mod p), and the kernel the adjugate's line, the scan's kernel
    # at d = n - 2
    if name == "random0":
        eta = DissidentMap(7, _perfbench_module("inputs").random_tensor(0))
    else:
        eta = rand5[0] if name == "rand5" else named_map(name, conjugate_bent_tensor)
    for d, dim in POINT_SOLVE_KERNEL_DIMS[name].items():
        kernel, solves = recorded_solves(eta, d)
        assert len(kernel) == dim and solves
        if d == 5:
            assert kernel == _adjugate_kernel(_sparse_system(eta, d))
        for p, result in solves:
            if d == 5:
                line = np.array(kernel[0]) % p
                line = line * pow(int(line[np.flatnonzero(line)[0]]), -1, p) % p
                assert result[0] == [line.tolist()], (name, d, p)
            else:
                expected = modkernel._kernel_mod_p(
                    reference_residues(integer_map(eta), d, p), p)
                assert same_subspace(result, expected), (name, d, p)


@st.composite
def antisymmetric_tensors(draw, n):
    """Integer antisymmetric tensors on R^n with entries in [-3, 3]."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cell = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            t[i][j], t[j][i] = cell, [-x for x in cell]
    return t


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(antisymmetric_tensors))
@example([[[0] * 3] * 3] * 3)
def test_adjugate_column_is_the_symbolic_adjugate(tensor):
    # H is column 0 of adj A(v) over v_0, with A(v) the symbolic matrix of
    # rows eta(v ^ e_i), for every antisymmetric tensor: zero, degenerate or
    # not.  On R^4 (n - 2 = 2) the lattice has lines of more than two points
    import sympy

    n = len(tensor)
    v = sympy.symbols(f"v0:{n}")
    a = sympy.Matrix(n, n, lambda i, k: sum(v[j] * tensor[j][i][k] for j in range(n)))
    expected = []
    for entry in a.adjugate()[:, 0]:
        h = sympy.Poly(entry, *v).exquo(sympy.Poly(v[0], *v)).as_dict()
        expected += [int(h.get(m, 0)) for m in monomials(n, n - 2)]
    assert _adjugate_column(tensor) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                min_size=3, max_size=3))
@example([[0, 0, 0], [0, -1, 0], [1, 0, 0]])
def test_points_solve_contains_the_elimination_kernel(cells):
    # small antisymmetric tensors on R^3, eta(e_i ^ e_j) = cells[i + j - 1]
    # for i < j: many are degenerate, with A(u) of rank below 2 everywhere
    # or kernels of several dimensions at a degree.  Where the points serve
    # a prime they give the kernel mod p of the dense reference; where they
    # do not, no validation sample has a line, and the scan stops before
    # its first kernel.  The example is eta(u ^ w) = diag(1, 1, 0)(u x w),
    # whose line is (0, 0, 1) at every point: components 0 and 1 of every
    # line are identically zero, and k* must be 2.
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), cell in zip(((0, 1), (0, 2), (1, 2)), cells):
        t[i][j], t[j][i] = cell, [-x for x in cell]
    eta = DissidentMap(3, t)
    for d in (1, 2, 3):
        mat = _sparse_system(eta, d)
        for p in modkernel.PRIMES[:2]:
            expected = modkernel._kernel_mod_p(reference_residues(eta, d, p), p)
            try:
                result = _kernel_at_points(mat, p)
            except modkernel.UnluckyPrime:
                assert not any(defined for _, _, defined
                               in _sample_lines(eta, DEFAULT_SAMPLES, 0)), (cells, d, p)
                continue
            assert same_subspace(result, expected), (cells, d, p)


@pytest.mark.parametrize("p", [modkernel.PRIMES[0], 5, 3])
def test_point_lines_span_the_kernel_at_rank_n_minus_1(p):
    # at u = e_0, A(u) is plane 0 of the tensor, so any integer matrix can
    # be placed there: products of 4 x r and r x 4 matrices, r = 0..4.  A
    # line is found exactly where the rank mod p is n - 1, and spans the
    # kernel mod p, the exact kernel's reduction where the exact rank is
    # n - 1 too; the rank mod p is never above the exact rank
    rng = random.Random(11)
    ranks = set()
    for t in range(200):
        r = t % 5
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(4)]
        right = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(r)]
        plane = [[sum(x * y for x, y in zip(row, column)) for column in zip(*right)]
                 if r else [0] * 4 for row in left]
        tensor = [plane] + [[[0] * 4 for _ in range(4)] for _ in range(3)]
        line = _PointLines(tensor, p)([1, 0, 0, 0])
        kernel = modkernel._kernel_mod_p(
            np.array([[x % p for x in row] for row in plane], dtype=np.float64), p)
        rank = 4 - (len(kernel[0]) if kernel else 0)
        exact = Matrix(plane).rank()
        assert rank <= exact, (t, p)
        ranks.add(rank)
        if rank != 3:
            assert line is None, (t, p)
            continue
        lead = next(x for x in line if x)
        assert kernel[0] == [[x * pow(lead, -1, p) % p for x in line]], (t, p)
        if exact == 3:
            v = [x % p for x in primitive_vector(Matrix(plane).kernel()[0])]
            lead = next(x for x in v if x)
            assert kernel[0] == [[x * pow(lead, -1, p) % p for x in v]], (t, p)
    assert ranks == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("p", [modkernel.PRIMES[0], 3])
def test_point_lines_leave_out_the_redundant_row(conjugate_bent_tensor, p):
    # for an antisymmetric tensor u^T A(u) = 0, so the lines come from the
    # rows of A(u) other than the first j0 with u_j0 != 0 mod p.  They must
    # be the lines of the whole A(u): at points whose first entry is 0 mod
    # p, where j0 is not 0, and at random points; a point that is 0 mod p
    # has none
    tensor = cleared_tensor(conjugate_bent_tensor)[0]
    line_at = _PointLines(tensor, p)
    rng = random.Random(p % 1000)
    points = [[0, 1, 2, 3, 4, 5, 6]] + [[0] + [rng.randrange(p) for _ in range(6)]
                                        for _ in range(20)]
    points += [[rng.randrange(p) for _ in range(7)] for _ in range(20)]
    found = 0
    for u in points:
        rows = [[sum(u[j] * tensor[j][i][k] for j in range(7)) % p for k in range(7)]
                for i in range(7)]
        kernel = modkernel._kernel_mod_p(rows, p)
        line = line_at(u)
        if kernel is None or len(kernel[0]) != 1:
            assert line is None, (u, p)
            continue
        found += 1
        lead = pow(next(x for x in line if x), -1, p)
        assert kernel[0] == [[x * lead % p for x in line]], (u, p)
    assert found >= (len(points) if p > 3 else 1)
    assert line_at([0] * 7) is None


def test_points_solve_skips_a_prime_whose_v0_is_singular(monkeypatch):
    # a repeated first point makes the monomial matrix of the first C points
    # singular for the first prime, which is skipped; the next primes give
    # the same kernel
    eta = cross_product_map(7)
    expected = sparse_kernel(_sparse_system(eta, 2), _kernel_at_points)
    draw = _interpolation_points

    def repeated(n, count, d, p):
        points = list(draw(n, count, d, p))
        if p == modkernel.PRIMES[0]:
            points[1] = points[0]
        return points

    monkeypatch.setattr("divalg.lifting._interpolation_points", repeated)
    kernel, solves = recorded_solves(eta, 2)
    assert kernel == expected and len(expected) == 7
    assert [p for p, _ in solves] == list(modkernel.PRIMES[:2])
    assert isinstance(solves[0][1], modkernel.UnluckyPrime)


def test_degree_raises_when_no_prime_verifies(monkeypatch):
    # further points that repeat the first C add no condition, so every
    # prime's subspace is the 3-dimensional set of all Phi on the first
    # points' lines, which contains the kernel (x0, x1, x2) but is larger:
    # no candidate verifies, and the ladder ends in an error, never in an
    # unverified kernel
    eta = cross_product_map(3)
    draw = _interpolation_points

    def repeating(n, count, d, p):
        points = list(draw(n, count, d, p))
        first = monomial_count(n, d)
        points[first:] = [points[s % first] for s in range(first, count)]
        return points

    monkeypatch.setattr("divalg.lifting._interpolation_points", repeating)
    solves = []

    def recorded(mat, p):
        solves.append(_kernel_at_points(mat, p))
        return solves[-1]

    monkeypatch.setattr("divalg.lifting._kernel_at_points", recorded)
    with pytest.raises(modkernel.ModularKernelError):
        solve_lifting_scan(eta, samples=8, seed=0)
    assert len(solves) == len(modkernel.PRIMES)
    assert all(len(rows) == 3 for rows, _ in solves)
