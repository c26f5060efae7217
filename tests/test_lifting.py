import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from divalg.dissident import (
    DissidentMap,
    cross_product_map,
    quadruple_to_triple,
    random_quadruple,
    sample_vector,
    seeded_rng,
)
from divalg.lifting import (
    Lifting,
    NoLiftingFound,
    build_constraint_system,
    constraint_shape,
    degree,
    solve_lifting,
    solve_lifting_scan,
    verify_lifting,
    _sparse_system,
)
from divalg.poly import HomogeneousPoly, monomials


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
    assert (m.rows, m.cols) == (1470, 49)
    image = m.matvec(identity_coefficients(7))
    assert all(x == 0 for x in image)


def test_zero_map_gives_zero_matrix():
    m = build_constraint_system(zero_map(3), 2)
    assert all(x == 0 for row in m.entries for x in row)


def test_dense_and_sparse_systems_agree():
    eta = cross_product_map(3)
    for d in (1, 2):
        dense = build_constraint_system(eta, d)
        sparse = _sparse_system(eta, d)
        for r in range(dense.rows):
            lo, hi = int(sparse.indptr[r]), int(sparse.indptr[r + 1])
            row = {int(sparse.indices[t]): sparse.data[t] for t in range(lo, hi)}
            for c in range(dense.cols):
                assert dense[r, c] == row.get(c, 0)


def test_build_constraint_system_degree_range():
    with pytest.raises(ValueError):
        build_constraint_system(cross_product_map(3), 0)
    with pytest.raises(ValueError):
        build_constraint_system(cross_product_map(3), 6)


def test_solve_cross_products_degree_one_identity():
    for n in (3, 7):
        lifting, scan = solve_lifting_scan(cross_product_map(n), samples=24, seed=0)
        assert lifting.degree == 1
        assert lifting.components == Lifting.identity(n).components
        assert scan[0]["kernel_dim"] == 1 and scan[0]["validated"] == 1


def test_solve_quadruple_map_degree_one():
    t = quadruple_to_triple(random_quadruple(1))
    assert degree(t.eta, samples=32, seed=0) == 1


def test_degree_three_input():
    eta = bent_cross7()
    lifting, scan = solve_lifting_scan(eta, samples=32, seed=0)
    assert lifting.degree == 3
    assert [s["kernel_dim"] for s in scan] == [0, 0, 1]
    report = verify_lifting(eta, lifting, samples=16, seed=7)
    assert report["all_pass"]
    rescaled = tuple(p.scale(Fraction(2, 7)) for p in lifting.components)
    assert verify_lifting(eta, rescaled, samples=16, seed=7) == report


def test_no_lifting_for_zero_map():
    with pytest.raises(NoLiftingFound):
        solve_lifting(zero_map(3), samples=8, seed=0)


def test_homogeneity_law():
    eta = bent_cross7()
    lifting = solve_lifting(eta, samples=16, seed=0)
    rng = seeded_rng(8, "homog")
    for _ in range(5):
        v = sample_vector(rng, 7)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        lv = tuple(lam * x for x in v)
        assert lifting(lv) == tuple(lam ** lifting.degree * y for y in lifting(v))


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
    assert all(x == 0 for x in system.matvec_exact(vec))


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


def test_lift_computes_each_sample_line_once():
    # the scan and verify_lifting share the eta_P line of every sample
    script = """
import io, sys
from contextlib import redirect_stdout
import divalg.cli, divalg.dissident
original = divalg.dissident.eta_P_point
calls = []
def counting(*args):
    calls.append(1)
    return original(*args)
for name, module in list(sys.modules.items()):
    if name.startswith("divalg") and getattr(module, "eta_P_point", None) is original:
        module.eta_P_point = counting
with redirect_stdout(io.StringIO()):
    code = divalg.cli.main(["lift", "--builtin", "cross7", "--trials", "5", "--samples", "12"])
print(code, len(calls))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["0", "12"]


def test_lifting_type_invariants():
    with pytest.raises(ValueError):
        Lifting(3, 0, [HomogeneousPoly.constant(3, 1)] * 3)
    with pytest.raises(ValueError):
        Lifting(3, 2, [HomogeneousPoly.zero(3, 2)] * 3)
    x0 = HomogeneousPoly.variable(3, 0)
    with pytest.raises(ValueError):  # common factor
        Lifting(3, 2, [x0 * x0, x0 * HomogeneousPoly.variable(3, 1),
                       x0 * HomogeneousPoly.variable(3, 2)])


def test_solver_determinism():
    eta = bent_cross7()
    a = solve_lifting(eta, samples=16, seed=5)
    b = solve_lifting(eta, samples=16, seed=5)
    assert a.components == b.components
