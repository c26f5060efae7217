"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`.

Every check is exact (zero tolerance) unless a runtime bound is stated.  The
degree-3 and degree-5 inputs are structure tensors supplied by this suite
(a bent vector product and a seeded random antisymmetric tensor, both passing
the dissidence falsification budget); for them acceptance is full lifting
verification plus minimality of the scan, not a pinned number.
"""

import functools
import io
import json
import time
from contextlib import redirect_stdout

import pytest

from divalg.builtins import octonion_algebra
from divalg.cli import main
from divalg.dissident import (
    DissidentMap,
    MatrixQuadruple,
    cross_product_map,
    dissidence_falsify,
    quadruple_to_triple,
    random_quadruple,
    sample_vector,
    seeded_rng,
    triple_morphism_check,
)
from divalg.exact import Matrix, dot
from divalg.lifting import solve_lifting_scan, verify_lifting
from divalg.octonion import (
    extend_quaternion_automorphism,
    frobenius_form,
    frobenius_split,
    g2_check,
    rotation_from_quaternion,
)
from divalg.qda import (
    algebra_morphism_check,
    division_check,
    functor_on_morphism,
    make_qda,
    quadratic_check,
    recover_triple,
)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")
        return run
    return wrap


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# shared heavy computations (computed once per session)


@pytest.fixture(scope="session")
def bent3():
    """Degree-3 input: the vector product with eta(e1 ^ e2) = e3 + e5."""
    x7 = cross_product_map(7)
    tensor = [[list(cell) for cell in row] for row in x7.tensor]
    tensor[0][1][4] += 1
    tensor[1][0][4] -= 1
    eta = DissidentMap(7, tensor)
    assert dissidence_falsify(eta, 1000, 0) is None
    lifting, scan, _ = solve_lifting_scan(eta, samples=32, seed=0)
    return eta, lifting, scan


@pytest.fixture(scope="session")
def quadruple_pipeline():
    """Criterion 2 workload: ten seeded random quadruples through the whole
    pipeline, with the per-map degree scans kept for the parity and
    uniqueness criteria."""
    start = time.perf_counter()
    results = []
    for seed in range(10):
        q = random_quadruple(seed)
        triple = quadruple_to_triple(q)
        falsified = dissidence_falsify(triple.eta, 1000, seed)
        alg = make_qda(triple)
        quadratic = quadratic_check(alg)
        division_witness = division_check(alg, 1000, seed)
        lifting, scan, _ = solve_lifting_scan(triple.eta, samples=32, seed=seed)
        results.append({
            "seed": seed,
            "falsified": falsified,
            "quadratic": quadratic,
            "division_witness": division_witness,
            "degree": lifting.degree,
            "scan": scan,
        })
    return results, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criteria


@criterion(1, "vector-product degree")
def test_criterion_1_cross_product_degrees():
    for name, n in (("cross7", 7), ("cross3", 3)):
        start = time.perf_counter()
        code, out = run_cli("degree", "--builtin", name)
        elapsed = time.perf_counter() - start
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 1
        identity = [
            [{"coeff": "1", "exponents": [int(i == t) for t in range(n)]}]
            for i in range(n)
        ]
        assert report["lifting"]["components"] == identity
        assert elapsed < 5.0, f"{name} took {elapsed:.1f}s (budget 5s)"


@criterion(2, "quadruple pipeline")
def test_criterion_2_quadruple_pipeline(quadruple_pipeline):
    results, elapsed = quadruple_pipeline
    assert len(results) >= 10
    for row in results:
        assert row["falsified"] is None, f"seed {row['seed']} not dissident"
        assert row["quadratic"], f"seed {row['seed']} fails quadratic check"
        assert row["division_witness"] is None, f"seed {row['seed']} fails division"
        assert row["degree"] == 1, f"seed {row['seed']} degree {row['degree']}"
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s (budget 5 min)"


@criterion(3, "parity of every computed degree")
def test_criterion_3_parity(quadruple_pipeline, bent3, rand5):
    degrees = {}
    for n in (3, 7):
        lifting, _, _ = solve_lifting_scan(cross_product_map(n), samples=16, seed=0)
        degrees[f"cross{n}"] = lifting.degree
    for row in quadruple_pipeline[0]:
        degrees[f"quadruple-{row['seed']}"] = row["degree"]
    bent_eta, bent_lift, bent_scan = bent3
    degrees["bent-cross7"] = bent_lift.degree
    rand_eta, rand_lift, rand_scan, _ = rand5
    degrees["random-antisymmetric-7"] = rand_lift.degree

    for name, d in degrees.items():
        assert d in {1, 3, 5}, f"{name}: even/out-of-range degree {d}"

    # degrees 1, 3, 5 are all realized: the bound is sharp
    assert set(degrees.values()) == {1, 3, 5}

    # for the higher-degree inputs: full verification plus scan minimality
    for eta, lifting, scan in ((bent_eta, bent_lift, bent_scan),
                               (rand_eta, rand_lift, rand_scan)):
        report = verify_lifting(eta, lifting, samples=16, seed=3)
        assert report["all_pass"]
        for entry in scan:
            if entry["degree"] < lifting.degree:
                assert entry["kernel_dim"] == 0, "kernel below the minimal degree"


@criterion(4, "uniqueness at the minimal degree")
def test_criterion_4_uniqueness(quadruple_pipeline, bent3, rand5):
    scans = [row["scan"] for row in quadruple_pipeline[0]]
    scans.append(bent3[2])
    scans.append(rand5[2])
    for n in (3, 7):
        scans.append(solve_lifting_scan(cross_product_map(n), samples=16, seed=0)[1])
    for scan in scans:
        final = scan[-1]
        assert final["validated"] == 1, f"validated space is {final['validated']}-dim"


@criterion(5, "octonion identities")
def test_criterion_5_octonion_identities():
    start = time.perf_counter()
    alg = octonion_algebra()
    rho, _ = frobenius_split(alg)
    assert frobenius_form(alg, rho) == Matrix.identity(8)

    rng = seeded_rng(100, "octonion-samples")
    unity = alg.unity
    for _ in range(100):
        x = sample_vector(rng, 8)
        rho_x = x[0]
        iota_sq = dot(x[1:], x[1:])
        sq = alg.mul(x, x)
        residue = tuple(
            s - 2 * rho_x * xi + (rho_x ** 2 + iota_sq) * u
            for s, xi, u in zip(sq, x, unity)
        )
        assert all(v == 0 for v in residue)

    rng = seeded_rng(101, "octonion-dets")
    for _ in range(100):
        a = sample_vector(rng, 8)
        norm = a[0] ** 2 + dot(a[1:], a[1:])
        assert alg.left_mul_matrix(a).det() == norm ** 4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"


@criterion(6, "round-trip recovery")
def test_criterion_6_roundtrip():
    start = time.perf_counter()
    from divalg.builtins import cross7_triple

    base = cross7_triple()
    image = make_qda(base)
    assert image == octonion_algebra()  # entry-for-entry table equality
    assert recover_triple(image) == base

    count = 0
    for seed in range(24):
        triple = quadruple_to_triple(random_quadruple(seed))
        assert recover_triple(make_qda(triple)) == triple
        count += 1
    assert count + 1 == 25
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


@criterion(7, "morphism transport along G2")
def test_criterion_7_morphism_transport():
    start = time.perf_counter()
    automorphisms = [
        rotation_from_quaternion((1, 1, 0, 0)),
        rotation_from_quaternion((1, 0, 1, 0)),
        rotation_from_quaternion((1, 1, 1, 1)),
        rotation_from_quaternion((2, 1, 0, 2)),
        Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),  # i <-> j, k -> -k
    ]
    members = [extend_quaternion_automorphism(r) for r in automorphisms]
    for idx, s in enumerate(members):
        assert g2_check(s), f"member {idx} fails G2 membership"
        q = random_quadruple(50 + idx)
        conj = MatrixQuadruple(
            s * q.a * s.transpose(), s * q.b * s.transpose(),
            s * q.c * s.transpose(), s * q.d * s.transpose(),
        )
        src = quadruple_to_triple(q)
        dst = quadruple_to_triple(conj)
        assert triple_morphism_check(src, dst, s)
        assert algebra_morphism_check(make_qda(src), make_qda(dst),
                                      functor_on_morphism(s))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


@criterion(8, "solver scalability")
def test_criterion_8_scalability(rand5):
    _, lifting, scan, elapsed = rand5
    assert [entry["degree"] for entry in scan] == [1, 2, 3, 4, 5]
    assert scan[-1]["rows"] == 21021 and scan[-1]["cols"] == 3234
    assert lifting.degree == 5
    assert elapsed < 900.0, f"full scan took {elapsed:.1f}s (budget 15 min)"

    start = time.perf_counter()
    code, out = run_cli("degree", "--builtin", "cross7")
    short = time.perf_counter() - start
    assert code == 0 and json.loads(out)["degree"] == 1
    assert short < 10.0, f"degree-1 short circuit took {short:.1f}s (budget 10s)"


@criterion(9, "deterministic reports")
def test_criterion_9_determinism():
    first = run_cli("degree", "--builtin", "cross7", "--seed", "11",
                    "--trials", "200", "--samples", "24")
    second = run_cli("degree", "--builtin", "cross7", "--seed", "11",
                     "--trials", "200", "--samples", "24")
    assert first == second

    third = run_cli("degree", "--quadruple", "random", "--seed", "6",
                    "--trials", "100", "--samples", "16")
    fourth = run_cli("degree", "--quadruple", "random", "--seed", "6",
                     "--trials", "100", "--samples", "16")
    assert third == fourth

    fifth = run_cli("check", "--what", "division", "--builtin", "octonions",
                    "--trials", "150", "--seed", "2")
    sixth = run_cli("check", "--what", "division", "--builtin", "octonions",
                    "--trials", "150", "--seed", "2")
    assert fifth == sixth
