import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from divalg.cli import main
from divalg.dissident import DissidentMap, cross_product_map
from divalg.exact import Matrix, basis_vector
from divalg.octonion import OCTONION_TABLE
from divalg.qda import AlgebraPresentation
from divalg.serialize import (
    algebra_to_json,
    canonical_json,
    map_to_json,
    plain_matrix_to_json,
    triple_to_json,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


def test_degree_cross7():
    code, report = run_json("degree", "--builtin", "cross7",
                            "--trials", "50", "--samples", "16")
    assert code == 0
    assert report["degree"] == 1
    assert report["dissidence"]["counterexample"] is None
    assert report["verification"]["all_pass"]
    assert report["version"] and report["seed"] == 0
    assert report["budgets"] == {"max_degree": 5, "samples": 16, "trials": 50}


def test_degree_random_quadruple():
    code, report = run_json("degree", "--quadruple", "random", "--seed", "7",
                            "--trials", "30", "--samples", "16")
    assert code == 0
    assert report["degree"] == 1


def test_degree_parse_error(tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text("{not json", encoding="utf-8")
    code, report = run_json("degree", "--input", str(bad))
    assert code == 2
    assert "parse error" in report["error"]


def test_degree_not_dissident_exits_3(tmp_path):
    zero = DissidentMap(3, [[[0] * 3 for _ in range(3)] for _ in range(3)])
    path = tmp_path / "zero.json"
    path.write_text(canonical_json(map_to_json(zero)), encoding="utf-8")
    code, report = run_json("degree", "--input", str(path), "--trials", "5")
    assert code == 3
    assert report["dissidence"]["counterexample"] is not None


def test_lift_emits_lifting(tmp_path):
    out = tmp_path / "phi.json"
    code, report = run_json("lift", "--builtin", "cross3", "--trials", "20",
                            "--samples", "8", "--emit", str(out))
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["kind"] == "lifting" and doc["degree"] == 1
    assert report["lifting"] == doc


def test_check_quadratic_and_division():
    code, report = run_json("check", "--what", "quadratic", "--builtin", "octonions")
    assert code == 0 and report["pass"]
    code, report = run_json("check", "--what", "division", "--builtin", "octonions",
                            "--trials", "100")
    assert code == 0 and report["pass"]


def test_check_dissident_failure(tmp_path):
    zero = DissidentMap(3, [[[0] * 3 for _ in range(3)] for _ in range(3)])
    path = tmp_path / "zero.json"
    path.write_text(canonical_json(map_to_json(zero)), encoding="utf-8")
    code, report = run_json("check", "--what", "dissident", "--input", str(path),
                            "--trials", "5")
    assert code == 1
    assert report["counterexample"] is not None


def test_check_g2(tmp_path):
    minus = tmp_path / "minusI.json"
    minus.write_text(
        canonical_json(plain_matrix_to_json(Matrix.identity(7).scale(-1))),
        encoding="utf-8",
    )
    code, report = run_json("check", "--what", "g2", "--matrix", str(minus))
    assert code == 1 and not report["pass"]

    eye = tmp_path / "I.json"
    eye.write_text(canonical_json(plain_matrix_to_json(Matrix.identity(7))),
                   encoding="utf-8")
    code, report = run_json("check", "--what", "g2", "--matrix", str(eye))
    assert code == 0 and report["pass"]


def test_build_then_recover_roundtrip(tmp_path):
    alg_path = tmp_path / "alg.json"
    code, _ = run_json("build", "--builtin", "cross7", "--emit", str(alg_path))
    assert code == 0
    code, report = run_json("recover", "--input", str(alg_path))
    assert code == 0
    assert report["result"] == triple_to_json(
        __import__("divalg.builtins", fromlist=["cross7_triple"]).cross7_triple()
    )


def test_roundtrip_command():
    code, report = run_json("roundtrip", "--builtin", "cross7")
    assert code == 0 and report["match"]
    code, report = run_json("roundtrip", "--quadruple", "random", "--seed", "3")
    assert code == 0 and report["match"]


def test_morphism_command(tmp_path):
    from divalg.octonion import extend_quaternion_automorphism, rotation_from_quaternion
    from divalg.dissident import MatrixQuadruple, quadruple_to_triple, random_quadruple
    from divalg.serialize import triple_to_json as t2j

    s = extend_quaternion_automorphism(rotation_from_quaternion((1, 0, 1, 0)))
    q = random_quadruple(4)
    conj = MatrixQuadruple(s * q.a * s.transpose(), s * q.b * s.transpose(),
                           s * q.c * s.transpose(), s * q.d * s.transpose())
    src = tmp_path / "src.json"
    dst = tmp_path / "dst.json"
    fmat = tmp_path / "S.json"
    src.write_text(canonical_json(t2j(quadruple_to_triple(q))), encoding="utf-8")
    dst.write_text(canonical_json(t2j(quadruple_to_triple(conj))), encoding="utf-8")
    fmat.write_text(canonical_json(plain_matrix_to_json(s)), encoding="utf-8")
    code, report = run_json("morphism", "--kind", "triple", "--src", str(src),
                            "--dst", str(dst), "--f", str(fmat))
    assert code == 0 and report["pass"]
    # identity fails between the two conjugated triples
    eye = tmp_path / "I.json"
    eye.write_text(canonical_json(plain_matrix_to_json(Matrix.identity(7))),
                   encoding="utf-8")
    code, report = run_json("morphism", "--kind", "triple", "--src", str(src),
                            "--dst", str(dst), "--f", str(eye))
    assert code == 1 and not report["pass"]


def test_table_dump_golden():
    code, report = run_json("table-dump", "--builtin", "octonions")
    assert code == 0
    tensor = report["result"]["tensor"]
    assert report["result"]["dim"] == 8
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert int(tensor[i][j][k]) == OCTONION_TABLE[i][j][k]
    assert tensor[1][2][3] == "1" and tensor[2][1][3] == "-1"


def test_reports_are_byte_identical():
    _, first = run_cli("degree", "--builtin", "cross3", "--seed", "5",
                       "--trials", "25", "--samples", "8")
    _, second = run_cli("degree", "--builtin", "cross3", "--seed", "5",
                        "--trials", "25", "--samples", "8")
    assert first == second
    _, third = run_cli("check", "--what", "division", "--builtin", "quaternions",
                       "--trials", "40", "--seed", "9")
    _, fourth = run_cli("check", "--what", "division", "--builtin", "quaternions",
                        "--trials", "40", "--seed", "9")
    assert third == fourth


def test_json_out_writes_same_bytes(tmp_path):
    out = tmp_path / "report.json"
    _, stdout = run_cli("check", "--what", "quadratic", "--builtin", "quaternions",
                        "--json-out", str(out))
    assert out.read_text(encoding="utf-8") == stdout


def test_input_source_exclusivity():
    code, report = run_json("degree", "--builtin", "cross3", "--quadruple", "random")
    assert code == 2


def test_solver_error_exit_codes(monkeypatch):
    # these paths only fire on solver-bug signals, so they are driven directly
    import divalg.cli as cli
    from divalg.lifting import AmbiguousKernel, NoLiftingFound

    def raise_ambiguous(*args, **kwargs):
        raise AmbiguousKernel("two validated solutions")

    monkeypatch.setattr(cli, "solve_lifting_scan", raise_ambiguous)
    code, report = run_json("degree", "--builtin", "cross3", "--trials", "5")
    assert code == 4 and "two validated" in report["error"]

    def raise_none(*args, **kwargs):
        raise NoLiftingFound("nothing up to degree 5")

    monkeypatch.setattr(cli, "solve_lifting_scan", raise_none)
    code, report = run_json("degree", "--builtin", "cross3", "--trials", "5")
    assert code == 3

    from divalg.lifting import Lifting

    def fake_even(*args, **kwargs):
        comps = []
        from divalg.poly import HomogeneousPoly

        x = [HomogeneousPoly.variable(7, i) for i in range(7)]
        comps = [x[i] * x[(i + 1) % 7] for i in range(7)]
        return Lifting(7, 2, comps), [{"degree": 2, "rows": 0, "cols": 0,
                                       "kernel_dim": 1, "validated": 1}], {}

    monkeypatch.setattr(cli, "solve_lifting_scan", fake_even)
    code, report = run_json("degree", "--builtin", "cross7", "--trials", "5",
                            "--samples", "4")
    assert code == 5 and "parity" in report["error"]


def test_not_quadratic_presentation_fails_recover_and_check(tmp_path):
    # e1^2 = e2^2 = e3^2 = -1 gives rho = (1, 0, 0, 0), but e1 e2 + e2 e1 =
    # 2 e1 leaves the unity line, so only the certificate rejects it
    constants = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        constants[0][i][i] = constants[i][0][i] = "1"
    for i in range(1, 4):
        constants[i][i][0] = "-1"
    constants[1][2][1] = constants[2][1][1] = "1"
    path = tmp_path / "alg.json"
    doc = {"kind": "algebra", "dim": 4, "structure_constants": constants,
           "unity": ["1", "0", "0", "0"]}
    path.write_text(canonical_json(doc), encoding="utf-8")
    code, report = run_json("recover", "--input", str(path))
    assert code == 1
    assert report["error"] == "NotQuadratic: x^2 - 2 rho(x) x leaves the unity line"
    code, report = run_json("check", "--what", "quadratic", "--input", str(path))
    assert code == 1 and report["pass"] is False


def represent(alg, columns):
    """`alg` re-presented in the basis f_a = sum_i P[i][a] e_i, where the
    columns of P are `columns`: its constants are P^-1 (f_a f_b) and its
    unity is P^-1 1."""
    coords = Matrix.from_columns(columns).solve_right
    constants = [[coords(alg.mul(fa, fb)) for fb in columns] for fa in columns]
    return AlgebraPresentation(constants, coords(alg.unity))


def _octonion_basis(a, f_a):
    """(1, e1, ..., e7) with the a-th element replaced by f_a."""
    cols = [basis_vector(8, i) for i in range(8)]
    cols[a] = tuple(Fraction(x) for x in f_a)
    return cols


# stdout digests of `recover --input` on the octonions in three bases,
# frozen before the recovery read basis products from the table
OTHER_BASES = [
    # f1 = e1 + e2: the form has norm 2 on f1, so Gram-Schmidt leaves Q
    ("skew.json", _octonion_basis(1, (0, 1, 1, 0, 0, 0, 0, 0)), 1,
     "9f0cc6bc6f177f68978fd86d3468e5c731a740f835e58d17c248adaf1a1900eb"),
    # f3 = 1/2 + 2 e3: rho(f3) = 1/2, and f3 - rho(f3) 1 has norm 4
    ("half.json", _octonion_basis(3, (Fraction(1, 2), 0, 0, 2, 0, 0, 0, 0)), 0,
     "85b7ec6cdbad1bfd26378cb271265c437c8a5c5aaafeb8f96ff221d6d51ec5b5"),
    # f0 = 1 + e1: the unity is f0 - f1
    ("shifted.json", _octonion_basis(0, (1, 1, 0, 0, 0, 0, 0, 0)), 0,
     "e5a8f6f9299cc7f47b1c67a4447a451139513d198bce23c512187009dcd8310b"),
]


@pytest.mark.parametrize("name,columns,exit_code,digest", OTHER_BASES,
                         ids=[name for name, *_ in OTHER_BASES])
def test_recover_octonions_in_other_bases(tmp_path, monkeypatch, name, columns,
                                          exit_code, digest):
    from divalg.builtins import octonion_algebra

    (tmp_path / name).write_text(
        canonical_json(algebra_to_json(represent(octonion_algebra(), columns))),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out = run_cli("recover", "--input", name)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    if exit_code:
        certificate = json.loads(out)["certificate"]
        assert certificate["diagonal_norms"] == ["2", "1/2", "1", "1", "1", "1", "1"]
    code, report = run_json("check", "--what", "quadratic", "--input", name)
    assert code == 0 and report["pass"]


def _write_inputs(directory, conj):
    """Inputs for the golden and rejection runs, written under relative
    names so the reports (which echo input paths) do not depend on the
    directory.  `conj` is the tensor of conj.json."""
    from divalg.builtins import cross7_triple, identity_quadruple
    from divalg.dissident import DissidentTriple
    from divalg.qda import make_qda
    from divalg.serialize import quadruple_to_json

    t = [[list(c) for c in row] for row in cross_product_map(7).tensor]
    t[0][1][4] += 1
    t[1][0][4] -= 1  # the README's degree-3 example: eta(e1 ^ e2) = e3 + e5
    # eta(e1 ^ e2) = e3, eta(e1 ^ e3) = e1, eta(e2 ^ e3) = 0: not dissident
    partial = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    partial[0][1][2], partial[1][0][2] = 1, -1
    partial[0][2][0], partial[2][0][0] = 1, -1
    zero_eta = DissidentTriple(7, Matrix.zeros(7, 7), DissidentMap(7, [[[0] * 7] * 7] * 7))
    docs = {
        "bent3.json": map_to_json(DissidentMap(7, t)),
        "conj.json": map_to_json(DissidentMap(7, conj)),
        "partial.json": map_to_json(DissidentMap(3, partial)),
        "zeroeta.json": algebra_to_json(make_qda(zero_eta)),
        "triple.json": triple_to_json(cross7_triple()),
        "quad.json": quadruple_to_json(identity_quadruple()),
        "I7.json": plain_matrix_to_json(Matrix.identity(7)),
        "I8.json": plain_matrix_to_json(Matrix.identity(8)),
        "Z8.json": plain_matrix_to_json(Matrix.zeros(8, 8)),
    }
    for name, doc in docs.items():
        (directory / name).write_text(canonical_json(doc), encoding="utf-8")


# stdout digests frozen before the input resolution and verify_lifting were
# rewritten; none of these bytes is checked by a benchmark workload
GOLDEN_STDOUT_SHA256 = [
    (("degree", "--builtin", "cross3"),
     "f1bc6111794346cd0d2f9a665afd48be6c4f8fbe9860917fd6b347908b1821e1"),
    (("lift", "--input", "bent3.json", "--samples", "16"),
     "3322ea1c59c0b67de0c8aed36f73bbf35e24a6683167d67366c354eb381a4609"),
    (("roundtrip", "--builtin", "cross7"),
     "e32d77f093b97333efd56036a6e1e18818c2c52174f6cac64f5b5c71fe9cbb78"),
    (("recover", "--builtin", "octonions"),
     "6f5820eac1502e1fb4ba2544cf79f74eb05796b5eb0fc82c3cdb3959781caf43"),
    (("build", "--quadruple", "random", "--seed", "0"),
     "7cb1518c4c503e673ad4cfd0103ce08bcb605c3aa644a85b5316beba69732eb8"),
    (("check", "--what", "division", "--builtin", "quaternions", "--trials", "40"),
     "c3b0c5c751ac56a2de1edf97009633bad058a444d501d4fe04d81d3203763850"),
    (("morphism", "--kind", "algebra", "--src", "octonions", "--dst", "octonions",
      "--f", "I8.json"),
     "4a5348e4328955cf8135d6115512bde80a1986f1cc801d87a4eb9cbaf4f44ad1"),
    # frozen before the constraint system was divided by |v|^2: the scan
    # entries of these runs keep reporting the paper's system shape
    (("degree", "--quadruple", "random", "--seed", "0", "--trials", "200"),
     "3292f1ab1c3898e199fffb6ba5b34befe59ab573cd16dae4f332e199db1861a6"),
    (("lift", "--builtin", "cross7", "--samples", "16"),
     "6a54c909f10b7baf40a36e4a5ca8b4daa1555b03341aeaad25c2edb6de9de0f6"),
    (("lift", "--input", "conj.json", "--samples", "16"),
     "95db9607bb424e9dc50a4c971773118394c7b2f9cfac56b204005cd6dbfc4944"),
    # frozen before the sampled falsifiers were screened mod p: runs that
    # report a witness, and a division budget of 1000 that passes.  Seed 18
    # of partial.json redraws a dependent pair before its witness.
    (("check", "--what", "dissident", "--input", "partial.json", "--seed", "18"),
     "b8d747ee2e14016ec27c8aada0892661866b56a1bc1a6f9984ec1d8d6512e9ef"),
    (("degree", "--input", "partial.json"),
     "3b61cea3709b9b22a21dbb66f66d9756e0faf99f3dcc1f40627c8de1b6a8d439"),
    (("check", "--what", "division", "--input", "zeroeta.json"),
     "0743aaf91e56bc2fd16e4d1c4e7778a2fe81efd8db065e19e2f417793bd92bc8"),
    (("check", "--what", "division", "--builtin", "octonions", "--trials", "1000"),
     "e5f8a0ae0e7dc5a2a0b569bb78fec3ca303bff917195b9d5d7e903fe0e2ec0e2"),
]

# the exit codes of the golden runs that do not exit 0
GOLDEN_EXIT_CODES = {
    ("check", "--what", "dissident", "--input", "partial.json", "--seed", "18"): 1,
    ("degree", "--input", "partial.json"): 3,
    ("check", "--what", "division", "--input", "zeroeta.json"): 1,
}


def _golden_ids(entries):
    """Each run named by its first three arguments, or by all of them when
    an earlier run has the same first three."""
    ids = []
    for argv, _ in entries:
        name = " ".join(argv[:3])
        ids.append(" ".join(argv) if name in ids else name)
    return ids


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT_SHA256,
                         ids=_golden_ids(GOLDEN_STDOUT_SHA256))
def test_golden_stdout(tmp_path, monkeypatch, conjugate_bent_tensor, argv, digest):
    _write_inputs(tmp_path, conjugate_bent_tensor)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(*argv)
    assert code == GOLDEN_EXIT_CODES.get(argv, 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


REJECTED_SOURCES = [
    ("degree", "--quadruple", "triple.json"),
    ("build", "--triple", "quad.json"),
    ("build", "--triple", "bent3.json"),
    ("recover", "--input", "triple.json"),
    ("check", "--what", "division", "--input", "bent3.json"),
    ("check", "--what", "quadratic", "--input", "bent3.json"),
    ("degree", "--builtin", "octonions"),
    ("roundtrip", "--input", "I7.json"),
    ("morphism", "--kind", "triple", "--src", "quad.json", "--dst", "cross7",
     "--f", "I7.json"),
    ("morphism", "--kind", "triple", "--src", "bent3.json", "--dst", "cross7",
     "--f", "I7.json"),
    ("morphism", "--kind", "algebra", "--src", "identity-quadruple",
     "--dst", "octonions", "--f", "I8.json"),
    ("morphism", "--kind", "algebra", "--src", "quad.json",
     "--dst", "octonions", "--f", "I8.json"),
    ("build", "--builtin", "cross7", "--triple", "triple.json"),
    # matrices of the wrong shape, and the zero map
    ("check", "--what", "g2", "--matrix", "I8.json"),
    ("morphism", "--kind", "triple", "--src", "cross7", "--dst", "cross7",
     "--f", "I8.json"),
    ("morphism", "--kind", "algebra", "--src", "octonions", "--dst", "octonions",
     "--f", "I7.json"),
    ("morphism", "--kind", "algebra", "--src", "octonions", "--dst", "octonions",
     "--f", "Z8.json"),
    ("morphism", "--kind", "triple", "--src", "cross3", "--dst", "cross7",
     "--f", "I7.json"),
    ("morphism", "--kind", "algebra", "--src", "quaternions", "--dst", "octonions",
     "--f", "I8.json"),
]


@pytest.mark.parametrize("argv", REJECTED_SOURCES, ids=" ".join)
def test_rejected_sources_exit_2(tmp_path, monkeypatch, conjugate_bent_tensor, argv):
    _write_inputs(tmp_path, conjugate_bent_tensor)
    monkeypatch.chdir(tmp_path)
    code, report = run_json(*argv, "--trials", "5")
    assert code == 2
    assert "parse error" in report["error"]


def test_benchmark_trace_finds_every_entry_point(perfbench_tracer):
    # a renamed or reshaped entry point would read null in the benchmark's
    # per-layer metrics; its hooks run on a small traced lift
    tracer = perfbench_tracer.Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        code, _ = run_cli("lift", "--builtin", "cross3", "--trials", "5", "--samples", "4")
        assert code == 0
        assert tracer.missing == {}
        assert tracer.counts["lifting.assemble.rows.d1"] > 0
        for argv in (("recover", "--builtin", "octonions"),
                     ("check", "--what", "quadratic", "--builtin", "quaternions")):
            code, _ = run_cli(*argv)
            assert code == 0
        assert tracer.missing == {}
        assert tracer.spans["qda.recover_triple"].calls > 0
        assert tracer.spans["octonion.frobenius_split"].calls > 0
    finally:
        tracer.uninstall()
    import divalg.lifting
    assert not hasattr(divalg.lifting.solve_lifting_scan, "__wrapped__")


def test_cli_import_leaves_sympy_unloaded():
    # sympy is needed only by the content GCD; importing it costs most of
    # the start-up time of every command
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, divalg.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    ).stdout
    assert out.strip() == "False"
