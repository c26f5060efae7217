import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from divalg.cli import _COMMANDS, BUILTIN_NAMES, build_parser, main
from divalg.dissident import DissidentMap, cross_product_map
from divalg.exact import Matrix, basis_vector
from divalg.octonion import OCTONION_TABLE
from divalg.qda import AlgebraPresentation
from divalg.serialize import (
    algebra_to_json,
    canonical_json,
    lifting_to_json,
    map_to_json,
    plain_matrix_to_json,
    triple_to_json,
)
from conftest import _perfbench_module


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


@pytest.mark.parametrize("command", ["degree", "lift"])
def test_an_exhausted_prime_ladder_exits_3(monkeypatch, command):
    # the prime ladder is a budget: a kernel it cannot reconstruct is no
    # lifting found within budget, reported with the error, never a traceback
    import divalg.lifting
    from divalg.modkernel import sparse_kernel

    monkeypatch.setattr(divalg.lifting, "sparse_kernel", functools.partial(sparse_kernel, primes=()))
    code, report = run_json(command, "--builtin", "cross7", "--trials", "5", "--samples", "4")
    assert code == 3
    assert report["error"] == "kernel not reconstructible with 0 primes (196x49)"
    assert "scan" not in report and "lifting" not in report


# SHA-256 of the stdout of `degree --input lineless.json`, frozen before the
# scan decided "no lifting" from its validation samples
LINELESS_DEGREE_SHA256 = "186941ef84acfbb84211422b7eaf159c3558ef430927888ce6af9f7a88f52dc9"


def test_degree_of_a_map_without_lines(tmp_path, monkeypatch):
    # R^7 with eta the cross product on e1, e2, e3 and zero elsewhere: a
    # random eta(v ^ w) lies outside span(v, w), so the map passes the
    # dissidence trials, but eta_P is defined at no point.  A validation
    # sample without a line decides the scan before its first kernel.
    x3 = cross_product_map(3).tensor
    tensor = [[[x3[i][j][k] if max(i, j, k) < 3 else 0 for k in range(7)] for j in range(7)]
              for i in range(7)]
    (tmp_path / "lineless.json").write_text(canonical_json(map_to_json(DissidentMap(7, tensor))),
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out = run_cli("degree", "--input", "lineless.json")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["dissidence"]["counterexample"] is None
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LINELESS_DEGREE_SHA256


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


@pytest.mark.parametrize("argv", [("table-dump", "--builtin", "octonions", "--emit"),
                                  ("lift", "--builtin", "cross3", "--trials", "5",
                                   "--samples", "4", "--json-out")],
                         ids=["emit", "json-out"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_an_unwritable_output_path_exits_2(tmp_path, argv, where):
    # the files are written before the report, so a path that cannot be
    # written leaves one parse error document on stdout, with no traceback
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv, str(path))
    assert code == 2 and err.getvalue() == ""
    report = json.loads(out)
    assert list(report) == ["error"]
    assert report["error"].startswith(f"parse error: cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_input_source_exclusivity():
    code, report = run_json("degree", "--builtin", "cross3", "--quadruple", "random")
    assert code == 2


def test_solver_error_exit_codes(monkeypatch):
    # these paths only fire on solver-bug signals, so they are driven directly;
    # cmd_degree imports the scan when it runs, so it is patched in lifting
    import divalg.lifting as lifting
    from divalg.lifting import AmbiguousKernel, NoLiftingFound

    def raise_ambiguous(*args, **kwargs):
        raise AmbiguousKernel("two validated solutions")

    monkeypatch.setattr(lifting, "solve_lifting_scan", raise_ambiguous)
    code, report = run_json("degree", "--builtin", "cross3", "--trials", "5")
    assert code == 4 and "two validated" in report["error"]

    def raise_none(*args, **kwargs):
        raise NoLiftingFound("nothing up to degree 5")

    monkeypatch.setattr(lifting, "solve_lifting_scan", raise_none)
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

    monkeypatch.setattr(lifting, "solve_lifting_scan", fake_even)
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
    # frozen before numpy was imported only by the commands that run mod-p
    # arithmetic: commands that run none, each exiting 0
    (("check", "--what", "quadratic", "--builtin", "octonions"),
     "c743b04e469ed769953ce30b6bf177dc53d0c864bca06f5d2acf3b25b54853d1"),
    (("check", "--what", "quadratic", "--input", "zeroeta.json"),
     "8aa93dd72daadbc2116117af505d78c2ea4e32c83259b6a6c6e8d872b16b8e70"),
    (("check", "--what", "g2", "--matrix", "I7.json"),
     "36e1f7c084a6cbb103bf6487e85a29c19415d355f5acb7ef4b2b9e97042f497a"),
    (("morphism", "--kind", "triple", "--src", "cross7", "--dst", "cross7",
      "--f", "I7.json"),
     "7d4e8cc6f92b96f1929909123a21f537cf8e3a16bf3887112f548afcaa1483ce"),
    # frozen before the falsifiers screened integer images of their tables
    # and draws: both falsifiers on tables with denominators, each exiting 0
    (("check", "--what", "division", "--quadruple", "random", "--seed", "0",
      "--trials", "200"),
     "3a418dc6e91a347adb19a41a1b922c6b898c80f9866239501ef0861a5407f44b"),
    (("check", "--what", "dissident", "--quadruple", "random", "--seed", "1",
      "--trials", "200"),
     "a8a0b49ffef38bb316f63604969caf741d28e30641a7b58ac5c08cf93822757c"),
    # frozen before each degree's kernel was solved mod p from the eta_P
    # lines at points: scans of dissident maps, and two scans of a map that
    # is not dissident.  Seeds 3 and 6 of partial.json find no witness in
    # 200 trials, so its scan runs and ends in exit 4 and exit 3.
    (("degree", "--builtin", "cross7"),
     "123ebf2f6f5f65ed3e409acb343580b28d6a162d3fba2a763568f150e8c46acd"),
    (("degree", "--input", "conj.json"),
     "6000b840325c9e73974748672c4583be80abd715be9062a92b545389677c8a6d"),
    (("degree", "--quadruple", "random", "--seed", "0"),
     "7dc8773b91b0066ac8ba1bb671ce421d8989f5a88e780ad86bf3770fd6b15ea0"),
    (("degree", "--input", "partial.json", "--seed", "3", "--trials", "200"),
     "b1bd73509730abe4cfd2d166828f10566b8557b2bc1685080247359c771871f5"),
    (("degree", "--input", "partial.json", "--seed", "6", "--trials", "200"),
     "8d3ed710bc81c637e87a25a3b2ab9b7568a0f36299d50c64c2fb6bf7319c78ce"),
]

# the exit codes of the golden runs that do not exit 0
GOLDEN_EXIT_CODES = {
    ("check", "--what", "dissident", "--input", "partial.json", "--seed", "18"): 1,
    ("degree", "--input", "partial.json"): 3,
    ("check", "--what", "division", "--input", "zeroeta.json"): 1,
    ("degree", "--input", "partial.json", "--seed", "3", "--trials", "200"): 4,
    ("degree", "--input", "partial.json", "--seed", "6", "--trials", "200"): 3,
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


def _skew_quadruple():
    """A quadruple whose D is not diagonal: D = S diag S^t for the G2
    element S that extends the quaternion rotation of (1, 2, 3, 4), with A
    and B drawn as random_quadruple draws them and a tridiagonal C."""
    from divalg.dissident import MatrixQuadruple, random_antisymmetric, seeded_rng
    from divalg.octonion import extend_quaternion_automorphism, rotation_from_quaternion

    rng = seeded_rng(0, "skew")
    a = random_antisymmetric(rng)
    b = random_antisymmetric(rng)
    c = Matrix([[Fraction(5, 2) if i == j else Fraction(-1, 3) if abs(i - j) == 1 else 0
                 for j in range(7)] for i in range(7)])
    s = extend_quaternion_automorphism(rotation_from_quaternion((1, 2, 3, 4)))
    diag = [2, Fraction(1, 2), 3, Fraction(1, 3), Fraction(5, 2), Fraction(2, 5), 1]
    d = s * Matrix.diagonal(diag) * s.transpose()
    return MatrixQuadruple(a, b, c, d)


# stdout digests of the degree-1 pipeline, frozen before the quadruple ->
# triple -> algebra -> triple products ran on integer multiples: per
# source, build (emitting alg.json), recover of that alg.json, degree at
# 200 trials and roundtrip; then the division check at 200 trials and the
# quadratic check, frozen before the division check ran in Python ints
QUADRUPLE_SHA256 = {
    ("random", "1"): (
        "ce7035e25aa96e941cfbd77db2b031351dd63f991c63824ece83dcf07ee8e75d",
        "9da3237c05b267a7422ebc65e92fc2660ddaf4930a9e393a22b9cd942bae6c46",
        "dd9fdafdc32e6f3503eb0c762f9acdd8ac141d38b012751ed740371f5a1cc0e0",
        "6b1e06475c85020caa5f43b456fc5ff7da98954eecef153099ca0730789588ca",
        "5e2cbf7d02d3179f73298c69be665ffb477e2ca01b2bb14b549d843bc2f6bc2d",
        "fb2003dc65fe1ac450068d46b5c564861bef9f15d7a2c5b529f47a2b518bd10e",
    ),
    ("random", "2"): (
        "77465cea0bc36cf4d9d415d1e1e16915ea8cb707aca26facef5715bd548c6a06",
        "9b16f62ecf445e001336de61f80a7c15d454ac6772996a78b3e17af950bf2ba5",
        "d1554b1fc0c50af78935d31648caf007a7e4591e5949cb51019e95570720a9dd",
        "b538cf0e6e0f81bc9421575b30d6f34cd1ab96ce4ab47469b70a9e3e9297a4cb",
        "7261d6ca6c6717a323d7fa8ef4443dfafda720e215af5b85123d7d56df66346b",
        "0beab7bc7dbfb000f3b7051fa3c2f04e3dc5f76495ce121317d31d10a6734e44",
    ),
    ("random", "5"): (
        "20dfb2d476f7ff59fd392c026708bfe1eb9ffb87fb2f8d23ba16d0b460eba177",
        "0b3859cd12e5dc5979c3609dd833392eccc68219f6749db2e33599e910882c43",
        "5a2f0a2613e4bf87e015468606fc9dd73e60228cdaed94f391797c651e8658d4",
        "8f7657793baf5c389e27bd6b0aea5d2716bfbfac02ed1f36cc48d11c9212f4b3",
        "7c2842b0aca28cf6b5d39d0863ba4fcbc441ac16ba97a3f833d864793ad3ac11",
        "ddf61e72fe307e3e90bc0f06b1639222fe8662cdd98dbc78dadb38c5f6c5948a",
    ),
    ("random", "182"): (
        "a0f1ad05aff11f9f560b8e6ffdf31461a36a902f20df2ab776486b48bdc5797e",
        "019a2cec0405080e3d6272ea057fe3a497743e0d2f9ab4f11f5c763ca857f0f1",
        "8d5501f409383697c2525c003a6b694876ff9ea17aadd706ffb3d71fa589cc24",
        "c178eaf4a246a973f39c29fe0ce4125981a47e48cd8ec48f08f0d5b8b7ff8a25",
        "587ccce29fd018555fcfe9fe15bd6e5ce399e3eafa44c615ad2965b834aab85f",
        "86340a9bf974b418095ddc079b1079cfb93a1023bef431ecbb0c933328b9e59e",
    ),
    # the file written from _skew_quadruple(); --seed is not read
    ("skew.json", "0"): (
        "cfad6894d9e88a4e0de8f21055a7fd9403035688489a51c1594796e6ce6992eb",
        "08c21e8bdcd204672e39ce2ce2c6e273a1e02d573a0523b4c48807c60d75c7da",
        "6b606326d8a21ac9beac3e371cef23977267fb476b5ca0d159dd8f7e87cbb7c8",
        "a7dffd007d3b458c3ac44277855340e7bd36c6234d9ae484ddaa6894b12a4b17",
        "8353714370868f6e4b7710d94bef131da8439a47d68731fd6fb411d0ea74d177",
        "c53e7475a5b95bd5656457ec1d29cf561e2e4a4b16a9fb7fb710874151b31028",
    ),
}


@pytest.mark.parametrize("source,seed", sorted(QUADRUPLE_SHA256))
def test_quadruple_pipeline_stdout(tmp_path, monkeypatch, source, seed):
    from divalg.serialize import quadruple_to_json

    monkeypatch.chdir(tmp_path)
    if source != "random":
        Path(source).write_text(canonical_json(quadruple_to_json(_skew_quadruple())),
                                encoding="utf-8")
    flags = ("--quadruple", source, "--seed", seed)
    runs = [("build", *flags, "--emit", "alg.json"),
            ("recover", "--input", "alg.json"),
            ("degree", *flags, "--trials", "200"),
            ("roundtrip", *flags),
            ("check", "--what", "division", *flags, "--trials", "200"),
            ("check", "--what", "quadratic", *flags)]
    digests = []
    for argv in runs:
        code, out = run_cli(*argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == QUADRUPLE_SHA256[source, seed]


REJECTED_SOURCES = [
    ("degree", "--quadruple", "triple.json"),
    ("build", "--triple", "quad.json"),
    ("build", "--triple", "bent3.json"),
    ("recover", "--input", "triple.json"),
    ("check", "--what", "division", "--input", "bent3.json"),
    ("check", "--what", "quadratic", "--input", "bent3.json"),
    ("degree", "--builtin", "octonions"),
    ("roundtrip", "--input", "I7.json"),
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


# the exit code of a morphism check from each source, into cross7 by I7
# (--kind triple) or into the octonions by I8 (--kind algebra).  A triple
# side takes what roundtrip takes, a triple, map or quadruple, and an
# algebra side what build takes, an algebra, triple or quadruple.
MORPHISM_EXIT_CODES = {
    ("triple", "cross7"): 0,
    ("triple", "cross3"): 2,
    ("triple", "octonions"): 2,
    ("triple", "identity-quadruple"): 0,
    ("triple", "triple.json"): 0,
    ("triple", "quad.json"): 0,
    ("triple", "bent3.json"): 1,
    ("triple", "partial.json"): 2,
    ("triple", "zeroeta.json"): 2,
    ("algebra", "cross7"): 0,
    ("algebra", "octonions"): 0,
    ("algebra", "quaternions"): 2,
    ("algebra", "identity-quadruple"): 0,
    ("algebra", "triple.json"): 0,
    ("algebra", "quad.json"): 0,
    ("algebra", "bent3.json"): 2,
    ("algebra", "zeroeta.json"): 1,
}


@pytest.mark.parametrize("kind,src", MORPHISM_EXIT_CODES,
                         ids=[" ".join(key) for key in MORPHISM_EXIT_CODES])
def test_morphism_exit_codes(tmp_path, monkeypatch, conjugate_bent_tensor, kind, src):
    _write_inputs(tmp_path, conjugate_bent_tensor)
    monkeypatch.chdir(tmp_path)
    dst, f = ("cross7", "I7.json") if kind == "triple" else ("octonions", "I8.json")
    code, _ = run_cli("morphism", "--kind", kind, "--src", src, "--dst", dst, "--f", f)
    assert code == MORPHISM_EXIT_CODES[kind, src]


def traced_counts(tracer, span):
    """The tracer's counts under a span, by the rest of their names: the
    constraint systems' rows and nonzero cells per degree
    (lifting.assemble), or the primes solved per degree
    (modkernel.eliminate)."""
    return {k[len(span) + 1:]: v for k, v in tracer.counts.items()
            if k.startswith(span + ".")}


def test_benchmark_trace_finds_every_entry_point(perfbench_tracer, tmp_path, monkeypatch,
                                                 conjugate_bent_tensor):
    # a renamed or reshaped entry point would read null in the benchmark's
    # per-layer metrics; its hooks run on small traced lifts, and the
    # system sizes and primes per degree they count are frozen: cross3 at
    # d = 1, then the conjugated bent map of lift-deg3-conj at d = 1, 2, 3
    _write_inputs(tmp_path, conjugate_bent_tensor)
    monkeypatch.chdir(tmp_path)
    tracer = perfbench_tracer.Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        code, _ = run_cli("lift", "--builtin", "cross3", "--trials", "5", "--samples", "4")
        assert code == 0
        assert tracer.missing == {}
        assert traced_counts(tracer, "lifting.assemble") == {"rows.d1": 18, "nnz.d1": 18}
        assert traced_counts(tracer, "modkernel.eliminate") == {"primes.d1": 1}
        code, _ = run_cli("lift", "--input", "conj.json", "--trials", "5", "--samples", "4")
        assert code == 0
        assert traced_counts(tracer, "lifting.assemble") == {
            "rows.d1": 18 + 196, "nnz.d1": 18 + 1330, "rows.d2": 588, "nnz.d2": 5320,
            "rows.d3": 1470, "nnz.d3": 15960}
        assert traced_counts(tracer, "modkernel.eliminate") == {
            "primes.d1": 1 + 1, "primes.d2": 1, "primes.d3": 1}
        assert tracer.spans["modkernel.reconstruct"].calls > 0
        assert tracer.spans["modkernel.verify"].calls > 0
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


def test_benchmark_trace_counts_each_rref_once(perfbench_tracer):
    # the blocked elimination runs its panels through helpers of its own,
    # so the benchmark's rref span counts two calls per kernel mod p, the
    # matrix's RREF and its kernel's, and no nested time
    import random

    from test_modkernel import dense_kernel, dense_matrix

    rng = random.Random(5)
    nrows, rank, dim = 2100, 140, 10  # wider than two panels of 64 columns
    mix = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in range(rank)]
        rows.append(row + [sum(row[i] * mix[i][j] for i in range(rank)) for j in range(dim)])
    mat = dense_matrix(rows)
    tracer = perfbench_tracer.Tracer()
    tracer.install()
    try:
        kernel = dense_kernel(mat)
    finally:
        tracer.uninstall()
    assert len(kernel) == dim
    assert tracer.missing == {}
    rref, eliminate = tracer.spans["modkernel.rref"], tracer.spans["modkernel.eliminate"]
    assert eliminate.calls >= 1
    assert rref.calls == 2 * eliminate.calls
    assert rref.busy <= eliminate.busy


class FreshRun(NamedTuple):
    code: int  # main's exit code, 0 when main is not run
    loaded: set  # the names in sys.modules
    environ_kept: bool  # whether os.environ is as it was before the import


def _fresh_run(argv=None, cwd=None, timeout=None):
    """A FreshRun of ``import divalg.cli`` and, unless argv is None,
    ``main(argv)`` in a fresh interpreter, ended after ``timeout``
    seconds."""
    script = f"""
import io, json, os, sys
from contextlib import redirect_stdout
environ = dict(os.environ)
import divalg.cli
code = 0
if {argv!r} is not None:
    with redirect_stdout(io.StringIO()):
        code = divalg.cli.main({argv!r})
print(json.dumps([code, sorted(sys.modules), environ == dict(os.environ)]))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                         check=True, timeout=timeout).stdout
    code, loaded, environ_kept = json.loads(out)
    return FreshRun(code, set(loaded), environ_kept)


# A lift whose scan runs every degree: the suite's degree-5 map, few trials
# and samples
RAND5_LIFT = ["lift", "--input", "rand5.json", "--trials", "5", "--samples", "4"]


def _write_rand5(directory, rand5):
    (directory / "rand5.json").write_text(canonical_json(map_to_json(rand5[0])),
                                          encoding="utf-8")


def test_a_failed_adjugate_certificate_exits_3(tmp_path, monkeypatch, rand5):
    # a degree-5 lifting that fails M phi = 0 is no lifting: one error
    # document and exit 3, never a traceback or an uncertified lifting
    import divalg.lifting

    column = divalg.lifting._adjugate_column

    def wrong(tensor):
        h = column(tensor)
        h[0] += 1
        return h

    monkeypatch.setattr(divalg.lifting, "_adjugate_column", wrong)
    _write_rand5(tmp_path, rand5)
    monkeypatch.chdir(tmp_path)
    code, report = run_json("degree", *RAND5_LIFT[1:])
    assert code == 3
    assert report["error"] == "the adjugate's line fails the certificate at degree 5"
    assert "scan" not in report and "lifting" not in report


def _plane_cayley(seed, bound):
    """S = (I + K)^-1 (I - K) for the seeded antisymmetric K with entries
    in [-bound, bound] at (0, 1), (2, 3) and (4, 5): three plane rotations
    with large entries, so that each column of S has at most two nonzero
    entries and the benchmark's composition stays fast."""
    rng = random.Random(seed)
    k = [[0] * 7 for _ in range(7)]
    for i, j in ((0, 1), (2, 3), (4, 5)):
        k[i][j] = rng.randint(-bound, bound)
        k[j][i] = -k[i][j]
    plus = Matrix([[int(i == j) + k[i][j] for j in range(7)] for i in range(7)])
    minus = [[int(i == j) - k[i][j] for j in range(7)] for i in range(7)]
    return Matrix.from_columns([plus.solve_right([row[j] for row in minus])
                                for j in range(7)]).entries


def test_a_degree_5_map_with_large_coefficients_lifts(tmp_path, monkeypatch):
    # random_tensor(0) conjugated by a rotation with entries of about 27
    # bits has 142-bit tensor entries.  Its degree-5 kernel needs a larger
    # modulus than the prime ladder's, so a solve at points exits 3; the
    # adjugate's line lifts it, to the lifting of random_tensor(0) composed
    # with the rotation exactly
    from divalg.lifting import solve_lifting

    inputs = _perfbench_module("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    workloads = _perfbench_module("workloads")
    s = _plane_cayley(3, 10 ** 4)
    eta = DissidentMap(7, inputs.conjugate(inputs.random_tensor(0), s))
    assert max(abs(x).bit_length() for plane in eta.integer_tensor for row in plane
               for x in row) >= 136
    (tmp_path / "big.json").write_text(canonical_json(map_to_json(eta)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, report = run_json("lift", "--input", "big.json", "--trials", "5", "--samples", "8",
                            "--emit", "phi.json")
    assert code == 0 and report["degree"] == 5 and report["verification"]["all_pass"]
    base = solve_lifting(DissidentMap(7, inputs.random_tensor(0)), samples=8, seed=0)
    doc = json.loads(canonical_json(lifting_to_json(base)))
    assert (tmp_path / "phi.json").read_text(encoding="utf-8") == canonical_json(
        workloads.conjugated_lifting(doc, s))


@pytest.mark.parametrize("argv", [
    ["lift", "--builtin", "cross7"],
    ["degree", "--quadruple", "random", "--seed", "0", "--trials", "20"],
], ids=" ".join)
def test_lift_and_degree_leave_sympy_unloaded(argv):
    # the scan's kernels prove the lifting's components relatively prime,
    # so a whole lift or degree run needs no content GCD and no sympy; it
    # does load the polynomials and the mod-p layer, the control of the
    # import guards below
    run = _fresh_run(argv)
    assert run.code == 0 and "sympy" not in run.loaded
    assert {"divalg.poly", "divalg.modkernel"} <= run.loaded


# the commands that run the degree scan, whose systems below degree 5 are
# solved mod p on packed Python ints
SCANS = ("degree", "lift")


@pytest.mark.parametrize("argv", [
    ["build", "--quadruple", "random", "--seed", "0"],
    ["recover", "--builtin", "octonions"],
    ["check", "--what", "quadratic", "--input", "zeroeta.json"],
    ["check", "--what", "g2", "--matrix", "I7.json"],
    ["roundtrip", "--builtin", "cross7"],
    ["morphism", "--kind", "triple", "--src", "cross7", "--dst", "cross7", "--f", "I7.json"],
    ["table-dump", "--builtin", "octonions"],
    pytest.param(["check", "--what", "division", "--quadruple", "random"],
                 id="check --what division --quadruple random"),
    pytest.param(["check", "--what", "division", "--builtin", "octonions"],
                 id="check --what division --builtin octonions"),
    pytest.param(["check", "--what", "dissident", "--quadruple", "random"],
                 id="check --what dissident --quadruple random"),
    pytest.param(["degree", "--quadruple", "random", "--seed", "0", "--trials", "20"],
                 id="degree --quadruple random"),
    ["lift", "--builtin", "cross7"],
    ["lift", "--input", "conj.json"],
    RAND5_LIFT,
], ids=lambda argv: " ".join(argv[:3]))
def test_commands_without_mod_p_leave_numpy_unloaded(tmp_path, conjugate_bent_tensor, rand5,
                                                     argv):
    # numpy is most of the start-up time of a process, and no command uses
    # it: the division check and the dissidence falsifier decide their draws
    # in Python ints, the scan solves its systems below degree 5 on packed
    # ints, and degree 5 is the adjugate's line, with no solve (rand5)
    _write_inputs(tmp_path, conjugate_bent_tensor)
    _write_rand5(tmp_path, rand5)
    run = _fresh_run(argv, cwd=tmp_path)
    assert run.code == 0 and "numpy" not in run.loaded
    if argv[0] not in SCANS:
        assert "divalg.modkernel" not in run.loaded


def test_cli_leaves_the_blas_threads_of_a_numpy_caller():
    # main changes no variable of the environment, such as a BLAS thread
    # count, of a caller that has loaded numpy, nor of any other
    import numpy  # noqa: F401

    environ = dict(os.environ)
    code, _ = run_cli("lift", "--builtin", "cross3", "--trials", "5", "--samples", "4")
    assert code == 0 and dict(os.environ) == environ


def test_lift_is_independent_of_seed_and_scale(tmp_path, monkeypatch, conjugate_bent_tensor):
    # the canonical lifting of the bent3 conjugate does not depend on the
    # sampling seed, nor on a positive rational scaling of eta
    _write_inputs(tmp_path, conjugate_bent_tensor)
    scaled = [[[Fraction(2, 7) * x for x in cell] for cell in plane]
              for plane in conjugate_bent_tensor]
    (tmp_path / "scaled.json").write_text(
        canonical_json(map_to_json(DissidentMap(7, scaled))), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    emitted = set()
    for name in ("conj.json", "scaled.json"):
        for seed in ("0", "5"):
            code, _ = run_cli("lift", "--input", name, "--seed", seed, "--samples", "16",
                              "--trials", "20", "--emit", "phi.json")
            assert code == 0
            emitted.add((tmp_path / "phi.json").read_bytes())
    assert len(emitted) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--what", "dissident", "--input", "phi.json"],
                 id="check --what dissident"),
    pytest.param(["build", "--input", "phi.json"], id="build"),
    pytest.param(["check", "--what", "g2", "--matrix", "phi.json"], id="check --what g2"),
    pytest.param(["morphism", "--kind", "triple", "--src", "cross7", "--dst", "cross7",
                  "--f", "phi.json"], id="morphism --kind triple"),
])
def test_a_lifting_document_is_refused_before_it_is_decoded(tmp_path, argv):
    # no command takes a lifting, and its decoder runs a content GCD, which
    # takes over a minute on this degree-5 document with 200-bit
    # coefficients (360 kB); the kind is refused first, so neither poly nor
    # sympy loads
    from divalg.poly import monomials

    rng = random.Random(3)
    doc = {"kind": "lifting", "n": 7, "degree": 5, "components": [
        [{"exponents": list(m), "coeff": str(rng.getrandbits(200) + 1)}
         for m in monomials(7, 5)] for _ in range(7)]}
    (tmp_path / "phi.json").write_text(json.dumps(doc), encoding="utf-8")
    run = _fresh_run(argv, cwd=tmp_path, timeout=30)
    assert run.code == 2 and not run.loaded & {"divalg.poly", "sympy"}


@pytest.mark.parametrize("argv", [
    ["check", "--what", "g2", "--matrix", "triple.json"],
    ["morphism", "--kind", "triple", "--src", "cross7", "--dst", "cross7", "--f", "triple.json"],
], ids=lambda argv: " ".join(argv[:3]))
def test_a_matrix_flag_names_the_kind_it_refuses(tmp_path, monkeypatch,
                                                 conjugate_bent_tensor, argv):
    _write_inputs(tmp_path, conjugate_bent_tensor)
    monkeypatch.chdir(tmp_path)
    code, report = run_json(*argv)
    assert code == 2
    assert report["error"] == ("parse error: triple.json decodes to DissidentTriple; "
                               "expected Matrix")


# Modules a command must not load, since it never runs them: every process
# compiles what it loads.  numpy and sympy are guarded above.
STARTUP_CONTRACT = [
    pytest.param(None, {"divalg.qda", "divalg.octonion", "divalg.builtins", "divalg.lifting",
                        "divalg.modkernel", "divalg.poly"}, id="import divalg.cli"),
    pytest.param(["lift", "--input", "conj.json", "--trials", "5", "--samples", "4"],
                 {"divalg.qda", "divalg.octonion", "divalg.builtins"}, id="lift --input"),
    pytest.param(["degree", "--input", "conj.json", "--trials", "5", "--samples", "4"],
                 {"divalg.qda", "divalg.octonion", "divalg.builtins"}, id="degree --input"),
    pytest.param(["degree", "--quadruple", "random", "--seed", "0", "--trials", "20"],
                 {"divalg.qda", "divalg.builtins"}, id="degree --quadruple random"),
]


@pytest.mark.parametrize("argv,unloaded", STARTUP_CONTRACT)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, conjugate_bent_tensor, argv,
                                                     unloaded):
    _write_inputs(tmp_path, conjugate_bent_tensor)
    run = _fresh_run(argv, cwd=tmp_path)
    assert run.code == 0 and not run.loaded & unloaded
    # the control: a command loads what it runs
    if argv is not None:
        assert {"divalg.dissident", "divalg.serialize", "divalg.lifting"} <= run.loaded


def test_the_cli_names_every_builtin():
    from divalg.builtins import BUILTINS

    assert BUILTIN_NAMES == tuple(sorted(BUILTINS))


# Help and argument errors of each command, which main parses with that
# command's parser alone, and of the top level, which it parses with all
PARSER_ARGVS = [[name, *extra] for name in _COMMANDS
                for extra in (["--help"], ["--nope"], ["--trials", "0"], ["--seed", "x"])]
PARSER_ARGVS += [[], ["--help"], ["--version"], ["bogus"], ["-h", "lift"], ["lift", "lift"]]


def _exit_of(parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no args")
def test_main_parses_as_the_full_parser(argv):
    assert _exit_of(main, argv) == _exit_of(build_parser().parse_args, argv)


def test_cli_import_leaves_sympy_unloaded():
    # sympy is needed only by the content GCD and numpy only by the mod-p
    # layers; together they are most of the start-up time of every command
    run = _fresh_run()
    assert run.code == 0 and not run.loaded & {"numpy", "sympy"}
    # nor does it compile the polynomials or the mod-p layers
    assert not run.loaded & {"divalg.poly", "divalg.modkernel"}
    assert run.environ_kept
