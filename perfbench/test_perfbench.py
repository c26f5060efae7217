"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They run the real benchmark on lift-deg3-conj items, about a minute in
all.  The repository's pytest configuration collects only ``tests/``, so
its suite does not run them.
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import run
import workloads
from tracer import SPANS, Tracer, per_layer_metrics

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *argv],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced():
    argv = ("--workload", "lift-deg3-conj", "--seed", "3", "--trace", "1")
    return bench(*argv), bench(*argv)


def test_traced_counts_repeat_exactly(traced):
    first, second = (json.loads(lines[-1])["metrics"] for lines in traced)
    counts = [m for m, e in first.items() if e["unit"] == "count"]
    assert counts
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert first["modkernel.eliminate.primes.d3"]["value"] == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace, traced):
    lines = traced[0] if trace else bench("--workload", "lift-deg3-conj", "--seed", "3",
                                          "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.endswith(f": {m['name']} {entry['value']} ({m['unit']})")
                   for line in lines)


def test_corrupted_reference_fails_items():
    refs = workloads.load_references()
    bad = copy.deepcopy(refs)
    term = bad["lift-deg3-conj"]["bent3_lifting"]["components"][0][0]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    attempted, failed, _ = run.run_workload("lift-deg3-conj", 0, 1, 0, bad)
    assert attempted >= 1 and failed / attempted > 0


def test_missing_entry_point_is_reported_not_zero():
    def reshaped(tracer, sig, args, kwargs, result):
        return kwargs["no_such_parameter"]

    spans = [s for s in SPANS if s[0] != "poly.gcd"]
    spans += [("modkernel.gone", "divalg.modkernel", "_no_such_function", None),
              ("poly.gcd", "divalg.poly", "poly_content_gcd", reshaped)]
    tracer = Tracer(spans)
    sys.path.insert(0, str(run.SRC))
    from divalg import poly

    tracer.install()
    try:
        poly.poly_content_gcd([poly.HomogeneousPoly.variable(2, 0)])
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == {"modkernel.gone", "poly.gcd"}
    metrics = per_layer_metrics(tracer.snapshot(), ["modkernel.gone.busy_s",
                                                    "poly.gcd.calls",
                                                    "modkernel.rref.calls"])
    assert metrics == {"modkernel.gone.busy_s": None, "poly.gcd.calls": None,
                       "modkernel.rref.calls": 0}


def test_conjugated_reference_matches_sympy():
    """S Phi_bent(S^t v), computed over QQ by sympy, is proportional to the
    reference the benchmark composes for a lift-deg3-conj item."""
    refs = workloads.load_references()
    w = workloads.LiftDeg3Conj(refs)
    s = w.rotation(11, 2)
    v = sympy.symbols("v0:7")
    st_v = sympy.Matrix(s).T * sympy.Matrix(v)

    def as_sympy(comp, at):
        return sum(sympy.Rational(t["coeff"])
                   * sympy.prod(x ** e for x, e in zip(at, t["exponents"])) for t in comp)

    bent = refs["lift-deg3-conj"]["bent3_lifting"]
    direct = sympy.Matrix(s) * sympy.Matrix([as_sympy(c, st_v) for c in bent["components"]])
    composed = workloads.conjugated_lifting(bent, s)
    expected = [as_sympy(c, v) for c in composed["components"]]
    polys = [sympy.Poly(sympy.expand(e), *v, domain="QQ") for e in direct]
    ref = [sympy.Poly(e, *v, domain="QQ") for e in expected]
    k = next(i for i, p in enumerate(ref) if not p.is_zero)
    scale = polys[k].LC() / ref[k].LC()
    assert scale != 0
    assert all(p == r * scale for p, r in zip(polys, ref))


def test_without_sources_exits_nonzero():
    tmp_path = run.WORK / "without-sources"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in run.HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (bench_dir / "references.json").write_text(workloads.REFERENCES.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-deg1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
