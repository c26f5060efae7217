import importlib.util
import pathlib
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import configuration, settings

# Every property test draws the same examples on every run and keeps no
# example database.  A test's own @settings keeps its max_examples and
# inherits the rest.
settings.register_profile("divalg", derandomize=True, database=None)
settings.load_profile("divalg")

# Hypothesis's other files (a cache of the constants in the source, written
# while the tests are collected) go to a directory removed at exit, so a
# run writes no .hypothesis/ into the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _perfbench_module(name):
    """A module of the benchmark (``perfbench/<name>.py``), loaded by path
    because ``perfbench`` is not a package."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def conjugate_bent_tensor():
    """The README's degree-3 map conjugated by the rational rotation
    ``cayley_orthogonal(5)``, built by the benchmark's input code
    (``perfbench/inputs.py``, which imports nothing from divalg).  Its
    degree-3 kernel has 12-bit entries over the pivot 2525, beyond Wang's
    per-entry bound for one prime; its common denominator takes one."""
    inputs = _perfbench_module("inputs")
    return inputs.conjugate(inputs.bent3_tensor(), inputs.cayley_orthogonal(5))


@pytest.fixture(scope="session")
def perfbench_tracer():
    """The benchmark's layer tracer (``perfbench/tracer.py``), which wraps
    divalg entry points by name."""
    return _perfbench_module("tracer")


@pytest.fixture(scope="session")
def rand5():
    """Degree-5 input: a seeded random antisymmetric structure tensor, as
    (map, lifting, scan report, seconds the scan took).

    Also the timing probe for the full d = 1..5 scan: the kernel of every
    constraint system (reported in the paper's shape, up to 21021 x 3234;
    solved in the divided form, up to 6468 x 3234) is computed before one
    appears at d = 5, each prime's from the eta_P lines at points, in at
    most 462 columns instead of 3234.
    """
    from divalg.dissident import DissidentMap, dissidence_falsify, seeded_rng
    from divalg.lifting import solve_lifting_scan

    rng = seeded_rng(7, "tensor")
    n = 7
    t = [[[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j:
                    t[i][j][k] = Fraction(0)
                elif i > j:
                    t[i][j][k] = -t[j][i][k]
    eta = DissidentMap(7, t)
    assert dissidence_falsify(eta, 1000, 0) is None
    start = time.perf_counter()
    lifting, scan, _ = solve_lifting_scan(eta, samples=24, seed=0)
    elapsed = time.perf_counter() - start
    return eta, lifting, scan, elapsed


@pytest.fixture
def traced_peaks():
    """peaks(run, budgets): the peak traced memory of run(budget) for each
    budget, after one untraced warm-up call at the largest budget, which
    fills the interpreter's free lists so that their refills are not
    counted."""
    def peaks(run, budgets):
        run(max(budgets))
        out = []
        for budget in budgets:
            tracemalloc.start()
            try:
                run(budget)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out

    return peaks
