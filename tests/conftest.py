import importlib.util
import pathlib
import sys

import pytest

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
    degree-3 kernel needs two primes and a CRT retry."""
    inputs = _perfbench_module("inputs")
    return inputs.conjugate(inputs.bent3_tensor(), inputs.cayley_orthogonal(5))


@pytest.fixture(scope="session")
def perfbench_tracer():
    """The benchmark's layer tracer (``perfbench/tracer.py``), which wraps
    divalg entry points by name."""
    return _perfbench_module("tracer")
