import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def conjugate_bent_tensor():
    """The README's degree-3 map conjugated by the rational rotation
    ``cayley_orthogonal(5)``, built by the benchmark's input code
    (``perfbench/inputs.py``, which imports nothing from divalg).  Its
    degree-3 kernel needs two primes and a CRT retry."""
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.conjugate(inputs.bent3_tensor(), inputs.cayley_orthogonal(5))
