"""JSON schemas shared by the CLI and the file formats.

Scalars are the strings "p/q" (or "p" when q = 1); polynomials are lists of
{"exponents": [...], "coeff": "p/q"}; matrices and tensors are nested arrays
of scalar strings.  No floating point appears in any persisted artifact, and
report serialization is canonical (sorted keys, fixed indentation) so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .dissident import DissidentMap, DissidentTriple, MatrixQuadruple
from .exact import Matrix, scalar_from_str, scalar_to_str
from .lifting import DEFAULT_MAX_DEGREE, Lifting
from .poly import HomogeneousPoly
from .qda import AlgebraPresentation


class ParseError(ValueError):
    """Malformed JSON input: wrong shape, bad scalar, or a failed invariant."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# encoders


def vector_to_json(v):
    return [scalar_to_str(x) for x in v]


def matrix_to_json(m: Matrix):
    return [[scalar_to_str(x) for x in row] for row in m.entries]


def tensor_to_json(tensor):
    return [[[scalar_to_str(x) for x in cell] for cell in plane] for plane in tensor]


def poly_to_json(p: HomogeneousPoly):
    return [
        {"exponents": list(exps), "coeff": scalar_to_str(p.terms[exps])}
        for exps in sorted(p.terms, reverse=True)
    ]


def map_to_json(eta: DissidentMap):
    return {"kind": "dissident_map", "n": eta.n, "tensor": tensor_to_json(eta.tensor)}


def triple_to_json(t: DissidentTriple):
    return {
        "kind": "dissident_triple",
        "n": t.n,
        "xi": matrix_to_json(t.xi),
        "eta": tensor_to_json(t.eta.tensor),
    }


def quadruple_to_json(q: MatrixQuadruple):
    return {
        "kind": "matrix_quadruple",
        "A": matrix_to_json(q.a),
        "B": matrix_to_json(q.b),
        "C": matrix_to_json(q.c),
        "D": matrix_to_json(q.d),
    }


def algebra_to_json(alg: AlgebraPresentation):
    return {
        "kind": "algebra",
        "dim": alg.dim,
        "structure_constants": tensor_to_json(alg.constants),
        "unity": vector_to_json(alg.unity),
    }


def lifting_to_json(phi: Lifting):
    return {
        "kind": "lifting",
        "n": phi.n,
        "degree": phi.degree,
        "components": [poly_to_json(p) for p in phi.components],
    }


def plain_matrix_to_json(m: Matrix):
    return {"kind": "matrix", "entries": matrix_to_json(m)}


# ---------------------------------------------------------------------------
# decoders


def _scalar(s):
    try:
        return scalar_from_str(s) if isinstance(s, str) else _int_scalar(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {s!r}") from exc


def _int_scalar(s):
    if isinstance(s, bool) or not isinstance(s, int):
        raise ParseError(f"scalar must be a 'p/q' string or integer, got {s!r}")
    return s


def _vector(data):
    if not isinstance(data, list):
        raise ParseError("vector must be a list")
    return [_scalar(x) for x in data]


def _matrix(data) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix must be a list of rows")
    try:
        return Matrix([[_scalar(x) for x in row] for row in data])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _tensor(data):
    if not isinstance(data, list):
        raise ParseError("tensor must be a nested list")
    return [[_vector(cell) for cell in plane] for plane in data]


def map_from_json(data) -> DissidentMap:
    return DissidentMap(int(data["n"]), _tensor(data["tensor"]))


def triple_from_json(data) -> DissidentTriple:
    n = int(data["n"])
    return DissidentTriple(n, _matrix(data["xi"]), DissidentMap(n, _tensor(data["eta"])))


def quadruple_from_json(data) -> MatrixQuadruple:
    return MatrixQuadruple(
        _matrix(data["A"]), _matrix(data["B"]), _matrix(data["C"]), _matrix(data["D"])
    )


# The largest algebra dimension a document may declare: the sedenions (16)
# pass, and every algebra of the paper has dimension at most 8.
MAX_ALGEBRA_DIM = 16


def algebra_from_json(data) -> AlgebraPresentation:
    """An algebra of dimension at most MAX_ALGEBRA_DIM, checked before any
    scalar is parsed: a well-formed 200-dimensional table builds 8M
    Fractions before its shape is checked."""
    constants = data["structure_constants"]
    if isinstance(constants, list) and len(constants) > MAX_ALGEBRA_DIM:
        raise ValueError(
            f"dimension {len(constants)} is over the cap of {MAX_ALGEBRA_DIM}")
    return AlgebraPresentation(_tensor(constants), _vector(data["unity"]))


def lifting_from_json(data) -> Lifting:
    """A lifting of degree at most DEFAULT_MAX_DEGREE (5), the largest the
    scan reaches, checked before any polynomial is built: the content GCD
    of a lifting of huge degree takes unbounded time and memory."""
    n = int(data["n"])
    degree = int(data["degree"])
    if degree > DEFAULT_MAX_DEGREE:
        raise ValueError(f"degree {degree} is over the cap of {DEFAULT_MAX_DEGREE}")
    comps = []
    for comp in data["components"]:
        terms = {}
        for term in comp:
            exps = tuple(int(e) for e in term["exponents"])
            terms[exps] = _scalar(term["coeff"])
        comps.append(HomogeneousPoly(n, degree, terms))
    return Lifting(n, degree, comps)


def matrix_from_json(data) -> Matrix:
    return _matrix(data["entries"])


_DECODERS = {
    "dissident_map": map_from_json,
    "dissident_triple": triple_from_json,
    "matrix_quadruple": quadruple_from_json,
    "algebra": algebra_from_json,
    "lifting": lifting_from_json,
    "matrix": matrix_from_json,
}


def loads_typed(text: str):
    """Decode any kinded JSON document to its domain object.

    Every malformed document raises ParseError: invalid JSON (including
    nesting too deep to decode and integers over the int-digits limit), a
    missing or unknown kind, and any failure of the kind's decoder, which
    is reported as "bad <kind>: <reason>" (OverflowError is int() of a JSON
    Infinity).
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("document must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise ParseError(f"unknown kind {kind!r}")
    try:
        return _DECODERS[kind](data)
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise ParseError(f"bad {kind}: {exc}") from exc


def load_typed_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_typed(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
