"""JSON schemas shared by the CLI and the file formats.

Scalars are the strings "p/q" (or "p" when q = 1); polynomials are lists of
{"exponents": [...], "coeff": "p/q"}; matrices and tensors are nested arrays
of scalar strings.  No floating point appears in any persisted artifact, and
report serialization is canonical (sorted keys, fixed indentation) so
identical runs produce byte-identical files.

A decoder imports the module of the class it builds when that module is
not one every command loads (qda for an algebra, poly for a lifting), so
a command that reads no such document never compiles it; _DECODERS names
the classes by string for the same reason.
"""

from __future__ import annotations

import json

from .dissident import DissidentMap, DissidentTriple, MatrixQuadruple
from .exact import Matrix, scalar_from_str, scalar_to_str


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


def poly_to_json(p):
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


def algebra_to_json(alg):
    return {
        "kind": "algebra",
        "dim": alg.dim,
        "structure_constants": tensor_to_json(alg.constants),
        "unity": vector_to_json(alg.unity),
    }


def lifting_to_json(phi):
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


def _check_size(data, cap, message):
    """Raise ValueError(message) if the rows ``data`` are more than ``cap``
    or one of them is longer than ``cap``.  It parses no scalar, so a
    decoder calls it first: a 700 x 700 matrix declared as 7 x 7 would
    otherwise build 490000 Fractions before its constructor checks the
    shape."""
    if isinstance(data, list) and (len(data) > cap or any(
            isinstance(row, list) and len(row) > cap for row in data)):
        raise ValueError(message)


def _cube(data, n):
    """The tensor of scalars ``data``, parsed once it nests as n x n x n lists.

    The nesting is checked before any scalar is parsed, so a document of
    the wrong shape costs no Fraction: a 2.5 MB 80 x 80 x 80 tensor
    declared with n = 7 would otherwise build 512000 of them before the
    map's constructor checks the shape.
    """
    if not (isinstance(data, list) and len(data) == n and all(
            isinstance(plane, list) and len(plane) == n
            and all(isinstance(cell, list) and len(cell) == n for cell in plane)
            for plane in data)):
        raise ValueError("tensor is not n x n x n")
    return [[_vector(cell) for cell in plane] for plane in data]


def map_from_json(data) -> DissidentMap:
    n = int(data["n"])
    return DissidentMap(n, _cube(data["tensor"], n))


def triple_from_json(data) -> DissidentTriple:
    n = int(data["n"])
    xi = data["xi"]
    _check_size(xi, n, "triple components disagree on n")
    return DissidentTriple(n, _matrix(xi), DissidentMap(n, _cube(data["eta"], n)))


def quadruple_from_json(data) -> MatrixQuadruple:
    matrices = [data[name] for name in "ABCD"]
    for name, m in zip("ABCD", matrices):
        _check_size(m, 7, f"{name} must be 7x7")
    return MatrixQuadruple(*map(_matrix, matrices))


# The largest algebra dimension a document may declare: the sedenions (16)
# pass, and every algebra of the paper has dimension at most 8.
MAX_ALGEBRA_DIM = 16


def algebra_from_json(data):
    """An algebra of dimension at most MAX_ALGEBRA_DIM whose table nests as
    dim x dim x dim lists and whose unity has dim entries, all checked
    before any scalar is parsed: a well-formed 200-dimensional table builds
    8M Fractions before its shape is checked, and one 300000-entry cell or
    unity builds 300000."""
    from .qda import AlgebraPresentation

    constants, unity = data["structure_constants"], data["unity"]
    dim = len(constants) if isinstance(constants, list) else 0
    if dim > MAX_ALGEBRA_DIM:
        raise ValueError(f"dimension {dim} is over the cap of {MAX_ALGEBRA_DIM}")
    if isinstance(unity, list) and len(unity) != dim:
        raise ValueError("unity coordinate length mismatch")
    return AlgebraPresentation(_cube(constants, dim), _vector(unity))


def lifting_from_json(data):
    """A lifting in at most MAX_ALGEBRA_DIM variables and of degree at most
    DEFAULT_MAX_DEGREE (5), both checked before any polynomial is built:
    the content GCD that proves the components relatively prime recurses
    once per variable, and its time and memory grow without bound with
    the degree."""
    from .poly import DEFAULT_MAX_DEGREE, HomogeneousPoly, Lifting, poly_content_gcd

    n = int(data["n"])
    degree = int(data["degree"])
    if n > MAX_ALGEBRA_DIM:
        raise ValueError(f"n {n} is over the cap of {MAX_ALGEBRA_DIM}")
    if degree > DEFAULT_MAX_DEGREE:
        raise ValueError(f"degree {degree} is over the cap of {DEFAULT_MAX_DEGREE}")
    comps = []
    for comp in data["components"]:
        terms = {}
        for term in comp:
            exps = tuple(int(e) for e in term["exponents"])
            terms[exps] = _scalar(term["coeff"])
        comps.append(HomogeneousPoly(n, degree, terms))
    phi = Lifting(n, degree, comps)
    gcd = poly_content_gcd(phi.components)
    if gcd.degree != 0:
        raise ValueError(f"components share the factor {gcd!r}")
    return phi


def matrix_from_json(data) -> Matrix:
    """A matrix of at most MAX_ALGEBRA_DIM rows and columns: every matrix a
    command reads maps spaces of dimension at most 16."""
    entries = data["entries"]
    _check_size(entries, MAX_ALGEBRA_DIM,
                f"matrix is over the cap of {MAX_ALGEBRA_DIM} x {MAX_ALGEBRA_DIM}")
    return _matrix(entries)


# kind -> (the name of the class it decodes to, its decoder)
_DECODERS = {
    "dissident_map": ("DissidentMap", map_from_json),
    "dissident_triple": ("DissidentTriple", triple_from_json),
    "matrix_quadruple": ("MatrixQuadruple", quadruple_from_json),
    "algebra": ("AlgebraPresentation", algebra_from_json),
    "lifting": ("Lifting", lifting_from_json),
    "matrix": ("Matrix", matrix_from_json),
}


def loads_typed(text: str, kinds=None, source="document"):
    """Decode any kinded JSON document to its domain object.

    Every malformed document raises ParseError: invalid JSON (including
    nesting too deep to decode and integers over the int-digits limit), a
    missing or unknown kind, and any failure of the kind's decoder, which
    is reported as "bad <kind>: <reason>" (OverflowError is int() of a JSON
    Infinity).  With ``kinds``, the classes the caller takes, a document of
    any other kind raises "<source> decodes to <class>; expected <classes>"
    before it is decoded, since a decoder can take long (a lifting's runs
    a content GCD).
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
    name, decode = _DECODERS[kind]
    if kinds is not None and name not in [k.__name__ for k in kinds]:
        expected = " or ".join(k.__name__ for k in kinds)
        raise ParseError(f"{source} decodes to {name}; expected {expected}")
    try:
        return decode(data)
    except ParseError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise ParseError(f"bad {kind}: {exc}") from exc


def load_typed_file(path, kinds=None):
    """loads_typed of the file at path, which names it in a refusal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_typed(fh.read(), kinds, path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
