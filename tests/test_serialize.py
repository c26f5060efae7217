import copy
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from divalg.builtins import cross3_triple, cross7_triple, octonion_algebra, quaternion_algebra
from divalg.cli import main
from divalg.dissident import cross_product_map, random_quadruple
from divalg.exact import Matrix
from divalg.lifting import Lifting, solve_lifting
from divalg.serialize import (
    MAX_ALGEBRA_DIM,
    ParseError,
    algebra_to_json,
    canonical_json,
    lifting_to_json,
    loads_typed,
    map_to_json,
    plain_matrix_to_json,
    quadruple_to_json,
    triple_to_json,
)


def roundtrip(doc):
    return loads_typed(json.dumps(doc))


def test_map_roundtrip():
    eta = cross_product_map(7)
    assert roundtrip(map_to_json(eta)) == eta


def test_triple_roundtrip():
    t = cross7_triple()
    assert roundtrip(triple_to_json(t)) == t


def test_quadruple_roundtrip():
    q = random_quadruple(3)
    back = roundtrip(quadruple_to_json(q))
    assert (back.a, back.b, back.c, back.d) == (q.a, q.b, q.c, q.d)


def test_algebra_roundtrip():
    alg = octonion_algebra()
    assert roundtrip(algebra_to_json(alg)) == alg


def test_lifting_roundtrip():
    phi = solve_lifting(cross_product_map(3), samples=8, seed=0)
    back = roundtrip(lifting_to_json(phi))
    assert back == phi


def test_matrix_roundtrip():
    m = Matrix([[1, "1/2"], ["-3/4", 0]])
    assert roundtrip(plain_matrix_to_json(m)) == m


def test_scalars_are_strings_not_floats():
    doc = quadruple_to_json(random_quadruple(1))
    text = json.dumps(doc)
    assert "e-" not in text and "0.2" not in text

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert not isinstance(x, float)

    walk(doc)


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, {"z": "3", "y": "4"}]}
    assert canonical_json(doc) == canonical_json(json.loads(json.dumps(doc)))
    assert canonical_json(doc).endswith("\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_typed("not json")
    with pytest.raises(ParseError):
        loads_typed(json.dumps({"no": "kind"}))
    with pytest.raises(ParseError):
        loads_typed(json.dumps({"kind": "wat"}))
    with pytest.raises(ParseError):
        loads_typed(json.dumps({"kind": "dissident_map", "n": 7, "tensor": []}))
    with pytest.raises(ParseError):
        loads_typed(json.dumps({"kind": "matrix", "entries": [["1/0"]]}))
    bad = map_to_json(cross_product_map(3))
    bad["tensor"][0][1][2] = "5"  # breaks antisymmetry
    with pytest.raises(ParseError):
        roundtrip(bad)


# one malformed document per kind, with the exact ParseError text it gets
MALFORMED = [
    ({"kind": "dissident_map", "n": 7}, "bad dissident_map: 'tensor'"),
    ({"kind": "dissident_map", "n": "x", "tensor": []},
     "bad dissident_map: invalid literal for int() with base 10: 'x'"),
    ({"kind": "dissident_triple", "n": 7}, "bad dissident_triple: 'xi'"),
    ({"kind": "dissident_triple", "n": 7, "xi": []}, "matrix needs at least one row"),
    ({"kind": "matrix_quadruple", "A": [["1"]]}, "bad matrix_quadruple: 'B'"),
    ({"kind": "algebra", "unity": ["1"]}, "bad algebra: 'structure_constants'"),
    ({"kind": "lifting", "n": 3, "degree": 1, "components": {"a": 1}},
     "bad lifting: string indices must be integers, not 'str'"),
    ({"kind": "lifting", "n": 3, "degree": 1,
      "components": [[{"exponents": [1, 0, 0]}]]}, "bad lifting: 'coeff'"),
    ({"kind": "matrix"}, "bad matrix: 'entries'"),
    ({"kind": "matrix", "entries": 5}, "matrix must be a list of rows"),
    ({"kind": "matrix", "entries": [["1/0"]]}, "bad scalar '1/0'"),
    ({"kind": "wat"}, "unknown kind 'wat'"),
]


@pytest.mark.parametrize("doc,message", MALFORMED, ids=[json.dumps(d) for d, _ in MALFORMED])
def test_parse_error_messages(doc, message):
    with pytest.raises(ParseError) as info:
        roundtrip(doc)
    assert str(info.value) == message


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="^not valid JSON: maximum recursion depth"):
        loads_typed("[" * 100_000 + "]" * 100_000)


def test_integer_over_the_digits_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="^not valid JSON: Exceeds the limit"):
        loads_typed('{"kind": "dissident_map", "n": 1' + "0" * 4999 + ', "tensor": []}')


def test_unhashable_kind_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        roundtrip({"kind": ["x"]})
    assert str(info.value) == "unknown kind ['x']"


def test_infinite_count_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        loads_typed('{"kind": "dissident_map", "n": Infinity, "tensor": []}')
    assert str(info.value) == "bad dissident_map: cannot convert float infinity to integer"


def test_lifting_degree_over_the_cap_is_a_parse_error():
    # components x_j^d + x_j^(d-1) x_(j+1): well-formed, but their content
    # GCD at d = 100000 runs for seconds in hundreds of MB; the cap rejects
    # the document before any polynomial is built
    d = 100_000
    doc = {"kind": "lifting", "n": 7, "degree": d, "components": [
        [{"exponents": [d - k if i == j else k if i == (j + 1) % 7 else 0
                        for i in range(7)], "coeff": "1"} for k in (0, 1)]
        for j in range(7)
    ]}
    with pytest.raises(ParseError) as info:
        roundtrip(doc)
    assert str(info.value) == "bad lifting: degree 100000 is over the cap of 5"


def unital_table(dim):
    """The algebra of dimension `dim` with unity e_0 and e_i e_j = 0 for
    i, j > 0, as a document."""
    constants = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    for j in range(dim):
        constants[0][j][j] = constants[j][0][j] = "1"
    return {"kind": "algebra", "dim": dim, "structure_constants": constants,
            "unity": ["1"] + ["0"] * (dim - 1)}


def test_algebra_dimension_over_the_cap_is_a_parse_error(tmp_path):
    # a well-formed 200-dimensional table builds 8M Fractions before any
    # check; the cap admits the sedenions and rejects the document first
    assert roundtrip(unital_table(MAX_ALGEBRA_DIM)).dim == 16
    with pytest.raises(ParseError) as info:
        roundtrip(unital_table(17))
    assert str(info.value) == "bad algebra: dimension 17 is over the cap of 16"
    path = tmp_path / "alg17.json"
    path.write_text(json.dumps(unital_table(17)), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["check", "--what", "quadratic", "--input", str(path)]) == 2


def decodes_or_parse_error(text):
    try:
        loads_typed(text)
    except ParseError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(json_values)
def test_any_json_document_decodes_or_raises_parse_error(doc):
    decodes_or_parse_error(json.dumps(doc))


# one small valid document of each kind
VALID_DOCUMENTS = [
    map_to_json(cross_product_map(3)),
    triple_to_json(cross3_triple()),
    quadruple_to_json(random_quadruple(0)),
    algebra_to_json(quaternion_algebra()),
    lifting_to_json(Lifting.identity(3)),
    plain_matrix_to_json(Matrix([[1, "1/2"], ["-3/4", 0]])),
]


# small integers keep each fuzzed document quick to decode; the sizes the
# decoders allocate are capped anyway (an algebra's dimension at 16, a
# lifting's degree at 5)
field_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats()
    | st.just(float("inf")) | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["exponents", "coeff"]), inner),
    max_leaves=12,
)


@st.composite
def fuzzed_documents(draw):
    """A valid document with one to three of its fields, or of the values
    nested in them, replaced by a fuzzed value or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        fields = sorted(set(doc) - {"kind"})
        if not fields:
            break
        node, key = doc, draw(st.sampled_from(fields))
        while isinstance(node[key], (list, dict)) and node[key] and draw(st.booleans()):
            node = node[key]
            keys = range(len(node)) if isinstance(node, list) else sorted(node)
            key = draw(st.sampled_from(keys))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(field_values)
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(fuzzed_documents())
def test_fuzzed_kind_fields_decode_or_raise_parse_error(doc):
    decodes_or_parse_error(json.dumps(doc))
