import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permprod import serialize
from permprod.serialize import (
    dump_json,
    load_json,
    matrix_from_dict,
    model_from_dict,
    model_to_dict,
    multipartition_from_dict,
    permutation_from_dict,
    load_test_graph,
)
from permprod.strings import build_string_assignment, validate_assignment
from permprod.tensor import Permutation, StructuredMatrix

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "appendix_a.json")


def test_model_roundtrip():
    d = {"colors": ["a", "b"], "edges": [["a", "b"]]}
    g, a = model_from_dict(d)
    assert a is None
    a = build_string_assignment(g)
    d2 = model_to_dict(g, a)
    g2, a2 = model_from_dict(d2)
    assert g2 == g and a2 == a


def test_matrix_roundtrip_dense_and_permutation():
    m = StructuredMatrix.dense(["s"], 2, np.array([[1, 2], [3, 4]], dtype=np.int64))
    back = matrix_from_dict({"support": ["s"], "n": 2, "entries_re": [[1, 2], [3, 4]], "entries_im": [[0, 0], [0, 0]]})
    assert np.array_equal(back.entries, m.entries)
    assert back.entries.dtype == np.int64

    c = StructuredMatrix.dense(["s"], 2, np.array([[0.5, 1j], [0, 1]]))
    back = matrix_from_dict({"support": ["s"], "n": 2, "entries_re": [[0.5, 0], [0, 1]], "entries_im": [[0, 1], [0, 0]]})
    assert np.allclose(back.entries, c.entries)

    p = StructuredMatrix.from_permutation(["s"], 3, Permutation((1, 2, 0)))
    back = matrix_from_dict({"support": ["s"], "n": 3, "permutation": {"n": 3, "images": [1, 2, 0]}})
    assert back.perm == p.perm


def test_float_labels_are_not_rounded_to_integers():
    near = {"support": ["s"], "n": 2, "entries_re": [[1.000001, 0], [0, 1]], "entries_im": [[0, 0], [0, 0]]}
    m = matrix_from_dict(near)
    assert not np.issubdtype(m.entries.dtype, np.integer)
    assert m.entries[0, 0] == 1.000001
    tiny_im = dict(near, entries_re=[[1, 0], [0, 1]], entries_im=[[1e-9, 0], [0, 0]])
    assert matrix_from_dict(tiny_im).entries[0, 0] == 1 + 1e-9j
    # past 2**53 a float no longer pins down the integer that was written
    huge = dict(near, entries_re=[[2.0**60, 0], [0, 1]])
    assert not np.issubdtype(matrix_from_dict(huge).entries.dtype, np.integer)
    exact = dict(near, entries_re=[[-3.0, 0], [2**53, 1]])
    back = matrix_from_dict(exact)
    assert back.entries.dtype == np.int64 and back.entries.tolist() == [[-3, 0], [2**53, 1]]


def test_permutation_roundtrip():
    p = Permutation((2, 0, 1))
    assert permutation_from_dict({"n": 3, "images": [2, 0, 1]}) == p
    with pytest.raises(ValueError):
        permutation_from_dict({"n": 2, "images": [0, 1, 2]})


def test_bundled_fixture_loads_and_validates():
    data = load_json(FIXTURE)
    t = load_test_graph(data, 2, seed=0)
    ok, violations = validate_assignment(*model_from_dict(data))
    assert ok, violations
    assert t.digraph.vertex_count == 6
    assert t.digraph.edge_count == 8
    assert t.edge_colors == ("R", "G", "B", "B", "G", "G", "G", "B")
    # labels live on each color's strings
    assert t.labels[0].support == ("3",)
    assert t.labels[2].support == ("1", "2")
    # deterministic: same seed, same labels
    t2 = load_test_graph(data, 2, seed=0)
    for a, b in zip(t.labels, t2.labels):
        assert np.array_equal(a.entries, b.entries)


def test_fixture_matches_programmatic_example():
    from helpers import example_test_graph

    data = load_json(FIXTURE)
    t = load_test_graph(data, 2, seed=0)
    t2 = example_test_graph(n=2)
    assert t.digraph == t2.digraph
    assert t.edge_colors == t2.edge_colors
    assert t.assignment == t2.assignment


def test_multipartition_from_dict():
    mp = multipartition_from_dict({"1": [[0, 1], [2]], "2": [[0], [1], [2]]}, 3)
    assert mp.part("1").blocks == ((0, 1), (2,))
    assert mp.part("2").num_blocks == 3


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)  # past 2**64
    | st.floats()  # nan and both infinities included
    | st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf])
    | st.text(st.characters(), max_size=6)  # non-ASCII, quotes, backslashes and control characters
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)
ESCAPED = "\u00e9\"\\\n\x00\x1f\u2028\U0001f600"  # non-ASCII, a quote, a backslash, control characters


def json_bytes(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def dumped(path, value, rows=None) -> str:
    dump_json(path, value, rows)
    with open(path, "rb") as fh:
        return fh.read().decode("ascii")


@given(value=JSON_VALUES)
def test_dump_json_writes_the_bytes_json_writes(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "dump.json"
    assert dumped(path, value) == json_bytes(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: "a", -(2**70): "b"},
        [{1.5: 0, 0.0: 1, math.inf: 2}, {-0.0: 3, math.nan: 4}],  # 0.0 and -0.0 write differently
        {True: 1, False: 2},
        [{None: []}, {"": {}}],
        [np.float64(0.1), (), {}, [[]]],
        {ESCAPED: [ESCAPED, 2**70, -(2**65), -0.0, 5e-324]},
    ],
    ids=["int-keys", "float-keys", "bool-keys", "null-and-empty", "float-subclass-and-empties", "escapes-and-big-ints"],
)
def test_dump_json_keys_and_scalars_like_json(tmp_path, value):
    assert dumped(tmp_path / "d.json", value) == json_bytes(value)


def test_dump_json_shared_subobjects_at_two_depths(tmp_path):
    letter, trace = ("B", -1), {"num": 1, "den": 2}
    shared = [letter, {"x": letter, "t": trace}]
    words = [{"word": (letter,) * k, "trace": trace} for k in range(200)]
    value = {"a": shared, "b": [shared, [shared, letter]], "words": words}
    assert dumped(tmp_path / "d.json", value) == json_bytes(value)


def nested(value, depth: int):
    for _ in range(depth):
        value = {"a": 1, "rows": value, "z": [2]}
    return value


@given(items=st.lists(JSON_VALUES, max_size=4), depth=st.integers(0, 3))
def test_dump_json_streams_rows_in_place_of_the_placeholder(tmp_path_factory, items, depth):
    # each row is an item's text at the list's indentation; no rows write []
    path = tmp_path_factory.getbasetemp() / "rows.json"
    rows = (json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + "  " * (depth + 1)) for x in items)
    assert dumped(path, nested([serialize.ROWS], depth), rows) == json_bytes(nested(items, depth))


def test_dump_json_refuses_a_document_without_one_placeholder(tmp_path):
    for value in ({"a": 1}, {"a": [serialize.ROWS], "b": [serialize.ROWS]}):
        with pytest.raises(ValueError):
            dump_json(tmp_path / "d.json", value, iter(["1"]))
    assert not os.listdir(tmp_path)  # nothing written


@pytest.mark.parametrize("value", [[np.int64(1)], {"a": Fraction(1, 2)}, Fraction(1, 2), {np.int64(1): 0}, {(1, 2): 0}])
def test_dump_json_refuses_what_json_refuses(tmp_path, value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dump_json(tmp_path / "d.json", value)
