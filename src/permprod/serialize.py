"""JSON schemas for the on-disk interfaces.

Color graphs and assignments travel as
``{"colors": [...], "edges": [[c, c'], ...], "strings": [...],
"incidence": [[s, c], ...]}``; matrices as ``{"support": [...], "n": N,
"entries_re": [[...]], "entries_im": [[...]]}``; permutations as
``{"n": k, "images": [...]}``; test-graph fixtures carry vertices, colored
edges, a label mode, and optional claim blocks the checker verifies.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Iterable

import numpy as np

from .digraphs import DiGraph
from .partitions import Partition
from .strings import ColorGraph, StringAssignment, build_string_assignment, validate_assignment
from .tensor import Permutation, StructuredMatrix, rng_stream, sample_uniform_permutation
from .traffic import MultiPartition, TestGraph


def model_to_dict(g: ColorGraph, a: StringAssignment | None = None) -> dict:
    out: dict[str, Any] = {
        "colors": list(g.colors),
        "edges": sorted(sorted(e) for e in g.edges),
    }
    if a is not None:
        out["strings"] = list(a.sorted_strings())
        out["incidence"] = sorted([s, c] for s, c in a.incidence)
    return out


def json_int(value, name: str) -> int:
    """A field read as a JSON integer (not a bool), else an input error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, not {value!r}")
    return value


def json_number(value, name: str) -> int | float:
    """A field read as a finite JSON number (not a bool), else an input
    error; Python's json reads NaN, Infinity and 1e400 as floats."""
    finite = not isinstance(value, float) or math.isfinite(value)  # an int is exact, of any size
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not finite:
        raise ValueError(f"{name} must be a finite JSON number, not {value!r}")
    return value


def json_bool(value, name: str) -> bool:
    """A field read as a JSON bool, else an input error."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON bool, not {value!r}")
    return value


def json_list(value, name: str) -> list:
    """A field read as a JSON list, else an input error."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, not {value!r}")
    return value


def json_object(value, name: str) -> dict:
    """A field read as a JSON object, else an input error."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {value!r}")
    return value


def json_str(value, name: str) -> str:
    """A field read as a JSON string, else an input error."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a JSON string, not {value!r}")
    return value


def model_from_dict(d: dict) -> tuple[ColorGraph, StringAssignment | None]:
    for key in ("colors", "edges", "strings", "incidence"):
        if key in d:
            json_list(d[key], key)
    colors = [json_str(c, "a color") for c in d["colors"]]
    edges = [json_list(e, "an edge") for e in d.get("edges", [])]
    if not all(len(e) == 2 for e in edges):
        raise ValueError("an edge must be a JSON list of two colors")
    g = ColorGraph.of(colors, [[json_str(c, "an edge color") for c in e] for e in edges])
    a = None
    if "strings" in d:
        incidence = [json_list(p, "an incidence entry") for p in d.get("incidence", [])]
        if not all(len(p) == 2 for p in incidence):
            raise ValueError("an incidence entry must be a JSON list of a string and a color")
        a = StringAssignment.of(
            [json_str(s, "a string") for s in d["strings"]],
            [[json_str(x, "an incidence string or color") for x in p] for p in incidence],
        )
    return g, a


def matrix_from_dict(d: dict) -> StructuredMatrix:
    json_object(d, "a matrix")
    support = [json_str(s, "a matrix support string") for s in json_list(d["support"], "matrix support")]
    n = json_int(d["n"], "matrix side")
    if "permutation" in d:
        perm = permutation_from_dict(d["permutation"])
        return StructuredMatrix.from_permutation(support, n, perm)
    re = _entries(d["entries_re"], "entries_re")
    im = _entries(d["entries_im"], "entries_im") if "entries_im" in d else np.zeros_like(re)
    # exact integer labels only when every entry is one: a float holds every
    # integer up to 2**53 exactly, and nothing is rounded into an integer
    if not im.any() and np.array_equal(re, np.trunc(re)) and np.all(np.abs(re) <= 2**53):
        return StructuredMatrix.dense(support, n, re.astype(np.int64))
    return StructuredMatrix.dense(support, n, re + 1j * im)


def _entries(value, name: str) -> np.ndarray:
    """A matrix's entries as floats: a JSON list of lists of finite numbers."""
    rows = [json_list(row, f"a row of {name}") for row in json_list(value, name)]
    try:  # an integer past the float range overflows
        return np.asarray([[json_number(x, f"an entry of {name}") for x in row] for row in rows], dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must hold finite numbers") from None


def permutation_from_dict(d: dict) -> Permutation:
    json_object(d, "a permutation")
    p = Permutation(d["images"])
    if p.n != json_int(d["n"], "permutation length"):
        raise ValueError("permutation length mismatch")
    return p


def partition_from_blocks(ground_size: int, blocks) -> Partition:
    blocks = [json_list(b, "a block") for b in json_list(blocks, "partition blocks")]
    return Partition.of(ground_size, [tuple(json_int(v, "a block member") for v in b) for b in blocks])


def multipartition_from_dict(d: dict, ground_size: int) -> MultiPartition:
    return MultiPartition.of(
        {s: partition_from_blocks(ground_size, blocks) for s, blocks in json_object(d, "a kernel tuple").items()}
    )


def load_test_graph(d: dict, n: int, seed: int = 0) -> TestGraph:
    """Build a test graph from a fixture dict, generating labels per the
    fixture's label mode ("identity" default, "permutation" for seeded
    uniform draws, or a list of matrix dicts, each of side n)."""
    g, a = model_from_dict(d)
    if a is None:
        a = build_string_assignment(g)
    ok, violations = validate_assignment(g, a)
    if not ok:
        raise ValueError(f"invalid assignment: {violations}")
    nv = json_int(d["vertices"], "vertices")
    test_edges = [json_list(e, "a test edge") for e in json_list(d["test_edges"], "test_edges")]
    if not all(len(e) == 3 for e in test_edges):
        raise ValueError("a test edge must be a JSON list of a source, a target and a color")
    edges = [(json_int(e[0], "a test edge source"), json_int(e[1], "a test edge target")) for e in test_edges]
    colors = [json_str(e[2], "a test edge color") for e in test_edges]
    digraph = DiGraph.of(nv, edges)
    mode = d.get("labels", "identity")
    if mode not in ("identity", "permutation") and not (isinstance(mode, list) and len(mode) == len(edges)):
        raise ValueError('labels must be "identity", "permutation" or a JSON list of one matrix per test edge')
    labels = []
    for i, c in enumerate(colors):
        sup = a.sorted_strings_of(c)
        if mode == "identity":
            labels.append(StructuredMatrix.identity(sup, n))
        elif mode == "permutation":
            dim = n ** len(sup)
            p = sample_uniform_permutation(dim, rng_stream(seed, 3, i))
            labels.append(StructuredMatrix.from_permutation(sup, n, p))
        else:
            lab = matrix_from_dict(mode[i])
            if lab.n != n:
                raise ValueError(f"label of test edge {i} has side {lab.n}, not the requested side {n}")
            labels.append(lab)
    return TestGraph(a, digraph, tuple(colors), tuple(labels), n)


ROWS = "\u0000rows"  # the one item of the list whose items `dump_json` streams from `rows`


def dump_json(path, obj, rows=None) -> None:
    """Write `obj` as `json.dump(obj, fh, indent=2, sort_keys=True)` and a
    final newline would.  With `rows`, `obj` holds the list `[ROWS]` once,
    and the file is the one json would write with that list's items in
    its place: each row is an item's text as json writes it there, at the
    list's indentation.  The rows are streamed, never joined."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    chunks = [text] if rows is None else _spliced(text, iter(rows))
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _spliced(text: str, rows) -> Iterable[str]:
    """`text` with its one `ROWS` item replaced by the rows."""
    head, tail = text.split(json.dumps(ROWS))
    first = next(rows, None)
    if first is None:  # json writes an empty list as []
        return [head.rstrip(), tail.lstrip()]
    sep = "," + head[head.rindex("\n") :]  # json's item separator at the list's indentation
    return itertools.chain([head, first], (sep + row for row in rows), [tail])


def load_json(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object, not {type(data).__name__}")
    return data
