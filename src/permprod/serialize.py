"""JSON schemas for the on-disk interfaces.

Color graphs and assignments travel as
``{"colors": [...], "edges": [[c, c'], ...], "strings": [...],
"incidence": [[s, c], ...]}``; matrices as ``{"support": [...], "n": N,
"entries_re": [[...]], "entries_im": [[...]]}``; permutations as
``{"n": k, "images": [...]}``; test-graph fixtures carry vertices, colored
edges, a label mode, and optional claim blocks the checker verifies.
"""

from __future__ import annotations

import json
from typing import Any

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


def model_from_dict(d: dict) -> tuple[ColorGraph, StringAssignment | None]:
    g = ColorGraph.of(d["colors"], d.get("edges", []))
    a = None
    if "strings" in d:
        a = StringAssignment.of(d["strings"], d.get("incidence", []))
    return g, a


def matrix_to_dict(m: StructuredMatrix) -> dict:
    arr = np.asarray(m.entries, dtype=np.complex128)
    out = {
        "support": list(m.support),
        "n": m.n,
        "entries_re": arr.real.tolist(),
        "entries_im": arr.imag.tolist(),
    }
    if m.perm is not None:
        out["permutation"] = {"n": m.perm.n, "images": list(m.perm.images)}
    return out


def matrix_from_dict(d: dict) -> StructuredMatrix:
    if "permutation" in d:
        perm = permutation_from_dict(d["permutation"])
        return StructuredMatrix.from_permutation(d["support"], d["n"], perm)
    re = np.asarray(d["entries_re"], dtype=float)
    im = np.asarray(d.get("entries_im", np.zeros_like(re)), dtype=float)
    # exact integer labels only when every entry is one: a float holds every
    # integer up to 2**53 exactly, and nothing is rounded into an integer
    if not im.any() and np.array_equal(re, np.trunc(re)) and np.all(np.abs(re) <= 2**53):
        return StructuredMatrix.dense(d["support"], d["n"], re.astype(np.int64))
    return StructuredMatrix.dense(d["support"], d["n"], re + 1j * im)


def permutation_to_dict(p: Permutation) -> dict:
    return {"n": p.n, "images": list(p.images)}


def permutation_from_dict(d: dict) -> Permutation:
    if len(d["images"]) != d["n"]:
        raise ValueError("permutation length mismatch")
    return Permutation(tuple(d["images"]))


def partition_from_blocks(ground_size: int, blocks) -> Partition:
    return Partition.of(ground_size, [tuple(b) for b in blocks])


def multipartition_from_dict(d: dict, ground_size: int) -> MultiPartition:
    return MultiPartition.of(
        {s: partition_from_blocks(ground_size, blocks) for s, blocks in d.items()}
    )


def load_test_graph(d: dict, n: int, seed: int = 0) -> TestGraph:
    """Build a test graph from a fixture dict, generating labels per the
    fixture's label mode ("identity" default, "permutation" for seeded
    uniform draws, or a list of matrix dicts)."""
    g, a = model_from_dict(d)
    if a is None:
        a = build_string_assignment(g)
    ok, violations = validate_assignment(g, a)
    if not ok:
        raise ValueError(f"invalid assignment: {violations}")
    nv = int(d["vertices"])
    test_edges = d["test_edges"]
    if not isinstance(test_edges, list) or not all(
        isinstance(e, list) and len(e) == 3 and all(isinstance(x, int) for x in e[:2]) for e in test_edges
    ):
        raise ValueError("test_edges must be a JSON list of [source, target, color] triples")
    edges = [(e[0], e[1]) for e in test_edges]
    colors = [str(e[2]) for e in test_edges]
    digraph = DiGraph.of(nv, edges)
    mode = d.get("labels", "identity")
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
            labels.append(matrix_from_dict(mode[i]))
    return TestGraph(a, digraph, tuple(colors), tuple(labels))


def dump_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object, not {type(data).__name__}")
    return data
