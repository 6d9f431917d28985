"""Shared builders for test graphs and assignments."""

from __future__ import annotations

import itertools

from permprod.digraphs import DiGraph
from permprod.strings import ColorGraph, StringAssignment
from permprod.tensor import StructuredMatrix, rng_stream, sample_color_permutations, sample_uniform_permutation
from permprod.traffic import TestGraph


def one_color_model():
    """A single color on a single string (free position with itself)."""
    g = ColorGraph.of(["a"], [])
    a = StringAssignment.of(["s"], [("s", "a")])
    return g, a


def shared_string_model():
    """Two colors sharing one string: the free (edgeless) case."""
    g = ColorGraph.of(["a", "b"], [])
    a = StringAssignment.of(["s"], [("s", "a"), ("s", "b")])
    return g, a


def disjoint_string_model():
    """Two adjacent colors on disjoint strings: the commuting case."""
    g = ColorGraph.of(["a", "b"], [("a", "b")])
    a = StringAssignment.of(["sa", "sb"], [("sa", "a"), ("sb", "b")])
    return g, a


def three_color_model():
    """The bundled three-color wiring: one private and two shared strings."""
    g = ColorGraph.of(["B", "G", "R"], [("B", "R")])
    a = StringAssignment.of(
        ["1", "2", "3"], [("1", "B"), ("2", "B"), ("2", "G"), ("3", "G"), ("3", "R")]
    )
    return g, a


def example_test_graph(n=2, labels="identity", seed=0):
    """The six-vertex, eight-edge worked example over the three-color wiring."""
    g, a = three_color_model()
    edges = [(0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (3, 0), (3, 4), (4, 5)]
    colors = ("R", "G", "B", "B", "G", "G", "G", "B")
    return make_test_graph(a, 6, list(zip(edges, colors)), n, labels, seed)


def make_test_graph(assignment, nv, colored_edges, n=2, labels="identity", seed=0):
    """colored_edges: list of ((src, dst), color)."""
    digraph = DiGraph.of(nv, [e for e, _ in colored_edges])
    colors = tuple(c for _, c in colored_edges)
    labs = []
    for i, c in enumerate(colors):
        sup = assignment.sorted_strings_of(c)
        if labels == "identity":
            labs.append(StructuredMatrix.identity(sup, n))
        elif labels == "permutation":
            dim = n ** len(sup)
            p = sample_uniform_permutation(dim, rng_stream(seed, 3, i))
            labs.append(StructuredMatrix.from_permutation(sup, n, p))
        elif labels == "integer":
            dim = n ** len(sup)
            rng = rng_stream(seed, 4, i)
            labs.append(StructuredMatrix.dense(sup, n, rng.integers(-2, 3, (dim, dim))))
        else:
            labs.append(labels[i])
    return TestGraph(assignment, digraph, colors, tuple(labs), n)


def draw_color_permutations(t, n, seed):
    return sample_color_permutations(t.assignment, set(t.edge_colors), n, seed, 0)


def conjugated_dense_labels_oracle(t, sigmas, n):
    """Dense full-space labels via the independent oracle pipeline: matrix
    conjugation then explicit Kronecker lifting."""
    from oracles import dense_conjugation_oracle, kron_lift_oracle

    strings = sorted(t.assignment.strings)
    out = []
    for c, lab in zip(t.edge_colors, t.labels):
        conj = dense_conjugation_oracle(lab.entries, sigmas[c].images) if c in sigmas else lab.entries
        positions = [strings.index(s) for s in lab.support]
        out.append(kron_lift_oracle(conj, positions, len(strings), n))
    return out


def all_signed_words(num_generators: int, max_length: int) -> list[tuple[int, ...]]:
    """Every nonempty word over the signed generator alphabet up to a length."""
    alphabet = [j for j in range(1, num_generators + 1)] + [-j for j in range(1, num_generators + 1)]
    out = []
    for m in range(1, max_length + 1):
        out.extend(itertools.product(alphabet, repeat=m))
    return out
