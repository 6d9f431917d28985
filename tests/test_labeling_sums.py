"""The chunked kernel-labeling sums against their per-labeling loops.

`gamma_empirical` and `lambda_value` enumerate the labelings whose
per-string kernels are exactly pi as numpy chunks.  The loops they replace
live in `oracles.py`; on every multipartition of small graphs over the
wirings (one of them with two weak components), both must give the same
value of the same type (the same repr, so float sums keep their order).  Integer sums must stay exact past int64.
The bucketed chase (`traffic._kernel_buckets`) must give every one of those
sums from one call, on admissible kernel tuples only: exactly with integer
labels and loops, and within `sums_agree` with float ones.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    disjoint_string_model,
    draw_color_permutations,
    make_test_graph,
    one_color_model,
    shared_string_model,
    three_color_model,
)
from oracles import all_partitions_brute, brute_injective_sum, loop_gamma_empirical, loop_lambda_value
from permprod import traffic
from permprod.partitions import Partition
from permprod.tensor import GuardExceeded, Permutation, StructuredMatrix, rng_stream, sums_agree
from permprod.traffic import LoopedTestGraph, MultiPartition, enumerate_admissible, gamma_empirical, lambda_value

WIRINGS = {
    "one-color": (one_color_model, [((0, 1), "a"), ((1, 2), "a"), ((2, 0), "a"), ((1, 1), "a")]),
    "shared-string": (shared_string_model, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a"), ((0, 2), "b")]),
    "disjoint-string": (disjoint_string_model, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a"), ((1, 0), "b")]),
    "three-color": (three_color_model, [((0, 1), "B"), ((1, 2), "G"), ((2, 0), "R"), ((0, 2), "G")]),
    # two weak components: every sum is divided by dim once per component;
    # the first edge points into vertex 0, so the chase walks it backwards
    "two-component": (shared_string_model, [((1, 0), "a"), ((0, 1), "b"), ((2, 2), "a")]),
}


def _graph(wiring, n, labels, seed=2):
    model, colored_edges = WIRINGS[wiring]
    _, a = model()
    nv = 1 + max(max(e) for e, _ in colored_edges)
    if labels == "float":
        labels = []
        for i, (_, c) in enumerate(colored_edges):
            sup = a.sorted_strings_of(c)
            dim = n ** len(sup)
            labels.append(StructuredMatrix.dense(sup, n, rng_stream(seed, 5, i).normal(size=(dim, dim))))
    return make_test_graph(a, nv, colored_edges, n, labels, seed)


def _looped(t, n, loops, seed=9):
    dim = t.full_space(n).total_dim
    nv = t.digraph.vertex_count
    if loops == "identity":
        return LoopedTestGraph.with_identity(t)
    if loops == "integer":
        return LoopedTestGraph(t, tuple(rng_stream(seed, v).integers(-2, 3, dim) for v in range(nv)))
    return LoopedTestGraph(t, tuple(rng_stream(seed, v).normal(size=dim) for v in range(nv)))


def _all_multipartitions(t):
    strings = t.assignment.sorted_strings()
    for combo in itertools.product(all_partitions_brute(t.digraph.vertex_count), repeat=len(strings)):
        yield MultiPartition(strings, combo)


def _same(got, want):
    assert (type(got), repr(got)) == (type(want), repr(want))


def _sweep(wiring, n, labels, loops):
    t = _graph(wiring, n, labels)
    lt = _looped(t, n, loops)
    sigmas = draw_color_permutations(t, n, 1)
    chased = traffic._kernel_buckets(lt, sigmas, n)
    assert {pi.parts for pi in enumerate_admissible(t)}.issuperset(chased)
    exact = labels != "float" and loops != "float"
    for pi in _all_multipartitions(t):
        want = loop_gamma_empirical(lt, pi, sigmas, n)
        _same(gamma_empirical(lt, pi, sigmas, n), want)
        if exact:
            _same(chased.pop(pi.parts, Fraction(0)), want)
        else:
            assert sums_agree(chased.pop(pi.parts, 0), want)
        _same(lambda_value(lt, pi, n), loop_lambda_value(lt, pi, n))
    assert not chased  # no bucket outside the multipartitions


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_labeling_sums_equal_the_loops_on_every_multipartition(wiring, n):
    for labels in ("identity", "permutation", "integer", "float"):
        for loops in ("identity", "integer", "float"):
            _sweep(wiring, n, labels, loops)


@pytest.mark.parametrize("n", [2, 3])
def test_chase_of_mixed_labels_equals_the_loops(n):
    # permutation self-loops walked before each dense edge: the rows a
    # permutation rejects must stay rejected when a dense edge repeats them
    _, a = three_color_model()
    edges = [((0, 0), "G"), ((0, 1), "B"), ((1, 1), "R"), ((1, 2), "G"), ((2, 0), "B")]
    perm, dense = (make_test_graph(a, 3, edges, n, labels, seed=5) for labels in ("permutation", "integer"))
    labels = [p if i % 2 == 0 else d for i, (p, d) in enumerate(zip(perm.labels, dense.labels))]
    lt = _looped(make_test_graph(a, 3, edges, n, labels), n, "integer")
    sigmas = draw_color_permutations(lt.base, n, 1)
    chased = traffic._kernel_buckets(lt, sigmas, n)
    assert sum(chased.values()) == traffic.trace_test_graph(lt, n, sigmas) != 0
    for pi in _all_multipartitions(lt.base):
        _same(chased.pop(pi.parts, Fraction(0)), loop_gamma_empirical(lt, pi, sigmas, n))
    assert not chased


def test_labeling_sums_equal_the_loops_across_chunks(monkeypatch):
    # chunks of two labelings, so a string's block maps span many chunks
    monkeypatch.setattr(traffic, "LABELING_CHUNK", 8)
    for labels, loops in (("integer", "integer"), ("float", "float"), ("permutation", "integer")):
        _sweep("three-color", 3, labels, loops)
        _sweep("one-color", 3, labels, loops)


def test_labeling_count_past_one_chunk():
    # one string at n=10: 5040 singleton-kernel labelings of four vertices,
    # past the 4096 a chunk of 2**14 entries holds
    _, a = one_color_model()
    n = 10
    edges = [((0, 1), "a"), ((1, 2), "a"), ((2, 3), "a"), ((3, 0), "a")]
    rng = np.random.default_rng(4)
    for labels in ("integer", [StructuredMatrix.dense(("s",), n, rng.normal(size=(n, n))) for _ in edges]):
        t = make_test_graph(a, 4, edges, n, labels, seed=3)
        lt = LoopedTestGraph(t, tuple(rng.normal(size=n) for _ in range(4)))
        pi = MultiPartition(("s",), (Partition.singletons(4),))
        sigmas = draw_color_permutations(t, n, 2)
        assert math.perm(n, 4) * 4 > traffic.LABELING_CHUNK
        _same(gamma_empirical(lt, pi, sigmas, n), loop_gamma_empirical(lt, pi, sigmas, n))
        _same(lambda_value(lt, pi, n), loop_lambda_value(lt, pi, n))


def test_chunks_stay_bounded_near_the_guard():
    # 16**6 labelings of a one-string kernel: only the first chunk is built
    pi = MultiPartition(("s",), (Partition.singletons(6),))
    count, labelings = traffic._labeling_chunks(pi, 16)
    assert count == math.perm(16, 6)
    first = next(labelings)
    assert all(d.size <= traffic.LABELING_CHUNK for d in first)


def test_guard_trips_before_the_off_support_zero(monkeypatch):
    t = _graph("disjoint-string", 2, "identity")
    lt = LoopedTestGraph.with_identity(t)
    sigmas = draw_color_permutations(t, 2, 0)
    # edge 0 -> 1 has color a, off string sb; putting 0 and 1 apart in
    # pi_sb makes every labeling vanish, but the guard is checked first
    single = Partition.singletons(3)
    pi = MultiPartition(("sa", "sb"), (Partition.trivial(3), single))
    assert gamma_empirical(lt, pi, sigmas, 3) == 0
    message = "kernel labeling count 18 exceeds map guard 5"
    monkeypatch.setattr(traffic, "MAP_GUARD", 5)
    with pytest.raises(GuardExceeded, match=message):
        gamma_empirical(lt, pi, sigmas, 3)
    with pytest.raises(GuardExceeded, match=message):
        loop_gamma_empirical(lt, pi, sigmas, 3, map_guard=5)
    loops = LoopedTestGraph(t, tuple(np.arange(9) for _ in range(3)))
    with pytest.raises(GuardExceeded, match=message):
        lambda_value(loops, pi, 3)
    with pytest.raises(GuardExceeded, match=message):
        loop_lambda_value(loops, pi, 3, map_guard=5)


def test_chase_guard_bounds_one_row_per_point_and_component():
    # two looped vertices at n=2 on one string: two components of dim 2, so
    # the chase builds 2**2 rows, one per pair of root points
    _, a = one_color_model()
    t = make_test_graph(a, 2, [((0, 0), "a"), ((1, 1), "a")], 2)
    lt = LoopedTestGraph.with_identity(t)
    sigmas = draw_color_permutations(t, 2, 0)
    with pytest.raises(GuardExceeded, match=r"chased labeling count 2\*\*2 exceeds map guard 3"):
        traffic._kernel_buckets(lt, sigmas, 2, map_guard=3)
    sums = traffic._kernel_buckets(lt, sigmas, 2, map_guard=4)
    assert sum(sums.values()) == traffic.trace_test_graph(lt, 2, sigmas) == 1


def test_chase_guard_bounds_the_rows_a_dense_label_builds():
    # one dense edge at n=2: its 2 root rows are repeated once per nonzero
    # entry of a column, so the guard sees 2*2 rows before they are built
    _, a = one_color_model()
    lab = StructuredMatrix.dense(("s",), 2, np.array([[1, 2], [3, 4]]))
    lt = LoopedTestGraph.with_identity(make_test_graph(a, 2, [((0, 1), "a")], 2, [lab]))
    sigmas = {"a": Permutation((1, 0))}
    with pytest.raises(GuardExceeded, match=r"chased labeling count 2\*2 exceeds map guard 3"):
        traffic._kernel_buckets(lt, sigmas, 2, map_guard=3)
    sums = traffic._kernel_buckets(lt, sigmas, 2, map_guard=4)
    assert sum(sums.values()) == traffic.trace_test_graph(lt, 2, sigmas) == 5


def test_integer_sums_stay_exact_past_int64():
    # a 2-cycle on one string at n=2, every label entry 10**7 and every loop
    # entry 10**10: each term of either sum is past 2**63
    _, a = one_color_model()
    lab = StructuredMatrix.dense(("s",), 2, np.full((2, 2), 10**7))
    t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], 2, [lab, lab])
    loops = tuple(np.full(2, 10**10) for _ in range(2))
    lt = LoopedTestGraph(t, loops)
    pi = MultiPartition(("s",), (Partition.singletons(2),))
    sigmas = {"a": Permutation((1, 0))}
    # singleton kernels on the one string are the injective labelings
    conj = [np.full((2, 2), 10**7, dtype=object)] * 2
    py_loops = [[10**10] * 2] * 2
    gamma = brute_injective_sum(t.digraph, conj, 2, py_loops)
    lam = brute_injective_sum(t.digraph.restrict_edges([]), [], 2, py_loops)
    assert gamma == 2 * 10**34 and lam == 2 * 10**20
    assert gamma_empirical(lt, pi, sigmas, 2) == Fraction(gamma, 2)
    assert traffic._kernel_buckets(lt, sigmas, 2)[pi.parts] == Fraction(gamma, 2)
    assert lambda_value(lt, pi, 2) == Fraction(lam, 4)
