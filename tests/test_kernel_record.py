"""The per-graph kernel record against the tuple-by-tuple oracles.

`verify.exponent_suite` and `enumerate_tree_partitions` read the growth
exponent, the GCC tree verdicts and the leaf and injectivity laws off one
`_KernelRecord` per call, memoised on the kernels each answer depends on.
Every answer must equal the straightforward per-tuple recomputation in
`tests/oracles.py`, and each memo key must build its quotient once.
"""

import json
import os
from fractions import Fraction

from hypothesis import given, strategies as st

from permprod import chains, serialize, traffic, verify
from permprod.digraphs import DiGraph, _bridge_forest, is_two_edge_connected, two_edge_decompose
from permprod.partitions import Partition
from permprod.traffic import (
    PARTITION_GUARD,
    TestGraph,
    _KernelRecord,
    all_gcc_trees,
    color_quotient,
    enumerate_admissible,
    enumerate_tree_partitions,
    growth_exponent,
    h_sc,
)
from helpers import example_test_graph, make_test_graph, three_color_model
from oracles import (
    all_gcc_trees_by_oracles,
    brute_leaf_count,
    exponent_suite_by_oracles,
    h_sc_gcc,
    string_major_growth_exponent,
)
from test_kernel_pass import graphs_under_test

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "appendix_a.json")


def appendix_graph():
    with open(FIXTURE) as fh:
        return serialize.load_test_graph(json.load(fh), 2)


def small_chain_graphs():
    g, a = three_color_model()
    for chi, ell in ((("B",), (2,)), (("B", "G"), (1, 1)), (("G", "R"), (1, 1)), (("R",), (1,))):
        yield chains.build_squared_chain(chains.ChainSpec(g, a, chi, ell), 1, 0).test_graph


def test_exponent_suite_equals_oracle_suite():
    suites = 0
    for t in [appendix_graph(), *graphs_under_test()]:
        got = verify.exponent_suite(t, PARTITION_GUARD)
        assert got == exponent_suite_by_oracles(t, list(enumerate_admissible(t)))
        suites += got[0][0] == "exponent-nonpositive"
    assert suites == 36  # every seeded graph is swept; the appendix graph has a bridge


def test_one_record_answers_every_tuple_as_the_oracles_do():
    tuples = 0
    for t in [appendix_graph(), *graphs_under_test()]:
        record = _KernelRecord(t, exponent=True)  # shared by all tuples, as in a sweep
        for pi in enumerate_admissible(t):
            doubled = record.doubled_exponents(pi.parts)
            expo, per_string = string_major_growth_exponent(t, pi)
            assert Fraction(sum(doubled), 2) == expo
            assert {s: Fraction(d, 2) for s, d in zip(pi.strings, doubled)} == per_string
            assert traffic.growth_exponent(t, pi) == (expo, per_string)
            trees = [h_sc_gcc(t, pi, s).is_tree() for s in pi.strings]
            assert [record.tree(i, pi.parts) for i in range(len(pi.strings))] == trees
            assert record.all_trees(pi.parts) == traffic.all_gcc_trees(t, pi) == all(trees)
            for c in record.colors:
                q, summary = color_quotient(t, pi, c), record.summary(c, pi.parts)
                comps = q.components
                assert (summary.leaves, summary.components) == (q.decomposition().leaf_count, comps.num_blocks)
                assert summary.injective == all(
                    len({h_sc(t, pi, s, c)[v] for v in b}) == len(b)
                    for s in t.assignment.sorted_strings_of(c)
                    for b in comps.blocks
                )
            tuples += 1
    assert tuples > 1000


def test_tree_search_equals_oracle_filter_in_order():
    for t in [appendix_graph(), *graphs_under_test(), *small_chain_graphs()]:
        want = [pi for pi in enumerate_admissible(t) if all_gcc_trees_by_oracles(t, pi)]
        assert list(enumerate_tree_partitions(t)) == want


@given(st.lists(st.integers(0, 5), max_size=9))
def test_trusted_from_labels_equals_validated_partition(labels):
    fibers = {}
    for i, lab in enumerate(labels):
        fibers.setdefault(lab, []).append(i)
    got, want = Partition.from_labels(labels), Partition.of(len(labels), fibers.values())
    assert (got.ground_size, got.blocks, got.labels) == (want.ground_size, want.blocks, want.labels)
    assert got == want and hash(got) == hash(want)
    assert Partition(got.ground_size, got.blocks) == got  # passes full validation


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    )
)
def test_int_leaf_count_equals_the_decomposition(case):
    # random multigraphs: self-loops and parallel edges included
    n, edges = case
    g = DiGraph.of(n, edges)
    assert _bridge_forest(n, edges)[3] == two_edge_decompose(g).leaf_count == brute_leaf_count(g)


def test_cached_record_follows_the_graph_it_is_called_with():
    # the public functions share one record per graph object; interleaved
    # calls over A, B, A and a new object equal to A must each answer as a
    # cache-free, tuple-by-tuple recomputation does
    a = example_test_graph()
    b = make_test_graph(a.assignment, 6, list(zip(a.digraph.edges, ("G", "G", "B", "R", "G", "B", "G", "B"))))
    a_copy = TestGraph(a.assignment, a.digraph, a.edge_colors, a.labels)
    assert a_copy is not a
    tuples = {id(t): list(enumerate_admissible(t)) for t in (a, b, a_copy)}
    for k in range(120):
        for t in (a, b, a, a_copy):
            pi = tuples[id(t)][k * 7 % len(tuples[id(t)])]
            got = (growth_exponent(t, pi), all_gcc_trees(t, pi))
            assert got == (string_major_growth_exponent(t, pi), all_gcc_trees_by_oracles(t, pi))


def counting(monkeypatch, name):
    calls = []
    real = getattr(traffic, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traffic, name, wrapper)
    return calls


def test_each_memo_key_builds_one_quotient(monkeypatch):
    graphs = [t for t in graphs_under_test() if len(t.assignment.strings) == 3 and is_two_edge_connected(t.digraph)]
    quotients = counting(monkeypatch, "_color_summary")
    decompositions = counting(monkeypatch, "_bridge_forest")
    for t in graphs:
        keys, edged = set(), set()
        colors = {c for s in t.assignment.strings for c in t.assignment.colors_of(s)}
        for pi in enumerate_admissible(t):
            for c in colors:
                key = (c, tuple(pi.part(s) for s in t.assignment.sorted_strings_of(c)))
                keys.add(key)
                if c in t.edge_colors:
                    edged.add(key)
        quotients.clear()
        decompositions.clear()
        verify.exponent_suite(t, PARTITION_GUARD)
        assert len(quotients) == len(keys)
        assert len(decompositions) == len(edged)  # colors without edges need no bridge forest
    assert sum(len(list(enumerate_admissible(t))) for t in graphs) > 700
    decompositions.clear()
    assert sum(len(list(enumerate_tree_partitions(t))) for t in graphs) > 0
    assert decompositions == []


def test_tree_search_reuses_each_colors_latest_summary(monkeypatch):
    # the tree search keeps each color's latest summary, so no color's
    # summary is built twice in a row on the same kernels of its strings
    quotients = counting(monkeypatch, "_color_summary")
    built = 0
    for t in graphs_under_test():
        quotients.clear()
        list(enumerate_tree_partitions(t))
        latest = {}
        for edges, kernels, _ in quotients:
            assert latest.get(id(edges)) != kernels
            latest[id(edges)] = kernels
        built += len(quotients)
    assert built > 1000
