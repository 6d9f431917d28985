"""The chunked kernel sweep against the tuple-by-tuple oracles.

`verify.exponent_suite` and `enumerate_tree_partitions` read the growth
exponent, the GCC tree verdicts and the leaf and injectivity laws off one
`_kernel_sweep` per call, which summarises each color's quotient once per
distinct meet omega_c in a chunk; `growth_exponent` and `all_gcc_trees`
compute them directly, one tuple at a time, and keep nothing between calls.
Every answer must equal the straightforward per-tuple recomputation in
`tests/oracles.py`.
"""

import json
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from permprod import chains, serialize, traffic, verify
from permprod.digraphs import DiGraph, _bridge_forest, is_two_edge_connected, two_edge_decompose
from permprod.partitions import Partition
from permprod.strings import StringAssignment
from permprod.traffic import (
    PARTITION_GUARD,
    TestGraph,
    _color_summary,
    _gcc_is_tree,
    _injective,
    _kernel_sweep,
    all_gcc_trees,
    color_quotient,
    enumerate_admissible,
    enumerate_tree_partitions,
    growth_exponent,
    omega,
)
from helpers import example_test_graph, make_test_graph, shared_string_model, three_color_model
from oracles import (
    all_gcc_trees_by_oracles,
    brute_leaf_count,
    exponent_suite_by_oracles,
    h_sc,
    h_sc_gcc,
    string_major_growth_exponent,
)
from test_kernel_pass import g_cycle_with_chord, graphs_under_test

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
    # one sweep per graph: each tuple's swept laws, and the per-omega
    # summaries of each tuple, against the oracles; each all-tree tuple's
    # kernels and summaries as the sweep yields them
    tuples = 0
    for t in [appendix_graph(), *graphs_under_test()]:
        a = t.assignment
        colors = sorted({c for s in a.strings for c in a.colors_of(s)})
        edges = {c: [e for e, x in zip(t.digraph.edges, t.edge_colors) if x == c] for c in colors}
        chunks = list(_kernel_sweep(t, PARTITION_GUARD, leaves=True))
        laws = (law for doubled, trees, _ in chunks for law in zip(doubled.tolist(), trees.tolist()))
        yielded = iter([item for _, _, found in chunks for item in found])
        for pi, (doubled, all_trees) in zip(enumerate_admissible(t), laws, strict=True):
            expo, per_string = string_major_growth_exponent(t, pi)
            assert Fraction(doubled, 2) == expo
            assert traffic.growth_exponent(t, pi) == (expo, per_string)
            kernels = tuple(p.labels for p in pi.parts)
            summaries = {c: _color_summary(edges[c], omega(pi, a, c).labels, True) for c in colors}
            trees = [h_sc_gcc(t, pi, s).is_tree() for s in pi.strings]
            string_colors = [sorted(a.colors_of(s)) for s in pi.strings]
            assert [
                _gcc_is_tree(ps, [summaries[c] for c in cs]) for ps, cs in zip(kernels, string_colors)
            ] == trees
            assert all_trees == traffic.all_gcc_trees(t, pi) == all(trees)
            if all_trees:
                assert next(yielded) == (kernels, summaries)
            for c, summary in summaries.items():
                q = color_quotient(t, pi, c)
                comps = q.components
                assert (summary.leaves, summary.components) == (q.decomposition().leaf_count, comps.num_blocks)
                assert all(_injective(summary, pi.part(s).labels) for s in a.sorted_strings_of(c)) == all(
                    len({h_sc(t, pi, s, c)[v] for v in b}) == len(b)
                    for s in a.sorted_strings_of(c)
                    for b in comps.blocks
                )
            tuples += 1
        assert next(yielded, None) is None
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
    # the public functions keep nothing between calls: interleaved calls
    # over A, B, A and a new object equal to A must each answer as the
    # tuple-by-tuple oracles do
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


def omegas_by_color(t):
    """Per color of a string, the distinct meets of its strings' kernels
    over the admissible tuples, as label tuples."""
    a = t.assignment
    colors = sorted({c for s in a.strings for c in a.colors_of(s)})
    out = {c: set() for c in colors}
    for pi in enumerate_admissible(t):
        for c in colors:
            out[c].add(omega(pi, a, c).labels)
    return out


def test_each_distinct_omega_is_summarised_once_per_call(monkeypatch):
    # per exponent_suite or tree search call on a graph whose tuples fit one
    # chunk, _color_summary runs once per (color, distinct omega_c); only
    # the exponent suite builds bridge forests
    quotients = counting(monkeypatch, "_color_summary")
    forests = counting(monkeypatch, "_bridge_forest")
    calls = 0
    for t in [*graphs_under_test(), *small_chain_graphs()]:
        want = omegas_by_color(t)
        edged = sum(len(oms) for c, oms in want.items() if c in t.edge_colors)
        runs = [(False, lambda: list(enumerate_tree_partitions(t)))]
        if is_two_edge_connected(t.digraph):
            runs.append((True, lambda: verify.exponent_suite(t, PARTITION_GUARD)))
        for leaves, run in runs:
            quotients.clear()
            forests.clear()
            run()
            got: dict = {}  # each color's edge list -> the meets summarised with it
            for edges, om, with_leaves in quotients:
                assert with_leaves == leaves
                got.setdefault(id(edges), []).append(om)
            assert sorted(map(sorted, got.values())) == sorted(map(sorted, want.values()))
            assert len(forests) == (edged if leaves else 0)
            calls += 1
    assert calls > 60


def test_each_yielded_kernel_is_one_object_per_distinct_labels():
    repeats = 0
    for t in [appendix_graph(), *graphs_under_test(), *small_chain_graphs()]:
        objects = {}
        for pi in enumerate_tree_partitions(t):
            for p in pi.parts:
                repeats += p.labels in objects
                assert objects.setdefault(p.labels, p) is p
    assert repeats > 100


@st.composite
def three_color_graphs(draw):
    """A test graph of the three-color model on 3 to 6 vertices: a cycle
    through every vertex plus up to three edges drawn at random (self-loops
    and parallel edges among them), each edge colored at random, so a color
    may have no edge."""
    nv = draw(st.integers(3, 6))
    vertex = st.integers(0, nv - 1)
    edges = [(v, (v + 1) % nv) for v in range(nv)] + draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    colors = draw(st.lists(st.sampled_from("BGR"), min_size=len(edges), max_size=len(edges)))
    return make_test_graph(three_color_model()[1], nv, list(zip(edges, colors)))


@given(three_color_graphs())
@settings(max_examples=30, deadline=None)
def test_table_sweeps_equal_the_oracles_in_one_chunk_and_in_many(t):
    assume(is_two_edge_connected(t.digraph))
    tuples = list(enumerate_admissible(t))
    assume(len(tuples) <= 300)
    want_suite = exponent_suite_by_oracles(t, tuples)
    want_trees = [pi for pi in tuples if all_gcc_trees_by_oracles(t, pi)]
    assert verify.exponent_suite(t, PARTITION_GUARD) == want_suite
    assert list(enumerate_tree_partitions(t)) == want_trees
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traffic, "SWEEP_BYTES", 300)  # one or two tuples per chunk on these graphs
        assert verify.exponent_suite(t, PARTITION_GUARD) == want_suite
        assert list(enumerate_tree_partitions(t)) == want_trees
        for leaves in (False, True):  # several chunks past two tuples
            assert len(list(_kernel_sweep(t, PARTITION_GUARD, leaves))) >= (len(tuples) + 1) // 2


def test_chord_graph_sweeps_every_tuple_and_passes_all_four_laws():
    # regression row: a G-cycle on 6 vertices with a G chord, 41,209 tuples
    t = g_cycle_with_chord(6)
    assert verify.exponent_suite(t, PARTITION_GUARD) == [
        ("exponent-nonpositive", True, "41209 kernel tuples"),
        ("tree-equality", True, "exponent vanishes exactly at all-tree tuples"),
        ("leaf-count-at-equality", True, "leaf weight is twice the component count"),
        ("tree-injectivity", True, "block maps injective per component at trees"),
    ]
    assert sum(1 for _ in enumerate_tree_partitions(t)) == 203


def test_sweep_memory_does_not_grow_with_the_tuple_count(monkeypatch):
    # one string carries both colors of an a-cycle with a b chord, so every
    # kernel tuple has an omega of its own: 877 tuples on 7 vertices and
    # 4,140 on 8.  The chunk bounds the summaries kept, as it does the
    # rest; only the pool grows, by about a byte per vertex and tuple.
    # Keeping a summary per omega for the whole call grows the peak about
    # 7-fold.
    _, shared = shared_string_model()
    monkeypatch.setattr(traffic, "SWEEP_BYTES", 2**16)
    graphs = {
        nv: make_test_graph(shared, nv, [((v, (v + 1) % nv), "a") for v in range(nv)] + [((0, 3), "b")])
        for nv in (7, 8)
    }
    verify.exponent_suite(graphs[7], PARTITION_GUARD)  # first-call allocations out of the reading
    peaks = []
    for nv, tuples in ((7, 877), (8, 4140)):
        tracemalloc.start()
        suite = verify.exponent_suite(graphs[nv], PARTITION_GUARD)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert suite[0][2] == f"{tuples} kernel tuples" and all(ok for _, ok, _ in suite)
    assert peaks[1] < 2.5 * peaks[0], peaks


def test_a_ground_set_past_twenty_vertices_packs_exactly():
    # an R cycle through 22 vertices and B paths in three runs: rho_3 has
    # three blocks and every other rho one, so 5 tuples on 22 vertices,
    # whose packed meets pass 2**63
    nv = 22
    edges = [((v, (v + 1) % nv), "R") for v in range(nv)]
    edges += [((v, v + 1), "B") for v in range(nv - 1) if v not in (6, 14)] + [((6, 6), "G")]
    t = make_test_graph(three_color_model()[1], nv, edges)
    tuples = list(enumerate_admissible(t))
    assert len(tuples) == 5 and is_two_edge_connected(t.digraph)
    assert verify.exponent_suite(t, PARTITION_GUARD) == exponent_suite_by_oracles(t, tuples)
    assert list(enumerate_tree_partitions(t)) == [pi for pi in tuples if all_gcc_trees_by_oracles(t, pi)]


def test_degenerate_graphs_equal_the_oracle_filter():
    # no strings at all (one empty tuple), three strings on no vertex, and
    # one vertex without edges: the sweep answers them as the filter does
    three = three_color_model()[1]
    graphs = [TestGraph(StringAssignment.of([], []), DiGraph.of(nv, []), (), ()) for nv in (0, 2)]
    graphs += [make_test_graph(three, nv, []) for nv in (0, 1)]
    for t in graphs:
        want = [pi for pi in enumerate_admissible(t) if all_gcc_trees_by_oracles(t, pi)]
        assert list(enumerate_tree_partitions(t)) == want
    assert [len(list(enumerate_tree_partitions(t))) for t in graphs] == [1, 1, 0, 1]
