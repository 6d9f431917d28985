"""The single-pass kernel analysis against the string-major oracles.

`growth_exponent` builds each color's quotient once and adds its term to
every string the color carries; `gcc` reads the block map off the quotient
it holds; the tree searches share quotients between strings.  Each must
agree exactly with the straightforward recomputation in `tests/oracles.py`.
"""

import random

import pytest

from permprod import traffic, verify
from permprod.digraphs import DiGraph, is_two_edge_connected
from permprod.partitions import Partition, connect
from permprod.tensor import GuardExceeded
from permprod.traffic import all_gcc_trees, enumerate_admissible, enumerate_tree_partitions, gcc, growth_exponent
from permprod.verify import kernel_suite
from helpers import (
    disjoint_string_model,
    example_test_graph,
    make_test_graph,
    shared_string_model,
    three_color_model,
)
from oracles import (
    brute_connect,
    connected_multidigraphs,
    h_sc_gcc,
    string_major_growth_exponent,
    two_edge_connected_by_decomposition,
)


def seeded_two_edge_connected(assignment, colors, seed, count):
    """Random graphs made of a cycle through every vertex plus chords, so
    every edge lies on a cycle; colors drawn uniformly, some left unused."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(1, 5)
        edges = [(v, (v + 1) % nv) for v in range(nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 2))]
        colored = [(e, rng.choice(colors)) for e in edges]
        t = make_test_graph(assignment, nv, colored, 2)
        assert is_two_edge_connected(t.digraph)
        out.append(t)
    return out


def graphs_under_test():
    _, three = three_color_model()
    _, shared = shared_string_model()
    _, disjoint = disjoint_string_model()
    yield example_test_graph()
    yield from seeded_two_edge_connected(three, "BGR", 1, 16)
    yield from seeded_two_edge_connected(shared, "ab", 2, 10)
    yield from seeded_two_edge_connected(disjoint, "ab", 3, 10)


def test_kernel_analysis_equals_string_major_oracles():
    tuples = 0
    for t in graphs_under_test():
        trees = []
        for pi in enumerate_admissible(t):
            assert growth_exponent(t, pi) == string_major_growth_exponent(t, pi)
            want = {s: h_sc_gcc(t, pi, s) for s in t.assignment.sorted_strings()}
            for s, w in want.items():
                got = gcc(t, pi, s)
                assert got.graph.edges == w.graph.edges
                assert got.edge_keys == w.edge_keys
                assert got.right_comps == w.right_comps
                assert got.left_blocks == w.left_blocks
            is_tree = all(w.is_tree() for w in want.values())
            assert all_gcc_trees(t, pi) == is_tree
            if is_tree:
                trees.append(pi.parts)
            tuples += 1
        assert [pi.parts for pi in enumerate_tree_partitions(t)] == trees
    assert tuples > 1000


def test_connect_matches_fixpoint_merging():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(0, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6))] if n else []
        assert connect(n, pairs) == brute_connect(n, pairs)


def test_two_edge_predicate_matches_decomposition_definition():
    graphs = [g for nv in (1, 2, 3) for g in connected_multidigraphs(nv, 4)]
    graphs += [
        DiGraph.of(0, []),
        DiGraph.of(2, []),
        DiGraph.of(2, [(0, 0), (1, 1)]),
        DiGraph.of(4, [(0, 1), (1, 0), (2, 3), (3, 2)]),
    ]
    verdicts = [is_two_edge_connected(g) for g in graphs]
    assert verdicts == [two_edge_connected_by_decomposition(g) for g in graphs]
    assert any(verdicts) and not all(verdicts)


def test_kernel_suite_guard_is_the_enumeration_guard(monkeypatch):
    t = example_test_graph()
    monkeypatch.setattr(traffic, "PARTITION_GUARD", 10)
    with pytest.raises(GuardExceeded) as direct:
        list(enumerate_admissible(t))
    with pytest.raises(GuardExceeded) as suite:
        kernel_suite(t, 2, 0, 1, partition_guard=10)
    assert str(suite.value) == str(direct.value)
    assert str(suite.value).startswith("partition tuple count ")


def test_partition_guard_stops_at_the_first_bell_number_past_it():
    # 300 isolated vertices: every rho_s has 300 blocks, and the triangle
    # stops at Bell(13), the first past 10**7, instead of forming Bell(300)
    t = make_test_graph(three_color_model()[1], 300, [])
    with pytest.raises(GuardExceeded) as direct:
        list(enumerate_admissible(t))
    assert str(direct.value) == "partition tuple count of at least Bell(300) exceeds guard 10000000"


def g_cycle_with_chord(nv):
    """A G-colored cycle through nv vertices plus a G chord from 0 to 3 on the
    three-color wiring: rho_1 is one block, rho_2 and rho_3 are singletons."""
    _, three = three_color_model()
    edges = [((v, (v + 1) % nv), "G") for v in range(nv)] + [((0, 3), "G")]
    return make_test_graph(three, nv, edges, 2)


def test_kernel_suite_counts_the_cone_without_enumerating_it(monkeypatch):
    t = g_cycle_with_chord(6)
    cone = sum(1 for _ in enumerate_admissible(t))
    assert cone == 41209

    def refuse(*args, **kwargs):
        raise AssertionError("the admissible cone was enumerated")

    monkeypatch.setattr(traffic, "enumerate_admissible", refuse)
    monkeypatch.setattr(verify, "enumerate_admissible", refuse)
    assert kernel_suite(t, 2, 0, 1, partition_guard=10**7) == [
        ("kernel-decomposition", True, f"1 draws, {cone} admissible tuples"),
        ("off-cone-vanishing", True, "kernel sums vanish off the admissible cone"),
    ]


def test_kernel_suite_fails_a_kernel_tuple_below_rho(monkeypatch):
    t = g_cycle_with_chord(6)
    below = (Partition.singletons(6),) * 3  # string 1's part lies strictly below rho_1
    assert not traffic.all_rho(t).parts[0].refines(below[0])
    real_buckets = verify._kernel_buckets

    def with_off_cone_key(*args, **kwargs):
        sums = real_buckets(*args, **kwargs)
        assert below not in sums
        return {**sums, below: 0}

    monkeypatch.setattr(verify, "_kernel_buckets", with_off_cone_key)
    checks = {name: ok for name, ok, _ in kernel_suite(t, 2, 0, 1, partition_guard=10**7)}
    assert checks == {"kernel-decomposition": True, "off-cone-vanishing": False}
