
import numpy as np
import pytest

from permprod.digraphs import (
    DiGraph,
    Multigraph,
    is_two_edge_connected,
    quotient_digraph,
    two_edge_decompose,
    weak_components,
)
from permprod.partitions import Partition
from oracles import brute_cut_edges, components_by_bfs, connected_multidigraphs


def test_edge_range_validation():
    with pytest.raises(ValueError):
        DiGraph.of(2, [(0, 2)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative, not -1"):
        DiGraph.of(-1, [])


def test_weak_components_basic():
    assert weak_components(DiGraph.of(3, [])).blocks == ((0,), (1,), (2,))
    cycle = DiGraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert weak_components(cycle).num_blocks == 1


def test_weak_components_against_bfs_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 10))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
        g = DiGraph.of(n, edges)
        got = weak_components(g)
        want = components_by_bfs(n, edges)
        assert frozenset(map(frozenset, got.blocks)) == frozenset(frozenset(c) for c in want)


def test_quotient_identity_and_loop():
    cycle = DiGraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    q, vmap = quotient_digraph(cycle, Partition.singletons(4))
    assert q.edge_count == 4 and q.vertex_count == 4
    assert vmap == (0, 1, 2, 3)

    single = DiGraph.of(2, [(0, 1)])
    q, _ = quotient_digraph(single, Partition.of(2, [(0, 1)]))
    assert q.vertex_count == 1 and q.edges == ((0, 0),)


def test_quotient_preserves_edge_count_exhaustive():
    from oracles import all_partitions_brute

    rng = np.random.default_rng(4)
    graphs = [DiGraph.of(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 4)])]
    for _ in range(6):
        nv = int(rng.integers(1, 6))
        ne = int(rng.integers(0, 8))
        graphs.append(
            DiGraph.of(nv, [(int(rng.integers(nv)), int(rng.integers(nv))) for _ in range(ne)])
        )
    for g in graphs:
        for p in all_partitions_brute(g.vertex_count):
            q, vmap = quotient_digraph(g, p)
            assert q.edge_count == g.edge_count
            for (s, t), (qs, qt) in zip(g.edges, q.edges):
                assert (qs, qt) == (vmap[s], vmap[t])


def test_quotient_size_mismatch():
    with pytest.raises(ValueError):
        quotient_digraph(DiGraph.of(3, []), Partition.singletons(2))


def test_two_edge_decompose_cycle():
    cycle = DiGraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dec = two_edge_decompose(cycle)
    assert not dec.cut_edges
    assert dec.component_count == 1
    assert dec.forest.vertex_count == 1 and not dec.forest.edges
    assert dec.leaf_count == 2  # isolated forest vertex counts twice


def test_two_edge_decompose_path():
    path = DiGraph.of(3, [(0, 1), (1, 2)])
    assert brute_cut_edges(path) == {0, 1}
    dec = two_edge_decompose(path)
    assert dec.cut_edges == {0, 1}
    assert dec.component_count == 3
    assert dec.leaf_count == 2


def test_two_triangles_joined_by_edge():
    g = DiGraph.of(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    )
    assert brute_cut_edges(g) == {6}
    dec = two_edge_decompose(g)
    assert dec.cut_edges == {6}
    assert dec.component_count == 2
    assert dec.forest.edges == ((dec.component_of_vertex[0], dec.component_of_vertex[3]),)
    assert dec.leaf_count == 2


def test_parallel_edges_are_never_bridges():
    g = DiGraph.of(2, [(0, 1), (1, 0)])
    assert two_edge_decompose(g).cut_edges == frozenset()
    g2 = DiGraph.of(2, [(0, 1), (0, 1)])
    assert two_edge_decompose(g2).cut_edges == frozenset()


def test_self_loops_are_never_bridges():
    g = DiGraph.of(2, [(0, 0), (0, 1)])
    dec = two_edge_decompose(g)
    assert dec.cut_edges == {1}
    assert dec.leaf_count == 2


def test_bridges_against_deletion_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 13))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
        g = DiGraph.of(n, edges)
        assert two_edge_decompose(g).cut_edges == brute_cut_edges(g)


def test_forest_is_acyclic_and_leaf_count_bound():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 13))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
        g = DiGraph.of(n, edges)
        dec = two_edge_decompose(g)
        forest = dec.forest
        # acyclic: every component of the forest is a tree
        for comp in forest.components().blocks:
            sub_edges = [e for e in forest.edges if e[0] in comp]
            assert len(sub_edges) == len(comp) - 1
        assert dec.leaf_count >= 2 * weak_components(g).num_blocks


def test_is_tree():
    assert Multigraph(1, ()).is_tree()
    assert not Multigraph(2, ((0, 1), (0, 1))).is_tree()
    assert Multigraph(3, ((0, 1), (1, 2))).is_tree()
    assert not Multigraph(3, ((0, 1),)).is_tree()  # disconnected
    assert not Multigraph(1, ((0, 0),)).is_tree()  # loop
    assert not Multigraph(0, ()).is_tree()


def test_is_two_edge_connected():
    assert is_two_edge_connected(DiGraph.of(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_two_edge_connected(DiGraph.of(3, [(0, 1), (1, 2)]))
    assert not is_two_edge_connected(DiGraph.of(2, []))
    # one vertex with a self-loop: connected, loop is not a cut edge
    assert is_two_edge_connected(DiGraph.of(1, [(0, 0)]))


def test_connected_multidigraph_family_is_sane():
    fam = connected_multidigraphs(3, 3)
    assert all(weak_components(g).num_blocks == 1 for g in fam)
    assert len(fam) == len({tuple(sorted(g.edges)) for g in fam})
