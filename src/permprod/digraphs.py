"""Directed and undirected multigraphs with the algorithms the moment
calculus needs: weak components, vertex quotients, bridge decomposition,
and the bridge forest with its leaf count.

Vertices and edges are dense 0-based indices; parallel edges and self-loops
are allowed everywhere.  Edge identities survive quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .partitions import Partition, connect


@dataclass(frozen=True)
class DiGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for s, t in self.edges:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"edge ({s},{t}) out of range")

    @staticmethod
    def of(vertex_count: int, edges: Iterable[Sequence[int]]) -> "DiGraph":
        return DiGraph(vertex_count, tuple((int(s), int(t)) for s, t in edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def restrict_edges(self, edge_ids: Iterable[int]) -> "DiGraph":
        """Same vertex set, keeping only the listed edges (in that order)."""
        return DiGraph(self.vertex_count, tuple(self.edges[i] for i in edge_ids))


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; edges are unordered pairs kept as (u, v) tuples."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")

    def degree(self, v: int) -> int:
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def components(self) -> Partition:
        return connect(self.vertex_count, self.edges)

    def is_connected(self) -> bool:
        return self.components().num_blocks <= 1

    def is_tree(self) -> bool:
        """Connected and |E| = |V| - 1; parallel edges and loops therefore fail."""
        if self.vertex_count == 0:
            return False
        return len(self.edges) == self.vertex_count - 1 and self.is_connected()


def weak_components(g: DiGraph) -> Partition:
    """Partition of vertices into weakly connected components."""
    return connect(g.vertex_count, g.edges)


def quotient_digraph(g: DiGraph, p: Partition) -> tuple[DiGraph, tuple[int, ...]]:
    """Identify vertices along p.  Edge ids and order are preserved; loops and
    parallel edges that arise are kept.  Returns (quotient, vertex_map)."""
    if p.ground_size != g.vertex_count:
        raise ValueError("partition ground size does not match vertex count")
    vmap = tuple(p.block_index(v) for v in range(g.vertex_count))
    q = DiGraph(p.num_blocks, tuple((vmap[s], vmap[t]) for s, t in g.edges))
    return q, vmap


@dataclass(frozen=True)
class TwoEdgeDecomposition:
    component_of_vertex: tuple[int, ...]
    cut_edges: frozenset[int]
    forest: Multigraph  # one vertex per two-edge-connected component
    leaf_count: int

    @property
    def component_count(self) -> int:
        return self.forest.vertex_count


def two_edge_decompose(g: DiGraph) -> TwoEdgeDecomposition:
    """Bridge decomposition of the undirection of g.

    cut_edges are the bridges (a member of a parallel pair never is one);
    components are the pieces left after deleting them; the forest has one
    vertex per piece and one edge per bridge.  leaf_count totals the leaves
    of the forest, an isolated forest vertex counting as two.
    """
    bridges = _find_bridges(g)
    comp = connect(g.vertex_count, [e for i, e in enumerate(g.edges) if i not in bridges])
    comp_of_vertex = tuple(comp.block_index(v) for v in range(g.vertex_count))
    forest_edges = tuple(
        (comp_of_vertex[g.edges[i][0]], comp_of_vertex[g.edges[i][1]]) for i in sorted(bridges)
    )
    forest = Multigraph(comp.num_blocks, forest_edges)
    leaves = 0
    for fc in forest.components().blocks:
        if len(fc) == 1 and forest.degree(fc[0]) == 0:
            leaves += 2
        else:
            leaves += sum(1 for v in fc if forest.degree(v) == 1)
    return TwoEdgeDecomposition(comp_of_vertex, frozenset(bridges), forest, leaves)


def is_two_edge_connected(g: DiGraph) -> bool:
    """One weak component and no bridge (an empty graph has no component)."""
    return weak_components(g).num_blocks == 1 and not _find_bridges(g)


def _find_bridges(g: DiGraph) -> set[int]:
    """Iterative DFS low-link bridge finding on the undirection.

    Each undirected edge keeps its id; the DFS refuses to reuse only the edge
    it entered on, so a parallel partner acts as a back edge and kills the
    bridge.  Self-loops can never be bridges.
    """
    n = g.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))

    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, entering edge id, next child slot
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, in_edge, slot = stack.pop()
            if slot < len(adj[v]):
                stack.append((v, in_edge, slot + 1))
                w, eid = adj[v][slot]
                if eid == in_edge:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif in_edge != -1:
                u = g.edges[in_edge][0] if g.edges[in_edge][1] == v else g.edges[in_edge][1]
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    bridges.add(in_edge)
    return bridges
