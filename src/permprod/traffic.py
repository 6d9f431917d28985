"""Edge-colored test digraphs and their moment calculus.

A test graph is a finite directed multigraph whose edges carry colors and
matrix labels living on the color's string block.  Its trace sums, over all
labelings of vertices by full-space indices, the product of label entries
(target index, source index); the injective trace restricts to injective
labelings.  Everything downstream of the kernel decomposition lives here:
the minimal kernels rho_s, the per-color meets and quotients, the bipartite
graph of colored components and its tree test, the exact expectation
formula for a kernel class, and the growth exponent that decides which
kernel classes survive as N grows.

Exact arithmetic: whenever every label involved is integer valued the sums
are taken in integer arithmetic and traces come back as Fractions; any
float or complex label switches the computation to complex.
"""

from __future__ import annotations

import functools
import itertools
import math
import string as _stringmod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .digraphs import (
    DiGraph,
    Multigraph,
    TwoEdgeDecomposition,
    is_two_edge_connected,
    quotient_digraph,
    two_edge_decompose,
    weak_components,
)
from .partitions import (
    Partition,
    bell_number,
    enumerate_partitions,
    meet_many,
    mobius_from_bottom,
)
from .strings import StringAssignment
from .tensor import (
    GuardExceeded,
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    conjugate_by_color,
    exact_operands,
    lift,
)

MAP_GUARD = 2**24
LABELING_CHUNK = 2**14  # array entries per chunk of kernel labelings
PARTITION_GUARD = 10**7


@dataclass(frozen=True)
class TestGraph:
    __test__ = False  # keep pytest from collecting the class by name

    assignment: StringAssignment
    digraph: DiGraph
    edge_colors: tuple[str, ...]
    labels: tuple[StructuredMatrix, ...]

    def __post_init__(self):
        if len(self.edge_colors) != self.digraph.edge_count or len(self.labels) != self.digraph.edge_count:
            raise ValueError("edge colors/labels must match edge count")
        for c, lab in zip(self.edge_colors, self.labels):
            want = self.assignment.sorted_strings_of(c)
            if not want:
                raise ValueError(f"color {c!r} has no strings")
            if lab.support != want:
                raise ValueError(f"label support {lab.support} does not match strings of color {c!r}")

    @property
    def n(self) -> int:
        return self.labels[0].n if self.labels else 1

    def full_space(self, n: int | None = None) -> MultiIndexSpace:
        return MultiIndexSpace.of(self.assignment.strings, n if n is not None else self.n)


@dataclass(frozen=True)
class LoopedTestGraph:
    """A test graph with a diagonal label (a full-space vector) at each vertex."""

    base: TestGraph
    vertex_labels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.vertex_labels) != self.base.digraph.vertex_count:
            raise ValueError("one vertex label per vertex")

    @staticmethod
    def with_identity(base: TestGraph) -> "LoopedTestGraph":
        dim = base.full_space().total_dim
        ones = np.ones(dim, dtype=np.int64)
        return LoopedTestGraph(base, tuple(ones for _ in range(base.digraph.vertex_count)))


@dataclass(frozen=True)
class MultiPartition:
    """One vertex partition per string, aligned with the sorted string list."""

    strings: tuple[str, ...]
    parts: tuple[Partition, ...]

    def __post_init__(self):
        if tuple(sorted(self.strings)) != self.strings:
            raise ValueError("strings must be sorted")
        if len(self.parts) != len(self.strings):
            raise ValueError("one partition per string")
        sizes = {p.ground_size for p in self.parts}
        if len(sizes) > 1:
            raise ValueError("partitions have mismatched ground sets")

    @staticmethod
    def of(mapping: dict[str, Partition]) -> "MultiPartition":
        keys = tuple(sorted(mapping))
        return MultiPartition(keys, tuple(mapping[s] for s in keys))

    def part(self, s: str) -> Partition:
        return self.parts[self.strings.index(s)]

    def items(self):
        return zip(self.strings, self.parts)


# ---------------------------------------------------------------------------
# dense graph-sum evaluation


def _as_exact_or_complex(arrays: Sequence[np.ndarray]) -> tuple[list[np.ndarray], bool]:
    exact = all(a.dtype == object or np.issubdtype(a.dtype, np.integer) for a in arrays)
    if exact:
        return list(arrays), True
    return [np.asarray(a, dtype=np.complex128) for a in arrays], False


def raw_graph_sum(
    g: DiGraph,
    edge_matrices: Sequence[np.ndarray],
    dim: int,
    vertex_vectors: Sequence[np.ndarray] | None = None,
    map_guard_total: int | None = None,
):
    """Sum over all vertex labelings i of prod_e M_e[i(target), i(source)]
    (times prod_v vec_v[i(v)] when vertex vectors are given).

    Evaluated as a tensor-network contraction, so the cost is far below the
    dim**V count the guard bounds.  Exact for integer/object inputs.
    """
    nv = g.vertex_count
    if map_guard_total is not None and dim**nv > map_guard_total:
        raise GuardExceeded(f"labeling count {dim}**{nv} exceeds map guard")
    if nv == 0:
        return 1
    if nv > len(_stringmod.ascii_letters):
        raise GuardExceeded("too many vertices for subscript labels")
    letters = _stringmod.ascii_letters
    operands: list[np.ndarray] = []
    subs: list[str] = []
    for (s, t), m in zip(g.edges, edge_matrices):
        operands.append(m)
        subs.append(letters[t] + letters[s])
    if vertex_vectors is None:
        vertex_vectors = [None] * nv  # type: ignore[list-item]
    for v in range(nv):
        vec = vertex_vectors[v]
        if vec is None:
            vec = np.ones(dim, dtype=np.int64)
        operands.append(np.asarray(vec))
        subs.append(letters[v])
    operands, exact = _as_exact_or_complex(operands)
    expr = ",".join(subs) + "->"
    if exact:
        operands = exact_operands(operands, dim**nv)
        if all(a.dtype != object for a in operands):
            return int(np.einsum(expr, *operands, optimize=True))
        return np.einsum(expr, *[a.astype(object) for a in operands], optimize=False)
    return complex(np.einsum(expr, *operands, optimize=True))


def raw_injective_graph_sum(
    g: DiGraph,
    edge_matrices: Sequence[np.ndarray],
    dim: int,
    vertex_vectors: Sequence[np.ndarray] | None = None,
    map_guard_total: int | None = None,
):
    """Same sum restricted to injective labelings, via partition-lattice
    inversion over vertex identifications."""
    if g.vertex_count > dim:
        return 0
    total = 0
    for p in enumerate_partitions(g.vertex_count):
        q, vmap = quotient_digraph(g, p)
        vecs = None
        if vertex_vectors is not None:
            vecs = _merge_vertex_vectors(vertex_vectors, p)
        term = raw_graph_sum(q, edge_matrices, dim, vecs, map_guard_total)
        total = total + mobius_from_bottom(p) * term
    return total


def _merge_vertex_vectors(vectors: Sequence[np.ndarray], p: Partition) -> list[np.ndarray]:
    out = []
    for b in p.blocks:
        acc = vectors[b[0]]
        for v in b[1:]:
            acc = acc * vectors[v]
        out.append(acc)
    return out


def _normalize(raw, dim: int, comps: int):
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw, dim**comps)
    return raw / dim**comps


# ---------------------------------------------------------------------------
# full-space traces of (looped) test graphs


def underline_labels(
    t: TestGraph,
    sigmas: dict[str, Permutation] | None,
    n: int | None = None,
    dense_guard: int | None = None,
) -> list[np.ndarray]:
    """Dense full-space edge labels: each label conjugated by its color's
    permutation (identity when absent) and lifted against identity factors."""
    space = t.full_space(n)
    out = []
    kwargs = {} if dense_guard is None else {"dense_guard": dense_guard}
    for c, lab in zip(t.edge_colors, t.labels):
        x = lab
        if sigmas is not None and c in sigmas:
            x = conjugate_by_color(lab, sigmas[c])
        out.append(lift(x, space, **kwargs))
    return out


def _trace_impl(t, sigmas, n, injective, normalized, map_guard):
    base = t.base if isinstance(t, LoopedTestGraph) else t
    loops = t.vertex_labels if isinstance(t, LoopedTestGraph) else None
    nn = n if n is not None else base.n
    space = base.full_space(nn)
    nv = base.digraph.vertex_count
    if nv and nn**nv > map_guard:
        raise GuardExceeded(f"per-string labeling count {nn}**{nv} exceeds map guard {map_guard}")
    guard_total = map_guard ** max(1, len(space.strings))
    mats = underline_labels(base, sigmas, nn)
    fn = raw_injective_graph_sum if injective else raw_graph_sum
    raw = fn(base.digraph, mats, space.total_dim, loops, guard_total)
    if not normalized:
        return raw
    comps = weak_components(base.digraph).num_blocks
    return _normalize(raw, space.total_dim, comps)


def trace_test_graph(
    t: TestGraph | LoopedTestGraph,
    n: int | None = None,
    sigmas: dict[str, Permutation] | None = None,
    normalized: bool = True,
    map_guard: int = MAP_GUARD,
):
    """The trace of the test graph over its full space: the sum over all
    vertex labelings, divided by dim per weakly connected component."""
    return _trace_impl(t, sigmas, n, False, normalized, map_guard)


def injective_trace(
    t: TestGraph | LoopedTestGraph,
    n: int | None = None,
    sigmas: dict[str, Permutation] | None = None,
    normalized: bool = True,
    map_guard: int = MAP_GUARD,
):
    """The trace restricted to injective vertex labelings."""
    return _trace_impl(t, sigmas, n, True, normalized, map_guard)


# ---------------------------------------------------------------------------
# kernels, per-color quotients, graph of colored components


def rho(t: TestGraph, s: str) -> Partition:
    """Vertex partition into components of the subgraph of edges whose colors
    avoid string s: the minimal admissible kernel for that string."""
    if s not in t.assignment.strings:
        raise ValueError(f"unknown string {s!r}")
    keep = [i for i, c in enumerate(t.edge_colors) if s not in t.assignment.strings_of(c)]
    return weak_components(t.digraph.restrict_edges(keep))


def all_rho(t: TestGraph) -> MultiPartition:
    return MultiPartition.of({s: rho(t, s) for s in t.assignment.strings})


def _check_admissible(t: TestGraph, pi: MultiPartition) -> None:
    rhos = all_rho(t)
    for s, part in pi.items():
        if not rhos.part(s).refines(part):
            raise ValueError(f"pi_{s} is not above rho_{s}")


def omega(pi: MultiPartition, assignment: StringAssignment, c: str) -> Partition:
    strings = assignment.sorted_strings_of(c)
    if not strings:
        raise ValueError(f"color {c!r} has no strings")
    return meet_many([pi.part(s) for s in strings])


@dataclass(frozen=True)
class ColoredQuotient:
    """A color- or string-restricted subgraph of a test graph, with its
    vertices identified along a partition.  Edge ids refer to the parent."""

    digraph: DiGraph
    partition: Partition
    edge_ids: tuple[int, ...]
    labels: tuple[StructuredMatrix, ...]

    @functools.cached_property
    def components(self) -> Partition:
        return weak_components(self.digraph)

    def decomposition(self) -> TwoEdgeDecomposition:
        return two_edge_decompose(self.digraph)


def color_quotient(t: TestGraph, pi: MultiPartition, c: str) -> ColoredQuotient:
    """The c-colored subgraph with vertices identified along the meet of the
    kernels over c's strings."""
    om = omega(pi, t.assignment, c)
    keep = tuple(i for i, col in enumerate(t.edge_colors) if col == c)
    q, _ = quotient_digraph(t.digraph.restrict_edges(keep), om)
    return ColoredQuotient(q, om, keep, tuple(t.labels[i] for i in keep))


def string_quotient(t: TestGraph, pi: MultiPartition, s: str) -> ColoredQuotient:
    """The subgraph of edges colored by colors meeting string s, with
    vertices identified along pi_s."""
    ps = pi.part(s)
    keep = tuple(i for i, col in enumerate(t.edge_colors) if s in t.assignment.strings_of(col))
    q, _ = quotient_digraph(t.digraph.restrict_edges(keep), ps)
    return ColoredQuotient(q, ps, keep, tuple(t.labels[i] for i in keep))


def h_sc(t: TestGraph, pi: MultiPartition, s: str, c: str) -> tuple[int, ...]:
    """Block map from the c-quotient's vertices to the s-quotient's vertices;
    well defined because the meet refines every string's kernel."""
    om = omega(pi, t.assignment, c)
    ps = pi.part(s)
    return tuple(ps.block_index(b[0]) for b in om.blocks)


@dataclass(frozen=True)
class GCCGraph:
    """Bipartite multigraph tying string-quotient vertices to colored
    components; one edge per vertex of each colored quotient."""

    graph: Multigraph
    left_blocks: tuple[tuple[int, ...], ...]  # blocks of pi_s
    right_comps: tuple[tuple[str, tuple[int, ...]], ...]  # (color, parent vertices)
    edge_keys: tuple[tuple[str, tuple[int, ...]], ...]  # (color, omega block)

    @property
    def left_count(self) -> int:
        return len(self.left_blocks)

    def is_tree(self) -> bool:
        return self.graph.is_tree()

    def vertex_desc(self, v: int):
        if v < self.left_count:
            return ("block", self.left_blocks[v])
        return ("comp",) + self.right_comps[v - self.left_count]


def gcc(t: TestGraph, pi: MultiPartition, s: str) -> GCCGraph:
    ps = pi.part(s)
    left = ps.blocks
    right: list[tuple[str, tuple[int, ...]]] = []
    edges: list[tuple[int, int]] = []
    keys: list[tuple[str, tuple[int, ...]]] = []
    for c in sorted(t.assignment.colors_of(s)):
        q = color_quotient(t, pi, c)
        comps = q.components
        offset = len(left) + len(right)
        for comp in comps.blocks:
            members = tuple(sorted(v for b in comp for v in q.partition.blocks[b]))
            right.append((c, members))
        for v, block in enumerate(q.partition.blocks):
            # the block map h_sc: the meet refines pi_s, so any member names the block
            edges.append((ps.block_index(block[0]), offset + comps.block_index(v)))
            keys.append((c, block))
    graph = Multigraph(len(left) + len(right), tuple(edges))
    return GCCGraph(graph, left, tuple(right), tuple(keys))


@dataclass(frozen=True)
class GCCWalk:
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    vertex_descs: tuple
    edge_keys: tuple


def induced_gcc_walk(
    t: TestGraph, pi: MultiPartition, s: str, edge_sequence: Sequence[int]
) -> GCCWalk:
    """The walk a quotient-graph walk induces in the graph of colored
    components: alternates string-quotient blocks with colored components,
    one GCC edge per endpoint of each relevant edge."""
    _check_admissible(t, pi)
    if not edge_sequence:
        raise ValueError("empty edge sequence")
    cs = sorted(t.assignment.colors_of(s))
    if not any(_is_quotient_walk(t, pi, c, edge_sequence) for c in cs):
        raise ValueError("edge sequence is not a walk in any relevant color quotient")
    g = gcc(t, pi, s)
    ps = pi.part(s)
    relevant = [j for j in edge_sequence if t.edge_colors[j] in cs]
    first_src = t.digraph.edges[edge_sequence[0]][0]
    verts = [ps.block_index(first_src)]
    edge_ids: list[int] = []
    key_index = {k_eid: i for i, k_eid in enumerate(g.edge_keys)}
    for j in relevant:
        c = t.edge_colors[j]
        om = omega(pi, t.assignment, c)
        src, dst = t.digraph.edges[j]
        e_in = key_index[(c, om.block_containing(src))]
        e_out = key_index[(c, om.block_containing(dst))]
        if verts[-1] != ps.block_index(src):
            raise ValueError("walk is not consistent in the string quotient")
        verts.append(g.graph.edges[e_in][1])  # the colored component holding src
        verts.append(ps.block_index(dst))
        edge_ids.extend([e_in, e_out])
    last_dst = t.digraph.edges[edge_sequence[-1]][1]
    if verts[-1] != ps.block_index(last_dst):
        raise ValueError("walk does not end where the edge sequence does")
    _assert_walk_valid(g, verts, edge_ids)
    return GCCWalk(
        tuple(verts),
        tuple(edge_ids),
        tuple(g.vertex_desc(v) for v in verts),
        tuple(g.edge_keys[e] for e in edge_ids),
    )


def _is_quotient_walk(t: TestGraph, pi: MultiPartition, c: str, seq: Sequence[int]) -> bool:
    om = omega(pi, t.assignment, c)
    for a, b in zip(seq, seq[1:]):
        if not om.same_block(t.digraph.edges[a][1], t.digraph.edges[b][0]):
            return False
    return True


def _assert_walk_valid(g: GCCGraph, verts: Sequence[int], edges: Sequence[int]):
    if len(verts) != len(edges) + 1:
        raise AssertionError("walk shape mismatch")
    for i, e in enumerate(edges):
        u, v = g.graph.edges[e]
        if {u, v} != {verts[i], verts[i + 1]} and not (u == v == verts[i] == verts[i + 1]):
            raise AssertionError("edge does not join consecutive walk vertices")


# ---------------------------------------------------------------------------
# kernel-class sums: empirical, exact-in-lambda, and in expectation


def _labeling_chunks(pi: MultiPartition, n: int, map_guard: int) -> tuple[int, Iterator[list[np.ndarray]]]:
    """The guarded count of labelings whose per-string kernels are exactly pi,
    and those labelings in itertools.product order over each string's
    injective block maps, as chunks of per-string digit arrays (a row per
    labeling, a column per vertex) of at most LABELING_CHUNK entries."""
    counts = [math.perm(n, p.num_blocks) for p in pi.parts]
    total = math.prod(counts)
    if total > map_guard:
        raise GuardExceeded(f"kernel labeling count {total} exceeds map guard {map_guard}")
    step = max(1, LABELING_CHUNK // max(pi.parts[0].ground_size, 1))

    def chunk(lo: int) -> list[np.ndarray]:
        flat = np.arange(lo, min(lo + step, total))
        digits = []
        for k, p in enumerate(pi.parts):
            rows, b = flat // math.prod(counts[k + 1 :]) % counts[k], p.num_blocks
            digits.append(_block_maps(n, b, rows)[:, [p.block_index(v) for v in range(p.ground_size)]])
        return digits

    return total, map(chunk, range(0, total, step))


def _block_maps(n: int, b: int, ranks: np.ndarray) -> np.ndarray:
    """Rows `ranks` of itertools.permutations(range(n), b): a rank's digits
    index values among those still free, then skip those fixed before."""
    out = np.empty((len(ranks), b), dtype=np.int64)
    for j in range(b):
        out[:, j] = ranks // math.perm(n - j - 1, b - j - 1) % (n - j)
    for j in reversed(range(b - 1)):
        out[:, j + 1 :] += out[:, j + 1 :] >= out[:, j : j + 1]
    return out


def _encode(digits: Sequence[np.ndarray], n: int):
    return functools.reduce(lambda code, d: code * n + d, digits)


def _loop_products(vecs: Sequence[np.ndarray], codes: np.ndarray) -> np.ndarray:
    term = np.ones(len(codes), dtype=np.int64)
    for v, vec in enumerate(vecs):
        term = term * vec[codes[:, v]]
    return term


def _add_terms(total, terms: np.ndarray, exact: bool):
    # float terms are added one at a time in labeling order, as a loop would
    if exact:
        return total + terms.sum()
    for x in terms.tolist():
        total = total + x
    return total


def _kernel_sum(total, exact: bool, denom: int):
    if exact:
        return Fraction(int(total), denom) if isinstance(total, (int, np.integer)) else Fraction(total, denom)
    return complex(total) / denom


def lambda_value(t: LoopedTestGraph, pi: MultiPartition, n: int, map_guard: int = MAP_GUARD):
    """Normalized sum of the vertex-label products over labelings whose
    per-string kernels are exactly pi."""
    denom = n ** sum(p.num_blocks for p in pi.parts)
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    if all(_is_ones(vec) for vec in t.vertex_labels):
        num = math.prod(math.perm(n, p.num_blocks) for p in pi.parts)
        return Fraction(num, denom)
    vecs, exact = _as_exact_or_complex(list(t.vertex_labels))
    count, labelings = _labeling_chunks(pi, n, map_guard)
    vecs = exact_operands(vecs, count)
    total = 0
    for digits in labelings:
        total = _add_terms(total, _loop_products(vecs, _encode(digits, n)), exact)
    return _kernel_sum(total, exact, denom)


def _is_ones(vec: np.ndarray) -> bool:
    return vec.dtype != object and np.issubdtype(vec.dtype, np.integer) and bool(np.all(vec == 1))


def gamma_empirical(
    t: LoopedTestGraph,
    pi: MultiPartition,
    sigmas: dict[str, Permutation],
    n: int,
    map_guard: int = MAP_GUARD,
):
    """The kernel-class contribution to the looped trace for one concrete
    draw of the color permutations: sums only labelings whose per-string
    kernels equal pi."""
    base = t.base
    dim = base.full_space(n).total_dim
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    count, labelings = _labeling_chunks(pi, n, map_guard)
    vecs, exact_loops = _as_exact_or_complex(list(t.vertex_labels))
    exact = exact_loops and all(lab.is_exact() for lab in base.labels)
    edges = base.digraph.edges
    # an injective labeling gives an edge's ends one digit on a string exactly
    # when pi puts them in one block, which every string off the support needs
    for (src, dst), lab in zip(edges, base.labels):
        if not all(p.same_block(src, dst) for s, p in pi.items() if s not in lab.support):
            return _kernel_sum(0, exact, dim)
    imgs = {c: np.asarray(sigmas[c].images) for c in set(base.edge_colors)}
    conj = [lab.entries[imgs[c][:, None], imgs[c]] for c, lab in zip(base.edge_colors, base.labels)]
    ops = exact_operands(vecs + conj, count)  # unchanged unless all are integer
    vecs, conj = ops[: len(vecs)], ops[len(vecs) :]
    supports = {lab.support for lab in base.labels}
    total = 0
    for digits in labelings:
        term = _loop_products(vecs, _encode(digits, n))
        keep = term != 0
        codes = {sup: _encode([digits[pi.strings.index(s)] for s in sup], n) for sup in supports}
        for (src, dst), lab, m in zip(edges, base.labels, conj):
            entry = m[codes[lab.support][:, dst], codes[lab.support][:, src]]
            keep &= entry != 0
            term = term * entry
        total = _add_terms(total, term[keep], exact)
    return _kernel_sum(total, exact, dim)


def gamma_expected_formula(
    t: LoopedTestGraph,
    pi: MultiPartition,
    n: int,
    map_guard: int = MAP_GUARD,
):
    """Exact expectation of the kernel-class sum over the uniform draws,
    valid for connected graphs and kernels above every rho_s: a power of N
    times the vertex-label sum times one factorial-weighted injective sum
    per color."""
    base = t.base
    if weak_components(base.digraph).num_blocks != 1:
        raise ValueError("graph must be weakly connected")
    _check_admissible(base, pi)
    lam = lambda_value(t, pi, n, map_guard)
    if lam == 0:
        return Fraction(0) if isinstance(lam, Fraction) else 0.0
    exponent = sum(p.num_blocks - 1 for p in pi.parts)
    prefactor = Fraction(n) ** exponent
    out = prefactor * lam
    for c in sorted(set(base.edge_colors)):
        q = color_quotient(base, pi, c)
        d_c = n ** len(base.assignment.strings_of(c))
        v_c = q.partition.num_blocks
        if v_c > d_c:
            return Fraction(0) if isinstance(lam, Fraction) else 0.0
        raw_inj = raw_injective_graph_sum(
            q.digraph, [lab.entries for lab in q.labels], d_c, None, map_guard
        )
        factor = Fraction(1, math.perm(d_c, v_c)) if isinstance(raw_inj, (int, Fraction)) else 1.0 / math.perm(d_c, v_c)
        out = out * factor * raw_inj
    return out


def color_injective_trace(t: TestGraph, pi: MultiPartition, c: str, n: int, map_guard: int = MAP_GUARD):
    """Normalized injective trace of the c-colored quotient, over the color's
    own string block."""
    q = color_quotient(t, pi, c)
    d_c = n ** len(t.assignment.strings_of(c))
    raw = raw_injective_graph_sum(q.digraph, [lab.entries for lab in q.labels], d_c, None, map_guard)
    comps = q.components.num_blocks
    return _normalize(raw, d_c, comps)


# ---------------------------------------------------------------------------
# growth exponents and surviving kernel classes


def growth_exponent(t: TestGraph, pi: MultiPartition) -> tuple[Fraction, dict[str, Fraction]]:
    """The power of N carried by a kernel class: per string, the block count
    minus one plus, over the string's colors, half the bridge-forest leaf
    count minus the vertex count of the colored quotient.  Nonpositive on
    two-edge-connected graphs, zero exactly when every colored-component
    graph is a tree."""
    _check_admissible(t, pi)
    record = _KernelRecord(t, exponent=True)
    doubled = record.doubled_exponents([pi.part(s) for s in record.strings])
    return Fraction(sum(doubled), 2), {s: Fraction(d, 2) for s, d in zip(record.strings, doubled)}


class _ColorSummary(NamedTuple):
    """One colored quotient as the exponent and the tree tests read it."""

    reps: tuple[int, ...]  # per quotient vertex, its smallest parent vertex
    comp_of: tuple[int, ...]  # per quotient vertex, its weak component
    components: int
    # the exponent sweep's fields; None in a record built for the tree search
    leaves: int | None  # bridge-forest leaves
    injective: bool | None  # each kernel's block map h_sc is injective per component


class _KernelRecord:
    """The kernel analysis of one test graph, shared by the kernel tuples of
    one sweep.  A color's quotient depends only on the kernels of its own
    strings and a string's GCC only on the kernels of the strings sharing a
    color with it.  Built for the exponent sweep, the record adds leaf
    counts and injectivity to each summary and memoises summaries and tree
    verdicts on just those kernels; the tree search reaches each prefix
    once, so few of its keys recur, and it keeps no memo.  Kernel tuples
    come as sequences aligned with the sorted strings; a prefix will do
    when it holds every kernel a lookup reads."""

    def __init__(self, t: TestGraph, exponent: bool):
        a = t.assignment
        self.exponent = exponent
        self.strings = a.sorted_strings()
        self.colors = {  # color -> (its edges' digraph, its strings' positions)
            c: (
                t.digraph.restrict_edges([i for i, x in enumerate(t.edge_colors) if x == c]),
                tuple(map(self.strings.index, a.sorted_strings_of(c))),
            )
            for c in sorted({c for s in self.strings for c in a.colors_of(s)})
        }
        self.string_colors = [sorted(a.colors_of(s)) for s in self.strings]
        # the strings whose kernels decide string i's GCC, i among them
        self.neighbors = [
            sorted({i}.union(*(self.colors[c][1] for c in cs))) for i, cs in enumerate(self.string_colors)
        ]
        self._summaries: dict = {}  # (color, its strings' kernels) -> _ColorSummary
        self._trees: dict = {}  # (string position, its neighbors' kernels) -> bool

    def summary(self, c: str, parts: Sequence[Partition]) -> _ColorSummary:
        g, idx = self.colors[c]
        key = (c, tuple(parts[i] for i in idx))
        out = self._summaries.get(key)
        if out is None:
            om = meet_many(key[1])
            q, _ = quotient_digraph(g, om)
            comps = weak_components(q)
            reps = tuple(b[0] for b in om.blocks)
            comp_of = tuple(comps.block_index(v) for v in range(om.num_blocks))
            leaves = injective = None
            if self.exponent:
                # without edges each quotient vertex is an isolated forest vertex
                leaves = two_edge_decompose(q).leaf_count if g.edges else 2 * om.num_blocks
                pairs = list(zip(comp_of, reps))
                injective = all(len({(k, p.block_index(r)) for k, r in pairs}) == len(reps) for p in key[1])
            out = _ColorSummary(reps, comp_of, comps.num_blocks, leaves, injective)
            if self.exponent:
                self._summaries[key] = out
        return out

    def doubled_exponents(self, parts: Sequence[Partition]) -> list[int]:
        """Twice each string's growth exponent, in sorted-string order."""
        out = [2 * (p.num_blocks - 1) for p in parts]
        for c, (_, idx) in self.colors.items():
            q = self.summary(c, parts)
            for i in idx:
                out[i] += q.leaves - 2 * len(q.reps)
        return out

    def tree(self, i: int, parts: Sequence[Partition]) -> bool:
        """Whether string i's GCC, as `gcc` builds it, is a tree."""
        key = (i, tuple(parts[j] for j in self.neighbors[i]))
        out = self._trees.get(key)
        if out is None:
            ps, edges, offset = parts[i], [], parts[i].num_blocks
            for c in self.string_colors[i]:
                q = self.summary(c, parts)
                edges.extend((ps.block_index(r), offset + k) for r, k in zip(q.reps, q.comp_of))
                offset += q.components
            out = Multigraph(offset, tuple(edges)).is_tree()
            if self.exponent:
                self._trees[key] = out
        return out

    def all_trees(self, parts: Sequence[Partition]) -> bool:
        return all(self.tree(i, parts) for i in range(len(self.strings)))


def _kernel_pools(t: TestGraph, partition_guard: int) -> tuple[tuple[str, ...], list[list[Partition]]]:
    """The sorted strings and, per string, every partition above its rho_s,
    once the count of kernel tuples is checked against the guard."""
    rhos = all_rho(t)
    strings = t.assignment.sorted_strings()
    total = math.prod(bell_number(rhos.part(s).num_blocks) for s in strings)
    if total > partition_guard:
        raise GuardExceeded(f"partition tuple count {total} exceeds guard {partition_guard}")
    return strings, [list(enumerate_partitions(t.digraph.vertex_count, rhos.part(s))) for s in strings]


def enumerate_admissible(
    t: TestGraph, partition_guard: int = PARTITION_GUARD
) -> Iterator[MultiPartition]:
    """All kernel tuples lying above every minimal kernel rho_s."""
    strings, pools = _kernel_pools(t, partition_guard)
    for combo in itertools.product(*pools):
        yield MultiPartition(strings, tuple(combo))


def all_gcc_trees(t: TestGraph, pi: MultiPartition) -> bool:
    record = _KernelRecord(t, exponent=False)
    return record.all_trees([pi.part(s) for s in record.strings])


def enumerate_tree_partitions(
    t: TestGraph, partition_guard: int = PARTITION_GUARD
) -> Iterator[MultiPartition]:
    """Admissible kernel tuples whose colored-component graphs are all trees.

    Enumerates string by string and discards a prefix as soon as some string's
    tree test is already decided and fails; the test for string s only needs
    the partitions of the strings sharing a color with s.
    """
    strings, pools = _kernel_pools(t, partition_guard)
    record = _KernelRecord(t, exponent=False)
    # string i's tree test is decided once the last of its neighbors is chosen
    check_at = [[i for i, near in enumerate(record.neighbors) if near[-1] == lv] for lv in range(len(strings))]

    def rec(level: int, chosen: list[Partition]):
        if level == len(strings):
            yield MultiPartition(strings, tuple(chosen))
            return
        for part in pools[level]:
            chosen.append(part)
            if all(record.tree(i, chosen) for i in check_at[level]):
                yield from rec(level + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def expected_trace_leading_terms(
    t: LoopedTestGraph,
    n: int,
    partition_guard: int = PARTITION_GUARD,
    map_guard: int = MAP_GUARD,
):
    """Sum, over kernel tuples whose colored-component graphs are all trees,
    of the vertex-label sum times the product of normalized injective traces
    of the colored quotients; the surviving part of the expected looped trace
    as N grows.  Returns (value, list of (pi, term))."""
    base = t.base
    if not is_two_edge_connected(base.digraph):
        raise ValueError("graph must be two-edge connected")
    terms = []
    total = Fraction(0)
    for pi in enumerate_tree_partitions(base, partition_guard):
        term = lambda_value(t, pi, n, map_guard)
        for c in sorted(set(base.edge_colors)):
            if term == 0:
                break
            term = term * color_injective_trace(base, pi, c, n, map_guard)
        if term != 0:
            terms.append((pi, term))
            total = total + term
    return total, terms


def expected_trace_full_sum(
    t: LoopedTestGraph,
    n: int,
    partition_guard: int = PARTITION_GUARD,
    map_guard: int = MAP_GUARD,
):
    """Exact expected looped trace: the expectation formula summed over every
    admissible kernel tuple."""
    total = Fraction(0)
    for pi in enumerate_admissible(t.base, partition_guard):
        total = total + gamma_expected_formula(t, pi, n, map_guard)
    return total
