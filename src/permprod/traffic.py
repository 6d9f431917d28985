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
    _bridge_forest,
    _is_tree,
    is_two_edge_connected,
    quotient_digraph,
    two_edge_decompose,
    weak_components,
)
from .partitions import (
    Partition,
    _classes,
    _codes,
    _restricted_growth,
    bell_exceeds,
    bell_number,
    enumerate_partitions,
    meet_many,
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
    lift_permutation,
    lifted_columns,
    support_grid,
)

MAP_GUARD = 2**24
LABELING_CHUNK = 2**14  # array entries per chunk of kernel labelings
PARTITION_GUARD = 10**7
SWEEP_BYTES = 2**24  # estimated bytes per `_kernel_sweep` chunk: they bound all the sweep keeps but its pools


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
    def with_identity(base: TestGraph, n: int | None = None) -> "LoopedTestGraph":
        """All-ones loops over the side-n space (the labels' side by default)."""
        dim = base.full_space(n).total_dim
        ones = np.ones(dim, dtype=np.int64)
        return LoopedTestGraph(base, tuple(ones for _ in range(base.digraph.vertex_count)))


@dataclass(frozen=True)
class MultiPartition:
    """One vertex partition per string, aligned with the sorted string list."""

    # named slots: `slots=True` rebuilds the class, whose frozen __setattr__ then raises TypeError
    __slots__ = ("strings", "parts")
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

    def __reduce__(self):
        return MultiPartition, (self.strings, self.parts)

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


def _is_exact(a: np.ndarray) -> bool:
    return a.dtype == object or np.issubdtype(a.dtype, np.integer)


def _as_exact_or_complex(arrays: Sequence[np.ndarray]) -> tuple[list[np.ndarray], bool]:
    exact = all(map(_is_exact, arrays))
    if exact:
        return list(arrays), True
    return [np.asarray(a, dtype=np.complex128) for a in arrays], False


def raw_graph_sum(
    g: DiGraph,
    edge_matrices: Sequence[np.ndarray],
    dim: int,
    vertex_vectors: Sequence[np.ndarray] | None = None,
):
    """Sum over all vertex labelings i of prod_e M_e[i(target), i(source)]
    (times prod_v vec_v[i(v)] when vertex vectors are given).

    Evaluated as a tensor-network contraction, so the cost is far below the
    dim**V labelings it sums.  Exact for integer/object inputs.
    """
    nv = g.vertex_count
    if nv == 0:
        return 1
    if nv > len(_stringmod.ascii_letters):
        raise GuardExceeded("too many vertices for subscript labels")
    letters = _stringmod.ascii_letters
    loops = vertex_vectors if vertex_vectors is not None else [np.ones(dim, dtype=np.int64)] * nv
    operands, exact = _as_exact_or_complex([*edge_matrices, *map(np.asarray, loops)])
    expr = ",".join([letters[t] + letters[s] for s, t in g.edges] + list(letters[:nv])) + "->"
    if exact:
        operands = exact_operands(operands, dim**nv)
        if any(a.dtype == object for a in operands):
            return np.einsum(expr, *[a.astype(object) for a in operands], optimize=False)
    path = _einsum_plan(expr, tuple(a.shape for a in operands))
    total = np.einsum(expr, *operands, optimize=path)
    return int(total) if exact else complex(total)


@functools.lru_cache(maxsize=1024)
def _einsum_plan(expr: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    """The contraction path `optimize=True` would choose, planned once per
    expression and operand shapes (zero-stride stand-ins carry the shapes)."""
    return np.einsum_path(expr, *(np.broadcast_to(0, s) for s in shapes), optimize="greedy")[0]


def raw_injective_graph_sum(
    g: DiGraph,
    edge_matrices: Sequence[np.ndarray],
    dim: int,
    vertex_vectors: Sequence[np.ndarray] | None = None,
):
    """Same sum restricted to injective labelings: the chased labelings
    (`_chase`) whose points are all distinct.  An edge may also be a
    `Permutation` of the dim points, chased through its image array."""
    whole = np.arange(dim, dtype=np.int64)[:, None]  # each matrix acts on the whole space
    edges = [m if isinstance(m, Permutation) else (np.asarray(m), whole) for m in edge_matrices]
    loops = vertex_vectors if vertex_vectors is not None else [np.ones(dim, dtype=np.int64)] * g.vertex_count
    return _injective_sum(*_chase(g, edges, loops, dim, MAP_GUARD)[:2])


def _injective_sum(rows: np.ndarray, weights: np.ndarray):
    """The summed weight of the rows whose points are all distinct: an int
    when the weights are exact, else complex."""
    distinct = (np.diff(np.sort(rows, axis=1), axis=1) != 0).all(axis=1)
    total = weights[distinct].sum()
    return int(total) if _is_exact(weights) else complex(total)


def _per_component(g: DiGraph, dim: int) -> int:
    """dim once per weak component: the denominator of traces and kernel sums."""
    return dim ** weak_components(g).num_blocks


# ---------------------------------------------------------------------------
# full-space traces of (looped) test graphs


def _conjugated_labels(t: TestGraph, sigmas: dict[str, Permutation] | None) -> Iterator[StructuredMatrix]:
    """Each label conjugated by its color's permutation (identity when absent)."""
    for c, lab in zip(t.edge_colors, t.labels):
        sigma = sigmas.get(c) if sigmas is not None else None
        yield lab if sigma is None else conjugate_by_color(lab, sigma)


def underline_labels(t: TestGraph, sigmas: dict[str, Permutation] | None, n: int | None = None) -> list[np.ndarray]:
    """Dense full-space edge labels: each label conjugated by its color's
    permutation (identity when absent) and lifted by `lift`."""
    space = t.full_space(n)
    return [lift(lab, space) for lab in _conjugated_labels(t, sigmas)]


def _check_labeling_count(n: int, nv: int, map_guard: int) -> None:
    """Refuse n**nv labelings per string past the map guard; for n > 1, nv
    past the guard's bit length passes it, so n**nv is formed only below."""
    if nv and (n > 1 and nv > map_guard.bit_length() or n**nv > map_guard):
        raise GuardExceeded(f"per-string labeling count {n}**{nv} exceeds map guard {map_guard}")


def _trace_impl(t, sigmas, n, injective, map_guard):
    base = t.base if isinstance(t, LoopedTestGraph) else t
    nn = n if n is not None else base.n
    space = base.full_space(nn)
    _check_labeling_count(nn, base.digraph.vertex_count, map_guard)
    if injective:
        looped = t if isinstance(t, LoopedTestGraph) else LoopedTestGraph.with_identity(t, nn)
        raw = _injective_sum(*chase_labelings(looped, sigmas, nn, map_guard)[:2])
    else:
        loops = t.vertex_labels if isinstance(t, LoopedTestGraph) else None
        mats = underline_labels(base, sigmas, nn)
        raw = raw_graph_sum(base.digraph, mats, space.total_dim, loops)
    return _kernel_sum(raw, isinstance(raw, int), _per_component(base.digraph, space.total_dim))


def trace_test_graph(
    t: TestGraph | LoopedTestGraph,
    n: int | None = None,
    sigmas: dict[str, Permutation] | None = None,
    map_guard: int = MAP_GUARD,
):
    """The trace of the test graph over its full space: the sum over all
    vertex labelings, divided by dim per weakly connected component."""
    return _trace_impl(t, sigmas, n, False, map_guard)


def injective_trace(
    t: TestGraph | LoopedTestGraph, n: int | None = None, sigmas: dict[str, Permutation] | None = None
):
    """The trace restricted to injective vertex labelings: the chased
    labelings whose points are all distinct."""
    return _trace_impl(t, sigmas, n, True, MAP_GUARD)


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


@dataclass(frozen=True)
class GCCGraph:
    """Bipartite multigraph tying string-quotient vertices to colored
    components; one edge per vertex of each colored quotient."""

    graph: Multigraph
    left_blocks: tuple[tuple[int, ...], ...]  # blocks of pi_s
    right_comps: tuple[tuple[str, tuple[int, ...]], ...]  # (color, parent vertices)
    edge_keys: tuple[tuple[str, tuple[int, ...]], ...]  # (color, omega block)

    def is_tree(self) -> bool:
        return self.graph.is_tree()


def gcc(t: TestGraph, pi: MultiPartition, s: str) -> GCCGraph:
    ps = pi.part(s)
    left = ps.blocks
    right, edges, keys = [], [], []
    for c in sorted(t.assignment.colors_of(s)):
        q = color_quotient(t, pi, c)
        comps = q.components
        offset = len(left) + len(right)
        right.extend((c, tuple(sorted(v for b in comp for v in q.partition.blocks[b]))) for comp in comps.blocks)
        for v, block in enumerate(q.partition.blocks):
            # the block map h_sc: the meet refines pi_s, so any member names the block
            edges.append((ps.block_index(block[0]), offset + comps.block_index(v)))
            keys.append((c, block))
    return GCCGraph(Multigraph(len(left) + len(right), tuple(edges)), left, tuple(right), tuple(keys))


# ---------------------------------------------------------------------------
# kernel-class sums: empirical, exact-in-lambda, and in expectation


def _labeling_chunks(pi: MultiPartition, n: int) -> tuple[int, Iterator[list[np.ndarray]]]:
    """The guarded count of labelings whose per-string kernels are exactly pi,
    and those labelings in itertools.product order over each string's
    injective block maps, as chunks of per-string digit arrays (a row per
    labeling, a column per vertex) of at most LABELING_CHUNK entries."""
    counts = [math.perm(n, p.num_blocks) for p in pi.parts]
    total = math.prod(counts)
    if total > MAP_GUARD:
        raise GuardExceeded(f"kernel labeling count {total} exceeds map guard {MAP_GUARD}")
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


def lambda_value(t: LoopedTestGraph, pi: MultiPartition, n: int):
    """Normalized sum of the vertex-label products over labelings whose
    per-string kernels are exactly pi."""
    denom = n ** sum(p.num_blocks for p in pi.parts)
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    if all(_is_ones(vec) for vec in t.vertex_labels):
        num = math.prod(math.perm(n, p.num_blocks) for p in pi.parts)
        return Fraction(num, denom)
    vecs, exact = _as_exact_or_complex(list(t.vertex_labels))
    count, labelings = _labeling_chunks(pi, n)
    vecs = exact_operands(vecs, count)
    total = 0
    for digits in labelings:
        total = _add_terms(total, _loop_products(vecs, _encode(digits, n)), exact)
    return _kernel_sum(total, exact, denom)


def _is_ones(vec: np.ndarray) -> bool:
    return vec.dtype != object and np.issubdtype(vec.dtype, np.integer) and bool(np.all(vec == 1))


def gamma_empirical(t: LoopedTestGraph, pi: MultiPartition, sigmas: dict[str, Permutation], n: int):
    """The kernel-class contribution to the looped trace for one concrete
    draw of the color permutations: sums only labelings whose per-string
    kernels equal pi, divided by dim once per weak component as the trace is."""
    base = t.base
    dim = base.full_space(n).total_dim
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    count, labelings = _labeling_chunks(pi, n)
    vecs, exact_loops = _as_exact_or_complex(list(t.vertex_labels))
    exact = exact_loops and all(lab.is_exact() for lab in base.labels)
    edges = base.digraph.edges
    # an injective labeling gives an edge's ends one digit on a string exactly
    # when pi puts them in one block, which every string off the support needs
    for (src, dst), lab in zip(edges, base.labels):
        if not all(p.same_block(src, dst) for s, p in pi.items() if s not in lab.support):
            return _kernel_sum(0, exact, dim)
    imgs = {c: sigmas[c].images for c in set(base.edge_colors)}
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
    return _kernel_sum(total, exact, _per_component(base.digraph, dim))


def _chase(
    g: DiGraph, edges: Sequence, loops: Sequence[np.ndarray], dim: int, map_guard: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The nonzero labelings of a looped graph on dim points as (rows,
    weights, count): a row of points per labeling (a column per vertex),
    its product of loop and edge entries, and dim**components, the root
    rows the guard bounds and the trace's denominator.  An edge is a
    full-space `Permutation` or a (block matrix, `support_grid`) pair.  The
    root rows, one per tuple of points at one root per weak component, are
    chased along a spanning forest: a permutation sends each row's known
    point through its image array, and a dense edge repeats each row once
    per nonzero entry in the column of its known end (of the transpose
    when walked backwards), times that entry.  Another edge keeps the rows
    it agrees with or multiplies in its entry; rows of weight 0 are
    dropped.  Weights are exact, widened past int64 as `exact_operands`
    does, unless a label or loop is float or complex."""
    roots = [b[0] for b in weak_components(g).blocks]
    count = dim ** len(roots)
    if count > map_guard:
        raise GuardExceeded(f"chased labeling count {dim}**{len(roots)} exceeds map guard {map_guard}")
    dense = [e for e, x in enumerate(edges) if not isinstance(x, Permutation)]
    # every row is a distinct labeling, and no more than map_guard rows are built
    ops = exact_operands([*loops, *(edges[e][0] for e in dense)], min(dim**g.vertex_count, map_guard))
    loops, mats = ops[: len(loops)], dict(zip(dense, ops[len(loops) :]))
    rows = np.zeros((count, g.vertex_count), dtype=np.int64)
    rows[:, roots] = np.indices((dim,) * len(roots)).reshape(len(roots), count).T
    weights = np.ones(count, dtype=np.int64)
    known, keep, todo = set(roots), np.ones(count, dtype=bool), list(range(g.edge_count))
    while todo:  # take an edge with a reached end
        e = next(e for e in todo if known.intersection(g.edges[e]))
        todo.remove(e)
        src, dst = g.edges[e]
        if e not in mats:
            if dst not in known:
                rows[:, dst] = edges[e].images[rows[:, src]]
            elif src not in known:
                rows[:, src] = edges[e].inverse().images[rows[:, dst]]
            else:
                keep &= rows[:, dst] == edges[e].images[rows[:, src]]
        elif src in known and dst in known:
            points, values = lifted_columns(mats[e], edges[e][1])
            at = rows[:, src]
            weights = weights * (values[at] * (points[at] == rows[:, dst, None])).sum(axis=1)
        else:
            old, new, m = (src, dst, mats[e]) if src in known else (dst, src, mats[e].T)
            points, values = lifted_columns(m, edges[e][1])
            rows, weights, k = rows[keep], weights[keep], points.shape[1]
            if len(rows) * k > map_guard:
                raise GuardExceeded(f"chased labeling count {len(rows)}*{k} exceeds map guard {map_guard}")
            at = rows[:, old]
            rows = np.repeat(rows, k, axis=0)
            rows[:, new] = points[at].ravel()
            weights = (weights[:, None] * values[at]).ravel()
            keep = weights != 0
        known.update((src, dst))
    for v, vec in enumerate(loops):
        weights = weights * vec[rows[:, v]]
    keep &= weights != 0
    return rows[keep], weights[keep], count


def chase_labelings(
    t: LoopedTestGraph, sigmas: dict[str, Permutation] | None, n: int, map_guard: int = MAP_GUARD
) -> tuple[np.ndarray, np.ndarray, int]:
    """The nonzero labelings of a looped graph over its full side-n space,
    as `_chase` gives them, with each label conjugated by its color's
    permutation (identity when absent): a permutation label as its lifted
    image array, any other as its block matrix."""
    base = t.base
    space = base.full_space(n)
    edges = [
        lift_permutation(lab, space) if lab.perm is not None else (lab.entries, support_grid(lab.support, space))
        for lab in _conjugated_labels(base, sigmas)
    ]
    return _chase(base.digraph, edges, t.vertex_labels, space.total_dim, map_guard)


def _kernel_buckets(
    t: LoopedTestGraph, sigmas: dict[str, Permutation] | None, n: int, map_guard: int = MAP_GUARD
) -> dict:
    """Every kernel-class sum of one draw, {kernel tuple: `gamma_empirical`}:
    the chased labelings' weights summed per kernel tuple."""
    rows, weights, count = chase_labelings(t, sigmas, n, map_guard)
    # per row and string, each vertex's digit; its kernel block is named by
    # the last vertex holding the same digit
    strings, nv = len(t.base.full_space(n).strings), rows.shape[1]
    digits = rows[:, None, :] // n ** np.arange(strings - 1, -1, -1)[:, None] % n
    names = np.empty_like(digits)
    for v in range(nv):
        names[digits == digits[..., v : v + 1]] = v
    sums: dict = {}
    for key, weight in zip(map(tuple, names.reshape(len(rows), strings * nv).tolist()), weights.tolist()):
        sums[key] = sums.get(key, 0) + weight
    exact = _is_exact(weights)
    return {
        tuple(Partition.from_labels(key[k * nv : (k + 1) * nv]) for k in range(strings)): _kernel_sum(total, exact, count)
        for key, total in sums.items()
    }


def gamma_expected_formula(t: LoopedTestGraph, pi: MultiPartition, n: int):
    """Exact expectation of the kernel-class sum over the uniform draws,
    valid for connected graphs and kernels above every rho_s: a power of N
    times the vertex-label sum times one factorial-weighted injective sum
    per color."""
    base = t.base
    if weak_components(base.digraph).num_blocks != 1:
        raise ValueError("graph must be weakly connected")
    _check_admissible(base, pi)
    lam = lambda_value(t, pi, n)
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
        labels = [lab.perm if lab.perm is not None else lab.entries for lab in q.labels]
        raw_inj = raw_injective_graph_sum(q.digraph, labels, d_c)
        factor = Fraction(1, math.perm(d_c, v_c)) if isinstance(raw_inj, (int, Fraction)) else 1.0 / math.perm(d_c, v_c)
        out = out * factor * raw_inj
    return out


def color_injective_trace(t: TestGraph, pi: MultiPartition, c: str, n: int):
    """Normalized injective trace of the c-colored quotient, over the color's
    own string block."""
    q = color_quotient(t, pi, c)
    d_c = n ** len(t.assignment.strings_of(c))
    labels = [lab.perm if lab.perm is not None else lab.entries for lab in q.labels]
    raw = raw_injective_graph_sum(q.digraph, labels, d_c)
    return _kernel_sum(raw, isinstance(raw, int), d_c**q.components.num_blocks)


# ---------------------------------------------------------------------------
# growth exponents and surviving kernel classes


def growth_exponent(t: TestGraph, pi: MultiPartition) -> tuple[Fraction, dict[str, Fraction]]:
    """The power of N carried by a kernel class: per string, the block count
    minus one plus, over the string's colors, half the bridge-forest leaf
    count minus the vertex count of the colored quotient.  Nonpositive on
    two-edge-connected graphs, zero exactly when every colored-component
    graph is a tree."""
    _check_admissible(t, pi)
    a = t.assignment
    per_string = {s: Fraction(pi.part(s).num_blocks - 1) for s in a.sorted_strings()}
    for c in sorted(set(t.edge_colors)):  # an edgeless color's term is zero
        q = color_quotient(t, pi, c)
        term = Fraction(q.decomposition().leaf_count, 2) - q.partition.num_blocks
        for s in a.sorted_strings_of(c):
            per_string[s] += term
    return sum(per_string.values(), Fraction(0)), per_string


class _ColorSummary(NamedTuple):
    """One colored quotient as the exponent and the tree tests read it."""

    reps: tuple[int, ...]  # per quotient vertex, its smallest parent vertex
    comp_of: tuple[int, ...]  # per quotient vertex, its weak component
    components: int
    leaves: int | None  # bridge-forest leaves; None where only trees are tested


def _color_summary(edges: list[tuple[int, int]], om: tuple[int, ...], leaves: bool) -> _ColorSummary:
    """A color's summary from its edges and the label tuple of the meet of
    its strings' kernels."""
    reps = [v for v, k in enumerate(om) if k not in om[:v]]  # each block's first vertex
    if not edges:  # each quotient vertex is an isolated component and forest vertex
        return _ColorSummary(tuple(reps), tuple(range(len(reps))), len(reps), 2 * len(reps) if leaves else None)
    quotient = [(om[s], om[t]) for s, t in edges]
    comp_of, components = _classes(len(reps), quotient)
    return _ColorSummary(tuple(reps), comp_of, components, _bridge_forest(len(reps), quotient)[3] if leaves else None)


def _gcc_is_tree(ps: Sequence[int], summaries: Sequence[_ColorSummary]) -> bool:
    """Whether a string's GCC, as `gcc` builds it, is a tree, from its
    kernel's labels and its colors' summaries in sorted order."""
    edges, offset = [], max(ps, default=-1) + 1
    for q in summaries:
        edges.extend([(ps[r], offset + k) for r, k in zip(q.reps, q.comp_of)])
        offset += q.components
    return _is_tree(offset, edges)


def _injective(q: _ColorSummary, ps: Sequence[int]) -> bool:
    """Whether the block map h_sc into a string's kernel is injective on
    each component of the colored quotient."""
    return len({(k, ps[r]) for r, k in zip(q.reps, q.comp_of)}) == len(q.reps)


def _kernel_sweep(t: TestGraph, partition_guard: int, leaves: bool) -> Iterator[tuple[np.ndarray, np.ndarray, list]]:
    """Every admissible kernel tuple of one test graph, in
    `enumerate_admissible` order, for one `verify.exponent_suite` or
    `enumerate_tree_partitions` call.  Per chunk of about SWEEP_BYTES it
    yields each tuple's doubled growth exponent (leaf counts read as zero
    without `leaves`), the mask of all-tree tuples, and per all-tree tuple
    its kernels (a label tuple per sorted string) and {color: its summary}.

    Strings with equal rho_s share a pool, its coarsenings as a small signed
    label array; a tuple is a point of the grid of pool rows.  omega_c is
    packed in one int key (a label, or a meet's first vertex of a vertex's
    block, is at most the vertex v, so it goes in base v + 1) and formed
    per tuple from its strings' pool rows.  Each distinct omega_c is
    summarised once; a color's sorted keys, their terms and their
    summaries carry into the next chunk while they number no more than a
    chunk's tuples, so the chunk bounds all the sweep keeps but its pools.
    Exponents and GCC edge and vertex counts are gathers; only tuples with
    E_s = V_s - 1 on every string get the tree test.  `growth_exponent` and
    `all_gcc_trees` are the per-tuple path it is checked against."""
    a, nv = t.assignment, t.digraph.vertex_count
    strings = a.sorted_strings()
    edges = list(zip(t.digraph.edges, t.edge_colors))
    colors = {  # color -> (its edges, its strings' positions)
        c: ([e for e, x in edges if x == c], tuple(map(strings.index, a.sorted_strings_of(c))))
        for c in sorted({c for s in strings for c in a.colors_of(s)})
    }
    string_colors = [sorted(a.colors_of(s)) for s in strings]
    rhos, total = _admissible_count(t, partition_guard)
    pools: dict = {}  # one per distinct rho_s: its coarsenings' labels, a row each
    for p in rhos.parts:
        if p.labels not in pools:
            codes = itertools.chain.from_iterable(_restricted_growth(p.num_blocks))
            size = bell_number(p.num_blocks), p.num_blocks
            grid = np.fromiter(codes, np.min_scalar_type(-nv - 1), math.prod(size)).reshape(size)
            # a code per block of rho_s, then per vertex (the same where rho_s is the singletons)
            pools[p.labels] = grid if p.num_blocks == nv else grid[:, list(p.labels)]
    pools = [pools[p.labels] for p in rhos.parts]
    shape = [len(pool) for pool in pools]
    blocks = [pool.max(axis=1, initial=-1) + 1 for pool in pools]
    weights = np.array([math.factorial(v) for v in range(nv)], dtype=np.int64 if nv <= 20 else object)
    empty = np.empty(0, weights.dtype), np.empty((0, 3), np.int64)
    seen = {c: (*empty, {}) for c in colors}  # color -> (its sorted omega keys, their terms, key -> summary)

    def summarise(c: str, at: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Per tuple of a chunk: its omega_c's key, and its |omega_c|, components and leaf term (three rows)."""
        color_edges, idx = colors[c]
        rows = [at[i] for i in idx]
        om = pools[idx[0]][rows[0]]  # restricted growth strings: one form per partition
        for i, r in zip(idx[1:], rows[1:]):  # the meet: each vertex's first vertex of equal codes
            # a pair of codes per vertex, in nv * nv slots of its own per tuple
            om = (np.arange(len(om))[:, None] * nv + om) * nv + pools[i][r]
            first_of = np.zeros(len(om) * nv * nv, pools[i].dtype)
            for v in reversed(range(nv)):  # the last write to a slot is its first vertex
                first_of[om[:, v]] = v
            om = first_of[om]
        keys = om @ weights
        known, known_terms, summaries = seen[c]
        miss = np.flatnonzero(~np.isin(keys, known))
        if len(miss):
            new, first = np.unique(keys[miss], return_index=True)
            made = []
            for key, j in zip(new.tolist(), miss[first].tolist()):
                summaries[key] = q = _color_summary(color_edges, _codes(om[j].tolist()), leaves)
                made.append((len(q.reps), q.components, (q.leaves or 0) - 2 * len(q.reps)))
            known, known_terms = np.concatenate([known, new]), np.concatenate([known_terms, made])
            order = np.argsort(known)
            known, known_terms = known[order], known_terms[order]
            seen[c] = known, known_terms, summaries
        return keys, known_terms[np.searchsorted(known, keys)].T

    # per tuple, an estimate: 8-byte work arrays, a few per string and color, a
    # meet's arrays, and per color up to two summaries (those carried in and those
    # made) with their keys and terms, at most 500 + 16 v bytes each (tracemalloc
    # read 150-460 bytes at 5 to 13 vertices)
    item_bytes = 8 * (len(shape) + 6 * len(colors) + 4) + nv * (nv + 24) + 2 * len(colors) * (500 + 16 * nv)
    step = max(1, SWEEP_BYTES // item_bytes)
    for flat in (np.arange(lo, min(lo + step, total)) for lo in range(0, total, step)):
        at = np.unravel_index(flat, shape) if shape else ()  # no strings: one empty tuple
        keys, terms = {}, {}  # color -> each tuple's omega_c key, and its |omega_c|, components and leaf term
        for c in colors:
            keys[c], terms[c] = summarise(c, at)
        doubled = np.zeros(len(flat), dtype=np.int64)
        candidate = np.ones(len(flat), dtype=bool)
        for i, cs in enumerate(string_colors):
            n_edges, vertices = 0, blocks[i][at[i]].astype(np.int64)
            doubled += 2 * (vertices - 1)
            for c in cs:
                quotient, components, leaf_term = terms[c]
                doubled += leaf_term
                n_edges, vertices = n_edges + quotient, vertices + components
            candidate &= n_edges == vertices - 1
        trees, found = np.zeros_like(candidate), []
        picked = np.flatnonzero(candidate).tolist()
        columns = [pool[r[picked]].tolist() for pool, r in zip(pools, at)]  # per string, each candidate's kernel
        for k, j in enumerate(picked):
            kernels = tuple(tuple(column[k]) for column in columns)
            chosen = {c: seen[c][2][keys[c][j]] for c in colors}
            if all(_gcc_is_tree(ps, [chosen[c] for c in cs]) for ps, cs in zip(kernels, string_colors)):
                trees[j] = True
                found.append((kernels, chosen))
        seen = {c: kept if len(kept[2]) <= step else (*empty, {}) for c, kept in seen.items()}
        yield doubled, trees, found


def _admissible_count(t: TestGraph, partition_guard: int) -> tuple[MultiPartition, int]:
    """Every rho_s and the count of kernel tuples above them, the product of
    Bell(|rho_s|), checked against the guard; no Bell number past the
    guard is formed."""
    rhos = all_rho(t)
    blocks = [p.num_blocks for p in rhos.parts]
    if any(bell_exceeds(b, partition_guard) for b in blocks):
        raise GuardExceeded(f"partition tuple count of at least Bell({max(blocks)}) exceeds guard {partition_guard}")
    total = math.prod(map(bell_number, blocks))
    if total > partition_guard:
        raise GuardExceeded(f"partition tuple count {total} exceeds guard {partition_guard}")
    return rhos, total


def enumerate_admissible(t: TestGraph) -> Iterator[MultiPartition]:
    """All kernel tuples lying above every minimal kernel rho_s."""
    rhos = _admissible_count(t, PARTITION_GUARD)[0]
    pools = [list(enumerate_partitions(t.digraph.vertex_count, p)) for p in rhos.parts]
    for combo in itertools.product(*pools):
        yield MultiPartition(rhos.strings, tuple(combo))


def all_gcc_trees(t: TestGraph, pi: MultiPartition) -> bool:
    return all(gcc(t, pi, s).is_tree() for s in t.assignment.sorted_strings())


def enumerate_tree_partitions(t: TestGraph) -> Iterator[MultiPartition]:
    """Admissible kernel tuples whose colored-component graphs are all trees,
    in `enumerate_admissible` order, read off one `_kernel_sweep`; each
    distinct kernel is one `Partition` object per call."""
    strings = t.assignment.sorted_strings()
    kernels: dict = {}  # label tuple -> its one Partition in this call
    for _, _, found in _kernel_sweep(t, PARTITION_GUARD, leaves=False):
        for labels, _ in found:
            parts = (kernels.get(k) or kernels.setdefault(k, Partition.from_labels(k)) for k in labels)
            yield MultiPartition(strings, tuple(parts))


def expected_trace_leading_terms(t: LoopedTestGraph, n: int):
    """Sum, over kernel tuples whose colored-component graphs are all trees,
    of the vertex-label sum times the product of normalized injective traces
    of the colored quotients; the surviving part of the expected looped trace
    as N grows.  Returns (value, list of (pi, term))."""
    base = t.base
    if not is_two_edge_connected(base.digraph):
        raise ValueError("graph must be two-edge connected")
    terms, total = [], Fraction(0)
    for pi in enumerate_tree_partitions(base):
        term = lambda_value(t, pi, n)
        for c in sorted(set(base.edge_colors)):
            if term == 0:
                break
            term = term * color_injective_trace(base, pi, c, n)
        if term != 0:
            terms.append((pi, term))
            total = total + term
    return total, terms


def expected_trace_full_sum(t: LoopedTestGraph, n: int):
    """Exact expected looped trace: the expectation formula summed over every
    admissible kernel tuple."""
    total = Fraction(0)
    for pi in enumerate_admissible(t.base):
        total = total + gamma_expected_formula(t, pi, n)
    return total
