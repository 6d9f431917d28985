"""Independent brute-force oracles.

Everything here recomputes library results from first principles by a
different route (transitive closure, delete-and-recount, direct map
enumeration, explicit Kronecker products) so the tests never check an
implementation against itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from permprod.chains import border_pair
from permprod.digraphs import DiGraph, Multigraph, quotient_digraph, two_edge_decompose, weak_components
from permprod.partitions import Partition, connect
from permprod.sofic import INTEGERS
from permprod.tensor import GuardExceeded, MultiIndexSpace
from permprod.traffic import (
    MAP_GUARD,
    GCCGraph,
    LoopedTestGraph,
    TestGraph,
    _as_exact_or_complex,
    _is_ones,
    MultiPartition,
    color_quotient,
    omega,
)


def h_sc(t: TestGraph, pi: MultiPartition, s: str, c: str) -> tuple[int, ...]:
    """Block map from the c-quotient's vertices to the s-quotient's vertices,
    from the meet of the color's kernels; well defined because the meet
    refines every string's kernel."""
    labels = pi.part(s).labels
    return tuple(labels[b[0]] for b in omega(pi, t.assignment, c).blocks)


def brute_join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening by repeated pairwise merging to a fixpoint."""
    return _merge_to_fixpoint(p.ground_size, [set(b) for b in p.blocks] + [set(b) for b in q.blocks])


def brute_connect(n: int, pairs) -> Partition:
    """Classes generated by the pairs, merging overlapping sets to a fixpoint."""
    return _merge_to_fixpoint(n, [{x} for x in range(n)] + [{x, y} for x, y in pairs])


def _merge_to_fixpoint(n: int, blocks: list[set[int]]) -> Partition:
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    changed = True
                    break
            if changed:
                break
    return Partition.of(n, blocks)


def brute_meet(p: Partition, q: Partition) -> Partition:
    blocks = []
    for a in p.blocks:
        for b in q.blocks:
            inter = set(a) & set(b)
            if inter:
                blocks.append(inter)
    return Partition.of(p.ground_size, blocks)


def brute_refines(p: Partition, q: Partition) -> bool:
    return all(any(set(a) <= set(b) for b in q.blocks) for a in p.blocks)


def all_partitions_brute(n: int) -> list[Partition]:
    """Every set partition, generated by placing elements one at a time."""
    if n == 0:
        return [Partition(0, ())]
    outs: list[list[list[int]]] = [[[0]]]
    for x in range(1, n):
        nxt = []
        for blocks in outs:
            for i in range(len(blocks)):
                nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(blocks)])
            nxt.append([list(b) for b in blocks] + [[x]])
        outs = nxt
    return [Partition.of(n, blocks) for blocks in outs]


def components_by_bfs(n: int, undirected_edges) -> list[set[int]]:
    adj = {v: set() for v in range(n)}
    for u, v in undirected_edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for x in adj[w]:
                if x not in comp:
                    comp.add(x)
                    frontier.append(x)
        seen |= comp
        comps.append(comp)
    return comps


def brute_cut_edges(g: DiGraph) -> set[int]:
    """Delete each edge in turn and recount components."""
    base = len(components_by_bfs(g.vertex_count, g.edges))
    out = set()
    for i in range(g.edge_count):
        rest = [e for j, e in enumerate(g.edges) if j != i]
        if len(components_by_bfs(g.vertex_count, rest)) > base:
            out.add(i)
    return out


def brute_leaf_count(g: DiGraph) -> int:
    """The bridge forest's leaves from `brute_cut_edges` and BFS: per forest
    component, two for a lone vertex, else its vertices of degree one."""
    cut = brute_cut_edges(g)
    pieces = components_by_bfs(g.vertex_count, [e for i, e in enumerate(g.edges) if i not in cut])
    piece_of = {v: k for k, piece in enumerate(pieces) for v in piece}
    forest = [(piece_of[g.edges[i][0]], piece_of[g.edges[i][1]]) for i in cut]
    degree = [sum((u == k) + (v == k) for u, v in forest) for k in range(len(pieces))]
    return sum(
        2 if len(comp) == 1 else sum(degree[k] == 1 for k in comp) for comp in components_by_bfs(len(pieces), forest)
    )


def brute_raw_sum(g: DiGraph, mats, dim: int, loops=None):
    """Direct enumeration over all vertex labelings."""
    total = 0
    for lab in itertools.product(range(dim), repeat=g.vertex_count):
        term = 1
        if loops is not None:
            for v in range(g.vertex_count):
                term = term * loops[v][lab[v]]
        for (src, dst), m in zip(g.edges, mats):
            term = term * m[lab[dst], lab[src]]
        total = total + term
    return total


def brute_injective_sum(g: DiGraph, mats, dim: int, loops=None):
    total = 0
    for lab in itertools.permutations(range(dim), g.vertex_count):
        term = 1
        if loops is not None:
            for v in range(g.vertex_count):
                term = term * loops[v][lab[v]]
        for (src, dst), m in zip(g.edges, mats):
            term = term * m[lab[dst], lab[src]]
        total = total + term
    return total


def subset_quotient_partition(chain, subset) -> Partition:
    """The vertex partition identifying each selected block's first and last
    vertices (mirrored blocks for negative indices)."""
    return connect(chain.test_graph.digraph.vertex_count, [border_pair(chain, i) for i in subset])


def quotient_looped(t: LoopedTestGraph, p: Partition) -> LoopedTestGraph:
    """Quotient the looped graph, multiplying the loop labels of identified
    vertices together: with `trace_test_graph`, the einsum reference for a
    subset quotient's looped trace."""
    q, _ = quotient_digraph(t.base.digraph, p)
    tg = TestGraph(t.base.assignment, q, t.base.edge_colors, t.base.labels, t.base.n)
    loops = []
    for b in p.blocks:
        acc = t.vertex_labels[b[0]]
        for v in b[1:]:
            acc = acc * t.vertex_labels[v]
        loops.append(acc)
    return LoopedTestGraph(tg, tuple(loops))


def kron_lift_oracle(entries: np.ndarray, positions: list[int], k: int, n: int) -> np.ndarray:
    """Lift by explicit Kronecker products: expand the operand into per-string
    factors is impossible in general, so place it by permuting a kron with
    identity blocks.  positions: sorted slots of the support inside k slots."""
    m = len(positions)
    rest = [i for i in range(k) if i not in positions]
    big = np.kron(entries, np.eye(n ** len(rest), dtype=entries.dtype))
    # big is ordered support-strings-first; permute tensor axes to slot order
    t = big.reshape((n,) * m + (n,) * len(rest) + (n,) * m + (n,) * len(rest))
    order = positions + rest
    inv = [order.index(i) for i in range(k)]
    axes = inv + [k + i for i in inv]
    return t.transpose(axes).reshape(n**k, n**k)


def dense_conjugation_oracle(x: np.ndarray, perm_images) -> np.ndarray:
    """Sigma^* X Sigma as literal matrix products, with Sigma e_i = e_sigma(i)."""
    n = len(perm_images)
    s = np.zeros((n, n), dtype=x.dtype)
    for i, j in enumerate(perm_images):
        s[j, i] = 1
    return s.conj().T @ x @ s


def loop_compose(p, q) -> tuple[int, ...]:
    """p after q on image sequences, one point at a time."""
    return tuple(p[q[i]] for i in range(len(p)))


def loop_inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def loop_fixed_points(p) -> int:
    return sum(1 for i, j in enumerate(p) if i == j)


def loop_matrix(p) -> np.ndarray:
    """0/1 matrix M with M e_i = e_{p[i]}, one entry at a time."""
    m = np.zeros((len(p), len(p)), dtype=np.int64)
    for i, j in enumerate(p):
        m[j, i] = 1
    return m


def loop_sample_uniform_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Fisher-Yates with one call of the generator per swap index."""
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        images[i], images[j] = images[j], images[i]
    return tuple(images)


def loop_reduce_word(g, vertex_groups: dict, word) -> list:
    """Reduce a word of (color, element) letters by rewriting to a fixpoint:
    drop the identity letters, or else merge the leftmost letter that meets
    a letter of its color across letters of adjacent colors, and start over."""

    def identity(c, x):
        return x == 0 if vertex_groups[c] is INTEGERS else x == vertex_groups[c].identity

    def mul(c, x, y):
        return x + y if vertex_groups[c] is INTEGERS else vertex_groups[c].mul(x, y)

    letters = list(word)
    changed = True
    while changed:
        changed = False
        pruned = [(c, x) for c, x in letters if not identity(c, x)]
        if len(pruned) != len(letters):
            letters = pruned
            changed = True
            continue
        for i in range(len(letters)):
            ci = letters[i][0]
            for j in range(i + 1, len(letters)):
                cj = letters[j][0]
                if cj == ci:
                    if all(g.adjacent(ci, letters[l][0]) for l in range(i + 1, j)):
                        merged = mul(ci, letters[i][1], letters[j][1])
                        letters = letters[:i] + [(ci, merged)] + letters[i + 1 : j] + letters[j + 1 :]
                        changed = True
                    break
                if not g.adjacent(ci, cj):
                    break
            if changed:
                break
    return letters


def connected_multidigraphs(num_vertices: int, max_edges: int):
    """All weakly connected directed multigraphs on a fixed vertex set with at
    most max_edges edges, up to relabeling of the vertices."""
    slots = [(a, b) for a in range(num_vertices) for b in range(num_vertices)]
    seen = set()
    out = []
    for m in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(slots, m):
            comps = components_by_bfs(num_vertices, combo)
            if len(comps) != 1:
                continue
            key = _canonical_digraph_key(num_vertices, combo)
            if key in seen:
                continue
            seen.add(key)
            out.append(DiGraph.of(num_vertices, combo))
    return out


def _canonical_digraph_key(n: int, edges) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(sorted((perm[a], perm[b]) for a, b in edges))
        if best is None or relabeled < best:
            best = relabeled
    return best


def two_edge_connected_by_decomposition(g: DiGraph) -> bool:
    """Two-edge connectivity read off the whole bridge decomposition."""
    if g.vertex_count == 0:
        return False
    return not two_edge_decompose(g).cut_edges and weak_components(g).num_blocks == 1


def string_major_growth_exponent(t, pi):
    """The growth exponent string by string: every colored quotient and its
    bridge decomposition rebuilt for each string the color carries."""
    per_string = {}
    for s in t.assignment.sorted_strings():
        term = Fraction(pi.part(s).num_blocks - 1)
        for c in sorted(t.assignment.colors_of(s)):
            q = color_quotient(t, pi, c)
            term += Fraction(q.decomposition().leaf_count, 2) - q.partition.num_blocks
        per_string[s] = term
    return sum(per_string.values(), Fraction(0)), per_string


def h_sc_gcc(t, pi, s):
    """The graph of colored components with each color's block map taken
    from `h_sc`, which recomputes the meet of the color's kernels."""
    ps = pi.part(s)
    left = ps.blocks
    right, edges, keys = [], [], []
    for c in sorted(t.assignment.colors_of(s)):
        q = color_quotient(t, pi, c)
        comps = q.components
        offset = len(left) + len(right)
        for comp in comps.blocks:
            right.append((c, tuple(sorted(v for b in comp for v in q.partition.blocks[b]))))
        hmap = h_sc(t, pi, s, c)
        for v, block in enumerate(q.partition.blocks):
            edges.append((hmap[v], offset + comps.block_index(v)))
            keys.append((c, block))
    return GCCGraph(Multigraph(len(left) + len(right), tuple(edges)), left, tuple(right), tuple(keys))


def all_gcc_trees_by_oracles(t, pi):
    """Whether every string's `h_sc_gcc` is a tree."""
    return all(h_sc_gcc(t, pi, s).is_tree() for s in t.assignment.sorted_strings())


def exponent_suite_by_oracles(t, tuples):
    """The four exponent laws of `verify.exponent_suite`, tuple by tuple: the
    string-major exponent, the `h_sc` GCCs, and every edge color's quotient
    rebuilt with its bridge decomposition and its `h_sc` block maps."""
    if not two_edge_connected_by_decomposition(t.digraph):
        return [("exponent-suite", True, "skipped: graph is not two-edge connected")]
    bound = equality = leaf = injective = True
    for pi in tuples:
        expo, _ = string_major_growth_exponent(t, pi)
        trees = all_gcc_trees_by_oracles(t, pi)
        bound &= expo <= 0
        equality &= (expo == 0) == trees
        for c in sorted(set(t.edge_colors)) if trees else ():
            q = color_quotient(t, pi, c)
            comps = q.components
            leaf &= Fraction(q.decomposition().leaf_count, 2) == comps.num_blocks
            for s in t.assignment.sorted_strings_of(c):
                hmap = h_sc(t, pi, s, c)
                injective &= all(len({hmap[v] for v in b}) == len(b) for b in comps.blocks)
    return [
        ("exponent-nonpositive", bound, f"{len(tuples)} kernel tuples"),
        ("tree-equality", equality, "exponent vanishes exactly at all-tree tuples"),
        ("leaf-count-at-equality", leaf, "leaf weight is twice the component count"),
        ("tree-injectivity", injective, "block maps injective per component at trees"),
    ]


def _loop_kernel_labelings(pi, n, map_guard):
    """All per-string injective block labelings realizing the kernels."""
    counts = [math.perm(n, p.num_blocks) for p in pi.parts]
    total = math.prod(counts)
    if total > map_guard:
        raise GuardExceeded(f"kernel labeling count {total} exceeds map guard {map_guard}")
    pools = [itertools.permutations(range(n), p.num_blocks) for p in pi.parts]
    return itertools.product(*pools)


def _loop_encode_vertices(pi, labeling, n, nv):
    codes = [0] * nv
    for vals, part in zip(labeling, pi.parts):
        for v in range(nv):
            codes[v] = codes[v] * n + vals[part.block_index(v)]
    return codes


def loop_lambda_value(t, pi, n, map_guard=MAP_GUARD):
    """`lambda_value` one labeling at a time, in fixed-width arithmetic."""
    nv = t.base.digraph.vertex_count
    denom = n ** sum(p.num_blocks for p in pi.parts)
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    if all(_is_ones(vec) for vec in t.vertex_labels):
        num = math.prod(math.perm(n, p.num_blocks) for p in pi.parts)
        return Fraction(num, denom)
    vecs, exact = _as_exact_or_complex(list(t.vertex_labels))
    total = 0
    for labeling in _loop_kernel_labelings(pi, n, map_guard):
        codes = _loop_encode_vertices(pi, labeling, n, nv)
        term = 1
        for v in range(nv):
            term = term * vecs[v][codes[v]]
        total = total + term
    if exact:
        return Fraction(int(total), denom) if isinstance(total, (int, np.integer)) else Fraction(total, denom)
    return complex(total) / denom


def loop_gamma_empirical(t, pi, sigmas, n, map_guard=MAP_GUARD):
    """`gamma_empirical` one labeling at a time: each vertex's digits rebuilt
    from the block maps, each edge checked off its support and read through
    its conjugating permutation, in fixed-width arithmetic; divided by dim
    once per weak component, as the trace is."""
    base = t.base
    nv = base.digraph.vertex_count
    space = MultiIndexSpace.of(base.assignment.strings, n)
    if any(p.num_blocks > n for p in pi.parts):
        return Fraction(0)
    strings = space.strings
    edge_data = []
    for c, lab in zip(base.edge_colors, base.labels):
        sup = lab.support
        sub = MultiIndexSpace(sup, n)
        off_support = [i for i, s in enumerate(strings) if s not in set(sup)]
        sup_pos = [strings.index(s) for s in sup]
        edge_data.append((sigmas[c], lab, sub, off_support, sup_pos))
    vecs, exact_loops = _as_exact_or_complex(list(t.vertex_labels))
    exact = exact_loops and all(lab.is_exact() for lab in base.labels)
    total = 0
    for labeling in _loop_kernel_labelings(pi, n, map_guard):
        digits = [[vals[part.block_index(v)] for vals, part in zip(labeling, pi.parts)] for v in range(nv)]
        term = 1
        for v in range(nv):
            code = 0
            for d in digits[v]:
                code = code * n + d
            term = term * vecs[v][code]
            if term == 0:
                break
        if term == 0:
            continue
        ok = True
        for (src, dst), (sigma, lab, sub, off_support, sup_pos) in zip(base.digraph.edges, edge_data):
            for k in off_support:
                if digits[src][k] != digits[dst][k]:
                    ok = False
                    break
            if not ok:
                break
            row = sub.encode([digits[dst][k] for k in sup_pos])
            col = sub.encode([digits[src][k] for k in sup_pos])
            entry = lab.entries[sigma(row), sigma(col)]
            if entry == 0:
                ok = False
                break
            term = term * entry
        if ok:
            total = total + term
    denom = space.total_dim ** len(components_by_bfs(nv, base.digraph.edges))
    if exact:
        return Fraction(int(total), denom) if isinstance(total, (int, np.integer)) else Fraction(total, denom)
    return complex(total) / denom
