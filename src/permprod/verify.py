"""Batch verification suites over a test-graph fixture.

Each suite returns (name, passed, detail) triples.  The exponent suite
sweeps every admissible kernel tuple and checks the sign of the growth
exponent, the tree characterization of equality, the leaf-to-component
count at equality, and injectivity of the block maps at trees.  The kernel
suite checks, per draw, that the looped trace splits exactly into the
kernel-class sums, and that off-admissible classes vanish.
"""

from __future__ import annotations

from fractions import Fraction

from .digraphs import is_two_edge_connected
from .partitions import Partition
from .tensor import rng_stream, sample_uniform_permutation
from .traffic import (
    LoopedTestGraph,
    MultiPartition,
    TestGraph,
    all_gcc_trees,
    all_rho,
    color_quotient,
    gamma_empirical,
    gcc,
    growth_exponent,
    enumerate_admissible,
    trace_test_graph,
)
from .serialize import multipartition_from_dict, partition_from_blocks
from .traffic import rho as rho_of

CheckResult = tuple[str, bool, str]


def check_claims(t: TestGraph, claims: dict) -> list[CheckResult]:
    out: list[CheckResult] = []
    nv = t.digraph.vertex_count
    for s, blocks in claims.get("rho", {}).items():
        want = partition_from_blocks(nv, blocks)
        got = rho_of(t, s)
        out.append(
            (
                f"minimal-kernel[{s}]",
                got == want,
                f"got {got.blocks}, claimed {want.blocks}",
            )
        )
    for item in claims.get("color_quotients", []):
        pi = multipartition_from_dict(item["pi"], nv)
        q = color_quotient(t, pi, item["color"])
        want_blocks = tuple(tuple(b) for b in item["vertex_blocks"])
        ok = q.partition.blocks == want_blocks and list(q.edge_ids) == list(item["edge_ids"])
        out.append(
            (
                f"color-quotient[{item['color']}]",
                ok,
                f"blocks {q.partition.blocks}, edges {q.edge_ids}",
            )
        )
    for item in claims.get("gcc_trees", []):
        pi = multipartition_from_dict(item["pi"], nv)
        got = gcc(t, pi, item["string"]).is_tree()
        out.append(
            (
                f"gcc-tree[{item['string']}]",
                got == bool(item["is_tree"]),
                f"is_tree={got}, claimed {item['is_tree']}",
            )
        )
    return out


def exponent_suite(t: TestGraph, partition_guard: int) -> list[CheckResult]:
    """Exponent nonpositive, zero exactly at all-trees, leaf count twice the
    component count at equality, block maps injective per component at trees."""
    if not is_two_edge_connected(t.digraph):
        # the growth bound assumes two-edge connectivity; nothing to check
        return [("exponent-suite", True, "skipped: graph is not two-edge connected")]
    bound_ok = True
    equality_iff_trees = True
    leaf_rule = True
    injective_rule = True
    seen = 0
    for pi in enumerate_admissible(t, partition_guard):
        seen += 1
        expo, _ = growth_exponent(t, pi)
        trees = all_gcc_trees(t, pi)
        if expo > 0:
            bound_ok = False
        if (expo == 0) != trees:
            equality_iff_trees = False
        if trees:
            for c in sorted(set(t.edge_colors)):
                q = color_quotient(t, pi, c)
                comp = q.components
                if Fraction(q.decomposition().leaf_count, 2) != comp.num_blocks:
                    leaf_rule = False
                for s in t.assignment.sorted_strings_of(c):
                    ps = pi.part(s)
                    for block in comp.blocks:
                        # the block map h_sc sends each quotient vertex to the pi_s block holding it
                        images = [ps.block_index(q.vertex_blocks[v][0]) for v in block]
                        if len(set(images)) != len(images):
                            injective_rule = False
    return [
        ("exponent-nonpositive", bound_ok, f"{seen} kernel tuples"),
        ("tree-equality", equality_iff_trees, "exponent vanishes exactly at all-tree tuples"),
        ("leaf-count-at-equality", leaf_rule, "leaf weight is twice the component count"),
        ("tree-injectivity", injective_rule, "block maps injective per component at trees"),
    ]


def kernel_suite(t: TestGraph, n: int, seed: int, draws: int, partition_guard: int) -> list[CheckResult]:
    """Per-draw decomposition of the looped trace into kernel-class sums,
    plus vanishing off the admissible cone."""
    looped = LoopedTestGraph.with_identity(_with_side(t, n))
    base = looped.base
    admissible = list(enumerate_admissible(base, partition_guard))
    rhos = all_rho(base)
    strings = base.assignment.sorted_strings()
    nv = base.digraph.vertex_count
    decomposition_ok = True
    vanishing_ok = True
    for d in range(draws):
        sigmas = {}
        for ci, c in enumerate(sorted(set(base.edge_colors))):
            dim = n ** len(base.assignment.strings_of(c))
            sigmas[c] = sample_uniform_permutation(dim, rng_stream(seed, 7, d, ci))
        tau = trace_test_graph(looped, n=n, sigmas=sigmas)
        total_gamma = Fraction(0)
        for pi in admissible:
            total_gamma = total_gamma + gamma_empirical(looped, pi, sigmas, n)
        if total_gamma != tau:
            decomposition_ok = False
        for pi in _some_non_admissible(rhos, strings, nv):
            if gamma_empirical(looped, pi, sigmas, n) != 0:
                vanishing_ok = False
    return [
        ("kernel-decomposition", decomposition_ok, f"{draws} draws, {len(admissible)} admissible tuples"),
        ("off-cone-vanishing", vanishing_ok, "kernel sums vanish off the admissible cone"),
    ]


def _with_side(t: TestGraph, n: int) -> TestGraph:
    """Regenerate identity labels at the requested side when the fixture was
    built for a different one."""
    if t.labels and t.labels[0].n == n:
        return t
    from .tensor import StructuredMatrix

    labels = tuple(
        StructuredMatrix.identity(t.assignment.sorted_strings_of(c), n) for c in t.edge_colors
    )
    return TestGraph(t.assignment, t.digraph, t.edge_colors, labels)


def _some_non_admissible(rhos, strings, nv):
    """A kernel tuple strictly below some minimal kernel, when one exists."""
    if all(rhos.part(s).num_blocks == nv for s in strings):
        return []
    parts = {s: Partition.singletons(nv) for s in strings}
    return [MultiPartition.of(parts)]
