"""Batch verification suites over a test-graph fixture.

Each suite returns (name, passed, detail) triples.  The exponent suite
sweeps every admissible kernel tuple and checks the sign of the growth
exponent, the tree characterization of equality, the leaf-to-component
count at equality, and injectivity of the block maps at trees.  The kernel
suite checks, per draw, that the looped trace (the einsum graph sum) of the
drawn graph `conjugated(sigmas)` splits exactly into the kernel-class sums,
and that off-admissible classes vanish: one chase of the drawn graph's
labelings, permutation or dense, gives every kernel-class sum at once, and
every kernel tuple a nonzero labeling lands in must be admissible.
"""

from __future__ import annotations

from fractions import Fraction

from .digraphs import is_two_edge_connected
from .tensor import sample_color_permutations, sums_agree
from .traffic import (  # noqa: F401  (growth_exponent and enumerate_admissible stay importable from here)
    MAP_GUARD,
    LoopedTestGraph,
    MultiPartition,
    TestGraph,
    _admissible_count,
    _injective,
    _kernel_buckets,
    _kernel_sweep,
    color_quotient,
    gcc,
    growth_exponent,
    enumerate_admissible,
    trace_test_graph,
)
from .serialize import json_bool, json_list, json_object, json_str, multipartition_from_dict, partition_from_blocks
from .traffic import rho as rho_of

CheckResult = tuple[str, bool, str]


def _claimed_pi(t: TestGraph, item: dict) -> MultiPartition:
    """A claim's kernel tuple, which must name exactly the graph's strings."""
    pi = multipartition_from_dict(item["pi"], t.digraph.vertex_count)
    wrong = sorted(set(pi.strings) ^ set(t.assignment.strings))
    if wrong:
        where = "names unknown" if wrong[0] in pi.strings else "omits"
        raise ValueError(f"a claim's pi {where} string {wrong[0]!r}; it must name exactly the graph's strings")
    return pi


def check_claims(t: TestGraph, claims: dict) -> list[CheckResult]:
    json_object(claims, "claims")
    out: list[CheckResult] = []
    nv = t.digraph.vertex_count
    for s, blocks in json_object(claims.get("rho", {}), "rho claims").items():
        want = partition_from_blocks(nv, blocks)
        got = rho_of(t, s)
        out.append((f"minimal-kernel[{s}]", got == want, f"got {got.blocks}, claimed {want.blocks}"))
    for item in json_list(claims.get("color_quotients", []), "color_quotients"):
        json_object(item, "a color-quotient claim")
        q = color_quotient(t, _claimed_pi(t, item), json_str(item["color"], "claimed color"))
        want_blocks = tuple(tuple(json_list(b, "a block")) for b in json_list(item["vertex_blocks"], "vertex_blocks"))
        ok = q.partition.blocks == want_blocks and list(q.edge_ids) == json_list(item["edge_ids"], "edge_ids")
        out.append((f"color-quotient[{item['color']}]", ok, f"blocks {q.partition.blocks}, edges {q.edge_ids}"))
    for item in json_list(claims.get("gcc_trees", []), "gcc_trees"):
        json_object(item, "a gcc-tree claim")
        pi, s = _claimed_pi(t, item), json_str(item["string"], "claimed string")
        if s not in t.assignment.strings:
            raise ValueError(f"a gcc-tree claim names unknown string {s!r}")
        claimed = json_bool(item["is_tree"], "claimed is_tree")
        got = gcc(t, pi, s).is_tree()
        out.append((f"gcc-tree[{s}]", got == claimed, f"is_tree={got}, claimed {claimed}"))
    return out


def exponent_suite(t: TestGraph, partition_guard: int) -> list[CheckResult]:
    """Exponent nonpositive, zero exactly at all-trees, leaf count twice the
    component count at equality, block maps injective per component at trees."""
    if not is_two_edge_connected(t.digraph):
        # the growth bound assumes two-edge connectivity; nothing to check
        return [("exponent-suite", True, "skipped: graph is not two-edge connected")]
    bound_ok = equality_iff_trees = leaf_rule = injective_rule = True
    string_colors = [t.assignment.colors_of(s) for s in t.assignment.sorted_strings()]
    tuples = 0
    for doubled, trees, found in _kernel_sweep(t, partition_guard, leaves=True):
        tuples += len(doubled)
        bound_ok &= bool((doubled <= 0).all())
        equality_iff_trees &= bool(((doubled == 0) == trees).all())
        for kernels, summaries in found:
            leaf_rule &= all(q.leaves == 2 * q.components for q in summaries.values())
            injective_rule &= all(_injective(summaries[c], ps) for ps, cs in zip(kernels, string_colors) for c in cs)
    return [
        ("exponent-nonpositive", bound_ok, f"{tuples} kernel tuples"),
        ("tree-equality", equality_iff_trees, "exponent vanishes exactly at all-tree tuples"),
        ("leaf-count-at-equality", leaf_rule, "leaf weight is twice the component count"),
        ("tree-injectivity", injective_rule, "block maps injective per component at trees"),
    ]


def kernel_suite(
    t: TestGraph, seed: int, draws: int, partition_guard: int, map_guard: int = MAP_GUARD
) -> list[CheckResult]:
    """Per-draw decomposition of the looped trace into kernel-class sums,
    plus vanishing off the admissible cone: every chased kernel tuple lies
    above rho, part by part.  Each draw is the graph `t.conjugated(sigmas)`,
    at the graph's side, read by the trace and the chase alike.  The cone
    itself is only counted.  Exact sums must match exactly; float sums agree
    within `sums_agree`'s tolerance."""
    rhos, admissible = _admissible_count(t, partition_guard)
    decomposition_ok = True
    vanishing_ok = True
    for d in range(draws):
        sigmas = sample_color_permutations(t.assignment, set(t.edge_colors), t.n, seed, 7, d)
        drawn = LoopedTestGraph.with_identity(t.conjugated(sigmas))
        tau = trace_test_graph(drawn, map_guard=map_guard)
        sums = _kernel_buckets(drawn, map_guard)
        vanishing_ok &= all(r.refines(p) for key in sums for r, p in zip(rhos.parts, key))
        decomposition_ok &= sums_agree(sum(sums.values(), Fraction(0)), tau)
    return [
        ("kernel-decomposition", decomposition_ok, f"{draws} draws, {admissible} admissible tuples"),
        ("off-cone-vanishing", vanishing_ok, "kernel sums vanish off the admissible cone"),
    ]

