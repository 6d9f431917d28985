import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from permprod import traffic
from permprod.digraphs import DiGraph, two_edge_decompose, weak_components
from permprod.partitions import Partition, enumerate_partitions
from permprod.tensor import GuardExceeded, Permutation, StructuredMatrix, rng_stream, sample_uniform_permutation
from permprod.traffic import (
    LoopedTestGraph,
    MultiPartition,
    all_gcc_trees,
    all_rho,
    color_injective_trace,
    color_quotient,
    enumerate_admissible,
    enumerate_tree_partitions,
    expected_trace_full_sum,
    expected_trace_leading_terms,
    gamma_empirical,
    gamma_expected_formula,
    gcc,
    growth_exponent,
    injective_trace,
    lambda_value,
    omega,
    raw_graph_sum,
    raw_injective_graph_sum,
    rho,
    trace_test_graph,
)
from helpers import (
    conjugated_dense_labels_oracle,
    disjoint_string_model,
    draw_color_permutations,
    example_test_graph,
    make_test_graph,
    one_color_model,
    shared_string_model,
    three_color_model,
)
from oracles import brute_injective_sum, brute_raw_sum, h_sc


def all_multipartitions(nv, strings):
    pools = [list(enumerate_partitions(nv)) for _ in strings]
    for combo in itertools.product(*pools):
        yield MultiPartition(tuple(strings), tuple(combo))


# ---------------------------------------------------------------------------
# graph sums against direct enumeration


def test_raw_and_injective_sums_match_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        nv = int(rng.integers(1, 4))
        ne = int(rng.integers(0, 4))
        dim = int(rng.integers(2, 4))
        g = DiGraph.of(nv, [(int(rng.integers(nv)), int(rng.integers(nv))) for _ in range(ne)])
        mats = [rng.integers(-2, 3, (dim, dim)) for _ in range(ne)]
        loops = [rng.integers(-2, 3, dim) for _ in range(nv)]
        assert raw_graph_sum(g, mats, dim) == brute_raw_sum(g, mats, dim)
        assert raw_graph_sum(g, mats, dim, loops) == brute_raw_sum(g, mats, dim, loops)
        assert raw_injective_graph_sum(g, mats, dim) == brute_injective_sum(g, mats, dim)
        assert raw_injective_graph_sum(g, mats, dim, loops) == brute_injective_sum(g, mats, dim, loops)


def test_raw_sums_complex_path():
    rng = np.random.default_rng(1)
    g = DiGraph.of(3, [(0, 1), (1, 2), (2, 0)])
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    assert raw_graph_sum(g, mats, 3) == pytest.approx(brute_raw_sum(g, mats, 3))
    assert raw_injective_graph_sum(g, mats, 3) == pytest.approx(brute_injective_sum(g, mats, 3))


# ---------------------------------------------------------------------------
# traces of test graphs


def cycle_graph(assignment, color, labels):
    m = len(labels)
    edges = [((j % m, (j - 1) % m), color) for j in range(m)]
    # edge j carries label_j from vertex j to vertex j-1: the product reads
    # label_1 ... label_m around the cycle
    return make_test_graph(assignment, m, edges, labels[0].n, labels=tuple(labels))


def test_cycle_trace_is_normalized_matrix_product_trace():
    _, a = one_color_model()
    rng = np.random.default_rng(3)
    n = 3
    mats = [rng.integers(-2, 3, (n, n)) for _ in range(4)]
    labels = [StructuredMatrix.dense(["s"], n, m) for m in mats]
    t = cycle_graph(a, "a", labels)
    got = trace_test_graph(t, n=n)
    want = Fraction(int(np.trace(mats[0] @ mats[1] @ mats[2] @ mats[3])), n)
    assert got == want


def test_cycle_trace_identity_labels_is_one():
    _, a = one_color_model()
    labels = [StructuredMatrix.identity(["s"], 2) for _ in range(4)]
    t = cycle_graph(a, "a", labels)
    assert trace_test_graph(t, n=2) == 1


def test_single_vertex_loop_trace():
    _, a = one_color_model()
    rng = np.random.default_rng(5)
    m = rng.integers(-3, 4, (3, 3))
    t = make_test_graph(a, 1, [((0, 0), "a")], 3, labels=(StructuredMatrix.dense(["s"], 3, m),))
    assert trace_test_graph(t, n=3) == Fraction(int(np.trace(m)), 3)
    assert injective_trace(t, n=3) == Fraction(int(np.trace(m)), 3)


def test_injective_trace_single_edge_identity_vanishes():
    _, a = one_color_model()
    t = make_test_graph(a, 2, [((0, 1), "a")], 2)
    assert injective_trace(t, n=2) == 0


def test_injective_zero_when_more_vertices_than_points():
    _, a = one_color_model()
    t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "a")], 2)
    assert injective_trace(t, n=2) == 0


def test_kernel_classification_identity_raw_vs_injective():
    # raw sum = sum over vertex partitions of the injective sum of the
    # quotient, both sides by direct enumeration oracles
    from permprod.digraphs import quotient_digraph

    rng = np.random.default_rng(8)
    for _ in range(20):
        nv = int(rng.integers(1, 5))
        ne = int(rng.integers(1, 4))
        g = DiGraph.of(nv, [(int(rng.integers(nv)), int(rng.integers(nv))) for _ in range(ne)])
        mats = [rng.integers(-2, 3, (3, 3)) for _ in range(ne)]
        lhs = brute_raw_sum(g, mats, 3)
        rhs = 0
        for p in enumerate_partitions(nv):
            q, _ = quotient_digraph(g, p)
            rhs += brute_injective_sum(q, mats, 3)
        assert lhs == rhs
        # and the library injective sum agrees with the enumeration oracle
        assert raw_injective_graph_sum(g, mats, 3) == brute_injective_sum(g, mats, 3)


def test_full_space_trace_matches_oracle_pipeline():
    # conjugation + lifting + summation all along the independent route
    g, a = three_color_model()
    t = example_test_graph(n=2, labels="permutation", seed=4)
    sigmas = draw_color_permutations(t, 2, seed=9)
    got = trace_test_graph(t, n=2, sigmas=sigmas)
    mats = conjugated_dense_labels_oracle(t, sigmas, 2)
    want = Fraction(int(brute_raw_sum(t.digraph, mats, 8)), 8 ** weak_components(t.digraph).num_blocks)
    assert got == want


@pytest.mark.parametrize("labels", ["permutation", "integer"])
def test_injective_trace_matches_oracle_pipeline(labels):
    # the chased rows with distinct points against every injective labeling
    # of the oracle-lifted labels, on the three-string wiring
    _, a = three_color_model()
    edges = [((0, 1), "B"), ((1, 2), "G"), ((2, 0), "B")]
    t = make_test_graph(a, 3, edges, 2, labels, seed=1)
    sigmas = draw_color_permutations(t, 2, seed=9)
    mats = conjugated_dense_labels_oracle(t, sigmas, 2)
    want = Fraction(int(brute_injective_sum(t.digraph, mats, 8)), 8)
    assert want != 0
    assert injective_trace(t, n=2, sigmas=sigmas) == want


def test_trace_guard():
    _, a = one_color_model()
    t = make_test_graph(a, 6, [((i, (i + 1) % 6), "a") for i in range(6)], 2)
    with pytest.raises(GuardExceeded):
        trace_test_graph(t, n=2, map_guard=2**5)


# ---------------------------------------------------------------------------
# the worked example: kernels, quotients, component graphs, walks


def test_example_minimal_kernels():
    t = example_test_graph()
    assert rho(t, "1") == Partition.of(6, [(0, 1, 2, 3, 4), (5,)])
    assert rho(t, "2") == Partition.of(6, [(0, 1), (2,), (3,), (4,), (5,)])
    assert rho(t, "3") == Partition.of(6, [(0,), (1, 2, 3), (4, 5)])
    with pytest.raises(ValueError):
        rho(t, "9")


def test_example_omega_and_color_quotients():
    t = example_test_graph()
    pi = all_rho(t)
    assert omega(pi, t.assignment, "B") == Partition.of(6, [(0, 1), (2,), (3,), (4,), (5,)])
    assert omega(pi, t.assignment, "G") == Partition.singletons(6)
    assert omega(pi, t.assignment, "R") == Partition.of(6, [(0,), (1, 2, 3), (4, 5)])

    qb = color_quotient(t, pi, "B")
    assert qb.partition.blocks == ((0, 1), (2,), (3,), (4,), (5,))
    assert qb.edge_ids == (2, 3, 7)
    qr = color_quotient(t, pi, "R")
    assert qr.digraph.vertex_count == 3 and qr.edge_ids == (0,)

    # the meet refines every string kernel, so the block maps are defined
    for s in ("1", "2", "3"):
        for c in t.assignment.colors_of(s):
            om = omega(pi, t.assignment, c)
            assert om.refines(pi.part(s))
            h_sc(t, pi, s, c)


def test_example_gcc_shapes_and_trees():
    t = example_test_graph()
    pi = all_rho(t)
    g2 = gcc(t, pi, "2")
    # blue components {0,1,2,3} and {4,5}; green components {0..4} and {5}
    assert sorted(g2.right_comps) == [
        ("B", (0, 1, 2, 3)),
        ("B", (4, 5)),
        ("G", (0, 1, 2, 3, 4)),
        ("G", (5,)),
    ]
    assert len(g2.graph.edges) == 11  # 5 blue blocks + 6 green blocks
    # parallel green edges from blocks {0} and {1} at the block {0,1}
    green_edges_at_01 = [
        k for (u, v), k in zip(g2.graph.edges, g2.edge_keys)
        if k[0] == "G" and 0 in g2.left_blocks[u if u < len(g2.left_blocks) else v]
    ]
    assert (("G", (0,)) in green_edges_at_01) and (("G", (1,)) in green_edges_at_01)
    for s in ("1", "2", "3"):
        assert not gcc(t, pi, s).is_tree()

    sigma = MultiPartition.of(
        {
            "1": Partition.of(6, [(0, 1, 2, 3, 4), (5,)]),
            "2": Partition.of(6, [(0, 1, 2, 3), (4,), (5,)]),
            "3": Partition.of(6, [(0, 1, 2, 3), (4, 5)]),
        }
    )
    for s in ("1", "2", "3"):
        assert gcc(t, sigma, s).is_tree()


def test_tree_gcc_forces_injective_block_maps():
    t = example_test_graph()
    sigma = MultiPartition.of(
        {
            "1": Partition.of(6, [(0, 1, 2, 3, 4), (5,)]),
            "2": Partition.of(6, [(0, 1, 2, 3), (4,), (5,)]),
            "3": Partition.of(6, [(0, 1, 2, 3), (4, 5)]),
        }
    )
    for s in ("1", "2", "3"):
        for c in sorted(t.assignment.colors_of(s)):
            q = color_quotient(t, sigma, c)
            comp = q.components
            hmap = h_sc(t, sigma, s, c)
            for block in comp.blocks:
                images = [hmap[v] for v in block]
                assert len(set(images)) == len(images)


# ---------------------------------------------------------------------------
# kernel-class sums


def test_lambda_identity_loops_counting_formula():
    t = example_test_graph(n=3)
    lt = LoopedTestGraph.with_identity(t)
    pi = all_rho(t)
    n = 3
    want = Fraction(1)
    for p in pi.parts:
        b = p.num_blocks
        want *= Fraction(math.perm(n, b), n**b)
    assert lambda_value(lt, pi, n) == want


def test_lambda_zero_when_blocks_exceed_points():
    _, a = one_color_model()
    t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "a")], 2)
    lt = LoopedTestGraph.with_identity(t)
    pi = MultiPartition.of({"s": Partition.singletons(3)})
    assert lambda_value(lt, pi, 2) == 0


def test_lambda_bounded_by_loop_norm_power():
    _, a = one_color_model()
    t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], 3)
    rng = np.random.default_rng(12)
    r = 1.5
    loops = tuple(r * (2 * rng.random(3) - 1) for _ in range(2))
    lt = LoopedTestGraph(t, loops)
    for pi in all_multipartitions(2, ("s",)):
        val = lambda_value(lt, pi, 3)
        assert abs(complex(val)) <= r**2 + 1e-12


def test_lambda_general_loops_against_enumeration():
    _, a = one_color_model()
    t = make_test_graph(a, 2, [((0, 1), "a")], 3)
    rng = np.random.default_rng(13)
    loops = tuple(rng.integers(-2, 3, 3) for _ in range(2))
    lt = LoopedTestGraph(t, loops)
    n = 3
    for pi in all_multipartitions(2, ("s",)):
        # oracle: enumerate all maps, keep those with the exact kernel
        total = 0
        part = pi.parts[0]
        for i in itertools.product(range(n), repeat=2):
            if Partition.from_labels(i) == part:
                total += loops[0][i[0]] * loops[1][i[1]]
        want = Fraction(total, n ** part.num_blocks)
        assert lambda_value(lt, pi, n) == want


def test_gamma_kernel_decomposition_per_draw():
    # the looped trace splits exactly into kernel-class sums, per draw
    cases = [
        (one_color_model(), 2, [((0, 1), "a"), ((1, 0), "a")], 3),
        (shared_string_model(), 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], 2),
        (disjoint_string_model(), 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], 2),
    ]
    for (g, a), nv, edges, n in cases:
        t = make_test_graph(a, nv, edges, n, labels="permutation", seed=1)
        lt = LoopedTestGraph.with_identity(t)
        strings = a.sorted_strings()
        for seed in range(3):
            sigmas = draw_color_permutations(t, n, seed)
            tau = trace_test_graph(lt, n=n, sigmas=sigmas)
            total = Fraction(0)
            for pi in all_multipartitions(nv, strings):
                total += gamma_empirical(lt, pi, sigmas, n)
            assert total == tau


def test_gamma_vanishes_off_admissible_cone():
    (g, a) = shared_string_model()
    t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], 2, labels="permutation")
    lt = LoopedTestGraph.with_identity(t)
    rhos = all_rho(t)
    strings = a.sorted_strings()
    for seed in range(3):
        sigmas = draw_color_permutations(t, 2, seed)
        for pi in all_multipartitions(3, strings):
            if all(rhos.part(s).refines(pi.part(s)) for s in strings):
                continue
            assert gamma_empirical(lt, pi, sigmas, 2) == 0


def test_gamma_single_vertex_loop_reduces_to_diagonal_average():
    _, a = one_color_model()
    rng = np.random.default_rng(2)
    m = rng.integers(-3, 4, (3, 3))
    t = make_test_graph(a, 1, [((0, 0), "a")], 3, labels=(StructuredMatrix.dense(["s"], 3, m),))
    lt = LoopedTestGraph.with_identity(t)
    pi = MultiPartition.of({"s": Partition.trivial(1)})
    sigmas = {"a": Permutation((2, 0, 1))}
    assert gamma_empirical(lt, pi, sigmas, 3) == Fraction(int(np.trace(m)), 3)


def brute_expected_gamma(lt, pi, n):
    """Average the kernel-class sum over every tuple of block permutations."""
    t = lt.base
    colors = sorted(set(t.edge_colors))
    dims = [n ** len(t.assignment.strings_of(c)) for c in colors]
    total = Fraction(0)
    count = 0
    for imgs in itertools.product(*(itertools.permutations(range(d)) for d in dims)):
        sigmas = {c: Permutation(tuple(im)) for c, im in zip(colors, imgs)}
        total += gamma_empirical(lt, pi, sigmas, n)
        count += 1
    return total / count


def test_expectation_formula_exact_one_color():
    _, a = one_color_model()
    rng = np.random.default_rng(31)
    for n in (2, 3):
        for edges in ([((0, 1), "a"), ((1, 0), "a")], [((0, 1), "a"), ((1, 2), "a"), ((2, 0), "a")]):
            nv = max(max(e) for e, _ in edges) + 1
            t = make_test_graph(a, nv, edges, n, labels="integer", seed=n)
            lt = LoopedTestGraph.with_identity(t)
            for pi in enumerate_admissible(t):
                assert gamma_expected_formula(lt, pi, n) == brute_expected_gamma(lt, pi, n)


def test_expectation_formula_exact_two_colors_and_loop_labels():
    for model in (shared_string_model, disjoint_string_model):
        g, a = model()
        n = 2
        t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], n, labels="integer", seed=7)
        rng = np.random.default_rng(40)
        dim = n ** len(a.strings)
        loops = tuple(rng.integers(-1, 2, dim) for _ in range(3))
        lt = LoopedTestGraph(t, loops)
        for pi in enumerate_admissible(t):
            assert gamma_expected_formula(lt, pi, n) == brute_expected_gamma(lt, pi, n)


def test_expectation_formula_exact_multi_string_blocks():
    # colors whose blocks span two strings: the factorial weights run over
    # the squared side, checked against the full average over both block
    # permutation groups and the private one
    g, a = three_color_model()
    n = 2
    cases = [
        [((0, 1), "B"), ((1, 0), "G")],
        [((0, 1), "B"), ((1, 0), "R")],
        [((0, 1), "G"), ((1, 2), "R"), ((2, 0), "G")],
    ]
    for edges in cases:
        nv = max(max(e) for e, _ in edges) + 1
        t = make_test_graph(a, nv, edges, n, labels="integer", seed=nv)
        lt = LoopedTestGraph.with_identity(t)
        for pi in enumerate_admissible(t):
            assert gamma_expected_formula(lt, pi, n) == brute_expected_gamma(lt, pi, n)


def test_multipartitions_are_immutable_slotted_and_pickle():
    # a field and a name that is not a field raise the same error, as for Partition
    pi = MultiPartition.of({"s": Partition.singletons(3), "t": Partition.trivial(3)})
    for name in ("parts", "strings", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pi, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(pi, name)
    assert not hasattr(pi, "__dict__")
    assert pickle.loads(pickle.dumps(pi)) == pi


def test_expectation_formula_zero_on_oversized_kernels():
    _, a = one_color_model()
    t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "a"), ((2, 0), "a")], 2, labels="integer")
    lt = LoopedTestGraph.with_identity(t)
    pi = MultiPartition.of({"s": Partition.singletons(3)})
    assert gamma_expected_formula(lt, pi, 2) == 0


def test_expectation_formula_requires_admissible_kernels():
    t = example_test_graph()
    lt = LoopedTestGraph.with_identity(t)
    pi = MultiPartition.of({s: Partition.singletons(6) for s in ("1", "2", "3")})
    with pytest.raises(ValueError):
        gamma_expected_formula(lt, pi, 2)


def test_full_sum_matches_brute_force_expectation():
    # summing the formula over the admissible cone averages the looped trace
    _, a = one_color_model()
    n = 2
    t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], n, labels="integer", seed=3)
    lt = LoopedTestGraph.with_identity(t)
    want = Fraction(0)
    for imgs in itertools.permutations(range(n)):
        sigmas = {"a": Permutation(tuple(imgs))}
        want += trace_test_graph(lt, n=n, sigmas=sigmas)
    want /= math.factorial(n)
    assert expected_trace_full_sum(lt, n) == want


def test_full_sum_matches_whole_space_average_multi_string():
    # the formula summed over the admissible cone equals the average of the
    # looped trace over every tuple of block permutations, with two-string
    # color blocks and nontrivial diagonal loops
    g, a = three_color_model()
    n = 2
    t = make_test_graph(a, 2, [((0, 1), "B"), ((1, 0), "G")], n, labels="integer", seed=6)
    rng = np.random.default_rng(17)
    dim = n ** len(a.strings)
    loops = tuple(2 * rng.integers(0, 2, dim) - 1 for _ in range(2))
    lt = LoopedTestGraph(t, loops)
    colors = sorted(set(t.edge_colors))
    dims = [n ** len(a.strings_of(c)) for c in colors]
    want = Fraction(0)
    count = 0
    for imgs in itertools.product(*(itertools.permutations(range(d)) for d in dims)):
        sigmas = {c: Permutation(tuple(im)) for c, im in zip(colors, imgs)}
        want += trace_test_graph(lt, n=n, sigmas=sigmas)
        count += 1
    assert expected_trace_full_sum(lt, n) == want / count


def test_full_sum_monte_carlo_consistency():
    # two-color instance at N=3: exact expectation within four standard
    # errors of a Monte Carlo average
    g, a = shared_string_model()
    n = 3
    t = make_test_graph(a, 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], n, labels="permutation", seed=5)
    lt = LoopedTestGraph.with_identity(t)
    exact = expected_trace_full_sum(lt, n)
    vals = []
    for seed in range(400):
        sigmas = draw_color_permutations(t, n, seed)
        vals.append(float(trace_test_graph(lt, n=n, sigmas=sigmas)))
    mean = np.mean(vals)
    stderr = np.std(vals, ddof=1) / len(vals) ** 0.5
    assert abs(mean - float(exact)) <= 4 * stderr + 1e-12


# ---------------------------------------------------------------------------
# growth exponents


def two_edge_connected_family(max_v=3, max_e=4):
    from oracles import connected_multidigraphs

    out = []
    for nv in range(1, max_v + 1):
        for g in connected_multidigraphs(nv, max_e):
            dec = two_edge_decompose(g)
            if not dec.cut_edges:
                out.append(g)
    return out


def test_growth_exponent_bound_and_tree_characterization():
    g, a = three_color_model()
    colors = ("B", "G", "R")
    checked = 0
    for dg in two_edge_connected_family():
        for coloring in itertools.product(colors, repeat=dg.edge_count):
            t = make_test_graph(a, dg.vertex_count, list(zip(dg.edges, coloring)), 2)
            for pi in enumerate_admissible(t):
                expo, per_string = growth_exponent(t, pi)
                assert sum(per_string.values(), Fraction(0)) == expo
                assert all(v <= 0 for v in per_string.values())
                trees = all_gcc_trees(t, pi)
                assert (expo == 0) == trees
                if trees:
                    for c in sorted(set(t.edge_colors)):
                        q = color_quotient(t, pi, c)
                        assert Fraction(q.decomposition().leaf_count, 2) == q.components.num_blocks
                checked += 1
    assert checked > 500


def test_growth_exponent_two_color_assignments():
    for model in (shared_string_model, disjoint_string_model):
        g, a = model()
        for dg in two_edge_connected_family(max_v=3, max_e=3):
            for coloring in itertools.product(("a", "b"), repeat=dg.edge_count):
                t = make_test_graph(a, dg.vertex_count, list(zip(dg.edges, coloring)), 2)
                for pi in enumerate_admissible(t):
                    expo, _ = growth_exponent(t, pi)
                    assert expo <= 0
                    assert (expo == 0) == all_gcc_trees(t, pi)


def test_tree_enumeration_matches_filtering():
    t = example_test_graph()
    want = [pi for pi in enumerate_admissible(t) if all_gcc_trees(t, pi)]
    got = list(enumerate_tree_partitions(t))
    assert set((tuple(p.blocks for p in pi.parts)) for pi in got) == set(
        (tuple(p.blocks for p in pi.parts)) for pi in want
    )


# ---------------------------------------------------------------------------
# surviving terms and scaling


def test_leading_terms_single_color_two_cycle_trace_zero_labels():
    # trace-zero labels: the surviving sum is the squared normalized
    # correlation, matching free behaviour
    _, a = one_color_model()
    n = 3
    shift = Permutation((1, 2, 0))
    labels = (
        StructuredMatrix.from_permutation(("s",), n, shift),
        StructuredMatrix.from_permutation(("s",), n, shift.inverse()),
    )
    t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], n, labels=labels)
    lt = LoopedTestGraph.with_identity(t)
    total, terms = expected_trace_leading_terms(lt, n)
    # surviving kernel classes: singletons (wired correlation) and merged
    # (product of diagonal averages, zero for the shift)
    assert [p.num_blocks for pi, _ in terms for p in pi.parts] == [2]
    assert total == Fraction(n - 1, n) * color_injective_trace(t, all_rho(t), "a", n) + 0


def test_leading_terms_approach_full_sum_at_rate_one_over_n():
    _, a = one_color_model()
    ratios = []
    for n in (2, 3, 4):
        labels = "integer"
        t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], n, labels=labels, seed=2)
        lt = LoopedTestGraph.with_identity(t)
        full = expected_trace_full_sum(lt, n)
        lead, _ = expected_trace_leading_terms(lt, n)
        ratios.append(abs(float(full - lead)) * n)
    assert max(ratios) <= 60  # bounded multiple of 1/N on this instance


def test_leading_terms_requires_two_edge_connectivity():
    t = example_test_graph(n=2, labels="permutation", seed=11)
    lt = LoopedTestGraph.with_identity(t)
    with pytest.raises(ValueError):
        expected_trace_leading_terms(lt, 2)  # the example graph has a cut edge


def test_leading_terms_empty_when_every_survivor_vanishes():
    # two equal shifts: no injective correlation and no diagonal mass, so
    # every surviving term vanishes and the list comes back empty
    _, a = one_color_model()
    n = 3
    shift = Permutation((1, 2, 0))
    labels = (
        StructuredMatrix.from_permutation(("s",), n, shift),
        StructuredMatrix.from_permutation(("s",), n, shift),
    )
    t = make_test_graph(a, 2, [((0, 1), "a"), ((1, 0), "a")], n, labels=labels)
    lt = LoopedTestGraph.with_identity(t)
    total, terms = expected_trace_leading_terms(lt, n)
    assert total == 0
    assert terms == []


def test_mingo_speicher_scaling_bounded():
    _, a = one_color_model()
    ratios = []
    for n in range(2, 9):
        rng = rng_stream(77, n)
        labels = tuple(
            StructuredMatrix.from_permutation(("s",), n, sample_uniform_permutation(n, rng))
            for _ in range(3)
        )
        t = make_test_graph(a, 2, [((0, 1), "a"), ((0, 1), "a"), ((0, 1), "a")], n, labels=labels)
        dec = two_edge_decompose(t.digraph)
        assert not dec.cut_edges
        leaf = dec.leaf_count
        comps = weak_components(t.digraph).num_blocks
        tau0 = injective_trace(t, n=n)
        ratios.append(abs(float(tau0)) * n**comps / n ** (leaf / 2))
    assert max(ratios) <= 2.0


def test_partition_guard_trips(monkeypatch):
    t = example_test_graph()
    monkeypatch.setattr(traffic, "PARTITION_GUARD", 10)
    with pytest.raises(GuardExceeded):
        list(enumerate_admissible(t))
