"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single verdict line.
Exact criteria compare Fractions with zero tolerance; statistical criteria
pin their bands and seed so reruns are bit-identical.
"""

import itertools
import math
import statistics
import time
from fractions import Fraction

import numpy as np
from permprod.digraphs import DiGraph, two_edge_decompose, weak_components
from permprod.partitions import Partition, bell_number, enumerate_partitions
from permprod.strings import ColorGraph, build_string_assignment, is_g_reduced
from permprod.tensor import (
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    conjugate_by_color,
    lift,
    rng_stream,
    sample_uniform_permutation,
)
from permprod.traffic import (
    PARTITION_GUARD,
    LoopedTestGraph,
    MultiPartition,
    _kernel_sweep,
    all_rho,
    color_quotient,
    enumerate_admissible,
    gamma_empirical,
    gamma_expected_formula,
    gcc,
    rho,
    trace_test_graph,
)
from permprod.chains import (
    ChainSpec,
    convergence_run,
    inconsistency_search,
    means_nonincreasing,
    signed_expansion_check,
)
from permprod.sofic import (
    FiniteGroupTable,
    certify,
    graph_product_rep,
    hamming_distance,
    left_regular_rep,
    pad_rep,
    word_triviality,
)
from helpers import (
    all_signed_words,
    disjoint_string_model,
    draw_color_permutations,
    example_test_graph,
    make_test_graph,
    one_color_model,
    shared_string_model,
    three_color_model,
)
from oracles import connected_multidigraphs
from test_sofic import klein_four_table, symmetric_group_table


def verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_reproduction():
    start = time.time()
    t = example_test_graph()
    ok = rho(t, "1") == Partition.of(6, [(0, 1, 2, 3, 4), (5,)])
    ok &= rho(t, "2") == Partition.of(6, [(0, 1), (2,), (3,), (4,), (5,)])
    ok &= rho(t, "3") == Partition.of(6, [(0,), (1, 2, 3), (4, 5)])
    pi = all_rho(t)
    qb = color_quotient(t, pi, "B")
    ok &= qb.partition.blocks == ((0, 1), (2,), (3,), (4,), (5,))
    ok &= qb.edge_ids == (2, 3, 7)
    ok &= not gcc(t, pi, "2").is_tree()
    ok &= not gcc(t, pi, "3").is_tree()
    sigma = MultiPartition.of(
        {
            "1": Partition.of(6, [(0, 1, 2, 3, 4), (5,)]),
            "2": Partition.of(6, [(0, 1, 2, 3), (4,), (5,)]),
            "3": Partition.of(6, [(0, 1, 2, 3), (4, 5)]),
        }
    )
    ok &= all(gcc(t, sigma, s).is_tree() for s in ("1", "2", "3"))
    elapsed = time.time() - start
    verdict("criterion-1 worked-example reproduction", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _expectation_instances():
    """Connected test graphs on <= 3 vertices with single-string colors:
    exhaustive up to graph isomorphism with <= 3 edges, one-color and
    two-color (shared string and disjoint strings), at sides 2 and 3."""
    one = one_color_model()
    shared = shared_string_model()
    disjoint = disjoint_string_model()
    for nv in (1, 2, 3):
        for g in connected_multidigraphs(nv, 3):
            ne = g.edge_count
            for n in (2, 3):
                yield one[1], g, ("a",) * ne, n
                for coloring in itertools.product("ab", repeat=ne):
                    if len(set(coloring)) < 2:
                        continue
                    for _, a in (shared, disjoint):
                        yield a, g, coloring, n


def brute_expected_gamma(lt, pi, n):
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


def test_criterion_2_exact_expectation_formula():
    start = time.time()
    checked = 0
    for assignment, g, coloring, n in _expectation_instances():
        t = make_test_graph(
            assignment, g.vertex_count, list(zip(g.edges, coloring)), n, labels="integer", seed=g.edge_count
        )
        if weak_components(t.digraph).num_blocks != 1:
            continue
        lt = LoopedTestGraph.with_identity(t)
        for pi in enumerate_admissible(t):
            assert gamma_expected_formula(lt, pi, n) == brute_expected_gamma(lt, pi, n)
            checked += 1
    elapsed = time.time() - start
    verdict(
        "criterion-2 exact expectation formula",
        checked > 1000 and elapsed < 60,
        f"{checked} kernel classes, {elapsed:.1f}s",
    )


def test_criterion_3_kernel_decomposition_and_vanishing():
    start = time.time()
    one = one_color_model()
    shared = shared_string_model()
    disjoint = disjoint_string_model()
    three = three_color_model()
    instances = [
        (one[1], 4, [((0, 1), "a"), ((1, 2), "a"), ((2, 3), "a"), ((3, 0), "a")], 2),
        (one[1], 3, [((0, 1), "a"), ((1, 2), "a"), ((2, 0), "a")], 3),
        (shared[1], 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], 3),
        (shared[1], 4, [((0, 1), "a"), ((1, 2), "b"), ((2, 3), "a"), ((3, 0), "b")], 2),
        (disjoint[1], 3, [((0, 1), "a"), ((1, 2), "b"), ((2, 0), "a")], 2),
        (disjoint[1], 4, [((0, 1), "a"), ((1, 2), "b"), ((2, 3), "a"), ((3, 0), "b")], 2),
        (three[1], 3, [((0, 1), "B"), ((1, 2), "G"), ((2, 0), "R")], 2),
        (three[1], 2, [((0, 1), "B"), ((1, 0), "G")], 2),
    ]
    draws = 0
    for a, nv, edges, n in instances:
        # stated instance bound on the total index space
        assert (n ** len(a.strings)) ** nv <= 2**16
        t = make_test_graph(a, nv, edges, n, labels="permutation", seed=nv)
        lt = LoopedTestGraph.with_identity(t)
        strings = a.sorted_strings()
        rhos = all_rho(t)
        pools = [list(enumerate_partitions(nv)) for _ in strings]
        all_pis = [
            MultiPartition(tuple(strings), combo) for combo in itertools.product(*pools)
        ]
        for d in range(13):
            sigmas = draw_color_permutations(t, n, seed=1000 * nv + d)
            tau = trace_test_graph(lt, n=n, sigmas=sigmas)
            total = Fraction(0)
            for pi in all_pis:
                gam = gamma_empirical(lt, pi, sigmas, n)
                admissible = all(rhos.part(s).refines(pi.part(s)) for s in strings)
                if not admissible:
                    assert gam == 0
                total += gam
            assert total == tau
            draws += 1
    elapsed = time.time() - start
    verdict(
        "criterion-3 kernel decomposition and vanishing",
        draws >= 100 and elapsed < 120,
        f"{draws} draws, {elapsed:.1f}s",
    )


def _two_edge_connected_cases():
    """Two-edge-connected colored graphs over the three-color wiring.

    Exhaustive on <= 3 vertices with <= 4 edges (all colorings); directed
    cycles on 4..6 vertices (all colorings up to a budget per length, then a
    seeded sample); seeded random multigraphs up to 6 vertices and 8 edges.
    """
    rng = np.random.default_rng(2024)
    colors = ("B", "G", "R")
    for nv in (1, 2, 3):
        for g in connected_multidigraphs(nv, 4):
            if two_edge_decompose(g).cut_edges:
                continue
            for coloring in itertools.product(colors, repeat=g.edge_count):
                yield g, coloring
    for length in (4, 5, 6):
        g = DiGraph.of(length, [(i, (i + 1) % length) for i in range(length)])
        colorings = list(itertools.product(colors, repeat=length))
        if len(colorings) > 120:
            idx = rng.choice(len(colorings), size=120, replace=False)
            colorings = [colorings[i] for i in sorted(idx)]
        for coloring in colorings:
            yield g, coloring
    made = 0
    while made < 40:
        nv = int(rng.integers(4, 7))
        ne = int(rng.integers(nv, 9))
        g = DiGraph.of(nv, [(int(rng.integers(nv)), int(rng.integers(nv))) for _ in range(ne)])
        if weak_components(g).num_blocks != 1 or two_edge_decompose(g).cut_edges:
            continue
        yield g, tuple(colors[int(rng.integers(3))] for _ in range(ne))
        made += 1


def test_criterion_4_growth_exponent_exhaustive():
    start = time.time()
    _, a = three_color_model()
    cases = 0
    tuples = 0
    for g, coloring in _two_edge_connected_cases():
        t = make_test_graph(a, g.vertex_count, list(zip(g.edges, coloring)), 2)
        rhos = all_rho(t)
        budget = math.prod(bell_number(rhos.part(s).num_blocks) for s in a.sorted_strings())
        if budget > 20000:
            continue
        # each tuple's doubled exponent and all-trees bit, read off one kernel sweep
        sweep = _kernel_sweep(t, PARTITION_GUARD, leaves=True)
        laws = (law for doubled, trees, _ in sweep for law in zip(doubled.tolist(), trees.tolist()))
        for pi, (doubled, trees) in zip(enumerate_admissible(t), laws, strict=True):
            expo = Fraction(doubled, 2)
            assert expo <= 0
            assert (expo == 0) == trees
            if trees:
                for c in sorted(set(t.edge_colors)):
                    q = color_quotient(t, pi, c)
                    assert Fraction(q.decomposition().leaf_count, 2) == q.components.num_blocks
            tuples += 1
        cases += 1
    elapsed = time.time() - start
    verdict(
        "criterion-4 growth exponent sweep",
        cases > 1500 and tuples > 20000 and elapsed < 600,
        f"{cases} colored graphs, {tuples} kernel tuples, {elapsed:.0f}s",
    )


def _chain_assignments():
    shared = shared_string_model()
    disjoint = disjoint_string_model()
    three = three_color_model()
    path3 = ColorGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c")])
    edgeless3 = ColorGraph.of(["a", "b", "c"], [])
    complete3 = ColorGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    out = [shared, disjoint, three]
    for g in (path3, edgeless3, complete3):
        out.append((g, build_string_assignment(g)))
    return [(g, a) for g, a in out if len(a.strings) <= 3]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_5_border_inconsistency_exhaustive():
    start = time.time()
    specs = 0
    for g, a in _chain_assignments():
        for k in (1, 2, 3):
            for chi in itertools.product(g.colors, repeat=k):
                if not is_g_reduced(chi, g):
                    continue
                for total in range(k, 4):
                    for ell in _compositions(total, k):
                        spec = ChainSpec(g, a, chi, ell)
                        assert inconsistency_search(spec) == []
                        assert inconsistency_search(spec, drop_border_condition=True)
                        specs += 1
    elapsed = time.time() - start
    verdict(
        "criterion-5 border-merge inconsistency",
        specs > 100 and elapsed < 600,
        f"{specs} chain specs, {elapsed:.0f}s",
    )


def test_criterion_6_signed_expansion_identity():
    start = time.time()
    g3, a3 = three_color_model()
    shared = shared_string_model()
    disjoint = disjoint_string_model()
    specs = [
        ChainSpec(*shared, ("a",), (2,)),
        ChainSpec(*shared, ("a", "b"), (1, 1)),
        ChainSpec(*shared, ("a", "b"), (2, 1)),
        ChainSpec(*shared, ("a", "b", "a"), (1, 1, 1)),
        ChainSpec(*disjoint, ("a", "b"), (1, 2)),
        ChainSpec(g3, a3, ("B", "G", "B"), (1, 1, 1)),
    ]
    checked = 0
    nonzero = 0
    for spec in specs:
        for n in (2, 3):
            for seed in range(3):
                r = signed_expansion_check(spec, n, seed)
                assert r.exact and r.match
                nonzero += r.lhs != 0
                checked += 1
    elapsed = time.time() - start
    verdict(
        "criterion-6 signed expansion identity",
        checked == 36 and nonzero > 0 and elapsed < 60,
        f"{checked} instances ({nonzero} away from zero), {elapsed:.1f}s",
    )


def test_criterion_7_convergence_decay():
    start = time.time()
    g, a = shared_string_model()
    spec = ChainSpec(g, a, ("a", "b"), (1, 1), x_mode="cycle")
    table = convergence_run(spec, [4, 8, 16, 32], 200, seed=20240809)
    ok = table.slope is not None and -1.6 <= table.slope <= -0.6
    ok &= means_nonincreasing(table, sigmas=2.0)
    elapsed = time.time() - start
    verdict(
        "criterion-7 convergence decay",
        ok and elapsed < 300,
        f"slope {table.slope:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_exact_commutation():
    start = time.time()
    n = 2
    checked = 0
    for ncolors in (2, 3, 4):
        colors = [f"c{i}" for i in range(ncolors)]
        pairs = list(itertools.combinations(colors, 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if not edges:
                continue
            g = ColorGraph.of(colors, edges)
            a = build_string_assignment(g)
            full = MultiIndexSpace.of(a.strings, n)
            for seed in range(2):
                mats = {}
                sigmas = {}
                for ci, c in enumerate(colors):
                    sup = a.sorted_strings_of(c)
                    dim = n ** len(sup)
                    rng = rng_stream(seed, mask, ci)
                    mats[c] = StructuredMatrix.from_permutation(
                        sup, n, sample_uniform_permutation(dim, rng)
                    )
                    sigmas[c] = sample_uniform_permutation(dim, rng)
                for c, d in edges:
                    xc = lift(conjugate_by_color(mats[c], sigmas[c]), full)
                    xd = lift(conjugate_by_color(mats[d], sigmas[d]), full)
                    assert np.array_equal(xc @ xd, xd @ xc)  # zero error, not approximate
                    checked += 1
    elapsed = time.time() - start
    verdict(
        "criterion-8 exact commutation",
        checked > 100 and elapsed < 30,
        f"{checked} adjacent pairs, {elapsed:.1f}s",
    )


def test_criterion_9_sofic_certification():
    start = time.time()
    # left-regular representations: exact for every group of order <= 6
    groups = [FiniteGroupTable.cyclic(k) for k in range(1, 7)]
    groups.append(klein_four_table())
    groups.append(symmetric_group_table(3))
    for g in groups:
        rep = left_regular_rep(g)
        words = [(w, g.word_is_trivial(w)) for w in all_signed_words(len(g.generators), 4)]
        assert certify(rep, words).max_deviation == 0

    # the complete-graph product of two involutions is the Klein four group
    cg = ColorGraph.of(["a", "b"], [("a", "b")])
    ca = build_string_assignment(cg)
    z2 = FiniteGroupTable.cyclic(2)
    for seed in range(5):
        gp = graph_product_rep(cg, ca, {"a": left_regular_rep(z2), "b": left_regular_rep(z2)}, 2, seed)
        assert gp.word_trace((("a", 1), ("b", 1), ("a", 1), ("b", 1))) == 1

    # the edgeless product: median worst-word deviation shrinks from 8 to 64
    fg = ColorGraph.of(["a", "b"], [])
    fa = build_string_assignment(fg)
    tables = {"a": z2, "b": z2}
    words = []
    for m in range(1, 5):
        for w in itertools.product([("a", 1), ("b", 1)], repeat=m):
            words.append((w, word_triviality(fg, tables, list(w))))

    def median_maxdev(n):
        devs = []
        for seed in range(50):
            reps = {c: pad_rep(left_regular_rep(z2), n) for c in "ab"}
            gp = graph_product_rep(fg, fa, reps, n, seed=seed)
            devs.append(float(certify(gp, words).max_deviation))
        return statistics.median(devs)

    m8, m64 = median_maxdev(8), median_maxdev(64)
    elapsed = time.time() - start
    verdict(
        "criterion-9 sofic certification",
        m64 < m8 and elapsed < 300,
        f"median max deviation {m8:.3f} -> {m64:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_hamming_trace_identity():
    start = time.time()
    rng = rng_stream(99)
    pairs = 0
    while pairs < 1000:
        n = int(rng.integers(2, 65))
        p = sample_uniform_permutation(n, rng)
        q = sample_uniform_permutation(n, rng)
        d = hamming_distance(p, q)  # asserts the trace identity internally
        assert d == 1 - Fraction(p.inverse().compose(q).fixed_points(), n)
        pairs += 1
    elapsed = time.time() - start
    verdict(
        "criterion-10 distance-trace identity",
        elapsed < 5,
        f"{pairs} pairs, {elapsed:.1f}s",
    )
