import concurrent.futures
import itertools

import numpy as np
import pytest

from permprod import chains, traffic
from permprod.digraphs import two_edge_decompose, weak_components
from permprod.partitions import meet_many
from permprod.strings import is_g_reduced
from permprod.tensor import Permutation, StructuredMatrix
from permprod.chains import (
    ChainSpec,
    build_squared_chain,
    chain_factors,
    convergence_run,
    draw_sigmas,
    inconsistency_search,
    j_set,
    means_nonincreasing,
    signed_expansion_check,
    subset_indices,
)
from permprod.tensor import sums_agree
from permprod.traffic import enumerate_admissible, enumerate_tree_partitions, trace_test_graph
from helpers import shared_string_model, disjoint_string_model, three_color_model
from test_acceptance import _chain_assignments, _compositions
from oracles import quotient_looped, subset_quotient_partition


def edgeless_spec(chi=("a", "b"), ell=None, **kw):
    g, a = shared_string_model()
    return ChainSpec(g, a, chi, ell or tuple(1 for _ in chi), **kw)


def complete_spec(chi=("a", "b"), ell=None, **kw):
    g, a = disjoint_string_model()
    return ChainSpec(g, a, chi, ell or tuple(1 for _ in chi), **kw)


def test_spec_rejects_unreduced_word():
    g, a = disjoint_string_model()
    with pytest.raises(ValueError):
        ChainSpec(g, a, ("a", "b", "a"), (1, 1, 1))  # adjacent colors commute past
    with pytest.raises(ValueError):
        ChainSpec(g, a, ("a", "a"), (1, 1))


def test_build_shapes_k1():
    chain = build_squared_chain(edgeless_spec(("a",), (1,)), 2)
    t = chain.test_graph
    assert t.digraph.vertex_count == 1
    assert t.digraph.edge_count == 2
    assert all(s == d for s, d in t.digraph.edges)  # both are self-loops
    assert not two_edge_decompose(t.digraph).cut_edges


def test_build_shapes_k2():
    chain = build_squared_chain(edgeless_spec(), 2)
    t = chain.test_graph
    assert t.digraph.vertex_count == 3  # 2 * sum(ell) - 1
    assert t.digraph.edge_count == 4
    assert not two_edge_decompose(t.digraph).cut_edges
    assert weak_components(t.digraph).num_blocks == 1
    # two 2-cycles sharing the border vertex
    shared = chain.u(1, 1)
    assert chain.u_prime(1, 1) == shared
    assert chain.u(2, 2) == shared and chain.u_prime(2, 2) == shared


def test_build_vertex_count_general():
    for chi, ell in [(("a", "b"), (2, 1)), (("a", "b", "a"), (1, 1, 1)), (("a",), (3,))]:
        chain = build_squared_chain(edgeless_spec(chi, ell), 2)
        assert chain.test_graph.digraph.vertex_count == 2 * sum(ell) - 1
        assert chain.test_graph.digraph.edge_count == 2 * sum(ell)
        assert not two_edge_decompose(chain.test_graph.digraph).cut_edges


def test_build_mirror_labels_are_adjoints():
    spec = edgeless_spec(("a", "b"), (2, 1), x_mode="permutation")
    chain = build_squared_chain(spec, 3, seed=5)
    t = chain.test_graph
    m = sum(spec.ell)
    for j in range(m):
        orig = t.labels[j]
        mirror = t.labels[m + j]
        assert np.array_equal(mirror.entries, orig.entries.T)
        assert mirror.perm == orig.perm.inverse()
        assert t.edge_colors[j] == t.edge_colors[m + j]


def test_build_loop_labels_multiply_at_shared_vertex():
    spec = edgeless_spec(("a", "b"), (1, 1), lambda_mode="signs")
    chain = build_squared_chain(spec, 2, seed=9)
    lam = chain.draw.lambdas
    shared = chain.u(1, 1)
    want = lam[0][0] * np.conjugate(lam[0][0])
    assert np.array_equal(chain.looped.vertex_labels[shared], want)


def test_subset_quotient_and_j_set_cross_check():
    spec = edgeless_spec(("a", "b"), (1, 2))
    chain = build_squared_chain(spec, 2)
    nv = chain.test_graph.digraph.vertex_count
    subsets = subset_indices(spec.k)
    assert len(subsets) == 2 ** (2 * spec.k)
    for pi in itertools.islice(enumerate_admissible(chain.test_graph), 40):
        j = j_set(chain, pi)
        m = meet_many(list(pi.parts))
        for subset in subsets:
            rho_i = subset_quotient_partition(chain, subset)
            assert rho_i.refines(m) == set(subset).issubset(j)


def test_signed_expansion_exact_permutation_labels():
    specs = [
        edgeless_spec(("a", "b"), (1, 1)),
        edgeless_spec(("a", "b"), (2, 1)),
        edgeless_spec(("a", "b", "a"), (1, 1, 1)),
        complete_spec(("a", "b"), (1, 2)),
    ]
    g3, a3 = three_color_model()
    specs.append(ChainSpec(g3, a3, ("B", "G", "B"), (1, 1, 1)))
    nonzero = 0
    for spec in specs:
        for n in (2, 3):
            for seed in range(3):
                r = signed_expansion_check(spec, n, seed)
                assert r.exact
                assert r.match, (spec.chi, n, seed, r.lhs, r.rhs)
                if r.lhs != 0:
                    nonzero += 1
    assert nonzero > 0  # the identity is exercised away from zero


def test_signed_expansion_with_sign_diagonals():
    # nontrivial diagonal factors flow through both pipelines exactly
    for spec in (
        edgeless_spec(("a", "b"), (1, 1), lambda_mode="signs"),
        edgeless_spec(("a", "b", "a"), (1, 1, 1), lambda_mode="signs"),
        complete_spec(("a", "b"), (2, 1), lambda_mode="signs"),
    ):
        for n in (2, 3):
            r = signed_expansion_check(spec, n, seed=6)
            assert r.exact and r.match, (spec.chi, n, r.lhs, r.rhs)


def test_signed_expansion_k1_is_zero():
    r = signed_expansion_check(edgeless_spec(("a",), (1,)), 2, seed=0)
    assert r.lhs == 0 and r.rhs == 0 and r.match


def test_signed_expansion_float_labels():
    # unitary fixtures exercise the complex path; agreement within tolerance
    g, a = shared_string_model()
    rng = np.random.default_rng(3)
    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return StructuredMatrix.dense(("s",), 2, q)
    spec = ChainSpec(
        g, a, ("a", "b"), (1, 1), x_mode="fixture",
        x_fixtures=((unitary(),), (unitary(),)),
    )
    r = signed_expansion_check(spec, 2, seed=1)
    assert not r.exact
    assert r.match


def test_signed_expansion_unitary_mode():
    spec = edgeless_spec(("a", "b"), (1, 1), x_mode="unitary")
    r = signed_expansion_check(spec, 3, seed=2)
    assert not r.exact
    assert r.match
    # norm-one inputs, nonnegative squared norm
    assert float(r.lhs) >= -1e-12


def chase_family():
    """The criterion-6 specs and the shapes of the signed-expansion tests
    above, one (graph, assignment, chi, ell) each."""
    shared, disjoint, three = shared_string_model(), disjoint_string_model(), three_color_model()
    return [
        (shared, ("a",), (1,)),
        (shared, ("a",), (2,)),
        (shared, ("a", "b"), (1, 1)),
        (shared, ("a", "b"), (2, 1)),
        (shared, ("a", "b"), (1, 2)),
        (shared, ("a", "b", "a"), (1, 1, 1)),
        (disjoint, ("a", "b"), (1, 2)),
        (disjoint, ("a", "b"), (2, 1)),
        (three, ("B", "G", "B"), (1, 1, 1)),
    ]


def einsum_terms(spec, n, seed):
    """Each subset's looped trace from its own quotient graph and dense sum."""
    chain = build_squared_chain(spec, n, seed)
    sigmas = draw_sigmas(spec, n, seed)
    return [
        (subset, trace_test_graph(quotient_looped(chain.looped, subset_quotient_partition(chain, subset)), n=n, sigmas=sigmas))
        for subset in subset_indices(spec.k)
    ]


@pytest.mark.parametrize("x_mode", ["identity", "cycle", "permutation"])
@pytest.mark.parametrize("lambda_mode", ["identity", "signs"])
def test_chased_subset_traces_equal_the_quotient_einsums(x_mode, lambda_mode):
    nonzero = 0
    for (g, a), chi, ell in chase_family():
        spec = ChainSpec(g, a, chi, ell, x_mode=x_mode, lambda_mode=lambda_mode)
        for n in (2, 3):
            for seed in range(3):
                r = signed_expansion_check(spec, n, seed)
                assert build_squared_chain(spec, n, seed).draw.monomial
                assert list(r.terms) == einsum_terms(spec, n, seed), (chi, ell, n, seed)
                assert r.exact and r.match
                nonzero += sum(tau != 0 for _, tau in r.terms)
    assert nonzero > 0


def count_graph_sums(monkeypatch):
    calls = []
    raw = traffic.raw_graph_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(traffic, "raw_graph_sum", counted)
    return calls


def test_monomial_draws_make_no_dense_graph_sum(monkeypatch):
    calls = count_graph_sums(monkeypatch)
    for x_mode in ("identity", "cycle", "permutation"):
        r = signed_expansion_check(edgeless_spec(("a", "b", "a"), (1, 1, 1), x_mode=x_mode, lambda_mode="signs"), 3, 1)
        assert r.exact and r.match and len(r.terms) == 64
    assert calls == []


def test_dense_draws_keep_the_quotient_einsums(monkeypatch):
    # dense draws take the same chase as monomial ones: no dense graph sum,
    # and every term equal to its quotient einsum
    calls = count_graph_sums(monkeypatch)
    unitary = edgeless_spec(("a", "b"), (1, 1), x_mode="unitary")
    r = signed_expansion_check(unitary, 2, 0)
    assert not r.exact and r.match
    # dense integer fixtures of the swap matrix: exact, and equal term by
    # term to the einsums and to the same letters given as permutations
    g, a = shared_string_model()
    swap = np.array([[0, 1], [1, 0]])
    dense = ((StructuredMatrix.dense(("s",), 2, swap),), (StructuredMatrix.dense(("s",), 2, swap),))
    perm = tuple((StructuredMatrix.from_permutation(("s",), 2, Permutation((1, 0))),) for _ in range(2))
    specs = [ChainSpec(g, a, ("a", "b"), (1, 1), x_mode="fixture", x_fixtures=fx) for fx in (dense, perm)]
    reports = [signed_expansion_check(spec, 2, 4) for spec in specs]
    assert calls == []
    want = einsum_terms(unitary, 2, 0)
    assert [s for s, _ in r.terms] == [s for s, _ in want]
    assert all(sums_agree(got, tau) for (_, got), (_, tau) in zip(r.terms, want))
    assert list(reports[0].terms) == einsum_terms(specs[0], 2, 4)
    assert reports[0].exact and reports[0].match
    assert reports[0] == reports[1]


def test_subset_tuples_are_built_once_per_k():
    assert subset_indices(2) is subset_indices(2)
    assert isinstance(subset_indices(2), tuple)
    a = signed_expansion_check(edgeless_spec(), 2, 0)
    b = signed_expansion_check(edgeless_spec(), 3, 1)
    assert all(sa is sb for (sa, _), (sb, _) in zip(a.terms, b.terms))


def test_inconsistency_search_empty_and_control():
    specs = [
        edgeless_spec(("a", "b"), (1, 1)),
        edgeless_spec(("a", "b"), (1, 2)),
        edgeless_spec(("a", "b", "a"), (1, 1, 1)),
        complete_spec(("a", "b"), (1, 1)),
        edgeless_spec(("a",), (2,)),
    ]
    g3, a3 = three_color_model()
    specs.append(ChainSpec(g3, a3, ("B", "G", "B"), (1, 1, 1)))
    for spec in specs:
        assert inconsistency_search(spec) == []
        control = inconsistency_search(spec, drop_border_condition=True)
        assert control, spec.chi


def test_inconsistency_search_draws_nothing(monkeypatch):
    # the search reads only the squared chain's graph: with every draw
    # refused, criterion 5's specs still have no surviving class, and the
    # control finds the tree tuples of the drawn chain's graph
    specs = [
        ChainSpec(g, a, chi, ell)
        for g, a in _chain_assignments()
        for k in (1, 2, 3)
        for chi in itertools.product(g.colors, repeat=k)
        if is_g_reduced(chi, g)
        for total in range(k, 4)
        for ell in _compositions(total, k)
    ]
    trees = [list(enumerate_tree_partitions(build_squared_chain(spec, 1, 0).test_graph)) for spec in specs]

    def refuse(*args):
        raise AssertionError("the search drew a letter or a diagonal")

    monkeypatch.setattr(chains, "sample_uniform_permutation", refuse)
    monkeypatch.setattr(chains, "rng_stream", refuse)
    for spec, want in zip(specs, trees):
        assert inconsistency_search(spec) == []
        assert inconsistency_search(spec, drop_border_condition=True) == want != []
    assert len(specs) > 100


def test_convergence_run_slope_and_monotonicity():
    spec = edgeless_spec(("a", "b"), (1, 1), x_mode="cycle")
    table = convergence_run(spec, [4, 8, 16, 32], 120, seed=5)
    assert table.slope is not None
    assert -1.6 <= table.slope <= -0.6
    assert means_nonincreasing(table)
    assert all(r["mean"] >= 0 for r in table.rows)


def test_convergence_deterministic_and_worker_independent(monkeypatch):
    # only the unitary (dense) draws reach the worker pool
    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def counted_pool(**kwargs):
        pools.append(kwargs)
        return real_pool(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
    for x_mode, opened in (("cycle", 0), ("unitary", 2)):
        spec = edgeless_spec(("a", "b"), (1, 1), x_mode=x_mode)
        t1 = convergence_run(spec, [4, 8], 40, seed=9)
        t2 = convergence_run(spec, [4, 8], 40, seed=9)
        t3 = convergence_run(spec, [4, 8], 40, seed=9, workers=3)
        assert t1.csv_lines() == t2.csv_lines() == t3.csv_lines()
        assert len(pools) == opened


def test_convergence_requires_two_grid_points():
    spec = edgeless_spec()
    with pytest.raises(ValueError):
        convergence_run(spec, [4], 10, seed=0)


def test_complete_graph_k1_means_identically_zero():
    spec = complete_spec(("a",), (1,), x_mode="cycle")
    table = convergence_run(spec, [2, 4, 8], 20, seed=2)
    assert all(r["mean"] == 0.0 for r in table.rows)
    assert table.slope is None
    assert all(r["variance"] == 0.0 for r in table.rows)


def test_concentration_variance_decreases():
    spec = edgeless_spec(("a", "b"), (1, 1), x_mode="cycle")
    table = convergence_run(spec, [4, 32], 200, seed=7)
    assert table.rows[-1]["variance"] < table.rows[0]["variance"]


def test_chain_factors_are_conjugated_products():
    # Y_i built by the chain equals the literal lifted product
    from permprod.tensor import MultiIndexSpace, conjugate_by_color, lift

    spec = edgeless_spec(("a", "b"), (2, 1), x_mode="permutation")
    chain = build_squared_chain(spec, 3, seed=4)
    sigmas = draw_sigmas(spec, 3, seed=4)
    ys = chain_factors(chain.draw, sigmas)
    full = MultiIndexSpace.of(spec.assignment.strings, 3)
    y0 = lift(conjugate_by_color(chain.draw.letters[0][0], sigmas["a"]), full) @ lift(
        conjugate_by_color(chain.draw.letters[0][1], sigmas["a"]), full
    )
    assert np.array_equal(ys[0], y0)
