"""The exact permutation paths against the dense oracle.

Permutation letters with integer diagonals make every chain factor
monomial, and every sofic word a permutation.  The point chase and the
cached, prefix-shared word traces must agree exactly with the dense lifted
products and with explicitly composed word permutations.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from permprod import chains, tensor
from permprod.chains import (
    ChainDraw,
    ChainSpec,
    chain_factors,
    convergence_run,
    draw_sigmas,
    monte_carlo_values,
)
from permprod.cli import main
from permprod.sofic import (
    FiniteGroupTable,
    certify,
    cyclic_shift_rep,
    graph_product_rep,
    left_regular_rep,
    pad_rep,
)
from permprod.tensor import (
    GuardExceeded,
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    centered_chain_norm_sq,
    lift,
    permutation_images,
    sample_uniform_permutation,
)
from permprod.traffic import (
    LoopedTestGraph,
    TestGraph,
    color_injective_trace,
    enumerate_admissible,
    gamma_expected_formula,
)
from helpers import disjoint_string_model, example_test_graph, make_test_graph, shared_string_model, three_color_model
from test_kernel_pass import seeded_two_edge_connected

EXACT_MODES = list(itertools.product(("permutation", "cycle", "identity"), ("identity", "signs")))


def specs(x_mode, lambda_mode):
    shared, disjoint, three = shared_string_model(), disjoint_string_model(), three_color_model()
    shapes = [
        (shared, ("a",), (2,)),
        (shared, ("a", "b"), (1, 2)),
        (shared, ("a", "b", "a"), (1, 1, 2)),
        (disjoint, ("a", "b"), (2, 1)),
        (three, ("B", "G", "R"), (1, 2, 1)),
    ]
    return [ChainSpec(g, a, chi, ell, x_mode, lambda_mode) for (g, a), chi, ell in shapes]


def dense_norm_sq(spec, n, seed, sample):
    """The oracle: lifted dense factors in integer arithmetic."""
    draw = ChainDraw.of(spec, n, seed)
    return centered_chain_norm_sq(chain_factors(draw, draw_sigmas(spec, n, seed, sample)))


@pytest.mark.parametrize("x_mode,lambda_mode", EXACT_MODES)
def test_chain_norm_exact_path_equals_dense(x_mode, lambda_mode):
    for spec in specs(x_mode, lambda_mode):
        for n in range(1, 7):
            for seed in (0, 1, 5):
                mono = ChainDraw.of(spec, n, seed)
                assert mono.monomial
                for sample in (0, 3):
                    sigmas = draw_sigmas(spec, n, seed, sample)
                    want = dense_norm_sq(spec, n, seed, sample)
                    assert isinstance(want, Fraction)
                    assert mono.norm_sq(sigmas) == want, (spec.chi, spec.ell, n, seed, sample)


def test_chain_norm_exact_path_large_integer_diagonals():
    # diagonals beyond +-1 switch the coefficients to Python integers; at
    # 10**7 the dense oracle's products pass int64 and must widen to match
    g, a = shared_string_model()
    n = 4
    rng = np.random.default_rng(11)
    xs = tuple(
        tuple(StructuredMatrix.from_permutation(("s",), n, sample_uniform_permutation(n, rng)) for _ in range(l))
        for l in (2, 1, 2)
    )
    for scale in (3, 1000, 10**7):
        lams = tuple(tuple(rng.integers(-scale, scale + 1, size=n) for _ in range(l)) for l in (2, 1, 2))
        spec = ChainSpec(g, a, ("a", "b", "a"), (2, 1, 2), "fixture", "fixture", x_fixtures=xs, lambda_fixtures=lams)
        mono = ChainDraw.of(spec, n, 0)
        assert mono.monomial
        for sample in range(4):
            assert mono.norm_sq(draw_sigmas(spec, n, 0, sample)) == dense_norm_sq(spec, n, 0, sample)


def test_monte_carlo_values_are_the_exact_norms():
    g, a = three_color_model()
    spec = ChainSpec(g, a, ("B", "G", "R"), (1, 2, 1), "permutation", "signs")
    vals = monte_carlo_values(spec, [3], 4, seed=6)[3]
    assert vals == [float(dense_norm_sq(spec, 3, 6, s)) for s in range(4)]


def test_exact_path_does_no_dense_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(chains, "chain_factors", refuse)
    monkeypatch.setattr(chains, "build_squared_chain", refuse)
    for x_mode, lambda_mode in EXACT_MODES:
        table = convergence_run(specs(x_mode, lambda_mode)[2], [2, 4], 3, seed=1)
        assert len(table.rows) == 2


def test_unitary_run_draws_its_letters_once_per_n(monkeypatch):
    # one QR per letter per N: the dense path reuses the per-N draw and
    # builds no squared test graph
    calls = []
    qr = np.linalg.qr

    def counted(z):
        calls.append(z.shape)
        return qr(z)

    def refuse(*args, **kwargs):
        raise AssertionError("squared chain built")

    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(chains, "build_squared_chain", refuse)
    g, a = shared_string_model()
    spec = ChainSpec(g, a, ("a", "b", "a"), (1, 2, 1), "unitary")
    table = convergence_run(spec, [2, 3], 3, seed=2)
    assert len(table.rows) == 2
    assert calls == [(n, n) for n in (2, 3) for _ in range(sum(spec.ell))]


def test_dense_path_kept_for_unitary_and_float_inputs():
    g, a = shared_string_model()
    assert not ChainDraw.of(ChainSpec(g, a, ("a", "b"), (1, 1), "unitary"), 3, 0).monomial
    n = 3
    x = (StructuredMatrix.from_permutation(("s",), n, Permutation((1, 2, 0))),)
    lam = (np.full(n, 0.5),)
    spec = ChainSpec(g, a, ("a",), (1,), "fixture", "fixture", x_fixtures=(x,), lambda_fixtures=(lam,))
    assert not ChainDraw.of(spec, n, 0).monomial
    dense = (StructuredMatrix.dense(("s",), n, np.eye(n)),)
    spec = ChainSpec(g, a, ("a",), (1,), "fixture", "identity", x_fixtures=(dense,))
    assert not ChainDraw.of(spec, n, 0).monomial


def test_permutation_images_matches_dense_lift():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        sp = MultiIndexSpace.of(["1", "2", "3"], n)
        for sup in ((), ("1",), ("2",), ("3",), ("1", "3"), ("2", "3"), ("1", "2", "3")):
            p = sample_uniform_permutation(n ** len(sup), rng)
            images = permutation_images(p.images, sup, sp)
            dense = lift(StructuredMatrix.from_permutation(sup, n, p), sp)
            # column a of the lifted matrix is e_{images[a]}
            assert np.array_equal(dense, Permutation(tuple(images.tolist())).matrix())


def test_point_guard(monkeypatch):
    sp = MultiIndexSpace.of(["1", "2"], 4)
    monkeypatch.setattr(tensor, "POINT_GUARD", 15)
    with pytest.raises(GuardExceeded):
        permutation_images(tuple(range(4)), ("1",), sp)
    monkeypatch.setattr(tensor, "POINT_GUARD", 16)
    assert len(permutation_images(tuple(range(4)), ("1",), sp)) == 16
    # a huge grid point is refused before anything is drawn or allocated
    g, a = three_color_model()
    spec = ChainSpec(g, a, ("B", "G", "R"), (1, 2, 1), "permutation", "signs")
    with pytest.raises(GuardExceeded):
        convergence_run(spec, [2, 4096], 2, seed=0)


def test_converge_cli_guard_exit_code(tmp_path):
    g3 = {"colors": ["B", "G", "R"], "edges": [["B", "R"]]}
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(dict(g3, chi=["B", "G", "R"], ell=[1, 2, 1], n_grid=[2, 100000], samples=2)))
    assert main(["converge", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_converge_cli_signs_worker_independent(tmp_path):
    cfg = tmp_path / "signs.json"
    cfg.write_text(
        json.dumps(
            {
                "colors": ["B", "G", "R"],
                "edges": [["B", "R"]],
                "chi": ["B", "G", "R"],
                "ell": [1, 2, 1],
                "x_mode": "permutation",
                "lambda_mode": "signs",
                "n_grid": [2, 3, 5],
                "samples": 12,
                "seed": 4,
            }
        )
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    rc1 = main(["converge", str(cfg), "--out", str(out1), "--workers", "1"])
    rc2 = main(["converge", str(cfg), "--out", str(out2), "--workers", "2"])
    assert rc1 == rc2
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def three_color_product(n, seed):
    g, a = three_color_model()
    reps = {}
    for c in g.colors:
        dim = n ** len(a.strings_of(c))
        order = {"B": 3, "R": 2}.get(c)
        reps[c] = pad_rep(left_regular_rep(FiniteGroupTable.cyclic(order)), dim) if order else cyclic_shift_rep(dim)
    return graph_product_rep(g, a, reps, n, seed)


def test_word_traces_match_word_permutations():
    rng = np.random.default_rng(8)
    alphabet = [(c, s) for c in "BGR" for s in (1, -1)]
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        rep = three_color_product(n, seed)
        words = [()]
        for _ in range(60):
            m = int(rng.integers(1, 6))
            words.append(tuple(alphabet[int(i)] for i in rng.integers(len(alphabet), size=m)))
        words += words[5:15]  # repeats, out of order
        words.append(words[3] + words[3])
        rng.shuffle(words)
        cert = certify(rep, [(w, False) for w in words])
        for w, e in zip(words, cert.entries):
            want = Fraction(rep.word_permutation(w).fixed_points(), rep.space.total_dim)
            assert e.trace == want == rep.word_trace(w), (n, w)
        # every word up to length 3 in product order: most prefixes shared
        ordered = [w for m in (1, 2, 3) for w in itertools.product(alphabet, repeat=m)]
        for w, e in zip(ordered, certify(rep, [(w, False) for w in ordered]).entries):
            assert e.trace == Fraction(rep.word_permutation(w).fixed_points(), rep.space.total_dim), (n, w)
        # the same words one at a time, with no prefix to share
        for w in words[:20]:
            assert certify(rep, [(w, True)]).entries[0].trace == Fraction(
                rep.word_permutation(w).fixed_points(), rep.space.total_dim
            )


def test_word_traces_on_generator_reps():
    s3 = [  # the symmetric group on three points, generated by 1 and 3
        [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0],
    ]
    rep = left_regular_rep(FiniteGroupTable.of(s3, (1, 3)))
    words = [(1, -2, 1), (2,), (1, -2), (-1, -1), (1, -2, 1), (), (-2, 2, -2)]
    cert = certify(rep, [(w, False) for w in words])
    assert [e.trace for e in cert.entries] == [rep.word_trace(w) for w in words]


def test_word_traces_reject_unknown_letters():
    rep = three_color_product(2, 0)
    with pytest.raises(ValueError):
        certify(rep, [((("B", 1), ("G", 2)), False)])


def test_hamming_check_survives_optimized_mode():
    # the trace identity is checked by an explicit raise, not an assert
    code = (
        "from permprod.sofic import hamming_distance\n"
        "from permprod.tensor import Permutation\n"
        "Permutation.inverse = lambda self: self\n"
        "p, q = Permutation((1, 2, 0)), Permutation((2, 0, 1))\n"
        "try:\n"
        "    hamming_distance(p, q)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "raised"


def densified(t):
    """The same test graph with every permutation label as its dense block matrix."""
    return TestGraph(
        t.assignment, t.digraph, t.edge_colors, tuple(StructuredMatrix.dense(lab.support, lab.n, lab.entries) for lab in t.labels)
    )


@pytest.mark.parametrize("n", [2, 3])
def test_expectation_formula_chases_permutation_labels_exactly(n):
    # gamma_expected_formula and color_injective_trace chase a permutation
    # label through its image array; the dense chase of its 0/1 matrix is the oracle
    _, three = three_color_model()
    graphs = [example_test_graph(n, "permutation", 5)] + [
        make_test_graph(three, g.digraph.vertex_count, list(zip(g.digraph.edges, g.edge_colors)), n, "permutation", i)
        for i, g in enumerate(seeded_two_edge_connected(three, "BGR", 1, 6))
    ]
    nonzero = 0
    for t in graphs:
        dense = densified(t)
        looped, looped_dense = LoopedTestGraph.with_identity(t), LoopedTestGraph.with_identity(dense)
        for pi in enumerate_admissible(t):
            got = gamma_expected_formula(looped, pi, n)
            assert got == gamma_expected_formula(looped_dense, pi, n)
            nonzero += got != 0
            for c in sorted(set(t.edge_colors)):
                assert color_injective_trace(t, pi, c, n) == color_injective_trace(dense, pi, c, n)
    assert nonzero >= 5
