import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permprod.tensor import (
    ColorPermutationFactor,
    GuardExceeded,
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    centered_chain_norm,
    centered_chain_norm_sq,
    chain_product,
    conjugate_by_color,
    delta,
    delta_vector,
    lift,
    lift_permutation,
    normalized_trace,
    perm_word_trace,
    rng_stream,
    sample_uniform_permutation,
    two_norm,
)
from oracles import dense_conjugation_oracle, kron_lift_oracle


def test_encode_examples():
    sp = MultiIndexSpace.of(["1", "2"], 3)
    assert sp.encode((0, 0)) == 0
    assert sp.encode((1, 2)) == 5
    with pytest.raises(ValueError):
        sp.encode((0, 3))


def test_encode_decode_roundtrip():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            sp = MultiIndexSpace.of([f"s{i}" for i in range(k)], n)
            for t in itertools.product(range(n), repeat=k):
                assert sp.decode(sp.encode(t)) == t
            assert sorted(sp.encode(t) for t in itertools.product(range(n), repeat=k)) == list(
                range(sp.total_dim)
            )


def test_permutation_basics():
    p = Permutation((2, 0, 1))
    assert p.inverse().compose(p).images == (0, 1, 2)
    assert p.compose(p.inverse()).images == (0, 1, 2)
    assert Permutation.identity(3).fixed_points() == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    # matrix convention: column i carries e_{p(i)}
    m = p.matrix()
    for i in range(3):
        assert m[p(i), i] == 1


def test_sample_uniform_identity_for_n1():
    for seed in range(5):
        assert sample_uniform_permutation(1, rng_stream(seed)).images == (0,)
    with pytest.raises(ValueError):
        sample_uniform_permutation(0, rng_stream(0))


def test_sample_uniform_determinism():
    a = sample_uniform_permutation(6, rng_stream(42, 1))
    b = sample_uniform_permutation(6, rng_stream(42, 1))
    c = sample_uniform_permutation(6, rng_stream(42, 2))
    assert a == b
    assert a != c or True  # different stream may coincide; only equality is contractual


def test_sample_uniform_frequencies_multinomial():
    # each of the 6 permutations of 3 points within 5 sigma of 1/6
    rng = rng_stream(2024)
    counts = Counter(sample_uniform_permutation(3, rng).images for _ in range(6000))
    p = 1 / 6
    sigma = (6000 * p * (1 - p)) ** 0.5
    for images in itertools.permutations(range(3)):
        assert abs(counts[images] - 1000) <= 5 * sigma


def test_conjugate_identity_and_diagonal():
    x = StructuredMatrix.dense(["s"], 3, np.diag([1, 2, 3]).astype(np.int64))
    same = conjugate_by_color(x, Permutation.identity(3))
    assert np.array_equal(same.entries, x.entries)
    p = Permutation((1, 2, 0))
    conj = conjugate_by_color(x, p)
    assert np.array_equal(np.diag(conj.entries), np.array([2, 3, 1]))


def test_conjugate_matches_dense_product_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = StructuredMatrix.dense(["s"], 4, rng.integers(-3, 4, (4, 4)))
        p = sample_uniform_permutation(4, rng)
        got = conjugate_by_color(x, p).entries
        want = dense_conjugation_oracle(x.entries, p.images)
        assert np.array_equal(got, want)


def test_conjugate_preserves_permutation_flag():
    p = Permutation((1, 0, 2))
    x = StructuredMatrix.from_permutation(["s"], 3, p)
    sigma = Permutation((2, 0, 1))
    conj = conjugate_by_color(x, sigma)
    assert conj.perm is not None
    assert np.array_equal(conj.perm.matrix(), conj.entries)
    assert conj.perm == sigma.inverse().compose(p).compose(sigma)


def test_lift_identity_and_swap():
    full = MultiIndexSpace.of(["1", "2"], 2)
    ident = StructuredMatrix.identity(["1"], 2)
    assert np.array_equal(lift(ident, full), np.eye(4, dtype=np.int64))

    swap = StructuredMatrix.dense(["1"], 2, np.array([[0, 1], [1, 0]], dtype=np.int64))
    got = lift(swap, full)
    want = kron_lift_oracle(swap.entries, [0], 2, 2)
    assert np.array_equal(got, want)
    # swap on the less significant string
    swap2 = StructuredMatrix.dense(["2"], 2, swap.entries)
    assert np.array_equal(lift(swap2, full), kron_lift_oracle(swap.entries, [1], 2, 2))


def test_lift_against_kron_oracle_various_supports():
    rng = np.random.default_rng(11)
    n = 2
    strings = ["a", "b", "c"]
    full = MultiIndexSpace.of(strings, n)
    for support in (["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]):
        dim = n ** len(support)
        x = StructuredMatrix.dense(support, n, rng.integers(-2, 3, (dim, dim)))
        positions = [strings.index(s) for s in sorted(support)]
        want = kron_lift_oracle(x.entries, positions, 3, n)
        assert np.array_equal(lift(x, full), want)


def test_lift_trace_factorization():
    full = MultiIndexSpace.of(["1", "2", "3"], 2)
    rng = np.random.default_rng(5)
    x = StructuredMatrix.dense(["2"], 2, rng.integers(-3, 4, (2, 2)))
    lifted = lift(x, full)
    assert np.trace(lifted) == 4 * np.trace(x.entries)


def test_lift_guard():
    full = MultiIndexSpace.of(["1", "2"], 2)
    x = StructuredMatrix.identity(["1"], 2)
    with pytest.raises(GuardExceeded):
        lift(x, full, dense_guard=3)
    with pytest.raises(ValueError):
        lift(x, MultiIndexSpace.of(["2"], 2))


def test_lift_guard_bounds_entries_before_allocating(monkeypatch):
    full = MultiIndexSpace.of(["1", "2"], 2)  # dim 4, 16 entries
    x = StructuredMatrix.identity(["1"], 2)
    assert lift(x, full, dense_guard=16).shape == (4, 4)

    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the guard")

    monkeypatch.setattr(np, "eye", allocate)
    with pytest.raises(GuardExceeded, match=r"4\*\*2 entries"):
        lift(x, full, dense_guard=15)  # the dimension is below the guard, its square is not


def test_delta_basics():
    a = np.arange(9).reshape(3, 3).astype(float)
    d = delta(a)
    assert np.array_equal(np.diag(d), np.diag(a))
    assert np.count_nonzero(d - np.diag(np.diag(d))) == 0
    # idempotent and trace preserving
    assert np.array_equal(delta(d), d)
    assert np.trace(d) == np.trace(a)


def test_delta_of_permutation_matrix_marks_fixed_points():
    p = Permutation((1, 0, 2, 3))
    d = delta_vector(p.matrix())
    assert list(d) == [0, 0, 1, 1]


def test_delta_selfadjointness_in_trace():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        lhs = np.trace(delta(a) @ b) / 5
        rhs = np.trace(a @ delta(b)) / 5
        assert abs(lhs - rhs) < 1e-12


def test_delta_contractions():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        d = delta(a)
        assert np.linalg.norm(d, 2) <= np.linalg.norm(a, 2) + 1e-12
        # normalized trace-norm contraction
        assert np.abs(np.linalg.svd(d, compute_uv=False)).sum() <= np.abs(
            np.linalg.svd(a, compute_uv=False)
        ).sum() + 1e-12


def test_normalized_trace_and_two_norm():
    assert normalized_trace(np.eye(4)) == 1
    assert two_norm(np.eye(4)) == pytest.approx(1.0)
    p = Permutation((1, 0, 2))
    assert normalized_trace(p.matrix()) == Fraction(1, 3)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert two_norm(a) == pytest.approx((np.abs(a) ** 2).sum() ** 0.5 / 5**0.5)


def test_conjugation_preserves_norms():
    rng = np.random.default_rng(14)
    full = MultiIndexSpace.of(["s"], 5)
    x = rng.normal(size=(5, 5))
    p = sample_uniform_permutation(5, rng)
    conj = conjugate_by_color(StructuredMatrix.dense(["s"], 5, x), p).entries
    assert two_norm(conj) == pytest.approx(two_norm(x))
    assert np.linalg.norm(conj, 2) == pytest.approx(np.linalg.norm(x, 2))


def test_chain_product_single_factor():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4))
    lam = np.ones(4)
    assert np.array_equal(chain_product([lam], [x]), x)


def test_chain_product_all_diagonal():
    a = np.diag([1.0, 2, 3])
    lam = np.array([2.0, 2, 2])
    got = chain_product([lam, lam], [a, a])
    assert np.allclose(got, np.diag([4.0, 16, 36]))


def test_chain_product_matches_dense_oracle():
    rng = np.random.default_rng(4)
    lam1, lam2 = rng.normal(size=4), rng.normal(size=4)
    x1, x2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    got = chain_product([lam1, lam2], [x1, x2])
    want = np.diag(lam1) @ x1 @ np.diag(lam2) @ x2
    assert np.allclose(got, want, atol=1e-12)


def test_integer_chain_products_stay_exact_past_int64():
    # five diagonals of size 10**7 over permutation factors: products reach
    # 10**35, far past int64, and must equal the Python-integer products
    rng = np.random.default_rng(8)
    dim = 16
    lams = [rng.integers(-(10**7), 10**7 + 1, size=dim) for _ in range(5)]
    xs = [sample_uniform_permutation(dim, rng).matrix().astype(np.int64) for _ in range(5)]
    want = chain_product([a.astype(object) for a in lams], [x.astype(object) for x in xs])
    got = chain_product(lams, xs)
    assert got.tolist() == want.tolist()
    assert max(abs(v) for v in got.ravel().tolist()) > 2**63
    ys = [lam[:, None] * x for lam, x in zip(lams, xs)]
    assert centered_chain_norm_sq(ys) == centered_chain_norm_sq([y.astype(object) for y in ys])


def test_centered_chain_norm_k1_is_zero():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(5, 5))
    assert centered_chain_norm([y]) == 0.0


def test_centered_chain_norm_diagonals_vanish():
    ys = [np.diag([1.0, 2, 3]), np.diag([4.0, 5, 6])]
    assert centered_chain_norm(ys) == 0.0


def test_centered_chain_norm_swap_example():
    # two copies of the 2x2 swap: diagonal part of the product is the identity
    s = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert centered_chain_norm_sq([s, s]) == 1
    assert centered_chain_norm([s, s]) == pytest.approx(1.0)


def test_perm_word_trace_empty_and_inverse():
    sp = MultiIndexSpace.of(["1", "2"], 2)
    assert perm_word_trace([], sp) == 1
    p = Permutation((1, 2, 3, 0))
    f = ColorPermutationFactor("c", ("1", "2"), p)
    finv = ColorPermutationFactor("c", ("1", "2"), p.inverse())
    assert perm_word_trace([f, finv], sp) == 1


def test_perm_word_trace_single_swap_on_one_string():
    sp = MultiIndexSpace.of(["1", "2"], 2)
    f = ColorPermutationFactor("c", ("1",), Permutation((1, 0)))
    # direct fixed-point oracle: the swap moves every point
    assert perm_word_trace([f], sp) == 0


def test_perm_word_trace_matches_dense_words():
    rng = np.random.default_rng(17)
    strings = ["1", "2"]
    for n in (2, 3):
        sp = MultiIndexSpace.of(strings, n)
        supports = [("1",), ("2",), ("1", "2")]
        for _ in range(30):
            m = int(rng.integers(1, 5))
            factors = []
            dense = np.eye(sp.total_dim, dtype=np.int64)
            for _ in range(m):
                sup = supports[int(rng.integers(len(supports)))]
                p = sample_uniform_permutation(n ** len(sup), rng)
                factors.append(ColorPermutationFactor("c", sup, p))
                sm = StructuredMatrix.from_permutation(sup, n, p)
                dense = dense @ lift(sm, sp)
            assert perm_word_trace(factors, sp) == normalized_trace(dense)


def test_adjacent_colors_commute_after_lifting():
    # disjoint supports: the lifted conjugated matrices commute, with zero
    # error on the integer path (complex matmul may differ by accumulation
    # ulps, so it gets a correspondingly tiny tolerance)
    from permprod.strings import ColorGraph, build_string_assignment

    rng = np.random.default_rng(31)
    for ncolors in (2, 3, 4):
        colors = [f"c{i}" for i in range(ncolors)]
        pairs = list(itertools.combinations(colors, 2))
        for mask in range(2 ** len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if not edges:
                continue
            g = build_string_assignment(ColorGraph.of(colors, edges))
            for n in (2, 3):
                full = MultiIndexSpace.of(g.strings, n)
                if full.total_dim > 3**4:
                    continue
                for c, d in edges:
                    sup_c, sup_d = g.sorted_strings_of(c), g.sorted_strings_of(d)
                    dim_c, dim_d = n ** len(sup_c), n ** len(sup_d)
                    for complex_entries in (False, True):
                        if complex_entries:
                            xc = StructuredMatrix.dense(sup_c, n, rng.normal(size=(dim_c, dim_c)) + 1j * rng.normal(size=(dim_c, dim_c)))
                            xd = StructuredMatrix.dense(sup_d, n, rng.normal(size=(dim_d, dim_d)) + 1j * rng.normal(size=(dim_d, dim_d)))
                        else:
                            xc = StructuredMatrix.dense(sup_c, n, rng.integers(-3, 4, (dim_c, dim_c)))
                            xd = StructuredMatrix.dense(sup_d, n, rng.integers(-3, 4, (dim_d, dim_d)))
                        sc = sample_uniform_permutation(dim_c, rng)
                        sd = sample_uniform_permutation(dim_d, rng)
                        a = lift(conjugate_by_color(xc, sc), full)
                        b = lift(conjugate_by_color(xd, sd), full)
                        if complex_entries:
                            assert np.abs(a @ b - b @ a).max() < 1e-13
                        else:
                            assert np.array_equal(a @ b, b @ a)


def test_lift_permutation_agrees_with_dense_lift():
    rng = np.random.default_rng(23)
    sp = MultiIndexSpace.of(["1", "2", "3"], 2)
    for sup in (("1",), ("2",), ("3",), ("1", "3")):
        p = sample_uniform_permutation(2 ** len(sup), rng)
        sm = StructuredMatrix.from_permutation(sup, 2, p)
        lifted_perm = lift_permutation(sm, sp)
        assert np.array_equal(lifted_perm.matrix(), lift(sm, sp))
