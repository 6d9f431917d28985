import itertools
import statistics
from fractions import Fraction

import numpy as np
import pytest

from permprod.strings import ColorGraph, StringAssignment, build_string_assignment
from permprod import sofic
from permprod.tensor import GuardExceeded, Permutation, rng_stream, sample_uniform_permutation
from permprod.sofic import (
    INTEGERS,
    FiniteGroupTable,
    certify,
    cyclic_shift_rep,
    graph_product_rep,
    hamming_distance,
    left_regular_rep,
    pad_rep,
    reduce_word,
    word_triviality,
)
from helpers import all_signed_words
from oracles import loop_reduce_word


def symmetric_group_table(m):
    """Multiplication table of the symmetric group from explicit permutations."""
    elems = sorted(itertools.permutations(range(m)))
    idx = {e: i for i, e in enumerate(elems)}
    table = [
        [idx[tuple(p[q[x]] for x in range(m))] for q in elems] for p in elems
    ]
    # generators: a transposition and an m-cycle
    transposition = tuple([1, 0] + list(range(2, m)))
    cycle = tuple(list(range(1, m)) + [0])
    return FiniteGroupTable.of(table, (idx[transposition], idx[cycle]))


def klein_four_table():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return FiniteGroupTable.of(table, (1, 2))


def test_table_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroupTable.of([[0, 1], [1, 1]], [1])
    with pytest.raises(ValueError):
        FiniteGroupTable.of([[0, 1, 2], [1, 2, 0], [2, 1, 0]], [1])  # not associative
    good = FiniteGroupTable.cyclic(3)
    assert good.identity == 0 and good.inverse(1) == 2


def test_table_validation_rejects_a_non_associative_loop():
    # a Latin square with identity 0 (so every element has inverses) that is
    # not a group: (1*1)*2 = 2 but 1*(1*2) = 4
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert loop[loop[1][1]][2] == 2 and loop[1][loop[1][2]] == 4
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupTable.of(loop, [1])
    with pytest.raises(ValueError, match="column"):
        FiniteGroupTable.of([[0, 1, 2], [1, 2, 0], [1, 2, 0]], [1])


def test_table_guard_bounds_the_associativity_check(monkeypatch):
    monkeypatch.setattr(sofic, "TABLE_GUARD", 26)
    assert FiniteGroupTable.cyclic(2).order == 2
    with pytest.raises(GuardExceeded, match="3\\*\\*3 products exceeds table guard 26"):
        FiniteGroupTable.of([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [1])
    # a cyclic group trips the guard before its table is built
    monkeypatch.setattr(FiniteGroupTable, "of", staticmethod(lambda *args: pytest.fail("built a table")))
    with pytest.raises(GuardExceeded):
        FiniteGroupTable.cyclic(3)


def test_left_regular_cyclic_traces():
    z2 = left_regular_rep(FiniteGroupTable.cyclic(2))
    assert z2.word_trace((1,)) == 0
    assert z2.word_trace((1, 1)) == 1
    z3 = left_regular_rep(FiniteGroupTable.cyclic(3))
    assert z3.word_trace((1,)) == 0
    assert z3.word_trace((1, 1)) == 0
    assert z3.word_trace((1, 1, 1)) == 1


def test_left_regular_symmetric_group_exact():
    g = symmetric_group_table(3)
    rep = left_regular_rep(g)
    for word in all_signed_words(2, 4):
        want = 1 if g.word_is_trivial(word) else 0
        assert rep.word_trace(word) == want


def test_cyclic_shift_rep():
    rep = cyclic_shift_rep(5)
    assert rep.word_trace((1, 1, 1)) == 0
    assert rep.word_trace((1,) * 5) == 1  # wrap-around at the block size
    assert rep.word_trace(()) == 1
    assert rep.word_trace((1, -1)) == 1


def test_pad_rep_arithmetic():
    z3 = left_regular_rep(FiniteGroupTable.cyclic(3))
    padded = pad_rep(z3, 10)
    assert padded.n == 10
    # q = 3 full copies, r = 1 fixed point
    assert padded.word_trace((1,)) == Fraction(3 * 3 * 0 + 1, 10)
    z2 = left_regular_rep(FiniteGroupTable.cyclic(2))
    assert pad_rep(z2, 10).word_trace((1,)) == 0
    same = pad_rep(z2, 2)
    assert same.gens == z2.gens
    with pytest.raises(ValueError):
        pad_rep(z2, 1)


def test_padding_trace_shift_bounded_by_remainder():
    g = symmetric_group_table(3)
    rep = left_regular_rep(g)
    for target in range(6, 20):
        padded = pad_rep(rep, target)
        r = target % rep.n
        for word in all_signed_words(2, 3):
            shift = abs(padded.word_trace(word) - rep.word_trace(word))
            assert shift <= Fraction(r, target)


def test_hamming_distance_basics():
    p = Permutation((0, 1, 2, 3))
    assert hamming_distance(p, p) == 0
    cycle = Permutation((1, 2, 3, 0))
    assert hamming_distance(p, cycle) == 1
    rng = rng_stream(5)
    for _ in range(50):
        a = sample_uniform_permutation(6, rng)
        b = sample_uniform_permutation(6, rng)
        mism = sum(1 for i in range(6) if a(i) != b(i))
        assert hamming_distance(a, b) == Fraction(mism, 6)


def test_graph_product_complete_two_z2():
    g = ColorGraph.of(["a", "b"], [("a", "b")])
    assign = build_string_assignment(g)
    z2 = FiniteGroupTable.cyclic(2)
    n = 2
    reps = {c: left_regular_rep(z2) for c in "ab"}
    gp = graph_product_rep(g, assign, reps, n, seed=3)
    za = gp.word_permutation((("a", 1),))
    zb = gp.word_permutation((("b", 1),))
    assert za.compose(zb) == zb.compose(za)  # disjoint strings commute exactly
    assert gp.word_trace((("a", 1), ("b", 1), ("a", 1), ("b", 1))) == 1


def test_graph_product_rep_size_checks():
    g = ColorGraph.of(["a"], [])
    assign = build_string_assignment(g)
    z3 = left_regular_rep(FiniteGroupTable.cyclic(3))
    with pytest.raises(ValueError):
        graph_product_rep(g, assign, {"a": z3}, 2, seed=0)  # block is 2, rep is 3


def test_graph_product_three_colors_commutation_pattern():
    # side 3: side 2 is degenerate (conjugates of the swap block act
    # coordinatewise there and everything on two points commutes)
    g = ColorGraph.of(["B", "G", "R"], [("B", "R")])
    assign = StringAssignment.of(
        ["1", "2", "3"], [("1", "B"), ("2", "B"), ("2", "G"), ("3", "G"), ("3", "R")]
    )
    z2 = FiniteGroupTable.cyclic(2)
    n = 3
    reps = {
        "B": pad_rep(left_regular_rep(z2), n ** 2),
        "G": pad_rep(left_regular_rep(z2), n ** 2),
        "R": pad_rep(left_regular_rep(z2), n),
    }
    noncommuting_seen = False
    for seed in range(6):
        gp = graph_product_rep(g, assign, reps, n, seed=seed)
        zb = gp.word_permutation((("B", 1),))
        zg = gp.word_permutation((("G", 1),))
        zr = gp.word_permutation((("R", 1),))
        assert zb.compose(zr) == zr.compose(zb)  # adjacent colors: exact
        if zb.compose(zg) != zg.compose(zb):
            noncommuting_seen = True
    assert noncommuting_seen  # shared string: no commutation in general


def test_exact_commutation_all_graphs_up_to_three_colors():
    z2 = FiniteGroupTable.cyclic(2)
    n = 2
    colors = ["a", "b", "c"]
    pairs = list(itertools.combinations(colors, 2))
    for mask in range(2 ** len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = ColorGraph.of(colors, edges)
        assign = build_string_assignment(g)
        reps = {
            c: pad_rep(left_regular_rep(z2), n ** len(assign.strings_of(c)))
            for c in colors
        }
        gp = graph_product_rep(g, assign, reps, n, seed=mask)
        for c, d in edges:
            u = gp.word_permutation(((c, 1),))
            v = gp.word_permutation(((d, 1),))
            assert u.compose(v) == v.compose(u)


def test_word_triviality_basics():
    g = ColorGraph.of(["a", "b"], [("a", "b")])
    z2 = FiniteGroupTable.cyclic(2)
    groups = {"a": z2, "b": z2}
    assert word_triviality(g, groups, [("a", 1), ("a", 1)])
    assert word_triviality(g, groups, [("a", 1), ("b", 1), ("a", 1), ("b", 1)])  # Klein four
    g_free = ColorGraph.of(["a", "b"], [])
    assert not word_triviality(g_free, groups, [("a", 1), ("b", 1), ("a", 1), ("b", 1)])
    with pytest.raises(ValueError):
        word_triviality(g, groups, [("a", 5)])


def test_word_triviality_needs_interleaved_merges():
    # merging the middle pair unlocks the outer pair
    g = ColorGraph.of(["a", "b"], [])
    z2 = FiniteGroupTable.cyclic(2)
    groups = {"a": z2, "b": z2}
    assert word_triviality(g, groups, [("a", 1), ("b", 1), ("b", 1), ("a", 1)])


def test_word_triviality_integers_vertex_groups():
    # free product of two copies of the integers: the commutator is nontrivial
    g_free = ColorGraph.of(["a", "b"], [])
    groups = {"a": INTEGERS, "b": INTEGERS}
    comm = [("a", 1), ("b", 1), ("a", -1), ("b", -1)]
    assert not word_triviality(g_free, groups, comm)
    # with the edge present the commutator dies
    g_edge = ColorGraph.of(["a", "b"], [("a", "b")])
    assert word_triviality(g_edge, groups, comm)
    assert word_triviality(g_free, groups, [("a", 2), ("a", -2)])
    reduced = reduce_word(g_free, groups, [("a", 1), ("b", 0), ("a", 1)])
    assert reduced == [("a", 2)]


def test_word_problem_tests_the_integers_marker_by_identity(monkeypatch, tmp_path):
    # a table group is never compared by value with the integers marker: not
    # in the word problem, nor in sofic-certify's rep and alphabet building
    import json

    from permprod.cli import main

    groups = {"a": INTEGERS, "b": FiniteGroupTable.cyclic(2), "c": symmetric_group_table(3)}
    g = ColorGraph.of(list(groups), [("a", "b")])
    element = {(c, j): (c, j if c == "a" else groups[c].generator(j)) for c in groups for j in (1, -1)}
    element.update({("c", 2): ("c", groups["c"].generator(2)), ("c", -2): ("c", groups["c"].generator(-2))})
    words = [w for m in range(4) for w in itertools.product(element, repeat=m)]
    want = [word_triviality(g, groups, [element[l] for l in w]) for w in words]
    assert any(want) and not all(want)
    cfg = tmp_path / "sofic.json"
    table = {"table": [list(r) for r in groups["c"].table], "generators": list(groups["c"].generators)}
    cfg.write_text(json.dumps({
        "colors": ["a", "b", "c"], "edges": [["a", "b"]], "n": 6, "seed": 1, "threshold": "1",
        "vertex_groups": {"a": "Z", "b": "cyclic:2", "c": table}, "words": {"max_length": 2},
    }))

    def refuse(self, other):
        raise AssertionError("a group table was compared by value")

    monkeypatch.setattr(FiniteGroupTable, "__eq__", refuse)
    assert sofic.word_trivialities(g, groups, words, element) == want
    assert main(["sofic-certify", str(cfg), "--out", str(tmp_path)]) == 0


def test_word_triviality_matches_direct_product_on_complete_graphs():
    # complete color graph: the product group is the direct product
    tables = {
        "a": FiniteGroupTable.cyclic(2),
        "b": FiniteGroupTable.cyclic(3),
        "c": klein_four_table(),
    }
    colors = list(tables)
    g = ColorGraph.of(colors, list(itertools.combinations(colors, 2)))
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = int(rng.integers(0, 6))
        word = []
        direct = {c: tables[c].identity for c in colors}
        for _ in range(m):
            c = colors[int(rng.integers(len(colors)))]
            x = int(rng.integers(tables[c].order))
            word.append((c, x))
            direct[c] = tables[c].mul(direct[c], x)
        want = all(direct[c] == tables[c].identity for c in colors)
        assert word_triviality(g, tables, word) == want


def test_reduce_word_equals_the_rewriting_oracle_on_random_graphs():
    # reduced forms equal as lists, on 1-4 colors with random edges
    pool = [INTEGERS, FiniteGroupTable.cyclic(1), FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(3),
            symmetric_group_table(3)]
    rng = np.random.default_rng(5)
    for _ in range(2000):
        colors = [f"c{i}" for i in range(int(rng.integers(1, 5)))]
        g = ColorGraph.of(colors, [e for e in itertools.combinations(colors, 2) if rng.random() < 0.5])
        groups = {c: pool[int(rng.integers(len(pool)))] for c in colors}
        word = []
        for _ in range(int(rng.integers(0, 10))):
            c = colors[int(rng.integers(len(colors)))]
            word.append((c, int(rng.integers(-2, 3)) if groups[c] is INTEGERS else int(rng.integers(groups[c].order))))
        want = loop_reduce_word(g, groups, word)
        assert reduce_word(g, groups, word) == want, (word, g.edges)
        prefixes = [tuple(range(m)) for m in range(len(word) + 1)]
        element = dict(enumerate(word))
        truth = [not loop_reduce_word(g, groups, word[: len(p)]) for p in prefixes]
        assert sofic.word_trivialities(g, groups, prefixes[::-1] + prefixes, element) == truth[::-1] + truth


def test_certify_left_regular_zero_deviation():
    g = symmetric_group_table(3)
    rep = left_regular_rep(g)
    words = [(w, g.word_is_trivial(w)) for w in all_signed_words(2, 3)]
    cert = certify(rep, words)
    assert cert.max_deviation == 0
    assert all(0 <= e.trace <= 1 for e in cert.entries)


def test_certify_empty_word_list():
    rep = left_regular_rep(FiniteGroupTable.cyclic(2))
    cert = certify(rep, [])
    assert cert.entries == ()
    assert cert.max_deviation == 0


def test_certify_dihedral_deviation_shrinks():
    g = ColorGraph.of(["a", "b"], [])
    assign = build_string_assignment(g)
    z2 = FiniteGroupTable.cyclic(2)
    groups = {"a": z2, "b": z2}
    words = []
    for m in range(1, 4):
        for w in itertools.product([("a", 1), ("b", 1)], repeat=m):
            words.append((w, word_triviality(g, groups, list(w))))

    def median_maxdev(n, seeds):
        devs = []
        for seed in seeds:
            reps = {c: pad_rep(left_regular_rep(z2), n) for c in "ab"}
            gp = graph_product_rep(g, assign, reps, n, seed=seed)
            devs.append(float(certify(gp, words).max_deviation))
        return statistics.median(devs)

    assert median_maxdev(64, range(12)) < median_maxdev(8, range(12))


def test_certification_mean_maxdev_nonincreasing_in_size():
    g = ColorGraph.of(["a", "b"], [])
    assign = build_string_assignment(g)
    z2 = FiniteGroupTable.cyclic(2)
    groups = {"a": z2, "b": z2}
    words = []
    for m in range(1, 4):
        for w in itertools.product([("a", 1), ("b", 1)], repeat=m):
            words.append((w, word_triviality(g, groups, list(w))))
    stats = []
    for n in (8, 16, 32, 64):
        devs = []
        for seed in range(50):
            reps = {c: pad_rep(left_regular_rep(z2), n) for c in "ab"}
            gp = graph_product_rep(g, assign, reps, n, seed=seed)
            devs.append(float(certify(gp, words).max_deviation))
        mean = float(np.mean(devs))
        stderr = float(np.std(devs, ddof=1) / len(devs) ** 0.5)
        stats.append((mean, stderr))
    for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
        assert m2 <= m1 + 2 * (s1**2 + s2**2) ** 0.5


def test_certificate_csv_shape():
    rep = left_regular_rep(FiniteGroupTable.cyclic(2))
    cert = certify(rep, [((1,), False), ((1, 1), True)])
    lines = cert.csv_lines()
    assert lines[0] == "word,truth,trace_num,trace_den,deviation"
    assert len(lines) == 3


WORD_PATH_MODELS = [  # vertex groups over Z, cyclic:1 (whose generator is the identity), cyclic:2 and S3
    ({"a": INTEGERS, "b": FiniteGroupTable.cyclic(2)}, [("a", "b")]),
    ({"a": FiniteGroupTable.cyclic(1), "b": symmetric_group_table(3), "c": FiniteGroupTable.cyclic(2)}, [("a", "b")]),
    ({"a": INTEGERS, "b": FiniteGroupTable.cyclic(1), "c": symmetric_group_table(3)}, []),
]


@pytest.mark.parametrize("groups, edges", WORD_PATH_MODELS, ids=["Z-C2-edge", "C1-S3-C2-edge", "Z-C1-S3-free"])
def test_prefix_shared_word_path_equals_the_per_word_oracle(groups, edges):
    from permprod.cli import _words_from_config

    g = ColorGraph.of(list(groups), edges)
    a = build_string_assignment(g)
    n = 2
    while any(n ** len(a.strings_of(c)) < (2 if grp == INTEGERS else grp.order) for c, grp in groups.items()):
        n += 1
    reps = {}
    for c, grp in groups.items():
        dim = n ** len(a.strings_of(c))
        reps[c] = cyclic_shift_rep(dim) if grp == INTEGERS else pad_rep(left_regular_rep(grp), dim)
    rep = graph_product_rep(g, a, reps, n, seed=3)
    # every word up to length 4 in product order, its triviality shared by prefix
    shared = _words_from_config({"words": {"max_length": 4}}, g, groups)
    element = {(c, j): (c, j if groups[c] == INTEGERS else groups[c].generator(j)) for w, _ in shared for c, j in w}
    oracle = {(): (True, Fraction(1))}
    for w, trivial in shared:
        trace = Fraction(rep.word_permutation(w).fixed_points(), rep.dim)
        oracle[w] = (word_triviality(g, groups, [element[l] for l in w]), trace)
        assert trivial == oracle[w][0], w
    words = [w for w, _ in shared]
    shuffled = words[::3] + words[:50] + [()] + words[1::3] + [(), ()] + words[2::3]
    np.random.default_rng(0).shuffle(shuffled)
    repeated = [()] + shuffled + [words[7]] * 3 + [words[-1], words[-2], words[-1]]  # one head, a last letter twice
    for order in (words, words[::-1], repeated):
        assert sofic.word_trivialities(g, groups, order, element) == [oracle[w][0] for w in order]
        cert = certify(rep, [(w, oracle[w][0]) for w in order])
        assert [(e.word, e.trivial, e.trace) for e in cert.entries] == [(w, *oracle[w]) for w in order]
        assert all(e.deviation == abs(e.trace - e.trivial) for e in cert.entries)


def test_certify_compares_in_batches_of_the_point_budget(monkeypatch):
    # a batch smaller than the run's last letters gives the same traces
    g = symmetric_group_table(3)
    rep = pad_rep(left_regular_rep(g), 8)
    words = [(w, g.word_is_trivial(w)) for w in all_signed_words(2, 3)]
    want = [e.trace for e in certify(rep, words).entries]
    monkeypatch.setattr(sofic, "COMPARE_POINTS", 2 * rep.dim)
    assert [e.trace for e in certify(rep, words).entries] == want
    assert want == [rep.word_trace(w) for w, _ in words]
