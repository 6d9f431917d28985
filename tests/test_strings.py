import itertools

import pytest
from hypothesis import given, strategies as st

from permprod.strings import (
    ColorGraph,
    ColorWord,
    StringAssignment,
    build_string_assignment,
    is_g_reduced,
    validate_assignment,
)


def edgeless(colors):
    return ColorGraph.of(colors, [])


def complete(colors):
    return ColorGraph.of(colors, [(a, b) for i, a in enumerate(colors) for b in colors[i + 1 :]])


def all_color_graphs(colors):
    pairs = list(itertools.combinations(colors, 2))
    for mask in range(2 ** len(pairs)):
        yield ColorGraph.of(colors, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_color_graph_validation():
    with pytest.raises(ValueError):
        ColorGraph.of(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        ColorGraph.of(["a"], [("a", "b")])
    g = ColorGraph.of(["a", "b"], [("b", "a")])
    assert g.adjacent("a", "b") and g.adjacent("b", "a")


def test_build_free_product_shares_one_string():
    g = edgeless(["a", "b"])
    a = build_string_assignment(g)
    assert a.sorted_strings() == ("a-b",)
    assert a.strings_of("a") == a.strings_of("b") == frozenset({"a-b"})


def test_build_tensor_case_disjoint_singletons():
    g = complete(["a", "b"])
    a = build_string_assignment(g)
    assert a.strings_of("a") == {"a"}
    assert a.strings_of("b") == {"b"}


def test_build_four_cycle():
    # colors a-b-c-d in a cycle; non-edges are {a,c} and {b,d}
    g = ColorGraph.of(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    a = build_string_assignment(g)
    assert a.sorted_strings() == ("a-c", "b-d")
    assert a.strings_of("a") == a.strings_of("c") == frozenset({"a-c"})
    assert a.strings_of("b") == a.strings_of("d") == frozenset({"b-d"})
    ok, violations = validate_assignment(g, a)
    assert ok, violations
    # brute-force the pairwise law
    for c, d in itertools.combinations(g.colors, 2):
        shared = a.strings_of(c) & a.strings_of(d)
        assert (not shared) == g.adjacent(c, d)


def test_build_valid_for_every_graph_up_to_five_colors():
    for ncolors in range(1, 6):
        colors = [f"c{i}" for i in range(ncolors)]
        for g in all_color_graphs(colors):
            a = build_string_assignment(g)
            ok, violations = validate_assignment(g, a)
            assert ok, (sorted(map(sorted, g.edges)), violations)


def test_validate_appendix_style_assignment():
    g = ColorGraph.of(["B", "G", "R"], [("B", "R")])
    a = StringAssignment.of(
        ["1", "2", "3"], [("1", "B"), ("2", "B"), ("2", "G"), ("3", "G"), ("3", "R")]
    )
    ok, violations = validate_assignment(g, a)
    assert ok, violations
    # same data against the edgeless graph: B and R share no string
    g2 = edgeless(["B", "G", "R"])
    ok, violations = validate_assignment(g2, a)
    assert not ok
    assert any("'B'" in v and "'R'" in v for v in violations)


def test_validate_rejects_empty_string_set():
    g = edgeless(["a", "b"])
    a = StringAssignment.of(["s"], [("s", "a")])
    ok, violations = validate_assignment(g, a)
    assert not ok
    assert any("no strings" in v for v in violations)


def test_validate_color_mismatch_raises():
    g = edgeless(["a"])
    a = StringAssignment.of(["s"], [("s", "z")])
    with pytest.raises(ValueError):
        validate_assignment(g, a)


def brute_is_reduced(chi, g):
    # definitional oracle: a pair of equal colors with only adjacent colors
    # strictly between them makes the word reducible
    for i in range(len(chi)):
        for j in range(i + 1, len(chi)):
            if chi[i] == chi[j] and all(g.adjacent(chi[i], chi[l]) for l in range(i + 1, j)):
                return False
    return True


def test_is_g_reduced_examples():
    g = ColorGraph.of(["B", "G", "R"], [("B", "R")])
    assert brute_is_reduced(("B", "R", "B"), g) is False
    assert is_g_reduced(("B", "R", "B"), g) is False
    assert brute_is_reduced(("B", "G", "B"), g) is True
    assert is_g_reduced(("B", "G", "B"), g) is True
    assert is_g_reduced(("B", "G", "R"), g) is True  # all distinct


def test_is_g_reduced_extremes_match_oracle():
    for colors in (["a", "b"], ["a", "b", "c"]):
        ge, gc = edgeless(colors), complete(colors)
        for k in range(1, 7):
            for chi in itertools.product(colors, repeat=k):
                assert is_g_reduced(chi, ge) == brute_is_reduced(chi, ge)
                assert is_g_reduced(chi, gc) == brute_is_reduced(chi, gc)
                # edgeless: reduced iff no two adjacent letters equal
                assert is_g_reduced(chi, ge) == all(
                    chi[i] != chi[i + 1] for i in range(k - 1)
                )
                # complete: reduced iff all letters distinct
                assert is_g_reduced(chi, gc) == (len(set(chi)) == k)


def test_color_word_type():
    w = ColorWord(("a", "b"), (2, 1))
    assert len(w) == 2
    with pytest.raises(ValueError):
        ColorWord(("a",), (0,))
    with pytest.raises(ValueError):
        ColorWord(("a",), (1, 2))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    )
)
def test_adjacent_equals_the_frozenset_rule(case):
    # random color graphs, edges given in either order; every ordered pair
    # of colors, equal ones included, answers as frozenset((a, b)) in edges
    n, pairs = case
    colors = [f"c{i}" for i in range(n)]
    g = ColorGraph.of(colors, [(colors[i], colors[j]) for i, j in pairs if i != j])
    for a, b in itertools.product(colors + ["absent"], repeat=2):
        assert g.adjacent(a, b) == (frozenset((a, b)) in g.edges)
    assert g == ColorGraph(g.colors, g.edges) and hash(g) == hash(ColorGraph(g.colors, g.edges))
    assert repr(g) == f"ColorGraph(colors={g.colors!r}, edges={g.edges!r})"
