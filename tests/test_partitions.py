import dataclasses
import gc
import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from permprod.partitions import (
    Partition,
    bell_exceeds,
    bell_number,
    enumerate_partitions,
    join,
    meet,
    meet_many,
)
from oracles import all_partitions_brute, brute_join, brute_meet, brute_refines


def P(n, *blocks):
    return Partition.of(n, blocks)


def test_canonical_form_and_equality():
    assert P(4, (2, 3), (1, 0)) == P(4, (0, 1), (3, 2))
    assert P(3, (0, 1, 2)).blocks == ((0, 1, 2),)
    with pytest.raises(ValueError):
        Partition.of(3, [(0, 1)])
    with pytest.raises(ValueError):
        Partition.of(3, [(0, 1), (1, 2)])


def test_enumerate_counts_bell_numbers():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203
    for n, b in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(list(enumerate_partitions(n))) == b
        assert bell_number(n) == b


def test_bell_exceeds_compares_without_forming_the_number():
    for n in range(-1, 30):
        b = bell_number(max(n, 0))
        for bound in (-1, 0, 1, b - 1, b, b + 1, 10**7):
            assert bell_exceeds(n, bound) == (n >= 0 and b > bound)
    assert bell_exceeds(10**30, 10**7)  # stops at Bell(13), the first past the bound


def test_enumerate_matches_bruteforce_and_is_deduplicated():
    for n in range(5):
        got = list(enumerate_partitions(n))
        assert len(set(got)) == len(got)
        assert set(got) == set(all_partitions_brute(n))


def test_enumerate_empty_ground_set():
    assert list(enumerate_partitions(0)) == [Partition(0, ())]


def test_enumerate_order_is_restricted_growth_lexicographic():
    got = list(enumerate_partitions(3))
    want = [
        P(3, (0, 1, 2)),          # 000
        P(3, (0, 1), (2,)),       # 001
        P(3, (0, 2), (1,)),       # 010
        P(3, (0,), (1, 2)),       # 011
        P(3, (0,), (1,), (2,)),   # 012
    ]
    assert got == want


def test_coarsening_enumeration():
    base = P(4, (0, 1), (2,), (3,))
    got = list(enumerate_partitions(4, at_least=base))
    # oracle: filter the full list for coarsenings of base
    want = [q for q in all_partitions_brute(4) if brute_refines(base, q)]
    assert len(got) == 5  # partitions of the 3 blocks
    assert set(got) == set(want)
    assert bell_number(base.num_blocks) == 5  # coarsenings: partitions of the blocks


def test_meet_examples():
    assert meet(P(3, (0, 1, 2)), P(3, (0, 1), (2,))) == P(3, (0, 1), (2,))
    assert meet_many([P(2, (0, 1)), P(2, (0,), (1,))]) == P(2, (0,), (1,))


def test_join_example_from_union_find_oracle():
    p = P(4, (0, 1), (2, 3))
    q = P(4, (1, 2), (0,), (3,))
    assert brute_join(p, q) == P(4, (0, 1, 2, 3))
    assert join(p, q) == P(4, (0, 1, 2, 3))


def test_join_idempotent():
    for p in all_partitions_brute(4):
        assert join(p, p) == p
        assert meet(p, p) == p


def test_mismatched_ground_sizes_raise():
    with pytest.raises(ValueError):
        join(P(2, (0, 1)), P(3, (0, 1, 2)))
    with pytest.raises(ValueError):
        meet(P(2, (0, 1)), P(3, (0, 1, 2)))


@st.composite
def partitions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = [0]
    for _ in range(n - 1):
        labels.append(draw(st.integers(min_value=0, max_value=max(labels) + 1)))
    return Partition.from_labels(labels)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_laws_random(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    ps = all_partitions_brute(n)
    p = data.draw(st.sampled_from(ps))
    q = data.draw(st.sampled_from(ps))
    r = data.draw(st.sampled_from(ps))
    assert join(p, q) == join(q, p)
    assert meet(p, q) == meet(q, p)
    assert join(p, join(q, r)) == join(join(p, q), r)
    assert meet(p, meet(q, r)) == meet(meet(p, q), r)
    m, j = meet(p, q), join(p, q)
    assert m.refines(p) and m.refines(q)
    assert p.refines(j) and q.refines(j)
    assert join(p, q) == brute_join(p, q)
    assert meet(p, q) == brute_meet(p, q)


def test_lattice_laws_exhaustive_small():
    # all pairs on ground sizes <= 4 against the closure/intersection oracles
    for n in range(1, 5):
        ps = all_partitions_brute(n)
        for p, q in itertools.product(ps, repeat=2):
            assert join(p, q) == brute_join(p, q)
            assert meet(p, q) == brute_meet(p, q)
            assert p.refines(q) == brute_refines(p, q)



@dataclass(frozen=True)
class BlocksPartition:
    """The behaviour `Partition` keeps: a frozen dataclass of its ground
    size and canonical blocks."""

    ground_size: int
    blocks: tuple


def rgs_lists(max_n=6):
    return st.lists(st.integers(0, 3), max_size=max_n)


@given(rgs_lists(), rgs_lists())
def test_repr_equality_and_hash_match_the_dataclass_of_blocks(xs, ys):
    parts = [Partition.of(len(v), fibers(v)) for v in (xs, ys)]
    refs = [BlocksPartition(p.ground_size, tuple(map(tuple, fibers(v)))) for p, v in zip(parts, (xs, ys))]
    for p, ref in zip(parts, refs):
        assert repr(p) == repr(ref).replace("BlocksPartition", "Partition")
        assert p.blocks == ref.blocks and p.num_blocks == len(ref.blocks)
        assert Partition.from_labels(p.labels) == p and hash(Partition.from_labels(p.labels)) == hash(p)
    assert (parts[0] == parts[1]) == (refs[0] == refs[1])
    if parts[0] == parts[1]:
        assert hash(parts[0]) == hash(parts[1])
    assert parts[0] != refs[0] and parts[0] != parts[0].labels


def fibers(labels):
    out = {}
    for i, k in enumerate(labels):
        out.setdefault(k, []).append(i)
    return sorted(out.values())


def test_validating_constructor_raises_its_five_errors():
    cases = [
        ((2, ((0, 1), ())), "empty block"),
        ((2, ((0, 2),)), "element 2 out of range for ground size 2"),
        ((2, ((0, 1), (1,))), "element 1 appears twice"),
        ((3, ((0, 1),)), "blocks do not cover the ground set"),
        ((2, ((1,), (0,))), "blocks not in canonical form; use Partition.of"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            Partition(*args)
        assert str(err.value) == message
    assert Partition(3, ((0, 2), (1,))) == Partition.of(3, [(2, 0), (1,)])


def test_partitions_are_immutable_and_store_their_labels_only():
    p = Partition.of(4, [(0, 2), (1,), (3,)])
    for name in ("labels", "num_blocks", "blocks", "ground_size", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.labels = (0, 0, 0, 0)
    assert not hasattr(p, "__dict__") and set(Partition.__slots__) == {"labels", "num_blocks"}
    held = [x for x in gc.get_referents(p) if isinstance(x, tuple)]
    assert held == [p.labels] == [(0, 1, 0, 2)]
    assert p.blocks == ((0, 2), (1,), (3,)) and p.ground_size == 4 and p.num_blocks == 3
    for q in (Partition.singletons(3), Partition.trivial(3), Partition.trivial(0), Partition.from_labels("abab")):
        assert [x for x in gc.get_referents(q) if isinstance(x, tuple)] == [q.labels]
