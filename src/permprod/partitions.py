"""Set partitions of {0, .., n-1} with lattice operations.

A partition is stored as its label tuple alone: the block index of every
element, blocks numbered by their smallest element (a restricted-growth
string).  Its canonical blocks, sorted by their minimum element with members
ascending, are derived from it.  Equality and hashing are structural, so
partitions can key dicts and sets and enumeration order is reproducible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, Sequence


def _canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    # an empty block sorts first, for the constructor to reject
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1]))


def _codes(labels: Iterable) -> tuple[int, ...]:
    """Each label's number in first-occurrence order: a restricted-growth string."""
    seen: dict = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


class Partition:
    """A partition of {0, .., ground_size-1} into disjoint nonempty blocks,
    stored as its label tuple alone; the blocks are derived from it.
    Immutable, equal and hashed by its labels."""

    __slots__ = ("labels", "num_blocks")

    def __init__(self, ground_size: int, blocks: tuple[tuple[int, ...], ...]):
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not 0 <= x < ground_size:
                    raise ValueError(f"element {x} out of range for ground size {ground_size}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != ground_size:
            raise ValueError("blocks do not cover the ground set")
        if blocks != _canonical(blocks):
            raise ValueError("blocks not in canonical form; use Partition.of")
        labels = sorted((x, i) for i, b in enumerate(blocks) for x in b)
        _fill(self, tuple(i for _, i in labels), len(blocks))

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.labels == other.labels if other.__class__ is Partition else NotImplemented

    def __hash__(self) -> int:
        return hash(self.labels)

    def __reduce__(self):
        return Partition.from_labels, (self.labels,)

    def __repr__(self) -> str:
        return f"Partition(ground_size={self.ground_size!r}, blocks={self.blocks!r})"

    @staticmethod
    def of(ground_size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return Partition(ground_size, _canonical(blocks))

    @staticmethod
    def singletons(ground_size: int) -> "Partition":
        return Partition(ground_size, tuple((i,) for i in range(ground_size)))

    @staticmethod
    def trivial(ground_size: int) -> "Partition":
        """The one-block (coarsest) partition; empty for an empty ground set."""
        return Partition(ground_size, (tuple(range(ground_size)),) if ground_size else ())

    @staticmethod
    def from_labels(labels: Sequence) -> "Partition":
        """Partition of {0..len-1} whose blocks are the fibers of `labels`;
        their first-occurrence numbering is already canonical, so it is not
        validated again."""
        codes = _codes(labels)
        return _fill(object.__new__(Partition), codes, max(codes, default=-1) + 1)

    @property
    def ground_size(self) -> int:
        return len(self.labels)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks sorted by their minimum element, members ascending."""
        fibers: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, k in enumerate(self.labels):
            fibers[k].append(x)
        return tuple(map(tuple, fibers))

    def block_index(self, x: int) -> int:
        return self.labels[x]

    def same_block(self, x: int, y: int) -> bool:
        return self.labels[x] == self.labels[y]

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other, i.e. every block of self sits in a block of other."""
        if self.ground_size != other.ground_size:
            raise ValueError("ground size mismatch")
        image: dict = {}  # each block of self -> the block of other holding its first element
        return all(image.setdefault(a, b) == b for a, b in zip(self.labels, other.labels))

    def __le__(self, other: "Partition") -> bool:
        return self.refines(other)

    def __ge__(self, other: "Partition") -> bool:
        return other.refines(self)


def _fill(p: Partition, labels: tuple[int, ...], num_blocks: int) -> Partition:
    object.__setattr__(p, "labels", labels)
    object.__setattr__(p, "num_blocks", num_blocks)
    return p


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: blockwise intersections."""
    if p.ground_size != q.ground_size:
        raise ValueError("ground size mismatch")
    return Partition.from_labels(list(zip(p.labels, q.labels)))


def connect(ground_size: int, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Classes of the equivalence on {0, .., ground_size-1} generated by
    identifying each pair."""
    return Partition.from_labels(_classes(ground_size, pairs)[0])


def _classes(ground_size: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """`connect` on plain ints: the classes' restricted-growth string and
    their count, by union-find with path halving (inlined: these graphs
    are small, and a call per find costs more than the find)."""
    parent = list(range(ground_size))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[y] = x
    for i in range(ground_size):  # point every element at its root
        while parent[i] != parent[parent[i]]:
            parent[i] = parent[parent[i]]
    roots: dict = {}
    return tuple([roots.setdefault(r, len(roots)) for r in parent]), len(roots)


def join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening: tie each block's members to its first."""
    if p.ground_size != q.ground_size:
        raise ValueError("ground size mismatch")
    return connect(p.ground_size, ((b[0], x) for part in (p, q) for b in part.blocks for x in b[1:]))


def meet_many(parts: Sequence[Partition]) -> Partition:
    if not parts:
        raise ValueError("meet of an empty family")
    return functools.reduce(meet, parts)


def enumerate_partitions(ground_size: int, at_least: Partition | None = None) -> Iterator[Partition]:
    """Yield every partition of the ground set exactly once.

    With `at_least`, only coarsenings of it are produced (by partitioning its
    block set rather than filtering).  Order is restricted-growth-string
    lexicographic on block representatives.
    """
    if ground_size < 0:
        raise ValueError("negative ground size")
    if at_least is not None:
        if at_least.ground_size != ground_size:
            raise ValueError("ground size mismatch")
        for grouping in _restricted_growth(at_least.num_blocks):
            yield Partition.from_labels([grouping[k] for k in at_least.labels])
        return
    for rgs in _restricted_growth(ground_size):
        yield Partition.from_labels(rgs)


def _restricted_growth(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order."""

    def extend(prefix: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for k in range(top + 2):  # any block opened so far, or a new one
            yield from extend(prefix + (k,), max(top, k))

    return extend((), -1)


def bell_number(n: int) -> int:
    return next(itertools.islice(_bell_numbers(), n, None))


def bell_exceeds(n: int, bound: int) -> bool:
    """Whether Bell(n) > bound; Bell numbers never fall, so none past the bound is formed."""
    return any(b > bound for _, b in zip(range(n + 1), _bell_numbers()))


def _bell_numbers() -> Iterator[int]:
    row = [1]  # the Bell triangle: each row starts with the last entry of the row above
    while True:
        yield row[0]
        row = list(itertools.accumulate(row, initial=row[-1]))
