"""Set partitions of {0, .., n-1} with lattice operations.

Partitions are stored canonically: blocks sorted by their minimum element,
elements sorted inside each block.  Equality and hashing are structural, so
partitions can key dicts and sets and enumeration order is reproducible.
Each partition also carries its label tuple, the block index of every
element (its restricted-growth string), which the lattice operations read.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


def _canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    # an empty block sorts first, for the constructor to reject
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1]))


def _codes(labels: Iterable) -> tuple[int, ...]:
    """Each label's number in first-occurrence order: a restricted-growth string."""
    seen: dict = {}
    return tuple([seen.setdefault(x, len(seen)) for x in labels])


@dataclass(frozen=True, slots=True)
class Partition:
    """A partition of {0, .., ground_size-1} into disjoint nonempty blocks."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not 0 <= x < self.ground_size:
                    raise ValueError(f"element {x} out of range for ground size {self.ground_size}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != self.ground_size:
            raise ValueError("blocks do not cover the ground set")
        if self.blocks != _canonical(self.blocks):
            raise ValueError("blocks not in canonical form; use Partition.of")
        labels = sorted((x, i) for i, b in enumerate(self.blocks) for x in b)
        object.__setattr__(self, "labels", tuple(i for _, i in labels))

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
        """Partition of {0..len-1} whose blocks are the fibers of `labels`.
        Fibers in first-occurrence order, members ascending, are already
        canonical, so they are not validated again."""
        codes = _codes(labels)
        fibers: list[list[int]] = [[] for _ in range(max(codes, default=-1) + 1)]
        for i, k in enumerate(codes):
            fibers[k].append(i)
        out = object.__new__(Partition)
        object.__setattr__(out, "ground_size", len(codes))
        object.__setattr__(out, "blocks", tuple(map(tuple, fibers)))
        object.__setattr__(out, "labels", codes)
        return out

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self, x: int) -> int:
        return self.labels[x]

    def block_containing(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.labels[x]]

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
    their count, by union-find with path halving."""
    parent = list(range(ground_size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    roots: dict = {}
    return tuple([roots.setdefault(find(i), len(roots)) for i in range(ground_size)]), len(roots)


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
    row = [1]  # the Bell triangle: each row starts with the last entry of the row above
    for _ in range(n):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[0]

