"""Set partitions of {0, .., n-1} with lattice operations.

Partitions are stored canonically: blocks sorted by their minimum element,
elements sorted inside each block.  Equality and hashing are structural, so
partitions can key dicts and sets and enumeration order is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


def _canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


@dataclass(frozen=True)
class Partition:
    """A partition of {0, .., ground_size-1} into disjoint nonempty blocks."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]
    _block_of: dict[int, int] = field(init=False, repr=False, compare=False, hash=False)

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
        self._index()

    def _index(self) -> "Partition":
        object.__setattr__(self, "_block_of", {x: i for i, b in enumerate(self.blocks) for x in b})
        return self

    @staticmethod
    def of(ground_size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        return Partition(ground_size, _canonical(blocks))

    @staticmethod
    def singletons(ground_size: int) -> "Partition":
        return Partition(ground_size, tuple((i,) for i in range(ground_size)))

    @staticmethod
    def trivial(ground_size: int) -> "Partition":
        """The one-block (coarsest) partition; empty for an empty ground set."""
        if ground_size == 0:
            return Partition(0, ())
        return Partition(ground_size, (tuple(range(ground_size)),))

    @staticmethod
    def from_labels(labels: Sequence) -> "Partition":
        """Partition of {0..len-1} whose blocks are the fibers of `labels`.
        Fibers in first-occurrence order, members ascending, are already
        canonical, so they are not validated again."""
        fibers: dict = {}
        for i, lab in enumerate(labels):
            fibers.setdefault(lab, []).append(i)
        out = object.__new__(Partition)
        object.__setattr__(out, "ground_size", len(labels))
        object.__setattr__(out, "blocks", tuple(map(tuple, fibers.values())))
        return out._index()

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self, x: int) -> int:
        return self._block_of[x]

    def block_containing(self, x: int) -> tuple[int, ...]:
        return self.blocks[self._block_of[x]]

    def same_block(self, x: int, y: int) -> bool:
        return self._block_of[x] == self._block_of[y]

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other, i.e. every block of self sits in a block of other."""
        if self.ground_size != other.ground_size:
            raise ValueError("ground size mismatch")
        return all(len({other._block_of[x] for x in b}) == 1 for b in self.blocks)

    def __le__(self, other: "Partition") -> bool:
        return self.refines(other)

    def __ge__(self, other: "Partition") -> bool:
        return other.refines(self)

    def as_sets(self) -> frozenset:
        return frozenset(frozenset(b) for b in self.blocks)


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: blockwise intersections."""
    if p.ground_size != q.ground_size:
        raise ValueError("ground size mismatch")
    return Partition.from_labels([(p.block_index(i), q.block_index(i)) for i in range(p.ground_size)])


def connect(ground_size: int, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Classes of the equivalence on {0, .., ground_size-1} generated by
    identifying each pair: union-find with path halving."""
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
    return Partition.from_labels([find(i) for i in range(ground_size)])


def join(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening: tie each block's members to its first."""
    if p.ground_size != q.ground_size:
        raise ValueError("ground size mismatch")
    return connect(p.ground_size, ((b[0], x) for part in (p, q) for b in part.blocks for x in b[1:]))


def meet_many(parts: Sequence[Partition]) -> Partition:
    if not parts:
        raise ValueError("meet of an empty family")
    out = parts[0]
    for p in parts[1:]:
        out = meet(out, p)
    return out


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
            merged: dict[int, list[int]] = {}
            for bi, gi in enumerate(grouping):
                merged.setdefault(gi, []).extend(at_least.blocks[bi])
            yield Partition.of(ground_size, merged.values())
        return
    for rgs in _restricted_growth(ground_size):
        yield Partition.from_labels(rgs)


def _restricted_growth(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        yield tuple(rgs)
        # advance to the next string
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def count_coarsenings(p: Partition) -> int:
    return bell_number(p.num_blocks)


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def mobius_from_bottom(p: Partition) -> int:
    """Mobius function of the partition lattice between singletons and p."""
    out = 1
    for b in p.blocks:
        k = len(b) - 1
        sign = -1 if k % 2 else 1
        out *= sign * _factorial(k)
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out
