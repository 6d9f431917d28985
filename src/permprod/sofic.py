"""Permutation approximations of groups and their certification.

A finite group given by its multiplication table acts on itself by left
multiplication, which gives word traces matching the trivial-word indicator
exactly.  Block padding stretches a representation to any larger size at a
trace cost of at most the remainder fraction.  Conjugating each color's
generators by an independent uniform permutation of that color's string
block assembles generators for the product over a color graph: adjacent
colors commute exactly because their blocks are disjoint, and word traces
are exact fixed-point counts throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .strings import ColorGraph, StringAssignment, validate_assignment
from .tensor import (
    ColorPermutationFactor,
    MultiIndexSpace,
    Permutation,
    permutation_images,
    rng_stream,
    sample_uniform_permutation,
)


@dataclass(frozen=True)
class FiniteGroupTable:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table is not n by n")
        for r in self.table:
            if sorted(r) != list(range(n)):
                raise ValueError("a row is not a permutation of the elements")
        for c in range(n):
            if sorted(self.table[r][c] for r in range(n)) != list(range(n)):
                raise ValueError("a column is not a permutation of the elements")
        e = self.identity
        if any(self.table[e][x] != x or self.table[x][e] != x for x in range(n)):
            raise ValueError("identity element does not act trivially")
        for x in range(n):
            if all(self.table[x][y] != e for y in range(n)):
                raise ValueError(f"element {x} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication is not associative")
        for g in self.generators:
            if not 0 <= g < n:
                raise ValueError("generator index out of range")

    @staticmethod
    def of(table: Sequence[Sequence[int]], generators: Iterable[int]) -> "FiniteGroupTable":
        table = tuple(tuple(r) for r in table)
        n = len(table)
        identity = next((e for e in range(n) if all(table[e][x] == x for x in range(n))), None)
        if identity is None:
            raise ValueError("table has no identity element")
        return FiniteGroupTable(n, table, identity, tuple(generators))

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroupTable.of(table, (1 % n,))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return next(b for b in range(self.order) if self.table[a][b] == self.identity)

    def generator(self, j: int) -> int:
        """Generator by signed 1-based position; negative means inverse."""
        if j == 0 or abs(j) > len(self.generators):
            raise ValueError(f"no generator {j}")
        g = self.generators[abs(j) - 1]
        return g if j > 0 else self.inverse(g)

    def word_element(self, word: Sequence[int]) -> int:
        out = self.identity
        for j in word:
            out = self.mul(out, self.generator(j))
        return out

    def word_is_trivial(self, word: Sequence[int]) -> bool:
        return self.word_element(word) == self.identity


@dataclass(frozen=True)
class GeneratorRep:
    """Permutations standing in for a generating set; inverses are derived."""

    n: int
    gens: tuple[Permutation, ...]
    provenance: str
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for p in self.gens:
            if p.n != self.n:
                raise ValueError("generator size mismatch")

    @property
    def dim(self) -> int:
        return self.n

    def images(self, j: int) -> np.ndarray:
        """Image array of a signed letter, computed once."""
        if j not in self._images:
            if j < 0:
                self._images[j] = _inverse_images(self.images(-j))
            else:
                self._images[j] = _frozen(np.asarray(self.letter(j).images, dtype=np.int64))
        return self._images[j]

    def letter(self, j: int) -> Permutation:
        if j == 0 or abs(j) > len(self.gens):
            raise ValueError(f"no generator {j}")
        p = self.gens[abs(j) - 1]
        return p if j > 0 else p.inverse()

    def word_permutation(self, word: Sequence[int]) -> Permutation:
        out = Permutation.identity(self.n)
        for j in word:
            out = out.compose(self.letter(j))
        return out

    def word_trace(self, word: Sequence[int]) -> Fraction:
        return Fraction(self.word_permutation(word).fixed_points(), self.n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _inverse_images(images: np.ndarray) -> np.ndarray:
    inv = np.empty_like(images)
    inv[images] = np.arange(len(images), dtype=images.dtype)
    return _frozen(inv)


def left_regular_rep(g: FiniteGroupTable) -> GeneratorRep:
    """Left multiplication by each generator; word traces match triviality
    exactly at size equal to the group order."""
    gens = tuple(
        Permutation(tuple(g.mul(g.generators[i], x) for x in range(g.order)))
        for i in range(len(g.generators))
    )
    return GeneratorRep(g.order, gens, "left-regular")


def cyclic_shift_rep(n: int) -> GeneratorRep:
    """The full cycle on n points: exact for integer words shorter than n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return GeneratorRep(n, (Permutation(tuple((i + 1) % n for i in range(n))),), "cyclic-shift")


def pad_rep(rep: GeneratorRep, target_n: int) -> GeneratorRep:
    """Block-diagonal copies plus an identity remainder: q = target // n full
    copies, r = target % n fixed points; a word's trace moves by at most r/target."""
    if target_n < rep.n:
        raise ValueError("target size smaller than representation")
    q, r = divmod(target_n, rep.n)
    gens = []
    for p in rep.gens:
        images = []
        for b in range(q):
            off = b * rep.n
            images.extend(off + img for img in p.images)
        images.extend(range(q * rep.n, target_n))
        gens.append(Permutation(tuple(images)))
    return GeneratorRep(target_n, tuple(gens), "padded")


def hamming_distance(p: Permutation, q: Permutation) -> Fraction:
    """Fraction of points where the permutations disagree; equal by exact
    arithmetic to one minus the fixed-point fraction of p^-1 q."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    mismatches = sum(1 for i in range(p.n) if p(i) != q(i))
    d = Fraction(mismatches, p.n)
    via_trace = 1 - Fraction(p.inverse().compose(q).fixed_points(), p.n)
    if d != via_trace:
        raise AssertionError(f"Hamming distance {d} disagrees with the trace identity {via_trace}")
    return d


@dataclass(frozen=True)
class GraphProductRep:
    """Generators for the product over a color graph: each color's generators
    conjugated by that color's block permutation, acting on the color's
    string coordinates only."""

    assignment: StringAssignment
    n: int
    colors: tuple[str, ...]
    factors: dict  # (color, 1-based index) -> Permutation on the color block
    provenance: str
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def space(self) -> MultiIndexSpace:
        return MultiIndexSpace.of(self.assignment.strings, self.n)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def images(self, letter: tuple[str, int]) -> np.ndarray:
        """Full-space image array of a signed letter (color, j), computed
        once; a negative letter's is the inverse of the positive one's."""
        c, j = letter
        if (c, j) not in self._images:
            if (c, abs(j)) not in self.factors:
                raise ValueError(f"no generator {j} for color {c!r}")
            if j < 0:
                self._images[(c, j)] = _inverse_images(self.images((c, -j)))
            else:
                sup = self.assignment.sorted_strings_of(c)
                self._images[(c, j)] = _frozen(permutation_images(self.factors[(c, j)].images, sup, self.space))
        return self._images[(c, j)]

    def letter(self, color: str, j: int) -> ColorPermutationFactor:
        if (color, abs(j)) not in self.factors:
            raise ValueError(f"no generator {j} for color {color!r}")
        p = self.factors[(color, abs(j))]
        if j < 0:
            p = p.inverse()
        return ColorPermutationFactor(color, self.assignment.sorted_strings_of(color), p)

    def word_trace(self, word: Sequence[tuple[str, int]]) -> Fraction:
        return certify(self, [(word, True)]).entries[0].trace

    def word_permutation(self, word: Sequence[tuple[str, int]]) -> Permutation:
        """Materialized full-space permutation of a word (small spaces only)."""
        from .tensor import lift_permutation, StructuredMatrix

        out = Permutation.identity(self.space.total_dim)
        for c, j in word:
            f = self.letter(c, j)
            sm = StructuredMatrix.from_permutation(f.support, self.n, f.perm)
            out = out.compose(lift_permutation(sm, self.space))
        return out


def graph_product_rep(
    g: ColorGraph,
    assignment: StringAssignment,
    vertex_reps: dict[str, GeneratorRep],
    n: int,
    seed: int,
) -> GraphProductRep:
    """Draw one uniform permutation per color block and conjugate every
    vertex generator by it.  Each vertex representation must already have
    size equal to the color's block dimension (pad first)."""
    ok, violations = validate_assignment(g, assignment)
    if not ok:
        raise ValueError(f"invalid assignment: {violations}")
    factors = {}
    for ci, c in enumerate(sorted(g.colors)):
        rep = vertex_reps[c]
        dim = n ** len(assignment.strings_of(c))
        if rep.n != dim:
            raise ValueError(
                f"representation for color {c!r} has size {rep.n}, block needs {dim}"
            )
        sigma = sample_uniform_permutation(dim, rng_stream(seed, ci))
        sigma_inv = sigma.inverse()
        for idx, p in enumerate(rep.gens, start=1):
            factors[(c, idx)] = sigma_inv.compose(p).compose(sigma)
    return GraphProductRep(assignment, n, tuple(sorted(g.colors)), factors, "graph-product")


# ---------------------------------------------------------------------------
# the word problem for products over a color graph

INTEGERS = "Z"  # marker for an infinite cyclic vertex group


def _is_identity(group, payload) -> bool:
    if group == INTEGERS:
        return payload == 0
    return payload == group.identity


def _mul(group, a, b):
    if group == INTEGERS:
        return a + b
    return group.mul(a, b)


def reduce_word(
    g: ColorGraph, vertex_groups: dict, word: Sequence[tuple[str, object]]
) -> list[tuple[str, object]]:
    """Reduce a word of (color, element) letters: drop identity letters and
    merge same-color letters whenever everything between them commutes past.
    The result is reduced for the color graph; reduction preserves the group
    element."""
    letters = list(word)
    for c, payload in letters:
        if c not in g.colors:
            raise ValueError(f"unknown color {c!r}")
        group = vertex_groups[c]
        if group != INTEGERS and not 0 <= payload < group.order:
            raise ValueError(f"letter {payload!r} not in the group for color {c!r}")
    changed = True
    while changed:
        changed = False
        pruned = [(c, p) for c, p in letters if not _is_identity(vertex_groups[c], p)]
        if len(pruned) != len(letters):
            letters = pruned
            changed = True
            continue
        for i in range(len(letters)):
            ci = letters[i][0]
            for j in range(i + 1, len(letters)):
                cj = letters[j][0]
                if cj == ci:
                    if all(g.adjacent(ci, letters[l][0]) for l in range(i + 1, j)):
                        merged = _mul(vertex_groups[ci], letters[i][1], letters[j][1])
                        letters = letters[:i] + [(ci, merged)] + letters[i + 1 : j] + letters[j + 1 :]
                        changed = True
                    break
                if not g.adjacent(ci, cj):
                    break
            if changed:
                break
    return letters


def word_triviality(g: ColorGraph, vertex_groups: dict, word: Sequence[tuple[str, object]]) -> bool:
    """True iff the word represents the identity of the product group: its
    reduced form is empty."""
    return not reduce_word(g, vertex_groups, word)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertificateEntry:
    word: tuple
    trivial: bool
    trace: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class SoficCertificate:
    entries: tuple[CertificateEntry, ...]

    @property
    def max_deviation(self) -> Fraction:
        return max((e.deviation for e in self.entries), default=Fraction(0))

    def csv_lines(self) -> list[str]:
        lines = ["word,truth,trace_num,trace_den,deviation"]
        for e in self.entries:
            word = " ".join(_letter_str(l) for l in e.word)
            lines.append(
                f"{word},{int(e.trivial)},{e.trace.numerator},{e.trace.denominator},{float(e.deviation):.12e}"
            )
        return lines


def _letter_str(letter) -> str:
    if isinstance(letter, tuple):
        return f"{letter[0]}^{letter[1]}"
    return str(letter)


def certify(rep, words_with_truth: Sequence[tuple[Sequence, bool]]) -> SoficCertificate:
    """Exact trace and deviation from the trivial-word indicator, per word.

    `rep` supplies `dim` and `images(letter)`, the cached image array of a
    signed letter.  A stack holds the image arrays of the current word's
    prefixes, so a word shares the work of its common prefix with the word
    before it (words in any order give the same traces; sorted lists share
    the most).  The last letter Z is never composed: the word Q Z fixes b
    exactly when Q(b) = Z^-1(b), so its trace is one comparison against
    Z^-1's image array.  Memory O(max word length * dim).
    """
    dim = rep.dim
    prefix: list = []  # letters whose product is stacked
    stack = [np.arange(dim, dtype=np.int64)]  # stack[t]: images of prefix[:t]
    entries = []
    for word, trivial in words_with_truth:
        word = tuple(word)
        if word:
            head = word[:-1]
            keep = 0
            while keep < min(len(prefix), len(head)) and prefix[keep] == head[keep]:
                keep += 1
            del prefix[keep:], stack[keep + 1 :]
            for letter in head[keep:]:
                stack.append(stack[-1][rep.images(letter)])
                prefix.append(letter)
            fixed = int(np.count_nonzero(stack[-1] == rep.images(_inverse_letter(word[-1]))))
        else:
            fixed = dim
        trace = Fraction(fixed, dim)
        if not 0 <= trace <= 1:
            raise AssertionError("trace outside [0, 1]")
        deviation = abs(trace - (1 if trivial else 0))
        entries.append(CertificateEntry(word, bool(trivial), trace, deviation))
    return SoficCertificate(tuple(entries))


def _inverse_letter(letter):
    if isinstance(letter, (tuple, list)):
        return (letter[0], -letter[1])
    return -letter


def all_signed_words(num_generators: int, max_length: int) -> list[tuple[int, ...]]:
    """Every nonempty word over the signed generator alphabet up to a length."""
    alphabet = [j for j in range(1, num_generators + 1)] + [-j for j in range(1, num_generators + 1)]
    out = []
    for m in range(1, max_length + 1):
        out.extend(itertools.product(alphabet, repeat=m))
    return out
