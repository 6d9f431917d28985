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
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .strings import ColorGraph, StringAssignment, validate_assignment
from .tensor import (
    POINT_GUARD,
    GuardExceeded,
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    compose_images,
    lift_permutation,
    sample_color_permutations,
)

TABLE_GUARD = 2**27  # order**3 products compared by a group table's associativity check
WORD_GUARD = 2**17  # words one sofic-certify call certifies (a reduction, an entry and a JSON record each)
LETTER_GUARD = 2**24  # full-space points (8 bytes each): a product's signed letters, and a word's letters
COMPARE_POINTS = 2**20  # image points that `certify` compares against one head at once


def _check_order(n: int) -> None:
    if n**3 > TABLE_GUARD:
        raise GuardExceeded(f"associativity check of {n}**3 products exceeds table guard {TABLE_GUARD}")


@dataclass(frozen=True)
class FiniteGroupTable:
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        _check_order(n)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table is not n by n")
        # Latin rows: every element has a right inverse
        if any(sorted(r) != list(range(n)) for r in self.table):
            raise ValueError("a row is not a permutation of the elements")
        t, elements = np.array(self.table, dtype=np.int64).reshape(n, n), np.arange(n)
        if not (np.sort(t, axis=0) == elements[:, None]).all():
            raise ValueError("a column is not a permutation of the elements")
        e = self.identity
        if not ((t[e] == elements).all() and (t[:, e] == elements).all()):
            raise ValueError("identity element does not act trivially")
        for a in range(n):  # (ab)c against a(bc), one row of (b, c) at a time
            if not np.array_equal(t[t[a]], t[a][t]):
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
        _check_order(n)  # before the n**2 table is built
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

    def __post_init__(self):
        for p in self.gens:
            if p.n != self.n:
                raise ValueError("generator size mismatch")

    @property
    def dim(self) -> int:
        return self.n

    def images(self, j: int) -> np.ndarray:
        """Image array of generator j, or of the inverse of generator -j."""
        if j == 0 or abs(j) > len(self.gens):
            raise ValueError(f"no generator {j}")
        p = self.gens[abs(j) - 1]
        return p.images if j > 0 else p.inverse().images

    def word_permutation(self, word: Sequence[int]) -> Permutation:
        return compose_images(map(self.images, word), self.n)

    def word_trace(self, word: Sequence[int]) -> Fraction:
        return Fraction(self.word_permutation(word).fixed_points(), self.n)


def left_regular_rep(g: FiniteGroupTable) -> GeneratorRep:
    """Left multiplication by each generator; word traces match triviality
    exactly at size equal to the group order."""
    gens = tuple(Permutation(g.table[x]) for x in g.generators)  # row x: y -> x*y
    return GeneratorRep(g.order, gens)


def cyclic_shift_rep(n: int) -> GeneratorRep:
    """The full cycle on n points: exact for integer words shorter than n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return GeneratorRep(n, (Permutation((np.arange(n) + 1) % n),))


def pad_rep(rep: GeneratorRep, target_n: int) -> GeneratorRep:
    """Block-diagonal copies plus an identity remainder: q = target // n full
    copies, r = target % n fixed points; a word's trace moves by at most r/target."""
    if target_n < rep.n:
        raise ValueError("target size smaller than representation")
    q = target_n // rep.n
    offsets = rep.n * np.arange(q)[:, None]
    rest = np.arange(q * rep.n, target_n)
    gens = tuple(Permutation(np.concatenate([(offsets + p.images).ravel(), rest])) for p in rep.gens)
    return GeneratorRep(target_n, gens)


def hamming_distance(p: Permutation, q: Permutation) -> Fraction:
    """Fraction of points where the permutations disagree; equal by exact
    arithmetic to one minus the fixed-point fraction of p^-1 q."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    d = Fraction(int(np.count_nonzero(p.images != q.images)), p.n)
    via_trace = 1 - Fraction(p.inverse().compose(q).fixed_points(), p.n)
    if d != via_trace:
        raise AssertionError(f"Hamming distance {d} disagrees with the trace identity {via_trace}")
    return d


@dataclass(frozen=True, eq=False)  # equal only to itself: its letters are numpy arrays
class GraphProductRep:
    """Generators for the product over a color graph as the full-space image
    array of each signed letter (color, j): the color's generator conjugated
    by the color's block permutation, acting on the color's strings only."""

    assignment: StringAssignment
    n: int
    letters: dict  # (color, signed 1-based index) -> full-space image array

    @property
    def space(self) -> MultiIndexSpace:
        return MultiIndexSpace.of(self.assignment.strings, self.n)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def images(self, letter: tuple[str, int]) -> np.ndarray:
        """Full-space image array of a signed letter (color, j)."""
        c, j = letter
        if (c, j) not in self.letters:
            raise ValueError(f"no generator {j} for color {c!r}")
        return self.letters[(c, j)]

    def word_trace(self, word: Sequence[tuple[str, int]]) -> Fraction:
        return certify(self, [(word, True)]).entries[0].trace

    def word_permutation(self, word: Sequence[tuple[str, int]]) -> Permutation:
        """Materialized full-space permutation of a word, from the letter
        image arrays."""
        return compose_images(map(self.images, word), self.dim)


def check_product_space(assignment: StringAssignment, n: int, letters: int) -> int:
    """The full-space dimension of a product.  Refuse one with more than
    POINT_GUARD points, or whose `letters` signed letters have more than
    LETTER_GUARD points in all, before any block is drawn."""
    dim = MultiIndexSpace.of(assignment.strings, n).total_dim
    if dim > POINT_GUARD:
        raise GuardExceeded(f"full-space dimension {dim} exceeds point guard {POINT_GUARD}")
    if letters * dim > LETTER_GUARD:
        raise GuardExceeded(f"{letters} signed letters of {dim} points exceed the letter guard {LETTER_GUARD} points")
    return dim


def graph_product_rep(
    g: ColorGraph,
    assignment: StringAssignment,
    vertex_reps: dict[str, GeneratorRep],
    n: int,
    seed: int,
) -> GraphProductRep:
    """Draw one uniform permutation per color block, conjugate every vertex
    generator by it and lift each signed letter to the full space once.
    Each vertex representation must already have size equal to the color's
    block dimension (pad first)."""
    ok, violations = validate_assignment(g, assignment)
    if not ok:
        raise ValueError(f"invalid assignment: {violations}")
    check_product_space(assignment, n, 2 * sum(len(vertex_reps[c].gens) for c in g.colors))
    space = MultiIndexSpace.of(assignment.strings, n)
    letters = {}
    for c, sigma in sample_color_permutations(assignment, g.colors, n, seed).items():
        rep, sup = vertex_reps[c], assignment.sorted_strings_of(c)
        if rep.n != sigma.n:
            raise ValueError(f"representation for color {c!r} has size {rep.n}, block needs {sigma.n}")
        for j, p in enumerate(rep.gens, start=1):
            lifted = lift_permutation(StructuredMatrix.from_permutation(sup, n, p.conjugate(sigma)), space)
            letters[(c, j)], letters[(c, -j)] = lifted.images, lifted.inverse().images
    return GraphProductRep(assignment, n, letters)


# ---------------------------------------------------------------------------
# the word problem for products over a color graph

INTEGERS = "Z"  # marker for an infinite cyclic vertex group


def _is_identity(group, payload) -> bool:
    if group is INTEGERS:
        return payload == 0
    return payload == group.identity


def _mul(group, a, b):
    if group is INTEGERS:
        return a + b
    return group.mul(a, b)


def _check_letter(g: ColorGraph, vertex_groups: dict, letter) -> None:
    c, payload = letter
    if c not in g.colors:
        raise ValueError(f"unknown color {c!r}")
    group = vertex_groups[c]
    if group is not INTEGERS and not 0 <= payload < group.order:
        raise ValueError(f"letter {payload!r} not in the group for color {c!r}")


def _append_letter(g: ColorGraph, vertex_groups: dict, reduced: list, letter) -> list:
    """Append a checked (color, element) letter to a reduced word, in place.

    The letter moves back past the letters whose colors are adjacent to its
    own and merges into the first letter of its color it meets; a product
    that is the identity drops that letter.  Every letter after the dropped
    one is adjacent to its color, so it blocked no merge and the word stays
    reduced."""
    c, x = letter
    group = vertex_groups[c]
    if _is_identity(group, x):
        return reduced
    for i in range(len(reduced) - 1, -1, -1):
        ci, xi = reduced[i]
        if ci == c:
            merged = _mul(group, xi, x)
            if _is_identity(group, merged):
                del reduced[i]
            else:
                reduced[i] = (c, merged)
            return reduced
        if not g.adjacent(ci, c):
            break
    reduced.append(letter)
    return reduced


def reduce_word(
    g: ColorGraph, vertex_groups: dict, word: Sequence[tuple[str, object]]
) -> list[tuple[str, object]]:
    """Reduce a word of (color, element) letters: drop identity letters and
    merge same-color letters whenever everything between them commutes past.
    The result is reduced for the color graph; reduction preserves the group
    element."""
    reduced: list = []
    for letter in word:
        _check_letter(g, vertex_groups, letter)
        _append_letter(g, vertex_groups, reduced, letter)
    return reduced


def word_triviality(g: ColorGraph, vertex_groups: dict, word: Sequence[tuple[str, object]]) -> bool:
    """True iff the word represents the identity of the product group: its
    reduced form is empty."""
    return not reduce_word(g, vertex_groups, word)


def word_trivialities(g: ColorGraph, vertex_groups: dict, words: Iterable[Sequence], element: dict) -> list[bool]:
    """`word_triviality` of each word, with `element` mapping each letter to
    its (color, group element) letter.  The alphabet's letters are checked
    once.  Each distinct word is reduced once, and a word whose head (the
    word without its last letter) came before appends its last letter to the
    head's reduced form: reduction keeps the group element, and a reduced
    word is trivial exactly when it is empty.  The reduced forms live for
    this call, so every word in product order appends one letter to a known
    head."""
    for letter in element.values():
        _check_letter(g, vertex_groups, letter)
    reduced: dict[tuple, list] = {(): []}
    out = []
    for word in map(tuple, words):
        if word not in reduced:
            head = reduced.get(word[:-1])
            if head is None:
                head = reduce_word(g, vertex_groups, [element[x] for x in word[:-1]])
            reduced[word] = _append_letter(g, vertex_groups, head.copy(), element[word[-1]])
        out.append(not reduced[word])
    return out


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
        # entries sharing a deviation object (`certify` gives one per count and truth) are compared once
        return max({id(e.deviation): e.deviation for e in self.entries}.values(), default=Fraction(0))

    def json_rows(self) -> Iterator[str]:
        """Each entry's text as an item of the "words" list of the document
        `sofic-certify` writes with json's `indent=2, sort_keys=True` (items
        at depth 2), in entry order: what json writes for {"deviation",
        "trace": {"num", "den"}, "trivial", "word"}, with the word a list of
        letters.  Each letter's text and each distinct head before the word
        are rendered once per call."""
        letters: dict = {}  # letter -> its text as a word's item
        heads: dict = {}  # the ids of an entry's truth, trace and deviation -> its text up to the word
        for e in self.entries:
            key = (e.trivial, id(e.trace), id(e.deviation))  # the entries keep both objects alive
            if key not in heads:
                trace = {"num": e.trace.numerator, "den": e.trace.denominator}
                fields = {"deviation": float(e.deviation), "trace": trace, "trivial": e.trivial, "word": []}
                heads[key] = _json_at(fields, 2).removesuffix("[]\n    }")
            word = "".join([letters.get(l) or letters.setdefault(l, ",\n        " + _json_at(l, 4)) for l in e.word])
            yield heads[key] + (f"[{word[1:]}\n      ]" if word else "[]") + "\n    }"

    def csv_lines(self) -> list[str]:
        lines = ["word,truth,trace_num,trace_den,deviation"]
        names: dict = {}  # letter -> its text
        tails: dict = {}  # the ids of an entry's truth, trace and deviation -> the rest of its line
        for e in self.entries:
            word = " ".join([names.get(l) or names.setdefault(l, _letter_str(l)) for l in e.word])
            key = (e.trivial, id(e.trace), id(e.deviation))  # the entries keep both objects alive
            if key not in tails:
                tails[key] = f"{int(e.trivial)},{e.trace.numerator},{e.trace.denominator},{float(e.deviation):.12e}"
            lines.append(f"{word},{tails[key]}")
        return lines


def _json_at(value, depth: int) -> str:
    """json's indent=2 text of `value` as an item at `depth`: json writes a
    newline only between items, never inside a string."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _letter_str(letter) -> str:
    if isinstance(letter, tuple):
        return f"{letter[0]}^{letter[1]}"
    return str(letter)


def certify(rep, words_with_truth: Iterable[tuple[Sequence, bool]]) -> SoficCertificate:
    """Exact trace and deviation from the trivial-word indicator, per word.

    `rep` supplies `dim` and `images(letter)`, the image array of a
    signed letter (a hashable letter: a signed index, or a (color, signed
    index) tuple).  The last letter Z of a word is never composed: the word
    Q Z fixes b exactly when Q(b) = Z^-1(b).  So each run of consecutive words
    with one head Q (the word without its last letter) takes Q's image array
    once and counts every word of the run in one comparison against the
    stacked Z^-1 image arrays of the run's distinct last letters.  The latest
    stack is kept, so words in product order stack the alphabet once.  A stack
    holds the image arrays of the current head's prefixes, so a head shares
    the work of its common prefix with the head before it.  Words in any
    order give the same traces (sorted lists share the most), and a word may
    repeat or be empty (trace 1).  Memory in 8-byte points: `rep`'s letter
    table (signed letters * dim, at most LETTER_GUARD for a product), the
    longest word's length * dim for the stack of head prefixes (at most
    LETTER_GUARD in `sofic-certify`), and
    max(COMPARE_POINTS, dim) for the stacked last letters; plus an entry per
    word, which `sofic-certify` counts against WORD_GUARD before it
    enumerates any.
    """
    dim = rep.dim
    prefix: list = []  # letters whose product is stacked
    stack = [np.arange(dim, dtype=np.int64)]  # stack[t]: images of prefix[:t]
    rows = max(1, COMPARE_POINTS // dim)  # last letters compared at once
    stacked_key, stacked = None, None  # the latest last letters and their inverses' image arrays
    pairs: dict = {}  # (fixed points, trivial) -> (trace, deviation)
    entries = []
    items = ((tuple(w), bool(t)) for w, t in words_with_truth)
    for head, run in itertools.groupby(items, key=lambda item: item[0][:-1] if item[0] else None):
        run = list(run)
        fixed = {}
        if head is not None:
            keep = 0
            while keep < min(len(prefix), len(head)) and prefix[keep] == head[keep]:
                keep += 1
            del prefix[keep:], stack[keep + 1 :]
            for letter in head[keep:]:
                stack.append(stack[-1][rep.images(letter)])
                prefix.append(letter)
            last = list(dict.fromkeys(word[-1] for word, _ in run))
            for i in range(0, len(last), rows):
                key = tuple(last[i : i + rows])
                if key != stacked_key:
                    stacked_key, stacked = key, np.stack([rep.images(_inverse_letter(z)) for z in key])
                fixed.update(zip(key, np.count_nonzero(stacked == stack[-1], axis=1).tolist()))
        for word, trivial in run:
            count = fixed[word[-1]] if word else dim
            if (count, trivial) not in pairs:
                trace = Fraction(count, dim)
                if not 0 <= trace <= 1:
                    raise AssertionError("trace outside [0, 1]")
                pairs[(count, trivial)] = (trace, abs(trace - trivial))
            entries.append(CertificateEntry(word, trivial, *pairs[(count, trivial)]))
    return SoficCertificate(tuple(entries))


def _inverse_letter(letter):
    if isinstance(letter, (tuple, list)):
        return (letter[0], -letter[1])
    return -letter
