"""Colors, strings, and the incidence relation wiring them together.

A color graph is a simple undirected graph on color ids.  A string
assignment gives every color a nonempty set of strings (tensor factor
labels); it is valid for a color graph when two distinct colors share a
string exactly if they are non-adjacent.  The builder returns the canonical
assignment (one string per non-edge, plus a private string for colors
adjacent to everything), but all downstream code accepts any valid one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ColorGraph:
    colors: tuple[str, ...]
    edges: frozenset[frozenset]
    _pairs: frozenset = field(init=False, repr=False, compare=False, hash=False)  # (a, b) with {a, b} an edge

    def __post_init__(self):
        pairs = frozenset((a, b) for e in self.edges for a in e for b in e if frozenset((a, b)) == e)
        object.__setattr__(self, "_pairs", pairs)

    @staticmethod
    def of(colors: Iterable[str], edges: Iterable[Sequence[str]]) -> "ColorGraph":
        colors = tuple(colors)
        cset = set(colors)
        if len(cset) != len(colors):
            raise ValueError("duplicate color ids")
        out = set()
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop on color {a!r}")
            if a not in cset or b not in cset:
                raise ValueError(f"edge {a!r}-{b!r} uses unknown color")
            out.add(frozenset((a, b)))
        return ColorGraph(colors, frozenset(out))

    def adjacent(self, a: str, b: str) -> bool:
        return (a, b) in self._pairs

    def non_edges(self) -> list[tuple[str, str]]:
        out = []
        for i, a in enumerate(self.colors):
            for b in self.colors[i + 1 :]:
                if not self.adjacent(a, b):
                    out.append((a, b))
        return out


@dataclass(frozen=True)
class StringAssignment:
    strings: tuple[str, ...]
    incidence: frozenset[tuple[str, str]]  # (string, color) pairs
    _strings_of: dict = field(init=False, repr=False, compare=False, hash=False)
    _colors_of: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        by_color: dict[str, set[str]] = {}
        by_string: dict[str, set[str]] = {s: set() for s in self.strings}
        for s, c in self.incidence:
            if s not in by_string:
                raise ValueError(f"incidence uses unknown string {s!r}")
            by_string[s].add(c)
            by_color.setdefault(c, set()).add(s)
        object.__setattr__(self, "_strings_of", {c: frozenset(v) for c, v in by_color.items()})
        object.__setattr__(self, "_colors_of", {s: frozenset(v) for s, v in by_string.items()})

    @staticmethod
    def of(strings: Iterable[str], incidence: Iterable[Sequence[str]]) -> "StringAssignment":
        return StringAssignment(tuple(strings), frozenset((s, c) for s, c in incidence))

    def strings_of(self, color: str) -> frozenset[str]:
        return self._strings_of.get(color, frozenset())

    def colors_of(self, string: str) -> frozenset[str]:
        return self._colors_of.get(string, frozenset())

    def sorted_strings(self) -> tuple[str, ...]:
        return tuple(sorted(self.strings))

    def sorted_strings_of(self, color: str) -> tuple[str, ...]:
        return tuple(sorted(self.strings_of(color)))


def build_string_assignment(g: ColorGraph) -> StringAssignment:
    """Canonical valid assignment: one shared string per non-adjacent color
    pair (named by the sorted pair), plus a private string for any color
    adjacent to every other color."""
    strings: list[str] = []
    incidence: list[tuple[str, str]] = []
    covered: set[str] = set()
    for a, b in g.non_edges():
        a2, b2 = sorted((a, b))
        sid = f"{a2}-{b2}"
        strings.append(sid)
        incidence.append((sid, a2))
        incidence.append((sid, b2))
        covered.add(a2)
        covered.add(b2)
    for c in g.colors:
        if c not in covered:
            strings.append(c)
            incidence.append((c, c))
    built = StringAssignment.of(strings, incidence)
    ok, violations = validate_assignment(g, built)
    if not ok:  # cannot happen; certifies the construction on every call
        raise AssertionError(f"constructed assignment invalid: {violations}")
    return built


def validate_assignment(g: ColorGraph, a: StringAssignment) -> tuple[bool, list[str]]:
    """Check the share-a-string-iff-non-adjacent law and nonemptiness.

    Returns (ok, violations); each violation names the offending color or pair.
    """
    for s, c in a.incidence:
        if c not in g.colors:
            raise ValueError(f"assignment references color {c!r} unknown to the graph")
    violations = []
    for c in g.colors:
        if not a.strings_of(c):
            violations.append(f"color {c!r} has no strings")
    for i, c in enumerate(g.colors):
        for d in g.colors[i + 1 :]:
            shared = a.strings_of(c) & a.strings_of(d)
            if g.adjacent(c, d) and shared:
                violations.append(f"adjacent pair ({c!r},{d!r}) shares strings {sorted(shared)}")
            if not g.adjacent(c, d) and not shared:
                violations.append(f"non-adjacent pair ({c!r},{d!r}) shares no string")
    return (not violations, violations)


@dataclass(frozen=True)
class ColorWord:
    """A sequence of colors, optionally with per-letter multiplicities."""

    coloring: tuple[str, ...]
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.multiplicities is not None:
            if len(self.multiplicities) != len(self.coloring):
                raise ValueError("multiplicities length mismatch")
            if any(m < 1 for m in self.multiplicities):
                raise ValueError("multiplicities must be >= 1")

    def __len__(self) -> int:
        return len(self.coloring)


def is_g_reduced(w: ColorWord | Sequence[str], g: ColorGraph) -> bool:
    """A word is reduced when any two equal letters are separated by a letter
    whose color is not adjacent to theirs (equal colors count, the graph being
    simple)."""
    chi = w.coloring if isinstance(w, ColorWord) else tuple(w)
    for c in chi:
        if c not in g.colors:
            raise ValueError(f"unknown color {c!r}")
    for i in range(len(chi)):
        for j in range(i + 1, len(chi)):
            if chi[i] != chi[j]:
                continue
            if not any(not g.adjacent(chi[i], chi[l]) for l in range(i + 1, j)):
                return False
    return True
