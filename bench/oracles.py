"""Reference computations the benchmark checks results against.

Nothing here imports permprod: the counts and values are worked out from
the generated inputs by a different route (union-find components,
delete-one-edge connectivity, Bell numbers, permutations chased point by
point), so a check never compares the code under test with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# the three-color wiring of the bundled fixture: B-R adjacent, G free of both
THREE_COLOR_MODEL = {
    "colors": ["B", "G", "R"],
    "edges": [["B", "R"]],
    "strings": ["1", "2", "3"],
    "incidence": [["1", "B"], ["2", "B"], ["2", "G"], ["3", "G"], ["3", "R"]],
}


def strings_of(model: dict) -> dict[str, list[str]]:
    """Color -> its strings, sorted."""
    out: dict[str, list[str]] = {c: [] for c in model["colors"]}
    for s, c in model["incidence"]:
        out[c].append(s)
    return {c: sorted(v) for c, v in out.items()}


def component_count(nv: int, edges) -> int:
    """Weakly connected components of a multigraph on 0..nv-1."""
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return sum(1 for x in range(nv) if find(x) == x)


def two_edge_connected(nv: int, edges) -> bool:
    """Connected, and still connected after deleting any one edge."""
    if component_count(nv, edges) != 1:
        return False
    return all(component_count(nv, edges[:i] + edges[i + 1 :]) == 1 for i in range(len(edges)))


def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def admissible_tuples(model: dict, nv: int, edges, colors) -> int:
    """Kernel tuples above every minimal kernel: per string, the partitions
    coarser than the components of the edges whose color avoids the string,
    so the product over strings of Bell(component count)."""
    support = strings_of(model)
    total = 1
    for s in sorted(model["strings"]):
        keep = [e for e, c in zip(edges, colors) if s not in support[c]]
        total *= bell(component_count(nv, keep))
    return total


def signed_word_count(alphabet: int, max_length: int) -> int:
    return sum(alphabet**m for m in range(1, max_length + 1))


# -- the centered chain norm, by chasing points through partial permutations


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _fisher_yates(dim: int, rng: np.random.Generator) -> np.ndarray:
    images = list(range(dim))
    for i in range(dim - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        images[i], images[j] = images[j], images[i]
    return np.asarray(images, dtype=np.int64)


def _act(points: np.ndarray, perm: np.ndarray, positions: list[int], n: int, width: int) -> np.ndarray:
    """Apply a permutation of the digits at `positions` (most significant
    first) to full mixed-radix indices of `width` digits base n."""
    weights = [n ** (width - 1 - k) for k in positions]
    digits = [(points // w) % n for w in weights]
    sub = np.zeros_like(points)
    for d in digits:
        sub = sub * n + d
    new = perm[sub]
    out = points.copy()
    for w, d in zip(reversed(weights), reversed(digits)):
        out += (new % n - d) * w
        new = new // n
    return out


def converge_means(model: dict, chi, ell, n_grid, samples: int, seed: int) -> dict[int, Fraction]:
    """Exact per-N mean of the centered, diagonally projected squared norm of
    the chain with uniform permutation letters and identity diagonals.

    The seeded streams are the ones the CLI documents: letter (i, j) of side
    N draws from key (1, N, i, j), the color of rank r in sample m from key
    (0, N, m, r).  A centered permutation matrix is a partial permutation, so
    the norm counts the points the centered product returns to themselves.
    """
    strings = sorted(model["strings"])
    support = strings_of(model)
    positions = {c: [strings.index(s) for s in support[c]] for c in model["colors"]}
    width = len(strings)
    out = {}
    for n in n_grid:
        dims = {c: n ** len(positions[c]) for c in model["colors"]}
        letters = [
            [_fisher_yates(dims[c], _stream(seed, 1, n, i, j)) for j in range(l)]
            for i, (c, l) in enumerate(zip(chi, ell))
        ]
        pts = np.arange(n**width, dtype=np.int64)
        returned = 0
        for m in range(samples):
            conj = {}
            for rank, c in enumerate(sorted(model["colors"])):
                sigma = _fisher_yates(dims[c], _stream(seed, 0, n, m, rank))
                inv = np.empty_like(sigma)
                inv[sigma] = np.arange(len(sigma))
                conj[c] = (sigma, inv)
            cur = pts
            alive = np.ones(len(pts), dtype=bool)
            for i in reversed(range(len(chi))):
                sigma, inv = conj[chi[i]]
                y = cur
                for p in reversed(letters[i]):
                    y = _act(y, inv[p[sigma]], positions[chi[i]], n, width)
                alive &= y != cur
                cur = y
            returned += int(np.count_nonzero(alive & (cur == pts)))
        out[n] = Fraction(returned, samples * n**width)
    return out


def close(value: float, exact: Fraction, rel_tol: float = 1e-9) -> bool:
    """The tolerance a printed float mean is held to against an exact mean."""
    return math.isclose(value, float(exact), rel_tol=rel_tol, abs_tol=1e-15)
