"""Squared-chain experiments.

A chain spec describes an alternating word of diagonal and conjugated
structured factors.  Its square (the word against its adjoint, traced
through the diagonal projection) is encoded as a test graph made of two
cycles of blocks glued at one vertex, with adjoint labels on the mirrored
cycle.  Subset quotients of that graph expand the centered
diagonally-projected norm as a signed sum of looped traces; the surviving
kernel classes are those with every colored-component graph a tree and an
empty border-merge set, and the exhaustive search verifies there are none.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digraphs import DiGraph, is_two_edge_connected
from .partitions import meet_many
from .strings import ColorGraph, StringAssignment, is_g_reduced, validate_assignment
from .tensor import (
    POINT_GUARD,
    GuardExceeded,
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    centered_chain_norm_sq,
    chain_product,
    conjugate_by_color,
    lift,
    lift_permutation,
    monomial_chain_norm_sq,
    rng_stream,
    sample_uniform_permutation,
    sums_agree,
)
from .traffic import (
    LoopedTestGraph,
    MultiPartition,
    TestGraph,
    _is_exact,
    _kernel_sum,
    chase_labelings,
    enumerate_tree_partitions,
)

X_MODES = ("permutation", "cycle", "unitary", "identity", "fixture")
LAMBDA_MODES = ("identity", "signs", "fixture")
SAMPLE_GUARD = 2**26  # samples * letters * sum of dim over the N grid: the points one converge run chases


@dataclass(frozen=True)
class ChainSpec:
    graph: ColorGraph
    assignment: StringAssignment
    chi: tuple[str, ...]
    ell: tuple[int, ...]
    x_mode: str = "permutation"
    lambda_mode: str = "identity"
    norm_bound: float = 1.0
    x_fixtures: tuple[tuple[StructuredMatrix, ...], ...] | None = None
    lambda_fixtures: tuple[tuple[np.ndarray, ...], ...] | None = None

    def __post_init__(self):
        ok, violations = validate_assignment(self.graph, self.assignment)
        if not ok:
            raise ValueError(f"invalid assignment: {violations}")
        if len(self.chi) != len(self.ell):
            raise ValueError("chi and ell lengths differ")
        if not self.chi:
            raise ValueError("empty chain")
        if any(l < 1 for l in self.ell):
            raise ValueError("letter multiplicities must be >= 1")
        if not is_g_reduced(self.chi, self.graph):
            raise ValueError("coloring word is not reduced for the color graph")
        if self.x_mode not in X_MODES or self.lambda_mode not in LAMBDA_MODES:
            raise ValueError("unknown generator mode")
        for mode, fixtures in ((self.x_mode, self.x_fixtures), (self.lambda_mode, self.lambda_fixtures)):
            if mode == "fixture" and fixtures is None:
                raise ValueError("a fixture mode needs its fixtures")

    @property
    def k(self) -> int:
        return len(self.chi)


@dataclass(frozen=True, eq=False)
class ChainDraw:
    """One draw of a chain's diagonals and letters, made once per (spec, N,
    seed) and read by the point chase, the dense products and the squared
    test graph alike.  lambdas[i][j] is a full-space diagonal vector and
    letters[i][j] a structured matrix on the letter's color block, a
    permutation in the permutation, cycle and identity modes."""

    spec: ChainSpec
    space: MultiIndexSpace
    lambdas: tuple[tuple[np.ndarray, ...], ...]
    letters: tuple[tuple[StructuredMatrix, ...], ...]

    @staticmethod
    def of(spec: ChainSpec, n: int, seed: int) -> "ChainDraw":
        """Deterministic factors of one chain instance, before any dense
        work.  Randomized modes draw from per-(i, j) streams independent of
        the conjugation draws; a dense letter must respect the norm bound."""
        space = MultiIndexSpace.of(spec.assignment.strings, n)
        lambdas: list[tuple[np.ndarray, ...]] = []
        letters: list[tuple[StructuredMatrix, ...]] = []
        for i, (c, l) in enumerate(zip(spec.chi, spec.ell)):
            sup = spec.assignment.sorted_strings_of(c)
            dim = n ** len(sup)
            lam_row: list[np.ndarray] = []
            x_row: list[StructuredMatrix] = []
            for j in range(l):
                if spec.x_mode == "permutation":
                    p = sample_uniform_permutation(dim, rng_stream(seed, 1, n, i, j))
                    x_row.append(StructuredMatrix.from_permutation(sup, n, p))
                elif spec.x_mode == "cycle":
                    x_row.append(StructuredMatrix.from_permutation(sup, n, Permutation((np.arange(dim) + 1) % dim)))
                elif spec.x_mode == "unitary":
                    rng = rng_stream(seed, 1, n, i, j)
                    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    q = np.linalg.qr(z)[0]
                    x_row.append(StructuredMatrix.dense(sup, n, q))
                elif spec.x_mode == "identity":
                    x_row.append(StructuredMatrix.identity(sup, n))
                else:
                    x_row.append(spec.x_fixtures[i][j])
                if spec.lambda_mode == "identity":
                    lam_row.append(np.ones(space.total_dim, dtype=np.int64))
                elif spec.lambda_mode == "signs":
                    rng = rng_stream(seed, 2, n, i, j)
                    lam_row.append(2 * rng.integers(0, 2, size=space.total_dim, dtype=np.int64) - 1)
                else:
                    lam_row.append(np.asarray(spec.lambda_fixtures[i][j]))
            lambdas.append(tuple(lam_row))
            letters.append(tuple(x_row))
        for x in itertools.chain.from_iterable(letters):
            if x.perm is not None:
                continue  # permutation matrices have operator norm one
            nrm = float(np.linalg.norm(np.asarray(x.entries, dtype=np.complex128), ord=2))
            if nrm > spec.norm_bound + 1e-9:
                raise ValueError(f"factor operator norm {nrm} exceeds bound {spec.norm_bound}")
        return ChainDraw(spec, space, tuple(lambdas), tuple(letters))

    @property
    def monomial(self) -> bool:
        """Every letter a permutation and every diagonal an integer vector:
        the chain's factors are monomial and `norm_sq` applies."""
        return all(x.perm is not None for row in self.letters for x in row) and all(
            np.issubdtype(d.dtype, np.integer) for row in self.lambdas for d in row
        )

    def norm_sq(self, sigmas: dict[str, Permutation]) -> Fraction:
        """The centered, diagonally projected squared norm of a monomial
        chain for one conjugation draw; equal to
        centered_chain_norm_sq(chain_factors(...)) without lifting anything.
        Each conjugated letter acts on the full space by its image array."""
        factors = [
            [(d, lift_permutation(conjugate_by_color(x, sigmas[c]), self.space).images) for d, x in zip(lams, row)]
            for c, lams, row in zip(self.spec.chi, self.lambdas, self.letters)
        ]
        return monomial_chain_norm_sq(factors)


@dataclass(frozen=True, eq=False)
class SquaredChainGraph:
    """Two glued cycles with adjoint labels on the mirror, over one chain
    draw.  The chain's letters, flattened in order, give the unprimed
    vertices 0..m-1; the mirror shares vertex 0 and numbers the rest
    m..2m-2, where m = sum(ell)."""

    draw: ChainDraw
    looped: LoopedTestGraph

    @property
    def spec(self) -> ChainSpec:
        return self.draw.spec

    @property
    def test_graph(self) -> TestGraph:
        return self.looped.base

    def u(self, i: int, j: int) -> int:
        """Vertex of block i at slot j (1-based); the slot past a block's
        last edge is the next block's first vertex."""
        ell, k = self.spec.ell, self.spec.k
        if not 1 <= i <= k or not 1 <= j <= ell[i - 1] + 1:
            raise ValueError(f"no vertex ({i},{j})")
        if j == ell[i - 1] + 1:
            i, j = i % k + 1, 1
        return sum(ell[: i - 1]) + j - 1

    def u_prime(self, i: int, j: int) -> int:
        v = self.u(i, j)
        return v and v + sum(self.spec.ell) - 1


def build_squared_chain(spec: ChainSpec, n: int, seed: int = 0) -> SquaredChainGraph:
    """Glue the blocks and their adjoints into the two-cycle test graph.

    The unprimed cycle carries the chain's factors; the mirrored cycle
    carries their adjoints; the cycles share the first block's first vertex,
    whose loop label is the product of both borders.  Vertex count is
    2*sum(ell) - 1 and the result is two-edge connected (single-block chains
    degenerate to self-loops, which are never cut edges).
    """
    draw = ChainDraw.of(spec, n, seed)
    total = sum(spec.ell)
    count = 2 * total - 1
    flat = [
        (c, lam, x) for c, lams, row in zip(spec.chi, draw.lambdas, draw.letters) for lam, x in zip(lams, row)
    ]
    edges: list[tuple[int, int]] = []
    colors: list[str] = []
    labels: list[StructuredMatrix] = []
    loops: list[np.ndarray] = [np.ones(draw.space.total_dim, dtype=np.int64) for _ in range(count)]
    # a chain edge runs from its letter's next vertex to the letter's own, a mirror edge the other way
    for mirror, cycle in enumerate((range(total), [0, *range(total, count)])):
        for m, (c, lam, x) in enumerate(flat):
            here, after = cycle[m], cycle[(m + 1) % total]
            edges.append((here, after) if mirror else (after, here))
            colors.append(c)
            labels.append(x.adjoint() if mirror else x)
            loops[here] = loops[here] * (np.conjugate(lam) if mirror else lam)

    digraph = DiGraph.of(count, edges)
    if not is_two_edge_connected(digraph):
        raise AssertionError("squared chain failed to be two-edge connected")
    tg = TestGraph(spec.assignment, digraph, tuple(colors), tuple(labels))
    return SquaredChainGraph(draw, LoopedTestGraph(tg, tuple(loops)))


@functools.cache
def subset_indices(k: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of {1..k, -1..-k}, by size then lexicographic; built once
    per k, so every report shares its subset tuples."""
    universe = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
    return tuple(itertools.chain.from_iterable(itertools.combinations(universe, r) for r in range(len(universe) + 1)))


def border_pair(chain: SquaredChainGraph, i: int) -> tuple[int, int]:
    """The first and last vertices of block i (of mirrored block -i for a
    negative index)."""
    u = chain.u if i > 0 else chain.u_prime
    return u(abs(i), 1), u(abs(i), chain.spec.ell[abs(i) - 1] + 1)


def j_set(chain: SquaredChainGraph, pi: MultiPartition) -> frozenset[int]:
    """Block indices whose borders are merged by the meet of all the string
    kernels: positive for chain blocks, negative for mirrored ones."""
    m = meet_many(list(pi.parts))
    k = chain.spec.k
    out = set()
    for i in range(1, k + 1):
        if m.same_block(chain.u(i, 1), chain.u(i % k + 1, 1)):
            out.add(i)
        if m.same_block(chain.u_prime(i, 1), chain.u_prime(i % k + 1, 1)):
            out.add(-i)
    return frozenset(out)


def draw_sigmas(spec: ChainSpec, n: int, seed: int, sample: int = 0) -> dict[str, Permutation]:
    """One uniform permutation per color, from streams keyed by the color's
    rank and the sample index."""
    out = {}
    for ci, c in enumerate(sorted(spec.graph.colors)):
        dim = n ** len(spec.assignment.strings_of(c))
        out[c] = sample_uniform_permutation(dim, rng_stream(seed, 0, n, sample, ci))
    return out


def chain_factors(draw: ChainDraw, sigmas: dict[str, Permutation]) -> list[np.ndarray]:
    """The dense alternating products Y_i for one conjugation draw."""
    return [
        chain_product(list(lams), [lift(conjugate_by_color(x, sigmas[c]), draw.space) for x in row])
        for c, lams, row in zip(draw.spec.chi, draw.lambdas, draw.letters)
    ]


@dataclass(frozen=True)
class SignedExpansionReport:
    lhs: object
    rhs: object
    exact: bool
    match: bool
    terms: tuple


def _chased_subset_traces(chain: SquaredChainGraph, sigmas: dict[str, Permutation]) -> list:
    """The looped trace of every subset quotient of a draw, in
    `subset_indices` order, from one chase of the squared chain: a labeling
    of a quotient is a labeling of the chain that agrees on each identified
    border pair, so each trace sums the chased weights on the rows where
    every selected pair agrees.  The chain and its quotients are connected,
    so each sum is divided by dim once."""
    rows, weights, count = chase_labelings(chain.looped, sigmas, chain.draw.space.n)
    agree = {}
    for i in range(1, chain.spec.k + 1):
        for b in (i, -i):
            first, last = border_pair(chain, b)
            agree[b] = rows[:, first] == rows[:, last]
    everywhere, exact = np.ones(len(rows), dtype=bool), _is_exact(weights)
    return [
        _kernel_sum(weights[functools.reduce(np.logical_and, (agree[i] for i in s), everywhere)].sum(), exact, count)
        for s in subset_indices(chain.spec.k)
    ]


def signed_expansion_check(spec: ChainSpec, n: int, seed: int, tol: float = 1e-9) -> SignedExpansionReport:
    """For one conjugation draw, compare the centered diagonally-projected
    squared norm of the chain, from its dense factors, against the signed
    sum of looped traces of the subset quotients, all read off one chase of
    the squared chain.  Exact equality with integer labels, else within
    tol."""
    chain = build_squared_chain(spec, n, seed)
    sigmas = draw_sigmas(spec, n, seed)
    lhs = centered_chain_norm_sq(chain_factors(chain.draw, sigmas))
    terms = tuple(zip(subset_indices(spec.k), _chased_subset_traces(chain, sigmas)))
    rhs = sum(((-1 if len(subset) % 2 else 1) * tau for subset, tau in terms), Fraction(0))
    exact = isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    return SignedExpansionReport(lhs, rhs, exact, sums_agree(lhs, rhs, tol), terms)


def inconsistency_search(spec: ChainSpec, drop_border_condition: bool = False) -> list[MultiPartition]:
    """Exhaustively list admissible kernel tuples with every
    colored-component graph a tree and (unless dropped) an empty
    border-merge set.  The search is expected to come back empty; dropping
    the border condition is the sanity control that trees do exist."""
    # only the graph is read: identity letters and diagonals draw nothing
    chain = build_squared_chain(replace(spec, x_mode="identity", lambda_mode="identity"), 1)
    out = []
    for pi in enumerate_tree_partitions(chain.test_graph):
        if drop_border_condition or not j_set(chain, pi):
            out.append(pi)
    return out


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[dict, ...]
    slope: float | None

    def csv_lines(self) -> list[str]:
        lines = ["N,mean,stderr,variance,samples"]
        for r in self.rows:
            lines.append(
                f"{r['N']},{r['mean']:.12e},{r['stderr']:.12e},{r['variance']:.12e},{r['samples']}"
            )
        return lines


def _one_sample(draw: ChainDraw, seed: int, sample: int) -> float:
    """One sample's squared norm from the per-N draw: a monomial chain takes
    the exact point chase, any other the dense product."""
    sigmas = draw_sigmas(draw.spec, draw.space.n, seed, sample)
    if draw.monomial:
        return float(draw.norm_sq(sigmas))
    ys = [np.asarray(y, dtype=np.complex128) for y in chain_factors(draw, sigmas)]
    return float(centered_chain_norm_sq(ys))


def monte_carlo_values(
    spec: ChainSpec, n_grid: Sequence[int], samples: int, seed: int, workers: int | None = None
) -> dict[int, list[float]]:
    """Per-N sample values of the squared norm; independent streams per
    (N, sample), aggregated in sample order so worker count cannot change
    the output.  The letters and diagonals are drawn once per N; each sample
    draws only its conjugating permutations.  Only dense draws run on
    `workers` threads: a monomial point chase runs slower on two threads
    than on one."""
    dims = [MultiIndexSpace.of(spec.assignment.strings, n).total_dim for n in n_grid]
    for n, dim in zip(n_grid, dims):
        if dim > POINT_GUARD:
            raise GuardExceeded(f"full-space dimension {dim} at N={n} exceeds point guard {POINT_GUARD}")
    letters, points = sum(spec.ell), sum(dims)
    if samples * letters * points > SAMPLE_GUARD:
        raise GuardExceeded(f"{samples} samples * {letters} letters * {points} points exceed sample guard {SAMPLE_GUARD}")
    out: dict[int, list[float]] = {}
    for n in n_grid:
        draw = ChainDraw.of(spec, n, seed)
        if workers and workers > 1 and not draw.monomial:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                vals = list(pool.map(lambda s: _one_sample(draw, seed, s), range(samples)))
        else:
            vals = [_one_sample(draw, seed, s) for s in range(samples)]
        out[n] = vals
    return out


def _table_from_values(values: dict[int, list[float]]) -> ResultTable:
    rows = []
    for n in sorted(values):
        vals = np.asarray(values[n])
        mean = float(vals.mean())
        var = float(vals.var(ddof=1)) if len(vals) > 1 else 0.0
        stderr = math.sqrt(var / len(vals)) if len(vals) > 1 else 0.0
        rows.append({"N": n, "mean": mean, "stderr": stderr, "variance": var, "samples": len(vals)})
    means = [r["mean"] for r in rows]
    ns = [r["N"] for r in rows]
    slope = None
    if len(rows) >= 2 and all(m > 0 for m in means):
        logn = np.log(np.asarray(ns, dtype=float))
        logm = np.log(np.asarray(means))
        slope = float(np.polyfit(logn, logm, 1)[0])
    return ResultTable(tuple(rows), slope)


def convergence_run(
    spec: ChainSpec, n_grid: Sequence[int], samples: int, seed: int, workers: int | None = None
) -> ResultTable:
    """Monte Carlo decay table for the centered squared norm, with the
    fitted log-log slope of the means (None when some mean vanishes)."""
    if len(n_grid) < 2:
        raise ValueError("need at least two grid points for a slope")
    return _table_from_values(monte_carlo_values(spec, n_grid, samples, seed, workers))


def means_nonincreasing(table: ResultTable, sigmas: float = 2.0) -> bool:
    """Adjacent means may not rise by more than `sigmas` combined standard
    errors."""
    for a, b in zip(table.rows, table.rows[1:]):
        allowance = sigmas * math.hypot(a["stderr"], b["stderr"])
        if b["mean"] > a["mean"] + allowance:
            return False
    return True
