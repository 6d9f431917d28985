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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .digraphs import DiGraph, is_two_edge_connected, quotient_digraph
from .partitions import Partition, connect, meet_many
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
    monomial_chain_norm_sq,
    permutation_images,
    rng_stream,
    sample_uniform_permutation,
)
from .traffic import (
    LoopedTestGraph,
    MultiPartition,
    PARTITION_GUARD,
    TestGraph,
    _merge_vertex_vectors,
    enumerate_tree_partitions,
    trace_test_graph,
)

X_MODES = ("permutation", "cycle", "unitary", "identity", "fixture")
LAMBDA_MODES = ("identity", "signs", "fixture")


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

    @property
    def k(self) -> int:
        return len(self.chi)


def draw_letters(spec: ChainSpec, n: int, seed: int):
    """Deterministic factors of one chain instance, before any dense work.

    Returns (lambdas, letters): lambdas[i][j] a full-space diagonal vector;
    letters[i][j] a structured matrix on the letter's color block, a
    permutation in the permutation, cycle and identity modes.  Randomized
    modes draw from per-(i, j) streams independent of the conjugation
    draws.
    """
    full = MultiIndexSpace.of(spec.assignment.strings, n)
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
                lam_row.append(np.ones(full.total_dim, dtype=np.int64))
            elif spec.lambda_mode == "signs":
                rng = rng_stream(seed, 2, n, i, j)
                lam_row.append(2 * rng.integers(0, 2, size=full.total_dim, dtype=np.int64) - 1)
            else:
                lam_row.append(spec.lambda_fixtures[i][j])
        lambdas.append(tuple(lam_row))
        letters.append(tuple(x_row))
    return tuple(lambdas), tuple(letters)


def _check_norm_bound(spec: ChainSpec, xs) -> None:
    for row in xs:
        for x in row:
            if x.perm is not None:
                continue  # permutation matrices have operator norm one
            nrm = float(np.linalg.norm(np.asarray(x.entries, dtype=np.complex128), ord=2))
            if nrm > spec.norm_bound + 1e-9:
                raise ValueError(f"factor operator norm {nrm} exceeds bound {spec.norm_bound}")


@dataclass(frozen=True, eq=False)
class SquaredChainGraph:
    """Two glued cycles with adjoint labels on the mirror, plus the vertex
    bookkeeping needed for subset quotients."""

    spec: ChainSpec
    n: int
    seed: int
    looped: LoopedTestGraph
    lambdas: tuple
    xs: tuple
    unprimed: dict
    primed: dict

    @property
    def test_graph(self) -> TestGraph:
        return self.looped.base

    def u(self, i: int, j: int) -> int:
        """Vertex of block i at slot j (1-based); the slot past a block's
        last edge is the next block's first vertex."""
        return self.unprimed[self._wrap(i, j)]

    def u_prime(self, i: int, j: int) -> int:
        return self.primed[self._wrap(i, j)]

    def _wrap(self, i: int, j: int) -> tuple[int, int]:
        k = self.spec.k
        if not 1 <= i <= k or not 1 <= j <= self.spec.ell[i - 1] + 1:
            raise ValueError(f"no vertex ({i},{j})")
        if j == self.spec.ell[i - 1] + 1:
            return (i % k + 1, 1)
        return (i, j)


def build_squared_chain(spec: ChainSpec, n: int, seed: int = 0) -> SquaredChainGraph:
    """Glue the blocks and their adjoints into the two-cycle test graph.

    The unprimed cycle carries the chain's factors; the mirrored cycle
    carries their adjoints; the cycles share the first block's first vertex,
    whose loop label is the product of both borders.  Vertex count is
    2*sum(ell) - 1 and the result is two-edge connected (single-block chains
    degenerate to self-loops, which are never cut edges).
    """
    lambdas, xs = draw_letters(spec, n, seed)
    _check_norm_bound(spec, xs)
    k = spec.k
    total = sum(spec.ell)
    full = MultiIndexSpace.of(spec.assignment.strings, n)

    unprimed: dict[tuple[int, int], int] = {}
    primed: dict[tuple[int, int], int] = {}
    counter = 0
    for i in range(1, k + 1):
        for j in range(1, spec.ell[i - 1] + 1):
            unprimed[(i, j)] = counter
            counter += 1
    primed[(1, 1)] = unprimed[(1, 1)]
    for i in range(1, k + 1):
        for j in range(1, spec.ell[i - 1] + 1):
            if (i, j) != (1, 1):
                primed[(i, j)] = counter
                counter += 1
    assert counter == 2 * total - 1

    def u(i, j):
        return unprimed[(i % k + 1, 1)] if j == spec.ell[i - 1] + 1 else unprimed[(i, j)]

    def up(i, j):
        return primed[(i % k + 1, 1)] if j == spec.ell[i - 1] + 1 else primed[(i, j)]

    edges: list[tuple[int, int]] = []
    colors: list[str] = []
    labels: list[StructuredMatrix] = []
    for i in range(1, k + 1):
        for j in range(1, spec.ell[i - 1] + 1):
            edges.append((u(i, j + 1), u(i, j)))
            colors.append(spec.chi[i - 1])
            labels.append(xs[i - 1][j - 1])
    for i in range(1, k + 1):
        for j in range(1, spec.ell[i - 1] + 1):
            edges.append((up(i, j), up(i, j + 1)))
            colors.append(spec.chi[i - 1])
            labels.append(xs[i - 1][j - 1].adjoint())

    loops: list[np.ndarray] = [np.ones(full.total_dim, dtype=np.int64) for _ in range(counter)]
    for i in range(1, k + 1):
        for j in range(1, spec.ell[i - 1] + 1):
            loops[unprimed[(i, j)]] = loops[unprimed[(i, j)]] * lambdas[i - 1][j - 1]
            loops[primed[(i, j)]] = loops[primed[(i, j)]] * np.conjugate(lambdas[i - 1][j - 1])

    digraph = DiGraph.of(counter, edges)
    if not is_two_edge_connected(digraph):
        raise AssertionError("squared chain failed to be two-edge connected")
    tg = TestGraph(spec.assignment, digraph, tuple(colors), tuple(labels))
    looped = LoopedTestGraph(tg, tuple(loops))
    return SquaredChainGraph(spec, n, seed, looped, lambdas, xs, unprimed, primed)


def subset_indices(k: int) -> list[tuple[int, ...]]:
    """All subsets of {1..k, -1..-k}, by size then lexicographic."""
    universe = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
    out = []
    for r in range(len(universe) + 1):
        out.extend(itertools.combinations(universe, r))
    return out


def subset_quotient_partition(chain: SquaredChainGraph, subset: Sequence[int]) -> Partition:
    """The vertex partition identifying each selected block's first and last
    vertices (mirrored blocks for negative indices)."""
    borders = []
    for i in subset:
        if i > 0:
            borders.append((chain.u(i, 1), chain.u(i, chain.spec.ell[i - 1] + 1)))
        else:
            borders.append((chain.u_prime(-i, 1), chain.u_prime(-i, chain.spec.ell[-i - 1] + 1)))
    return connect(chain.test_graph.digraph.vertex_count, borders)


def quotient_looped(t: LoopedTestGraph, p: Partition) -> LoopedTestGraph:
    """Quotient the looped graph, multiplying the loop labels of identified
    vertices together."""
    q, _ = quotient_digraph(t.base.digraph, p)
    tg = TestGraph(t.base.assignment, q, t.base.edge_colors, t.base.labels)
    return LoopedTestGraph(tg, tuple(_merge_vertex_vectors(t.vertex_labels, p)))


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


def chain_factors(chain: SquaredChainGraph, sigmas: dict[str, Permutation]) -> list[np.ndarray]:
    """The dense alternating products Y_i for one conjugation draw."""
    spec = chain.spec
    full = MultiIndexSpace.of(spec.assignment.strings, chain.n)
    ys = []
    for i in range(spec.k):
        lams = list(chain.lambdas[i])
        mats = [
            lift(conjugate_by_color(chain.xs[i][j], sigmas[spec.chi[i]]), full)
            for j in range(spec.ell[i])
        ]
        ys.append(chain_product(lams, mats))
    return ys


@dataclass(frozen=True, eq=False)
class MonomialChain:
    """A chain whose letters are all permutations and whose diagonals are
    all integer vectors: every factor is monomial.  Holds the letters'
    block permutations, drawn once per (spec, N, seed)."""

    spec: ChainSpec
    space: MultiIndexSpace
    lambdas: tuple[tuple[np.ndarray, ...], ...]
    letters: tuple[tuple[Permutation, ...], ...]

    @staticmethod
    def of(spec: ChainSpec, n: int, seed: int) -> "MonomialChain | None":
        """The chain's inputs on the exact path, or None when some letter is
        not a permutation or some diagonal is not an integer vector."""
        lambdas, letters = draw_letters(spec, n, seed)
        perms = tuple(tuple(x.perm for x in row) for row in letters)
        if any(p is None for row in perms for p in row):
            return None
        lambdas = tuple(tuple(np.asarray(d) for d in row) for row in lambdas)
        if not all(np.issubdtype(d.dtype, np.integer) for row in lambdas for d in row):
            return None
        return MonomialChain(spec, MultiIndexSpace.of(spec.assignment.strings, n), lambdas, perms)

    def norm_sq(self, sigmas: dict[str, Permutation]) -> Fraction:
        """The centered, diagonally projected squared norm for one
        conjugation draw; equal to centered_chain_norm_sq(chain_factors(...))
        without lifting anything.  Each letter x is conjugated on its block
        as sigma^-1 x sigma, then acts on the full space by its image array."""
        factors = []
        for c, lams, letters in zip(self.spec.chi, self.lambdas, self.letters):
            sup = self.spec.assignment.sorted_strings_of(c)
            factors.append(
                [(d, permutation_images(x.conjugate(sigmas[c]).images, sup, self.space)) for d, x in zip(lams, letters)]
            )
        return monomial_chain_norm_sq(factors)


@dataclass(frozen=True)
class SignedExpansionReport:
    lhs: object
    rhs: object
    exact: bool
    match: bool
    terms: tuple


def signed_expansion_check(spec: ChainSpec, n: int, seed: int, tol: float = 1e-9) -> SignedExpansionReport:
    """For one conjugation draw, compare the centered diagonally-projected
    squared norm of the chain against the signed sum of looped traces of the
    subset quotients.  Exact equality with integer labels, else within tol."""
    chain = build_squared_chain(spec, n, seed)
    sigmas = draw_sigmas(spec, n, seed)
    ys = chain_factors(chain, sigmas)
    lhs = centered_chain_norm_sq(ys)
    rhs: object = Fraction(0)
    terms = []
    for subset in subset_indices(spec.k):
        p = subset_quotient_partition(chain, subset)
        looped = quotient_looped(chain.looped, p)
        tau = trace_test_graph(looped, n=n, sigmas=sigmas)
        sign = -1 if len(subset) % 2 else 1
        rhs = rhs + sign * tau
        terms.append((subset, tau))
    exact = isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    if exact:
        match = lhs == rhs
    else:
        match = abs(complex(lhs) - complex(rhs)) <= tol
    return SignedExpansionReport(lhs, rhs, exact, match, tuple(terms))


def inconsistency_search(
    spec: ChainSpec,
    drop_border_condition: bool = False,
    partition_guard: int = PARTITION_GUARD,
) -> list[MultiPartition]:
    """Exhaustively list admissible kernel tuples with every
    colored-component graph a tree and (unless dropped) an empty
    border-merge set.  The search is expected to come back empty; dropping
    the border condition is the sanity control that trees do exist."""
    chain = build_squared_chain(spec, 1, 0)  # labels are irrelevant here
    out = []
    for pi in enumerate_tree_partitions(chain.test_graph, partition_guard):
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


def _one_sample(spec: ChainSpec, n: int, seed: int, sample: int, chain) -> float:
    """One sample's squared norm from the per-N chain: a MonomialChain takes
    the exact point chase, a SquaredChainGraph the dense product."""
    sigmas = draw_sigmas(spec, n, seed, sample)
    if isinstance(chain, MonomialChain):
        return float(chain.norm_sq(sigmas))
    ys = [np.asarray(y, dtype=np.complex128) for y in chain_factors(chain, sigmas)]
    return float(centered_chain_norm_sq(ys))


def monte_carlo_values(
    spec: ChainSpec, n_grid: Sequence[int], samples: int, seed: int, workers: int | None = None
) -> dict[int, list[float]]:
    """Per-N sample values of the squared norm; independent streams per
    (N, sample), aggregated in sample order so worker count cannot change
    the output.  The letters and diagonals are drawn once per N; each sample
    draws only its conjugating permutations."""
    for n in n_grid:
        dim = MultiIndexSpace.of(spec.assignment.strings, n).total_dim
        if dim > POINT_GUARD:
            raise GuardExceeded(f"full-space dimension {dim} at N={n} exceeds point guard {POINT_GUARD}")
    out: dict[int, list[float]] = {}
    for n in n_grid:
        chain = MonomialChain.of(spec, n, seed) or build_squared_chain(spec, n, seed)
        if workers and workers > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                vals = list(pool.map(lambda s: _one_sample(spec, n, seed, s, chain), range(samples)))
        else:
            vals = [_one_sample(spec, n, seed, s, chain) for s in range(samples)]
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


concentration_run = convergence_run  # the same table, read for its per-N variance


def means_nonincreasing(table: ResultTable, sigmas: float = 2.0) -> bool:
    """Adjacent means may not rise by more than `sigmas` combined standard
    errors."""
    for a, b in zip(table.rows, table.rows[1:]):
        allowance = sigmas * math.hypot(a["stderr"], b["stderr"])
        if b["mean"] > a["mean"] + allowance:
            return False
    return True
