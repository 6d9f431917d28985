"""Multi-index linear algebra on a tensor power of M_N.

A structured matrix lives on a subset of the strings and acts as identity on
the rest.  It holds dense values or a `Permutation` of its block, whose
read-only image array is the one representation of a permutation from
JSON to the full space.  There are two ways to act on the full space:

- the dense path, `lift`, materializes a matrix as a dim x dim array by
  scattering its block through `support_grid` (`DENSE_GUARD` bounds its
  dim**2 entries) for the chain products, the centered norms (O(dim^3))
  and the einsum traces the exact paths are tested against, while
  `lifted_columns` keeps only a dense block's nonzero entries per
  full-space column; integer products that could pass int64 are taken in
  Python integers (`exact_operands`).  A permutation's 0/1 `entries` are
  built only when something reads them;
- the exact permutation path works on image arrays of length dim: a
  permutation of a block of strings becomes, through `lift_permutation`,
  the permutation of every full-space point (guarded by `POINT_GUARD`).
  Words of permutations are composed from their image arrays
  (`compose_images`, traced by `perm_word_trace`), and alternating chains
  of permutations and integer diagonals are monomial, so their centered
  norm is a point chase in exact integers (`chains.ChainDraw.norm_sq`),
  O(letters * dim).

Index convention: strings are sorted ascending; the first (lowest) string is
the most significant digit of the mixed-radix encoding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .strings import StringAssignment

DENSE_GUARD = 2**22  # entries of a dense full-space matrix (dim**2)
POINT_GUARD = 2**21  # full-space points of an image array (8 bytes each)
SUM_TOLERANCE = 1e-9  # how far two float sums of one quantity may differ by rounding


class GuardExceeded(RuntimeError):
    """An enumeration or materialization would exceed its resource guard."""


@dataclass(frozen=True)
class MultiIndexSpace:
    strings: tuple[str, ...]  # sorted ascending
    n: int

    def __post_init__(self):
        if tuple(sorted(self.strings)) != self.strings:
            raise ValueError("strings must be sorted ascending")
        if len(set(self.strings)) != len(self.strings):
            raise ValueError("duplicate strings")
        if self.n < 1:
            raise ValueError("side must be >= 1")

    @staticmethod
    def of(strings: Iterable[str], n: int) -> "MultiIndexSpace":
        return MultiIndexSpace(tuple(sorted(strings)), n)

    @property
    def total_dim(self) -> int:
        return self.n ** len(self.strings)

    def encode(self, idx: Sequence[int]) -> int:
        if len(idx) != len(self.strings):
            raise ValueError("index tuple length mismatch")
        out = 0
        for x in idx:
            if not 0 <= x < self.n:
                raise ValueError(f"index component {x} out of range")
            out = out * self.n + x
        return out

    def decode(self, code: int) -> tuple[int, ...]:
        if not 0 <= code < self.total_dim:
            raise ValueError("code out of range")
        digits = []
        for _ in self.strings:
            digits.append(code % self.n)
            code //= self.n
        return tuple(reversed(digits))


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of 0..n-1 as a read-only int64 image array; equal and
    hashed by value.  The constructor is the one validation point: a 1-D
    integer (not bool) array holding every point once.  Permutations
    derived from valid ones skip the check (`_trusted`)."""

    images: np.ndarray

    def __post_init__(self):
        images = np.array(self.images)
        # dtype kinds "i" and "u" are the integers; bool, float, object and str are not
        if images.ndim != 1 or images.size and images.dtype.kind not in "iu":
            raise ValueError(f"permutation images must be a 1-D integer array, not {images.dtype} {images.shape}")
        images = images.astype(np.int64, copy=False)
        if not (np.sort(images) == np.arange(len(images))).all():
            raise ValueError("not a bijection of 0..n-1")
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: np.ndarray) -> "Permutation":
        p = object.__new__(cls)
        images.setflags(write=False)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._trusted(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return int(self.images[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other (matrix product order)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation._trusted(self.images[other.images])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.n, dtype=np.int64)
        return Permutation._trusted(inv)

    def conjugate(self, sigma: "Permutation") -> "Permutation":
        """sigma^-1 self sigma, the permutation whose matrix is P^T M P for
        the matrices P of sigma and M of self."""
        if sigma.n != self.n:
            raise ValueError("size mismatch")
        return Permutation._trusted(sigma.inverse().images[self.images[sigma.images]])

    def fixed_points(self) -> int:
        return int(np.count_nonzero(self.images == np.arange(self.n)))

    def matrix(self) -> np.ndarray:
        """0/1 matrix M with M e_i = e_{images[i]}, under `lift`'s guard."""
        _check_dense(self.n)
        m = np.zeros((self.n, self.n), dtype=np.int64)
        m[self.images, np.arange(self.n)] = 1
        return m


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream for a seed and integer key path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sample_uniform_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Fisher-Yates draw, uniform over the symmetric group."""
    if n < 1:
        raise ValueError("n must be >= 1")
    images = list(range(n))
    # one call draws the swap index of every i, from the stream that one
    # call per i would read
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        images[i], images[j] = images[j], images[i]
    return Permutation._trusted(np.array(images, dtype=np.int64))  # swaps of 0..n-1 are a bijection


def sample_color_permutations(
    assignment: StringAssignment, colors: Iterable[str], n: int, seed: int, *key: int
) -> dict[str, Permutation]:
    """One uniform permutation of each color's block at side n, in sorted
    color order: the color of rank r draws from `rng_stream(seed, *key, r)`."""
    return {
        c: sample_uniform_permutation(n ** len(assignment.strings_of(c)), rng_stream(seed, *key, r))
        for r, c in enumerate(sorted(colors))
    }


@dataclass(frozen=True)
class StructuredMatrix:
    """A matrix supported on a subset of strings, identity elsewhere.

    It holds either dense `values` of dimension n^len(support) or a
    permutation `perm` of the support block, never both.  `entries` reads
    the dense matrix; a permutation builds its 0/1 matrix on the first
    read only, so the exact paths never materialize one.  Labels compare as
    matrices: same support and side, then the same permutation, or equal
    entries when either is dense; the hash reads the support and side only.
    """

    support: tuple[str, ...]  # sorted ascending
    n: int
    values: np.ndarray | None = None
    perm: Permutation | None = None

    def __post_init__(self):
        if tuple(sorted(self.support)) != self.support:
            raise ValueError("support must be sorted")
        if (self.values is None) == (self.perm is None):
            raise ValueError("give exactly one of dense values and a permutation")
        if self.perm is not None:
            if self.perm.n != self.dim:
                raise ValueError("permutation size mismatch")
            return
        if self.values.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match support")
        # matrices are immutable values; freeze a private copy of the entries
        frozen = self.values.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "values", frozen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuredMatrix):
            return NotImplemented
        if (self.support, self.n) != (other.support, other.n):
            return False
        if self.perm is not None and other.perm is not None:
            return self.perm == other.perm
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.support, self.n))

    @functools.cached_property
    def entries(self) -> np.ndarray:
        if self.perm is None:
            return self.values
        m = self.perm.matrix()
        m.setflags(write=False)
        return m

    @staticmethod
    def dense(support: Iterable[str], n: int, entries: np.ndarray) -> "StructuredMatrix":
        return StructuredMatrix(tuple(sorted(support)), n, np.asarray(entries))

    @staticmethod
    def from_permutation(support: Iterable[str], n: int, perm: Permutation) -> "StructuredMatrix":
        return StructuredMatrix(tuple(sorted(support)), n, perm=perm)

    @staticmethod
    def identity(support: Iterable[str], n: int) -> "StructuredMatrix":
        support = tuple(sorted(support))
        return StructuredMatrix(support, n, perm=Permutation.identity(n ** len(support)))

    @property
    def dim(self) -> int:
        return self.n ** len(self.support)

    @property
    def space(self) -> MultiIndexSpace:
        return MultiIndexSpace(self.support, self.n)

    def is_exact(self) -> bool:
        v = self.values
        return v is None or v.dtype == object or np.issubdtype(v.dtype, np.integer)

    def adjoint(self) -> "StructuredMatrix":
        if self.perm is not None:
            return StructuredMatrix(self.support, self.n, perm=self.perm.inverse())
        v = self.values
        ent = v.conj().T if np.issubdtype(v.dtype, np.complexfloating) else v.T
        return StructuredMatrix(self.support, self.n, np.ascontiguousarray(ent))


def conjugate_by_color(x: StructuredMatrix, sigma: Permutation) -> StructuredMatrix:
    """Conjugation by the permutation matrix of sigma, done by index
    relabeling: out[a, b] = x[sigma(a), sigma(b)]."""
    if sigma.n != x.dim:
        raise ValueError("permutation size does not match matrix dimension")
    if x.perm is not None:
        return StructuredMatrix(x.support, x.n, perm=x.perm.conjugate(sigma))
    return StructuredMatrix(x.support, x.n, x.values[np.ix_(sigma.images, sigma.images)])


def lift(x: StructuredMatrix, target: MultiIndexSpace) -> np.ndarray:
    """Dense matrix of x acting on the full space, identity off the support:
    one scatter of the block entries through `support_grid`."""
    if x.n != target.n:
        raise ValueError("side mismatch")
    if not set(x.support) <= set(target.strings):
        raise ValueError("support not contained in target space")
    _check_dense(target.total_dim)
    grid = support_grid(x.support, target)
    out = np.zeros((target.total_dim, target.total_dim), dtype=x.entries.dtype)
    out[grid[:, None, :], grid[None, :, :]] = x.entries[:, :, None]
    return out


def _check_dense(dim: int) -> None:
    if dim**2 > DENSE_GUARD:
        raise GuardExceeded(f"dense lift of {dim}**2 entries exceeds dense guard {DENSE_GUARD}")


def support_grid(support: Sequence[str], space: MultiIndexSpace) -> np.ndarray:
    """grid[s, r]: the full-space point with support code s (encoded as in
    `MultiIndexSpace(support, n)`) and rest code r.  A block operator lifts
    to the full space by acting on the rows of the grid and fixing its
    columns."""
    if not set(support) <= set(space.strings):
        raise ValueError("support not contained in target space")
    if tuple(sorted(support)) != tuple(support):
        raise ValueError("support must be sorted")
    if space.total_dim > POINT_GUARD:
        raise GuardExceeded(f"full-space dimension {space.total_dim} exceeds point guard {POINT_GUARD}")
    grid = np.arange(space.total_dim, dtype=np.int64).reshape((space.n,) * len(space.strings))
    axes = [space.strings.index(s) for s in support]
    return np.moveaxis(grid, axes, range(len(axes))).reshape(space.n ** len(support), -1)


def permutation_images(images: Sequence[int], support: Sequence[str], space: MultiIndexSpace) -> np.ndarray:
    """Full-space image array of a permutation of the support block: entry a
    is the image of point a when the permutation acts on the support
    coordinates and fixes the rest.  O(total_dim), vectorized."""
    if len(images) != space.n ** len(support):
        raise ValueError("permutation size does not match the support block")
    grid = support_grid(support, space)
    out = np.empty(space.total_dim, dtype=np.int64)
    out[grid] = grid[np.asarray(images, dtype=np.int64)]
    return out


def lifted_columns(m: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of a block matrix lifted to the full space by a
    `support_grid`, column by column: (points, values), each of shape
    (total_dim, k), where row a lists the rows holding the nonzero entries
    of column a and those entries, padded with zero entries to the k of
    the fullest column.  `lift`'s guard bounds their entries."""
    nonzero = m != 0
    k = int(nonzero.sum(axis=0).max(initial=0))
    if grid.size * k > DENSE_GUARD:
        raise GuardExceeded(f"column table of {grid.size}*{k} entries exceeds dense guard {DENSE_GUARD}")
    # per block column, its nonzero rows first; a padding row holds a zero
    rows = np.argsort(~nonzero, axis=0, kind="stable")[:k].T
    points = np.empty((grid.size, k), dtype=np.int64)
    values = np.empty((grid.size, k), dtype=m.dtype)
    points[grid] = grid[rows].transpose(0, 2, 1)
    values[grid] = np.take_along_axis(m, rows.T, axis=0).T[:, None, :]
    return points, values


def lift_permutation(x: StructuredMatrix, target: MultiIndexSpace) -> Permutation:
    """The permutation of the full index set induced by a permutation-valued
    structured matrix: acts on the support coordinates, fixes the rest."""
    if x.perm is None:
        raise ValueError("matrix does not carry a permutation")
    return Permutation._trusted(permutation_images(x.perm.images, x.support, target))


def delta_vector(a: np.ndarray) -> np.ndarray:
    """Diagonal of a square matrix, as the vector representing its projection
    onto the diagonal subalgebra."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("not a square matrix")
    return np.diagonal(a).copy()


def delta(a: np.ndarray) -> np.ndarray:
    """Projection onto the diagonal subalgebra, as a matrix."""
    return np.diag(delta_vector(a))


def sums_agree(a, b) -> bool:
    """Exact equality when both sums are Fractions; otherwise agreement
    within SUM_TOLERANCE as complex numbers, since float sums taken in
    different orders differ by rounding."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(complex(a) - complex(b)) <= SUM_TOLERANCE


def chain_product(lambdas: Sequence[np.ndarray], xs: Sequence[np.ndarray]) -> np.ndarray:
    """Alternating product Lam_1 X_1 ... Lam_m X_m with the diagonal factors
    given as vectors and applied as row scalings."""
    if len(lambdas) != len(xs) or not xs:
        raise ValueError("need equally many diagonal and full factors, at least one")
    arrays = exact_operands(list(lambdas) + list(xs), xs[0].shape[0] ** (len(xs) - 1))
    lambdas, xs = arrays[: len(xs)], arrays[len(xs) :]
    out = None
    for lam, x in zip(lambdas, xs):
        if lam.shape[0] != x.shape[0]:
            raise ValueError("dimension mismatch")
        factor = lam[:, None] * x
        out = factor if out is None else out @ factor
    return out


def exact_operands(arrays: list[np.ndarray], terms: int) -> list[np.ndarray]:
    """Fixed-width integer arrays become object arrays of Python integers
    when a contracted entry, a sum of `terms` products of one entry from
    each array, could leave int64; any other list is returned as it is."""
    if not all(a.dtype != object and np.issubdtype(a.dtype, np.integer) for a in arrays):
        return arrays
    bound = terms
    for a in arrays:
        bound *= max(int(np.abs(a).max(initial=0)), 1)
    return arrays if bound < 2**62 else [a.astype(object) for a in arrays]


def centered_chain_norm_sq(ys: Sequence[np.ndarray]):
    if not ys:
        raise ValueError("need at least one factor")
    dim = ys[0].shape[0]
    ys = exact_operands(list(ys), dim ** (len(ys) - 1))
    prod = None
    for y in ys:
        if y.shape != (dim, dim):
            raise ValueError("dimension mismatch")
        centered = y - np.diag(delta_vector(y))
        prod = centered if prod is None else prod @ centered
    diag = delta_vector(prod)
    if prod.dtype != object and not np.issubdtype(prod.dtype, np.integer):
        return float(np.vdot(diag, diag).real / dim)
    total = 0
    for d in diag.tolist():
        total += (d * d.conjugate()).real if isinstance(d, complex) else d * d
    return Fraction(total, dim)


def compose_images(arrays: Iterable[np.ndarray], dim: int) -> Permutation:
    """The product of a word of permutations of 0..dim-1, given as image
    arrays in word (matrix product) order: the first letter is applied last.
    The empty word is the identity.  O(len(arrays) * dim)."""
    out = np.arange(dim, dtype=np.int64)
    for images in arrays:
        if images.shape != (dim,):
            raise ValueError("size mismatch")
        out = out[images]
    return Permutation._trusted(out)


def perm_word_trace(factors: Sequence[StructuredMatrix], space: MultiIndexSpace) -> Fraction:
    """Exact normalized trace of a product of permutations of string blocks:
    the fixed-point fraction of the lifted image arrays' composition.  Cost
    O(len(factors) * total_dim); no dense matrices."""
    dim = space.total_dim
    word = compose_images((lift_permutation(f, space).images for f in factors), dim)
    return Fraction(word.fixed_points(), dim)
