"""Multi-index linear algebra on a tensor power of M_N.

A structured matrix lives on a subset of the strings and acts as identity on
the rest.  There are two ways to act on the full space:

- the dense path, `lift`, materializes a matrix as a dim x dim array
  (`DENSE_GUARD` bounds its dim**2 entries); chain products and centered
  norms then cost O(dim^3).  Unitary, float and general fixture labels
  take it, and it is the oracle the exact path is tested against; integer
  products that could pass int64 are taken in Python integers
  (`exact_operands`);
- the exact permutation path works on image arrays of length dim: a
  permutation of a block of strings becomes, through `permutation_images`,
  the map of every full-space point to its image (guarded by
  `POINT_GUARD`).  Words of permutations are traced by composing image
  arrays (`perm_word_trace`), and alternating chains of permutations and
  integer diagonals are monomial, so their centered norm is a point chase
  in exact integers (`monomial_chain_norm_sq`), O(letters * dim).

Index convention: strings are sorted ascending; the first (lowest) string is
the most significant digit of the mixed-radix encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

DENSE_GUARD = 2**22  # entries of a dense full-space matrix (dim**2)
POINT_GUARD = 2**21  # full-space points of an image array (8 bytes each)


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


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a bijection of 0..n-1")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other (matrix product order)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def fixed_points(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def matrix(self) -> np.ndarray:
        """0/1 matrix M with M e_i = e_{images[i]}."""
        m = np.zeros((self.n, self.n), dtype=np.int64)
        for i, j in enumerate(self.images):
            m[j, i] = 1
        return m


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic stream for a seed and integer key path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sample_uniform_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Fisher-Yates draw, uniform over the symmetric group."""
    if n < 1:
        raise ValueError("n must be >= 1")
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class StructuredMatrix:
    """A matrix supported on a subset of strings, identity elsewhere.

    `entries` is dense of dimension n^len(support).  When the matrix is
    exactly a permutation matrix, `perm` carries the permutation so exact
    integer paths can bypass the dense entries.
    """

    support: tuple[str, ...]  # sorted ascending
    n: int
    entries: np.ndarray
    perm: Permutation | None = None

    def __post_init__(self):
        dim = self.n ** len(self.support)
        if self.entries.shape != (dim, dim):
            raise ValueError("entries shape does not match support")
        if tuple(sorted(self.support)) != self.support:
            raise ValueError("support must be sorted")
        if self.perm is not None:
            if self.perm.n != dim:
                raise ValueError("permutation size mismatch")
            if not np.array_equal(self.entries, self.perm.matrix()):
                raise ValueError("entries disagree with the attached permutation")
        # matrices are immutable values; freeze a private copy of the entries
        frozen = self.entries.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "entries", frozen)

    @staticmethod
    def dense(support: Iterable[str], n: int, entries: np.ndarray) -> "StructuredMatrix":
        return StructuredMatrix(tuple(sorted(support)), n, np.asarray(entries))

    @staticmethod
    def from_permutation(support: Iterable[str], n: int, perm: Permutation) -> "StructuredMatrix":
        return StructuredMatrix(tuple(sorted(support)), n, perm.matrix(), perm)

    @staticmethod
    def identity(support: Iterable[str], n: int) -> "StructuredMatrix":
        support = tuple(sorted(support))
        dim = n ** len(support)
        return StructuredMatrix(support, n, np.eye(dim, dtype=np.int64), Permutation.identity(dim))

    @property
    def dim(self) -> int:
        return self.n ** len(self.support)

    @property
    def space(self) -> MultiIndexSpace:
        return MultiIndexSpace(self.support, self.n)

    def is_exact(self) -> bool:
        return self.entries.dtype == object or np.issubdtype(self.entries.dtype, np.integer)

    def adjoint(self) -> "StructuredMatrix":
        ent = self.entries.conj().T if np.issubdtype(self.entries.dtype, np.complexfloating) else self.entries.T
        p = self.perm.inverse() if self.perm is not None else None
        return StructuredMatrix(self.support, self.n, np.ascontiguousarray(ent), p)


def conjugate_by_color(x: StructuredMatrix, sigma: Permutation) -> StructuredMatrix:
    """Conjugation by the permutation matrix of sigma, done by index
    relabeling: out[a, b] = x[sigma(a), sigma(b)]."""
    if sigma.n != x.dim:
        raise ValueError("permutation size does not match matrix dimension")
    imgs = np.asarray(sigma.images)
    ent = x.entries[np.ix_(imgs, imgs)]
    p = None
    if x.perm is not None:
        p = sigma.inverse().compose(x.perm).compose(sigma)
    return StructuredMatrix(x.support, x.n, ent, p)


def lift(x: StructuredMatrix, target: MultiIndexSpace, dense_guard: int = DENSE_GUARD) -> np.ndarray:
    """Dense matrix of x acting on the full space, identity off the support."""
    if x.n != target.n:
        raise ValueError("side mismatch")
    if not set(x.support) <= set(target.strings):
        raise ValueError("support not contained in target space")
    if target.total_dim**2 > dense_guard:
        raise GuardExceeded(f"dense lift of {target.total_dim}**2 entries exceeds dense guard {dense_guard}")
    n = x.n
    k = len(target.strings)
    m = len(x.support)
    rest = [s for s in target.strings if s not in set(x.support)]
    xt = x.entries.reshape((n,) * m + (n,) * m) if m else x.entries.reshape(())
    eye = np.eye(n ** len(rest), dtype=x.entries.dtype)
    it = eye.reshape((n,) * len(rest) + (n,) * len(rest)) if rest else eye.reshape(())
    # outer product, then interleave axes back into sorted-string order
    full = np.multiply.outer(xt, it)
    sup_pos = {s: i for i, s in enumerate(x.support)}
    rest_pos = {s: i for i, s in enumerate(rest)}
    row_axes = []
    col_axes = []
    for s in target.strings:
        if s in sup_pos:
            row_axes.append(sup_pos[s])
            col_axes.append(m + sup_pos[s])
        else:
            row_axes.append(2 * m + rest_pos[s])
            col_axes.append(2 * m + len(rest) + rest_pos[s])
    full = full.transpose(row_axes + col_axes)
    return np.ascontiguousarray(full.reshape(target.total_dim, target.total_dim))


def permutation_images(
    images: Sequence[int], support: Sequence[str], space: MultiIndexSpace, point_guard: int = POINT_GUARD
) -> np.ndarray:
    """Full-space image array of a permutation of the support block: entry a
    is the image of point a when the permutation acts on the support
    coordinates (encoded as in `MultiIndexSpace(support, n)`) and fixes the
    rest.  O(total_dim), vectorized."""
    if not set(support) <= set(space.strings):
        raise ValueError("support not contained in target space")
    if tuple(sorted(support)) != tuple(support):
        raise ValueError("support must be sorted")
    if len(images) != space.n ** len(support):
        raise ValueError("permutation size does not match the support block")
    if space.total_dim > point_guard:
        raise GuardExceeded(f"full-space dimension {space.total_dim} exceeds point guard {point_guard}")
    # grid[s, r]: the full-space point with support code s and rest code r
    grid = np.arange(space.total_dim, dtype=np.int64).reshape((space.n,) * len(space.strings))
    axes = [space.strings.index(s) for s in support]
    grid = np.moveaxis(grid, axes, range(len(axes))).reshape(len(images), -1)
    out = np.empty(space.total_dim, dtype=np.int64)
    out[grid] = grid[np.asarray(images, dtype=np.int64)]
    return out


def lift_permutation(x: StructuredMatrix, target: MultiIndexSpace) -> Permutation:
    """The permutation of the full index set induced by a permutation-valued
    structured matrix: acts on the support coordinates, fixes the rest."""
    if x.perm is None:
        raise ValueError("matrix does not carry a permutation")
    return Permutation(tuple(permutation_images(x.perm.images, x.support, target).tolist()))


def delta_vector(a: np.ndarray) -> np.ndarray:
    """Diagonal of a square matrix, as the vector representing its projection
    onto the diagonal subalgebra."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("not a square matrix")
    return np.diagonal(a).copy()


def delta(a: np.ndarray) -> np.ndarray:
    """Projection onto the diagonal subalgebra, as a matrix."""
    return np.diag(delta_vector(a))


def normalized_trace(a: np.ndarray):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("not a square matrix")
    tr = np.trace(a)
    if a.dtype == object:
        return Fraction(tr, a.shape[0]) if isinstance(tr, (int, Fraction)) else tr / a.shape[0]
    if np.issubdtype(a.dtype, np.integer):
        return Fraction(int(tr), a.shape[0])
    return complex(tr) / a.shape[0]


def two_norm(a: np.ndarray) -> float:
    """Normalized Hilbert-Schmidt norm sqrt(sum |a_ij|^2 / dim)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("not a square matrix")
    arr = a.astype(np.complex128) if a.dtype == object else a
    return float(np.sqrt(np.vdot(arr, arr).real / a.shape[0]))


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


def centered_chain_norm(ys: Sequence[np.ndarray]) -> float:
    """The two-norm of the diagonal part of the product of the centered
    factors (Y_i minus its diagonal part)."""
    return math.sqrt(float(centered_chain_norm_sq(ys)))


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


@dataclass(frozen=True)
class ColorPermutationFactor:
    """One letter of a permutation word: a permutation of the color's string
    block, acting on those coordinates of the full space only."""

    color: str
    support: tuple[str, ...]  # sorted
    perm: Permutation


def perm_word_trace(
    factors: Sequence[ColorPermutationFactor], space: MultiIndexSpace
) -> Fraction:
    """Exact normalized trace of a product of color permutations.

    The product is composed on the full index set from each factor's image
    array; the trace is the exact fixed-point fraction.  Cost
    O(len(factors) * total_dim); no dense matrices.
    """
    pts = np.arange(space.total_dim, dtype=np.int64)
    cur = pts
    # matrix product Z_1 ... Z_m acts on points by applying Z_m first
    for f in reversed(factors):
        cur = permutation_images(f.perm.images, f.support, space)[cur]
    fixed = int(np.count_nonzero(cur == pts))
    return Fraction(fixed, space.total_dim)


def monomial_chain_norm_sq(factors: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]]) -> Fraction:
    """`centered_chain_norm_sq` of monomial factors, by chasing points.

    factors[i] lists the (diagonal, image array) pairs of Y_i in product
    order, Y_i = diag(d_1) P_1 diag(d_2) P_2 ... with P e_a = e_{images[a]},
    so every Y_i and every centered Y_i is monomial.  Each point is carried
    right to left through the factors, picking up the diagonal entry at
    each image; centering drops the points a factor fixes.  The diagonal of
    the product lives on the points that return home, and the result is the
    exact Fraction(sum of their squared coefficients, dim).  Diagonals must
    be integer vectors; the coefficients stay in int64 while every entry is
    -1, 0 or 1 and become Python integers otherwise.  O(letters * dim).
    """
    if not factors:
        raise ValueError("need at least one factor")
    pairs = [pair for f in factors for pair in f]
    dim = len(pairs[0][1])
    for d, images in pairs:
        if d.shape != (dim,) or images.shape != (dim,):
            raise ValueError("dimension mismatch")
        if not np.issubdtype(d.dtype, np.integer):
            raise ValueError("diagonals must be integer vectors")
    bounded = all(np.abs(d).max(initial=0) <= 1 for d, _ in pairs)
    coef = np.ones(dim, dtype=np.int64 if bounded else object)
    pts = np.arange(dim, dtype=np.int64)
    cur = pts
    alive = np.ones(dim, dtype=bool)
    for f in reversed(factors):
        y = cur
        for d, images in reversed(f):
            y = images[y]
            coef = coef * d[y]
        alive &= y != cur
        cur = y
    home = coef[alive & (cur == pts)]
    return Fraction(int((home * home).sum()), dim)
