"""Exact arithmetic primitives for functions on F_3^n.

Points of F_3^n are plain integers in [0, 3^n), encoding coordinates in
little-endian base 3: coordinate i of index x is (x // 3^i) % 3.  All
spectral values live in Z[w], the integers extended by a primitive cube
root of unity w (w^2 = -1 - w); no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Desk-scale guard: 3^12 = 531441 points.  Every entry point that tabulates
# a function from outside input checks against this cap before allocating;
# pass a larger explicit cap to override.
DIM_CAP = 12


class DimensionCapError(ValueError):
    """Raised when an operation would enumerate more than 3^cap points."""


def check_dim(n: int, cap: int | None = None) -> None:
    limit = DIM_CAP if cap is None else cap
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if n > limit:
        raise DimensionCapError(
            f"n={n} exceeds the dimension cap {limit} (3^{n} points); "
            "raise the cap explicitly to proceed"
        )


def size(n: int) -> int:
    """Number of points of F_3^n."""
    return 3 ** n


def decode(index: int, n: int) -> tuple[int, ...]:
    """Little-endian base-3 digits of a point index."""
    digits = []
    for _ in range(n):
        digits.append(index % 3)
        index //= 3
    return tuple(digits)


def encode(coords: Sequence[int]) -> int:
    """Inverse of decode; coordinates are reduced mod 3."""
    index = 0
    for c in reversed(coords):
        index = index * 3 + (c % 3)
    return index


@lru_cache(maxsize=None)
def coord_matrix(n: int) -> np.ndarray:
    """All 3^n points as rows of coordinates, shape (3^n, n), dtype int8.

    Row x holds decode(x, n); cached since every vectorised operation
    (dot products, code building) starts from it.  The dimension cap is
    enforced at the input surfaces, not here.
    """
    idx = np.arange(size(n))
    cols = [(idx // 3 ** i) % 3 for i in range(n)]
    if not cols:
        return np.zeros((1, 0), dtype=np.int8)
    return np.stack(cols, axis=1).astype(np.int8)


def neg_point(x: int, n: int) -> int:
    """Index of -x (each coordinate negated mod 3)."""
    return encode(tuple((-c) % 3 for c in decode(x, n)))


@lru_cache(maxsize=None)
def neg_table(n: int) -> np.ndarray:
    """negation_table[x] = index of -x, for all x."""
    coords = coord_matrix(n).astype(np.int64)
    weights = 3 ** np.arange(n, dtype=np.int64)
    return ((-coords) % 3) @ weights


def add_points(x: int, y: int, n: int) -> int:
    """Index of x + y in F_3^n."""
    xs, ys = decode(x, n), decode(y, n)
    return encode(tuple(a + b for a, b in zip(xs, ys)))


def dot(u: int, v: int, n: int) -> int:
    """Standard dot product of two points, as an element of F_3."""
    us, vs = decode(u, n), decode(v, n)
    return sum(a * b for a, b in zip(us, vs)) % 3


def dots_with(v: int, n: int) -> np.ndarray:
    """Vector of x . v over all x in F_3^n (int8)."""
    coords = coord_matrix(n)
    vvec = np.array(decode(v, n), dtype=np.int64)
    if n == 0:
        return np.zeros(1, dtype=np.int8)
    return ((coords.astype(np.int64) @ vvec) % 3).astype(np.int8)


def legendre(a: int) -> int:
    """Quadratic character of F_3: 0 -> 0, squares -> 1, non-squares -> -1."""
    a %= 3
    if a == 0:
        return 0
    return 1 if a == 1 else -1


# ---------------------------------------------------------------------------
# Z[w]: exact cube-root-of-unity integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eisenstein:
    """Element a + b*w of Z[w], with w a primitive cube root of unity.

    Since w^2 = -1 - w, the product rule is
    (a + b*w)(c + d*w) = (ac - bd) + (ad + bc - bd)*w.
    """

    a: int
    b: int

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: "Eisenstein | int") -> "Eisenstein":
        if isinstance(other, int):
            return Eisenstein(self.a * other, self.b * other)
        return Eisenstein(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a - self.b * other.b,
        )

    __rmul__ = __mul__

    def times_omega(self) -> "Eisenstein":
        """Multiply by w: (a, b) -> (-b, a - b)."""
        return Eisenstein(-self.b, self.a - self.b)

    def conj(self) -> "Eisenstein":
        """Complex conjugation w -> w^2: (a, b) -> (a - b, -b)."""
        return Eisenstein(self.a - self.b, -self.b)

    def squared_norm(self) -> int:
        """|a + b*w|^2 = a^2 - a*b + b^2, a non-negative integer."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self) -> str:
        return f"Eisenstein({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}w"


# w^0, w^1, w^2 = -1 - w
OMEGA_POW = (Eisenstein(1, 0), Eisenstein(0, 1), Eisenstein(-1, -1))


def omega_pow(j: int) -> Eisenstein:
    """w^j for any integer exponent."""
    return OMEGA_POW[j % 3]


def root_sum(counts: Sequence[int]) -> Eisenstein:
    """Sum c0*w^0 + c1*w^1 + c2*w^2 collapsed to the (1, w) basis."""
    c0, c1, c2 = counts
    return Eisenstein(c0 - c2, c1 - c2)


# ---------------------------------------------------------------------------
# Subspaces of F_3^n
# ---------------------------------------------------------------------------

def _row_reduce(rows: list[list[int]]) -> list[list[int]]:
    """Row-reduce mod 3, returning the nonzero rows in echelon form."""
    rows = [[c % 3 for c in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 if rows[pivot_row][col] == 1 else 2  # inverse mod 3
        rows[pivot_row] = [(inv * c) % 3 for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                m = rows[r][col]
                rows[r] = [(a - m * b) % 3 for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [r for r in rows if any(r)]


def rank(points: Iterable[int], n: int) -> int:
    """Rank over F_3 of the coordinate vectors of the given points."""
    return len(_row_reduce([list(decode(p, n)) for p in points]))


@dataclass(frozen=True)
class Subspace:
    """An F_3-linear subspace of F_3^n given by an echelon basis of points."""

    n: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> frozenset[int]:
        """All 3^dim members, by enumerating coefficient tuples."""
        members = {0}
        for b in self.basis:
            b2 = add_points(b, b, self.n)
            members = {
                add_points(m, scaled, self.n)
                for m in members
                for scaled in (0, b, b2)
            }
        return frozenset(members)


def span(points: Iterable[int], n: int) -> Subspace:
    """The F_3-span of a set of points ({0} for empty input)."""
    rows = _row_reduce([list(decode(p, n)) for p in points])
    return Subspace(n, tuple(encode(r) for r in rows))


def is_subspace(points: Iterable[int], n: int) -> bool:
    """True iff the set equals its own span.

    A set lies inside its span, so the two are equal exactly when their
    sizes are; the span's members are never enumerated.
    """
    pts = frozenset(points)
    if not pts:
        return False
    return len(pts) == size(span(pts, n).dim)


def is_nondegenerate(v: Subspace) -> bool:
    """True iff only 0 in V is orthogonal to all of V.

    Decided by exhaustive scan of the members against the basis; the
    spaces involved never exceed a few thousand points.
    """
    if not v.basis:
        return True
    members = np.fromiter(v.points(), dtype=np.int64)
    coords = coord_matrix(v.n).astype(np.int64)[members]
    bmat = np.stack([np.array(decode(b, v.n), dtype=np.int64) for b in v.basis])
    prods = (coords @ bmat.T) % 3
    radical = members[~prods.any(axis=1)]
    return radical.tolist() == [0]


def orthogonal_complement(v: Subspace) -> Subspace:
    """All points orthogonal to every basis vector of V."""
    n = v.n
    if not v.basis:
        idx = np.arange(size(n))
        return span(idx.tolist(), n)
    coords = coord_matrix(n).astype(np.int64)
    bmat = np.stack([np.array(decode(b, n), dtype=np.int64) for b in v.basis])
    prods = (coords @ bmat.T) % 3
    members = np.flatnonzero(~prods.any(axis=1))
    return span(members.tolist(), n)
