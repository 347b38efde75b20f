"""Exact arithmetic primitives for functions on F_3^n.

Points of F_3^n are plain integers in [0, 3^n), encoding coordinates in
little-endian base 3: coordinate i of index x is (x // 3^i) % 3.  All
spectral values live in Z[w], the integers extended by a primitive cube
root of unity w (w^2 = -1 - w); no floating point is used anywhere.
"""

from __future__ import annotations

import ctypes
import resource
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

# The radix-3 transform accumulates in int32 and every partial sum is at
# most 2 * 3^n in absolute value, which stays below 2^31 up to n = 18;
# check_dim refuses every larger dimension.
EXACT_DIM = 18


# Peak bytes per point of one run, with a margin: the growth of ru_maxrss
# over a fresh interpreter with the package imported, over 3^n, at
# n = 13..16 (the growth of VmPeak, which RLIMIT_AS bounds, read no
# higher).  A passing verdict read 12.0-17.7 on every input surface
# (run_search(n - 2, 1, 1, 0), and the CLI's table file, glue spec and
# --poly on its instance); a function that is not bent, 17.0-22.5, since
# bent_profile then takes the exact int32 spectrum; a --defining-set
# code over all of F_3^n (r = n, where a verdict has r < n), 25.8-31.5
# (tools/trajectory.py's forced_rss_mb), most of it the radix-3
# transform over F_3^n.  tests/test_peak_contract.py holds every exported
# path that builds a 3^n table to it at n = 12, by tracemalloc's peak.
PEAK_BYTES_PER_POINT = 34


# The C library's memory policy for the process, set once at import:
# glibc's mallopt parameters M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD
# (-3), both 32 MB.  By default glibc raises its mmap threshold to the
# largest block freed so far and trims the free top of the heap past
# twice that (about 0.7 MB once a 354 KB n = 11 array is freed), so each
# verdict handed its freed arrays back to the kernel and the next one
# faulted them in again: about 460 minor faults per structure-large
# verdict, at about 3.3 us per first touch of a page against 0.04 us for
# a warm one (2-vCPU VM).
# Setting either threshold turns glibc's dynamic thresholds off; 32 MB is
# the largest mmap threshold glibc accepts on 64-bit.  Arrays under 32 MB
# then come from the heap, at most 32 MB of freed heap stays mapped
# between verdicts, and larger arrays (an int8 table from n = 16 up,
# 43 MB) still go to mmap and back to the kernel when freed.
_KEPT_HEAP_BYTES = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Set both thresholds where the C library has mallopt; where it has
    none (not Linux) or refuses the value (musl's returns 0), nothing
    changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _KEPT_HEAP_BYTES)


_keep_freed_heap()


class DimensionCapError(ValueError):
    """Raised when a dimension is past EXACT_DIM, or its run would take
    more than the process's memory holds."""


def memory_limit() -> int | None:
    """The bytes this process may still take: the smaller of what its
    RLIMIT_AS soft limit leaves above its present virtual size (the first
    field of /proc/self/statm, in pages; an interpreter with numpy
    imported maps about 140 MB) and the MemAvailable line of
    /proc/meminfo, each file read where it exists; None when neither
    bounds it.  Where statm is absent the whole soft limit counts.  The
    virtual size includes the freed heap the allocator keeps mapped
    after earlier runs, up to 32 MB (_keep_freed_heap), which a later
    run reuses."""
    limits = []
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        try:
            with open("/proc/self/statm") as fh:
                soft -= int(fh.read().split()[0]) * resource.getpagesize()
        except OSError:
            pass
        limits.append(max(soft, 0))
    try:
        with open("/proc/meminfo") as fh:
            limits += [int(line.split()[1]) * 1024
                       for line in fh if line.startswith("MemAvailable:")]
    except OSError:
        pass
    return min(limits, default=None)


def check_dim(n: int) -> None:
    """The one size gate: every input surface calls it before it
    tabulates anything.  It refuses a negative n (ValueError), an n past
    EXACT_DIM, and an n whose run would need more than the process may
    still take, 3^n * PEAK_BYTES_PER_POINT against memory_limit()
    (DimensionCapError), each in one line."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if n > EXACT_DIM:
        raise DimensionCapError(
            f"n={n} exceeds {EXACT_DIM}, the largest dimension whose transform "
            "is exact in int32 (2 * 3^n < 2^31)"
        )
    need, memory = size(n) * PEAK_BYTES_PER_POINT, memory_limit()
    if memory is not None and need > memory:
        raise DimensionCapError(
            f"n={n} needs about {need >> 20} MB at its peak "
            f"({PEAK_BYTES_PER_POINT} bytes for each of 3^{n} points), "
            f"more than the {memory >> 20} MB this process may still take"
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


def coord_rows(points: np.ndarray | Sequence[int], n: int) -> np.ndarray:
    """decode(x, n) of each given point index, as the rows of an int8
    matrix of shape (len(points), n); nothing 3^n-wide is built."""
    idx = np.asarray(points, dtype=np.int64).reshape(-1, 1)
    return (idx // 3 ** np.arange(n) % 3).astype(np.int8)


@lru_cache(maxsize=None)
def coord_matrix(n: int) -> np.ndarray:
    """coord_rows of all 3^n points, shape (3^n, n), int8: cached, so
    made read-only.  The size gate, check_dim, is called at the input
    surfaces, not here; the package asks for half widths and subspace
    dimensions only."""
    m = coord_rows(np.arange(size(n)), n)
    m.flags.writeable = False
    return m


def digit_sum_table(values: Sequence[Sequence[int]]) -> np.ndarray:
    """t[x] = sum_i values[i][digit i of x], for all x in F_3^len(values)
    (int64): the table of a digit-additive function, given the three
    values each digit contributes.

    Built one digit at a time: step i lays the table of the lower digits
    out three times, plus values[i][d] for d = 0, 1, 2.
    """
    t = np.zeros(1, dtype=np.int64)
    for v in values:
        t = (np.array(v, dtype=np.int64)[:, None] + t[None, :]).ravel()
    return t


@lru_cache(maxsize=None)
def neg_table(n: int) -> np.ndarray:
    """negation_table[x] = index of -x, for all x (int64)."""
    return digit_sum_table([(0, 2 * 3 ** i, 3 ** i) for i in range(n)])


def translation_table(p: int, n: int) -> np.ndarray:
    """t[x] = index of x + p, for all x (int64), added digit by digit."""
    return digit_sum_table([[(d + c) % 3 * 3 ** i for d in range(3)]
                            for i, c in enumerate(decode(p, n))])


def _halfwise(high: np.ndarray | None, low: np.ndarray | None,
              n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> a[..., t(x)] on the last axis of an array a over
    F_3^n, for a point map t that acts on each digit alone, given as its
    tables high on the top n - k digits and low on the low k = n // 2,
    None for a half that t leaves alone.  The halves of x then move
    independently, so a take along each moved axis of the
    (..., 3^(n-k), 3^k) view replaces a gather by one 3^n-entry table.
    """
    halves = (size(n - n // 2), size(n // 2))

    def apply(a: np.ndarray) -> np.ndarray:
        view = a.reshape(a.shape[:-1] + halves)
        if high is not None:
            view = view.take(high, axis=-2)
        if low is not None:
            view = view.take(low, axis=-1)
        return view.reshape(a.shape)

    return apply


def translation(p: int, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map taking an array a over F_3^n (last axis) to x -> a[x + p];
    x + p is added digit by digit, so the map is _halfwise of the
    half-width translation tables of p's nonzero halves."""
    k = n // 2
    high, low = divmod(p, 3 ** k)
    return _halfwise(translation_table(high, n - k) if high else None,
                     translation_table(low, k) if low else None, n)


def negation(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map taking an array a over F_3^n (last axis) to x -> a[-x]:
    _halfwise of neg_table(n - k) and neg_table(k)."""
    k = n // 2
    return _halfwise(neg_table(n - k), neg_table(k), n)


def dots_with(v: int, n: int) -> np.ndarray:
    """Vector of x . v over all x in F_3^n (int8): the low n - 1 digits'
    int64 digit_sum_table is reduced in place and cast first, and the top
    digit's three residues are added in int8."""
    *low, top = [(0, d, 2 * d % 3) for d in decode(v, n)] or [(0,)]  # n = 0: one point
    t = digit_sum_table(low)
    t %= 3
    t = (np.array(top, dtype=np.int8)[:, None] + t.astype(np.int8)).ravel()
    np.subtract(t, 3, out=t, where=t >= 3)
    return t


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

def _rref(m: np.ndarray) -> np.ndarray:
    """Reduced row echelon form mod 3 of an int8 matrix with entries in
    {0, 1, 2}, nonzero rows only.

    One whole-array elimination per pivot column, at most n of them.  The
    pivot row is the argmax of the column below the reduced rows, nonzero
    unless the whole tail is zero; any nonzero pivot gives the same form.
    Every entry stays in {0, 1, 2} after each step and m - f * p lies in
    [-4, 2], so int8 never overflows.  The reduced echelon form of a row
    space is unique, so the result depends only on the span of the rows.
    m itself is overwritten.
    """
    rows = 0
    for col in range(m.shape[1]):
        if rows == len(m):
            break
        tail = m[rows:, col]
        k = int(tail.argmax())
        if not tail[k]:
            continue
        p = rows + k
        pivot = m[p] * m[p, col] % 3  # a * a = 1 mod 3: a is its own inverse
        m[p] = m[rows]
        m = (m - m[:, col, None] * pivot) % 3
        m[rows] = pivot
        rows += 1
    return m[:rows]


def _null_basis(r: np.ndarray) -> np.ndarray:
    """Basis of {x : r x = 0 mod 3} for a reduced echelon r (as _rref
    returns it), one vector per free column: 1 in that column, 0 in the
    other free columns, and minus that column of r at the pivots."""
    # each row's first nonzero column (every row of r is nonzero); argmax
    # refuses the 0 x 0 matrix of n = 0
    pivots = (r != 0).argmax(axis=1) if r.size else np.zeros(0, dtype=np.intp)
    free = np.ones(r.shape[1], dtype=bool)
    free[pivots] = False
    null = np.eye(r.shape[1], dtype=np.int8)[free]
    null[:, pivots] = -r[:, free].T % 3
    return null


def span_points(rows: np.ndarray) -> np.ndarray:
    """The sorted indices (int64) of all 3^len(rows) F_3-combinations of
    the rows of an int8 matrix with entries in {0, 1, 2}: every
    coefficient vector times the rows (int8 sums of len(rows) products,
    at most 4 * len(rows))."""
    members = coord_matrix(len(rows)) @ rows % 3
    return np.sort(members @ 3 ** np.arange(rows.shape[1]))


@dataclass(frozen=True)
class Subspace:
    """An F_3-linear subspace V of F_3^n given by an echelon basis of points.

    perp is a basis of V-perp as the rows of an int8 matrix of shape
    (n - dim, n), made read-only here; equality and hash ignore it.  span
    passes the null basis of its last round, orthogonal_complement the
    basis of V.  _rref overwrites its input, so a caller that reduces
    perp passes a copy.
    """

    n: int
    basis: tuple[int, ...]
    perp: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        self.perp.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> np.ndarray:
        """All 3^dim members as a sorted int64 index array."""
        return span_points(coord_rows(self.basis, self.n))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The first nonzero coordinate of each basis point, ascending.
        span and orthogonal_complement give the reduced echelon basis B,
        so B[:, pivots] is the identity."""
        return tuple((coord_rows(self.basis, self.n) != 0).argmax(axis=1).tolist())

    def coordinates(self, points: np.ndarray) -> np.ndarray:
        """Each point's coordinates in the basis, as an index into F_3^dim
        (int64): x = sum_i x[P_i] B_i, P the pivots, gives sum_i 3^i x[P_i].
        Membership in V is asserted by one syndrome compare per point
        (half_syndromes of perp).  Each index is split once at 3^k,
        k = n // 2, as in span, and read off two digit-additive half
        tables; the int64 halves are freed on return."""
        k = self.n // 2
        high, low = np.divmod(points, 3 ** k)
        high_syndrome, minus_low_syndrome = half_syndromes(self.perp, self.n)
        assert (high_syndrome[high] == minus_low_syndrome[low]).all(), \
            "the points must lie in v"
        place = [(0, 0, 0)] * self.n
        for i, p in enumerate(self.pivots):
            place[p] = (0, 3 ** i, 2 * 3 ** i)
        coords = digit_sum_table(place[k:])[high]
        coords += digit_sum_table(place[:k])[low]
        return coords


def _band_members(mask: np.ndarray, n: int) -> list[int]:
    """For each digit p, the first member of a boolean mask over F_3^n in
    mask[3^p::3^(p+1)], the points whose lowest nonzero digit is p and
    equals 1, where there is one.  For a subspace these are a basis: each
    lowest nonzero digit of a member is that of such a member (the member
    or its double), there are dim of them, and points with distinct
    lowest nonzero digits are independent."""
    picked = []
    for p in range(n):
        band = mask[3 ** p::3 ** (p + 1)]
        i = int(band.argmax())
        if band[i]:
            picked.append(3 ** p + i * 3 ** (p + 1))
    return picked


def half_syndromes(null: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the rows q_j of an int8 matrix null (entries 0, 1, 2; shape
    (m, n)), the syndrome sum_j 3^j (h . q_j mod 3) of every top half h
    of a point (its n - k high digits, k = n // 2), and that of minus
    every low half l, as two int32 tables of 3^(n-k) and 3^k entries.

    A point h * 3^k + l has x . q_j = h . q_j[k:] + l . q_j[:k], so it is
    orthogonal to every row exactly when its two table entries are equal:
    the base-3 digits of a syndrome are the m residues, and a syndrome is
    below 3^m <= 3^EXACT_DIM < 2^31.  The dot tables are int8 sums of at
    most n - k products, at most 4n."""
    k = n // 2
    weights = 3 ** np.arange(len(null), dtype=np.int32)
    high = coord_matrix(n - k) @ null.T[k:] % 3
    minus_low = -(coord_matrix(k) @ null.T[:k]) % 3
    return high @ weights, minus_low @ weights


def span(points: Iterable[int] | np.ndarray, n: int) -> Subspace:
    """The F_3-span of a set of points ({0} for the empty set), given as a
    boolean mask over all 3^n points or as point indices, which are
    scattered into one.

    One member per digit band (_band_members) is reduced first, and every
    member is then checked against the sample's null space: a point lies
    in the span exactly when it is orthogonal to that null space.  For a
    subspace the sample is a basis and one round suffices.  While some
    member fails, the first failing one is folded into the reduced sample
    and only the failing members are checked again; each fold raises the
    rank, so there are at most n rounds.  The reduced echelon form of a
    row space is unique, so the basis does not depend on the sample.  The
    last round's null basis is kept as the result's perp, so V-perp is
    not reduced again downstream.

    Each round encodes a point's dots with the null basis as one base-3
    syndrome (half_syndromes), and one broadcast compare of the high
    half's table with the low half's over the (3^(n-k), 3^k) view of the
    mask marks the failing points, whatever the number of null vectors.
    Only the sample and the folded points become indices.
    """
    k = n // 2
    if not (isinstance(points, np.ndarray) and points.dtype == bool):
        idx = points if isinstance(points, np.ndarray) else np.fromiter(points, dtype=np.int64)
        points = np.zeros(size(n), dtype=bool)
        points[idx] = True
    members = points.reshape(size(n - k), size(k))
    basis = _rref(coord_rows(_band_members(points, n), n))
    while True:
        null = _null_basis(basis)
        high, minus_low = half_syndromes(null, n)
        failing = (high[:, None] != minus_low) & members
        if not failing.any():
            return Subspace(n, tuple((basis @ 3 ** np.arange(n)).tolist()), null)
        grown = _rref(np.vstack([basis, coord_rows([failing.argmax()], n)]))
        assert len(grown) > len(basis), "a point failed the check but lies in the span"
        basis, members = grown, failing


def is_subspace(points: np.ndarray, n: int) -> bool:
    """True iff the distinct points of an index array equal their span.

    A set lies inside its span, so the two are equal exactly when their
    sizes are; the span's members are never enumerated.
    """
    pts = np.unique(points)
    return bool(pts.size) and pts.size == size(span(pts, n).dim)


def is_nondegenerate(v: Subspace) -> bool:
    """True iff only 0 in V is orthogonal to all of V.

    V meets V-perp in the radical of both, so V is non-degenerate iff
    V-perp is: iff the Gram matrix P P^T of the perp basis P has full
    rank mod 3 (int8 entries, at most 4n); no member is enumerated.
    """
    return len(_rref(v.perp @ v.perp.T % 3)) == len(v.perp)


def orthogonal_complement(v: Subspace) -> Subspace:
    """All points orthogonal to every basis vector of V, as the reduced
    echelon form of v.perp (reduced on a copy: _rref overwrites its
    input); any basis of V is a basis of the complement's perp."""
    basis = _rref(v.perp.copy()) @ 3 ** np.arange(v.n)
    return Subspace(v.n, tuple(basis.tolist()), coord_rows(v.basis, v.n))
