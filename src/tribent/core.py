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
    surfaces, not here; the package asks for half widths and s only."""
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

    def conj(self) -> "Eisenstein":
        """Complex conjugation w -> w^2: (a, b) -> (a - b, -b)."""
        return Eisenstein(self.a - self.b, -self.b)

    def squared_norm(self) -> int:
        """|a + b*w|^2 = a^2 - a*b + b^2, a non-negative integer."""
        return self.a * self.a - self.a * self.b + self.b * self.b

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

def _rref(rows: Iterable[Sequence[int]], n: int,
          echelon: Sequence[Sequence[int] | None] = ()) -> list[Sequence[int] | None]:
    """Reduced row echelon form mod 3, in plain integers, of rows of n
    digits in {0, 1, 2} joined to a form given as this returns it (which
    is not changed): n slots, slot p holding the row whose pivot, its
    first nonzero entry, is a 1 in column p, and None for a free column.
    Each row in turn is reduced against the rows so far, left to right:
    its entry c at a filled slot p is cleared by subtracting c times that
    row, which is 0 before p and at every other pivot.  A nonzero
    remainder is scaled to a unit pivot (a * a = 1 mod 3: a is its own
    inverse), cleared from the other rows, and fills its slot.  The
    reduced echelon form of a row space is unique, so the result depends
    only on the span of the rows."""
    slots = list(echelon) or [None] * n
    for row in rows:
        pivot = None
        for p in range(n):
            c = row[p]
            if c and slots[p] is not None:
                row = [(x - c * y) % 3 for x, y in zip(row, slots[p])]
            elif c and pivot is None:
                pivot = p
        if pivot is None:
            continue
        if row[pivot] == 2:
            row = [2 * x % 3 for x in row]
        for p, other in enumerate(slots):
            if other is not None and other[pivot]:
                c = other[pivot]
                slots[p] = [(x - c * y) % 3 for x, y in zip(other, row)]
        slots[pivot] = row
    return slots


def _null_basis(echelon: list[Sequence[int] | None]) -> np.ndarray:
    """Basis of {x : r x = 0 mod 3} for the rows r of a reduced echelon
    form in slots (as _rref returns it), as the rows of an int8 matrix,
    one per free column c: 1 in column c, 0 in the other free columns,
    and minus column c of r at the pivots."""
    null = [[int(p == c) if row is None else -row[c] % 3 for p, row in enumerate(echelon)]
            for c, slot in enumerate(echelon) if slot is None]
    return np.array(null, dtype=np.int8).reshape(len(null), len(echelon))


def _encoded(echelon: list[Sequence[int] | None]) -> tuple[int, ...]:
    """The filled slots of a reduced echelon form as point indices, in
    pivot order."""
    return tuple(encode(row) for row in echelon if row is not None)


def pivot_points(pivots: Sequence[int]) -> np.ndarray:
    """For every c in F_3^len(pivots), in the order of c, the point whose
    digit P_i is digit i of c and whose other digits are 0 (int64)."""
    return digit_sum_table([(0, 3 ** p, 2 * 3 ** p) for p in pivots])


@dataclass(frozen=True)
class Subspace:
    """An F_3-linear subspace V of F_3^n given by its reduced echelon basis
    of points (span and orthogonal_complement build it).

    perp is a basis of V-perp as the rows of an int8 matrix of shape
    (n - dim, n), made read-only here; equality and hash ignore it.  span
    passes the null basis of its last round, orthogonal_complement the
    basis of V.  V and V-perp are reduced in plain integers (_rref): a
    reduction of perp reads perp.tolist() and never writes perp.
    """

    n: int
    basis: tuple[int, ...]
    perp: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        self.perp.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def members(self) -> np.ndarray:
        """All 3^dim members in the order of c (int64): entry c is c B for
        the reduced echelon basis B.  B[:, P] is the identity at the pivots
        P, so c B has c's digits there (pivot_points); its digit at a free
        column j is c . B[:, j], a dots_with over F_3^dim, added times 3^j."""
        members = pivot_points(self.pivots)
        for j in sorted(set(range(self.n)) - set(self.pivots)):
            column = encode([b // 3 ** j % 3 for b in self.basis])
            if column:
                members += np.multiply(dots_with(column, self.dim), 3 ** j, dtype=np.int64)
        return members

    def points(self) -> np.ndarray:
        """All 3^dim members as a sorted int64 index array."""
        members = self.members()
        members.sort()
        return members

    @cached_property
    def syndromes(self) -> tuple[np.ndarray, np.ndarray]:
        """V's membership tables: for the rows q_j of perp, the syndrome
        sum_j 3^j (h . q_j mod 3) of every top half h of a point (its n - k
        high digits, k = n // 2), and that of minus every low half l, as
        two int32 tables of 3^(n-k) and 3^k entries.

        A point h * 3^k + l has x . q_j = h . q_j[k:] + l . q_j[:k], so it
        lies in V exactly when its two table entries are equal: the base-3
        digits of a syndrome are the n - dim residues, and a syndrome is
        below 3^(n - dim) <= 3^EXACT_DIM < 2^31.  The dot tables are int8
        sums of at most n - k products, at most 4n.  Cached, so made
        read-only."""
        k = self.n // 2
        weights = 3 ** np.arange(len(self.perp), dtype=np.int32)
        high = coord_matrix(self.n - k) @ self.perp.T[k:] % 3
        minus_low = -(coord_matrix(k) @ self.perp.T[:k]) % 3
        tables = high @ weights, minus_low @ weights
        for t in tables:
            t.flags.writeable = False
        return tables

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The lowest nonzero digit of each basis point, ascending.  span
        and orthogonal_complement give the reduced echelon basis B, so
        B[:, pivots] is the identity."""
        pivots = []
        for b in self.basis:
            p = 0
            while not b % 3:
                b, p = b // 3, p + 1
            pivots.append(p)
        return tuple(pivots)


def _band_members(mask: np.ndarray, n: int) -> list[int]:
    """For each digit p, the first member of a boolean mask over F_3^n in
    mask[3^p::3^(p+1)], the points whose lowest nonzero digit is p and
    equals 1, where there is one.  For a subspace these are a basis: each
    lowest nonzero digit of a member is that of such a member (the member
    or its double), there are dim of them, and points with distinct
    lowest nonzero digits are independent.  argmax reads all of a strided
    band, so its first 81 entries are probed first."""
    picked = []
    for p in range(n):
        band = mask[3 ** p::3 ** (p + 1)]
        i = int(band[:81].argmax())
        if not band[i]:
            i = int(band.argmax())
        if band[i]:
            picked.append(3 ** p + i * 3 ** (p + 1))
    return picked


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
    row space is unique, so the basis does not depend on the sample.

    Each round builds the candidate Subspace, with the null basis as its
    perp, and one broadcast compare of its membership tables (syndromes)
    over the (3^(n-k), 3^k) view of the mask marks the failing points,
    whatever the number of null vectors.  The last round's candidate is
    the result, so neither V-perp nor the tables are built again
    downstream.  Only the sample and the folded points become digit
    lists, reduced in plain integers (_rref).
    """
    k = n // 2
    if not (isinstance(points, np.ndarray) and points.dtype == bool):
        idx = points if isinstance(points, np.ndarray) else np.fromiter(points, dtype=np.int64)
        points = np.zeros(size(n), dtype=bool)
        points[idx] = True
    members = points.reshape(size(n - k), size(k))
    echelon = _rref([decode(b, n) for b in _band_members(points, n)], n)
    while True:
        v = Subspace(n, _encoded(echelon), _null_basis(echelon))
        high, minus_low = v.syndromes
        failing = (high[:, None] != minus_low) & members
        if not failing.any():
            return v
        grown = _rref([decode(int(failing.argmax()), n)], n, echelon)
        assert grown.count(None) < echelon.count(None), \
            "a point failed the check but lies in the span"
        echelon, members = grown, failing


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
    rank mod 3, that is when its reduced echelon form (_rref, in plain
    integers) leaves no column free; no member is enumerated.
    """
    perp = v.perp.tolist()
    gram = [[sum(a * b for a, b in zip(p, q)) % 3 for q in perp] for p in perp]
    return None not in _rref(gram, len(perp))


def orthogonal_complement(v: Subspace) -> Subspace:
    """All points orthogonal to every basis vector of V, as the reduced
    echelon form of the rows of v.perp (_rref); any basis of V is a basis
    of the complement's perp."""
    return Subspace(v.n, _encoded(_rref(v.perp.tolist(), v.n)), coord_rows(v.basis, v.n))
