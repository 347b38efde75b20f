"""Walsh-domain analysis of functions F_3^n -> F_3.

The transform of f at a is the exact Z[w] value sum_x w^(f(x) - a.x).
A bent function has every spectral value of squared norm 3^n; its profile
records the dual function, the per-point sign map, and the induced
partition of F_3^n into the plus and minus point sets.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    EXACT_DIM,
    Eisenstein,
    Subspace,
    check_dim,
    coord_matrix,
    decode,
    dots_with,
    is_nondegenerate,
    legendre,
    negation,
    omega_pow,
    root_sum,
    size,
    span,
)


class NotBentError(Exception):
    """A spectral value with the wrong magnitude, with a witness point."""

    def __init__(self, witness: int, norm_sq: int, expected: int):
        self.witness = witness
        self.norm_sq = norm_sq
        self.expected = expected
        super().__init__(
            f"|spectrum|^2 at point {witness} is {norm_sq}, expected {expected}"
        )


class HypothesisError(Exception):
    """A structural hypothesis needed by an operation does not hold.  For
    the theorem's hypotheses, `hypothesis` is the stage name in HYPOTHESES,
    as a report's failed_stage gives it."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class BentType(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    def flipped(self) -> "BentType":
        return BentType.MINUS if self is BentType.PLUS else BentType.PLUS


class Regularity(enum.Enum):
    REGULAR = "regular"
    WEAKLY_REGULAR = "weakly-regular"
    NON_WEAKLY_REGULAR = "non-weakly-regular"


class TernaryFunction:
    """A function F_3^n -> F_3 stored as a dense table over point indices.

    The table is read-only, so is_even is decided once per function and
    kept in a slot.  n is kept as a Python int (a numpy integer is
    converted); a float, str, bool or negative n is refused.  A table of
    bools or integers is reduced mod 3; any other entry (a float, NaN, str
    or None) is refused, never truncated.
    """

    __slots__ = ("n", "table", "_even")

    def __init__(self, n: int, table: Sequence[int] | np.ndarray):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"dimension n must be a non-negative integer, got {n!r}")
        n = operator.index(n)  # a numpy integer becomes an int
        arr = np.asarray(table)
        if arr.shape != (size(n),):
            raise ValueError(f"table must have 3^{n} = {size(n)} entries, got {arr.shape}")
        if arr.dtype.kind not in "biu":  # an object array may still hold only ints
            for i, x in enumerate(arr.flat if isinstance(table, np.ndarray) else table):
                if not isinstance(x, (int, np.integer)):
                    raise ValueError(f"table entry {i} is {np.asarray(x).item()!r}, not an integer")
        # an int8 table already in {0, 1, 2} is only copied; any other is
        # reduced mod 3 in its own type first, so no entry wraps in the cast
        if arr.dtype == np.int8 and arr.view(np.uint8).max() <= 2:
            arr = arr.copy()
        else:
            arr = (arr % 3).astype(np.int8)
        self.n = n
        self.table = arr
        self.table.flags.writeable = False
        self._even: bool | None = None

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int]) -> "TernaryFunction":
        check_dim(n)
        values = (fn(decode(x, n)) % 3 for x in range(size(n)))
        return cls(n, np.fromiter(values, dtype=np.int8, count=size(n)))

    @classmethod
    def constant(cls, n: int, value: int) -> "TernaryFunction":
        return cls(n, np.full(size(n), value % 3, dtype=np.int8))

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TernaryFunction):
            return self.n == other.n and np.array_equal(self.table, other.table)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"TernaryFunction(n={self.n})"

    def is_even(self) -> bool:
        """True iff f(x) = f(-x) for all x."""
        if self._even is None:
            self._even = bool(np.array_equal(self.table, negation(self.n)(self.table)))
        return self._even

    def negated(self) -> "TernaryFunction":
        """The function -f (values negated mod 3)."""
        return TernaryFunction(self.n, -self.table)


# Points per int64 block of WalshSpectrum.norm_blocks.
_NORM_BLOCK = 1 << 16


def _squared_norms(ab: np.ndarray, dtype: type) -> np.ndarray:
    """a^2 - a b + b^2 of every value a + b w of the (2, ...) array ab,
    computed in dtype, which must hold 3 max(|a|, |b|)^2: the norm at
    a = -b, and above every partial sum."""
    a, b = ab.astype(dtype, copy=False)
    return a * (a - b) + b * b


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All 3^n transform values, as one (2, 3^n) integer array:
    value(a) = coeffs[0, a] + coeffs[1, a] w.
    """

    n: int
    coeffs: np.ndarray

    def value(self, a: int) -> Eisenstein:
        return Eisenstein(*self.coeffs[:, a].tolist())

    def squared_norms(self) -> np.ndarray:
        """a^2 - a b + b^2 at every point, in int64: off a bent spectrum a
        single coefficient reaches 3^n, whose square int32 cannot hold."""
        return _squared_norms(self.coeffs, np.int64)

    def norm_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(start, squared_norms of the block from start) for each block of
        _NORM_BLOCK points, so that no int64 array 3^n wide is built beside
        the spectrum."""
        for start in range(0, size(self.n), _NORM_BLOCK):
            yield start, _squared_norms(self.coeffs[:, start:start + _NORM_BLOCK], np.int64)

    def parseval_total(self) -> int:
        """Sum of squared norms; always 3^(2n)."""
        return sum(int(norms.sum()) for _, norms in self.norm_blocks())


# The last n whose transform runs in rounds of one or two digits, each a
# gather pass (see _round_plan): at n = 9 they took 1.3 times as long as
# rounds of three or more digits, and at n = 10 2.6 times.
_GATHER_MAX_N = 8


@cache
def _pass_dtype(p: int, width: type = np.int32) -> type:
    """The narrowest integer type that holds every coefficient met in
    radix-3 pass p (counted from 1), or width where that is narrower.

    A value after p passes has magnitude at most 3^p, and
    a^2 - a b + b^2 >= (3/4) a^2 bounds its coefficients, their
    difference and every butterfly partial sum by (2/sqrt 3) 3^p, the
    square root of 4 * 3^(2p - 1): an integer partial sum is at most
    isqrt of that.  A gather pass that ends with pass p sums up to nine
    values w^(-e) u of magnitude at most 3^(p-2) (or three of 3^(p-1)), so
    each lane and every partial sum is a coefficient of a value of
    magnitude at most 3^p too, and the pass runs in the type of pass p.
    """
    bound = _narrowest(math.isqrt(4 * 3 ** (2 * p - 1)))
    return min(bound, width, key=lambda t: np.iinfo(t).bits)


def _round_plan(n: int) -> tuple[int, ...]:
    """The digits per round of the radix-3 transform at n, whose sizes
    alone pick how the rounds run (see _radix3): two per round through
    _GATHER_MAX_N, the last round taking one when n is odd, so every round
    is one gather pass; above, ceil(n/4) rounds as near equal as can be,
    the larger first, so of three or four digits, each run in butterfly
    passes."""
    if n <= _GATHER_MAX_N:
        return (2,) * (n // 2) + (1,) * (n % 2)
    rounds = -(-n // 4)
    q, extra = divmod(n, rounds)
    return (q + 1,) * extra + (q,) * (rounds - extra)


@cache
def _gather_plan(d: int) -> np.ndarray:
    """The rows that a gather pass on d digits sums, as (2, 3^d, 3^d)
    indices into the (6 * 3^d, 3^(n-d)) view of its lanes: at [c, k, j],
    coefficient c of lane pair e = k.j mod 3 at top digits j, which is
    row (2e + c) 3^d + j (see _gather_sums)."""
    digits = coord_matrix(d).astype(np.intp)
    e, rows = digits @ digits.T % 3, size(d)
    return np.stack([(2 * e + c) * rows + np.arange(rows) for c in (0, 1)])


def _gather_sums(ab: np.ndarray, d: int, dtype: type) -> np.ndarray:
    """sum_j w^(-k.j) u[j] over the top d digits j of the values u of the
    (2, 3^n) array ab, as a (2, 3^n) array of type dtype whose top d
    digits are k.

    ab's rows A, B are copied into six lanes of type dtype that read A, B,
    B-A, -A, -B, A-B for u = A + B w: lanes 2e and 2e + 1 are the
    coefficients of w^(-e) u.  One take gathers lane pair k.j mod 3 at
    every (k, j) (_gather_plan), and one reduce sums over j."""
    lanes = np.empty((6, ab.shape[1]), dtype)
    lanes[:2] = ab
    np.subtract(lanes[1], lanes[0], out=lanes[2])
    np.negative(lanes[:3], out=lanes[3:])
    terms = lanes.reshape(6 * size(d), -1).take(_gather_plan(d), axis=0)
    return np.add.reduce(terms, axis=2, dtype=dtype).reshape(2, -1)


def _butterflies(u: np.ndarray, v: np.ndarray) -> None:
    """v[:, :, k] = u0 + w^(-k) u1 + w^(-2k) u2 along axis 2 of (2, x, 3, y)
    views of u = A + B w, in six calls with no temporary.  At k = 1, 2,
    row 0 is A0 + d - B[2:0:-1] and row 1 is B0 - A[1:3] - d[::-1] for
    d = B[1:3] - A[1:3], which waits in row 0's slots; one subtraction
    from u0, broadcast along axis 2, finishes both rows.  Every partial sum is,
    up to sign, a coefficient of a sum of at most three of the values u0,
    w^j u1, w^j u2 (see _pass_dtype)."""
    np.add(u[:, :, 0], u[:, :, 1], out=v[:, :, 0])
    v[:, :, 0] += u[:, :, 2]
    d = v[0, :, 1:3]
    np.subtract(u[1, :, 1:3], u[0, :, 1:3], out=d)
    np.add(u[0, :, 1:3], d[:, ::-1], out=v[1, :, 1:3])
    np.subtract(u[1, :, 2:0:-1], d, out=d)
    np.subtract(u[:, :, :1], v[:, :, 1:3], out=v[:, :, 1:3])


def _radix3(ab: np.ndarray, n: int, width: type = np.int32) -> np.ndarray:
    """sum_x (a[x] + b[x] w) w^(-u.x) for every u, by n radix-3 passes.

    ab is a (2, 3^n) int8 array over the 3^n point indices, row 0 the
    coefficients a of 1 and row 1 those b of w, each value a + b w of norm
    at most 1; the result is a (2, 3^n) array of type width indexed the
    same way.  Each pass is the 3-point transform along one index digit,
    out[k] = u0 + w^(-k) u1 + w^(-2k) u2, with w*(a, b) = (-b, a-b) and
    w^2*(a, b) = (b-a, -a).  The passes run in the rounds of
    _round_plan(n), after the four-step blocking of Bailey
    (J. Supercomputing 1990): each round transforms the top d digits that
    it is given where they lie, and one transposing copy of the
    (2, 3^d, 3^(n-d)) view then moves them to the bottom, so after the
    last round every digit is transformed and back in place.  The size of
    a round alone picks how it runs, and no round writes the caller's
    array:

    - a round of one or two digits is one gather pass, the radix-3 (or
      radix-9) transform out[k] = sum_j w^(-k.j) u[j] over the top digits
      j, in a fixed handful of calls whatever n (_gather_sums): where a
      pass is bound by numpy's per-call cost, through n = 8;
    - a longer round runs its passes one digit at a time, the pass on
      digit q through the (2, 3^(n-1-q), 3, 3^q) view (_butterflies), so
      every read and write runs over at least 3^(n-d) contiguous values.
      The passes alternate between the live array and one spare allocated
      once per pass type; the first pass reads the caller's array, which
      is dropped after it.

    Each pass multiplies magnitudes by at most 3, whatever digit it
    transforms, so after pass p every value has magnitude at most 3^p
    and every partial sum of that pass is at most (2/sqrt 3) 3^p in
    absolute value: at most 93 through pass 4, 22 730 through pass 9.
    The bound depends on p alone, and each pass runs in the narrowest
    type that holds it (_pass_dtype: int8 through pass 4, int16 through
    pass 9, int32 after); a gather pass of passes p - 1 and p runs in the
    type of pass p, its lanes and nine-term sums included.  The live array
    is widened before the first pass of a wider type (by astype, or as
    a gather pass copies it into its lanes), never inside a pass, where a
    mixed-type sum would wrap first.  int32 holds every partial sum,
    below 2 * 3^n, for n <= EXACT_DIM (check_dim refuses larger n up
    front), so with the default width the result is exact.

    A narrower width of B bits caps the pass types there: the passes past
    its bound wrap mod 2^B, and since every pass only adds, subtracts and
    negates, the result is then the exact transform mod 2^B in both
    coefficients (the residues bent_profile reads).
    """
    assert 2 * 3 ** n < 2 ** 31, f"int32 transform is exact only for n <= {EXACT_DIM}"
    assert ab.dtype == np.int8 and ab.shape == (2, size(n)), "the transform input is (2, 3^n) int8"
    done = 0
    spare = None  # the array the next pass or copy writes
    for d in _round_plan(n):
        if d <= 2:  # passes done + 1 .. done + d in one gather pass
            ab = _gather_sums(ab, d, _pass_dtype(done + d, width))
        else:
            for j in range(d):  # pass done + j + 1, on digit n - 1 - j
                dtype = _pass_dtype(done + j + 1, width)
                if ab.dtype != dtype:
                    spare = None
                    ab = ab.astype(dtype)
                spare = np.empty_like(ab) if spare is None else spare
                view = (2, 3 ** j, 3, 3 ** (n - 1 - j))
                _butterflies(ab.reshape(view), spare.reshape(view))
                # the first pass read the caller's array: never a spare
                ab, spare = spare, (None if done + j == 0 else ab)
        # a gather pass may leave no spare, or one of a narrower type
        if spare is None or spare.dtype != ab.dtype:
            spare = np.empty_like(ab)
        low = 3 ** (n - d)
        np.copyto(spare.reshape(2, low, -1), ab.reshape(2, -1, low).transpose(0, 2, 1))
        ab, spare = spare, ab
        done += d
    spare = None  # dropped before any widening copy below
    return ab.astype(width, copy=False)


def _omega_sums(tables: Sequence[np.ndarray], dtype: type = np.int8) -> np.ndarray:
    """sum_i w^(t_i) over m int8 exponent tables t_i of one shape, with
    entries in {0, 1, 2}, as a (2, ...) array of type dtype.

    w^t = (1, 0), (0, 1), (-1, -1) for t = 0, 1, 2 is (1 - t) + (t - 3 c) w
    with c = t >> 1, so the sum is (m - s) + (s - 3 C) w for s the sum of
    the exponents and C that of the c: at most 2m in magnitude.  Both rows
    are written into one array, and a single table is read where it lies,
    with no copy through a sum.
    """
    s = sum(tables[1:], tables[0])
    ab = np.empty((2,) + s.shape, dtype)
    np.subtract(len(tables), s, out=ab[0])
    np.subtract(s, 3 * sum((t >> 1 for t in tables[1:]), tables[0] >> 1), out=ab[1])
    return ab


def _transform(f: TernaryFunction, width: type = np.int32) -> np.ndarray:
    """_radix3 of f's values w^f(x), in the given width.

    The input, _omega_sums of the one table, is built in the call, so
    that _radix3 holds the only reference and drops it after its first
    pass: a name bound to it here would keep it for the whole transform,
    2 B/point more.
    """
    return _radix3(_omega_sums([f.table]), f.n, width)


def walsh_spectrum(f: TernaryFunction) -> WalshSpectrum:
    """All transform values, exact in int32, via n rounds of radix-3
    butterflies in Z[w]."""
    return WalshSpectrum(f.n, _transform(f))


def walsh_point(f: TernaryFunction, alpha: int) -> Eisenstein:
    """Single transform value by direct summation of w^(f(x) - a.x).

    x = h 3^k + l (k = n // 2) has x.a = h.a_high + l.a_low, so the
    exponents come in int8 from the two half-width dot tables, a block of
    rows h of at most _NORM_BLOCK points at a time, as
    WalshSpectrum.norm_blocks reads its norms; nothing 3^n wide is built.
    """
    n = f.n
    if not 0 <= alpha < size(n):
        raise ValueError(f"point {alpha} out of range for n={n}")
    k = n // 2
    table = f.table.reshape(-1, size(k))
    high, low = dots_with(alpha // size(k), n - k), dots_with(alpha % size(k), k)
    rows = max(1, _NORM_BLOCK // size(k))
    zeros = ones = 0
    for start in range(0, len(table), rows):
        block = slice(start, start + rows)
        exps = table[block] - low
        exps -= high[block, None]
        exps %= 3
        zeros += int(np.count_nonzero(exps == 0))
        ones += int(np.count_nonzero(exps == 1))
    return root_sum([zeros, ones, size(n) - zeros - ones])


def is_bent(f: TernaryFunction) -> bool:
    """Whether every spectral value has squared norm 3^n: whether
    bent_profile certifies f rather than raising NotBentError."""
    try:
        bent_profile(f)
    except NotBentError:
        return False
    return True


def is_plateaued(f: TernaryFunction) -> int | None:
    """The plateau order s if every value has squared norm 3^(n+s) or 0.

    Bent functions return 0; a spectrum that fits no single level returns
    None.  An all-zero spectrum cannot occur (the squared norms sum to
    3^(2n)) and is asserted against.
    """
    levels: set[int] = set()
    holes = False
    for _, norms in walsh_spectrum(f).norm_blocks():
        nonzero = norms[norms != 0]
        holes = holes or nonzero.size < norms.size
        levels.update(np.unique(nonzero).tolist())
        if len(levels) > 1:
            return None
    assert levels, "spectrum cannot be identically zero"
    level = levels.pop()
    target = size(f.n)
    s = 0
    while target < level:
        target *= 3
        s += 1
    if target != level:
        return None
    if s == 0 and holes:
        return None  # bent level with holes is not 0-plateaued
    return s


def _unit_values(n: int) -> list[Eisenstein]:
    """The sign +1 spectral value of magnitude 3^(n/2), by dual value j.

    3^(n/2) w^j for even n; for odd n, i 3^(n/2) w^j written in the
    (1, w) basis as 3^((n-1)/2) (w^(j+1) - w^(j+2)).
    """
    if n % 2 == 0:
        return [omega_pow(j) * 3 ** (n // 2) for j in range(3)]
    half = 3 ** ((n - 1) // 2)
    return [(omega_pow(j + 1) - omega_pow(j + 2)) * half for j in range(3)]


def decode_coefficient(w: Eisenstein, n: int) -> tuple[int, int]:
    """Split a magnitude-3^(n/2) spectral value into (sign, dual value).

    For even n the value is +-3^(n/2) w^j; the sign is the leading +-1.
    For odd n it is +-i 3^(n/2) w^j = +-3^((n-1)/2) (w^(j+1) - w^(j+2)),
    and sign +1 stands for +i.  Raises if the value matches no candidate,
    which cannot happen when |w|^2 = 3^n.
    """
    if w.squared_norm() != 3 ** n:
        raise ValueError(f"squared norm {w.squared_norm()} is not 3^{n}")
    for j, base in enumerate(_unit_values(n)):
        if w == base:
            return 1, j
        if w == -base:
            return -1, j
    raise AssertionError(f"value {w} has bent magnitude but no sign/phase split")


@dataclass(frozen=True, eq=False)
class BentProfile:
    """Classification of a bent function's spectrum.

    sign[a] is +-1; for even n it is the literal unit in front of
    3^(n/2) w^dual(a), for odd n it stands for +-i.  The plus and minus
    point sets partition F_3^n accordingly; side_mask gives them as masks.
    f is the function profiled, held by reference.  type_span (the span V
    of the type side), dual_sign and dual_bent are built on first access,
    so every reader of one profile shares one span and one dual verdict.
    """

    n: int
    dual: TernaryFunction
    sign: np.ndarray
    type: BentType
    regularity: Regularity
    f: TernaryFunction

    def side_mask(self, t: BentType) -> np.ndarray:
        """Boolean mask over all 3^n points, true on the side t."""
        return self.sign == (1 if t is BentType.PLUS else -1)

    @cached_property
    def dual_sign(self) -> np.ndarray | None:
        """The dual's int8 sign per coset of V-perp, 3^dim V entries in the
        order of c (_dual_by_cosets), when the type side is a subspace;
        None when the dual is not bent, or when the type side is no
        subspace, where the sign is not one value per coset."""
        return _dual_by_cosets(self) if self.type_side_is_subspace() else None

    @cached_property
    def dual_bent(self) -> bool:
        """Whether the dual is bent: dual_sign's verdict when the type side
        is a subspace, else the dual's own transform, where the involution
        dual(dual(f)) = f that the code relies on is checked for even f."""
        if self.type_side_is_subspace():
            return self.dual_sign is not None
        try:
            of_dual = bent_profile(self.dual)
        except NotBentError:
            return False
        if self.f.is_even() and of_dual.dual != self.f:
            raise AssertionError("dual involution failed on an even dual-bent function")
        return True

    @cached_property
    def type_span(self) -> Subspace:
        """The span V of the type side, with a basis of V-perp as v.perp."""
        return span(self.side_mask(self.type), self.n)

    @cached_property
    def type_side_size(self) -> int:
        """The number of points on the type side."""
        return int(np.count_nonzero(self.side_mask(self.type)))

    def type_side_is_subspace(self) -> bool:
        """Whether the type side is its span V: it lies in V, so exactly
        when it has 3^dim V points."""
        return self.type_side_size == size(self.type_span.dim)


@cache
def _signed_inverse(scale: int, bits: int) -> int:
    """The inverse of the odd scale mod 2^bits, in [-2^(bits-1), 2^(bits-1))."""
    inv = pow(scale, -1, 2 ** bits)
    return inv - 2 ** bits if inv >= 2 ** (bits - 1) else inv


def _unit_lookup(ab: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign (+-1, or 0 where the value is no unit) and dual value of every
    spectral value a + b w of the (2, ...) array ab, of type int8, int16
    or int32, of B bits, as two int8 arrays.  ab is overwritten, so a
    caller that reads it afterwards passes a copy.
    The dual value means something only where the sign is nonzero.

    A value has squared norm 3^n exactly when it is a unit times
    (1 - w)^n: s w^j 3^(n/2) for even n, and for odd n
    s w^j 3^((n-1)/2) (1 + 2w), where 1 + 2w = w (1 - w).  An odd value is
    first divided by 1 + 2w: (a + b w)(2 + w) = (2a - b) + (a + b) w is
    3 / (1 - w) times it, so (2a - b, a + b) / 3^((n+1)/2) is s w^(j+1).
    At either parity the value becomes a quotient pair (qa, qb) times
    scale = 3^ceil(n/2), and the value is a unit's exactly when the pair
    is one of the six units +-(1, 0), +-(0, 1), +-(1, 1).

    The quotients come without division, as products with the inverse of
    the odd scale mod 2^B (the exact-division test of Granlund and
    Montgomery, PLDI 1994, section 9).  The products wrap mod 2^B, so
    q = x * inverse is x / scale whenever scale divides x.  Conversely, if
    q lies in [-1, 1] then q * scale = x mod 2^B.  Of the nine pairs with
    both q + 1, read as unsigned, at most 2, the three with t = qa + qb = 0
    (0 and +-(1 - w)) are no units, and on the six units s = t mod 3 and,
    from w^j = s (qa + qb w), j = s qb mod 3 (minus 1 for odd n, whose pair
    is s w^(j+1)).  So sign = (t + 4) % 3 - 1, which is 0 exactly at
    t = 0.  Both are read off in uint8 with a few whole-array operations
    and no gather (np.take by a 25-entry key cast the uint8 key to a 3^n
    intp copy); the residues mod 3 come from a floor division by 3, which
    numpy 2.4 ran about forty times faster than % on uint8 at n = 11.

    A hit says the value is congruent to a unit's mod 2^B componentwise
    (the map (a, b) -> (2a - b, a + b) has determinant 3, odd, so it is
    one-to-one mod 2^B).  The lookup is exact wherever every coefficient
    x it reads has |x - unit| < 2^B: on the exact int32 spectrum at
    n <= EXACT_DIM, |x - unit| <= 2^31 + 2 * 3^9 < 2^32.  The scale
    3^ceil(n/2) is asserted to be a B-bit value, which every use meets.
    On residues mod 2^B a hit says only that the value is a unit's
    up to a multiple of 2^B (at n = 10 the int16 lookup reads 3^5 + 2^16
    as the unit 3^5); bent_profile turns hits at every point into a
    proof.  The inverses are taken in [-2^(B-1), 2^(B-1)) and passed as
    numpy scalars of the input's type, so the products keep that type
    under numpy 1.24's value-based casting as under NEP 50; the unsigned
    inverse as a Python int would promote them under 1.24 and lose the
    wrap.
    """
    dtype = ab.dtype
    assert dtype in (np.int8, np.int16, np.int32), "the lookup wraps int8, int16 or int32 products"
    bits = 8 * dtype.itemsize
    assert 3 ** ((n + 1) // 2) < 2 ** (bits - 1), f"the scale at n={n} is no {bits}-bit value"
    (qa, qb), odd = ab, n % 2
    if odd:
        qb += qa
    qb *= dtype.type(_signed_inverse(3 ** (n - n // 2), bits))
    qa *= dtype.type(_signed_inverse(3 ** (n // 2), bits))
    if odd:
        qa -= qb  # (2a - b) / 3^((n+1)/2) = a / 3^((n-1)/2) - qb
    qa += 1
    qb += 1
    unsigned = f"u{dtype.itemsize}"
    exact = np.maximum(qa.view(unsigned), qb.view(unsigned)) <= 2
    # q + 1 lies in [0, 2] where exact; dual_of holds qb + 3 = qb mod 3
    dual_of = qb.astype(np.uint8)
    dual_of += 2
    sign = qa.astype(np.uint8)
    sign += dual_of  # t + 4
    sign -= sign // 3 * 3
    sign -= 1  # 255 for -1
    sign *= exact
    dual_of *= sign  # s qb mod 2^8, so 256 - (qb + 3) for s = -1
    dual_of += 8 if odd else 6  # nonnegative and below 13, = s qb - odd mod 3
    dual_of -= dual_of // 3 * 3
    return sign.view(np.int8), dual_of.view(np.int8)


def _residue_dtype(n: int) -> type:
    """The integer type whose residues bent_profile reads at n: the
    narrowest of B bits with 2^(B-1) > 3^(n/2) (see bent_profile)."""
    return _narrowest(math.isqrt(3 ** n))


def _not_bent_witness(spectrum: WalshSpectrum) -> NotBentError:
    """The NotBentError of the first point whose exact squared norm is not
    3^n, read one block at a time (WalshSpectrum.norm_blocks)."""
    expected = size(spectrum.n)
    for start, norms in spectrum.norm_blocks():
        off = np.flatnonzero(norms != expected)
        if off.size:
            witness = start + int(off[0])
            return NotBentError(witness, spectrum.value(witness).squared_norm(), expected)
    raise AssertionError("the residue lookup missed a point of a bent spectrum")


def bent_profile(f: TernaryFunction) -> BentProfile:
    """Dual, sign map, plus/minus partition, type and regularity of f.

    The transform runs in B-bit wrapping integers (_residue_dtype: int8
    through n = 8, int16 from n = 9), so it gives the spectrum W only mod
    2^B, and sign and dual value come from the unit lookup of those
    residues (_unit_lookup).  This is exact: say every point's residue
    hits one of the six unit keys, and let W' be the spectrum the keys
    give, so |W'(u)|^2 = 3^n at every u and W = W' + 2^B E with E over
    Z[w].  Parseval gives sum |W|^2 = 3^(2n) = sum |W'|^2, and expanding
    the left side gives

        2^B sum |E|^2 = -2 Re sum W' conj(E) <= 2 * 3^(n/2) sum |E|^2,

    since |E| <= |E|^2 for a nonzero Eisenstein integer.  So E = 0 when
    2^(B-1) > 3^(n/2), asserted below, and f is bent with exactly the
    sign and dual the residues give.  Conversely a bent f hits at every
    point, so a miss proves f is not bent.  The first miss need not be
    the first non-bent point (an earlier one may alias to a unit key), so
    on a miss the residues are dropped, only the exact int32 spectrum
    (walsh_spectrum) is computed, and _not_bent_witness reads the
    NotBentError off it.

    The type is the side of 0, and f is regular when every sign is +1 at
    even n, weakly regular when every sign is that of 0 otherwise.
    """
    n = f.n
    width = _residue_dtype(n)
    assert 4 ** (np.iinfo(width).bits - 1) > 3 ** n, "residues too narrow to certify bentness"
    sign, dual = _unit_lookup(_transform(f, width), n)
    if not sign.all():
        del sign, dual  # room for the exact spectrum
        raise _not_bent_witness(walsh_spectrum(f))
    has_plus = bool((sign == 1).any())
    has_minus = bool((sign == -1).any())
    btype = BentType.PLUS if sign[0] == 1 else BentType.MINUS
    if has_plus and has_minus:
        reg = Regularity.NON_WEAKLY_REGULAR
    elif has_minus:
        reg = Regularity.WEAKLY_REGULAR
    else:
        reg = Regularity.REGULAR if n % 2 == 0 else Regularity.WEAKLY_REGULAR
    return BentProfile(n=n, dual=TernaryFunction(n, dual), sign=sign,
                       type=btype, regularity=reg, f=f)


@cache
def _narrowest(bound: int) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound)


def _folded(h: np.ndarray, p: int, plus: Callable, minus: Callable) -> list[np.ndarray]:
    """The three slices of h at digit p, as (a, c, y) with y the p digits
    below it, slice c translated by c q: by q (plus) or -q = 2q (minus)."""
    view = h.reshape(-1, 3, size(p))
    return [view[:, 0], plus(view[:, 1]), minus(view[:, 2])]


def _coset_sums(t: np.ndarray, folds: Sequence[tuple[int, Callable, Callable]]) -> np.ndarray:
    """G(y) = sum_{z in V-perp} w^t(y + z) for an int8 exponent table t and
    V-perp spanned by the k rows q_j = 3^p + q of Subspace.coset_folds: 1
    at digit p, nothing above it and nothing at the other p.  The points y
    whose digits p are all 0 hold one point of each coset, and G is given
    there only, in index order with those digits dropped, as a (2, 3^(n-k))
    array in the narrowest type that holds 3^k.

    A fold removes one digit p, highest first: G_j(y) = sum_c
    G_(j-1)(y + c q_j) over c in F_3 for the y with digit p zero, and
    y + c q_j has c at p and y's lower digits moved by c q.  So the fold
    adds the three slices of the digit-p view, slice c translated by c q
    along the p digits below p (_folded), into an array a third the size;
    the higher digits, which q_j leaves alone, stay where they are.

    The first fold reads t (_omega_sums of its slices; with no fold, of t
    itself).  The rest run on the (2, ...) array, whose rows only stack
    more slices on the folds' first axis, so one translation moves both
    coefficients.
    """
    h = _omega_sums(_folded(t, *folds[0]) if folds else [t], _narrowest(3 ** len(folds)))
    for fold in folds[1:]:
        base, *shifted = _folded(h, *fold)
        h = sum(shifted, base)
    return h.reshape(2, -1)


def _dual_by_cosets(p: BentProfile) -> np.ndarray | None:
    """The sign of f's dual f* on each coset of V-perp, when the type side
    of f is a subspace V of dimension r = n - k, as 3^r int8 values in the
    order of c; None when f* is not bent.  No transform is taken: Poisson
    summation over V gives the dual's spectrum from f.

    With eps(x) = s_type on V and -s_type off it (s_type = +1 when the
    type side is the plus side), t(x) = f(-x), sum_x W_f(x) w^(-u.x) =
    3^n w^t(u) and sum_{x in V} W_f(x) w^(-u.x) = 3^r G(u), G(u) =
    sum_{z in V-perp} w^t(u + z), so

        sum_x eps(x) W_f(x) w^(-u.x) = s_type 3^r Z(u),
        Z(u) = 2 G(u) - 3^k w^t(u).

    W_f(x) = eps(x) c w^f*(x), with c = 3^(n/2) for even n and i 3^(n/2)
    for odd n, so the left side is c W_f*(u), and f* is bent exactly when
    every Z(u) is s 3^k w^j: then f**(u) = j and the dual's sign is
    s_type s, negated for odd n, where 1 / c = -i / 3^(n/2).

    Z(u) = s 3^k w^j means 2 G(u) = 3^k (w^t(u) + s w^j).  For j != t(u)
    the bracket is -w^m (m the third exponent) or a unit times 1 - w, of
    norm 1 or 3, so the right side has odd norm, while 4 divides the norm
    of 2 G(u).  For j = t(u), G(u) is 3^k w^t(u) (s = +1) or 0 (s = -1).
    |G(u)| <= 3^k, with equality only when t is constant on the coset
    u + V-perp, and G(u) = 0 exactly when t is balanced there.  So f* is
    bent exactly when t, or equally f, is constant or balanced on every
    coset of V-perp; then f** = t (f itself for even f), and s is +1 on a
    constant coset and -1 on a balanced one, so the constant cosets make
    up the dual's plus set exactly when constant_on_dual_plus.  So each
    folded sum (_coset_sums), one per coset, is read by its squared norm
    |G|^2 = a^2 - ab + b^2, which is 9^k on a constant coset and 0 on a
    balanced one; f* is bent exactly when no other norm occurs.  Its type
    holds 3^(2k+1), the norm at a = -b = 3^k, past int32 from k = 10.
    The sums are indexed by the point y of each coset whose fold
    digits are 0, with those digits dropped.  The fold digits are the free
    columns of V's reduced basis (V.coset_folds, built once per interned
    V), so the digits kept are V's pivots in ascending order, and y is
    the message u_c of core.pivot_points(V.pivots): entry c is the dual's
    sign at u_c.
    """
    f, n = p.f, p.n
    k = n - p.type_span.dim
    t = f.table if f.is_even() else negation(n)(f.table)
    norms = _squared_norms(_coset_sums(t, p.type_span.coset_folds), _narrowest(3 ** (2 * k + 1)))
    constant = norms == 9 ** k
    if np.count_nonzero(constant) + np.count_nonzero(norms == 0) < norms.size:
        return None
    s = 1 if constant_on_dual_plus(n, p.type) else -1
    sign = constant.view(np.int8) * np.int8(2 * s)
    sign -= np.int8(s)
    return sign


def is_dual_bent(f: TernaryFunction,
                 profile: BentProfile | None = None) -> tuple[bool, np.ndarray | None]:
    """Whether the dual of f is itself bent (profile.dual_bent, decided at
    most once per profile), and profile.dual_sign."""
    if profile is None:
        profile = bent_profile(f)
    return profile.dual_bent, profile.dual_sign


@dataclass(frozen=True, eq=False)
class PreimageSets:
    """Pre-images of the dual value, split by spectral sign.

    plus[i] holds the plus-side points with dual value i, minus[i] the
    minus-side ones, each as a sorted int64 index array; together the six
    arrays partition F_3^n.
    """

    n: int
    plus: dict[int, np.ndarray]
    minus: dict[int, np.ndarray]


def preimage_sets(profile: BentProfile) -> PreimageSets:
    dual = profile.dual.table
    on_plus, on_minus = profile.side_mask(BentType.PLUS), profile.side_mask(BentType.MINUS)
    levels = [dual == i for i in range(3)]
    plus = {i: np.flatnonzero(level & on_plus) for i, level in enumerate(levels)}
    minus = {i: np.flatnonzero(level & on_minus) for i, level in enumerate(levels)}
    return PreimageSets(profile.n, plus, minus)


def expected_preimage_sizes(n: int, r: int, j0: int, side: BentType) -> dict[int, int]:
    """Closed-form sizes of the type-side pre-image sets.

    Valid when the type side of an even non-weakly-regular dual-bent
    function is an r-dimensional subspace; keyed by dual value j0 + i,
    i = 0, 1, 2 in that order.  Each size is 3^(r-1) + sigma d(i), sigma
    -1 on the plus side and +1 on the minus side, where
    d(i) = 3^(n/2-1) - [i = 0] 3^(n/2) for even n and
    d(i) = legendre(i) 3^((n-1)/2) for odd n.
    """
    sigma = 1 - 2 * (side is BentType.PLUS)
    h = 3 ** (n // 2)
    d = [legendre(i) * h if n % 2 else h // 3 - (i == 0) * h for i in range(3)]
    return {(j0 + i) % 3: 3 ** (r - 1) + sigma * d[i] for i in range(3)}


# The theorem's hypotheses in the order they are decided and reported: the
# names of their stages, which a HypothesisError names them by too.
HYPOTHESES = ("bent", "non-weakly-regular", "even", "dual-bent",
              "type-side-subspace", "non-degenerate", "dimension-bound")


@dataclass(frozen=True)
class Stage:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class Hypotheses:
    """Every hypothesis of the theorem about f, each decided once.

    stages follow HYPOTHESES order.  After a failed bent stage nothing
    else is defined, and the non-degenerate and dimension-bound stages
    exist only when the type side is a subspace.  v is the span of the
    type side and r its dimension.
    """

    f: TernaryFunction
    stages: tuple[Stage, ...]
    profile: BentProfile | None = None
    v: Subspace | None = None

    @property
    def r(self) -> int | None:
        return None if self.v is None else self.v.dim

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def require(self, through: str = "dimension-bound") -> None:
        """Raise HypothesisError for the first failing stage up to and
        including `through`, in HYPOTHESES order."""
        for stage in self.stages:
            if not stage.ok:
                raise HypothesisError(stage.name, stage.detail)
            if stage.name == through:
                return


def establish(f: TernaryFunction, profile: BentProfile | None = None) -> Hypotheses:
    """Decide every hypothesis once, recording each even after one fails.

    Order: bent, non-weakly-regular, even, dual-bent, type-side-subspace,
    non-degenerate, dimension-bound.  The type side lies in its span V,
    so it is a subspace exactly when |side| = 3^dim V, and is_nondegenerate
    decides V from a Gram rank.  V and the dual's verdict come from
    profile.type_span and profile.dual_bent, each decided once per
    profile (the involution check included).
    """
    n = f.n
    if profile is None:
        try:
            profile = bent_profile(f)
        except NotBentError as exc:
            return Hypotheses(f, (Stage("bent", False, str(exc)),))
    stages = [Stage("bent", True, f"all squared norms 3^{n}")]

    nwr = profile.regularity is Regularity.NON_WEAKLY_REGULAR
    stages.append(Stage("non-weakly-regular", nwr, "" if nwr else
                        f"B_{profile.type.flipped().value}(f) is empty: "
                        f"function is {profile.regularity.value}"))
    even = f.is_even()
    stages.append(Stage("even", even, "" if even else "f(x) != f(-x) somewhere"))
    dual_ok = profile.dual_bent
    stages.append(Stage("dual-bent", dual_ok, "" if dual_ok else "dual function is not bent"))

    v = profile.type_span
    subspace = profile.type_side_is_subspace()
    stages.append(Stage("type-side-subspace", subspace, "" if subspace else
                        f"|side| = {profile.type_side_size} is not a subspace"))
    if subspace:
        nondeg = is_nondegenerate(v)
        stages.append(Stage("non-degenerate", nondeg, "" if nondeg else
                            "type side meets its complement beyond 0"))
        bound = v.dim >= n // 2 + 1
        stages.append(Stage("dimension-bound", bound, f"r = {v.dim}" if bound else
                            f"r = {v.dim} < floor(n/2)+1 = {n // 2 + 1}"))
    return Hypotheses(f, tuple(stages), profile, v)


@dataclass(frozen=True, eq=False)
class CosetStructure:
    """Verdict of the coset decomposition check of the dual's point sets.

    The type side V of f, when it is a non-degenerate subspace, splits
    into i_plus / i_minus (V meeting the dual's plus / minus set), whose
    cosets of V-perp tile the dual's plus / minus sets when
    coset_union_ok holds; f is constant on the cosets over the one named
    by constant_branch (which one depends on the parity of n and the
    side) when constant_ok holds.  Both verdicts are that the dual's sign
    is one value per coset (BentProfile.dual_sign is not None): see
    _dual_by_cosets, whose constant cosets are the branch's side.
    """

    coset_union_ok: bool
    constant_branch: str
    constant_ok: bool


def coset_structure(f: TernaryFunction, profile: BentProfile) -> CosetStructure:
    """The coset decomposition verdict of f.

    Requires f non-weakly regular, even, dual-bent, with the type side a
    non-degenerate subspace; raises HypothesisError naming the first
    failing requirement otherwise.
    """
    establish(f, profile).require(through="non-degenerate")
    tiled = profile.dual_sign is not None
    return CosetStructure(tiled, constant_branch(f.n, profile.type), tiled)


def constant_on_dual_plus(n: int, side: BentType) -> bool:
    """Whether f is constant on the cosets over i_plus, not i_minus: n even
    pairs the plus intersection with the plus side, odd n swaps that."""
    return (n % 2 == 0) == (side is BentType.PLUS)


def constant_branch(n: int, side: BentType) -> str:
    """The name of the branch whose cosets f is constant on."""
    return "i_plus" if constant_on_dual_plus(n, side) else "i_minus"
