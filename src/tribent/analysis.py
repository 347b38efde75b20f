"""Walsh-domain analysis of functions F_3^n -> F_3.

The transform of f at a is the exact Z[w] value sum_x w^(f(x) - a.x).
A bent function has every spectral value of squared norm 3^n; its profile
records the dual function, the per-point sign map, and the induced
partition of F_3^n into the plus and minus point sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Eisenstein,
    Subspace,
    check_dim,
    coord_matrix,
    decode,
    dots_with,
    legendre,
    neg_table,
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
    """A structural hypothesis needed by an operation does not hold."""

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
    """A function F_3^n -> F_3 stored as a dense table over point indices."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: Sequence[int] | np.ndarray):
        arr = np.asarray(table, dtype=np.int8) % 3
        if arr.shape != (size(n),):
            raise ValueError(f"table must have 3^{n} = {size(n)} entries, got {arr.shape}")
        self.n = n
        self.table = arr
        self.table.flags.writeable = False

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int],
                      cap: int | None = None) -> "TernaryFunction":
        check_dim(n, cap)
        return cls(n, [fn(decode(x, n)) % 3 for x in range(size(n))])

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
        return bool(np.array_equal(self.table, self.table[neg_table(self.n)]))

    def negated(self) -> "TernaryFunction":
        """The function -f (values negated mod 3)."""
        return TernaryFunction(self.n, (-self.table) % 3)

    def reflected(self) -> "TernaryFunction":
        """The function x -> f(-x)."""
        return TernaryFunction(self.n, self.table[neg_table(self.n)])

    def plus_constant(self, c: int) -> "TernaryFunction":
        return TernaryFunction(self.n, (self.table + c) % 3)


@dataclass(frozen=True)
class WalshSpectrum:
    """All 3^n transform values, as parallel integer coefficient arrays.

    value(a) = coeff_1[a] + coeff_w[a] * w.
    """

    n: int
    coeff_1: np.ndarray
    coeff_w: np.ndarray

    def value(self, a: int) -> Eisenstein:
        return Eisenstein(int(self.coeff_1[a]), int(self.coeff_w[a]))

    def squared_norms(self) -> np.ndarray:
        a, b = self.coeff_1, self.coeff_w
        return a * a - a * b + b * b

    def parseval_total(self) -> int:
        """Sum of squared norms; always 3^(2n)."""
        return int(self.squared_norms().sum())


# w^j as (1, w)-coefficient pairs, for vectorised table lookups
_W_RE = np.array([1, 0, -1], dtype=np.int64)
_W_IM = np.array([0, 1, -1], dtype=np.int64)


def _radix3_pass(a: np.ndarray, b: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One stratum of 3-point butterflies along the given axis.

    out[k] = u0 + w^(-k) u1 + w^(-2k) u2, applied in the (1, w) basis via
    w*(a, b) = (-b, a-b) and w^2*(a, b) = (b-a, -a).
    """
    u0a, u1a, u2a = (np.take(a, t, axis=axis) for t in range(3))
    u0b, u1b, u2b = (np.take(b, t, axis=axis) for t in range(3))
    o0a = u0a + u1a + u2a
    o0b = u0b + u1b + u2b
    o1a = u0a + (u1b - u1a) - u2b
    o1b = u0b - u1a + (u2a - u2b)
    o2a = u0a - u1b + (u2b - u2a)
    o2b = u0b + (u1a - u1b) - u2a
    return (np.stack([o0a, o1a, o2a], axis=axis),
            np.stack([o0b, o1b, o2b], axis=axis))


def walsh_spectrum(f: TernaryFunction) -> WalshSpectrum:
    """All transform values via n rounds of radix-3 butterflies in Z[w]."""
    n = f.n
    a = _W_RE[f.table].reshape((3,) * n)
    b = _W_IM[f.table].reshape((3,) * n)
    for axis in range(n):
        a, b = _radix3_pass(a, b, axis)
    return WalshSpectrum(n, a.reshape(-1), b.reshape(-1))


def walsh_point(f: TernaryFunction, alpha: int) -> Eisenstein:
    """Single transform value by direct summation of w^(f(x) - a.x)."""
    if not 0 <= alpha < size(f.n):
        raise ValueError(f"point {alpha} out of range for n={f.n}")
    exps = (f.table.astype(np.int64) - dots_with(alpha, f.n)) % 3
    counts = np.bincount(exps, minlength=3)
    return root_sum([int(c) for c in counts])


def is_bent(f: TernaryFunction) -> bool:
    spectrum = walsh_spectrum(f)
    return bool((spectrum.squared_norms() == size(f.n)).all())


def is_plateaued(f: TernaryFunction) -> int | None:
    """The plateau order s if every value has squared norm 3^(n+s) or 0.

    Bent functions return 0; a spectrum that fits no single level returns
    None.  An all-zero spectrum cannot occur (the squared norms sum to
    3^(2n)) and is asserted against.
    """
    norms = walsh_spectrum(f).squared_norms()
    nonzero = np.unique(norms[norms != 0])
    assert nonzero.size > 0, "spectrum cannot be identically zero"
    if nonzero.size != 1:
        return None
    level = int(nonzero[0])
    target = size(f.n)
    s = 0
    while target < level:
        target *= 3
        s += 1
    if target != level:
        return None
    if s == 0 and (norms == 0).any():
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


@dataclass(frozen=True)
class BentProfile:
    """Classification of a bent function's spectrum.

    sign[a] is +-1; for even n it is the literal unit in front of
    3^(n/2) w^dual(a), for odd n it stands for +-i.  The plus and minus
    point sets partition F_3^n accordingly.
    """

    n: int
    dual: TernaryFunction
    sign: np.ndarray
    b_plus: frozenset[int]
    b_minus: frozenset[int]
    type: BentType
    regularity: Regularity

    def side(self, t: BentType) -> frozenset[int]:
        return self.b_plus if t is BentType.PLUS else self.b_minus

    def type_side(self) -> frozenset[int]:
        """The point set containing 0 (the side naming the type)."""
        return self.side(self.type)


def bent_profile(f: TernaryFunction) -> BentProfile:
    """Dual, sign map, plus/minus partition, type and regularity of f.

    Raises NotBentError (with a witness point) when some spectral value
    has the wrong magnitude.
    """
    n = f.n
    spectrum = walsh_spectrum(f)
    norms = spectrum.squared_norms()
    bad = np.flatnonzero(norms != size(n))
    if bad.size:
        witness = int(bad[0])
        raise NotBentError(witness, int(norms[witness]), size(n))

    sign = np.zeros(size(n), dtype=np.int8)
    dual = np.zeros(size(n), dtype=np.int8)
    a, b = spectrum.coeff_1, spectrum.coeff_w
    for j, base in enumerate(_unit_values(n)):
        for s, v in ((1, base), (-1, -base)):
            mask = (a == v.a) & (b == v.b)
            sign[mask] = s
            dual[mask] = j
    assert (sign != 0).all(), "every bent value must match a sign/phase candidate"

    b_plus = frozenset(np.flatnonzero(sign == 1).tolist())
    b_minus = frozenset(np.flatnonzero(sign == -1).tolist())
    btype = BentType.PLUS if 0 in b_plus else BentType.MINUS
    if b_plus and b_minus:
        reg = Regularity.NON_WEAKLY_REGULAR
    elif b_minus:
        reg = Regularity.WEAKLY_REGULAR
    else:
        reg = Regularity.REGULAR if n % 2 == 0 else Regularity.WEAKLY_REGULAR
    return BentProfile(
        n=n,
        dual=TernaryFunction(n, dual),
        sign=sign,
        b_plus=b_plus,
        b_minus=b_minus,
        type=btype,
        regularity=reg,
    )


def is_dual_bent(f: TernaryFunction,
                 profile: BentProfile | None = None) -> tuple[bool, BentProfile | None]:
    """Whether the dual of f is itself bent; the dual's profile if so.

    For even f the involution dual(dual(f)) = f is also verified, since
    the code downstream relies on it.
    """
    if profile is None:
        profile = bent_profile(f)
    try:
        dual_profile = bent_profile(profile.dual)
    except NotBentError:
        return False, None
    if f.is_even() and dual_profile.dual != f:
        raise AssertionError("dual involution failed on an even dual-bent function")
    return True, dual_profile


def expected_s0_minus_s1(f: TernaryFunction, y: int) -> Eisenstein:
    """The exact closed form of S0 - S1 at y: 3^(n/2) w^f(y) for even n,
    -i 3^(n/2) w^f(y) = 3^((n-1)/2) (w^(f(y)+2) - w^(f(y)+1)) for odd n."""
    unit = _unit_values(f.n)[f(y)]
    return unit if f.n % 2 == 0 else -unit


def s0_s1(f: TernaryFunction, y: int, profile: BentProfile) -> tuple[Eisenstein, Eisenstein]:
    """The plus-side and minus-side dual character sums at y.

    S0 sums w^(dual(a) + a.y) over the plus set, S1 over the minus set;
    their difference always equals expected_s0_minus_s1(f, y).
    """
    n = f.n
    exps = (profile.dual.table.astype(np.int64) + dots_with(y, n)) % 3
    sums = []
    for points in (profile.b_plus, profile.b_minus):
        if points:
            idx = np.fromiter(points, dtype=np.int64)
            counts = np.bincount(exps[idx], minlength=3)
        else:
            counts = np.zeros(3, dtype=np.int64)
        sums.append(root_sum([int(c) for c in counts]))
    return sums[0], sums[1]


@dataclass(frozen=True)
class PreimageSets:
    """Pre-images of the dual value, split by spectral sign.

    plus[i] collects the plus-side points with dual value i, minus[i]
    the minus-side ones; together they partition F_3^n.
    """

    n: int
    plus: dict[int, frozenset[int]]
    minus: dict[int, frozenset[int]]


def preimage_sets(profile: BentProfile) -> PreimageSets:
    dual = profile.dual.table
    plus = {}
    minus = {}
    for i in range(3):
        level = np.flatnonzero(dual == i).tolist()
        plus[i] = frozenset(level) & profile.b_plus
        minus[i] = frozenset(level) & profile.b_minus
    return PreimageSets(profile.n, plus, minus)


def expected_preimage_sizes(n: int, r: int, j0: int, side: BentType) -> dict[int, int]:
    """Closed-form sizes of the type-side pre-image sets.

    Valid when the type side of an even non-weakly-regular dual-bent
    function is an r-dimensional subspace; keyed by dual value.
    """
    sizes = {}
    if side is BentType.PLUS:
        if n % 2 == 0:
            base = 3 ** (r - 1) - 3 ** (n // 2 - 1)
            for i in range(3):
                sizes[(j0 + i) % 3] = base + (3 ** (n // 2) if i == 0 else 0)
        else:
            for i in range(3):
                sizes[(j0 + i) % 3] = 3 ** (r - 1) - legendre(i) * 3 ** ((n - 1) // 2)
    else:
        if n % 2 == 0:
            base = 3 ** (r - 1) + 3 ** (n // 2 - 1)
            for i in range(3):
                sizes[(j0 + i) % 3] = base - (3 ** (n // 2) if i == 0 else 0)
        else:
            for i in range(3):
                sizes[(j0 + i) % 3] = 3 ** (r - 1) + legendre(i) * 3 ** ((n - 1) // 2)
    return sizes


# The theorem's hypotheses in the order they are decided and reported, each
# with the phrase a HypothesisError names it by.
HYPOTHESES = {
    "bent": "bent",
    "non-weakly-regular": "non-weakly-regular",
    "even": "even function",
    "dual-bent": "dual bent",
    "type-side-subspace": "type side is a subspace",
    "non-degenerate": "type side non-degenerate",
    "dimension-bound": "dimension bound",
}


@dataclass(frozen=True)
class Stage:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Hypotheses:
    """Every hypothesis of the theorem about f, each decided once.

    stages follow HYPOTHESES order.  After a failed bent stage nothing
    else is defined, and the non-degenerate and dimension-bound stages
    exist only when the type side is a subspace.  v is the span of the
    type side, r its dimension, and in_kernel is true exactly on the
    points of V-perp.
    """

    f: TernaryFunction
    stages: tuple[Stage, ...]
    profile: BentProfile | None = None
    dual_profile: BentProfile | None = None
    v: Subspace | None = None
    in_kernel: np.ndarray | None = None

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
                raise HypothesisError(HYPOTHESES[stage.name], stage.detail)
            if stage.name == through:
                return


def establish(f: TernaryFunction, profile: BentProfile | None = None) -> Hypotheses:
    """Decide every hypothesis once, recording each even after one fails.

    Order: bent, non-weakly-regular, even, dual-bent, type-side-subspace,
    non-degenerate, dimension-bound.  The type side lies in its span V,
    so it is a subspace exactly when |side| = 3^dim V; V is non-degenerate
    exactly when the kernel mask (V-perp) meets the side only at 0.
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
    dual_ok, dual_profile = is_dual_bent(f, profile)
    stages.append(Stage("dual-bent", dual_ok, "" if dual_ok else "dual function is not bent"))

    side = profile.type_side()
    v = span(side, n)
    coords = coord_matrix(n).astype(np.int64)
    in_kernel = ~((coords @ coords[list(v.basis)].T) % 3).any(axis=1)
    subspace = len(side) == size(v.dim)
    stages.append(Stage("type-side-subspace", subspace, "" if subspace else
                        f"|side| = {len(side)} is not a subspace"))
    if subspace:
        side_idx = np.fromiter(side, dtype=np.int64, count=len(side))
        nondeg = int(np.count_nonzero(in_kernel[side_idx])) == 1
        stages.append(Stage("non-degenerate", nondeg, "" if nondeg else
                            "type side meets its complement beyond 0"))
        bound = v.dim >= n // 2 + 1
        stages.append(Stage("dimension-bound", bound, f"r = {v.dim}" if bound else
                            f"r = {v.dim} < floor(n/2)+1 = {n // 2 + 1}"))
    return Hypotheses(f, tuple(stages), profile, dual_profile, v, in_kernel)


@dataclass(frozen=True)
class CosetStructure:
    """Result of the coset decomposition check of the dual's point sets.

    The type side V of f, when it is a non-degenerate subspace, splits
    into index sets i_plus / i_minus whose cosets of V-perp tile the
    dual's plus / minus sets; f is constant on the cosets over one of the
    two index sets (which one depends on the parity of n and the side).
    """

    side: BentType
    subspace: Subspace
    i_plus: frozenset[int]
    i_minus: frozenset[int]
    coset_union_ok: bool
    constant_branch: str
    constant_ok: bool
    dual_profile: BentProfile


def coset_structure(f: TernaryFunction, profile: BentProfile) -> CosetStructure:
    """Verify the coset tiling of the dual's point sets, exhaustively.

    Requires f non-weakly regular, even, dual-bent, with the type side a
    non-degenerate subspace; raises HypothesisError naming the first
    failing requirement otherwise.
    """
    return coset_tiling(establish(f, profile))


def coset_tiling(hyp: Hypotheses) -> CosetStructure:
    """coset_structure on hypotheses already established."""
    hyp.require(through="non-degenerate")
    f, profile, dual_profile = hyp.f, hyp.profile, hyp.dual_profile
    n = f.n
    side_set = profile.type_side()
    i_plus = side_set & dual_profile.b_plus
    i_minus = side_set & dual_profile.b_minus
    coords = coord_matrix(n)
    perp = coords[np.flatnonzero(hyp.in_kernel)]  # first row is the point 0
    weights = 3 ** np.arange(n, dtype=np.int64)

    def cosets(reps: frozenset[int]) -> np.ndarray:
        """Row k holds the points of u_k + V-perp, u_k first."""
        idx = np.fromiter(reps, dtype=np.int64, count=len(reps))
        return ((coords[idx][:, None, :] + perp[None, :, :]) % 3) @ weights

    union_ok = (frozenset(cosets(i_plus).ravel().tolist()) == dual_profile.b_plus
                and frozenset(cosets(i_minus).ravel().tolist()) == dual_profile.b_minus)

    # n even pairs the constant restriction with the plus intersection on
    # the plus side (and the minus intersection on the minus side); odd n
    # swaps the pairing.
    on_plus = (n % 2 == 0) == (profile.type is BentType.PLUS)
    branch_name = "i_plus" if on_plus else "i_minus"
    values = f.table[cosets(i_plus if on_plus else i_minus)]
    constant_ok = bool((values == values[:, :1]).all())

    return CosetStructure(
        side=profile.type,
        subspace=hyp.v,
        i_plus=i_plus,
        i_minus=i_minus,
        coset_union_ok=union_ok,
        constant_branch=branch_name,
        constant_ok=constant_ok,
        dual_profile=dual_profile,
    )
