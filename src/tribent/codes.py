"""Defining-set linear codes over F_3 and their closed-form predictions.

A defining set S (nonzero points of F_3^n) yields the code whose
codewords are (u.x for x in S) over all messages u.  For the four
eligible combinations of n-parity and spectral type, the weight
distribution of the code built on the selected dual pre-image set has an
exact closed form, checked here both in aggregate and codeword by
codeword.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import (
    BentProfile,
    BentType,
    Hypotheses,
    PreimageSets,
    TernaryFunction,
    _radix3,
    constant_on_dual_plus,
    establish,
    expected_preimage_sizes,
    preimage_sets,
)
from .core import (
    EXACT_DIM,
    Subspace,
    pivot_points,
    size,
)


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """Nonzero points of F_3^n as a read-only boolean mask over F_3^n (a
    copy of the given one), and their number, size.  Equality is
    identity."""

    n: int
    mask: np.ndarray
    size: int = field(init=False)

    def __post_init__(self):
        mask = np.array(self.mask)
        if mask.dtype != bool or mask.shape != (size(self.n),):
            raise ValueError(f"defining set must be a boolean mask of shape ({size(self.n)},), "
                             f"got {mask.dtype} of shape {mask.shape}")
        if not mask.any():
            raise ValueError("defining set must be nonempty")
        if mask[0]:
            raise ValueError("defining set must not contain 0")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", np.count_nonzero(mask))

    @classmethod
    def from_points(cls, points: np.ndarray | Sequence[int], n: int) -> "DefiningSet":
        """The distinct nonzero points of an index array; a point that is
        not an integer in [0, 3^n) raises ValueError naming it."""
        pts = np.asarray(points)
        bad = pts if pts.dtype.kind not in "iu" else pts[(pts < 0) | (pts >= size(n))]
        if bad.size:
            raise ValueError(f"defining-set point {bad.flat[0]} is not an integer in [0, 3^{n})")
        mask = np.zeros(size(n), dtype=bool)
        mask[pts.astype(np.int64)] = True
        mask[0] = False
        return cls(n, mask)

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True, eq=False)
class LinearCode:
    """Measured parameters of a defining-set code.

    distribution maps Hamming weight to codeword count and includes the
    zero codeword at weight 0; counts sum to 3^dimension.  pivots and
    message_weights (left out of repr) are what message_weights(defining,
    v) returns for the subspace v the code was built over: entry c holds
    the weight of the codeword of messages()[c].  Equality is identity.
    """

    defining: DefiningSet
    length: int
    dimension: int
    distribution: dict[int, int]
    pivots: tuple[int, ...]
    message_weights: np.ndarray = field(repr=False)

    @property
    def min_distance(self) -> int:
        return min(w for w in self.distribution if w > 0)

    def parameters(self) -> tuple[int, int, int]:
        return (self.length, self.dimension, self.min_distance)

    def messages(self) -> np.ndarray:
        """The message u_c of every entry c of message_weights (int64):
        u_0 = 0 first, and one message per coset of v-perp."""
        return pivot_points(self.pivots)


def message_weights(s: DefiningSet, v: Subspace) -> tuple[tuple[int, ...], np.ndarray]:
    """The pivot columns P of a subspace v that holds S, and the weight of
    the codeword of every message u_c, indexed by c in F_3^r (int32,
    r = |P| = dim v).

    B[:, P] is the identity for the reduced basis B of v, so the message
    u_c = sum_i c_i e_{P_i} has u_c . x = c . x[P] for x in v: the u_c
    are one message per coset of v-perp, whose members all give the
    codeword of u_c on S.  v is reduced once by its caller (run_pipeline
    passes the type side's span V).  S's mask read at v.members(), x = c B
    at entry c, is S's indicator over F_3^r.  One radix-3 transform of it
    gives a + b*w at every c, the conjugate of chi_c = sum over S of
    w^(c . x[P]); at c = 0, the count of the gathered ones, |S| exactly
    when S lies in v.  2a - b is the sum of chi_c over the two nontrivial
    field automorphisms, which conjugation keeps, so the weight at c is
    num / 3 with num = 2|S| - (2a - b).

    The division is a product with the inverse of 3 mod 2^32 (as in
    analysis._unit_lookup): q = num * 0xAAAAAAAB wraps in uint32, and
    q <= |S| is asserted at every c.  That holds exactly when num = 3w
    with 0 <= w <= |S|, and then q = w.  For the converse: both
    coefficients count points of S with sign, so |a|, |b| <= |S| <= 3^r
    and num lies in [-|S|, 5|S|], within int32 since 5 * 3^r < 2^31 for
    r <= EXACT_DIM.  If q <= |S| then 3q = num mod 2^32 with
    |3q - num| <= 5 * 3^r < 2^32, so 3q = num.  The test is stronger than
    a zero remainder: a multiple of 3 outside [0, 3|S|] fails it too.
    """
    r = v.dim
    # the indicator is built in the call, so from r = 9 _radix3 drops it after one pass
    a, b = _radix3(s.mask[v.members()].view(np.int8), np.zeros(size(r), np.int8), r)
    assert a[0] == len(s), "the defining set must lie in v"
    assert 5 * size(r) < 2 ** 31, f"int32 weights are exact only for r <= {EXACT_DIM}"
    num = 2 * len(s) - (2 * a - b)
    q = num.view(np.uint32) * np.uint32(pow(3, -1, 2 ** 32))
    assert (q <= len(s)).all(), "character-sum weight must be an integer in [0, |S|]"
    return v.pivots, q.view(np.int32)


def build_code(s: DefiningSet, v: Subspace) -> LinearCode:
    """Measure dimension and weight distribution over a subspace v that
    holds S, each codeword once.

    Each codeword arises once per message u_c of message_weights(s, v) in
    the kernel's coset, so m = 3^(dim v - dim span S) times, and the
    kernel is exactly where the weight is 0: asserted are that the zero
    count m is a power of 3 and divides every count, and the dimension is
    dim v - log3 m, with no second reduction.  m = 1 whenever
    span(S) = v, as on every passing verdict.  On the divided
    distribution, asserted are a single codeword of weight 0, and the
    first Pless power moment: no coordinate of the code is identically
    zero (0 is not in S), so the weights sum to 2 * 3^(r-1) * |S| over the
    3^r codewords, r the dimension.
    """
    pivots, weights = message_weights(s, v)
    counts = np.bincount(weights, minlength=len(s) + 1)
    kernel = int(counts[0])
    kernel_dim = len(np.base_repr(kernel, 3)) - 1
    assert kernel == 3 ** kernel_dim, f"zero-weight count {kernel} is not a power of 3"
    assert not (counts % kernel).any(), "the kernel size must divide every weight count"
    counts //= kernel
    r = len(pivots) - kernel_dim
    present = np.flatnonzero(counts)
    distribution = dict(zip(present.tolist(), counts[present].tolist()))
    assert distribution.get(0) == 1
    assert sum(w * e for w, e in distribution.items()) == 2 * 3 ** (r - 1) * len(s), \
        "first Pless power moment"
    return LinearCode(defining=s, length=len(s), dimension=r, distribution=distribution,
                      pivots=pivots, message_weights=weights)


# ---------------------------------------------------------------------------
# Case selection and closed forms
# ---------------------------------------------------------------------------

class CodeCase(enum.Enum):
    EVEN_PLUS = "even-plus"
    ODD_PLUS = "odd-plus"
    EVEN_MINUS = "even-minus"
    ODD_MINUS = "odd-minus"

    @property
    def parity(self) -> int:
        return int(self.value.startswith("odd"))

    @property
    def side(self) -> BentType:
        return BentType.PLUS if self.value.endswith("plus") else BentType.MINUS


def case_for(n: int, btype: BentType) -> CodeCase:
    return CodeCase(f"{'odd' if n % 2 else 'even'}-{btype.value}")


class _CaseRule(NamedTuple):
    """One case's closed forms.  offset is the i of the selected pre-image
    (dual value j0 + i).  weight_offsets are the c of the weights
    2 (3^(r-2) + c 3^(ceil(n/2)-2)), w1 (the lowest) first.  counts are
    the (a, b, c) of the multiplicities a 3^r + b 3^(2r-n-1)
    + c 3^(r-floor(n/2)-1) of w1, w2, w3, less 1 for w1 (the zero
    codeword); alt_w1_count is the same form, with nothing subtracted, of
    an alternative tabulated reading of w1's count.  weight_class gives
    the weight (index 0, 1, 2 for w1, w2, w3) of a message off the
    kernel, by [u in the dual's plus set][(f(u) - j0) % 3]."""

    offset: int
    weight_offsets: tuple[int, int, int]
    counts: tuple[tuple[int, int, int], ...]
    alt_w1_count: tuple[int, int, int] | None
    weight_class: np.ndarray


_CASE_RULES = {
    CodeCase.EVEN_PLUS: _CaseRule(0, (0, 3, 2), ((0, 1, 2), (0, 2, -2), (1, -3, 0)),
                                  (0, 1, 1), np.array([[2, 2, 2], [0, 1, 1]])),
    CodeCase.ODD_PLUS: _CaseRule(2, (0, 1, 2), ((0, 1, 0), (1, -2, -1), (0, 1, 1)), None,
                                 np.array([[0, 2, 1], [1, 1, 1]])),
    # offset 1 is equally valid; 2 is the tabulated one
    CodeCase.EVEN_MINUS: _CaseRule(2, (0, 3, 1), ((0, 2, -1), (0, 1, 1), (1, -3, 0)), None,
                                   np.array([[0, 0, 1], [2, 2, 2]])),
    CodeCase.ODD_MINUS: _CaseRule(1, (0, 1, 2), ((0, 1, 0), (1, -2, -1), (0, 1, 1)), None,
                                  np.array([[1, 1, 1], [0, 1, 2]])),
}

# f is constant on the cosets of V-perp only on one branch, the dual's
# side whose cosets are constant (analysis._dual_by_cosets), so the
# weight-class row of the other branch must not read f; the branch depends
# on n only through its parity
assert all(len(set(rule.weight_class[int(not constant_on_dual_plus(case.parity, case.side))]))
           == 1 for case, rule in _CASE_RULES.items())


def selected_dual_value(case: CodeCase, j0: int) -> int:
    """Which pre-image of the dual is the defining set for each case."""
    return (j0 + _CASE_RULES[case].offset) % 3


@dataclass(frozen=True, eq=False)
class SelectionContext:
    """Everything the selector established on the way to a defining set.

    value is the dual value whose type-side pre-image is the defining set.
    """

    case: CodeCase
    j0: int
    r: int
    defining: DefiningSet
    hypotheses: Hypotheses
    value: int

    @property
    def preimages(self) -> PreimageSets:
        """All six pre-image sets of the dual, computed on each access."""
        return preimage_sets(self.hypotheses.profile)


def select_defining_set(f: TernaryFunction,
                        profile: BentProfile | None = None) -> SelectionContext:
    """Pick the theorem-grade pre-image defining set for f.

    The hypotheses are decided by analysis.establish; a failure raises
    HypothesisError naming the first failing stage of analysis.HYPOTHESES.
    """
    return defining_set_for(establish(f, profile))


def preimage_points(profile: BentProfile, side: BentType, value: int) -> np.ndarray:
    """The nonzero points on `side` where the dual takes `value`, as a
    boolean mask over F_3^n: a candidate defining set."""
    mask = (profile.dual.table == value) & profile.side_mask(side)
    mask[0] = False
    return mask


def defining_set_for(hyp: Hypotheses) -> SelectionContext:
    """select_defining_set on hypotheses already established."""
    hyp.require()
    f, profile = hyp.f, hyp.profile
    j0 = f(0)
    case = case_for(f.n, profile.type)
    value = selected_dual_value(case, j0)
    defining = DefiningSet(f.n, preimage_points(profile, case.side, value))
    return SelectionContext(case, j0, hyp.r, defining, hyp, value)


@dataclass(frozen=True)
class WeightPrediction:
    """Closed-form length and weight distribution for one case.

    distribution includes the zero codeword and no weight of count 0 (at
    odd n and r = (n+1)/2 the code has two weights).  alt_low_weight_count
    is a case's alternative tabulated reading of the lowest weight's count
    (even/plus only) where it disagrees with the counting argument used
    here, so reports can flag the discrepancy.
    """

    case: CodeCase
    n: int
    r: int
    length: int
    distribution: dict[int, int]
    alt_low_weight_count: int | None = None

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(sorted(w for w in self.distribution if w > 0))

    @property
    def min_distance(self) -> int:
        return self.weights[0]


def _case_weights(case: CodeCase, n: int, r: int) -> tuple[int, int, int]:
    """The three nonzero weights (w1, w2, w3) of a case, w1 the lowest."""
    base, unit = 3 ** (r - 2), 3 ** ((n + 1) // 2 - 2)
    return tuple(2 * (base + c * unit) for c in _CASE_RULES[case].weight_offsets)


# The largest n predict_distribution accepts: the tests assert the first
# three Pless power moments of every case's closed forms at every r up to
# it, so every n accepted is an n checked.
PREDICT_MAX_N = 60


def predict_distribution(case: CodeCase, n: int, r: int) -> WeightPrediction:
    """Exact predicted [length, r] parameters and weight multiplicities.

    Validates parity, n >= 3 (below that the exponents go negative),
    n <= PREDICT_MAX_N, the dimension bound and r < n (r = n leaves the
    other side empty: f would be weakly regular); every multiplicity below
    is an integer and they sum (with the zero codeword) to 3^r.  The
    length is the size of the selected pre-image, less the point 0, which
    carries dual value j0.
    """
    if n % 2 != case.parity:
        raise ValueError(f"case {case.value} needs n parity {case.parity}, got n={n}")
    if n < 3:
        raise ValueError(f"n={n} below 3, where the closed forms do not apply")
    if n > PREDICT_MAX_N:
        raise ValueError(f"n={n} exceeds {PREDICT_MAX_N}, the largest n whose "
                         "closed forms are checked")
    if r < n // 2 + 1:
        raise ValueError(f"r={r} below the bound floor(n/2)+1={n // 2 + 1}")
    if r > n:
        raise ValueError(f"r={r} exceeds n={n}, the dimension of F_3^n")
    if r == n:
        raise ValueError(f"r={r} equals n: the other side would be empty, "
                         "so f would be weakly regular")

    rule = _CASE_RULES[case]
    i = rule.offset
    length = expected_preimage_sizes(n, r, 0, case.side)[i] - (i == 0)
    basis = (3 ** r, 3 ** (2 * r - n - 1), 3 ** (r - n // 2 - 1))

    def count(row: tuple[int, int, int]) -> int:
        return sum(a * b for a, b in zip(row, basis))

    counts = [count(row) for row in rule.counts]
    counts[0] -= 1
    assert min(counts) >= 0
    dist = {0: 1, **{w: e for w, e in zip(_case_weights(case, n, r), counts) if e}}
    assert sum(dist.values()) == 3 ** r
    alt = None if rule.alt_w1_count is None else count(rule.alt_w1_count)
    return WeightPrediction(case, n, r, length, dist, None if alt == counts[0] else alt)


class WeightClassifier:
    """Per-codeword weight prediction for a selected defining set.

    Reads f and the dual's sign from the established hypotheses, so
    classifying one message per codeword is a table walk.
    """

    def __init__(self, ctx: SelectionContext):
        self.ctx = ctx
        self.f = ctx.hypotheses.f

    def expected_weights(self, code: LinearCode) -> np.ndarray:
        """The case table at the representatives u_c of code (int32), in
        the order of c: entry 3 * [u in dual plus] + f(u) of a flat
        seven-entry table, which holds the weight picked by dual-side
        membership and (f(u) - j0) % 3, and entry 6, weight 0, at u_0 = 0,
        the only representative in the kernel.  Each row of the case's
        classes is rolled by j0, so the key is computed in int8 with no
        reduction mod 3.  The dual's sign per coset (BentProfile.dual_sign)
        is already in the order of c.  f is read through a view of its
        (3,) * n reshape, where digit p is axis n-1-p: each pivot axis
        sliced, every other axis at 0.  Its C order is the order of c
        because the pivots ascend, as reduction lists them, so the sign
        takes its shape."""
        n, pivots = self.f.n, code.pivots
        assert list(pivots) == sorted(set(pivots)), "pivots must ascend"
        at = tuple(slice(None) if p in pivots else 0 for p in range(n - 1, -1, -1))
        case = self.ctx.case
        classes = _CASE_RULES[case].weight_class[:, (np.arange(3) - self.ctx.j0) % 3]
        table = np.zeros(7, dtype=np.int32)
        table[:6] = np.array(_case_weights(case, n, self.ctx.r))[classes].ravel()
        f_at = self.f.table.reshape((3,) * n)[at]
        in_dual_plus = (self.ctx.hypotheses.profile.dual_sign == 1).reshape(f_at.shape)
        key = (in_dual_plus.view(np.int8) * np.int8(3) + f_at).reshape(-1)
        key[0] = 6
        return table[key]  # np.take would cast the whole key to intp

    def check_all(self, code: LinearCode) -> int | None:
        """First representative u_c, in the order of c, whose measured
        weight differs from the prediction, or None when all 3^r agree.

        That decides all 3^n messages when code.dimension == r
        (run_pipeline checks it): then span(S) = V, so the weights are
        constant on the cosets of V-perp, and so is the prediction.  The
        dual's sign is one value per coset, and f is constant on the
        cosets of the branch's side (analysis._dual_by_cosets), while the
        row off that side is constant.  There is one u_c per coset;
        code.messages() only names a mismatch."""
        mismatch = np.flatnonzero(self.expected_weights(code) != code.message_weights)
        return int(code.messages()[mismatch[0]]) if mismatch.size else None


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def enumerator_string(distribution: dict[int, int]) -> str:
    """Canonical '1+E1y^a1+...' form, ascending in weight."""
    parts = ["1"]
    for w in sorted(distribution):
        if w == 0:
            continue
        parts.append(f"{distribution[w]}y^{w}")
    return "+".join(parts)


@dataclass
class CodeReport:
    """Serializable record of one measured code and its prediction."""

    n: int
    r: int
    case: str | None
    length: int
    dimension: int
    min_distance: int
    distribution: list[tuple[int, int]]
    enumerator: str
    prediction: dict | None
    match: bool
    notes: list[str] = field(default_factory=list)


def code_report(code: LinearCode, prediction: WeightPrediction | None,
                case: CodeCase | None, r: int) -> CodeReport:
    dist_pairs = sorted(code.distribution.items())
    notes = []
    match = True
    pred_dict = None
    if prediction is not None:
        pred_dict = {
            "length": prediction.length,
            "dimension": prediction.r,
            "distribution": sorted(prediction.distribution.items()),
            "enumerator": enumerator_string(prediction.distribution),
        }
        match = (code.length == prediction.length
                 and code.dimension == prediction.r
                 and code.distribution == prediction.distribution)
        if prediction.alt_low_weight_count is not None:
            w1 = prediction.min_distance
            measured = code.distribution.get(w1, 0)
            notes.append(
                "low-weight multiplicity discrepancy: counting argument gives "
                f"{prediction.distribution[w1]} at weight {w1}, the alternative "
                f"tabulated reading gives {prediction.alt_low_weight_count}; "
                f"measured {measured} agrees with the counting argument"
            )
    return CodeReport(
        n=code.defining.n,
        r=r,
        case=case.value if case else None,
        length=code.length,
        dimension=code.dimension,
        min_distance=code.min_distance,
        distribution=dist_pairs,
        enumerator=enumerator_string(code.distribution),
        prediction=pred_dict,
        match=match,
        notes=notes,
    )
