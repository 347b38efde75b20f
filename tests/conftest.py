"""Shared builds: worked-example functions are session-cached since
several suites inspect the same tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from tribent import analysis, core
from tribent.analysis import (
    BentProfile,
    BentType,
    HypothesisError,
    NotBentError,
    TernaryFunction,
    _unit_values,
    bent_profile,
    establish,
)
from tribent.codes import (
    CodeCase,
    DefiningSet,
    SelectionContext,
    WeightClassifier,
    build_code,
    defining_set_for,
)
from tribent.core import (
    Eisenstein,
    Subspace,
    decode,
    digit_sum_table,
    dots_with,
    encode,
    negation,
    root_sum,
    size,
)
from tribent.fixtures import FIXTURES, get_fixture


@pytest.fixture(autouse=True)
def cold_subspace_table():
    """Each test starts on an empty table of interned subspaces, so the
    tables a verdict builds once per distinct V are built within it."""
    core._interned.cache_clear()


@pytest.fixture(scope="session")
def built_fixtures() -> dict[str, TernaryFunction]:
    return {fx.name: fx.build() for fx in FIXTURES}


@pytest.fixture(scope="session")
def flagship(built_fixtures) -> TernaryFunction:
    """The n=6 even/plus worked example."""
    return built_fixtures["code98-a"]


@pytest.fixture
def off_by_one_classifier(monkeypatch):
    """The classifier's prediction one off at its last message, so every
    verdict whose hypotheses hold fails its per-codeword-weights check."""
    expected_weights = WeightClassifier.expected_weights

    def off_by_one(self, code):
        weights = expected_weights(self, code)
        weights[-1] += 1
        return weights

    monkeypatch.setattr(WeightClassifier, "expected_weights", off_by_one)


# Digit-by-digit point arithmetic: slow, independent references for the
# vectorised tables in the package.

def add_points(x: int, y: int, n: int) -> int:
    """Index of x + y in F_3^n."""
    return encode(tuple(a + b for a, b in zip(decode(x, n), decode(y, n))))


def neg_point(x: int, n: int) -> int:
    """Index of -x (each coordinate negated mod 3)."""
    return encode(tuple(-c for c in decode(x, n)))


def dot(u: int, v: int, n: int) -> int:
    """Standard dot product of two points, as an element of F_3."""
    return sum(a * b for a, b in zip(decode(u, n), decode(v, n))) % 3


# Whole-array row reduction: the numpy references for core._rref and
# core._null_basis, which reduce digit lists in plain integers.

def rref(m: np.ndarray) -> np.ndarray:
    """Reduced row echelon form mod 3 of an int8 matrix with entries in
    {0, 1, 2}, nonzero rows only.

    One whole-array elimination per pivot column, at most n of them.  The
    pivot row is the argmax of the column below the reduced rows, nonzero
    unless the whole tail is zero; any nonzero pivot gives the same form.
    Every entry stays in {0, 1, 2} after each step and m - f * p lies in
    [-4, 2], so int8 never overflows.  m itself is overwritten.
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


def null_basis(r: np.ndarray) -> np.ndarray:
    """Basis of {x : r x = 0 mod 3} for a reduced echelon r (as rref
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
    the rows of an int8 matrix with entries in {0, 1, 2}, whatever their
    rank (so with repeats when they are dependent): the all-combinations
    reference for Subspace.members and Subspace.points.  Digit j of the
    combination c B is c . B[:, j] (dots_with of column j), accumulated
    one output digit at a time, highest first."""
    dim = len(rows)
    members = np.zeros(size(dim), dtype=np.int64)
    for column in rows.T[::-1].tolist():
        members *= 3
        members += dots_with(encode(column), dim)
    members.sort()
    return members


def subspace_pivots(v: Subspace) -> tuple[int, ...]:
    """The first nonzero digit of each basis point of v."""
    return tuple(next(i for i, c in enumerate(decode(b, v.n)) if c) for b in v.basis)


def subspace_coordinates(v: Subspace, x: int) -> int:
    """The digits of x at v's pivots, read as a point of F_3^dim."""
    digits = decode(x, v.n)
    return encode(tuple(digits[p] for p in subspace_pivots(v)))


def combination(c: int, v: Subspace) -> int:
    """sum_i c_i B_i for the digits c_i of c and v's basis B, point by point."""
    x = 0
    for ci, b in zip(decode(c, v.dim), v.basis):
        for _ in range(ci):
            x = add_points(x, b, v.n)
    return x


# The dual's character sums over each side: the inverse-transform identity
# S0 - S1 that a bent profile's dual and signs must satisfy at every y.

def s0_s1(f: TernaryFunction, y: int, profile: BentProfile) -> tuple[Eisenstein, Eisenstein]:
    """The plus-side and minus-side dual character sums at y.

    S0 sums w^(dual(a) + a.y) over the plus set, S1 over the minus set;
    their difference always equals expected_s0_minus_s1(f, y).
    """
    exps = (profile.dual.table.astype(np.int64) + dots_with(y, f.n)) % 3
    sums = []
    for t in (BentType.PLUS, BentType.MINUS):
        counts = np.bincount(exps[profile.side_mask(t)], minlength=3)
        sums.append(root_sum([int(c) for c in counts]))
    return sums[0], sums[1]


def expected_s0_minus_s1(f: TernaryFunction, y: int) -> Eisenstein:
    """The exact closed form of S0 - S1 at y: 3^(n/2) w^f(y) for even n,
    -i 3^(n/2) w^f(y) = 3^((n-1)/2) (w^(f(y)+2) - w^(f(y)+1)) for odd n."""
    unit = _unit_values(f.n)[f(y)]
    return unit if f.n % 2 == 0 else -unit


# Direct per-message sums: references for codes.message_weights, which
# measures every codeword from one transform.

def weight_of(u: int, s: DefiningSet) -> int:
    """Hamming weight of the codeword of message u: |{x in S : u.x != 0}|."""
    if u == 0:
        return 0
    return int(np.count_nonzero(dots_with(u, s.n)[s.mask]))


def character_sum(u: int, s: DefiningSet) -> Eisenstein:
    """chi_u(S) = sum over S of w^(u.x)."""
    counts = np.bincount(dots_with(u, s.n)[s.mask], minlength=3)
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


def direct_weights(s: DefiningSet) -> np.ndarray:
    """|{x in S : u.x != 0}| for all 3^n messages u (int64), by counting,
    with no transform.

    u.x = 0 exactly when the dot of the low k = n // 2 digits of u and x
    is minus that of their high digits, so the zero count at
    u = h * 3^k + l is the sum over t in F_3 of
    #{x : h.x_high = -t, l.x_low = t}: one product of 0/1 matrices per t,
    in float64, exact since every sum is at most |S| < 2^53.
    """
    n, k = s.n, s.n // 2

    def digits(m: int) -> np.ndarray:
        return np.arange(3 ** m)[:, None] // 3 ** np.arange(m) % 3

    high, low = np.divmod(np.flatnonzero(s.mask), 3 ** k)
    low_dots = digits(k) @ digits(k)[low].T % 3
    minus_high_dots = -(digits(n - k) @ digits(n - k)[high].T) % 3
    zeros = sum((minus_high_dots == t).astype(float) @ (low_dots == t).astype(float).T
                for t in range(3))
    return len(s) - zeros.astype(np.int64).ravel()


def brute_perp(v: Subspace) -> np.ndarray:
    """The sorted indices of V-perp, by a scan of all 3^n points against
    V's basis."""
    points = np.arange(size(v.n))[:, None] // 3 ** np.arange(v.n) % 3
    basis = np.array([decode(b, v.n) for b in v.basis], dtype=np.int64).reshape(-1, v.n)
    return np.flatnonzero(~(points @ basis.T % 3).any(axis=1))


def coset_tiling(f: TernaryFunction, p: BentProfile, dual_sign: np.ndarray) -> tuple[bool, bool]:
    """(tiling, constant) for f, its profile p and the dual's sign at all
    3^n points: whether the cosets of V-perp (V the span of p's type side)
    over i_plus and i_minus tile the dual's plus and minus sets, and
    whether f is constant on the cosets of the constant branch.

    The cosets over i_plus tile the dual's plus set D+ exactly when D+ is
    invariant under V-perp, and D- is its complement.  So one int8 code,
    3 [x in D+] + f(x) [x on the branch's side], walks the folds of
    V-perp's basis (Subspace.coset_folds), highest digit first: each fold
    keeps slice 0 and checks the two moved slices against it.  Each coset
    meets the points whose fold digits are all 0 once, so no move anywhere
    means invariance.  A moved D+ (the high part) breaks the tiling and
    ends the walk with both verdicts false; a move in f's part alone
    breaks the constant one.
    """
    on_plus = analysis.constant_on_dual_plus(f.n, p.type)
    dual_plus = dual_sign == 1
    branch_side = dual_plus if on_plus else dual_sign == -1
    code = dual_plus.view(np.int8) * np.int8(3) + f.table * branch_side
    constant_ok = True
    for fold in p.type_span.coset_folds:
        code, *moved = analysis._folded(code, *fold)
        changed = [m for m in moved if not np.array_equal(m, code)]
        if any(not np.array_equal(m >= 3, code >= 3) for m in changed):
            return False, False
        constant_ok = constant_ok and not changed
    return True, constant_ok


def pivot_messages(v: Subspace) -> np.ndarray:
    """The messages u_c of v's pivots in the order of c, as
    codes.LinearCode.messages lists them."""
    return digit_sum_table([(0, 3 ** q, 2 * 3 ** q) for q in subspace_pivots(v)])


def assert_dual_by_cosets_matches_transform(f: TernaryFunction) -> int:
    """The dual's sign per coset of V-perp from coset sums of f
    (BentProfile.dual_sign) against the dual's own transform: its sign at
    the messages u_c of V's pivots, or None on both routes when the dual
    is not bent.  On the transform's sign the coset walk (coset_tiling)
    finds the tiling and f constant on the constant branch's cosets.  f
    must be bent with a type side that is a subspace; returns
    k = n - dim V."""
    p = bent_profile(f)
    assert p.type_side_is_subspace()
    got = p.dual_sign
    try:
        want = bent_profile(p.dual)
    except NotBentError:
        assert got is None and not p.dual_bent
    else:
        assert p.dual_bent and got.dtype == np.int8 and got.shape == (size(p.type_span.dim),)
        assert np.array_equal(got, want.sign[pivot_messages(p.type_span)])
        assert coset_tiling(f, p, want.sign) == (True, True)
    return f.n - p.type_span.dim


# Negation pairing between the two odd cases: f and -f run the odd-plus
# and odd-minus pipelines and must agree.

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
    ctx_f = defining_set_for(establish(f))
    ctx_g = defining_set_for(establish(f.negated()))
    if {ctx_f.case, ctx_g.case} != {CodeCase.ODD_PLUS, CodeCase.ODD_MINUS}:
        raise HypothesisError("negation pairing",
                              f"cases {ctx_f.case.value}/{ctx_g.case.value}")
    # x is on g's type side exactly when -x is on f's
    f_side, g_side = (c.hypotheses.profile.side_mask(c.case.side) for c in (ctx_f, ctx_g))
    sides_swap = bool(np.array_equal(negation(f.n)(f_side), g_side))
    j0_negates = ctx_g.j0 == (-ctx_f.j0) % 3
    same_points = bool(np.array_equal(ctx_f.defining.mask, ctx_g.defining.mask))
    code_f = build_code(ctx_f.defining, ctx_f.hypotheses.v)
    code_g = build_code(ctx_g.defining, ctx_g.hypotheses.v)
    return NegationReport(
        sides_swap=sides_swap,
        j0_negates=j0_negates,
        same_defining_points=same_points,
        distributions_equal=code_f.distribution == code_g.distribution,
        f_context=ctx_f,
        g_context=ctx_g,
    )


def random_function(rng: np.random.Generator, n: int) -> TernaryFunction:
    return TernaryFunction(n, rng.integers(0, 3, 3 ** n))


def naive_spectrum_pair(f: TernaryFunction) -> tuple[np.ndarray, np.ndarray]:
    """Independent transform oracle: full character-sum matrix, no
    butterflies.  Exponent e(a, x) = f(x) - a.x mod 3; the value at a is
    the count of exponent-0 terms minus exponent-2 terms (unit part) and
    exponent-1 minus exponent-2 (root part)."""
    from tribent.core import coord_matrix

    n = f.n
    coords = coord_matrix(n).astype(np.int64)
    dots = (coords @ coords.T) % 3
    exps = (f.table.astype(np.int64)[None, :] - dots) % 3
    c0 = (exps == 0).sum(axis=1)
    c1 = (exps == 1).sum(axis=1)
    c2 = (exps == 2).sum(axis=1)
    return c0 - c2, c1 - c2


def radix3_oracle(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The radix-3 transform with every pass in int64: the same contiguous
    butterflies as analysis._radix3, wide enough for any accepted n."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    third = 3 ** n // 3
    for _ in range(n):
        u0a, u1a, u2a = a.reshape(3, third)
        u0b, u1b, u2b = b.reshape(3, third)
        a = np.empty((third, 3), dtype=np.int64)
        b = np.empty((third, 3), dtype=np.int64)
        d1 = u1b - u1a
        d2 = u2b - u2a
        a[:, 0] = u0a + u1a + u2a
        b[:, 0] = u0b + u1b + u2b
        a[:, 1] = u0a + d1 - u2b
        b[:, 1] = u0b - u1a - d2
        a[:, 2] = u0a - u1b + d2
        b[:, 2] = u0b - d1 - u2a
        a, b = a.reshape(-1), b.reshape(-1)
    return a, b


def unit_powers(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (1, w) of w^(-k.j) at [k, j] for k, j in F_3^d,
    the dot product taken digit by digit."""
    powers = np.empty((2, size(d), size(d)), dtype=np.int64)
    for k in range(size(d)):
        for j in range(size(d)):
            dot = sum(x * y for x, y in zip(decode(k, d), decode(j, d)))
            powers[:, k, j] = ((1, 0), (0, 1), (-1, -1))[-dot % 3]
    return powers[0], powers[1]


def oracle_spectrum(f: TernaryFunction) -> tuple[np.ndarray, np.ndarray]:
    """(coeff_1, coeff_w) of f's transform by radix3_oracle."""
    w_re, w_im = np.array([1, 0, -1]), np.array([0, 1, -1])
    return radix3_oracle(w_re[f.table], w_im[f.table], f.n)
