import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tribent import analysis
from tribent.analysis import (
    BentType,
    HypothesisError,
    NotBentError,
    Regularity,
    TernaryFunction,
    _pass_dtype,
    _radix3,
    _residue_dtype,
    _unit_lookup,
    _unit_values,
    bent_profile,
    coset_structure,
    decode_coefficient,
    establish,
    expected_preimage_sizes,
    is_bent,
    is_dual_bent,
    is_plateaued,
    preimage_sets,
    walsh_point,
    walsh_spectrum,
)
from tribent.constructions import QuadraticForm, gmmf_build, quadratic_function
from tribent.core import EXACT_DIM, Eisenstein, dots_with, encode, size, span
from tribent.fixtures import get_fixture
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

from conftest import (
    expected_s0_minus_s1,
    naive_spectrum_pair,
    neg_point,
    oracle_spectrum,
    radix3_oracle,
    random_function,
    s0_s1,
    unit_powers,
)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_walsh_point_constant():
    f = TernaryFunction.constant(1, 0)
    assert walsh_point(f, 0) == Eisenstein(3, 0)


def test_walsh_point_linear():
    f = TernaryFunction(1, [0, 1, 2])
    assert walsh_point(f, 0) == Eisenstein(0, 0)
    assert walsh_point(f, 1) == Eisenstein(3, 0)


def test_walsh_point_square():
    f = TernaryFunction(1, [0, 1, 1])
    assert walsh_point(f, 0) == Eisenstein(1, 2)  # 1 + 2w = i*sqrt(3)


def test_spectrum_constant_n2():
    f = TernaryFunction.constant(2, 0)
    sp = walsh_spectrum(f)
    assert sp.value(0) == Eisenstein(9, 0)
    assert all(sp.value(a) == Eisenstein(0, 0) for a in range(1, 9))


def test_fast_equals_pointwise_random():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10 if n < 5 else 3):
            f = random_function(rng, n)
            sp = walsh_spectrum(f)
            for a in range(size(n)):
                assert sp.value(a) == walsh_point(f, a)
    # past the exhaustive range, at sampled points and both ends
    f = random_function(rng, 7)
    sp = walsh_spectrum(f)
    for a in rng.integers(0, size(7), 40).tolist() + [0, size(7) - 1]:
        assert sp.value(a) == walsh_point(f, a)


def test_fast_equals_matrix_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        f = random_function(rng, n)
        sp = walsh_spectrum(f)
        oa, ob = naive_spectrum_pair(f)
        assert np.array_equal(sp.coeffs[0], oa)
        assert np.array_equal(sp.coeffs[1], ob)


# Narrow-integer passes.  Constant tables reach the largest partial sums
# (3^p after pass p at u = 0), and near-constant ones, a drawn share of
# points redrawn, stay near that bound; they and indicators are compared
# at every n up to 12 against the int64 oracle.  A round of one or two
# digits is a gather pass and a longer one runs in butterfly passes, and
# _round_plan gives the first only through n = 8 and the second only from
# n = 9, so plans are forced at every n: rounds of 1, 2, 3 and 4 digits
# (the last taking what is left), and mixed plans that hand over between
# gather and butterfly rounds, and between pass types, in either order.
# Each runs in int32 and in the residue width, where astype wraps the
# oracle mod 2^B.  The input is read-only, so any write to the caller's
# array raises.

def _assert_spectrum_exact(f: TernaryFunction) -> None:
    sp = walsh_spectrum(f)
    oa, ob = oracle_spectrum(f)
    assert sp.coeffs.dtype == np.int32
    assert np.array_equal(sp.coeffs[0], oa) and np.array_equal(sp.coeffs[1], ob)


def _filled(plan, n):
    """plan cut or padded with rounds of four to n digits in all."""
    out = []
    for d in plan + (4,) * n:
        d = min(d, n - sum(out))
        if not d:
            return tuple(out)
        out.append(d)
    return tuple(out)


_ROUND_PLAN = analysis._round_plan  # kept before any test patches it


def _forced_plans(n):
    """_round_plan's own plan, each uniform round size, and mixed plans of
    gather and butterfly rounds, at n."""
    plans = [(d,) * n for d in (1, 2, 3, 4)] + [(3, 2, 1), (2, 3), (4, 1), (1, 4), (2, 1, 3)]
    return sorted({_ROUND_PLAN(n)} | {_filled(plan, n) for plan in plans})


def _assert_exact_in_every_kernel(monkeypatch, ab, n, widths=None):
    oa, ob = radix3_oracle(*ab, n)
    ab.flags.writeable = False
    for plan in _forced_plans(n):
        monkeypatch.setattr(analysis, "_round_plan", lambda n: plan)
        for width in widths or (np.int32, _residue_dtype(n)):
            ra, rb = result = _radix3(ab, n, width)
            assert result.dtype == width and result.shape == (2, size(n))
            assert np.array_equal(ra, oa.astype(width)), (plan, width)
            assert np.array_equal(rb, ob.astype(width)), (plan, width)


def _near_constant(rng, n, value, noise):
    table = np.full(size(n), value)
    redrawn = rng.random(size(n)) < noise
    table[redrawn] = rng.integers(0, 3, int(redrawn.sum()))
    return table


def _unit_coefficients(table):
    """The int8 coefficients of w^t, as analysis._transform builds them."""
    t = table.astype(np.int8)
    return np.stack([1 - t, t - 3 * (t >> 1)])


@pytest.mark.parametrize("n", range(1, 13))
def test_narrow_passes_exact_on_constant_tables(monkeypatch, n):
    rng = np.random.default_rng(n)
    tables = [np.full(size(n), value) for value in range(3)]
    tables += [_near_constant(rng, n, rng.integers(0, 3), noise) for noise in (0.01, 0.2)]
    for table in tables:
        _assert_exact_in_every_kernel(monkeypatch, _unit_coefficients(table), n)


@pytest.mark.parametrize("n", range(1, 13))
def test_narrow_passes_exact_on_indicators(monkeypatch, n):
    rng = np.random.default_rng(n)
    for indicator in (np.ones(size(n), dtype=np.int8),
                      rng.integers(0, 2, size(n)).astype(np.int8)):
        _assert_exact_in_every_kernel(monkeypatch, np.stack([indicator, np.zeros_like(indicator)]), n)


@given(st.integers(1, 10), st.integers(0, 2), st.sampled_from([0.0, 0.01, 0.2, 1.0]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_narrow_passes_exact_on_drawn_tables(n, value, noise, seed):
    _assert_spectrum_exact(TernaryFunction(n, _near_constant(np.random.default_rng(seed), n, value, noise)))


@pytest.mark.parametrize("n", range(1, 13))
def test_radix3_never_writes_its_inputs(monkeypatch, n):
    ab = _unit_coefficients(np.random.default_rng(n).integers(0, 3, size(n)))
    saved = ab.copy()
    _assert_exact_in_every_kernel(monkeypatch, ab, n, (np.int32, np.int16, np.int8))
    assert np.array_equal(ab, saved)


def test_round_plan_at_every_n(monkeypatch):
    # rounds of two digits (one for an odd remainder), each a gather pass,
    # exactly through n = 8; above, butterfly rounds of three or more
    for n in range(EXACT_DIM + 1):
        plan = analysis._round_plan(n)
        assert sum(plan) == n
        if n <= 8:
            assert plan == (2,) * (n // 2) + (1,) * (n % 2)
        else:
            assert min(plan) > 2, (n, plan)
    gathered = []
    original = analysis._gather_sums
    monkeypatch.setattr(analysis, "_gather_sums",
                        lambda ab, d, dtype: gathered.append((ab.shape[1], d)) or original(ab, d, dtype))
    for n in range(11):
        _radix3(np.zeros((2, size(n)), dtype=np.int8), n)
    assert gathered == [(size(n), d) for n in range(9) for d in analysis._round_plan(n)]


@pytest.mark.parametrize("d", [1, 2])
def test_gather_plan_sums_the_unit_powers(d):
    # a unit at top digits j, through the lanes and the cached plan, sums
    # to w^(-k.j) at every k
    assert analysis._gather_plan(d) is analysis._gather_plan(d)
    re, im = unit_powers(d)
    for j in range(size(d)):
        ab = np.zeros((2, size(d)), dtype=np.int8)
        ab[0, j] = 1
        sums = analysis._gather_sums(ab, d, np.int8)
        assert sums.dtype == np.int8 and sums.shape == (2, size(d))
        assert np.array_equal(sums[0], re[:, j]), j
        assert np.array_equal(sums[1], im[:, j]), j


def test_pass_types_are_the_narrowest_the_bound_allows():
    assert [_pass_dtype(p) for p in (1, 4, 5, 9, 10, 18)] == [
        np.int8, np.int8, np.int16, np.int16, np.int32, np.int32]
    # a pass's partial sums are bounded by (2/sqrt 3) 3^p
    def holds(dtype, p):
        return 4 * 9 ** p <= 3 * int(np.iinfo(dtype).max) ** 2

    narrower = {np.int16: np.int8, np.int32: np.int16}
    for p in range(1, 19):
        dtype = _pass_dtype(p)
        assert holds(dtype, p)
        assert dtype not in narrower or not holds(narrower[dtype], p)


# The transform returns int32 coefficients; squared norms off a bent spectrum
# exceed int32 from n = 10 on (3^20 > 2^31).

def test_constant_function_not_bent_without_overflow():
    with pytest.raises(NotBentError) as exc:
        bent_profile(TernaryFunction.constant(10, 0))
    assert exc.value.witness == 0
    assert exc.value.norm_sq == 3 ** 20


def test_affine_function_plateau_order_without_overflow():
    f = TernaryFunction(10, (dots_with(encode((1, 2, 0, 0, 1, 0, 0, 2, 1, 1)), 10) + 1) % 3)
    assert is_plateaued(f) == 10


@given(st.lists(st.integers(0, 2), min_size=27, max_size=27))
@settings(max_examples=50)
def test_parseval_holds_for_everything(table):
    f = TernaryFunction(3, table)
    assert walsh_spectrum(f).parseval_total() == 3 ** 6


# ---------------------------------------------------------------------------
# Coefficient decoding
# ---------------------------------------------------------------------------

def test_decode_even_dimension():
    assert decode_coefficient(Eisenstein(9, 0), 4) == (1, 0)
    assert decode_coefficient(Eisenstein(0, -9), 4) == (-1, 1)


def test_decode_odd_dimension():
    assert decode_coefficient(Eisenstein(1, 2), 1) == (1, 0)


def test_decode_rejects_wrong_norm():
    with pytest.raises(ValueError):
        decode_coefficient(Eisenstein(2, 0), 2)


def test_decode_all_candidates_roundtrip():
    from tribent.core import omega_pow
    for n in (2, 3):
        for j in range(3):
            for sgn in (1, -1):
                if n % 2 == 0:
                    w = omega_pow(j) * (sgn * 3 ** (n // 2))
                else:
                    w = (omega_pow(j + 1) - omega_pow(j + 2)) * (sgn * 3 ** ((n - 1) // 2))
                assert decode_coefficient(w, n) == (sgn, j)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_square_is_weakly_regular_plus():
    f = TernaryFunction(1, [0, 1, 1])
    p = bent_profile(f)
    assert p.type is BentType.PLUS
    assert p.regularity is Regularity.WEAKLY_REGULAR
    assert not p.side_mask(BentType.MINUS).any()


def test_not_bent_carries_witness():
    f = TernaryFunction(1, [0, 1, 2])  # linear, spectrum has zeros
    with pytest.raises(NotBentError) as exc:
        bent_profile(f)
    assert 0 <= exc.value.witness < 3
    assert exc.value.norm_sq != 3


def test_flagship_profile(flagship):
    p = bent_profile(flagship)
    assert p.type is BentType.PLUS
    assert p.regularity is Regularity.NON_WEAKLY_REGULAR
    expected = sorted(x + 81 * 0 + 243 * z for x in range(81) for z in range(3))
    plus, minus = p.side_mask(BentType.PLUS), p.side_mask(BentType.MINUS)
    assert np.array_equal(np.flatnonzero(plus), expected)
    assert (plus | minus).all()
    assert not (plus & minus).any()


def test_minus_type_fixture(built_fixtures):
    p = bent_profile(built_fixtures["code756"])
    assert p.type is BentType.MINUS
    minus = p.side_mask(BentType.MINUS)
    assert minus[0]
    # minus side is (all of F_3^6) x {0} x F_3
    expected = sorted(x + 729 * 0 + 2187 * z for x in range(729) for z in range(3))
    assert np.array_equal(np.flatnonzero(minus), expected)


def _profile_against_norms(f: TernaryFunction) -> None:
    """bent_profile against the int64 squared norms and decode_coefficient."""
    spectrum = walsh_spectrum(f)
    norms = spectrum.squared_norms()
    bad = np.flatnonzero(norms != size(f.n))
    assert is_bent(f) == (bad.size == 0)
    if bad.size:
        with pytest.raises(NotBentError) as exc:
            bent_profile(f)
        assert exc.value.witness == bad[0]
        assert exc.value.norm_sq == norms[bad[0]]
        assert exc.value.expected == size(f.n)
        return
    p = bent_profile(f)
    for a in range(size(f.n)):
        assert (int(p.sign[a]), p.dual(a)) == decode_coefficient(spectrum.value(a), f.n)


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, 2), min_size=3 ** n, max_size=3 ** n)))
@settings(max_examples=150, deadline=None)
def test_profile_matches_squared_norms_on_random_tables(table):
    n = {3 ** k: k for k in range(7)}[len(table)]
    _profile_against_norms(TernaryFunction(n, table))


def test_profile_matches_squared_norms_on_fixtures_and_duals(built_fixtures):
    for f in built_fixtures.values():
        _profile_against_norms(f)
        _profile_against_norms(bent_profile(f).dual)


def _lookup_against_norms(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """_unit_lookup on the values a + b w against their exact norms; the
    number of values of bent magnitude."""
    sign, dual = _unit_lookup(np.stack([a, b]).astype(np.int32), n)
    units = 0
    for k in range(a.size):
        value = Eisenstein(int(a[k]), int(b[k]))
        if value.squared_norm() == size(n):
            assert (int(sign[k]), int(dual[k])) == decode_coefficient(value, n)
            units += 1
        else:
            assert sign[k] == 0, f"{value} classified as a unit at n={n}"
    return units


@pytest.mark.parametrize("n", range(0, EXACT_DIM + 1))
def test_unit_lookup_on_synthetic_coefficients(n):
    # every quotient q in [-7, 7] at the exact scale, so out-of-range pairs
    # that would alias a unit key are fed in, with each q * scale off by one
    # (never divisible once the scale exceeds 1) and the int32 extremes,
    # where the wrapped product must not pass for a quotient; exactly the
    # six units times (1 - w)^n classify.
    scale = 3 ** (n // 2)
    near = np.arange(-7, 8)[:, None] * scale + np.arange(-1, 2)
    extremes = [2 ** 31 - 1, -(2 ** 31 - 1), -2 ** 31]
    values = np.unique(np.concatenate([near.ravel(), extremes]))
    qa, qb = (g.ravel() for g in np.meshgrid(values, values))
    assert _lookup_against_norms(qa, qb, n) == 6


# Residue profiles.  bent_profile reads the transform mod 2^B and certifies
# the whole spectrum by Parseval; these tests hold it to the exact int32
# spectrum and the int32 lookup.

def test_residue_width_is_the_narrowest_that_certifies():
    # 2^(B-1) > 3^(n/2), squared: 4^(B-1) > 3^n; the next narrower type,
    # of B/2 bits, must fail it
    for n in range(EXACT_DIM + 1):
        bits = np.iinfo(_residue_dtype(n)).bits
        assert 4 ** (bits - 1) > 3 ** n, f"{bits} bits cannot certify n={n}"
        assert bits == 8 or 4 ** (bits // 2 - 1) <= 3 ** n, f"{bits} bits not narrowest at n={n}"


def _exact_profile(f: TernaryFunction):
    """(sign, dual, type, regularity) from the exact int32 spectrum and the
    int32 lookup, or the exact (witness, norm) when f is not bent."""
    spectrum = walsh_spectrum(f)
    norms = spectrum.squared_norms()
    sign, dual = _unit_lookup(spectrum.coeffs, f.n)
    bad = np.flatnonzero(norms != size(f.n))
    assert np.array_equal(np.flatnonzero(sign == 0), bad)
    if bad.size:
        return int(bad[0]), int(norms[bad[0]])
    both = (sign == 1).any() and (sign == -1).any()
    reg = (Regularity.NON_WEAKLY_REGULAR if both
           else Regularity.REGULAR if sign[0] == 1 and f.n % 2 == 0
           else Regularity.WEAKLY_REGULAR)
    return sign, dual, BentType.PLUS if sign[0] == 1 else BentType.MINUS, reg


def _assert_profile_exact(f: TernaryFunction) -> bool:
    """bent_profile of f against _exact_profile, witness and norm included
    when f is not bent; whether f is bent."""
    exact = _exact_profile(f)
    if len(exact) == 2:
        with pytest.raises(NotBentError) as exc:
            bent_profile(f)
        assert (exc.value.witness, exc.value.norm_sq, exc.value.expected) == (
            *exact, size(f.n))
        return False
    sign, dual, btype, reg = exact
    p = bent_profile(f)
    assert p.sign.dtype == np.int8 and np.array_equal(p.sign, sign)
    assert np.array_equal(p.dual.table, dual)
    assert (p.type, p.regularity) == (btype, reg)
    return True


def _glue(rng: random.Random, n: int) -> TernaryFunction:
    """A seeded glued bent function on F_3^n, n >= 1, with s <= 2."""
    s = min(2, (n - 1) // 2)
    side = rng.choice(list(BentType))
    u = random_subspace(rng, s, rng.randrange(s + 1))
    return gmmf_build(random_instance(rng, n - 2 * s, s, side, u, rng.randrange(3)))


def test_residue_profile_matches_exact_on_fixtures_and_duals(built_fixtures):
    assert len(built_fixtures) == 9
    for f in built_fixtures.values():
        assert _assert_profile_exact(f)
        _assert_profile_exact(bent_profile(f).dual)


@pytest.mark.parametrize("n", range(1, 13))
def test_residue_profile_matches_exact_on_glue_instances(n):
    rng = random.Random(100 + n)
    for _ in range(3 if n <= 10 else 1):
        f = _glue(rng, n)
        assert _assert_profile_exact(f)
        _assert_profile_exact(bent_profile(f).dual)


@pytest.mark.parametrize("n", range(9, 13))
def test_residue_profile_witness_is_exact(n):
    rng = np.random.default_rng(n)
    for _ in range(2):
        assert not _assert_profile_exact(random_function(rng, n))
    table = _glue(random.Random(n), n).table.copy()
    x = int(rng.integers(size(n)))
    table[x] = (table[x] + 1) % 3
    assert not _assert_profile_exact(TernaryFunction(n, table))


def test_witness_is_exact_where_a_residue_aliases():
    # value counts N0, N1, N2 with W(0) = (N0 - N2) + (N1 - N2) w =
    # (3^6 + 2^16, -2^16): no unit, yet its int16 residue is the unit 3^6,
    # so the residue lookup hits at 0 and the witness 0 comes only from
    # the exact spectrum
    n, k = 12, 3 ** 11 - 3 ** 5
    f = TernaryFunction(n, np.repeat([0, 1, 2], [k + 3 ** 6 + 2 ** 16, k - 2 ** 16, k]))
    assert _unit_lookup(analysis._transform(f, np.int16), n)[0][0] == 1
    with pytest.raises(NotBentError) as exc:
        bent_profile(f)
    a, b = 3 ** 6 + 2 ** 16, -2 ** 16
    assert (exc.value.witness, exc.value.norm_sq) == (0, a * a - a * b + b * b)


def test_residue_lookup_aliases_where_exact_lookup_misses():
    # a unit of n = 10 off by 2^16 is no unit, yet its int16 residue is one:
    # a hit at one point proves nothing, only hits at every point do
    n = 10
    for j, base in enumerate(_unit_values(n)):
        for sgn in (1, -1):
            unit = base * sgn
            a = np.array([unit.a + 2 ** 16], dtype=np.int64)
            b = np.array([unit.b], dtype=np.int64)
            sign, dual = _unit_lookup(np.stack([a, b]).astype(np.int16), n)
            assert (int(sign[0]), int(dual[0])) == (sgn, j)
            assert _unit_lookup(np.stack([a, b]).astype(np.int32), n)[0][0] == 0


def test_bent_verdict_computes_no_exact_spectrum(flagship, monkeypatch):
    def no_exact(f):
        raise AssertionError("exact spectrum computed for a bent input")

    monkeypatch.setattr(analysis, "walsh_spectrum", no_exact)
    rep = run_pipeline(flagship)
    assert rep.passed


def test_is_bent_quick():
    assert is_bent(TernaryFunction(1, [0, 1, 1]))
    assert not is_bent(TernaryFunction(1, [0, 0, 0]))


def test_dual_bent_cases(flagship, built_fixtures):
    ok, dp = is_dual_bent(flagship)
    assert ok and dp is not None
    ok2, _ = is_dual_bent(built_fixtures["trace14"])
    assert not ok2
    # weakly regular bent functions always have bent duals
    q = quadratic_function(QuadraticForm((1, 2, 2)))
    ok3, _ = is_dual_bent(q)
    assert ok3


def test_plateaued():
    assert is_plateaued(TernaryFunction.constant(1, 0)) == 1
    assert is_plateaued(TernaryFunction(1, [0, 1, 1])) == 0
    f = TernaryFunction.from_callable(2, lambda c: c[0] ** 2)
    assert is_plateaued(f) == 1
    # mixed levels: not plateaued
    g = TernaryFunction(2, [0, 1, 1, 0, 0, 0, 0, 0, 0])
    assert is_plateaued(g) is None


def test_evenness_helpers():
    f = TernaryFunction(1, [0, 1, 1])
    assert f.is_even()
    g = TernaryFunction(1, [0, 1, 2])
    assert not g.is_even()
    assert g.negated().table.tolist() == [0, 2, 1]


@pytest.mark.parametrize("table, expected", [
    (np.array([0, 1, 300]), [0, 1, 0]),
    (np.array([128, -129, 2], dtype=np.int64), [2, 0, 2]),
    ([0, 1, 300], [0, 1, 0]),
    (np.array([0, -1, 5], dtype=np.int8), [0, 2, 2]),
    ([10 ** 30, -1, True], [1, 2, 1]),
    (np.array([True, False, True]), [1, 0, 1]),
])
def test_table_reduced_before_the_int8_cast(table, expected):
    # int8 would wrap 300 to 44 and 128 to -128 before reducing mod 3;
    # ints past int64 make an object array, still reduced as integers
    f = TernaryFunction(1, table)
    assert f.table.dtype == np.int8 and f.table.tolist() == expected


def test_reduced_int8_table_is_copied():
    # the mod-3 pass is skipped for an int8 table in {0, 1, 2}; the caller's
    # array must still neither alias the table nor be frozen
    table = np.array([0, 1, 1], dtype=np.int8)
    f = TernaryFunction(1, table)
    table[1] = 2
    assert f.table.tolist() == [0, 1, 1] and f.is_even()


@pytest.mark.parametrize("table, message", [
    ([0.5] * 9, "table entry 0 is 0.5, not an integer"),
    ([1.7] * 9, "table entry 0 is 1.7, not an integer"),
    ([float("nan")] * 9, "table entry 0 is nan, not an integer"),
    (np.full(9, 2.0), "table entry 0 is 2.0, not an integer"),
    ([0, 1, 2, 0, 0, 2.5, 0, 0, 0], "table entry 5 is 2.5, not an integer"),
    ([0, 1, 2, "1", 0, 0, 0, 0, 0], "table entry 3 is '1', not an integer"),
    ([0, 1, 2, 0, None, 0, 0, 0, 0], "table entry 4 is None, not an integer"),
])
def test_a_table_entry_that_is_no_integer_is_refused(table, message):
    # never truncated into the table (0.5 read as 0, 1.7 as 1, NaN as 0
    # with a RuntimeWarning), and a str is refused like the rest
    with pytest.raises(ValueError) as exc:
        TernaryFunction(2, table)
    assert str(exc.value) == message


@pytest.mark.parametrize("n, table", [
    (2.0, [0] * 9), ("2", [0] * 9), (True, [0, 1, 1]), (np.True_, [0, 1, 1]),
    (-1, [0]), (np.int64(-1), [0]), (None, [0]),
])
def test_a_dimension_that_is_no_non_negative_integer_is_refused(n, table):
    # refused where f is built: a float would die in the transform, a bool
    # would be kept as n = True, and n = -1 would be told that its table
    # needs 3^-1 entries
    with pytest.raises(ValueError) as exc:
        TernaryFunction(n, table)
    assert str(exc.value) == f"dimension n must be a non-negative integer, got {n!r}"


def test_a_numpy_integer_dimension_becomes_an_int(flagship):
    # an np.int64 n kept as such makes _signed_inverse's pow raise TypeError
    f = TernaryFunction(np.int64(flagship.n), flagship.table)
    assert type(f.n) is int and f == flagship
    rep = run_pipeline(f)
    assert rep.passed and rep.to_dict() == run_pipeline(flagship).to_dict()


@pytest.mark.parametrize("k", range(EXACT_DIM + 1))
def test_coset_norm_type_holds_three_to_the_2k_plus_1(k):
    # _dual_by_cosets reads each coset sum G of 3^k units by |G|^2 in
    # _narrowest(3^(2k+1)): over the coefficients' box [-3^k, 3^k] the norm
    # and its partial sums peak at a = -b = 3^k, 3^(2k+1), which int32
    # cannot hold from k = 10
    unit, bound = 3 ** k, 3 ** (2 * k + 1)
    dtype = analysis._narrowest(bound)
    assert np.iinfo(dtype).max >= bound
    sums = np.array([[unit, -unit, unit, 0, -unit, 0],
                     [-unit, unit, 0, unit, -unit, 0]], dtype=analysis._narrowest(unit))
    norms = analysis._squared_norms(sums, dtype)
    assert norms.dtype == dtype and norms.tolist() == [bound] * 2 + [9 ** k] * 3 + [0]


# ---------------------------------------------------------------------------
# Dual sums and pre-images
# ---------------------------------------------------------------------------

def test_s0_s1_weakly_regular_side_vanishes():
    f = quadratic_function(QuadraticForm((1, 2)))
    p = bent_profile(f)
    minus_empty = not p.side_mask(BentType.MINUS).any()
    assert minus_empty or not p.side_mask(BentType.PLUS).any()
    for y in range(9):
        s0, s1 = s0_s1(f, y, p)
        vanished = s1 if minus_empty else s0
        assert vanished == Eisenstein(0, 0)


def test_s0_s1_identity_on_flagship(flagship):
    p = bent_profile(flagship)
    s0, s1 = s0_s1(flagship, 0, p)
    assert s0 - s1 == Eisenstein(27, 0)
    for y in (1, 40, 333, 728):
        s0, s1 = s0_s1(flagship, y, p)
        assert s0 - s1 == expected_s0_minus_s1(flagship, y)


def test_s0_s1_identity_odd_dimension(built_fixtures):
    f = built_fixtures["code270-a"]
    p = bent_profile(f)
    s0, s1 = s0_s1(f, 0, p)
    assert s0 - s1 == Eisenstein(-27, -54)
    assert s0 - s1 == expected_s0_minus_s1(f, 0)


def test_preimage_sets_partition(built_fixtures):
    for name in ("code98-a", "code36", "code756"):
        f = built_fixtures[name]
        p = bent_profile(f)
        pre = preimage_sets(p)
        arrays = list(pre.plus.values()) + list(pre.minus.values())
        for arr in arrays:
            assert arr.dtype == np.int64
            assert (np.diff(arr) > 0).all()
        # disjoint and covering: the concatenation sorts to every point once
        assert np.array_equal(np.sort(np.concatenate(arrays)), np.arange(size(f.n)))
        for sets, t in ((pre.plus, BentType.PLUS), (pre.minus, BentType.MINUS)):
            assert np.array_equal(np.sort(np.concatenate(list(sets.values()))),
                                  np.flatnonzero(p.side_mask(t)))

        # the coset index sets, the type side meeting each side of the
        # dual, partition the type side
        dual_profile = bent_profile(p.dual)
        side = p.side_mask(p.type)
        i_plus, i_minus = (np.flatnonzero(side & dual_profile.side_mask(t))
                           for t in (BentType.PLUS, BentType.MINUS))
        assert np.array_equal(np.sort(np.concatenate([i_plus, i_minus])), np.flatnonzero(side))


@pytest.mark.parametrize("name,side,value,expect", [
    ("code98-a", "plus", 0, 99),     # n=6, r=5
    ("code270-a", "plus", 2, 270),   # n=7, r=6
    ("code756", "minus", 2, 756),    # n=8, r=7
    ("code36", "minus", 1, 36),      # n=5, r=4
])
def test_preimage_sizes_match_closed_forms(built_fixtures, name, side, value, expect):
    f = built_fixtures[name]
    p = bent_profile(f)
    pre = preimage_sets(p)
    sets = pre.plus if side == "plus" else pre.minus
    assert len(sets[value]) == expect
    r = span(np.flatnonzero(p.side_mask(p.type)), f.n).dim
    want = expected_preimage_sizes(f.n, r, f(0), p.type)
    for i in range(3):
        assert len(sets[i]) == want[i]


def test_even_functions_have_symmetric_sides(built_fixtures):
    for name in ("code98-a", "code36", "trace36"):
        f = built_fixtures[name]
        p = bent_profile(f)
        for t in BentType:
            points = np.flatnonzero(p.side_mask(t))
            assert np.array_equal(np.sort([neg_point(x, f.n) for x in points.tolist()]), points)


def test_dual_value_and_parity_of_dual(flagship):
    p = bent_profile(flagship)
    assert p.dual(0) == flagship(0)
    assert p.dual.is_even()


def test_dual_involution(flagship):
    p = bent_profile(flagship)
    dp = bent_profile(p.dual)
    assert dp.dual == flagship


# ---------------------------------------------------------------------------
# Coset structure
# ---------------------------------------------------------------------------

def test_coset_structure_flagship(flagship):
    p = bent_profile(flagship)
    cs = coset_structure(flagship, p)
    assert cs.coset_union_ok and cs.constant_ok and cs.constant_branch == "i_plus"
    hyp = establish(flagship, p)
    r = hyp.r
    dual_plus = bent_profile(p.dual).side_mask(BentType.PLUS)
    assert np.count_nonzero(p.side_mask(p.type) & dual_plus) == 3 ** (2 * r - flagship.n)
    assert np.count_nonzero(dual_plus) == 3 ** r


def test_coset_structure_minus_side(built_fixtures):
    f = built_fixtures["code756"]
    p = bent_profile(f)
    cs = coset_structure(f, p)
    assert cs.coset_union_ok and cs.constant_ok
    hyp = establish(f, p)
    assert np.count_nonzero(bent_profile(p.dual).side_mask(BentType.MINUS)) == 3 ** hyp.r


def test_coset_structure_rejects_weakly_regular():
    f = quadratic_function(QuadraticForm((1, 2, 1, 1)))
    p = bent_profile(f)
    with pytest.raises(HypothesisError):
        coset_structure(f, p)
