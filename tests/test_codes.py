import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tribent import codes
from tribent.analysis import HypothesisError, TernaryFunction, bent_profile, establish
from tribent.codes import (
    _CASE_RULES,
    CodeCase,
    DefiningSet,
    WeightClassifier,
    _case_weights,
    build_code,
    case_for,
    code_report,
    enumerator_string,
    message_weights,
    predict_distribution,
    preimage_points,
    select_defining_set,
    selected_dual_value,
)
from tribent.analysis import BentType, expected_preimage_sizes
from tribent.constructions import QuadraticForm, gmmf_build, quadratic_function
from tribent.core import encode, orthogonal_complement, size, span
from tribent.fixtures import get_fixture
from tribent.search import random_instance, random_subspace

from conftest import (
    add_points,
    brute_perp,
    direct_weights,
    negation_check,
    radix3_oracle,
    weight_of,
    weight_of_character_sum,
)


# ---------------------------------------------------------------------------
# Defining sets and measurement
# ---------------------------------------------------------------------------

def _mask(points, n: int) -> np.ndarray:
    mask = np.zeros(size(n), dtype=bool)
    mask[points] = True
    return mask


def test_defining_set_validation():
    with pytest.raises(ValueError, match="nonempty"):
        DefiningSet(2, np.zeros(9, dtype=bool))
    with pytest.raises(ValueError, match="0"):
        DefiningSet(2, _mask([0, 1], 2))
    # a mask over F_3^n: index arrays, other shapes and dtypes are refused
    for bad in (np.array([1, 3]), _mask([1], 3), _mask([1], 2).view(np.int8), [1.7, 3.2]):
        with pytest.raises(ValueError, match="boolean mask of shape"):
            DefiningSet(2, bad)
    s = DefiningSet.from_points(np.array([3, 1, 3, 0]), 2)
    assert s.mask.dtype == bool and np.flatnonzero(s.mask).tolist() == [1, 3]
    assert len(s) == s.size == 2
    assert not s.mask.flags.writeable
    with pytest.raises(ValueError, match="nonempty"):
        DefiningSet.from_points(np.array([0, 0]), 2)
    with pytest.raises(ValueError, match="nonempty"):
        DefiningSet.from_points([], 2)


@pytest.mark.parametrize("points, bad", [
    ([-1, 1], "point -1 is not"),
    ([9], "point 9 is not"),
    ([1, 3 ** 5], "point 243 is not"),
    ([1.7, 3.2], "point 1.7 is not"),
    (np.array([1.0, 3.0]), "point 1.0 is not"),
    ([True], "point True is not"),
], ids=["negative", "at-3^n", "past-3^n", "fraction", "float", "bool"])
def test_defining_set_from_points_names_a_bad_point(points, bad):
    # a negative index used to scatter into the mask from its end (-1 as
    # point 8), and a float used to be truncated (1.7 read as 1)
    with pytest.raises(ValueError, match=bad + r" an integer in \[0, 3\^2\)"):
        DefiningSet.from_points(points, 2)


def test_defining_set_copies_its_points():
    mask = _mask([1, 3], 2)
    s = DefiningSet(2, mask)
    mask[1] = False
    assert np.flatnonzero(s.mask).tolist() == [1, 3] and mask.flags.writeable


def test_toy_code():
    code = build_code(DefiningSet.from_points([1], 2), span([1], 2))
    assert code.parameters() == (1, 1, 1)
    assert code.distribution == {0: 1, 1: 2}
    assert enumerator_string(code.distribution) == "1+2y^1"


def test_weight_of_zero_message():
    s = DefiningSet.from_points(range(1, 9), 2)
    assert weight_of(0, s) == 0


def test_weight_balanced_on_full_subspace():
    # S = a 2-dim subspace of F_3^3 minus 0; u outside S-perp sees 2*3^(r-1)
    v = span([encode((1, 0, 0)), encode((0, 1, 0))], 3)
    s = DefiningSet.from_points(v.points(), 3)
    u = encode((1, 2, 0))
    assert weight_of(u, s) == 2 * 3 ** (v.dim - 1)


def test_weight_of_agrees_with_character_sum_exhaustively(built_fixtures):
    for name in ("code36", "code98-a"):
        f = built_fixtures[name]
        ctx = select_defining_set(f)
        for u in range(size(f.n)):
            assert weight_of(u, ctx.defining) == \
                weight_of_character_sum(u, ctx.defining)


def _representatives(pivots) -> np.ndarray:
    """u_c = sum_i c_i e_{P_i} for every c in F_3^r: digit i of c placed
    at digit P_i."""
    r = len(pivots)
    digits = np.arange(size(r))[:, None] // 3 ** np.arange(r) % 3
    return digits @ 3 ** np.array(pivots, dtype=np.int64)


def _assert_weights_cover_every_message(pivots, weights, every: np.ndarray, s) -> None:
    """weights agree with the weights of all 3^n messages `every` at the
    representatives, and each codeword weight arises 3^(n - r) times."""
    n, r = s.n, len(pivots)
    assert r == span(s.mask, n).dim and weights.shape == (size(r),)
    assert np.array_equal(weights, every[_representatives(pivots)])
    assert np.array_equal(np.sort(every), np.sort(np.repeat(weights, size(n - r))))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, size(n) - 1), min_size=1))))
def test_message_weights_equal_direct_count(n_points):
    n, points = n_points
    s = DefiningSet.from_points(sorted(points), n)
    pivots, weights = message_weights(s, span(s.mask, n))
    every = np.array([weight_of(u, s) for u in range(size(n))])
    _assert_weights_cover_every_message(pivots, weights, every, s)


@pytest.mark.parametrize("n", range(1, 13))
def test_message_weights_equal_int64_oracle(n):
    # every nonzero point (the largest |S|), a random half of them, and
    # the nonzero points of the hyperplane x_0 = 0 (r = n - 1, pivots from 1)
    rng = np.random.default_rng(n)
    half = np.flatnonzero(rng.integers(0, 2, size(n)))
    for points in (range(1, size(n)), half, range(3, size(n), 3) if n > 1 else half):
        s = DefiningSet.from_points(points, n)
        indicator = s.mask.astype(np.int64)
        a, b = radix3_oracle(indicator, np.zeros_like(indicator), n)
        pivots, weights = message_weights(s, span(s.mask, n))
        assert weights.dtype == np.int32
        _assert_weights_cover_every_message(pivots, weights, (2 * len(s) - (2 * a - b)) // 3, s)


def test_build_code_dimension_is_rank():
    # rank-deficient defining set
    s = DefiningSet.from_points([1, 2], 2)  # both multiples of e1
    code = build_code(s, span(s.mask, 2))
    assert code.dimension == 1 and code.pivots == (0,)
    assert sum(code.distribution.values()) == 3
    assert code.messages().tolist() == [0, 1, 2]


@pytest.mark.parametrize("n", range(4, 8))
def test_code_over_a_superspace_of_span_s(n):
    # S inside x_0 = x_1 = 0 (the multiples of 9), measured over the
    # hyperplane x_0 = 0 and over F_3^n: each codeword arises once per
    # message of a kernel coset, and dividing that multiplicity out gives
    # the code measured over span(S) and by a direct count
    rng = np.random.default_rng(n)
    ninths = np.arange(9, size(n), 9)
    s = DefiningSet.from_points(ninths[rng.random(len(ninths)) < 0.6], n)
    own = build_code(s, span(s.mask, n))
    every = direct_weights(s)
    kernel = int((every == 0).sum())
    direct = {int(w): int(c) // kernel for w, c in zip(*np.unique(every, return_counts=True))}
    assert size(n - own.dimension) == kernel and own.distribution == direct
    for v in (span(np.arange(0, size(n), 3), n), span(np.arange(size(n)), n)):
        assert v.dim > own.dimension
        code = build_code(s, v)
        assert code.dimension == own.dimension and code.distribution == own.distribution
        assert np.array_equal(code.message_weights, every[_representatives(code.pivots)])
    with pytest.raises(AssertionError, match="must lie in v"):
        build_code(s, span(np.flatnonzero(s.mask)[:1], n))


@pytest.mark.parametrize("weights, message", [
    ([0, 0, 1, 1, 1, 1, 1, 1, 1], "not a power of 3"),
    ([0, 0, 0, 1, 1, 1, 1, 1, 2], "divide every weight count"),
], ids=["zeros-not-a-power", "zeros-not-dividing"])
def test_build_code_asserts_the_kernel_multiplicity(monkeypatch, weights, message):
    s = DefiningSet.from_points([1, 3], 2)
    v = span(s.mask, 2)
    monkeypatch.setattr(codes, "message_weights",
                        lambda s, v: ((0, 1), np.array(weights, dtype=np.int32)))
    with pytest.raises(AssertionError, match=message):
        build_code(s, v)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,case,label_value,length", [
    ("code98-a", CodeCase.EVEN_PLUS, 0, 98),
    ("code98-b", CodeCase.EVEN_PLUS, 1, 98),
    ("code270-a", CodeCase.ODD_PLUS, 2, 270),
    ("code270-b", CodeCase.ODD_PLUS, 1, 270),
    ("code756", CodeCase.EVEN_MINUS, 2, 756),
    ("code36", CodeCase.ODD_MINUS, 1, 36),
    ("code270-c", CodeCase.ODD_MINUS, 0, 270),
])
def test_selection_on_fixtures(built_fixtures, name, case, label_value, length):
    f = built_fixtures[name]
    ctx = select_defining_set(f)
    assert ctx.case is case
    assert selected_dual_value(case, ctx.j0) == label_value
    assert len(ctx.defining) == length
    assert not ctx.defining.mask[0]


def test_selection_hypothesis_failures(built_fixtures):
    # weakly regular
    with pytest.raises(HypothesisError, match="non-weakly-regular"):
        select_defining_set(quadratic_function(QuadraticForm((1, 2, 1, 1))))
    # dual not bent
    with pytest.raises(HypothesisError, match="dual-bent"):
        select_defining_set(built_fixtures["trace14"])
    # not even: add a linear term to the flagship's recipe
    f = built_fixtures["code98-a"]
    bent_not_even = TernaryFunction(
        f.n, (f.table + np.arange(size(f.n)) % 3) % 3)
    # adding a linear form x -> x.c keeps bentness; parity breaks
    if not bent_not_even.is_even():
        with pytest.raises(HypothesisError, match="even"):
            select_defining_set(bent_not_even)


def test_even_minus_alternative_shift(built_fixtures):
    f = built_fixtures["code756"]
    ctx2 = select_defining_set(f)
    assert ctx2.case is CodeCase.EVEN_MINUS
    other = DefiningSet(f.n, preimage_points(ctx2.hypotheses.profile, ctx2.case.side, (ctx2.j0 + 1) % 3))
    assert not np.array_equal(other.mask, ctx2.defining.mask)
    c1 = build_code(other, ctx2.hypotheses.v)
    c2 = build_code(ctx2.defining, ctx2.hypotheses.v)
    assert c1.dimension == c2.dimension == ctx2.r
    # both dual values give the same three-weight distribution
    assert c1.distribution == c2.distribution


def test_case_mapping():
    assert case_for(6, BentType.PLUS) is CodeCase.EVEN_PLUS
    assert case_for(7, BentType.PLUS) is CodeCase.ODD_PLUS
    assert case_for(8, BentType.MINUS) is CodeCase.EVEN_MINUS
    assert case_for(5, BentType.MINUS) is CodeCase.ODD_MINUS


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case,n,r,want", [
    (CodeCase.EVEN_PLUS, 6, 5, {0: 1, 54: 32, 66: 162, 72: 48}),
    (CodeCase.ODD_PLUS, 7, 6, {0: 1, 162: 80, 180: 558, 198: 90}),
    (CodeCase.EVEN_MINUS, 8, 7, {0: 1, 486: 476, 504: 1458, 540: 252}),
    (CodeCase.ODD_MINUS, 5, 4, {0: 1, 18: 8, 24: 60, 30: 12}),
])
def test_prediction_reference_values(case, n, r, want):
    pred = predict_distribution(case, n, r)
    assert pred.distribution == want
    assert sum(want.values()) == 3 ** r


def test_prediction_lengths():
    assert predict_distribution(CodeCase.EVEN_PLUS, 6, 5).length == 98
    assert predict_distribution(CodeCase.ODD_PLUS, 7, 6).length == 270
    assert predict_distribution(CodeCase.EVEN_MINUS, 8, 7).length == 756
    assert predict_distribution(CodeCase.ODD_MINUS, 5, 4).length == 36


def test_prediction_counts_sum_over_sweep():
    for case in CodeCase:
        for n in range(3, 10):
            if n % 2 != case.parity:
                continue
            for r in range(n // 2 + 1, n):
                pred = predict_distribution(case, n, r)
                assert sum(pred.distribution.values()) == 3 ** r
                assert all(e > 0 for e in pred.distribution.values())
                # at odd n and r = (n+1)/2 the lowest weight has no codeword
                assert len(pred.weights) == (2 if n % 2 and r == (n + 1) // 2 else 3)


def test_prediction_validates_inputs():
    with pytest.raises(ValueError, match="parity"):
        predict_distribution(CodeCase.EVEN_PLUS, 5, 4)
    with pytest.raises(ValueError, match="bound"):
        predict_distribution(CodeCase.ODD_PLUS, 7, 3)
    with pytest.raises(ValueError, match="exceeds n=4"):
        predict_distribution(CodeCase.EVEN_MINUS, 4, 9)
    # r = n leaves the other side empty: a weakly regular f, no case
    for case, n in ((CodeCase.EVEN_PLUS, 4), (CodeCase.ODD_MINUS, 5)):
        with pytest.raises(ValueError, match="weakly regular"):
            predict_distribution(case, n, n)
    for case, n in ((CodeCase.EVEN_PLUS, 2), (CodeCase.EVEN_MINUS, 2),
                    (CodeCase.ODD_PLUS, 1), (CodeCase.ODD_MINUS, 1)):
        with pytest.raises(ValueError, match="below 3"):
            predict_distribution(case, n, n)
    for case, n in ((CodeCase.ODD_PLUS, 61), (CodeCase.EVEN_MINUS, 62)):
        with pytest.raises(ValueError, match="exceeds 60"):
            predict_distribution(case, n, n - 1)


def test_prediction_is_integral_at_every_accepted_n():
    # past enumeration too, by the first three Pless power moments.  0 is
    # not in S (it carries j0), so the dual code has no word of weight 1;
    # S = -S (the dual is even) and no two other points of S are parallel,
    # so it has exactly N of weight 2, the multiples of e_x + e_-x
    for case in CodeCase:
        for n in range(3 + (case.parity == 0), codes.PREDICT_MAX_N + 1, 2):
            for r in range(n // 2 + 1, n):
                pred = predict_distribution(case, n, r)
                dist, big_n = pred.distribution, pred.length
                assert all(type(w) is int and type(e) is int for w, e in dist.items())
                assert min(dist.values()) >= 0
                assert sum(dist.values()) == 3 ** r
                assert sum(w * e for w, e in dist.items()) == 2 * 3 ** (r - 1) * big_n
                assert 9 * sum(w * w * e for w, e in dist.items()) \
                    == 4 * big_n * (big_n + 1) * 3 ** r


def test_alt_reading_only_above_the_bound():
    assert predict_distribution(CodeCase.EVEN_PLUS, 4, 3).alt_low_weight_count is None
    assert predict_distribution(CodeCase.EVEN_PLUS, 6, 5).alt_low_weight_count == 30


CLOSED_FORMS = Path(__file__).resolve().parent / "data" / "closed-forms-n3-18.json"


def closed_forms() -> str:
    """Every closed form of every case at n = 3..18 of the case's parity and
    every r with floor(n/2) + 1 <= r <= n - 1, one JSON cell per line: the
    prediction, the three weights, and per j0 the selected dual value and
    the pre-image sizes on both sides as ordered pairs (key order too).

    Regenerate with ``PYTHONPATH=src python tests/test_codes.py``; the file
    pins the closed forms, so it changes only with a new formula."""
    cells = []
    for case in CodeCase:
        for n in range(3, 19):
            if n % 2 != case.parity:
                continue
            for r in range(n // 2 + 1, n):
                pred = predict_distribution(case, n, r)
                cells.append({
                    "case": case.value, "n": n, "r": r,
                    "length": pred.length,
                    "distribution": sorted(pred.distribution.items()),
                    "alt_low_weight_count": pred.alt_low_weight_count,
                    "weights": _case_weights(case, n, r),
                    "by_j0": [{
                        "selected": selected_dual_value(case, j0),
                        **{f"sizes_{side.value}": list(
                            expected_preimage_sizes(n, r, j0, side).items())
                           for side in BentType},
                    } for j0 in range(3)],
                })
    return "[\n" + ",\n".join(json.dumps(c) for c in cells) + "\n]\n"


def test_closed_forms_match_golden():
    assert closed_forms() == CLOSED_FORMS.read_text()


# ---------------------------------------------------------------------------
# Per-codeword classification
# ---------------------------------------------------------------------------

def test_classifier_matches_actual_weights(built_fixtures):
    f = built_fixtures["code36"]
    ctx = select_defining_set(f)
    clf = WeightClassifier(ctx)
    assert clf.f is f
    code = build_code(ctx.defining, ctx.hypotheses.v)
    assert clf.check_all(code) is None
    messages = code.messages()
    expected = clf.expected_weights(code)
    assert len(expected) == 3 ** ctx.r
    for c in (0, 1, 17, 42, 80):
        assert expected[c] == code.message_weights[c] == weight_of(int(messages[c]), ctx.defining)


def test_classifier_reports_first_mismatch(built_fixtures):
    # the odd/minus rule applied to another pre-image of the dual
    f = built_fixtures["code36"]
    ctx = select_defining_set(f)
    other = ctx.preimages.minus[(ctx.value + 1) % 3]
    swapped = dataclasses.replace(
        ctx, defining=DefiningSet.from_points(other, f.n))
    clf = WeightClassifier(swapped)
    code = build_code(swapped.defining, ctx.hypotheses.v)
    messages = code.messages()
    expected = clf.expected_weights(code)
    first = next(u for c, u in enumerate(messages.tolist())
                 if expected[c] != weight_of(u, swapped.defining))
    # the weights build_code measured give that verdict, as a message
    assert np.array_equal(code.message_weights, message_weights(swapped.defining, ctx.hypotheses.v)[1])
    assert clf.check_all(code) == first
    # a mismatch at the last entry c is reported as u_c, not as c (the
    # pivots of code36 skip digit 3)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    weights = code.message_weights.copy()
    weights[-1] += 1
    u = int(code.messages()[-1])
    assert u != len(weights) - 1
    assert WeightClassifier(ctx).check_all(dataclasses.replace(code, message_weights=weights)) == u


def test_classifier_kernel_is_complement(built_fixtures):
    # the representatives meet the kernel V-perp only at 0, one per coset
    f = built_fixtures["code98-a"]
    ctx = select_defining_set(f)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    messages = code.messages()
    perp = orthogonal_complement(ctx.hypotheses.v).points()
    assert len(messages) == 3 ** ctx.r and messages[0] == 0
    assert np.array_equal(np.intersect1d(messages, perp), [0])
    cosets = {min(add_points(u, w, f.n) for w in perp.tolist()) for u in messages.tolist()}
    assert len(cosets) == 3 ** ctx.r
    assert WeightClassifier(ctx).expected_weights(code)[0] == 0


@pytest.mark.parametrize("name", ["code98-a", "code270-a", "code756", "code36"])
def test_classifier_flat_key_reads_the_case_table(built_fixtures, name):
    # the weight at each representative, read row by row off the case table
    f = built_fixtures[name]
    ctx = select_defining_set(f)
    clf = WeightClassifier(ctx)
    weights = _case_weights(ctx.case, f.n, ctx.r)
    rows = _CASE_RULES[ctx.case].weight_class
    code = build_code(ctx.defining, ctx.hypotheses.v)
    in_dual_plus = bent_profile(ctx.hypotheses.profile.dual).sign == 1
    expected = [0 if u == 0 else
                weights[rows[int(in_dual_plus[u])][(f(u) - ctx.j0) % 3]]
                for u in code.messages().tolist()]
    assert clf.expected_weights(code).tolist() == expected


def _parent_expected_weights(clf: WeightClassifier, messages: np.ndarray) -> np.ndarray:
    """The classifier's table by its earlier formula: an int64 six-entry
    table indexed by a key reduced mod 3, and np.where for the message 0."""
    case, j0 = clf.ctx.case, clf.ctx.j0
    weights = np.array(_case_weights(case, clf.f.n, clf.ctx.r), dtype=np.int64)
    table = weights[_CASE_RULES[case].weight_class].ravel()
    delta = (clf.f.table[messages] - np.int8(j0)) % np.int8(3)
    dual_sign = bent_profile(clf.ctx.hypotheses.profile.dual).sign
    key = (dual_sign[messages] == 1).view(np.int8) * np.int8(3) + delta
    return np.where(messages == 0, 0, table[key])


def _seeded_glue(n: int, side: BentType) -> TernaryFunction:
    """An eligible glue instance at n = m + 2s, s = 1, from a fixed seed."""
    rng = random.Random(n)
    for _ in range(20):
        f = gmmf_build(random_instance(rng, n - 2, 1, side, random_subspace(rng, 1, 0),
                                       rng.randrange(3)))
        if establish(f).ok:
            return f
    raise AssertionError(f"no eligible glue instance at n={n}")


CLASSIFIED = ([(name, None) for name in ("code98-a", "code98-b", "code270-a", "code270-b",
                                         "code756", "code36", "code270-c", "trace36")]
              + [(f"glue-n{n}-{side.value}", (n, side))
                 for n in range(3, 11) for side in (BentType.PLUS, BentType.MINUS)])


@pytest.mark.parametrize("name,glue", CLASSIFIED, ids=[name for name, _ in CLASSIFIED])
def test_expected_weights_are_int32_and_match_the_int64_formula(built_fixtures, name, glue):
    f = built_fixtures[name] if glue is None else _seeded_glue(*glue)
    ctx = select_defining_set(f)
    clf = WeightClassifier(ctx)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    expected = clf.expected_weights(code)
    assert expected.dtype == np.int32
    assert np.array_equal(expected, _parent_expected_weights(clf, code.messages()))


@pytest.mark.parametrize("name,glue", CLASSIFIED, ids=[name for name, _ in CLASSIFIED])
def test_theorem_classifier_agrees_with_a_direct_count_at_every_message(built_fixtures,
                                                                       name, glue):
    # the exhaustive oracle behind the quotient: at all 3^n messages, the
    # case table with V-perp from a scan against a count over S
    f = built_fixtures[name] if glue is None else _seeded_glue(*glue)
    ctx = select_defining_set(f)
    in_perp = np.zeros(size(f.n), dtype=bool)
    in_perp[brute_perp(ctx.hypotheses.v)] = True
    in_dual_plus = bent_profile(ctx.hypotheses.profile.dual).sign == 1
    rows = _CASE_RULES[ctx.case].weight_class[in_dual_plus.astype(int), (f.table - ctx.j0) % 3]
    predicted = np.where(in_perp, 0, np.array(_case_weights(ctx.case, f.n, ctx.r))[rows])
    assert np.array_equal(predicted, direct_weights(ctx.defining))
    code = build_code(ctx.defining, ctx.hypotheses.v)
    assert code.dimension == ctx.r and WeightClassifier(ctx).check_all(code) is None


def _perturbed_radix3(monkeypatch, shift):
    """Patch codes._radix3 so the unit coefficient at message 1 becomes
    shift(a[1], |S|) for the defining set S of the call."""
    original = codes._radix3

    def perturbed(ab, n):
        k = int(ab[0].sum())  # row 0 is the indicator of S
        ab = original(ab, n)
        ab[0, 1] = shift(int(ab[0, 1]), k)
        return ab

    monkeypatch.setattr(codes, "_radix3", perturbed)


@pytest.mark.parametrize("shift", [
    lambda a, k: a + 1,          # 2|S| - (2a - b) no longer divisible by 3
    lambda a, k: a - 3 * k,      # a multiple of 3 above 3|S|: weight above |S|
], ids=["not-divisible", "above-3S"])
def test_message_weights_asserts_every_weight_in_range(built_fixtures, monkeypatch, shift):
    ctx = select_defining_set(built_fixtures["code36"])
    s, v = ctx.defining, ctx.hypotheses.v
    assert message_weights(s, v)[1].dtype == np.int32
    _perturbed_radix3(monkeypatch, shift)
    with pytest.raises(AssertionError, match="character-sum weight"):
        message_weights(s, v)


# ---------------------------------------------------------------------------
# Negation pairing
# ---------------------------------------------------------------------------

def test_negation_check_forward(built_fixtures):
    rep = negation_check(built_fixtures["code270-a"])
    assert rep.ok
    assert {rep.f_context.case, rep.g_context.case} == \
        {CodeCase.ODD_PLUS, CodeCase.ODD_MINUS}


def test_negation_check_reverse(built_fixtures):
    rep = negation_check(built_fixtures["code36"])
    assert rep.ok
    assert rep.f_context.case is CodeCase.ODD_MINUS
    assert rep.g_context.case is CodeCase.ODD_PLUS


def test_negation_check_rejects_even_dimension(built_fixtures):
    with pytest.raises(HypothesisError, match="odd"):
        negation_check(built_fixtures["code98-a"])


def test_negation_check_rejects_weakly_regular():
    f = quadratic_function(QuadraticForm((1, 1, 1, 2, 1)))
    with pytest.raises(HypothesisError):
        negation_check(f)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_enumerator_examples(built_fixtures):
    f = built_fixtures["code98-a"]
    ctx = select_defining_set(f)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    assert enumerator_string(code.distribution) == "1+32y^54+162y^66+48y^72"


def test_code_report_serialization_keys(built_fixtures):
    f = built_fixtures["code98-a"]
    ctx = select_defining_set(f)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    pred = predict_distribution(ctx.case, f.n, ctx.r)
    rep = code_report(code, pred, ctx.case, ctx.r)
    doc = dataclasses.asdict(rep)
    for key in ("n", "r", "case", "length", "dimension", "min_distance",
                "distribution", "enumerator", "prediction", "match"):
        assert key in doc
    assert doc["match"] is True
    assert doc["distribution"] == sorted(doc["distribution"])
    assert any("discrepancy" in note for note in doc["notes"])


if __name__ == "__main__":
    CLOSED_FORMS.write_text(closed_forms())
