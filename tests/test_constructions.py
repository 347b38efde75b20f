import itertools

import numpy as np
import pytest

from tribent.analysis import (
    BentType,
    Regularity,
    TernaryFunction,
    bent_profile,
)
from tribent.constructions import (
    GmmfSpec,
    PolyParseError,
    QuadraticForm,
    TraceSpec,
    eval_poly,
    function_from_spec,
    gmmf_build,
    gmmf_predict,
    parse_poly,
    quadratic_function,
    quadratic_type,
    trace_function,
)
from tribent import core
from tribent.core import DimensionCapError, decode, encode, size
from tribent.fields import ExtField
from tribent.fixtures import FIXTURES

from conftest import dot, random_function


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

def test_quadratic_table_one_variable():
    assert quadratic_function(QuadraticForm((1,))).table.tolist() == [0, 1, 1]


def test_quadratic_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        QuadraticForm((1, 3, 2))


def test_quadratic_constant_shift():
    q0 = quadratic_function(QuadraticForm((2, 1)))
    q1 = quadratic_function(QuadraticForm((2, 1), 1))
    assert np.array_equal((q0.table + 1) % 3, q1.table)


def test_quadratic_type_against_measurement_exhaustive():
    for m in range(1, 6):
        for coeffs in itertools.product((1, 2), repeat=m):
            q = QuadraticForm(coeffs)
            assert quadratic_type(q) is bent_profile(quadratic_function(q)).type


def test_quadratic_type_known_cases():
    assert quadratic_type(QuadraticForm((2, 2, 1, 1))) is BentType.PLUS
    assert quadratic_type(QuadraticForm((1, 1, 2, 1))) is BentType.MINUS
    assert quadratic_type(QuadraticForm((1,))) is BentType.PLUS


# ---------------------------------------------------------------------------
# Component gluing
# ---------------------------------------------------------------------------

def test_gmmf_constant_family_matches_direct_formula():
    comp = quadratic_function(QuadraticForm((1,)))
    spec = GmmfSpec(1, 1, (comp, comp, comp))
    built = gmmf_build(spec)
    direct = TernaryFunction.from_callable(3, lambda c: c[0] ** 2 + c[2] * c[1])
    assert built == direct
    prof = bent_profile(built)
    assert prof.regularity is not Regularity.NON_WEAKLY_REGULAR


@pytest.mark.parametrize("m, s", [(2, 2), (2, 3)])
def test_gmmf_distinct_components_match_direct_formula(m, s):
    # distinct components tell the x, y and z blocks apart: F(x, y, z) =
    # f_z(x) + z.y with x the low digits and z the high ones
    rng = np.random.default_rng(10 * m + s)
    while True:
        comps = tuple(random_function(rng, m) for _ in range(size(s)))
        if len({c.table.tobytes() for c in comps}) == len(comps):
            break
    built = gmmf_build(GmmfSpec(m, s, comps))

    def direct(c):
        x, y, z = encode(c[:m]), encode(c[m:m + s]), encode(c[m + s:])
        return int(comps[z].table[x]) + dot(z, y, s)

    assert built == TernaryFunction.from_callable(m + 2 * s, direct)


def test_gmmf_component_count_enforced():
    comp = quadratic_function(QuadraticForm((1,)))
    with pytest.raises(ValueError):
        GmmfSpec(1, 1, (comp, comp))


def _quadratic_glue(forms: list[QuadraticForm]) -> GmmfSpec:
    """Glue spec (s = 1) from three diagonal quadratic components."""
    return GmmfSpec(forms[0].m, 1, tuple(quadratic_function(q) for q in forms))


def test_gmmf_prediction_matches_measurement(built_fixtures):
    # reconstruct the flagship spec and compare prediction to measurement
    spec = _quadratic_glue(
        [QuadraticForm((2, 2, 1, 1)), QuadraticForm((1, 1, 2, 1)),
         QuadraticForm((1, 1, 2, 1))])
    pred = gmmf_predict(spec)
    prof = bent_profile(built_fixtures["code98-a"])
    assert pred.sign.dtype == prof.sign.dtype
    assert np.array_equal(pred.sign, prof.sign)
    assert pred.dual == prof.dual
    assert pred.regularity is prof.regularity
    assert pred.type is prof.type
    assert np.array_equal(pred.w_plus, [0]) and np.array_equal(pred.w_minus, [1, 2])


def test_gmmf_prediction_single_type_sides():
    spec = _quadratic_glue(
        [QuadraticForm((1, 2)), QuadraticForm((2, 1)), QuadraticForm((2, 1))])
    # all three components are plus type
    pred = gmmf_predict(spec)
    assert (pred.sign == 1).all() and not pred.w_minus.size
    assert pred.regularity is not Regularity.NON_WEAKLY_REGULAR
    prof = bent_profile(gmmf_build(spec))
    assert pred.regularity is prof.regularity
    assert np.array_equal(pred.sign, prof.sign)


def test_gmmf_prediction_refuses_non_weakly_regular_component(built_fixtures):
    nwr = built_fixtures["code36"]  # n=5 non-weakly regular bent
    spec = GmmfSpec(5, 1, (nwr, nwr, nwr))
    with pytest.raises(ValueError, match="weakly regular"):
        gmmf_predict(spec)


def test_gmmf_even_when_components_pair_up(built_fixtures):
    for name in ("code98-a", "code270-b", "code756"):
        assert built_fixtures[name].is_even()


def test_gmmf_random_specs_predict_exactly():
    rng = np.random.default_rng(123)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        coeff = lambda: tuple(int(c) for c in rng.integers(1, 3, m))
        forms = {}
        for z in range(3):
            rep = min(z, (3 - z) % 3)
            if rep not in forms:
                forms[rep] = QuadraticForm(coeff())
            forms[z] = forms[rep]
        spec = _quadratic_glue([forms[z] for z in range(3)])
        pred = gmmf_predict(spec)
        prof = bent_profile(gmmf_build(spec))
        assert np.array_equal(pred.sign, prof.sign)
        assert pred.dual == prof.dual
        assert pred.regularity is prof.regularity
        both = pred.w_plus.size and pred.w_minus.size
        assert (prof.regularity is Regularity.NON_WEAKLY_REGULAR) == bool(both)


# ---------------------------------------------------------------------------
# Polynomial expressions
# ---------------------------------------------------------------------------

def test_parse_matches_quadratic():
    f = eval_poly(parse_poly("x1^2 + 2*x2^2", 2))
    assert f == quadratic_function(QuadraticForm((1, 2)))


def test_parse_coefficient_arithmetic():
    assert eval_poly(parse_poly("x1 + x1", 1)) == eval_poly(parse_poly("2*x1", 1))


def test_parse_exponents_act_pointwise():
    assert eval_poly(parse_poly("x1^3", 1)) == eval_poly(parse_poly("x1", 1))
    assert eval_poly(parse_poly("x1^4", 1)) == eval_poly(parse_poly("x1^2", 1))


def test_parse_constant_and_juxtaposition():
    f = eval_poly(parse_poly("2 + 2x1^2", 1))
    assert f.table.tolist() == [2, 1, 1]


def test_parse_minus_sign():
    f = eval_poly(parse_poly("x1 - x2", 2))
    g = eval_poly(parse_poly("x1 + 2*x2", 2))
    assert f == g


def test_parse_juxtaposed_factors_multiply():
    assert parse_poly("2x1x2", 2) == parse_poly("2*x1*x2", 2)
    assert eval_poly(parse_poly("x1x2^2", 2)) == eval_poly(parse_poly("x1 * x2^2", 2))


@pytest.mark.parametrize("text, position", [
    ("*", 0), ("x1*", 2), ("x1 + *x2", 5), ("x1* + x2", 2), ("x1 * * x2", 3), ("x1 *^2", 3)])
def test_parse_refuses_a_star_outside_two_factors(text, position):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, 2)
    assert exc.value.position == position


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError, match="x3"):
        parse_poly("x1 + x3", 2)
    with pytest.raises(PolyParseError, match="exponent"):
        parse_poly("x1^", 2)
    with pytest.raises(PolyParseError, match="unexpected"):
        parse_poly("x1 % x2", 2)
    err = None
    try:
        parse_poly("x1 + x9^2", 3)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.position == 5


def test_all_fixture_polynomials_match_built_tables(built_fixtures):
    checked = 0
    for fx in FIXTURES:
        if fx.polynomial is None:
            continue
        built = built_fixtures[fx.name]
        assert eval_poly(parse_poly(fx.polynomial, built.n)) == built, fx.name
        checked += 1
    assert checked == 7


def test_fixture_dual_polynomials_match_measured_duals(built_fixtures):
    for fx in FIXTURES:
        if fx.dual_polynomial is None:
            continue
        f = built_fixtures[fx.name]
        dual = bent_profile(f).dual
        assert eval_poly(parse_poly(fx.dual_polynomial, f.n)) == dual, fx.name


# ---------------------------------------------------------------------------
# Trace forms
# ---------------------------------------------------------------------------

def test_trace_function_degree2_oracle():
    # oracle: t^3 = 2t + 1 under t^2 + 2t + 2, so Tr(a0 + a1 t) = 2a0 + a1*Tr(t)
    fld = ExtField.create(2, [2, 2, 1], 3)
    f = trace_function(TraceSpec(fld, ((0, 1),)))  # Tr(x)
    for x in range(9):
        a0, a1 = decode(x, 2)
        assert f(x) == (2 * a0 + a1 * 1) % 3


def test_trace_function_is_even_for_even_exponents(built_fixtures):
    for name in ("trace14", "trace36"):
        assert built_fixtures[name].is_even()


def test_trace14_classification(built_fixtures):
    f = built_fixtures["trace14"]
    p = bent_profile(f)
    assert p.type is BentType.PLUS
    assert p.regularity is Regularity.NON_WEAKLY_REGULAR
    from tribent.core import is_subspace, span
    plus = np.flatnonzero(p.side_mask(BentType.PLUS))
    assert is_subspace(plus, 4)
    assert span(plus, 4).dim == 3


def test_trace36_classification(built_fixtures):
    f = built_fixtures["trace36"]
    p = bent_profile(f)
    assert p.type is BentType.MINUS
    from tribent.core import is_subspace, span
    minus = np.flatnonzero(p.side_mask(BentType.MINUS))
    assert is_subspace(minus, 6)
    assert span(minus, 6).dim == 4


@pytest.mark.parametrize("spec", [
    {"m": 1, "s": 6, "components": [{"table": [0, 0, 0]}] * 729},
    {"k": 13, "modulus": [1] + [0] * 12 + [1], "generator": 3, "terms": [[0, 2]]},
], ids=["glue-n13", "trace-k13"])
def test_spec_refused_by_the_cap_or_the_memory_guard_raises_dimension_cap_error(
        spec, monkeypatch):
    # not the "bad ... spec" ValueError of a malformed body: a caller that
    # catches DimensionCapError from eval_poly or run_search catches it here
    key = "k" if "k" in spec else "s"
    past = {**spec, key: spec[key] + (6 if key == "k" else 3)}  # n = 19
    with pytest.raises(DimensionCapError, match="n=19 exceeds 18") as exc:
        function_from_spec(past)
    assert "spec" not in str(exc.value)
    monkeypatch.setattr(core, "memory_limit", lambda: 1 << 20)
    with pytest.raises(DimensionCapError, match="needs about") as exc:
        function_from_spec(spec)
    assert "spec" not in str(exc.value)

