import dataclasses

import pytest

from tribent import analysis, codes, pipeline
from tribent.analysis import TernaryFunction
from tribent.codes import _CASE_RULES, CodeCase, DefiningSet, _case_weights, build_code
from tribent.constructions import QuadraticForm, quadratic_function
from tribent.core import dots_with
from tribent.fixtures import FIXTURES, get_fixture, run_fixture
from tribent.pipeline import run_pipeline

from conftest import weight_of


def test_full_pass_on_flagship(flagship):
    rep = run_pipeline(flagship)
    assert rep.passed
    assert rep.case == "even-plus"
    assert rep.defining_set == "C0"
    assert rep.code.match
    assert all(s.ok for s in rep.stages)


def test_linear_function_stops_at_bentness():
    rep = run_pipeline(TernaryFunction(2, [x % 3 for x in range(9)]))
    assert rep.stages[0].name == "bent"
    assert not rep.stages[0].ok
    assert rep.code is None
    assert not rep.passed


@pytest.mark.parametrize("label", ["C0", "D2"])
def test_forced_set_on_a_function_that_is_not_bent_gets_a_note(label):
    rep = run_pipeline(TernaryFunction(2, [x % 3 for x in range(9)]), force_set=label)
    assert rep.code is None and rep.defining_set is None and not rep.passed
    assert rep.notes == [f"f is not bent, so it has no dual and the requested "
                         f"set {label} was not measured"]


def test_weakly_regular_reports_empty_side():
    rep = run_pipeline(quadratic_function(QuadraticForm((1, 2, 1, 1))))
    stage = rep.stage("non-weakly-regular")
    assert stage is not None and not stage.ok
    assert "empty" in stage.detail


def test_forced_set_on_failed_hypotheses(built_fixtures):
    f = built_fixtures["trace14"]
    rep = run_pipeline(f, force_set="C0")
    assert not rep.passed  # a hypothesis stage failed
    assert rep.code is not None
    assert rep.code.prediction is None
    assert (rep.code.length, rep.code.dimension, rep.code.min_distance) == (14, 3, 6)
    assert any("dual-bent" in note for note in rep.notes)


@pytest.mark.parametrize("label", ["C0", "C1", "D0"])
def test_forced_empty_set_gets_a_note(label):
    rep = run_pipeline(quadratic_function(QuadraticForm((1,))), force_set=label)
    assert rep.code is None and rep.defining_set is None
    assert rep.notes == [f"the requested set {label} is empty; nothing was measured"]


def test_failed_stage_and_eligibility(flagship, built_fixtures, off_by_one_classifier):
    rep = run_pipeline(built_fixtures["trace14"])
    assert (rep.failed_stage, rep.eligible, rep.passed) == ("dual-bent", False, False)
    weak = run_pipeline(quadratic_function(QuadraticForm((1, 2, 1, 1))))
    assert (weak.failed_stage, weak.eligible) == ("non-weakly-regular", False)
    # a failed check after the hypotheses leaves the instance eligible
    rep = run_pipeline(flagship)
    assert (rep.failed_stage, rep.eligible, rep.passed) == ("per-codeword-weights", True, False)


def test_distribution_off_its_closed_form_names_its_stage(flagship, monkeypatch):
    # a wrong count row that keeps the total 3^r: every codeword's weight
    # still agrees, only the aggregate distribution is off
    rule = _CASE_RULES[CodeCase.EVEN_PLUS]
    monkeypatch.setitem(codes._CASE_RULES, CodeCase.EVEN_PLUS,
                        rule._replace(counts=((0, 1, 1), (0, 2, -1), (1, -3, 0))))
    rep = run_pipeline(flagship)
    assert not rep.code.match
    assert (rep.failed_stage, rep.eligible, rep.passed) == ("per-codeword-weights", True, False)
    assert rep.stage("per-codeword-weights").detail == "distribution off the closed form"


def test_forced_set_without_failures_is_ignored_in_favor_of_selection(flagship):
    rep = run_pipeline(flagship, force_set="C2")
    # hypotheses all hold, so the selector's set is used, not the forced one
    assert rep.defining_set == "C0"
    assert rep.passed


@pytest.mark.parametrize("label", ["C2", "D1"])
def test_an_ignored_forced_set_is_named_in_a_note(flagship, label):
    plain = run_pipeline(flagship)
    rep = run_pipeline(flagship, force_set=label)
    note = (f"every hypothesis holds, so the selected set C0 was measured, "
            f"not the requested set {label}")
    assert rep.notes == [note] + plain.notes
    # requesting the selected set itself changes nothing
    assert run_pipeline(flagship, force_set="C0").to_dict() == plain.to_dict()


def test_report_dict_shape(flagship):
    doc = run_pipeline(flagship).to_dict()
    assert doc["passed"] is True
    assert {s["name"] for s in doc["stages"]} >= {
        "bent", "non-weakly-regular", "even", "dual-bent",
        "type-side-subspace", "non-degenerate", "dimension-bound",
        "preimage-sizes", "coset-structure", "per-codeword-weights",
    }
    assert doc["code"]["enumerator"] == "1+32y^54+162y^66+48y^72"


def test_all_fixtures_pass():
    for res in map(run_fixture, FIXTURES):
        assert res.ok, f"{res.fixture.name}: {res.mismatches}"


def test_fixture_order_independence():
    names = [fx.name for fx in FIXTURES]
    a = run_fixture(get_fixture(names[3])).ok
    b = run_fixture(get_fixture(names[0])).ok
    assert a and b


@pytest.mark.parametrize("key", list(get_fixture("code98-a").expect))
def test_a_wrong_expectation_is_one_mismatch_naming_it(key):
    fx = get_fixture("code98-a")
    wrong = dataclasses.replace(fx, expect={**fx.expect, key: "wrong"})
    res = run_fixture(wrong)
    assert not res.ok
    assert res.mismatches == [f"{key}: got {fx.expect[key]}, expected wrong"]


@pytest.mark.parametrize("field, message", [
    ("polynomial", "closed-form polynomial disagrees with the built table"),
    ("dual_polynomial", "recorded dual polynomial disagrees with the measured dual"),
])
def test_a_wrong_polynomial_is_one_mismatch(field, message):
    wrong = dataclasses.replace(get_fixture("code98-a"), **{field: "x1^2 + x5*x6"})
    res = run_fixture(wrong)
    assert (res.ok, res.mismatches) == (False, [message])


def test_unknown_fixture():
    with pytest.raises(KeyError):
        get_fixture("nope")


@pytest.mark.parametrize("label", ["C3", "C", "X0", "", "d1"])
def test_malformed_forced_set_is_refused_before_any_transform(built_fixtures, monkeypatch, label):
    def no_transform(*args):
        raise AssertionError("transformed before the label was checked")

    monkeypatch.setattr(analysis, "_radix3", no_transform)
    with pytest.raises(ValueError, match="C0..C2 or D0..D2"):
        run_pipeline(built_fixtures["trace14"], force_set=label)


# ---------------------------------------------------------------------------
# The per-codeword stage fails with either premise of the quotient check
# ---------------------------------------------------------------------------

def _with_defining_points(monkeypatch, pick) -> None:
    """Make run_pipeline measure pick(ctx) in place of the selected set."""
    original = pipeline.defining_set_for

    def replaced(hyp):
        ctx = original(hyp)
        return dataclasses.replace(ctx, defining=DefiningSet.from_points(pick(ctx), ctx.defining.n))

    monkeypatch.setattr(pipeline, "defining_set_for", replaced)


@pytest.mark.parametrize("name", ["code98-a", "code36", "code756"])
def test_per_codeword_stage_needs_the_full_dimension(built_fixtures, monkeypatch, name):
    # keep the points of S orthogonal to one of them: span(S) drops to a
    # hyperplane of V (V is non-degenerate, so no point of S is in V-perp)
    def hyperplane(ctx):
        points = ctx.defining.points
        return points[dots_with(int(points[0]), ctx.defining.n)[points] == 0]

    _with_defining_points(monkeypatch, hyperplane)
    rep = run_pipeline(built_fixtures[name])
    assert rep.code.dimension < rep.r
    assert not rep.stage("per-codeword-weights").ok and not rep.passed
    # the stage fails on the dimension alone, even where every
    # representative agrees
    monkeypatch.setattr(pipeline.WeightClassifier, "check_all", lambda self, code: None)
    stage = run_pipeline(built_fixtures[name]).stage("per-codeword-weights")
    assert not stage.ok
    assert stage.detail == f"code dimension {rep.code.dimension} != r = {rep.r}"


def test_per_codeword_stage_names_the_first_mismatching_representative(built_fixtures,
                                                                       monkeypatch):
    # the odd/minus rule measured on another pre-image of the dual
    f = built_fixtures["code36"]
    _with_defining_points(monkeypatch, lambda ctx: ctx.preimages.minus[(ctx.value + 1) % 3])
    rep = run_pipeline(f)
    ctx = pipeline.defining_set_for(analysis.establish(f))
    code = build_code(ctx.defining, ctx.hypotheses.v)
    assert code.dimension == rep.r
    weights = _case_weights(ctx.case, f.n, ctx.r)
    rows = _CASE_RULES[ctx.case].weight_class
    dual_sign = analysis.bent_profile(ctx.hypotheses.profile.dual).sign

    def predicted(u):
        in_dual_plus = int(dual_sign[u] == 1)
        return 0 if u == 0 else weights[rows[in_dual_plus][(f(u) - ctx.j0) % 3]]

    first = next(u for u in code.messages().tolist()
                 if predicted(u) != weight_of(u, ctx.defining))
    assert rep.stage("per-codeword-weights").detail == f"message {first} off prediction"
