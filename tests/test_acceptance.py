"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact integer comparison; there are no tolerances
anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to watch the
per-criterion lines stream.
"""

import time

import numpy as np
import pytest

from tribent.analysis import (
    BentType,
    Regularity,
    TernaryFunction,
    bent_profile,
    coset_structure,
    establish,
    expected_preimage_sizes,
    preimage_sets,
    walsh_spectrum,
)
from tribent.codes import CodeCase, predict_distribution
from tribent.core import size, span
from tribent.fixtures import FIXTURES, run_fixture
from tribent.pipeline import run_pipeline
from tribent.search import run_search

from conftest import (
    expected_s0_minus_s1,
    naive_spectrum_pair,
    neg_point,
    random_function,
    s0_s1,
)

EXPECTED_CODES = {
    "code98-a": ((98, 5, 54), "1+32y^54+162y^66+48y^72"),
    "code98-b": ((98, 5, 54), "1+32y^54+162y^66+48y^72"),
    "code270-a": ((270, 6, 162), "1+80y^162+558y^180+90y^198"),
    "code270-b": ((270, 6, 162), "1+80y^162+558y^180+90y^198"),
    "code756": ((756, 7, 486), "1+476y^486+1458y^504+252y^540"),
    "code36": ((36, 4, 18), "1+8y^18+60y^24+12y^30"),
    "code270-c": ((270, 6, 162), "1+80y^162+558y^180+90y^198"),
    "trace36": ((36, 4, 18), "1+4y^18+72y^24+4y^36"),
    "trace14": ((14, 3, 6), "1+4y^6+18y^10+4y^12"),
}

# per-case search plans: (m, s, u_dim, count, seed); n = m + 2s and
# r = m + s + u_dim, so (1, 2, 0) is odd n = 5 at the minimal r = 3
SEARCH_PLANS = {
    CodeCase.EVEN_PLUS: [(2, 1, 0, 30, 101), (4, 1, 0, 20, 102), (2, 2, 1, 10, 103)],
    CodeCase.ODD_PLUS: [(3, 1, 0, 30, 201), (5, 1, 0, 15, 202), (3, 2, 1, 10, 203),
                        (1, 2, 0, 10, 204)],
    CodeCase.EVEN_MINUS: [(2, 1, 0, 25, 301), (4, 1, 0, 20, 302), (6, 1, 0, 10, 303)],
    CodeCase.ODD_MINUS: [(3, 1, 0, 30, 401), (5, 1, 0, 15, 402), (1, 3, 1, 10, 403),
                         (1, 2, 0, 10, 404)],
}


def _announce(k: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE criterion {k}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_example_reproduction():
    slowest = 0.0
    for fx in FIXTURES:
        t0 = time.time()
        res = run_fixture(fx)
        dt = time.time() - t0
        slowest = max(slowest, dt)
        assert res.ok, f"{fx.name}: {res.mismatches}"
        code = res.report.code
        params, enum = EXPECTED_CODES[fx.name]
        assert (code.length, code.dimension, code.min_distance) == params
        assert code.enumerator == enum
        assert dt < 10.0, f"{fx.name} took {dt:.1f}s"
    _announce(1, True, f"all {len(FIXTURES)} bundled codes reproduced exactly "
                       f"(slowest fixture {slowest:.2f}s)")


@pytest.mark.parametrize("case", list(CodeCase), ids=lambda c: c.value)
def test_criterion_2_closed_form_agreement(case):
    eligible = matched = 0
    sizes_ok = True
    for m, s, u_dim, count, seed in SEARCH_PLANS[case]:
        summary = run_search(m, s, count, seed, side=case.side, u_dim=u_dim)
        for o in summary.outcomes:
            if not o.report.eligible:
                continue
            eligible += 1
            if o.report.passed:
                matched += 1
            stage = o.report.stage("preimage-sizes")
            sizes_ok = sizes_ok and stage is not None and stage.ok
    assert eligible >= 50, f"only {eligible} eligible instances for {case.value}"
    assert matched == eligible
    assert sizes_ok
    _announce(2, True, f"{case.value}: {matched}/{eligible} instances match the "
                       f"closed form, per codeword and in aggregate")


def test_criterion_3_cardinality_formulas(built_fixtures):
    for fx in FIXTURES:
        f = built_fixtures[fx.name]
        prof = bent_profile(f)
        r = span(np.flatnonzero(prof.side_mask(prof.type)), f.n).dim
        pre = preimage_sets(prof)
        sets = pre.plus if prof.type is BentType.PLUS else pre.minus
        want = expected_preimage_sizes(f.n, r, f(0), prof.type)
        got = {i: len(sets[i]) for i in range(3)}
        assert got == want, f"{fx.name}: {got} != {want}"
    _announce(3, True, "pre-image sizes match the closed forms on every fixture "
                       "(search instances checked under criterion 2)")


def test_criterion_4_structural_properties(built_fixtures):
    checked_y = 0
    for fx in FIXTURES:
        f = built_fixtures[fx.name]
        prof = bent_profile(f)

        # exact spectral energy, for the function and its dual
        assert walsh_spectrum(f).parseval_total() == 3 ** (2 * f.n)
        assert walsh_spectrum(prof.dual).parseval_total() == 3 ** (2 * f.n)

        # even bent functions: dual takes the same value at 0 and is even
        assert f.is_even()
        assert prof.dual(0) == f(0)
        assert prof.dual.is_even()

        # symmetric point sets under negation
        for t in BentType:
            points = np.flatnonzero(prof.side_mask(t))
            assert np.array_equal(np.sort([neg_point(x, f.n) for x in points.tolist()]), points)

        # dual sums reproduce the inverse-transform identity at every y
        if f.n <= 6:
            for y in range(size(f.n)):
                s0, s1 = s0_s1(f, y, prof)
                assert s0 - s1 == expected_s0_minus_s1(f, y)
                checked_y += 1

        dual_bent = True
        try:
            dual_prof = bent_profile(prof.dual)
        except Exception:
            dual_bent = False
        if fx.name == "trace14":
            assert not dual_bent
            continue

        # involution and the type parity rule
        assert dual_prof.dual == f
        if f.n % 2 == 0:
            assert dual_prof.type is prof.type
        else:
            assert dual_prof.type is not prof.type

        # coset tiling, constant restriction, and the dual side size
        cs = coset_structure(f, prof)
        hyp = establish(f, prof)
        r = hyp.r
        assert cs.coset_union_ok and cs.constant_ok
        on_plus = (f.n % 2 == 0) == (prof.type is BentType.PLUS)
        assert cs.constant_branch == ("i_plus" if on_plus else "i_minus")
        side_of_dual = hyp.dual_profile.side_mask(BentType.PLUS if on_plus else BentType.MINUS)
        assert np.count_nonzero(side_of_dual) == 3 ** r
        branch = np.flatnonzero(prof.side_mask(prof.type) & side_of_dual)
        assert len(branch) == 3 ** (2 * r - f.n)

    # Parseval also holds for non-bent input
    rng = np.random.default_rng(0)
    g = random_function(rng, 4)
    assert walsh_spectrum(g).parseval_total() == 3 ** 8
    _announce(4, True, f"propositions hold on all fixtures "
                       f"(inverse identity checked at {checked_y} points)")


def test_criterion_5_low_weight_multiplicity_discrepancy(built_fixtures):
    pred = predict_distribution(CodeCase.EVEN_PLUS, 6, 5)
    assert pred.distribution[54] == 32
    assert pred.alt_low_weight_count == 30
    rep = run_pipeline(built_fixtures["code98-a"])
    measured = dict(rep.code.distribution)
    assert measured[54] == 32
    assert any("discrepancy" in note and "30" in note and "32" in note
               for note in rep.code.notes)
    _announce(5, True, "measured multiplicity 32 at weight 54 (not the "
                       "tabulated 30); report flags the discrepancy")


def test_criterion_6_transform_correctness():
    rng = np.random.default_rng(2024)
    total = 0
    for n in range(1, 6):
        for _ in range(100):
            f = random_function(rng, n)
            sp = walsh_spectrum(f)
            oa, ob = naive_spectrum_pair(f)
            assert np.array_equal(sp.coeff_1, oa)
            assert np.array_equal(sp.coeff_w, ob)
            total += 1
    _announce(6, True, f"fast transform equals the pointwise sum on {total} "
                       f"random functions across n=1..5")


# (case, m, s, dim U, side) at n = m + 2s: every case at both dimensions of
# its parity in 9..12; lines U only in F_3^2, where no vector is isotropic
CEILING_PLANS = [
    ("even-plus", 8, 1, 0, BentType.PLUS), ("even-plus", 8, 2, 1, BentType.PLUS),
    ("even-minus", 6, 2, 1, BentType.MINUS), ("even-minus", 10, 1, 0, BentType.MINUS),
    ("odd-plus", 7, 1, 0, BentType.PLUS), ("odd-plus", 7, 2, 1, BentType.PLUS),
    ("odd-minus", 5, 2, 1, BentType.MINUS), ("odd-minus", 9, 1, 0, BentType.MINUS),
]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case, m, s, u_dim, side", CEILING_PLANS,
                         ids=[f"{c}-n{m + 2 * s}" for c, m, s, _, _ in CEILING_PLANS])
def test_acceptance_sweep_at_the_ceiling(case, m, s, u_dim, side, seed):
    report = run_search(m, s, 1, seed=seed, side=side, u_dim=u_dim).outcomes[0].report
    assert report.case == case
    assert report.r == m + s + u_dim
    assert report.passed
    assert report.code.match
    assert report.stage("per-codeword-weights").ok


# (case, m, s, dim U, side) past n = 12: one seeded instance per parity
# and side, at n = 13 and 14, admitted by the size gate with no flag
PAST_CAP_PLANS = [
    ("odd-plus", 11, 1, 0, BentType.PLUS), ("odd-minus", 11, 1, 0, BentType.MINUS),
    ("even-plus", 12, 1, 0, BentType.PLUS), ("even-minus", 12, 1, 0, BentType.MINUS),
]


@pytest.mark.slow
@pytest.mark.parametrize("case, m, s, u_dim, side", PAST_CAP_PLANS,
                         ids=[f"{c}-n{m + 2 * s}" for c, m, s, _, _ in PAST_CAP_PLANS])
def test_acceptance_past_the_cap(case, m, s, u_dim, side):
    report = run_search(m, s, 1, seed=1, side=side, u_dim=u_dim).outcomes[0].report
    assert report.case == case
    assert report.r == m + s + u_dim
    assert report.passed and report.code.match
    assert all(stage.ok for stage in report.stages)
