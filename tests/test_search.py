import pytest

from tribent.analysis import BentType
from tribent.codes import CodeCase
from tribent.constructions import gmmf_build, quadratic_type
from tribent.core import span
from tribent.search import (
    random_instance,
    random_quadratic,
    random_subspace,
    run_search,
)

import random


def test_random_quadratic_hits_requested_type():
    rng = random.Random(0)
    for m in (1, 2, 3, 4, 5):
        for side in (BentType.PLUS, BentType.MINUS):
            for _ in range(5):
                q = random_quadratic(rng, m, side)
                assert quadratic_type(q) is side


def test_random_subspace_dimension():
    rng = random.Random(1)
    for s, d in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
        v = random_subspace(rng, s, d)
        assert v.dim == d


def test_random_instance_even_and_typed():
    rng = random.Random(2)
    u = random_subspace(rng, 1, 0)
    spec = random_instance(rng, 3, 1, BentType.MINUS, u, j0=2)
    f = gmmf_build(spec)
    assert f.is_even()
    assert f(0) == 2


def test_search_matches_everything_on_safe_config():
    summary = run_search(4, 1, 20, seed=11)
    assert len(summary.outcomes) == 20
    assert summary.eligible == 20
    assert summary.matched == 20
    assert {o.report.case for o in summary.outcomes} == {"even-plus"}


def test_search_skips_single_type_configs():
    # u covering all of F_3^s makes every component the same type
    summary = run_search(3, 1, 6, seed=3, u_dim=1)
    assert summary.skipped == 6
    assert summary.eligible == 0


def test_search_line_subspace_in_two_parameters():
    summary = run_search(1, 2, 8, seed=9, u_dim=1)
    assert summary.eligible == 8
    assert summary.matched == 8
    assert {o.report.case for o in summary.outcomes} == {"odd-plus"}
    # r = m + s + dim(U) = 1 + 2 + 1
    assert {o.report.r for o in summary.outcomes} == {4}


def test_search_minus_side():
    summary = run_search(3, 1, 8, seed=5, side=BentType.MINUS)
    assert summary.matched == 8
    assert {o.report.case for o in summary.outcomes} == {"odd-minus"}


def test_search_counts_a_failed_check_as_a_mismatch(off_by_one_classifier):
    summary = run_search(2, 1, 3, seed=1)
    assert (summary.eligible, summary.mismatched, summary.skipped) == (3, 3, 0)
    assert {o.report.failed_stage for o in summary.outcomes} == {"per-codeword-weights"}


@pytest.mark.parametrize("m, s", [(1, 1), (1, 2), (1, 3)])
def test_search_odd_minimal_r_codes_have_two_weights(m, s):
    # r = m + s = (n + 1) / 2: the lowest closed-form weight has no codeword
    for side in BentType:
        summary = run_search(m, s, 4, seed=3, side=side)
        assert summary.matched == 4
        for o in summary.outcomes:
            assert o.report.r == (m + 2 * s + 1) // 2
            assert len(o.report.code.distribution) == 3  # the zero word and two weights


def test_search_deterministic_under_seed():
    a = run_search(2, 1, 10, seed=77).to_dict()
    b = run_search(2, 1, 10, seed=77).to_dict()
    assert a == b
    c = run_search(2, 1, 10, seed=78).to_dict()
    assert a != c


@pytest.mark.slow
@pytest.mark.parametrize("case, m, s, side", [
    pytest.param("even-plus", 10, 1, BentType.PLUS, id="even-plus"),
    pytest.param("even-minus", 8, 2, BentType.MINUS, id="even-minus"),
    pytest.param("odd-plus", 9, 1, BentType.PLUS, id="odd-plus"),
    pytest.param("odd-minus", 9, 1, BentType.MINUS, id="odd-minus"),
])
def test_search_at_the_dimension_cap(case, m, s, side):
    # every case at n = 12 (even) and n = 11 (odd): the whole pipeline,
    # per-codeword check included
    summary = run_search(m, s, 1, seed=0, side=side)
    report = summary.outcomes[0].report
    assert report.case == case
    assert report.passed
    assert report.code.match
    assert report.stage("per-codeword-weights").ok


def test_search_validates_parameters():
    with pytest.raises(ValueError):
        run_search(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        run_search(2, 1, 1, seed=0, u_dim=2)
    with pytest.raises(ValueError, match="count"):
        run_search(2, 1, -1, seed=0)
    from tribent.core import DimensionCapError
    with pytest.raises(DimensionCapError, match="exact in int32"):
        run_search(15, 2, 1, seed=0)  # n = 19


def test_coverage_matrix_every_side_n_r_has_a_passing_instance():
    # every (side, n, r) with floor(n/2) + 1 <= r <= n - 1 at n = 3..12,
    # reached through some block size s and target dimension dim U = u;
    # the other choices may fail a hypothesis (non-degenerate, at n >= 7),
    # but no instance whose hypotheses hold may mismatch
    covered, mismatched = set(), []
    for side in BentType:
        for n in range(3, 13):
            for s in range(1, (n - 1) // 2 + 1):
                for u in range(s):
                    summary = run_search(n - 2 * s, s, 1, 1000 * n + 10 * s + u, side,
                                         u_dim=u)
                    for o in summary.outcomes:
                        if o.report.passed:
                            covered.add((side, n, o.report.r))
                        elif o.report.eligible:
                            mismatched.append((side, n, s, u))
    cells = {(side, n, r) for side in BentType for n in range(3, 13)
             for r in range(n // 2 + 1, n)}
    assert len(cells) == 60
    assert covered == cells
    assert mismatched == []
