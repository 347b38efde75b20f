"""Point sets are masks or sorted int64 index arrays end to end.

A verdict never builds the six pre-image sets of the dual, and never
tabulates the coordinates of all 3^n points: the subspace layer decodes
the few rows it reads from their indices.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import tracemalloc

import numpy as np
import pytest

from tribent import analysis, core
from tribent.analysis import (
    BentType,
    CosetStructure,
    TernaryFunction,
    coset_structure,
)
from tribent.codes import (
    CodeCase,
    DefiningSet,
    LinearCode,
    SelectionContext,
    WeightClassifier,
    build_code,
    defining_set_for,
    select_defining_set,
)
from tribent.constructions import eval_poly, gmmf_build, gmmf_predict, parse_poly
from tribent.fields import ExtField
from tribent.core import coord_matrix, coord_rows, size
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

from conftest import dot, weight_of


def _glue(m: int, s: int, side: BentType, seed: int):
    rng = random.Random(seed)
    u = random_subspace(rng, s, 0)
    return gmmf_build(random_instance(rng, m, s, side, u, rng.randrange(3)))


def _patch_every_binding(monkeypatch, original, replacement) -> None:
    """Replace `original` wherever a loaded tribent module binds it."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "tribent" or name.startswith("tribent."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)
                    bound += 1
    assert bound, "nothing binds the patched function"


# (m, s, side) -> case, n = m + 2
CASES = {
    CodeCase.EVEN_PLUS: (4, 1, BentType.PLUS),
    CodeCase.ODD_PLUS: (5, 1, BentType.PLUS),
    CodeCase.EVEN_MINUS: (4, 1, BentType.MINUS),
    CodeCase.ODD_MINUS: (5, 1, BentType.MINUS),
}


@pytest.mark.parametrize("case", list(CASES), ids=[c.value for c in CASES])
def test_pipeline_never_builds_preimage_sets(monkeypatch, case):
    f = _glue(*CASES[case], seed=3)

    def refuse(profile):
        raise AssertionError("preimage_sets called on the verdict path")

    _patch_every_binding(monkeypatch, analysis.preimage_sets, refuse)
    rep = run_pipeline(f)
    assert rep.passed and rep.case == case.value


def test_selection_context_builds_preimages_on_access():
    f = _glue(4, 1, BentType.PLUS, seed=3)
    ctx = select_defining_set(f)
    assert "preimages" not in {fld.name for fld in dataclasses.fields(SelectionContext)}
    sets = ctx.preimages.plus if ctx.case.side is BentType.PLUS else ctx.preimages.minus
    chosen = sets[ctx.value]
    assert np.array_equal(chosen[chosen != 0], ctx.defining.points)


def test_defining_set_is_a_read_only_index_array():
    ctx = select_defining_set(_glue(5, 1, BentType.MINUS, seed=4))
    points = ctx.defining.points
    assert isinstance(points, np.ndarray) and points.dtype == np.int64
    assert not points.flags.writeable
    assert (np.diff(points) > 0).all() and points[0] > 0
    assert len(ctx.defining) == points.size
    # equality is identity: no elementwise comparison of two arrays
    twin = DefiningSet(ctx.defining.n, points)
    assert twin != ctx.defining and twin == twin


@pytest.mark.parametrize("record", [
    "WalshSpectrum", "BentProfile", "PreimageSets", "Hypotheses",
    "CosetStructure", "SelectionContext", "GmmfPrediction", "ExtField",
])
def test_records_holding_arrays_compare_by_identity(built_fixtures, record):
    f = built_fixtures["code98-a"]
    rng = random.Random(5)
    spec = random_instance(rng, 4, 1, BentType.PLUS, random_subspace(rng, 1, 0), 0)
    build = {
        "WalshSpectrum": lambda: analysis.walsh_spectrum(f),
        "BentProfile": lambda: analysis.bent_profile(f),
        "PreimageSets": lambda: analysis.preimage_sets(analysis.bent_profile(f)),
        "Hypotheses": lambda: analysis.establish(f),
        "CosetStructure": lambda: coset_structure(f, analysis.bent_profile(f)),
        "SelectionContext": lambda: select_defining_set(f),
        "GmmfPrediction": lambda: gmmf_predict(spec),
        "ExtField": lambda: ExtField.create(2, (2, 2, 1), 3),
    }[record]
    a, b = build(), build()
    assert type(a).__name__ == record
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_coord_rows_match_the_coordinate_table(n):
    rng = np.random.default_rng(n)
    idx = rng.integers(0, size(n), 20)
    rows = coord_rows(idx, n)
    assert rows.dtype == np.int8
    assert np.array_equal(rows, coord_matrix(n)[idx])
    assert coord_rows([], n).shape == (0, n)


def test_verdict_at_n11_never_tabulates_all_coordinates(monkeypatch):
    f = _glue(9, 1, BentType.PLUS, seed=1)
    asked = []

    def recorded(n):
        asked.append(n)
        return coord_matrix(n)

    _patch_every_binding(monkeypatch, core.coord_matrix, recorded)
    assert run_pipeline(f).passed
    p = analysis.bent_profile(f)
    ctx = select_defining_set(f, p)
    assert coset_structure(f, p).coset_union_ok
    # the single-point readers tabulate x.u by digits, not by coordinates
    u = size(f.n) - 5
    dots = core.dots_with(u, f.n)
    for x in (0, 1, u, size(f.n) - 1):
        assert dots[x] == dot(x, u, f.n)
    code = build_code(ctx.defining, ctx.hypotheses.v)
    c = len(code.message_weights) - 5
    assert weight_of(int(code.messages()[c]), ctx.defining) == code.message_weights[c]
    assert analysis.walsh_point(f, u) == analysis.walsh_spectrum(f).value(u)
    assert asked and f.n not in asked and ctx.r not in asked


@pytest.mark.parametrize("case", list(CASES), ids=[c.value for c in CASES])
def test_verdict_reduces_each_subspace_only_inside_span(monkeypatch, case):
    f = _glue(*CASES[case], seed=3)
    depth, rounds, spans = [0], [0], [0]
    span, null_basis = core.span, core._null_basis

    def counted_span(points, n):
        depth[0] += 1
        spans[0] += 1
        try:
            return span(points, n)
        finally:
            depth[0] -= 1

    def inside_span_only(r):
        assert depth[0], "_null_basis entered outside span"
        rounds[0] += 1
        return null_basis(r)

    def refuse(v):
        raise AssertionError("orthogonal_complement called on the verdict path")

    _patch_every_binding(monkeypatch, core.span, counted_span)
    monkeypatch.setattr(core, "_null_basis", inside_span_only)
    _patch_every_binding(monkeypatch, core.orthogonal_complement, refuse)
    rep = run_pipeline(f)
    assert rep.passed and rep.case == case.value
    # the type side's span only, in at most n rounds: the code stage
    # measures over that span, with no reduction of its own
    assert spans[0] == 1 and 1 <= rounds[0] <= f.n


def test_transform_at_n12_peaks_within_its_two_pairs():
    # tracemalloc's peak over 3^n: the passes alternate between two array
    # pairs of the pass type and allocate nothing per pass, so with the
    # int8 input pair the int16 passes hold at most 10 B/point and the
    # int32 ones, after widening, 20
    g = _glue(10, 1, BentType.PLUS, seed=1)
    f = TernaryFunction(g.n, g.table)

    def peak(run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - start) / size(f.n)

    tracemalloc.start()
    try:
        peaks = {"transform": peak(lambda: analysis._transform(f, np.int16)),
                 "bent_profile": peak(lambda: analysis.bent_profile(f)),
                 "is_bent": peak(lambda: analysis.is_bent(f)),
                 "walsh_spectrum": peak(lambda: analysis.walsh_spectrum(f))}
    finally:
        tracemalloc.stop()
    assert all(peaks[name] <= 10.1 for name in ("transform", "bent_profile", "is_bent")), peaks
    assert peaks["walsh_spectrum"] <= 20.1, peaks


@pytest.mark.parametrize("n", [12, 13])
def test_plateau_and_parseval_read_squared_norms_in_blocks(n):
    # tracemalloc's peak over 3^n: the int64 squared norms are read one
    # block at a time, so neither reader peaks above the int32 spectrum
    # itself, 16 B/point at n = 12 and 20 at n = 13
    f = eval_poly(parse_poly(" + ".join(f"x{i}^2" for i in range(1, n + 1)), n))

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / size(n)
        finally:
            tracemalloc.stop()

    peaks = {"is_plateaued": peak(lambda: analysis.is_plateaued(f)),
             "parseval_total": peak(lambda: analysis.walsh_spectrum(f).parseval_total())}
    assert all(p <= 20.5 for p in peaks.values()), peaks


def test_walsh_point_at_n12_reads_its_exponents_in_blocks():
    # tracemalloc's peak over 3^n: the int8 exponents of one block of
    # rows at a time from two half-width dot tables, where the int64
    # exponent and dot tables over all points read 24 B/point
    n = 12
    f = eval_poly(parse_poly(" + ".join(f"x{i}^2" for i in range(1, n + 1)) + " + x1*x2", n))
    points = (0, 5, 12345, size(n) - 1)
    tracemalloc.start()
    try:
        values = [analysis.walsh_point(f, a) for a in points]
        peak = tracemalloc.get_traced_memory()[1] / size(n)
    finally:
        tracemalloc.stop()
    spectrum = analysis.walsh_spectrum(f)
    assert values == [spectrum.value(a) for a in points]
    assert peak <= 0.5, peak


@pytest.mark.parametrize("side", list(BentType), ids=lambda side: side.value)
def test_verdict_stages_at_n12_peak_within_12_bytes_per_point(monkeypatch, side):
    # tracemalloc's peak above each stage's start, over 3^n: no stage
    # gathers through a 3^n-wide intp or int64 table, and the tables of
    # coordinates and negations are asked for half widths only.  A whole
    # run_pipeline, which holds both profiles and the defining set while
    # the code stage peaks, stays within 15.
    g = _glue(10, 1, side, seed=1)
    f = TernaryFunction(g.n, g.table)  # evenness not yet decided
    asked = []

    def recording(table):
        def record(n):
            asked.append(n)
            return table(n)
        return record

    for table in (core.coord_matrix, core.neg_table):
        _patch_every_binding(monkeypatch, table, recording(table))
    peaks = {}

    def stage(name, run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / size(f.n)
        return out

    tracemalloc.start()
    try:
        p = stage("bent_profile", lambda: analysis.bent_profile(f))
        stage("dual_sign", lambda: p.dual_sign)
        stage("is_even", f.is_even)
        stage("type_span", lambda: p.type_span)
        hyp = stage("establish", lambda: analysis.establish(f, p))
        ctx = stage("defining_set_for", lambda: defining_set_for(hyp))
        code = stage("build_code", lambda: build_code(ctx.defining, ctx.hypotheses.v))
        bad = stage("classifier", lambda: WeightClassifier(ctx).check_all(code))
        fresh = TernaryFunction(g.n, g.table)
        rep = stage("run_pipeline", lambda: run_pipeline(fresh))
    finally:
        tracemalloc.stop()
    assert hyp.ok and bad is None and rep.passed
    assert peaks.pop("run_pipeline") <= 15, peaks
    assert max(peaks.values()) <= 12, peaks
    # at r = n - 1 a 3^r-wide int64 or intp array alone is 2.7 B/pt
    assert peaks["classifier"] <= 2.5, peaks
    assert asked and max(asked) <= f.n - f.n // 2


@pytest.mark.parametrize("case", list(CASES), ids=[c.value for c in CASES])
def test_passing_verdict_never_tabulates_the_messages(monkeypatch, case):
    # the classifier reads f and the dual's sign at the u_c through a view;
    # the int64 table of the u_c is built only to name a mismatch
    def refuse(code):
        raise AssertionError("LinearCode.messages called on a passing verdict")

    monkeypatch.setattr(LinearCode, "messages", refuse)
    rep = run_pipeline(_glue(*CASES[case], seed=3))
    assert rep.passed and rep.stage("per-codeword-weights").ok


def test_verdict_records_hold_no_copies():
    # the coset verdict is three fields; selection reads f and both
    # profiles from its Hypotheses
    assert [fld.name for fld in dataclasses.fields(CosetStructure)] == [
        "coset_union_ok", "constant_branch", "constant_ok"]
    names = {fld.name for fld in dataclasses.fields(SelectionContext)}
    assert "hypotheses" in names and not names & {"profile", "dual_profile"}
