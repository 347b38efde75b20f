"""The once-established hypothesis record against reference implementations.

establish() decides non-degeneracy from the Gram rank of V, enumerating
neither V nor V-perp; a scan of all 3^n points and orthogonal_complement
are the references it is checked against here.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref
from functools import cached_property

import numpy as np
import pytest

from tribent import analysis, core, pipeline
from tribent.analysis import (
    HYPOTHESES,
    BentType,
    HypothesisError,
    TernaryFunction,
    constant_branch,
    coset_structure,
    establish,
)
from tribent.codes import build_code, select_defining_set
from tribent.constructions import QuadraticForm, gmmf_build, quadratic_function
from tribent.core import (
    dots_with,
    encode,
    orthogonal_complement,
    size,
    span,
)
from tribent.fixtures import FIXTURES
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

from conftest import add_points, brute_perp, coset_tiling

# (m, s, dim U, side): eligible cases of both parities, U = F_3^s (weakly
# regular), and random lines in F_3^3, some spanned by an isotropic vector
PLANS = [
    (2, 1, 0, BentType.PLUS), (3, 1, 0, BentType.MINUS), (2, 2, 1, BentType.PLUS),
    (1, 2, 1, BentType.MINUS), (3, 1, 1, BentType.PLUS), (1, 2, 2, BentType.MINUS),
    (1, 3, 1, BentType.PLUS),
]


def _glue_instances() -> list[tuple[str, TernaryFunction]]:
    rng = random.Random(11)
    out = []
    for i in range(21):
        m, s, u_dim, side = PLANS[i % len(PLANS)]
        u = random_subspace(rng, s, u_dim)
        f = gmmf_build(random_instance(rng, m, s, side, u, rng.randrange(3)))
        out.append((f"glue-{i}", f))
        if i % 4 == 0:
            # adding a nonzero linear form keeps f bent and breaks evenness
            c = rng.randrange(1, size(f.n))
            out.append((f"glue-{i}-odd", TernaryFunction(f.n, (f.table + dots_with(c, f.n)) % 3)))
    isotropic = span([encode((1, 1, 1))], 3)
    f = gmmf_build(random_instance(rng, 1, 3, BentType.PLUS, isotropic, 0))
    out.append(("glue-degenerate", f))
    nprng = np.random.default_rng(3)
    out.append(("random", TernaryFunction(3, nprng.integers(0, 3, 27))))
    return out


def _assert_perp_is_scanned_perp(v) -> np.ndarray:
    """v.perp spans V-perp as a scan finds it; returns the scan."""
    perp = brute_perp(v)
    assert len(perp) == size(v.n - v.dim)
    assert np.array_equal(orthogonal_complement(v).points(), perp)
    return perp


CASES = [(fx.name, fx.build()) for fx in FIXTURES] + _glue_instances()


def _failed_hypothesis(f: TernaryFunction) -> str | None:
    rep = run_pipeline(f)
    failed = [s.name for s in rep.stages if s.name in HYPOTHESES and not s.ok]
    return failed[0] if failed else None


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_record_against_references(name, f):
    hyp = establish(f)
    if hyp.profile is None:
        assert [s.name for s in hyp.stages] == ["bent"]
        return
    perp = _assert_perp_is_scanned_perp(hyp.v)
    nondeg = next((s for s in hyp.stages if s.name == "non-degenerate"), None)
    if nondeg is not None:
        # the type side is V here: it meets V-perp only at 0 exactly when
        # non-degenerate
        side = hyp.profile.side_mask(hyp.profile.type)
        assert nondeg.ok == (np.count_nonzero(side[perp]) == 1)
    if name == "glue-degenerate":
        assert not nondeg.ok


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_selection_fails_exactly_where_the_pipeline_does(name, f):
    failed = _failed_hypothesis(f)
    if failed is None:
        select_defining_set(f)
        return
    with pytest.raises(HypothesisError) as exc:
        select_defining_set(f)
    assert exc.value.hypothesis == failed


def test_cases_cover_every_verdict():
    verdicts = {_failed_hypothesis(f) for _, f in CASES}
    assert verdicts >= {None, "bent", "non-weakly-regular", "even", "dual-bent",
                        "non-degenerate"}


def _index_sets(hyp, dual_sign: np.ndarray) -> dict[str, np.ndarray]:
    """i_plus and i_minus: the type side meeting the plus and minus sets
    of the dual's sign at every point, as index arrays."""
    side = hyp.profile.side_mask(hyp.profile.type)
    return {name: np.flatnonzero(side & (dual_sign == t))
            for name, t in (("i_plus", 1), ("i_minus", -1))}


def _pointwise_tiling(f: TernaryFunction, hyp, dual_sign: np.ndarray,
                      perp: np.ndarray) -> tuple[bool, bool]:
    """(union, constant) of the coset structure of the dual's sign on
    hypotheses hyp, one add_points at a time."""
    def cosets(reps):
        return {u: [add_points(u, w, f.n) for w in perp.tolist()] for u in reps.tolist()}

    def union(reps):
        mask = np.zeros(size(f.n), dtype=bool)
        for points in cosets(reps).values():
            mask[points] = True
        return mask

    sets = _index_sets(hyp, dual_sign)
    union_ok = all(np.array_equal(union(sets[name]), dual_sign == t)
                   for name, t in (("i_plus", 1), ("i_minus", -1)))
    branch = sets[constant_branch(f.n, hyp.profile.type)]
    constant_ok = all(len({f(x) for x in points}) == 1 for points in cosets(branch).values())
    return union_ok, constant_ok


def _transform_sign(hyp) -> np.ndarray:
    """The dual's sign at every point, from the dual's own transform."""
    return analysis.bent_profile(hyp.profile.dual).sign


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_coset_tiling_against_pointwise_sums(name, f):
    # the verdict read off the coset route, and the test's walk of the
    # transform's sign, against a pointwise count
    hyp = establish(f)
    if not hyp.ok:
        return
    cs = coset_structure(f, hyp.profile)
    perp = orthogonal_complement(hyp.v).points()
    sign = _transform_sign(hyp)
    assert cs.constant_branch == constant_branch(f.n, hyp.profile.type)
    assert (cs.coset_union_ok, cs.constant_ok) == _pointwise_tiling(f, hyp, sign, perp)
    assert coset_tiling(f, hyp.profile, sign) == (True, True)


ELIGIBLE = [(name, f) for name, f in CASES if establish(f).ok]
# every eligible case whose V-perp has two or more basis vectors
MULTI_PERP = [(name, f) for name, f in ELIGIBLE if len(establish(f).v.perp) >= 2]
BROKEN = ELIGIBLE[::3] + [case for case in MULTI_PERP if case not in ELIGIBLE[::3]]


def test_multi_perp_cases_are_the_expected_ones():
    assert [name for name, _ in MULTI_PERP] == ["trace36", "glue-6", "glue-20"]


@pytest.mark.parametrize("name,f", BROKEN, ids=[name for name, _ in BROKEN])
def test_coset_tiling_detects_broken_tilings(name, f):
    # the theorem makes every eligible tiling hold, so break one by hand
    # for the test's walk (conftest.coset_tiling): move one point of the
    # dual across sides, or change f at one point of the constant
    # branch's cosets
    hyp = establish(f)
    perp = orthogonal_complement(hyp.v).points()
    rng = np.random.default_rng(len(name))
    x = int(rng.integers(1, size(f.n)))
    sign = _transform_sign(hyp)
    moved = sign.copy()
    moved[x] = -moved[x]
    assert coset_tiling(f, hyp.profile, moved) == (False, False)
    assert not _pointwise_tiling(f, hyp, moved, perp)[0]

    branch = _index_sets(hyp, sign)[constant_branch(f.n, hyp.profile.type)]
    y = add_points(int(branch[len(branch) // 2]), int(perp[-1]), f.n)
    table = f.table.copy()
    table[y] = (table[y] + 1) % 3
    g = TernaryFunction(f.n, table)
    assert coset_tiling(g, hyp.profile, sign) == (True, False)
    assert _pointwise_tiling(g, hyp, sign, perp) == (True, False)


@pytest.mark.parametrize("name,f", MULTI_PERP, ids=[name for name, _ in MULTI_PERP])
def test_coset_tiling_detects_a_break_the_first_basis_vector_keeps(name, f):
    # flip the dual's sign on one whole coset of the line spanned by the
    # first row q1 of v.perp: D+ stays invariant under q1 but not under
    # q2, since the theorem made sign(x + q2) = sign(x) before the flip
    hyp = establish(f)
    q1, q2 = (hyp.v.perp[:2] @ 3 ** np.arange(f.n)).tolist()
    x = 1 + len(name)
    line = [x]
    for _ in range(2):
        line.append(add_points(line[-1], q1, f.n))
    sign = _transform_sign(hyp).copy()
    sign[line] = -sign[line]
    assert sign[add_points(x, q2, f.n)] != sign[x]
    assert coset_tiling(f, hyp.profile, sign) == (False, False)
    perp = orthogonal_complement(hyp.v).points()
    assert not _pointwise_tiling(f, hyp, sign, perp)[0]


def _count_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to analysis.<name>."""
    calls = []
    original = getattr(analysis, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, name, counted)
    return calls


@pytest.mark.parametrize("name,f", ELIGIBLE, ids=[name for name, _ in ELIGIBLE])
def test_a_holding_tiling_translates_once_per_basis_vector(monkeypatch, name, f):
    # the dual's sign per coset moves slices 1 and 2 of each fold once, in
    # the coset sums, and is never unfolded: no translation table is built
    # beyond the folds' own
    moves = []

    def counted(p, c, step):
        def move(a):
            moves.append((p, c))
            return step(a)
        return move

    folds = []
    coset_folds = analysis._coset_folds

    def recorded(perp):
        folds.extend((p, counted(p, 1, plus), counted(p, 2, minus))
                     for p, plus, minus in coset_folds(perp))
        return folds

    p = analysis.bent_profile(f)
    assert f.is_even() and p.type_side_is_subspace()
    monkeypatch.setattr(analysis, "_coset_folds", recorded)
    translations = _count_calls(monkeypatch, "translation")
    assert p.dual_sign is not None
    assert len(translations) == 2 * len(folds) == 2 * len(p.type_span.perp)
    assert moves == [(q, c) for q, _, _ in folds for c in (1, 2)]


def test_a_passing_verdict_builds_the_coset_folds_once(monkeypatch, flagship):
    folds = _count_calls(monkeypatch, "_coset_folds")
    assert run_pipeline(flagship).passed
    assert len(folds) == 1


# ---------------------------------------------------------------------------
# One transform per verdict: f's; the dual's profile comes from coset sums
# ---------------------------------------------------------------------------

def _count_profiles(monkeypatch) -> list[TernaryFunction]:
    """Record every function analysis.bent_profile is entered with."""
    calls = []
    original = analysis.bent_profile

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(analysis, "bent_profile", counted)
    return calls


def _eligible_glue() -> TernaryFunction:
    rng = random.Random(5)
    f = gmmf_build(random_instance(rng, 4, 1, BentType.PLUS, random_subspace(rng, 1, 0), 1))
    assert establish(f).ok
    return f


def _run_public_path(f: TernaryFunction) -> analysis.BentProfile:
    p = analysis.bent_profile(f)
    analysis.is_dual_bent(f, p)
    select_defining_set(f, p)
    coset_structure(f, p)
    return p


def test_public_hypothesis_path_profiles_f_once(monkeypatch):
    f = _eligible_glue()
    calls = _count_profiles(monkeypatch)
    p = _run_public_path(f)
    assert calls == [f]
    assert analysis.is_dual_bent(f, p)[1] is p.dual_sign


def test_pipeline_profiles_f_once(monkeypatch):
    f = _eligible_glue()
    calls = _count_profiles(monkeypatch)
    assert run_pipeline(f).passed
    assert calls == [f]


def test_public_hypothesis_path_spans_the_type_side_once(monkeypatch):
    g = _eligible_glue()
    f = TernaryFunction(g.n, g.table)  # evenness not yet decided
    spans, negs = [], []
    original_span, original_neg = core.span, core.neg_table

    def counted_span(points, n):
        spans.append(n)
        return original_span(points, n)

    def counted_neg(n):
        negs.append(n)
        return original_neg(n)

    for module in (core, analysis):
        monkeypatch.setattr(module, "span", counted_span)
    monkeypatch.setattr(core, "neg_table", counted_neg)
    _run_public_path(f)
    assert spans == [f.n]
    # the even check, decided once per function from the two half-width
    # negation tables (core.negation), never the 3^n-wide one
    assert negs == [f.n - f.n // 2, f.n // 2]


def _count_membership_tables(monkeypatch) -> tuple[list, list]:
    """Record every Subspace whose membership tables (Subspace.syndromes)
    are built, and the subspace each code is built on, with the number of
    tables built by then."""
    calls, measured = [], []
    build = core.Subspace.__dict__["syndromes"].func

    def counted(self):
        calls.append(self)
        return build(self)

    def recorded(s, v):
        measured.append((v, len(calls)))
        return build_code(s, v)

    tables = cached_property(counted)
    tables.__set_name__(core.Subspace, "syndromes")
    monkeypatch.setattr(core.Subspace, "syndromes", tables)
    monkeypatch.setattr(pipeline, "build_code", recorded)
    return calls, measured


def test_passing_verdict_builds_the_membership_tables_once(monkeypatch):
    # span's one round builds V's tables; the code stage's coordinates
    # reads them from the same Subspace
    f = _eligible_glue()
    calls, measured = _count_membership_tables(monkeypatch)
    assert run_pipeline(f).passed
    [(v, before)] = measured
    assert before == len(calls) == 1 and calls[0] is v


def test_forced_code_builds_its_subspaces_tables_once(monkeypatch):
    # weakly regular, so the forced set's code is built on the span of
    # the set, whose last round's tables the coordinates read
    f = quadratic_function(QuadraticForm((1,) * 5))
    calls, measured = _count_membership_tables(monkeypatch)
    assert run_pipeline(f, force_set="C0").code is not None
    [(v, before)] = measured
    assert before == len(calls) and sum(c is v for c in calls) == 1


def test_dual_of_the_dual_is_f_itself_on_the_coset_route(monkeypatch, flagship):
    # for even f the coset sums read f's own table as the dual's dual,
    # with no negated copy; the dual's transform gives f back
    p = analysis.bent_profile(flagship)
    assert p.type_side_is_subspace() and flagship.is_even()

    def refuse(n):
        raise AssertionError("the coset route negated an even f")

    monkeypatch.setattr(analysis, "negation", refuse)
    assert p.dual_sign is not None
    monkeypatch.undo()
    assert analysis.bent_profile(p.dual).dual == flagship


def test_involution_guard_fires_on_the_transform_route(monkeypatch, flagship):
    # off the coset route the dual's verdict is the dual's own transform,
    # and the dual's dual is checked against f there
    monkeypatch.setattr(analysis.BentProfile, "type_side_is_subspace", lambda self: False)
    fresh = analysis.bent_profile(flagship)
    assert fresh.dual_bent and fresh.dual_sign is None

    p = analysis.bent_profile(flagship)
    original = analysis.bent_profile
    monkeypatch.setattr(analysis, "bent_profile",
                        lambda g: dataclasses.replace(original(g), dual=flagship.negated()))
    with pytest.raises(AssertionError, match="involution"):
        establish(flagship, p)
    with pytest.raises(AssertionError, match="involution"):
        analysis.is_dual_bent(flagship, p)


def test_verdict_lists_v_once_and_never_v_perp(monkeypatch):
    # the hypotheses list no subspace: non-degeneracy comes from the Gram
    # rank.  The code stage lists V once, 3^r members in the order of c,
    # to gather the defining set's mask, and sorts none; V-perp is never
    # listed
    listed, members = [], core.Subspace.members

    def recorded(v):
        table = members(v)
        listed.append((v, len(table)))
        return table

    def refuse(v):
        raise AssertionError("a subspace was sorted on the verdict path")

    f = _eligible_glue()
    monkeypatch.setattr(core.Subspace, "members", recorded)
    monkeypatch.setattr(core.Subspace, "points", refuse)
    _run_public_path(f)
    assert listed == []
    hyp = establish(f)
    assert run_pipeline(f).passed
    assert listed == [(hyp.v, size(hyp.r))]


def test_type_span_kernel_of_random_subspaces():
    # a profile whose type side is a random subspace V (sign +1 exactly on
    # V) gives V back, with a basis of V-perp, the code's kernel, as perp
    rng = random.Random(8)
    for n in range(1, 9):
        for dim in range(n + 1):
            v = random_subspace(rng, n, dim)
            sign = np.full(size(n), -1, dtype=np.int8)
            sign[v.points()] = 1
            zero = TernaryFunction.constant(n, 0)
            profile = analysis.BentProfile(n, zero, sign, BentType.PLUS,
                                           analysis.Regularity.NON_WEAKLY_REGULAR, zero)
            w = profile.type_span
            assert w == v
            _assert_perp_is_scanned_perp(w)


def test_profile_is_freed_without_the_cyclic_collector():
    # the profile caches its dual's sign and its type-side span, but
    # nothing cached on it points back to it: dropping the caller's
    # references frees it by reference counting alone
    f = _eligible_glue()
    gc.disable()
    try:
        p = _run_public_path(f)
        refs = [weakref.ref(p), weakref.ref(p.dual_sign)]
        del p
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
