"""The dual's sign per coset of V-perp, from the coset sums of f.

When the type side of f is a subspace V, BentProfile.dual_sign reads the
dual's sign, one value per coset of V-perp, from coset sums of f's own
table (analysis._dual_by_cosets) instead of a second radix-3 transform.
These tests hold that route to the dual's transform, bent_profile(p.dual),
on every shape of V-perp: axis-aligned and sheared, k = n - dim V from 0
to past 5, both parities and sides, odd functions, and duals that are not
bent.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from tribent import analysis, core
from tribent.analysis import (
    BentType,
    TernaryFunction,
    bent_profile,
    establish,
)
from tribent.constructions import GmmfSpec, gmmf_build, quadratic_function
from tribent.core import coord_matrix, dots_with, neg_table, size
from tribent.search import random_instance, random_quadratic, random_subspace

from conftest import assert_dual_by_cosets_matches_transform, brute_perp, pivot_messages, rref


def _glue(rng: random.Random, m: int, s: int, k: int, side: BentType) -> TernaryFunction:
    """A glued function on F_3^(m+2s) whose type side has V-perp of
    dimension k <= s, the k digits of a block of the z coordinates."""
    u = random_subspace(rng, s, s - k)
    return gmmf_build(random_instance(rng, m, s, side, u, rng.randrange(3)))


def _sheared(rng: random.Random, f: TernaryFunction) -> TernaryFunction:
    """x -> f(A x) for a random invertible A over F_3: bent, of the same
    evenness and type as f, with V-perp moved off the coordinate axes, so
    that every fold translates its slices."""
    n = f.n
    while True:
        a = np.array([[rng.randrange(3) for _ in range(n)] for _ in range(n)], dtype=np.int8)
        if len(rref(a.copy())) == n:
            break
    image = core.coord_matrix(n).astype(np.int64) @ a.T % 3 @ 3 ** np.arange(n)
    return TernaryFunction(n, f.table[image])


def _odd(rng: random.Random, f: TernaryFunction) -> TernaryFunction:
    """f + a.x for a nonzero a in the type side V: bent with the same type
    side (the sign map moves by a, and V + a = V), and not even."""
    v = bent_profile(f).type_span
    a = v.basis[rng.randrange(v.dim)]
    return TernaryFunction(f.n, (f.table + dots_with(a, f.n)) % 3)


def test_cosets_match_the_transform_on_the_fixtures(built_fixtures):
    ks = {name: assert_dual_by_cosets_matches_transform(f) for name, f in built_fixtures.items()}
    assert ks["trace36"] == 2
    # trace14's dual is not bent: both routes say so
    assert bent_profile(built_fixtures["trace14"]).dual_sign is None


@pytest.mark.parametrize("name", ["code98-a", "code270-a", "code756", "code36", "trace36"])
def test_passing_verdict_holds_one_dual_sign_per_coset(built_fixtures, name):
    # 3^r int8 values, one per coset of V-perp, never one per point of F_3^n
    hyp = establish(built_fixtures[name])
    assert hyp.ok and hyp.r < hyp.f.n
    sign = hyp.profile.dual_sign
    assert sign.dtype == np.int8 and sign.shape == (size(hyp.r),)
    assert set(np.unique(sign).tolist()) == {-1, 1}


# (m, s, k): k = 0 (V is all of F_3^n), k = 1..5, both parities of n
SHAPES = [(2, 1, 0), (3, 1, 1), (4, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 3), (1, 3, 3),
          (2, 4, 4), (1, 4, 4), (1, 5, 5)]


@pytest.mark.parametrize("side", list(BentType), ids=lambda side: side.value)
@pytest.mark.parametrize("m, s, k", SHAPES)
def test_cosets_match_the_transform_on_glue_instances(m, s, k, side):
    rng = random.Random(100 * m + 10 * s + k)
    f = _glue(rng, m, s, k, side)
    assert assert_dual_by_cosets_matches_transform(f) == k
    assert assert_dual_by_cosets_matches_transform(_sheared(rng, f)) == k
    g = _odd(rng, f)
    assert not g.is_even()
    assert assert_dual_by_cosets_matches_transform(g) == k
    assert assert_dual_by_cosets_matches_transform(_sheared(rng, g)) == k


def test_cosets_match_the_transform_on_seeded_glue_runs():
    rng = random.Random(31)
    seen = set()
    for _ in range(60):
        s = rng.randrange(1, 4)
        m = rng.randrange(1, 8 - s)
        f = _glue(rng, m, s, rng.randrange(s + 1), rng.choice(list(BentType)))
        if rng.randrange(2):
            f = _sheared(rng, f)
        seen.add((f.n % 2, assert_dual_by_cosets_matches_transform(f)))
    assert {(parity, k) for parity in (0, 1) for k in range(4)} <= seen


def test_cosets_match_the_transform_on_every_bent_function_through_n1():
    # at n = 0 V is F_3^0 and V-perp has no basis vector at all
    ks = set()
    for n in range(2):
        for c in range(3 ** size(n)):
            f = TernaryFunction(n, c // 3 ** np.arange(size(n)) % 3)
            if analysis.is_bent(f) and bent_profile(f).type_side_is_subspace():
                ks.add((n, assert_dual_by_cosets_matches_transform(f)))
    assert ks == {(0, 0), (1, 0)}


def _coset_counts(p: analysis.BentProfile) -> np.ndarray:
    """For each point u, how often t(x) = f(-x) takes each value on the
    coset u + V-perp, as a (3^n, 3) count array, V the span of the
    profiled f's type side.  The cosets are built by brute force: each
    point's coset label is the least index of u + z over the points z of
    V-perp (conftest.brute_perp)."""
    f, n = p.f, p.n
    perp = coord_matrix(n)[brute_perp(p.type_span)].astype(np.int64)
    coords = coord_matrix(n).astype(np.int64)
    weights = 3 ** np.arange(n)
    label = np.arange(size(n))
    for z in perp:
        label = np.minimum(label, (coords + z) % 3 @ weights)
    t = f.table[neg_table(n)]
    counts = np.zeros((size(n), 3), dtype=np.int64)
    np.add.at(counts, (label, t), 1)
    return counts[label]


def _dual_bent_by_coset_counts(f: TernaryFunction) -> bool:
    """The dual of f is bent exactly when f (read as t(x) = f(-x)) is
    constant or balanced on every coset of V-perp; then the dual's sign
    at u is +1 on a constant coset and -1 on a balanced one, times +1 for
    a plus type and -1 for a minus type, negated for odd n, and the
    dual's dual is t.  Returns whether the dual is bent."""
    p = bent_profile(f)
    assert p.type_side_is_subspace()
    counts, k = _coset_counts(p), f.n - p.type_span.dim
    constant = counts.max(axis=1) == 3 ** k
    balanced = (counts == 3 ** k // 3).all(axis=1)
    if not (constant | balanced).all():
        assert p.dual_sign is None
        return False
    flip = (1 if p.type is BentType.PLUS else -1) * (-1 if f.n % 2 else 1)
    sign = np.where(constant, flip, -flip)
    assert np.array_equal(p.dual_sign, sign[pivot_messages(p.type_span)])
    dual = bent_profile(p.dual)
    assert np.array_equal(dual.sign, sign)
    assert np.array_equal(dual.dual.table, f.table[neg_table(f.n)])
    return True


def test_constant_or_balanced_cosets_decide_the_dual_on_the_fixtures(built_fixtures):
    bent = {name: _dual_bent_by_coset_counts(f)
            for name, f in built_fixtures.items()}
    assert [name for name, ok in bent.items() if not ok] == ["trace14"]
    rng = random.Random(14)
    f = built_fixtures["trace14"]
    for g in (_sheared(rng, f), _odd(rng, f), _sheared(rng, _odd(rng, f))):
        assert not _dual_bent_by_coset_counts(g)


@pytest.mark.parametrize("side", list(BentType), ids=lambda side: side.value)
@pytest.mark.parametrize("m, s, k", [shape for shape in SHAPES if shape[2] <= 3])
def test_constant_or_balanced_cosets_decide_the_dual_on_glue_instances(m, s, k, side):
    rng = random.Random(100 * m + 10 * s + k)
    f = _glue(rng, m, s, k, side)
    g = _odd(rng, f)
    for h in (f, _sheared(rng, f), g, _sheared(rng, g)):
        assert _dual_bent_by_coset_counts(h)
        assert h.n - bent_profile(h).type_span.dim == k


def test_dual_that_is_not_bent_is_none_on_both_routes(built_fixtures):
    # trace14's dual is not bent; so are those of its sheared and odd forms
    rng = random.Random(14)
    f = built_fixtures["trace14"]
    for g in (f, _sheared(rng, f), _odd(rng, f), _sheared(rng, _odd(rng, f))):
        p = bent_profile(g)
        assert p.dual_sign is None and not p.dual_bent
        assert_dual_by_cosets_matches_transform(g)


def _glue_over(rng: random.Random, m: int, s: int, members: set[int]) -> TernaryFunction:
    """F(x, y, z) = f_z(x) + z.y with f_z of plus type exactly for z in
    members (closed under negation), so the type side is
    F_3^m x members x F_3^s."""
    parts: list = [None] * size(s)
    for z in range(size(s)):
        if parts[z] is None:
            side = BentType.PLUS if z in members else BentType.MINUS
            parts[z] = parts[neg_table(s)[z]] = quadratic_function(random_quadratic(rng, m, side))
    return gmmf_build(GmmfSpec(m, s, tuple(parts)))


def test_type_side_that_is_no_subspace_takes_the_dual_transform(monkeypatch):
    # {0, +-e1, +-e2} in F_3^2 is no subspace: the report decides dual-bent
    # from the dual's own transform, then fails type-side-subspace
    f = _glue_over(random.Random(2), 2, 2, {0, 1, 2, 3, 6})
    calls = []
    original = analysis.bent_profile

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(analysis, "bent_profile", counted)
    hyp = establish(f)
    assert calls == [f, hyp.profile.dual]
    assert not hyp.profile.type_side_is_subspace()
    assert [(stage.name, stage.ok) for stage in hyp.stages] == [
        ("bent", True), ("non-weakly-regular", True), ("even", True), ("dual-bent", True),
        ("type-side-subspace", False)]
    assert hyp.stages[-1].detail == f"|side| = {5 * 3 ** 4} is not a subspace"
    # no cosets to read the dual's sign on
    assert hyp.profile.dual_sign is None


@pytest.mark.parametrize("m, s, k", [(10, 1, 1), (6, 3, 3), (4, 4, 4)])
def test_dual_profile_at_n12_peaks_within_the_transforms_level(m, s, k):
    # tracemalloc's peak over 3^n while the dual's sign is computed, with
    # f's profile, evenness and span already decided: the dual's int16
    # transform read 9.0 B/point, and the coset sums with the unit lookup
    # over 3^n values read 7.0 at k = 1, 3 and 9.0 at k = 4.  A verdict
    # per coset reads 2.7 at each k, the first fold of the coset sums; the
    # sign it returns is 3^r int8 values, one per coset
    f = _glue(random.Random(12), m, s, k, BentType.PLUS)
    p = bent_profile(f)
    f.is_even()
    assert f.n - p.type_span.dim == k and p.type_side_is_subspace()
    tracemalloc.start()
    try:
        dual = p.dual_sign
        peak = tracemalloc.get_traced_memory()[1] / size(f.n)
    finally:
        tracemalloc.stop()
    assert dual is not None and peak <= 4.5, peak
