import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tribent import core
from tribent.core import (
    EXACT_DIM,
    DimensionCapError,
    Eisenstein,
    Subspace,
    check_dim,
    coord_matrix,
    coord_rows,
    decode,
    digit_sum_table,
    dots_with,
    encode,
    is_nondegenerate,
    is_subspace,
    legendre,
    neg_table,
    negation,
    omega_pow,
    orthogonal_complement,
    root_sum,
    size,
    span,
    translation,
    translation_table,
)

from conftest import (
    add_points,
    combination,
    dot,
    neg_point,
    null_basis,
    rref,
    span_points,
    subspace_coordinates,
    subspace_pivots,
)


def test_encode_decode_roundtrip_exhaustive():
    for n in range(6):
        for x in range(size(n)):
            assert encode(decode(x, n)) == x


@given(st.integers(min_value=1, max_value=8), st.data())
def test_encode_decode_roundtrip_sampled(n, data):
    x = data.draw(st.integers(min_value=0, max_value=size(n) - 1))
    coords = decode(x, n)
    assert len(coords) == n
    assert all(0 <= c <= 2 for c in coords)
    assert encode(coords) == x


def test_coord_matrix_agrees_with_decode():
    m = coord_matrix(3)
    for x in range(27):
        assert tuple(int(c) for c in m[x]) == decode(x, 3)


def test_dot_examples():
    assert dot(encode((1, 0, 2)), encode((2, 0, 1)), 3) == 1
    assert dot(0, encode((2, 1, 2)), 3) == 0
    assert dot(encode((1, 1)), encode((1, 2)), 2) == 0


def test_negative_dimension_rejected():
    with pytest.raises(ValueError):
        check_dim(-1)


def test_legendre_values():
    assert legendre(0) == 0
    assert legendre(1) == 1
    assert legendre(2) == -1


def test_legendre_multiplicative():
    for a in (1, 2):
        for b in (1, 2):
            assert legendre(a) * legendre(b) == legendre(a * b)


def test_dimension_cap(monkeypatch):
    # with memory to spare, the one gate admits every n up to EXACT_DIM
    monkeypatch.setattr(core, "memory_limit", lambda: None)
    for n in range(EXACT_DIM + 1):
        check_dim(n)
    with pytest.raises(DimensionCapError):
        check_dim(EXACT_DIM + 1)


def test_no_cap_admits_an_inexact_transform(monkeypatch):
    # the int32 transform is exact while 2 * 3^n < 2^31; past that the
    # gate refuses first, whatever memory there is
    assert 2 * 3 ** EXACT_DIM < 2 ** 31 <= 2 * 3 ** (EXACT_DIM + 1)
    monkeypatch.setattr(core, "memory_limit", lambda: 0)
    for n in (EXACT_DIM + 1, EXACT_DIM + 5):
        with pytest.raises(DimensionCapError, match="exact in int32"):
            check_dim(n)


def test_memory_guard_acts_below_twelve(monkeypatch):
    # 3^11 * PEAK_BYTES_PER_POINT is about 6 MB: refused under 1 MiB
    monkeypatch.setattr(core, "memory_limit", lambda: 1 << 20)
    check_dim(7)
    with pytest.raises(DimensionCapError, match="needs about"):
        check_dim(11)


def _run_child(code: str) -> subprocess.CompletedProcess:
    """python -c code in a fresh interpreter with this checkout's src first
    on its path."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def _mallopt_takes_the_thresholds() -> bool:
    """Whether this C library has a mallopt that accepts the kept-heap
    setting (setting it again changes nothing: the import already did)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return mallopt(core._M_MMAP_THRESHOLD, core._KEPT_HEAP_BYTES) == 1


WARM_VERDICT_FAULTS = """
import random, resource
from tribent.analysis import BentType
from tribent.constructions import gmmf_build
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

rng = random.Random(0)
u = random_subspace(rng, 1, 0)
f = gmmf_build(random_instance(rng, 9, 1, BentType.PLUS, u, rng.randrange(3)))
for _ in range(3):
    assert run_pipeline(f).passed
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    assert run_pipeline(f).passed
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _mallopt_takes_the_thresholds(), reason="no glibc mallopt")
def test_a_warm_verdict_faults_no_pages_in():
    # the freed heap stays mapped between verdicts, so a warm n = 11
    # verdict reuses its pages; with glibc's default trimming each one
    # took hundreds of minor faults
    proc = _run_child(WARM_VERDICT_FAULTS)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10 * 10


@pytest.mark.parametrize("libc", [
    "class Libc: pass",  # no mallopt: not glibc
    "class Libc:\n    mallopt = staticmethod(lambda param, value: 0)",  # refused: musl
])
def test_the_package_runs_where_mallopt_is_unavailable(libc):
    proc = _run_child(f"""
import ctypes
import numpy
{libc}
ctypes.CDLL = lambda *args, **kwargs: Libc()
from tribent.fixtures import get_fixture
from tribent.pipeline import run_pipeline
assert run_pipeline(get_fixture("code98-a").build()).passed
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", range(9))
def test_per_n_tables_against_definitions(n):
    idx = np.arange(size(n))
    coords = coord_matrix(n)
    assert coords.shape == (size(n), n) and coords.dtype == np.int8
    for i in range(n):
        assert np.array_equal(coords[:, i], (idx // 3 ** i) % 3)
    neg = neg_table(n)
    assert neg.dtype == np.int64
    assert neg.tolist() == [neg_point(x, n) for x in range(size(n))]
    for p in range(0, size(n), max(1, size(n) // 7)):
        shift = translation_table(p, n)
        assert shift.tolist() == [add_points(x, p, n) for x in range(size(n))]
        dots = dots_with(p, n)
        assert dots.dtype == np.int8
        assert dots.tolist() == [dot(x, p, n) for x in range(size(n))]


def test_dots_with_at_n12_peaks_near_its_int8_table():
    # tracemalloc's peak over 3^n: the table of all 3^n digit sums in
    # int64 and its int64 residues read 16.0 B/point; the low digits'
    # int64 table, a third as long, and the int8 result read 4.0
    expected = coord_matrix(12).astype(np.int64) @ decode(12345, 12) % 3
    tracemalloc.start()
    try:
        dots = dots_with(12345, 12)
        peak = tracemalloc.get_traced_memory()[1] / size(12)
    finally:
        tracemalloc.stop()
    assert np.array_equal(dots, expected) and peak <= 4.5, peak


@pytest.mark.parametrize("n", range(6))
def test_digit_sum_table_against_decode(n):
    rng = np.random.default_rng(n)
    values = rng.integers(-50, 50, (n, 3)).tolist()
    t = digit_sum_table(values)
    assert t.dtype == np.int64
    assert t.tolist() == [sum(v[d] for v, d in zip(values, decode(x, n))) for x in range(size(n))]


@pytest.mark.parametrize("n", range(13))
def test_half_width_translation_against_the_full_table(n):
    # at n = 1 the low half is empty; digit-wise addition carries nothing
    # across the halves, which p = 3^k - 1 (every low digit 2) and p = 3^k
    # (lowest high digit 1) probe; a map acts along the last axis, so each
    # row of a (3, 3^n) array moves as a flat one does
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 3, (3, size(n))).astype(np.int8)
    a = rows[0]
    k = n // 2
    for p in {0, size(n) - 1, 3 ** k - 1, 3 ** k % size(n), int(rng.integers(size(n)))}:
        shift = translation(p, n)
        assert np.array_equal(shift(a), a[translation_table(p, n)])
        assert np.array_equal(shift(rows), rows[:, translation_table(p, n)])
    assert np.array_equal(negation(n)(a), a[neg_table(n)])
    assert np.array_equal(negation(n)(rows), rows[:, neg_table(n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_translation_builds_a_table_for_each_half_it_moves(monkeypatch, n):
    # 3^k moves only the lowest high digit, and 0 moves nothing
    built = []
    original = core.translation_table

    def counted(p, width):
        built.append(width)
        return original(p, width)

    monkeypatch.setattr(core, "translation_table", counted)
    k = n // 2
    translation(3 ** k, n)
    assert built == [n - k]
    built.clear()
    translation(0, n)
    assert built == []


# ---------------------------------------------------------------------------
# Eisenstein ring
# ---------------------------------------------------------------------------

eis = st.builds(Eisenstein, st.integers(-50, 50), st.integers(-50, 50))


def test_omega_powers():
    assert omega_pow(0) == Eisenstein(1, 0)
    assert omega_pow(1) == Eisenstein(0, 1)
    assert omega_pow(2) == Eisenstein(-1, -1)
    assert omega_pow(3) == omega_pow(0)
    assert omega_pow(1) * omega_pow(2) == omega_pow(0)


def test_product_rule_example():
    # (1 + 2w)(1 + 2w) = 1 + 4w + 4w^2 = -3 = (-3, 0): i*sqrt3 squared
    w = Eisenstein(1, 2)
    assert w * w == Eisenstein(-3, 0)
    assert w.squared_norm() == 3


@given(eis, eis, eis)
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x
    assert x - x == Eisenstein(0, 0)


@given(eis, eis)
def test_norm_multiplicative(x, y):
    assert (x * y).squared_norm() == x.squared_norm() * y.squared_norm()


@given(eis)
def test_norm_nonnegative_zero_iff_zero(x):
    assert x.squared_norm() >= 0
    assert (x.squared_norm() == 0) == (x == Eisenstein(0, 0))


@given(eis)
def test_times_omega_and_conj(x):
    # times w: (a, b) -> (-b, a - b)
    assert x * omega_pow(1) == Eisenstein(-x.b, x.a - x.b)
    # conjugation swaps w and w^2
    assert omega_pow(1).conj() == omega_pow(2)
    assert x.conj().conj() == x


def test_root_sum():
    assert root_sum([3, 0, 0]) == Eisenstein(3, 0)
    assert root_sum([1, 1, 1]) == Eisenstein(0, 0)
    assert root_sum([0, 1, 2]) == omega_pow(1) + omega_pow(2) * 2


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def test_span_of_zero():
    v = span([0], 2)
    assert v.dim == 0
    assert np.array_equal(v.points(), [0])


def test_span_empty_is_zero():
    assert span([], 3).dim == 0


def test_span_full_plane():
    pts = [encode((1, 0)), encode((0, 1)), encode((1, 1))]
    v = span(pts, 2)
    assert v.dim == 2
    assert v.points().dtype == np.int64 and np.array_equal(v.points(), np.arange(9))
    assert is_subspace(np.arange(9), 2)


def test_is_subspace_rejects_non_closed():
    assert not is_subspace(np.array([0, 1]), 2)  # missing 2 = 2*e1
    assert is_subspace(np.array([0, 1, 2]), 2)
    assert is_subspace(np.array([2, 0, 1, 2]), 2)  # repeats count once
    assert not is_subspace(np.array([], dtype=np.int64), 2)


def test_nondegenerate_examples():
    full = span(range(27), 3)
    assert is_nondegenerate(full)
    assert not is_nondegenerate(span([encode((1, 1, 1))], 3))  # self-dot 0
    assert is_nondegenerate(span([encode((1, 2, 0))], 3))


def test_orthogonal_complement_extremes():
    full = span(range(27), 3)
    assert np.array_equal(orthogonal_complement(full).points(), [0])
    zero = span([], 3)
    assert orthogonal_complement(zero).dim == 3


def test_zero_subspace_of_f3_0():
    v = span(np.ones(1, dtype=bool), 0)
    assert v.dim == 0 and v.pivots == () and v.perp.shape == (0, 0)


def _reduction_cases():
    """The 0 x 0 and 0 x n matrices, and random {0, 1, 2} matrices up to
    18 x 18: uniform ones and products of a rows x d and a d x n factor
    (rank at most d), each with a zero row and a duplicate row inserted."""
    rng = np.random.default_rng(37)
    for n in (0, 1, 7, 18):
        yield np.zeros((0, n), dtype=np.int8)
    for trial in range(400):
        n, rows = rng.integers(1, 19), rng.integers(1, 17)
        if trial % 2:
            d = rng.integers(0, n + 1)
            m = rng.integers(0, 3, (rows, d)) @ rng.integers(0, 3, (d, n)) % 3
        else:
            m = rng.integers(0, 3, (rows, n))
        m = np.insert(m, rng.integers(0, rows + 1), 0, axis=0)
        m = np.insert(m, rng.integers(0, rows + 2), m[rng.integers(0, rows + 1)], axis=0)
        yield m.astype(np.int8)


def _slot_lists(echelon):
    """core._rref's slots with every row as a list, for comparison."""
    return [None if row is None else list(row) for row in echelon]


def test_reduction_matches_the_numpy_oracle():
    # the plain-integer reduction and its null basis against the
    # whole-array numpy ones; folding the rows in one at a time, as span
    # folds a failing point, gives the same form and leaves the form it
    # is given unchanged
    for m in _reduction_cases():
        n = m.shape[1]
        echelon = core._rref(m.tolist(), n)
        expected = rref(m.copy())
        assert len(echelon) == n
        assert [row for row in _slot_lists(echelon) if row is not None] == expected.tolist()
        null = core._null_basis(echelon)
        assert null.dtype == np.int8 and np.array_equal(null, null_basis(expected))
        grown = core._rref([], n)
        for row in m.tolist():
            before = _slot_lists(grown)
            folded = core._rref([row], n, grown)
            assert _slot_lists(grown) == before
            grown = folded
        assert _slot_lists(grown) == _slot_lists(echelon)


@pytest.mark.parametrize("n", range(6))
def test_nondegeneracy_and_complement_against_brute_force(n):
    # random subspaces spanned by d random rows (rank d or less): the
    # radical V meets V-perp in is {0} exactly when V is non-degenerate,
    # with V from span_points and V-perp from a scan of all 3^n points;
    # the complement is that scan, checked at n <= 4 (x is in V-perp when
    # it is orthogonal to each row)
    rng = np.random.default_rng(n)
    for _ in range(30):
        rows = rng.integers(0, 3, (rng.integers(0, n + 1), n)).astype(np.int8)
        members = span_points(rows)
        v = span(members, n)
        perp = [x for x in range(size(n)) if all(dot(x, encode(r), n) == 0 for r in rows.tolist())]
        assert is_nondegenerate(v) == (np.intersect1d(members, perp).tolist() == [0])
        if n <= 4:
            assert orthogonal_complement(v).points().tolist() == perp


def test_span_size_and_complement_properties():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(10):
            pts = rng.integers(0, size(n), rng.integers(1, 5))
            v = span(pts.tolist(), n)
            assert len(v.points()) == size(v.dim)
            w = orthogonal_complement(v)
            if is_nondegenerate(v):
                assert v.dim + w.dim == n
                assert np.array_equal(np.intersect1d(v.points(), w.points()), [0])


def test_neg_point():
    assert neg_point(encode((1, 2, 0)), 3) == encode((2, 1, 0))
    assert neg_point(0, 4) == 0


# ---------------------------------------------------------------------------
# The numpy row reduction against pure-Python references
# ---------------------------------------------------------------------------

def _row_reduce_reference(rows: list[list[int]]) -> list[list[int]]:
    """Row-reduce mod 3 one entry at a time, returning the nonzero rows in
    reduced echelon form."""
    rows = [[c % 3 for c in r] for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 if rows[pivot_row][col] == 1 else 2  # inverse mod 3
        rows[pivot_row] = [(inv * c) % 3 for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                m = rows[r][col]
                rows[r] = [(a - m * b) % 3 for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [r for r in rows if any(r)]


def _additive_closure(points, n: int) -> np.ndarray:
    """{0} closed under adding each point, one add_points at a time (a
    point already inside adds nothing), as a sorted index array."""
    members = {0}
    for p in points:
        if p in members:
            continue
        p2 = add_points(p, p, n)
        members = {add_points(m, q, n) for m in members for q in (0, p, p2)}
    return np.array(sorted(members), dtype=np.int64)


@st.composite
def point_lists(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    everything = list(range(size(n)))
    pts = draw(st.one_of(
        st.lists(st.integers(min_value=0, max_value=size(n) - 1), max_size=12),
        st.just(everything),
    ))
    return n, pts


@given(point_lists())
@example((0, []))
@example((0, [0]))
@example((3, []))
@example((3, [0, 0]))
@example((3, [5, 5, 10, 0]))
@example((5, list(range(243))))
def test_subspace_layer_against_references(case):
    n, pts = case
    v = span(pts, n)
    closure = _additive_closure(pts, n)
    assert np.array_equal(v.points(), closure)
    assert is_subspace(np.array(pts, dtype=np.int64), n) == np.array_equal(np.unique(pts), closure)
    reference = _row_reduce_reference([list(decode(p, n)) for p in pts])
    assert v.basis == tuple(encode(r) for r in reference)

    perp = [x for x in range(size(n)) if all(dot(x, b, n) == 0 for b in v.basis)]
    assert np.array_equal(orthogonal_complement(v).points(), perp)
    assert is_nondegenerate(v) == np.array_equal(np.intersect1d(closure, perp), [0])


@st.composite
def subspace_with_extras(draw):
    """All members of a random subspace of F_3^n (at least 100 points), in
    random order, with 0-3 arbitrary points inserted at random positions."""
    n = draw(st.integers(min_value=6, max_value=8))
    d = draw(st.integers(min_value=5, max_value=6))
    gens = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                                  min_size=d, max_size=d)), dtype=np.int64)
    members = np.unique((coord_matrix(d) @ gens % 3) @ 3 ** np.arange(n)).tolist()
    assume(len(members) >= 100)
    pts = draw(st.permutations(members))
    for _ in range(draw(st.integers(0, 3))):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.integers(0, size(n) - 1)))
    return n, pts


# every member of the hyperplane x_5 = 0 of F_3^6, then e_5 last
_HYPERPLANE_AND_ONE = (6, sorted((coord_matrix(5) @ 3 ** np.arange(5)).tolist()) + [3 ** 5])


@settings(max_examples=30, deadline=None)
@given(subspace_with_extras())
@example(_HYPERPLANE_AND_ONE)
def test_span_and_perp_against_references_at_larger_n(case):
    n, pts = case
    v = span(pts, n)
    reference = _row_reduce_reference([list(decode(p, n)) for p in pts])
    assert v.basis == tuple(encode(r) for r in reference)
    assert span(np.array(pts), n) == v

    basis = np.array([decode(b, n) for b in v.basis], dtype=np.int64).reshape(-1, n)
    all_points = np.array([decode(x, n) for x in range(size(n))], dtype=np.int64)
    brute = ~(all_points @ basis.T % 3).any(axis=1)
    assert np.array_equal(span_points(v.perp), np.flatnonzero(brute))
    assert np.array_equal(orthogonal_complement(v).points(), np.flatnonzero(brute))


def _subspace_and_stray(position: int, digit: int) -> list[int]:
    """All 3^4 members of a subspace of F_3^11 in random order, then one
    stray point: the member at index 1 with the given digit set, outside
    the subspace by construction.  The stray comes last and is no digit
    band's first member, so span's band sample skips it and only the
    membership check can find it."""
    n = 11
    gens = np.zeros((4, n), dtype=np.int64)
    gens[0, [0, 6]] = 1
    gens[1, [1, 7]] = 1
    gens[2, [2, 8, 9]] = (1, 2, 1)
    gens[3, [3, 10]] = 1
    members = (coord_matrix(4) @ gens % 3) @ 3 ** np.arange(n)
    members = np.random.default_rng(11).permutation(members).tolist()
    coords = list(decode(members[1], n))
    coords[position] = digit
    return members + [encode(coords)]


# k = n // 2 = 5: digits 0..4 are the low half, 5..10 the high half; digit
# 4 (low) and digit 5 (high) are zero on every member
@pytest.mark.parametrize("position, digit", [(4, 1), (5, 2)], ids=["low-half", "high-half"])
def test_span_finds_a_stray_in_either_half_at_n11(position, digit):
    pts = _subspace_and_stray(position, digit)
    assert len(pts) == 82 and np.array_equal(np.sort(pts[:-1]), span(pts[:-1], 11).points())
    v = span(pts, 11)
    reference = _row_reduce_reference([list(decode(p, 11)) for p in pts])
    assert v.dim == 5 and v.basis == tuple(encode(r) for r in reference)
    # the same points as a mask, sampled from per-row counts
    mask = np.zeros(size(11), dtype=bool)
    mask[pts] = True
    assert span(mask, 11) == v


@pytest.mark.parametrize("n", [0, 1, 4, 7, 11, 12])
@pytest.mark.parametrize("density", [0.0, 1e-4, 0.01, 0.3, 1.0])
def test_mask_sample_is_the_strided_member_list(n, density):
    # span samples a mask without listing its members: for each digit p,
    # the first member of the strided slice mask[3^p::3^(p+1)], which must
    # be the first in the full member list whose lowest nonzero digit is
    # p and equals 1
    mask = np.random.default_rng(n).random(size(n)) < density
    members = np.flatnonzero(mask)
    bands = [members[members % 3 ** (p + 1) == 3 ** p] for p in range(n)]
    expected = [int(band[0]) for band in bands if band.size]
    assert core._band_members(mask, n) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_span_of_indices_is_the_span_of_their_mask(n):
    # indices are scattered into a mask and sampled as one, so neither
    # their order nor their repeats change the basis or perp
    rng = np.random.default_rng(n)
    v = span(rng.integers(0, size(n), 2), n)
    for points in (rng.integers(0, size(n), 1), rng.integers(0, size(n), 3),
                   rng.integers(0, size(n), size(n) // 3), v.points()):
        mask = np.zeros(size(n), dtype=bool)
        mask[points] = True
        shuffled = rng.permutation(np.concatenate([points, points[: len(points) // 2 + 1]]))
        expected = span(mask, n)
        for given in (points, shuffled, shuffled.tolist()):
            got = span(given, n)
            assert got == expected and np.array_equal(got.perp, expected.perp)


def _row_space_closure(points: list[int], n: int) -> list[int]:
    """The sorted F_3-span of the points, grown one point at a time:
    a point outside the members so far adds its two nonzero multiples to
    every member."""
    members = {0}
    for p in points:
        if p not in members:
            twice = add_points(p, p, n)
            members |= {add_points(m, q, n) for m in members for q in (p, twice)}
    return sorted(members)


def _count_rounds(monkeypatch) -> list[int]:
    """Count span's rounds: one _null_basis call each."""
    rounds, null_basis = [0], core._null_basis

    def counted(r):
        rounds[0] += 1
        return null_basis(r)

    monkeypatch.setattr(core, "_null_basis", counted)
    return rounds


@pytest.mark.parametrize("n", range(1, 12))
def test_subspace_mask_spans_in_one_round(monkeypatch, n):
    # the band sample of a subspace is a basis, so its null space is
    # checked once and nothing is folded in: random subspaces of every
    # dimension, given as masks and as index lists
    rng = np.random.default_rng(n)
    rounds = _count_rounds(monkeypatch)
    for d in range(n + 1):
        for _ in range(3):
            members = np.unique(span_points(rng.integers(0, 3, (d, n)).astype(np.int8)))
            mask = np.zeros(size(n), dtype=bool)
            mask[members] = True
            for given in (mask, rng.permutation(members)):
                rounds[0] = 0
                v = span(given, n)
                assert rounds[0] == 1 and size(v.dim) == len(members)


@pytest.mark.parametrize("n", range(4, 10))
def test_span_with_several_null_vectors_against_a_row_space_closure(monkeypatch, n):
    # subsets of random subspaces of dimension d <= n - 3, so each round
    # encodes at least three null vectors in one syndrome, as index lists
    # and as masks.  From n = 8 the last list is the 3^(n-4) members
    # of the row space of [I | R] and then a stray point that the band
    # sample skips, so span folds it in a second round; only the
    # syndrome compare finds a stray, and one that aliased two residue
    # vectors would miss some of 400 strays
    rng = np.random.default_rng(n)
    rounds = _count_rounds(monkeypatch)
    cases = []
    for d in range(n - 2):
        members = span_points(rng.integers(0, 3, (d, n)).astype(np.int8))
        cases.append(rng.permutation(members[rng.random(len(members)) < 0.7]).tolist())
    if n >= 8:
        gens = np.hstack([np.eye(n - 4, dtype=np.int8),
                          rng.integers(0, 3, (n - 4, 4)).astype(np.int8)])
        members = span_points(gens)
        listed = rng.permutation(members).tolist()
        strays = np.setdiff1d(np.arange(size(n)), members)
        cases.append(listed + [int(strays[-1])])
    for pts in cases:
        v = span(pts, n)
        closure = _row_space_closure(pts, n)
        assert n - v.dim >= 3 and np.array_equal(v.points(), closure)
        mask = np.zeros(size(n), dtype=bool)
        mask[pts] = True
        assert span(mask, n) == v
    if n >= 8:
        rounds[0] = 0
        span(cases[-1], n)
        assert rounds[0] >= 2
        for stray in rng.choice(strays, 400, replace=False).tolist():
            assert span(listed + [stray], n).dim == n - 3


def _perp_cases():
    """Random point lists at n = 1..8 (empty, a few points, many points)
    and the n = 11 span cases with and without their stray point."""
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for count in (0, 1, 3, 2 * n, 40):
            yield n, rng.integers(0, size(n), count).tolist()
    for position, digit in ((4, 1), (5, 2)):
        pts = _subspace_and_stray(position, digit)
        yield 11, pts[:-1]
        yield 11, pts


def test_span_keeps_the_perp_basis():
    for n, pts in _perp_cases():
        v = span(pts, n)
        assert v.perp.dtype == np.int8
        assert v.perp.shape == (n - v.dim, n)
        # every row is orthogonal to V and the rows are independent
        assert not (coord_rows(v.basis, n).astype(np.int64) @ v.perp.T % 3).any()
        assert span(v.perp @ 3 ** np.arange(n), n).dim == n - v.dim


def test_perp_is_read_only_and_survives_its_readers():
    pts = _subspace_and_stray(4, 1)
    for v in (span(pts, 11), orthogonal_complement(span(pts, 11))):
        perp = v.perp
        before = perp.copy()
        assert not perp.flags.writeable
        with pytest.raises(ValueError):
            perp[0, 0] = 2
        w = orthogonal_complement(v)
        kernel = span_points(v.perp)
        assert v.perp is perp and np.array_equal(perp, before)
        assert np.array_equal(kernel, w.points())
        assert orthogonal_complement(v) == w


def test_equality_and_hash_ignore_perp():
    for n, pts in _perp_cases():
        v = span(pts, n)
        other = Subspace(n, v.basis, np.zeros((0, n), dtype=np.int8))
        assert v == other and hash(v) == hash(other)
        assert "perp" not in repr(v)
        assert len({v, other}) == 1


def test_the_complements_perp_spans_v():
    for n, pts in _perp_cases():
        v = span(pts, n)
        w = orthogonal_complement(v)
        assert w.perp.shape == (v.dim, n)
        assert span(span_points(w.perp), n) == v
        assert np.array_equal(span_points(w.perp), v.points())
        assert orthogonal_complement(w) == v


def test_span_points_enumerates_every_combination_of_the_rows():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for d in range(n + 1):
            rows = rng.integers(0, 3, (d, n)).astype(np.int8)
            combos = {encode(np.array(c, dtype=np.int64) @ rows.astype(np.int64))
                      for c in (decode(x, d) for x in range(size(d)))}
            points = span_points(rows)
            assert points.dtype == np.int64 and len(points) == size(d)
            assert (np.diff(points) >= 0).all()
            assert np.unique(points).tolist() == sorted(combos)


@pytest.mark.parametrize("n", range(1, 9))
def test_subspace_coordinates_against_the_digit_loop(n):
    # entry c of members() is the member whose coordinates in the basis
    # are c: the combination c B point by point, whose digits at the
    # pivots read c back; sorted, they are points() and every combination
    # of the basis rows
    rng = np.random.default_rng(n)
    for trial in range(6):
        v = span(rng.integers(0, size(n), rng.integers(0, n + 1)).tolist(), n)
        for w in (v, orthogonal_complement(v)):
            assert w.pivots == subspace_pivots(w)
            members = w.members()
            assert members.dtype == np.int64 and len(members) == size(w.dim)
            assert np.array_equal(np.sort(members), w.points())
            assert np.array_equal(w.points(), span_points(coord_rows(w.basis, n)))
            for c in rng.permutation(len(members))[:40].tolist():
                x = int(members[c])
                assert c == subspace_coordinates(w, x)
                assert combination(c, w) == x
