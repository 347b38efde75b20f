import random

import pytest

from tribent.constructions import TraceSpec, trace_function
from tribent.core import decode, encode, size
from tribent.fields import ExtField, find_irreducible, is_irreducible

from conftest import add_points


# The digit-list construction: polynomial products reduced modulo the
# modulus, one power of the generator at a time.  A slow, independent
# reference for the tables ExtField reads off the generator's
# multiplication matrix.

def _poly_mul_mod(a: list[int], b: list[int], modulus: tuple[int, ...]) -> list[int]:
    """(a * b) mod the monic modulus, coefficients mod 3, lowest first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % 3
    deg = len(modulus) - 1
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        for j, mc in enumerate(modulus):
            out[i - deg + j] = (out[i - deg + j] - c * mc) % 3
    return out[:deg]


def oracle_tables(k: int, modulus, generator: int):
    """(exp, log, trace) lists, or None when the generator's powers
    repeat before 3^k - 1 steps."""
    q = size(k)
    g = list(decode(generator, k))
    exp, cur = [1], [1] + [0] * (k - 1)
    for _ in range(q - 2):
        cur = _poly_mul_mod(cur, g, tuple(modulus))
        if encode(cur) == 1:
            return None
        exp.append(encode(cur))
    if encode(_poly_mul_mod(cur, g, tuple(modulus))) != 1:
        return None
    log = [0] * q
    for e, val in enumerate(exp):
        log[val] = e
    trace = [0] * q
    for e, x in enumerate(exp):
        # Tr(x) = x + x^3 + ... + x^(3^(k-1)), added coordinatewise
        total = 0
        for i in range(k):
            total = add_points(total, exp[e * 3 ** i % (q - 1)], k)
        assert total < 3, "trace must land in the prime field"
        trace[x] = total
    return exp, log, trace


def oracle_find_irreducible(k: int) -> tuple[int, ...]:
    t = 3 if k >= 2 else 2
    for idx in range(size(k)):
        cand = decode(idx, k) + (1,)
        if is_irreducible(cand) and oracle_tables(k, cand, t) is not None:
            return cand
    raise AssertionError(f"no degree-{k} primitive polynomial")


def assert_tables_match(fld: ExtField, tables) -> None:
    exp, log, trace = tables
    assert fld._exp.tolist() == exp
    assert fld._log.tolist() == log
    assert fld._trace.tolist() == trace


def test_irreducibility_small_cases():
    assert is_irreducible([1, 0, 1])       # t^2 + 1 has no roots mod 3
    assert not is_irreducible([2, 0, 1])   # t^2 + 2 = (t-1)(t+1)
    assert is_irreducible([2, 2, 1])       # t^2 + 2t + 2
    assert is_irreducible([0, 1])          # every linear polynomial
    assert is_irreducible([1, 1])          # t + 1
    assert not is_irreducible([1])         # constants are units, not irreducible


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match=r"^modulus \[2, 0, 1\] is reducible over F_3$"):
        ExtField.create(2, [2, 0, 1], 3)


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        ExtField.create(2, [1, 1, 2], 3)


def test_non_primitive_generator_rejected():
    fld = ExtField.create(2, [2, 2, 1], 3)
    # squares generate the index-2 subgroup
    sq = fld.mul(3, 3)
    with pytest.raises(ValueError, match=f"^generator {sq} is not primitive$"):
        ExtField.create(2, [2, 2, 1], sq)


def test_degree2_trace_example():
    # with modulus t^2 + 2t + 2: t^3 = 2t + 1, so Tr(t) = t + t^3 = 1
    fld = ExtField.create(2, [2, 2, 1], 3)
    assert fld.trace(3) == 1


def test_exp_log_consistency():
    fld = ExtField.create(3, find_irreducible(3), 3)
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randrange(1, fld.q)
        b = rng.randrange(1, fld.q)
        assert fld.mul(a, b) == fld.mul(b, a)
        e = rng.randrange(0, 40)
        assert fld.pow(a, e) == _slow_pow(fld, a, e)


def _slow_pow(fld, a, e):
    out = 1
    for _ in range(e):
        out = fld.mul(out, a)
    return out


def test_trace_is_additive_and_onto():
    fld = ExtField.create(4, find_irreducible(4), 3)
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        a, b = rng.randrange(81), rng.randrange(81)
        assert fld.trace(add_points(a, b, 4)) == (fld.trace(a) + fld.trace(b)) % 3
        seen.add(fld.trace(a))
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("k", range(1, 6))
def test_trace_is_the_sum_of_the_frobenius_images(k):
    # Tr(x) = x + x^3 + ... + x^(3^(k-1)), summed point by point
    fld = ExtField.create(k, find_irreducible(k), 3 if k >= 2 else 2)
    for x in range(fld.q):
        acc = 0
        for i in range(k):
            acc = add_points(acc, fld.pow(x, 3 ** i), k)
        assert acc == fld.trace(x)


def test_frobenius_fixes_trace():
    fld = ExtField.create(3, find_irreducible(3), 3)
    for a in range(fld.q):
        assert fld.trace(fld.pow(a, 3)) == fld.trace(a)


def test_primitive_element_count():
    fld = ExtField.create(4, find_irreducible(4), 3)
    prim = fld.primitive_elements()
    assert len(prim) == 32  # euler phi of 80
    # order 80: g^80 = 1, and g^(80/p) != 1 for the primes p = 2, 5
    assert all(_slow_pow(fld, g, 80) == 1 and _slow_pow(fld, g, 40) != 1
               and _slow_pow(fld, g, 16) != 1 for g in prim[:5])


def test_default_moduli_degrees():
    for k in (2, 3, 4, 5, 6):
        mod = find_irreducible(k)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert is_irreducible(mod)


@pytest.mark.parametrize("k", range(1, 9))
def test_tables_match_the_digit_list_construction(k):
    mod = find_irreducible(k)
    gen = 3 if k >= 2 else 2
    assert_tables_match(ExtField.create(k, mod, gen), oracle_tables(k, mod, gen))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_modulus_and_generator_against_the_digit_list_construction(k):
    # the order test alone decides primitivity and, with it, irreducibility
    for idx in range(size(k)):
        mod = decode(idx, k) + (1,)
        for gen in range(1, size(k)):
            tables = oracle_tables(k, mod, gen) if is_irreducible(mod) else None
            if tables is not None:
                assert_tables_match(ExtField.create(k, mod, gen), tables)
                continue
            reason = "is reducible" if not is_irreducible(mod) else "is not primitive"
            with pytest.raises(ValueError, match=reason):
                ExtField.create(k, mod, gen)


@pytest.mark.parametrize("k", range(1, 9))
def test_default_modulus_matches_the_digit_list_search(k):
    assert find_irreducible(k) == oracle_find_irreducible(k)


def test_default_moduli_at_the_cap():
    assert find_irreducible(10) == (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert find_irreducible(12) == (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1)


def test_tables_are_read_only_and_lookups_return_ints():
    fld = ExtField.create(3, find_irreducible(3), 3)
    for table in (fld._exp, fld._log, fld._trace):
        assert not table.flags.writeable
    values = [fld.mul(5, 7), fld.pow(5, 4), fld.gen_pow(30), fld.trace(5),
              *fld.primitive_elements()]
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("terms", [
    ((0, 2),), ((10, 22), (0, 4)), ((3, 0), (1, 1)), ((100, 81), (2, 200), (0, 0)),
])
def test_trace_function_matches_the_point_by_point_sum(terms):
    fld = ExtField.create(4, find_irreducible(4), 3)
    table = trace_function(TraceSpec(fld, terms)).table
    for x in range(fld.q):
        acc = sum(fld.trace(fld.mul(fld.gen_pow(c), fld.pow(x, e))) for c, e in terms)
        assert table[x] == acc % 3


def test_trace_spec_refuses_negative_exponents():
    fld = ExtField.create(2, (2, 2, 1), 3)
    with pytest.raises(ValueError, match="non-negative"):
        TraceSpec(fld, ((0, 2), (1, -1)))
