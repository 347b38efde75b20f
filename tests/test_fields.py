import random

import pytest

from tribent.fields import ExtField, find_irreducible, is_irreducible

from conftest import add_points


def test_irreducibility_small_cases():
    assert is_irreducible([1, 0, 1])       # t^2 + 1 has no roots mod 3
    assert not is_irreducible([2, 0, 1])   # t^2 + 2 = (t-1)(t+1)
    assert is_irreducible([2, 2, 1])       # t^2 + 2t + 2
    assert is_irreducible([0, 1])          # every linear polynomial
    assert is_irreducible([1, 1])          # t + 1
    assert not is_irreducible([1])         # constants are units, not irreducible


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        ExtField.create(2, [2, 0, 1], 3)


def test_non_monic_rejected():
    with pytest.raises(ValueError):
        ExtField.create(2, [1, 1, 2], 3)


def test_non_primitive_generator_rejected():
    fld = ExtField.create(2, [2, 2, 1], 3)
    # squares generate the index-2 subgroup
    sq = fld.mul(3, 3)
    with pytest.raises(ValueError):
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
    assert all(fld.element_order(g) == 80 for g in prim[:5])


def test_default_moduli_degrees():
    for k in (2, 3, 4, 5, 6):
        mod = find_irreducible(k)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert is_irreducible(mod)
