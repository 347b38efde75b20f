"""Arithmetic in GF(3^k) for trace-form function tables.

Field elements are encoded as integers in [0, 3^k): the little-endian
base-3 digits of the integer are the coordinates in the polynomial basis
{1, t, ..., t^(k-1)} modulo the chosen irreducible.  That encoding makes
an element's integer value double as its point index in F_3^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .core import coord_rows, decode, digit_sum_table, encode, size


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(p: list[int], m: list[int]) -> list[int]:
    """Remainder of p modulo the monic polynomial m, coefficients mod 3."""
    p = [c % 3 for c in p]
    dm = len(m) - 1
    for i in range(len(p) - 1, dm - 1, -1):
        c = p[i]
        if c:
            for j, mc in enumerate(m):
                p[i - dm + j] = (p[i - dm + j] - c * mc) % 3
    del p[dm:]
    return p


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % 3
    return out


def _all_monic(degree: int):
    for idx in range(size(degree)):
        yield list(decode(idx, degree)) + [1]


def is_irreducible(modulus: Sequence[int]) -> bool:
    """Brute-force irreducibility over F_3: no monic factor of degree
    between 1 and deg/2 divides the polynomial."""
    m = [c % 3 for c in modulus]
    if len(_poly_trim(list(m))) - 1 < 1:
        return False
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _all_monic(d):
            if not _poly_trim(_poly_mod(list(m), cand)):
                return False
    return True


def _prime_factors(x: int) -> list[int]:
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


@dataclass(frozen=True)
class ExtField:
    """GF(3^k) with a fixed monic irreducible modulus and primitive generator.

    Construction validates the modulus (brute-force factor scan) and the
    generator (multiplicative order 3^k - 1), then builds discrete
    log/exp tables so products and powers are table lookups.
    """

    k: int
    modulus: tuple[int, ...]
    generator: int
    _exp: tuple[int, ...]
    _log: tuple[int, ...]
    _trace: tuple[int, ...]

    @classmethod
    def create(cls, k: int, modulus: Sequence[int], generator: int) -> "ExtField":
        mod = tuple(c % 3 for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}, lowest coefficient first")
        if not is_irreducible(mod):
            raise ValueError(f"modulus {list(mod)} is reducible over F_3")
        q = size(k)
        if not 0 < generator < q:
            raise ValueError(f"generator {generator} out of range")

        mlist = list(mod)

        def raw_mul(a: int, b: int) -> int:
            prod = _poly_mul(list(decode(a, k)), list(decode(b, k)))
            return encode(_poly_mod(prod, mlist) + [0] * k)

        exp = [1]
        cur = 1
        for _ in range(q - 2):
            cur = raw_mul(cur, generator)
            if cur == 1:
                raise ValueError(f"generator {generator} is not primitive (order too small)")
            exp.append(cur)
        if raw_mul(cur, generator) != 1:
            raise ValueError(f"generator {generator} is not primitive")
        log = [0] * q
        for e, val in enumerate(exp):
            log[val] = e

        # Tr(x) = x + x^3 + ... + x^(3^(k-1)) is F_3-linear, so it is
        # digit-additive: Tr(x) = sum_j x_j Tr(t^j).  Row j of images holds
        # the Frobenius images of t^j (log arithmetic), and Tr(t^j) is
        # their coordinatewise digit sum.
        logs = np.outer([log[3 ** j] for j in range(k)], 3 ** np.arange(k)) % (q - 1)
        images = np.array(exp)[logs]
        sums = coord_rows(images.ravel(), k).reshape(k, k, k).sum(axis=1) % 3
        assert not sums[:, 1:].any(), "trace must land in the prime field"
        trace = digit_sum_table([(0, t, 2 * t) for t in sums[:, 0].tolist()]) % 3
        return cls(k, mod, generator, tuple(exp), tuple(log), tuple(trace.tolist()))

    @property
    def q(self) -> int:
        return size(self.k)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def gen_pow(self, e: int) -> int:
        """generator^e."""
        return self._exp[e % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Trace down to F_3, as a value in {0, 1, 2}."""
        return self._trace[a]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        return (self.q - 1) // gcd(self._log[a], self.q - 1)

    def primitive_elements(self) -> list[int]:
        """All elements of multiplicative order 3^k - 1, in log order."""
        return [self._exp[e] for e in range(self.q - 1) if gcd(e, self.q - 1) == 1]


def find_irreducible(k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k whose
    residue class t is primitive; used as a default modulus."""
    t = 3 if k >= 2 else 2  # encode((0, 1, 0, ...)) for k >= 2
    for idx in range(size(k)):
        cand = list(decode(idx, k)) + [1]
        if not is_irreducible(cand):
            continue
        try:
            ExtField.create(k, cand, generator=t)
        except ValueError:
            continue
        return tuple(cand)
    raise RuntimeError(f"no degree-{k} primitive polynomial found")
