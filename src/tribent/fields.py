"""Arithmetic in GF(3^k) for trace-form function tables.

Field elements are encoded as integers in [0, 3^k): the little-endian
base-3 digits of the integer are the coordinates in the polynomial basis
{1, t, ..., t^(k-1)} modulo the chosen irreducible.  That encoding makes
an element's integer value double as its point index in F_3^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import coord_rows, decode, dots_with, encode, size

# powers of the generator ExtField.create multiplies at once; at k = 12
# larger blocks than 2^12 ran no faster
_POWER_BLOCK = 1 << 13


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


def is_irreducible(modulus: Sequence[int]) -> bool:
    """Brute-force irreducibility over F_3: no monic factor of degree
    between 1 and deg/2 divides the polynomial."""
    m = [c % 3 for c in modulus]
    while m and m[-1] == 0:
        m.pop()
    return len(m) > 1 and all(any(_poly_mod(m, list(decode(idx, d)) + [1]))
                              for d in range(1, (len(m) - 1) // 2 + 1)
                              for idx in range(size(d)))


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


def _mul_matrix(modulus: Sequence[int], a: int) -> np.ndarray:
    """Matrix of x -> a x on coordinate columns: sum_i a_i C^i, where the
    companion matrix C of the modulus multiplies by t."""
    k = len(modulus) - 1
    c = np.eye(k, k, -1, dtype=np.int64)
    c[:, -1] = np.negative(modulus[:-1]) % 3
    out, power = np.zeros((k, k), dtype=np.int64), np.eye(k, dtype=np.int64)
    for digit in decode(a, k):
        out, power = out + digit * power, c @ power % 3
    return out % 3


def _mat_pow(m: np.ndarray, e: int) -> np.ndarray:
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % 3
        m, e = m @ m % 3, e >> 1
    return out


def _has_full_order(m_a: np.ndarray, q: int) -> bool:
    """Whether a has multiplicative order q - 1, read off its matrix:
    M_a^(q-1) = I and M_a^((q-1)/p) != I for every prime p | q - 1.

    Then the q - 1 powers of a are distinct units, so every nonzero
    element of F_3[t]/(m) is a unit: the ring is a field and the modulus
    m is irreducible (Lidl-Niederreiter, Finite Fields, ch. 3)."""
    eye = np.eye(len(m_a), dtype=np.int64)
    return (np.array_equal(_mat_pow(m_a, q - 1), eye)
            and not any(np.array_equal(_mat_pow(m_a, (q - 1) // p), eye)
                        for p in _prime_factors(q - 1)))


@dataclass(frozen=True, eq=False)
class ExtField:
    """GF(3^k) with a fixed monic irreducible modulus and primitive generator.

    Construction checks that the generator's multiplication matrix has
    order 3^k - 1, which also proves the modulus irreducible, then builds
    discrete exp/log tables (read-only int32 arrays) and the int8 trace
    table, so products, powers and traces are table lookups.
    """

    k: int
    modulus: tuple[int, ...]
    generator: int
    _exp: np.ndarray
    _log: np.ndarray
    _trace: np.ndarray

    @classmethod
    def create(cls, k: int, modulus: Sequence[int], generator: int) -> "ExtField":
        mod = tuple(c % 3 for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}, lowest coefficient first")
        q = size(k)
        if not 0 < generator < q:
            raise ValueError(f"generator {generator} out of range")
        m_g = _mul_matrix(mod, generator)
        if not _has_full_order(m_g, q):
            if not is_irreducible(mod):
                raise ValueError(f"modulus {list(mod)} is reducible over F_3")
            raise ValueError(f"generator {generator} is not primitive")

        # exp[i] = index of g^i, int32 (q <= 3^EXACT_DIM < 2^31), filled as
        # exp[s + i] = g^b exp[s - b + i] on the int8 coordinates (dot
        # products at most 4k) of the last b <= _POWER_BLOCK powers only.
        exp, s, weights = np.ones(q - 1, dtype=np.int32), 1, 3 ** np.arange(k)
        coords = np.eye(1, k, dtype=np.int8)
        while s < q - 1:
            b = min(s, _POWER_BLOCK, q - 1 - s)
            block = coords[-b:] @ _mat_pow(m_g, b).T.astype(np.int8) % 3
            exp[s:s + b] = block @ weights
            coords, s = np.concatenate([coords, block])[-_POWER_BLOCK:], s + b
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)

        # Tr(x) = x + x^3 + ... + x^(3^(k-1)) is F_3-linear, so it is
        # digit-additive: Tr(x) = sum_j x_j Tr(t^j).  Row j of exp[logs]
        # holds the Frobenius images of t^j (log arithmetic), and Tr(t^j)
        # is their coordinatewise digit sum.
        logs = np.outer(log[3 ** np.arange(k)], 3 ** np.arange(k)) % (q - 1)
        sums = coord_rows(exp[logs].ravel(), k).reshape(k, k, k).sum(axis=1) % 3
        assert not sums[:, 1:].any(), "trace must land in the prime field"
        trace = dots_with(encode(sums[:, 0].tolist()), k)
        for table in (exp, log, trace):
            table.flags.writeable = False
        return cls(k, mod, generator, exp, log, trace)

    @property
    def q(self) -> int:
        return size(self.k)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return int(e == 0)
        return int(self._exp[int(self._log[a]) * e % (self.q - 1)])

    def gen_pow(self, e: int) -> int:
        """generator^e."""
        return int(self._exp[e % (self.q - 1)])

    def trace(self, a: int) -> int:
        """Trace down to F_3, as a value in {0, 1, 2}."""
        return int(self._trace[a])

    def primitive_elements(self) -> list[int]:
        """All elements of multiplicative order 3^k - 1, in log order."""
        return self._exp[np.gcd(np.arange(self.q - 1), self.q - 1) == 1].tolist()


def find_irreducible(k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k whose
    residue class t is primitive; used as a default modulus."""
    t = 3 if k >= 2 else 2  # encode((0, 1, 0, ...)) for k >= 2
    for idx in range(size(k)):
        cand = decode(idx, k) + (1,)
        if _has_full_order(_mul_matrix(cand, t), size(k)):
            return cand
    raise RuntimeError(f"no degree-{k} primitive polynomial found")
