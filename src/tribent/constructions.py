"""Builders for the function families the analysis pipeline consumes.

Four input routes produce TernaryFunction tables: diagonal quadratic
forms, component-glued functions F(x, y, z) = f_z(x) + z.y, parsed
polynomial expressions, and trace forms over GF(3^k).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import BentProfile, BentType, Regularity, TernaryFunction, bent_profile
from .core import check_dim, coord_matrix, legendre, size
from .fields import ExtField


# ---------------------------------------------------------------------------
# Diagonal quadratic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """d_1 x_1^2 + ... + d_m x_m^2 + c with every d_i nonzero mod 3."""

    coeffs: tuple[int, ...]
    constant: int = 0

    def __post_init__(self):
        if any(c % 3 == 0 for c in self.coeffs):
            raise ValueError("diagonal coefficients must be nonzero mod 3")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def discriminant(self) -> int:
        d = 1
        for c in self.coeffs:
            d = (d * c) % 3
        return d


def quadratic_function(q: QuadraticForm) -> TernaryFunction:
    coords = coord_matrix(q.m).astype(np.int64)
    d = np.array([c % 3 for c in q.coeffs], dtype=np.int64)
    table = ((coords * coords) @ d + q.constant) % 3
    return TernaryFunction(q.m, table)


def quadratic_type(q: QuadraticForm) -> BentType:
    """Sign class of the form's spectrum, from the discriminant alone.

    The unit in front of 3^(m/2) w^(dual) is eta(disc) * i^m; collapsing
    i^m onto the two-value sign convention gives
    eta(disc) * (-1)^floor(m/2).
    """
    s = legendre(q.discriminant()) * (-1) ** (q.m // 2)
    return BentType.PLUS if s == 1 else BentType.MINUS


# ---------------------------------------------------------------------------
# Component-glued (inner x parameter z, dual pairing on y) functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmmfSpec:
    """A family of 3^s component functions on F_3^m, indexed by z.

    The glued function lives on F_3^(m+2s) with coordinate blocks
    (x block, y block, z block) in little-endian order:
    F(x, y, z) = components[z](x) + z.y.
    """

    m: int
    s: int
    components: tuple[TernaryFunction, ...]

    def __post_init__(self):
        if len(self.components) != size(self.s):
            raise ValueError(f"need 3^{self.s} components, got {len(self.components)}")
        for c in self.components:
            if c.n != self.m:
                raise ValueError("every component must live on F_3^m")

    @property
    def n(self) -> int:
        return self.m + 2 * self.s


def gmmf_build(spec: GmmfSpec) -> TernaryFunction:
    """Evaluate the glued table by block lookup; no interpolation.

    The dimension cap is checked at the input surfaces (the glue-file
    loader and run_search), which know the caller's cap.
    """
    m, s, n = spec.m, spec.s, spec.n
    sm, ss = size(m), size(s)
    comp = np.stack([c.table for c in spec.components])  # (3^s, 3^m)
    # index = x + 3^m y + 3^(m+s) z
    idx = np.arange(size(n))
    x = idx % sm
    y = (idx // sm) % ss
    z = idx // (sm * ss)
    zy = _block_dot(z, y, s)
    table = (comp[z, x] + zy) % 3
    return TernaryFunction(n, table)


def _block_dot(u: np.ndarray, v: np.ndarray, s: int) -> np.ndarray:
    """Dot product of two arrays of F_3^s point indices, elementwise."""
    coords = coord_matrix(s)
    return (coords[u] * coords[v]).sum(axis=1) % 3


@dataclass(frozen=True)
class GmmfPrediction:
    """Closed-form profile of a glued function with weakly regular parts.

    w_plus / w_minus are the z values whose component is of plus/minus
    type, as sorted int64 index arrays; the glued plus set is
    (all x) x w_plus x (all z), sign is +1 on it and -1 elsewhere (the
    format of BentProfile.sign), the dual is components_dual[y](x) - y.z,
    and the function is non-weakly regular exactly when both type classes
    occur.
    """

    n: int
    dual: TernaryFunction
    sign: np.ndarray
    regularity: Regularity
    type: BentType
    w_plus: np.ndarray
    w_minus: np.ndarray
    component_profiles: tuple[BentProfile, ...]


def gmmf_predict(spec: GmmfSpec) -> GmmfPrediction:
    """Predict the glued function's profile from its components.

    Every component must measure as weakly regular bent; otherwise the
    closed forms do not apply and the prediction is refused.
    """
    m, s, n = spec.m, spec.s, spec.n
    profiles = []
    for z, comp in enumerate(spec.components):
        prof = bent_profile(comp)  # raises NotBentError for non-bent parts
        if prof.regularity is Regularity.NON_WEAKLY_REGULAR:
            raise ValueError(f"component at z={z} is not weakly regular; prediction refused")
        profiles.append(prof)

    plus_type = np.array([p.type is BentType.PLUS for p in profiles])
    w_plus, w_minus = np.flatnonzero(plus_type), np.flatnonzero(~plus_type)

    sm, ss = size(m), size(s)
    idx = np.arange(size(n))
    x = idx % sm
    y = (idx // sm) % ss
    z = idx // (sm * ss)

    sign = np.where(plus_type[y], 1, -1).astype(np.int8)

    duals = np.stack([p.dual.table for p in profiles])  # (3^s, 3^m)
    dual_table = (duals[y, x] - _block_dot(y, z, s)) % 3
    dual = TernaryFunction(n, dual_table)

    if w_plus.size and w_minus.size:
        reg = Regularity.NON_WEAKLY_REGULAR
    elif w_minus.size:
        reg = profiles[0].regularity
    else:
        reg = Regularity.REGULAR if n % 2 == 0 else Regularity.WEAKLY_REGULAR
    btype = BentType.PLUS if plus_type[0] else BentType.MINUS
    return GmmfPrediction(
        n=n,
        dual=dual,
        sign=sign,
        regularity=reg,
        type=btype,
        w_plus=w_plus,
        w_minus=w_minus,
        component_profiles=tuple(profiles),
    )


def quadratic_family(forms: Sequence[QuadraticForm], s: int) -> GmmfSpec:
    """Glue spec from 3^s diagonal quadratic components."""
    tables = tuple(quadratic_function(q) for q in forms)
    m = forms[0].m
    return GmmfSpec(m=m, s=s, components=tables)


# ---------------------------------------------------------------------------
# Polynomial expressions
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


@dataclass(frozen=True)
class PolyExpr:
    """Sum of terms; each term is a coefficient and (variable, exponent)
    pairs with 1-based variable numbers."""

    n: int
    terms: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|(\^)|(\*)|(\+)|(-)|(.))")


def parse_poly(text: str, n: int) -> PolyExpr:
    """Parse 'c*xi^e*xj + ...' into a PolyExpr on n variables.

    Whitespace-insensitive; '*' between factors is optional after a
    coefficient is read by the grammar but required between variables.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    for match in _TOKEN.finditer(text):
        pos = match.start() + len(match.group(0)) - len(match.group(0).lstrip())
        num, var, caret, star, plus, minus, other = match.groups()
        if num:
            tokens.append(("num", num, pos))
        elif var:
            tokens.append(("var", var, pos))
        elif caret:
            tokens.append(("^", "^", pos))
        elif star:
            tokens.append(("*", "*", pos))
        elif plus:
            tokens.append(("+", "+", pos))
        elif minus:
            tokens.append(("-", "-", pos))
        elif other and other.strip():
            raise PolyParseError(f"unexpected character {other!r}", pos)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)

    terms = []
    i = 0

    def parse_factor(i: int) -> tuple[int | None, tuple[int, int] | None, int]:
        """Return (constant, (var, exp), next_index); one of the first two."""
        kind, val, pos = tokens[i]
        if kind == "num":
            return int(val), None, i + 1
        if kind == "var":
            v = int(val[1:])
            if not 1 <= v <= n:
                raise PolyParseError(f"variable {val} outside x1..x{n}", pos)
            exp = 1
            j = i + 1
            if j < len(tokens) and tokens[j][0] == "^":
                if j + 1 >= len(tokens) or tokens[j + 1][0] != "num":
                    raise PolyParseError("exponent must be an integer", tokens[j][2])
                exp = int(tokens[j + 1][1])
                j += 2
            return None, (v, exp), j
        raise PolyParseError(f"expected coefficient or variable, got {val!r}", pos)

    while i < len(tokens):
        sign = 1
        while tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
            if i >= len(tokens):
                raise PolyParseError("dangling operator", tokens[-1][2])
        coeff = sign
        powers: dict[int, int] = {}
        expect_factor = True
        while i < len(tokens):
            kind = tokens[i][0]
            if kind in ("+", "-"):
                break
            if kind == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor and kind == "var":
                # juxtaposition like '2x1' is accepted
                pass
            const, varexp, i = parse_factor(i)
            if const is not None:
                coeff *= const
            else:
                v, e = varexp
                powers[v] = powers.get(v, 0) + e
            expect_factor = False
        terms.append((coeff, tuple(sorted(powers.items()))))
    return PolyExpr(n, tuple(terms))


def eval_poly(expr: PolyExpr, cap: int | None = None) -> TernaryFunction:
    """Tabulate the expression; exponents act on F_3 values pointwise."""
    n = expr.n
    check_dim(n, cap)
    coords = coord_matrix(n).astype(np.int64)
    total = np.zeros(size(n), dtype=np.int64)
    for coeff, powers in expr.terms:
        term = np.full(size(n), coeff % 3, dtype=np.int64)
        for v, e in powers:
            col = coords[:, v - 1]
            # 0^0 = 1; otherwise x^e mod 3 cycles with period 2 on {1, 2}
            if e == 0:
                continue
            powed = col.copy()
            if e > 1:
                two_mask = col == 2
                powed = np.where(two_mask, 2 if e % 2 else 1, col)
            term = (term * powed) % 3
        total = (total + term) % 3
    return TernaryFunction(n, total)


# ---------------------------------------------------------------------------
# Trace forms over GF(3^k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSpec:
    """f(x) = Tr(sum_t generator^cpow * x^e) over a fixed GF(3^k).

    terms is a list of (cpow, e) pairs; the resulting table is indexed by
    the polynomial-basis encoding of the field elements, so it is
    directly a TernaryFunction on F_3^k.
    """

    field: ExtField
    terms: tuple[tuple[int, int], ...]


def trace_function(spec: TraceSpec) -> TernaryFunction:
    fld = spec.field
    k = fld.k
    table = np.zeros(fld.q, dtype=np.int8)
    for x in range(fld.q):
        acc = 0
        for cpow, e in spec.terms:
            term = fld.mul(fld.gen_pow(cpow), fld.pow(x, e))
            acc = (acc + fld.trace(term)) % 3
        table[x] = acc
    return TernaryFunction(k, table)
