"""Builders for the function families the analysis pipeline consumes.

Four input routes produce TernaryFunction tables: diagonal quadratic
forms, component-glued functions F(x, y, z) = f_z(x) + z.y, parsed
polynomial expressions, and trace forms over GF(3^k).  function_from_spec
reads the glue and trace routes from JSON-shaped specs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .analysis import BentType, Regularity, TernaryFunction, bent_profile
from .core import (
    DimensionCapError,
    check_dim,
    coord_matrix,
    digit_sum_table,
    legendre,
    size,
)
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
    """A diagonal form is digit-additive: d x^2 is d at x = 1 and 2."""
    table = digit_sum_table([(0, d % 3, d % 3) for d in q.coeffs]) + q.constant
    return TernaryFunction(q.m, table % 3)


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


def _gram(s: int) -> np.ndarray:
    """g[z, y] = z.y over F_3^s, shape (3^s, 3^s), int8 (sums of s
    products, at most 4s)."""
    coords = coord_matrix(s)
    return coords @ coords.T % 3


def gmmf_build(spec: GmmfSpec) -> TernaryFunction:
    """Evaluate the glued table by broadcasting; no interpolation.

    The index x + 3^m y + 3^(m+s) z is the C-order (z, y, x) view of the
    table, so F = f_z(x) + z.y is the component tables along (z, x) plus
    the Gram table along (z, y).  The size gate, check_dim, is called at
    the input surfaces (function_from_spec and run_search).
    """
    comp = np.stack([c.table for c in spec.components])  # (3^s, 3^m)
    table = (comp[:, None, :] + _gram(spec.s)[:, :, None]) % 3
    return TernaryFunction(spec.n, table.reshape(-1))


@dataclass(frozen=True, eq=False)
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

    # on the C-order (z, y, x) view the sign follows y alone, and the
    # dual is the component duals along (y, x) minus the Gram table
    sign = np.tile(np.repeat(np.where(plus_type, 1, -1).astype(np.int8), size(m)), size(s))
    duals = np.stack([p.dual.table for p in profiles])  # (3^s, 3^m)
    dual = TernaryFunction(n, ((duals[None, :, :] - _gram(s)[:, :, None]) % 3).reshape(-1))

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
    )


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


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>x\d+)|(?P<op>[-+*^])|(?P<bad>\S))")


def parse_poly(text: str, n: int) -> PolyExpr:
    """Parse 'c*xi^e*xj + ...' into a PolyExpr on n variables.

    Whitespace-insensitive.  Juxtaposed factors multiply, as in '2x1' or
    'x1x2'; a '*' must stand between two factors.  n passes the size gate
    before the text is read, so a bad n is named as such whatever the text.
    """
    check_dim(n)
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        val, pos = match.group(kind), match.start(kind)
        if kind == "bad":
            raise PolyParseError(f"unexpected character {val!r}", pos)
        tokens.append((val if kind == "op" else kind, val, pos))
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
        first = i
        while i < len(tokens) and tokens[i][0] not in ("+", "-"):
            if tokens[i][0] == "*":
                after = tokens[i + 1][0] if i + 1 < len(tokens) else None
                if i == first or after not in ("num", "var"):
                    raise PolyParseError("'*' must stand between two factors", tokens[i][2])
                i += 1
            const, varexp, i = parse_factor(i)
            if const is not None:
                coeff *= const
            else:
                v, e = varexp
                powers[v] = powers.get(v, 0) + e
        terms.append((coeff, tuple(sorted(powers.items()))))
    return PolyExpr(n, tuple(terms))


def eval_poly(expr: PolyExpr) -> TernaryFunction:
    """Tabulate the expression; exponents act on F_3 values pointwise."""
    n = expr.n
    check_dim(n)
    total = np.zeros(size(n), dtype=np.int8)
    for coeff, powers in expr.terms:
        term = np.full(size(n), coeff % 3, dtype=np.int8)
        for v, e in powers:
            # 0^0 = 1; otherwise x^e mod 3 cycles with period 2 on {1, 2}
            if e == 0:
                continue
            # digit v - 1 is the middle axis of the (high, digit, low) view
            powed = np.array([[0], [1], [1 + e % 2]], dtype=np.int8)
            term = (term.reshape(size(n - v), 3, size(v - 1)) * powed % 3).reshape(-1)
        total = (total + term) % 3
    return TernaryFunction(n, total)


# ---------------------------------------------------------------------------
# Trace forms over GF(3^k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSpec:
    """f(x) = Tr(sum_t generator^cpow * x^e) over a fixed GF(3^k).

    terms is a list of (cpow, e) pairs with e >= 0; the table is indexed by
    the polynomial-basis encoding of the field elements, so it is
    directly a TernaryFunction on F_3^k.
    """

    field: ExtField
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(e < 0 for _, e in self.terms):
            raise ValueError("trace exponents must be non-negative")


def trace_function(spec: TraceSpec) -> TernaryFunction:
    fld = spec.field
    n = fld.q - 1
    table = np.zeros(fld.q, dtype=np.int8)
    trace_of_power = fld._trace[fld._exp]  # Tr(g^i), int8
    for cpow, e in spec.terms:
        power = np.multiply(fld._log[1:], e % n, dtype=np.int64)
        power += cpow % n
        power %= n
        table[1:] += trace_of_power[power]
        if e == 0:  # 0^0 = 1, and 0^e = 0 for e > 0
            table[0] += fld.trace(fld.gen_pow(cpow))
        table %= 3
    return TernaryFunction(fld.k, table)


# ---------------------------------------------------------------------------
# JSON-shaped input specs
# ---------------------------------------------------------------------------

class _BadEntries(ValueError):
    """A table component with an entry outside {0, 1, 2}; its message
    names no spec kind, as the table-file reader's does not."""


def _spec_int(value, name: str, non_negative: bool = False) -> int:
    """A JSON integer, refusing a float or a bool (both of which int()
    would silently accept)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if non_negative and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _spec_term(term, name: str) -> tuple[int, int]:
    """A trace term: a [generator_power, exponent] pair of JSON integers."""
    if not (isinstance(term, list) and len(term) == 2):
        raise ValueError(f"{name} must be a [generator_power, exponent] pair, got {term!r}")
    return _spec_int(term[0], name), _spec_int(term[1], name)


def _glue_from_spec(spec: dict) -> TernaryFunction:
    m = _spec_int(spec["m"], "m", non_negative=True)
    s = _spec_int(spec["s"], "s", non_negative=True)
    check_dim(m + 2 * s)
    comps = []
    for z, entry in enumerate(spec["components"]):
        if not isinstance(entry, dict):
            raise ValueError(f"components[{z}] must be a JSON object, got {entry!r}")
        if "table" in entry:
            if any(type(t) is not int or t not in (0, 1, 2) for t in entry["table"]):
                raise _BadEntries("table entries must be 0, 1 or 2")
            comps.append(TernaryFunction(m, entry["table"]))
        else:
            d = [_spec_int(c, f"components[{z}].d[{i}]") for i, c in enumerate(entry["d"])]
            c = _spec_int(entry.get("c", 0), f"components[{z}].c")
            comps.append(quadratic_function(QuadraticForm(tuple(d), c)))
    return gmmf_build(GmmfSpec(m, s, tuple(comps)))


def _trace_from_spec(spec: dict) -> TernaryFunction:
    k = _spec_int(spec["k"], "k", non_negative=True)
    check_dim(k)
    modulus = [_spec_int(c, f"modulus[{i}]") for i, c in enumerate(spec["modulus"])]
    gen = spec["generator"]
    if isinstance(gen, list):
        digits = [_spec_int(d, f"generator[{i}]") for i, d in enumerate(gen)]
        if any(d not in (0, 1, 2) for d in digits):
            raise ValueError(f"generator digits must be 0, 1 or 2, got {gen}")
        gen = sum(d * 3 ** i for i, d in enumerate(digits))
    else:
        gen = _spec_int(gen, "generator")
    terms = tuple(_spec_term(term, f"terms[{i}]") for i, term in enumerate(spec["terms"]))
    return trace_function(TraceSpec(ExtField.create(k, modulus, gen), terms))


def function_from_spec(spec: dict) -> TernaryFunction:
    """Tabulate a JSON-shaped glue or trace spec, the format of the CLI's
    --spec-file and of the bundled fixtures.

    A trace body {"k", "modulus", "generator", "terms"} is told apart by
    its "k": modulus lists coefficients lowest degree first (monic),
    generator is a field element as an integer encoding or a digit list,
    and terms are [generator_power, exponent] pairs.  Anything else is
    read as a glue body {"m", "s", "components"}, whose 3^s components,
    in parameter-index order, are each {"d": [coeffs], "c": const} (a
    diagonal quadratic, c optional) or {"table": [...]} on F_3^m.

    Every integer must be a JSON integer, and m, s and k non-negative.
    The dimension passes the size gate, check_dim, before anything is
    tabulated; a refusal raises its DimensionCapError unchanged.  Any
    other fault raises ValueError in one line: "bad glue spec: ..." or
    "bad trace spec: ...", except a table entry outside {0, 1, 2}, which
    says only that.
    """
    kind = "trace" if isinstance(spec, dict) and "k" in spec else "glue"
    try:
        if not isinstance(spec, dict):
            raise ValueError(f"the spec must be a JSON object, got {type(spec).__name__}")
        return (_trace_from_spec if kind == "trace" else _glue_from_spec)(spec)
    except (_BadEntries, DimensionCapError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"bad {kind} spec: {detail}") from exc
