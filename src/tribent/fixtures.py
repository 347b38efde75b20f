"""Bundled worked examples with their expected classifications and codes.

Each fixture builds its function from a component recipe (quadratic
coefficient lists glued over a parameter block, or a trace form over
GF(3^k)), runs the pipeline, and compares every recorded expectation.
GMMF fixtures also carry the equivalent closed-form polynomial and, when
one is recorded, the polynomial of the dual; both are cross-checked
pointwise against the built tables.

For the two trace-form fixtures the field representation is not pinned
down by the classification alone, so suitable parameters were found by a
scan over primitive generators and frozen here: both use the
lexicographically smallest primitive modulus for their degree with the
residue class of t as the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .analysis import BentType, Regularity, TernaryFunction
from .codes import CodeCase
from .constructions import (
    GmmfSpec,
    QuadraticForm,
    TraceSpec,
    eval_poly,
    gmmf_build,
    parse_poly,
    quadratic_function,
    trace_function,
)
from .fields import ExtField
from .pipeline import PipelineReport, run_pipeline


@dataclass(frozen=True)
class Fixture:
    """One bundled input with every published value it must reproduce."""

    name: str
    description: str
    build: Callable[[], TernaryFunction]
    type: BentType
    j0: int
    r: int
    dual_bent: bool
    case: CodeCase | None
    defining_label: str
    parameters: tuple[int, int, int]
    enumerator: str
    force_set: str | None = None
    polynomial: str | None = None
    dual_polynomial: str | None = None
    regularity: Regularity = Regularity.NON_WEAKLY_REGULAR


@dataclass
class FixtureResult:
    fixture: Fixture
    report: PipelineReport
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _gmmf(m: int, s: int, forms: dict[int, tuple[tuple[int, ...], int]]) -> GmmfSpec:
    comps = tuple(
        quadratic_function(QuadraticForm(forms[z][0], forms[z][1]))
        for z in range(3 ** s)
    )
    return GmmfSpec(m, s, comps)


def _trace(k: int, modulus: tuple[int, ...], generator: int,
           terms: tuple[tuple[int, int], ...]) -> TernaryFunction:
    return trace_function(TraceSpec(ExtField.create(k, modulus, generator), terms))


# Trace-form field representations, pinned by search over primitive
# elements until the published classification and enumerator appeared.
TRACE14_MODULUS = (2, 1, 0, 0, 1)          # t^4 + t + 2
TRACE14_GENERATOR = 3                      # the residue class t
TRACE36_MODULUS = (2, 1, 0, 0, 0, 0, 1)    # t^6 + t + 2
TRACE36_GENERATOR = 3


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="code98-a",
        description="n=6 glue of one plus-type and two minus-type quartic-block "
                    "quadratics; even/plus case",
        build=lambda: gmmf_build(_gmmf(4, 1, {
            0: ((2, 2, 1, 1), 0),
            1: ((1, 1, 2, 1), 0),
            2: ((1, 1, 2, 1), 0),
        })),
        type=BentType.PLUS, j0=0, r=5, dual_bent=True,
        case=CodeCase.EVEN_PLUS, defining_label="C0",
        parameters=(98, 5, 54),
        enumerator="1+32y^54+162y^66+48y^72",
        polynomial="2*x1^2*x6^2 + 2*x1^2 + 2*x2^2*x6^2 + 2*x2^2 + x3^2*x6^2 "
                   "+ x3^2 + x4^2 + x5*x6",
        dual_polynomial="x1^2*x5^2 + x1^2 + x2^2*x5^2 + x2^2 + 2*x3^2*x5^2 "
                        "+ 2*x3^2 + 2*x4^2 + 2*x5*x6",
    ),
    Fixture(
        name="code98-b",
        description="n=6 variant with a constant shift, j0=1; even/plus case",
        build=lambda: gmmf_build(_gmmf(4, 1, {
            0: ((1, 2, 2, 1), 1),
            1: ((2, 2, 2, 1), 0),
            2: ((2, 2, 2, 1), 0),
        })),
        type=BentType.PLUS, j0=1, r=5, dual_bent=True,
        case=CodeCase.EVEN_PLUS, defining_label="C1",
        parameters=(98, 5, 54),
        enumerator="1+32y^54+162y^66+48y^72",
        polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + 2*x3^2 + x4^2 + x5*x6 + 2*x6^2 + 1",
        dual_polynomial="2*x1^2*x5^2 + 2*x1^2 + x2^2 + 2*x5^2 + x3^2 + 2*x4^2 "
                        "+ 2*x5*x6 + 1",
    ),
    Fixture(
        name="code270-a",
        description="n=7 glue over a single parameter trit; odd/plus case",
        build=lambda: gmmf_build(_gmmf(5, 1, {
            0: ((2, 1, 2, 1, 1), 0),
            1: ((1, 1, 1, 1, 2), 0),
            2: ((1, 1, 1, 1, 2), 0),
        })),
        type=BentType.PLUS, j0=0, r=6, dual_bent=True,
        case=CodeCase.ODD_PLUS, defining_label="C2",
        parameters=(270, 6, 162),
        enumerator="1+80y^162+558y^180+90y^198",
        polynomial="2*x1^2*x7^2 + 2*x1^2 + x2^2 + 2*x3^2*x7^2 + 2*x3^2 + x4^2 "
                   "+ x5^2*x7^2 + x5^2 + x6*x7",
        dual_polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + x3^2*x6^2 + x3^2 + 2*x4^2 "
                        "+ 2*x5^2*x6^2 + 2*x5^2 + 2*x6*x7",
    ),
    Fixture(
        name="code270-b",
        description="n=7 glue over two parameter trits with a diagonal-line "
                    "plus set; odd/plus case, j0=2",
        build=lambda: gmmf_build(_gmmf(3, 2, {
            0: ((2, 1, 1), 2),   # z=(0,0)
            1: ((2, 2, 1), 0),   # z=(1,0)
            2: ((2, 2, 1), 0),   # z=(2,0)
            3: ((1, 1, 1), 0),   # z=(0,1)
            4: ((1, 2, 1), 0),   # z=(1,1)
            5: ((2, 1, 2), 0),   # z=(2,1)
            6: ((1, 1, 1), 0),   # z=(0,2)
            7: ((2, 1, 2), 0),   # z=(1,2)
            8: ((1, 2, 1), 0),   # z=(2,2)
        })),
        type=BentType.PLUS, j0=2, r=6, dual_bent=True,
        case=CodeCase.ODD_PLUS, defining_label="C1",
        parameters=(270, 6, 162),
        enumerator="1+80y^162+558y^180+90y^198",
        polynomial="2*x1^2*x6^2*x7^2 + x1^2*x6*x7 + 2*x1^2*x7^2 + 2*x1^2 "
                   "+ x2^2*x6^2*x7^2 + x2^2*x6^2 + 2*x2^2*x6*x7 + x2^2 "
                   "+ 2*x3^2*x6^2*x7^2 + x3^2*x6*x7 + x3^2 + 2*x6^2*x7^2 "
                   "+ x6^2 + x7^2 + x4*x6 + x5*x7 + 2",
        dual_polynomial="x1^2*x4^2*x5^2 + 2*x1^2*x4*x5 + x1^2*x5^2 + x1^2 "
                        "+ 2*x2^2*x4^2*x5^2 + 2*x2^2*x4^2 + x2^2*x4*x5 + 2*x2^2 "
                        "+ x3^2*x4^2*x5^2 + 2*x3^2*x4*x5 + 2*x4^2*x5^2 + 2*x3^2 "
                        "+ x4^2 + 2*x4*x6 + x5^2 + 2*x5*x7 + 2",
    ),
    Fixture(
        name="code756",
        description="n=8 glue of one minus-type and two plus-type six-variable "
                    "quadratics; even/minus case",
        build=lambda: gmmf_build(_gmmf(6, 1, {
            0: ((2, 2, 1, 1, 1, 1), 0),
            1: ((1, 2, 2, 2, 1, 1), 0),
            2: ((1, 2, 2, 2, 1, 1), 0),
        })),
        type=BentType.MINUS, j0=0, r=7, dual_bent=True,
        case=CodeCase.EVEN_MINUS, defining_label="D2",
        parameters=(756, 7, 486),
        enumerator="1+476y^486+1458y^504+252y^540",
        polynomial="2*x1^2*x8^2 + 2*x1^2 + x4^2*x8^2 + 2*x2^2 + x3^2*x8^2 "
                   "+ x3^2 + x4^2 + x5^2 + x6^2 + x7*x8",
        dual_polynomial="x1^2*x7^2 + x1^2 + 2*x4^2*x7^2 + x2^2 + 2*x3^2*x7^2 "
                        "+ 2*x3^2 + 2*x4^2 + 2*x5^2 + 2*x6^2 + 2*x7*x8",
    ),
    Fixture(
        name="code36",
        description="n=5 glue of one minus-type and two plus-type ternary-cube "
                    "quadratics; odd/minus case",
        build=lambda: gmmf_build(_gmmf(3, 1, {
            0: ((1, 1, 1), 0),
            1: ((1, 2, 1), 0),
            2: ((1, 2, 1), 0),
        })),
        type=BentType.MINUS, j0=0, r=4, dual_bent=True,
        case=CodeCase.ODD_MINUS, defining_label="D1",
        parameters=(36, 4, 18),
        enumerator="1+8y^18+60y^24+12y^30",
        polynomial="x2^2*x5^2 + x1^2 + x2^2 + x3^2 + x4*x5",
        dual_polynomial="2*x2^2*x4^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4*x5",
    ),
    Fixture(
        name="code270-c",
        description="n=7 glue with j0=2 on the minus side; odd/minus case",
        build=lambda: gmmf_build(_gmmf(5, 1, {
            0: ((2, 1, 1, 1, 1), 2),
            1: ((1, 1, 1, 1, 1), 0),
            2: ((1, 1, 1, 1, 1), 0),
        })),
        type=BentType.MINUS, j0=2, r=6, dual_bent=True,
        case=CodeCase.ODD_MINUS, defining_label="D0",
        parameters=(270, 6, 162),
        enumerator="1+80y^162+558y^180+90y^198",
        polynomial="2*x1^2*x7^2 + 2*x1^2 + x2^2 + x3^2 + x4^2 + x7^2 + x5^2 "
                   "+ x6*x7 + 2",
        dual_polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + x6^2 "
                        "+ 2*x5^2 + 2*x6*x7 + 2",
    ),
    Fixture(
        name="trace36",
        description="trace form over GF(3^6): Tr(g t^20 + g^41 t^92) with a "
                    "pinned primitive g; even/minus case",
        build=lambda: _trace(6, TRACE36_MODULUS, TRACE36_GENERATOR,
                             ((1, 20), (41, 92))),
        type=BentType.MINUS, j0=0, r=4, dual_bent=True,
        case=CodeCase.EVEN_MINUS, defining_label="D2",
        parameters=(36, 4, 18),
        enumerator="1+4y^18+72y^24+4y^36",
    ),
    Fixture(
        name="trace14",
        description="trace form over GF(3^4): Tr(g^10 t^22 + t^4) with a "
                    "pinned primitive g; dual not bent, measured code only",
        build=lambda: _trace(4, TRACE14_MODULUS, TRACE14_GENERATOR,
                             ((10, 22), (0, 4))),
        type=BentType.PLUS, j0=0, r=3, dual_bent=False,
        case=None, defining_label="C0",
        parameters=(14, 3, 6),
        enumerator="1+4y^6+18y^10+4y^12",
        force_set="C0",
    ),
)


def fixture_names() -> list[str]:
    return [f.name for f in FIXTURES]


def get_fixture(name: str) -> Fixture:
    for f in FIXTURES:
        if f.name == name:
            return f
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")


def run_fixture(fixture: Fixture) -> FixtureResult:
    """Build, analyze, and diff the report against the fixture's record."""
    f = fixture.build()
    report = run_pipeline(f, force_set=fixture.force_set)
    result = FixtureResult(fixture, report)
    mm = result.mismatches

    if fixture.polynomial is not None:
        poly_table = eval_poly(parse_poly(fixture.polynomial, f.n))
        if poly_table != f:
            mm.append("closed-form polynomial disagrees with the built table")

    if report.type != fixture.type.value:
        mm.append(f"type: got {report.type}, expected {fixture.type.value}")
    if report.regularity != fixture.regularity.value:
        mm.append(f"regularity: got {report.regularity}")
    if report.j0 != fixture.j0:
        mm.append(f"j0: got {report.j0}, expected {fixture.j0}")

    dual_stage = report.stage("dual-bent")
    dual_ok = dual_stage.ok if dual_stage is not None else False
    if dual_ok != fixture.dual_bent:
        mm.append(f"dual bent: got {dual_ok}, expected {fixture.dual_bent}")

    if fixture.case is not None:
        if report.case != fixture.case.value:
            mm.append(f"case: got {report.case}, expected {fixture.case.value}")
        if not report.hypotheses_ok:
            bad = [s.name for s in report.stages if not s.ok]
            mm.append(f"failed stages: {bad}")
        if report.r != fixture.r:
            mm.append(f"r: got {report.r}, expected {fixture.r}")
        if fixture.dual_polynomial is not None:
            spec_dual = eval_poly(parse_poly(fixture.dual_polynomial, f.n))
            from .analysis import bent_profile
            if bent_profile(f).dual != spec_dual:
                mm.append("recorded dual polynomial disagrees with the measured dual")

    if report.defining_label != fixture.defining_label:
        mm.append(f"defining set: got {report.defining_label}, "
                  f"expected {fixture.defining_label}")

    if report.code is None:
        mm.append("no code was built")
    else:
        got = (report.code.length, report.code.dimension, report.code.min_distance)
        if got != fixture.parameters:
            mm.append(f"parameters: got {got}, expected {fixture.parameters}")
        if report.code.enumerator != fixture.enumerator:
            mm.append(f"enumerator: got {report.code.enumerator}, "
                      f"expected {fixture.enumerator}")
        if fixture.case is not None and not report.code.match:
            mm.append("measured distribution differs from the closed form")

    return result


def run_all_fixtures() -> list[FixtureResult]:
    return [run_fixture(f) for f in FIXTURES]

