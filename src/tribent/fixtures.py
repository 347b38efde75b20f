"""Bundled worked examples with their expected classifications and codes.

Each fixture is a record: its input as a JSON-shaped glue or trace spec
(the format of the CLI's --spec-file, read by
constructions.function_from_spec), and an `expect` dict keyed by the
pipeline report's own field names.  run_fixture runs the pipeline and
diffs every expected value.  GMMF fixtures also carry the equivalent
closed-form polynomial and, when one is recorded, the polynomial of the
dual; both are cross-checked pointwise against the built tables.

For the two trace-form fixtures the field representation is not pinned
down by the classification alone, so suitable parameters were found by a
scan over primitive generators and frozen here: both use the
lexicographically smallest primitive modulus for their degree with the
residue class of t (encoded 3) as the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import TernaryFunction, bent_profile
from .constructions import eval_poly, function_from_spec, parse_poly
from .pipeline import PipelineReport, run_pipeline


@dataclass(frozen=True)
class Fixture:
    """One bundled input with every published value it must reproduce.

    expect maps report fields (type, regularity, j0, r, case,
    defining_set, failed_stage, parameters, enumerator) to their values.
    """

    name: str
    description: str
    spec: dict
    expect: dict
    force_set: str | None = None
    polynomial: str | None = None
    dual_polynomial: str | None = None

    def build(self) -> TernaryFunction:
        return function_from_spec(self.spec)


@dataclass
class FixtureResult:
    fixture: Fixture
    report: PipelineReport
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="code98-a",
        description="n=6 glue of one plus-type and two minus-type quartic-block "
                    "quadratics; even/plus case",
        spec={"m": 4, "s": 1, "components": [
            {"d": [2, 2, 1, 1]},
            {"d": [1, 1, 2, 1]},
            {"d": [1, 1, 2, 1]},
        ]},
        expect={"type": "plus", "regularity": "non-weakly-regular", "j0": 0, "r": 5,
                "case": "even-plus", "defining_set": "C0", "failed_stage": None,
                "parameters": [98, 5, 54], "enumerator": "1+32y^54+162y^66+48y^72"},
        polynomial="2*x1^2*x6^2 + 2*x1^2 + 2*x2^2*x6^2 + 2*x2^2 + x3^2*x6^2 "
                   "+ x3^2 + x4^2 + x5*x6",
        dual_polynomial="x1^2*x5^2 + x1^2 + x2^2*x5^2 + x2^2 + 2*x3^2*x5^2 "
                        "+ 2*x3^2 + 2*x4^2 + 2*x5*x6",
    ),
    Fixture(
        name="code98-b",
        description="n=6 variant with a constant shift, j0=1; even/plus case",
        spec={"m": 4, "s": 1, "components": [
            {"d": [1, 2, 2, 1], "c": 1},
            {"d": [2, 2, 2, 1]},
            {"d": [2, 2, 2, 1]},
        ]},
        expect={"type": "plus", "regularity": "non-weakly-regular", "j0": 1, "r": 5,
                "case": "even-plus", "defining_set": "C1", "failed_stage": None,
                "parameters": [98, 5, 54], "enumerator": "1+32y^54+162y^66+48y^72"},
        polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + 2*x3^2 + x4^2 + x5*x6 + 2*x6^2 + 1",
        dual_polynomial="2*x1^2*x5^2 + 2*x1^2 + x2^2 + 2*x5^2 + x3^2 + 2*x4^2 "
                        "+ 2*x5*x6 + 1",
    ),
    Fixture(
        name="code270-a",
        description="n=7 glue over a single parameter trit; odd/plus case",
        spec={"m": 5, "s": 1, "components": [
            {"d": [2, 1, 2, 1, 1]},
            {"d": [1, 1, 1, 1, 2]},
            {"d": [1, 1, 1, 1, 2]},
        ]},
        expect={"type": "plus", "regularity": "non-weakly-regular", "j0": 0, "r": 6,
                "case": "odd-plus", "defining_set": "C2", "failed_stage": None,
                "parameters": [270, 6, 162], "enumerator": "1+80y^162+558y^180+90y^198"},
        polynomial="2*x1^2*x7^2 + 2*x1^2 + x2^2 + 2*x3^2*x7^2 + 2*x3^2 + x4^2 "
                   "+ x5^2*x7^2 + x5^2 + x6*x7",
        dual_polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + x3^2*x6^2 + x3^2 + 2*x4^2 "
                        "+ 2*x5^2*x6^2 + 2*x5^2 + 2*x6*x7",
    ),
    Fixture(
        name="code270-b",
        description="n=7 glue over two parameter trits with a diagonal-line "
                    "plus set; odd/plus case, j0=2",
        spec={"m": 3, "s": 2, "components": [
            {"d": [2, 1, 1], "c": 2},   # z=(0,0)
            {"d": [2, 2, 1]},           # z=(1,0)
            {"d": [2, 2, 1]},           # z=(2,0)
            {"d": [1, 1, 1]},           # z=(0,1)
            {"d": [1, 2, 1]},           # z=(1,1)
            {"d": [2, 1, 2]},           # z=(2,1)
            {"d": [1, 1, 1]},           # z=(0,2)
            {"d": [2, 1, 2]},           # z=(1,2)
            {"d": [1, 2, 1]},           # z=(2,2)
        ]},
        expect={"type": "plus", "regularity": "non-weakly-regular", "j0": 2, "r": 6,
                "case": "odd-plus", "defining_set": "C1", "failed_stage": None,
                "parameters": [270, 6, 162], "enumerator": "1+80y^162+558y^180+90y^198"},
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
        spec={"m": 6, "s": 1, "components": [
            {"d": [2, 2, 1, 1, 1, 1]},
            {"d": [1, 2, 2, 2, 1, 1]},
            {"d": [1, 2, 2, 2, 1, 1]},
        ]},
        expect={"type": "minus", "regularity": "non-weakly-regular", "j0": 0, "r": 7,
                "case": "even-minus", "defining_set": "D2", "failed_stage": None,
                "parameters": [756, 7, 486], "enumerator": "1+476y^486+1458y^504+252y^540"},
        polynomial="2*x1^2*x8^2 + 2*x1^2 + x4^2*x8^2 + 2*x2^2 + x3^2*x8^2 "
                   "+ x3^2 + x4^2 + x5^2 + x6^2 + x7*x8",
        dual_polynomial="x1^2*x7^2 + x1^2 + 2*x4^2*x7^2 + x2^2 + 2*x3^2*x7^2 "
                        "+ 2*x3^2 + 2*x4^2 + 2*x5^2 + 2*x6^2 + 2*x7*x8",
    ),
    Fixture(
        name="code36",
        description="n=5 glue of one minus-type and two plus-type ternary-cube "
                    "quadratics; odd/minus case",
        spec={"m": 3, "s": 1, "components": [
            {"d": [1, 1, 1]},
            {"d": [1, 2, 1]},
            {"d": [1, 2, 1]},
        ]},
        expect={"type": "minus", "regularity": "non-weakly-regular", "j0": 0, "r": 4,
                "case": "odd-minus", "defining_set": "D1", "failed_stage": None,
                "parameters": [36, 4, 18], "enumerator": "1+8y^18+60y^24+12y^30"},
        polynomial="x2^2*x5^2 + x1^2 + x2^2 + x3^2 + x4*x5",
        dual_polynomial="2*x2^2*x4^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4*x5",
    ),
    Fixture(
        name="code270-c",
        description="n=7 glue with j0=2 on the minus side; odd/minus case",
        spec={"m": 5, "s": 1, "components": [
            {"d": [2, 1, 1, 1, 1], "c": 2},
            {"d": [1, 1, 1, 1, 1]},
            {"d": [1, 1, 1, 1, 1]},
        ]},
        expect={"type": "minus", "regularity": "non-weakly-regular", "j0": 2, "r": 6,
                "case": "odd-minus", "defining_set": "D0", "failed_stage": None,
                "parameters": [270, 6, 162], "enumerator": "1+80y^162+558y^180+90y^198"},
        polynomial="2*x1^2*x7^2 + 2*x1^2 + x2^2 + x3^2 + x4^2 + x7^2 + x5^2 "
                   "+ x6*x7 + 2",
        dual_polynomial="x1^2*x6^2 + x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + x6^2 "
                        "+ 2*x5^2 + 2*x6*x7 + 2",
    ),
    Fixture(
        name="trace36",
        description="trace form over GF(3^6): Tr(g t^20 + g^41 t^92) with a "
                    "pinned primitive g; even/minus case",
        # modulus t^6 + t + 2
        spec={"k": 6, "modulus": [2, 1, 0, 0, 0, 0, 1], "generator": 3,
              "terms": [[1, 20], [41, 92]]},
        expect={"type": "minus", "regularity": "non-weakly-regular", "j0": 0, "r": 4,
                "case": "even-minus", "defining_set": "D2", "failed_stage": None,
                "parameters": [36, 4, 18], "enumerator": "1+4y^18+72y^24+4y^36"},
    ),
    Fixture(
        name="trace14",
        description="trace form over GF(3^4): Tr(g^10 t^22 + t^4) with a "
                    "pinned primitive g; dual not bent, measured code only",
        # modulus t^4 + t + 2
        spec={"k": 4, "modulus": [2, 1, 0, 0, 1], "generator": 3,
              "terms": [[10, 22], [0, 4]]},
        expect={"type": "plus", "regularity": "non-weakly-regular", "j0": 0, "r": 3,
                "case": None, "defining_set": "C0", "failed_stage": "dual-bent",
                "parameters": [14, 3, 6], "enumerator": "1+4y^6+18y^10+4y^12"},
        force_set="C0",
    ),
)


def get_fixture(name: str) -> Fixture:
    for f in FIXTURES:
        if f.name == name:
            return f
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(f.name for f in FIXTURES)}")


def run_fixture(fixture: Fixture) -> FixtureResult:
    """Build, analyze, and diff the report against the fixture's record."""
    f = fixture.build()
    report = run_pipeline(f, force_set=fixture.force_set)
    result = FixtureResult(fixture, report)
    mm = result.mismatches

    if fixture.polynomial is not None:
        if eval_poly(parse_poly(fixture.polynomial, f.n)) != f:
            mm.append("closed-form polynomial disagrees with the built table")
    if fixture.dual_polynomial is not None:
        if eval_poly(parse_poly(fixture.dual_polynomial, f.n)) != bent_profile(f).dual:
            mm.append("recorded dual polynomial disagrees with the measured dual")

    # the JSON report's fields, plus its first failed stage and its code's
    # parameters and enumerator
    doc = report.to_dict()
    code = doc["code"]
    observed = {
        **doc,
        "failed_stage": report.failed_stage,
        "parameters": code and [code["length"], code["dimension"], code["min_distance"]],
        "enumerator": code and code["enumerator"],
    }
    for key, want in fixture.expect.items():
        if observed[key] != want:
            mm.append(f"{key}: got {observed[key]}, expected {want}")
    if code is not None and not code["match"]:
        mm.append("measured distribution differs from the closed form")
    return result
