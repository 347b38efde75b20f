"""Staged analysis pipeline: classify a function, pick its defining set,
build the code, and compare against the closed forms.

Each stage records pass/fail with a human-readable detail string; a
report is the unit every front end (bundled examples, ad-hoc inputs,
randomized sweeps) serializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import (
    BentProfile,
    BentType,
    Stage,
    TernaryFunction,
    coset_tiling,
    establish,
    expected_preimage_sizes,
    preimage_sets,
)
from .codes import (
    CodeReport,
    DefiningSet,
    WeightClassifier,
    build_code,
    code_report,
    defining_set_for,
    predict_distribution,
)


@dataclass
class PipelineReport:
    """Everything one pipeline run established, stage by stage."""

    stages: list[Stage] = field(default_factory=list)
    type: str | None = None
    regularity: str | None = None
    j0: int | None = None
    r: int | None = None
    case: str | None = None
    defining_label: str | None = None
    code: CodeReport | None = None
    notes: list[str] = field(default_factory=list)

    def stage(self, name: str) -> Stage | None:
        for s in self.stages:
            if s.name == name:
                return s
        return None

    @property
    def hypotheses_ok(self) -> bool:
        return all(s.ok for s in self.stages)

    @property
    def passed(self) -> bool:
        if not self.hypotheses_ok:
            return False
        if self.code is not None and self.code.prediction is not None:
            return self.code.match
        return self.code is not None

    def to_dict(self) -> dict:
        return {
            "stages": [{"name": s.name, "ok": s.ok, "detail": s.detail} for s in self.stages],
            "type": self.type,
            "regularity": self.regularity,
            "j0": self.j0,
            "r": self.r,
            "case": self.case,
            "defining_set": self.defining_label,
            "code": self.code.to_dict() if self.code else None,
            "notes": self.notes,
            "passed": self.passed,
        }


def _forced_points(label: str, profile: BentProfile):
    pre = preimage_sets(profile)
    side, value = label[0].upper(), int(label[1])
    if side == "C":
        return pre.plus[value]
    if side == "D":
        return pre.minus[value]
    raise ValueError(f"defining-set label must be C0..C2 or D0..D2, got {label!r}")


def run_pipeline(f: TernaryFunction,
                 force_set: str | None = None,
                 check_cosets: bool = True) -> PipelineReport:
    """Full run: spectrum, hypotheses, selection, code, prediction.

    The hypothesis stages are the record of analysis.establish, every one
    evaluated even after one fails; selection and prediction run only
    when all hold.  A force_set label ("C0".."D2") builds and measures
    that pre-image code without a closed-form prediction whenever the
    function is at least bent.
    """
    hyp = establish(f)
    rep = PipelineReport(stages=list(hyp.stages))
    profile = hyp.profile
    if profile is None:
        return rep
    rep.type = profile.type.value
    rep.regularity = profile.regularity.value
    rep.j0 = int(f(0))
    rep.r = hyp.r

    if not hyp.ok:
        if force_set is not None:
            points = set(_forced_points(force_set, profile)) - {0}
            if points:
                code = build_code(DefiningSet.from_points(points, f.n))
                rep.code = code_report(code, None, None, code.dimension)
                rep.defining_label = force_set.upper()
                first_bad = next(s.name for s in rep.stages if not s.ok)
                rep.notes.append(
                    f"hypothesis '{first_bad}' failed; measured the requested "
                    f"set {force_set.upper()} without a prediction"
                )
        return rep

    ctx = defining_set_for(hyp)
    rep.case = ctx.case.value
    plus_side = ctx.case.side is BentType.PLUS
    rep.defining_label = ("C" if plus_side else "D") + str(ctx.value)

    sizes = expected_preimage_sizes(f.n, ctx.r, ctx.j0, ctx.case.side)
    side_sets = ctx.preimages.plus if plus_side else ctx.preimages.minus
    measured = {i: len(side_sets[i]) for i in range(3)}
    rep.stages.append(Stage("preimage-sizes", measured == sizes,
                            f"measured {measured}, closed form {sizes}"))

    if check_cosets:
        cs = coset_tiling(hyp)
        rep.stages.append(Stage("coset-structure",
                                cs.coset_union_ok and cs.constant_ok,
                                f"constant branch {cs.constant_branch}"))

    code = build_code(ctx.defining)
    prediction = predict_distribution(ctx.case, f.n, ctx.r)
    rep.code = code_report(code, prediction, ctx.case, ctx.r)
    rep.notes.extend(rep.code.notes)

    classifier = WeightClassifier(ctx, f)
    bad = classifier.check_all()
    rep.stages.append(Stage("per-codeword-weights", bad is None,
                            "" if bad is None else f"message {bad} off prediction"))
    return rep
