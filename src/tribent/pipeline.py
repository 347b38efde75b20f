"""Staged analysis pipeline: classify a function, pick its defining set,
build the code, and compare against the closed forms.

Each stage records pass/fail with a human-readable detail string; a
report is the unit every front end (bundled examples, ad-hoc inputs,
randomized sweeps) serializes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    HYPOTHESES,
    BentType,
    Stage,
    TernaryFunction,
    constant_branch,
    establish,
    expected_preimage_sizes,
)
from .codes import (
    CodeReport,
    DefiningSet,
    WeightClassifier,
    build_code,
    code_report,
    defining_set_for,
    predict_distribution,
    preimage_points,
)
from .core import span


@dataclass
class PipelineReport:
    """Everything one pipeline run established, stage by stage."""

    stages: list[Stage] = field(default_factory=list)
    type: str | None = None
    regularity: str | None = None
    j0: int | None = None
    r: int | None = None
    case: str | None = None
    defining_set: str | None = None
    code: CodeReport | None = None
    notes: list[str] = field(default_factory=list)

    def stage(self, name: str) -> Stage | None:
        for s in self.stages:
            if s.name == name:
                return s
        return None

    @property
    def failed_stage(self) -> str | None:
        """The first stage that failed, or None when every stage held."""
        return next((s.name for s in self.stages if not s.ok), None)

    @property
    def eligible(self) -> bool:
        """No hypothesis failed (they come first); a later check still may have."""
        return self.failed_stage not in HYPOTHESES

    @property
    def passed(self) -> bool:
        return self.failed_stage is None

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# The letter of a defining-set label "C0".."D2" names the dual side it is
# read on; the digit is the dual value.
_SIDE_LETTERS = {"C": BentType.PLUS, "D": BentType.MINUS}
DEFINING_SET_LABELS = [f"{letter}{i}" for letter in _SIDE_LETTERS for i in range(3)]


def _forced_side(label: str) -> tuple[BentType, int]:
    """The side and dual value a defining-set label names."""
    if label not in DEFINING_SET_LABELS:
        raise ValueError(f"defining-set label must be C0..C2 or D0..D2, got {label!r}")
    return _SIDE_LETTERS[label[0]], int(label[1])


def run_pipeline(f: TernaryFunction, force_set: str | None = None) -> PipelineReport:
    """Full run: spectrum, hypotheses, selection, code, prediction.

    The hypothesis stages are the record of analysis.establish, every one
    evaluated even after one fails; selection and prediction run only
    when all hold.  A force_set label ("C0".."D2"; anything else raises
    ValueError before any transform) is used only when the function is
    bent and some hypothesis fails: that pre-image code is then built and
    measured without a closed-form prediction (a note says so, or that
    the set is empty).  When every hypothesis holds the selected set is
    measured, and a note names both labels if force_set names another
    set; when f is not bent a note says the set was not measured.
    """
    forced = None if force_set is None else _forced_side(force_set)
    hyp = establish(f)
    rep = PipelineReport(stages=list(hyp.stages))
    profile = hyp.profile
    if profile is None:
        if forced is not None:
            rep.notes.append(f"f is not bent, so it has no dual and the requested "
                             f"set {force_set} was not measured")
        return rep
    rep.type = profile.type.value
    rep.regularity = profile.regularity.value
    rep.j0 = int(f(0))
    rep.r = hyp.r

    if not hyp.ok:
        if forced is not None:
            mask = preimage_points(profile, *forced)
            if mask.any():
                s = DefiningSet(f.n, mask)
                del mask  # s holds its own copy
                code = build_code(s, span(s.mask, f.n))
                rep.code = code_report(code, None, None, code.dimension)
                rep.defining_set = force_set
                rep.notes.append(
                    f"hypothesis '{rep.failed_stage}' failed; measured the requested "
                    f"set {force_set} without a prediction"
                )
            else:
                rep.notes.append(f"the requested set {force_set} is empty; nothing was measured")
        return rep

    ctx = defining_set_for(hyp)
    rep.case = ctx.case.value
    letter = next(k for k, side in _SIDE_LETTERS.items() if side is ctx.case.side)
    rep.defining_set = f"{letter}{ctx.value}"
    if forced is not None and force_set != rep.defining_set:
        rep.notes.append(f"every hypothesis holds, so the selected set {rep.defining_set} "
                         f"was measured, not the requested set {force_set}")

    sizes = expected_preimage_sizes(f.n, ctx.r, ctx.j0, ctx.case.side)
    counts = np.bincount(profile.dual.table[profile.side_mask(ctx.case.side)], minlength=3)
    measured = {i: int(counts[i]) for i in range(3)}
    rep.stages.append(Stage("preimage-sizes", measured == sizes,
                            f"measured {measured}, closed form {sizes}"))

    # the hypotheses hold, so the dual's sign is one value per coset of
    # V-perp (BentProfile.dual_sign): its sides are unions of cosets, and
    # the constant cosets are the branch's side
    rep.stages.append(Stage("coset-structure", True,
                            f"constant branch {constant_branch(f.n, profile.type)}"))

    code = build_code(ctx.defining, hyp.v)
    prediction = predict_distribution(ctx.case, f.n, ctx.r)
    rep.code = code_report(code, prediction, ctx.case, ctx.r)
    rep.notes.extend(rep.code.notes)

    # the representatives decide all 3^n messages under the premise of
    # WeightClassifier.check_all: full dimension
    bad = WeightClassifier(ctx).check_all(code)
    detail = (f"message {bad} off prediction" if bad is not None else
              f"code dimension {code.dimension} != r = {ctx.r}" if code.dimension != ctx.r else
              "" if rep.code.match else "distribution off the closed form")
    rep.stages.append(Stage("per-codeword-weights", not detail, detail))
    return rep
