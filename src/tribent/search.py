"""Seeded random generation of glued-quadratic instances.

An instance glues 3^s diagonal quadratic components on F_3^m, with the
component type chosen by membership of z in a target subspace U: picking
U as the plus (or minus) side makes the glued function non-weakly
regular with its type side equal to (all of F_3^m) x U x (all of F_3^s),
a subspace of dimension m + s + dim(U).  Components are paired so the
result is even, and instances with both case parities and all three
values of f(0) are produced deterministically from the seed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .analysis import BentType, TernaryFunction
from .constructions import (
    GmmfSpec,
    QuadraticForm,
    gmmf_build,
    quadratic_function,
    quadratic_type,
)
from .core import Subspace, _encoded, _rref, check_dim, decode, neg_table, size
from .pipeline import PipelineReport, run_pipeline


def random_quadratic(rng: random.Random, m: int, target: BentType,
                     constant: int = 0) -> QuadraticForm:
    """A uniformly random diagonal form steered to the requested type.

    The first m-1 coefficients are free; the last is the unique nonzero
    value giving the target type: 1, or 2 when quadratic_type disagrees
    (doubling one coefficient flips the discriminant's quadratic
    character, and with it the type).
    """
    head = tuple(rng.choice((1, 2)) for _ in range(m - 1))
    q = QuadraticForm(head + (1,), constant)
    return q if quadratic_type(q) is target else QuadraticForm(head + (2,), constant)


def random_subspace(rng: random.Random, s: int, dim: int) -> Subspace:
    """A random dim-dimensional subspace of F_3^s: the reduced echelon
    form (core._rref) of dim nonzero points, drawn until independent, as
    a plain Subspace, which span's table of interned subspaces never holds."""
    while True:
        echelon = _rref([decode(rng.randrange(1, size(s)), s) for _ in range(dim)], s)
        if echelon.count(None) == s - dim:
            return Subspace(s, _encoded(echelon))


def random_instance(rng: random.Random, m: int, s: int, side: BentType,
                    u: Subspace, j0: int) -> GmmfSpec:
    """One glued spec: components on U get the side type, the rest the
    opposite; negated parameter values share a component so the glued
    function is even; the component at z=0 carries the constant j0."""
    members = u.points()
    components: list[TernaryFunction | None] = [None] * size(s)
    for z in range(size(s)):
        if components[z] is not None:
            continue
        target = side if z in members else side.flipped()
        q = random_quadratic(rng, m, target, constant=j0 if z == 0 else 0)
        table = quadratic_function(q)
        components[z] = table
        components[neg_table(s)[z]] = table
    return GmmfSpec(m, s, tuple(components))


@dataclass
class SearchOutcome:
    """One generated instance and how far its pipeline got."""

    index: int
    m: int
    s: int
    u_dim: int
    j0: int
    report: PipelineReport


@dataclass
class SearchSummary:
    outcomes: list[SearchOutcome] = field(default_factory=list)

    @property
    def eligible(self) -> int:
        return sum(1 for o in self.outcomes if o.report.eligible)

    @property
    def matched(self) -> int:
        return sum(1 for o in self.outcomes if o.report.passed)

    @property
    def skipped(self) -> int:
        return len(self.outcomes) - self.eligible

    @property
    def mismatched(self) -> int:
        return self.eligible - self.matched

    def to_dict(self) -> dict:
        return {
            "count": len(self.outcomes),
            "eligible": self.eligible,
            "matched": self.matched,
            "skipped": self.skipped,
            "mismatched": self.mismatched,
            "outcomes": [
                {
                    "index": o.index,
                    "m": o.m,
                    "s": o.s,
                    "u_dim": o.u_dim,
                    "j0": o.j0,
                    "eligible": o.report.eligible,
                    "passed": o.report.passed,
                    "case": o.report.case,
                    "code": asdict(o.report.code) if o.report.code else None,
                }
                for o in self.outcomes
            ],
        }


def run_search(m: int, s: int, count: int, seed: int,
               side: BentType = BentType.PLUS,
               u_dim: int = 0) -> SearchSummary:
    """Generate count instances and pipeline each; deterministic in seed."""
    if m < 1 or s < 1:
        raise ValueError("m and s must be at least 1")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    n = m + 2 * s
    check_dim(n)
    if not 0 <= u_dim <= s:
        raise ValueError(f"u_dim must lie in [0, {s}]")
    rng = random.Random(seed)
    summary = SearchSummary()
    for i in range(count):
        u = random_subspace(rng, s, u_dim)
        j0 = rng.randrange(3)
        spec = random_instance(rng, m, s, side, u, j0)
        report = run_pipeline(gmmf_build(spec))
        summary.outcomes.append(SearchOutcome(i, m, s, u_dim, j0, report))
    return summary
