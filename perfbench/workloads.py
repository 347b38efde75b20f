"""Seeded inputs, the timed operation and an independent verdict check for
each benchmark workload.

Inputs are built only from the package's public constructors
(QuadraticForm, quadratic_function, GmmfSpec, gmmf_build, TernaryFunction),
never from tribent.search, so an edit to the program's own instance
generator cannot change what is measured.  The expected verdict of every
instance (eligible or the stage it must fail at, its dimension r and its
case) is derived here from the construction, not from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from tribent import analysis, codes, constructions, pipeline

ELIGIBLE = "eligible"


@dataclass(frozen=True)
class Instance:
    """One input and the verdict the construction guarantees for it."""

    shape: str
    n: int
    f: analysis.TernaryFunction
    expect: str  # ELIGIBLE, or the name of the first stage that must fail
    j0: int = 0
    r: int | None = None
    case: str | None = None


@dataclass(frozen=True)
class Workload:
    """build(seed) makes one pass of inputs; run(instance) is the timed call;
    check(instance, result) returns None or what was wrong.  A run stops
    only after a multiple of `round` instances, so heavy workloads whose
    pass mixes a few very different shapes always measure whole passes."""

    build: Callable[[int], list[Instance]]
    run: Callable[[Instance], object]
    check: Callable[[Instance, object], str | None]
    round: int | None = None  # None: a whole pass

    def round_size(self, instances: list[Instance]) -> int:
        return self.round or len(instances)


# ---------------------------------------------------------------------------
# Glued-quadratic construction, re-derived from the paper's type rule
# ---------------------------------------------------------------------------

def _neg(z: int, s: int) -> int:
    out, mult = 0, 1
    for _ in range(s):
        out += ((-(z % 3)) % 3) * mult
        z //= 3
        mult *= 3
    return out


def _digits(z: int, s: int) -> list[int]:
    return [(z // 3 ** i) % 3 for i in range(s)]


def _quadratic(rng: random.Random, m: int, side: str, constant: int):
    """A random diagonal form of the requested type.

    The type of d_1 x_1^2 + ... + d_m x_m^2 is eta(prod d_i) * (-1)^floor(m/2),
    with eta(1) = 1 and eta(2) = -1; the last coefficient fixes it.
    """
    head = [rng.choice((1, 2)) for _ in range(m - 1)]
    disc = 1
    for c in head:
        disc = disc * c % 3
    want = (1 if side == "plus" else -1) * (-1) ** (m // 2)
    last = 1 if (1 if disc == 1 else -1) == want else 2
    return constructions.quadratic_function(
        constructions.QuadraticForm(tuple(head + [last]), constant))


def _type_set(rng: random.Random, s: int, u_dim: int) -> set[int]:
    """Members of U in F_3^s: {0}, all of F_3^s, or a random line spanned
    by a non-isotropic vector (u.u != 0), so V = F^m x U x F^s is
    non-degenerate."""
    if u_dim == 0:
        return {0}
    if u_dim == s:
        return set(range(3 ** s))
    assert u_dim == 1, "only lines are drawn as proper subspaces"
    while True:
        u = rng.randrange(1, 3 ** s)
        if sum(d * d for d in _digits(u, s)) % 3:
            return {0, u, _neg(u, s)}


def glue_instance(rng: random.Random, m: int, s: int, u_dim: int,
                  side: str) -> Instance:
    """F(x, y, z) = f_z(x) + z.y with f_z of type `side` exactly when z is in
    U; f_z = f_-z keeps F even, and f_0 carries the constant j0.

    U = F_3^s makes every component the same type, so F is weakly regular
    and must be rejected at the non-weakly-regular stage.  Otherwise the
    type side is F^m x U x F^s, a non-degenerate subspace of dimension
    r = m + s + dim U, and the case is (parity of n, side).
    """
    members = _type_set(rng, s, u_dim)
    j0 = rng.randrange(3)
    other = "minus" if side == "plus" else "plus"
    components = [None] * 3 ** s
    for z in range(3 ** s):
        if components[z] is None:
            table = _quadratic(rng, m, side if z in members else other,
                               j0 if z == 0 else 0)
            components[z] = components[_neg(z, s)] = table
    f = constructions.gmmf_build(constructions.GmmfSpec(m, s, tuple(components)))
    n = m + 2 * s
    shape = f"m={m} s={s} u={u_dim} {side}"
    if u_dim == s:
        return Instance(shape, n, f, "non-weakly-regular", j0)
    parity = "even" if n % 2 == 0 else "odd"
    return Instance(shape, n, f, ELIGIBLE, j0, m + s + u_dim, f"{parity}-{side}")


# ---------------------------------------------------------------------------
# Closed forms, kept apart from the program's copies
# ---------------------------------------------------------------------------

def closed_form_length(case: str, n: int, r: int) -> int:
    if case == "even-plus":
        return 3 ** (r - 1) - 3 ** (n // 2 - 1) + 3 ** (n // 2) - 1
    if case == "even-minus":
        return 3 ** (r - 1) + 3 ** (n // 2 - 1)
    return 3 ** (r - 1) + 3 ** ((n - 1) // 2)


def closed_form_sizes(n: int, r: int, j0: int, side: str) -> dict[int, int]:
    """Sizes of the type-side pre-images of the dual, keyed by dual value."""
    sign = 1 if side == "minus" else -1
    sizes = {}
    for i in range(3):
        if n % 2 == 0:
            size = 3 ** (r - 1) + sign * 3 ** (n // 2 - 1)
            size -= sign * 3 ** (n // 2) if i == 0 else 0
        else:
            eta = (0, 1, -1)[i]
            size = 3 ** (r - 1) + sign * eta * 3 ** ((n - 1) // 2)
        sizes[(j0 + i) % 3] = size
    return sizes


# ---------------------------------------------------------------------------
# Verdict checks
# ---------------------------------------------------------------------------

def check_report(inst: Instance, rep) -> str | None:
    """A run_pipeline report against the construction's verdict."""
    failed = [s.name for s in rep.stages if not s.ok]
    if inst.expect != ELIGIBLE:
        if not failed or failed[0] != inst.expect:
            return f"{inst.shape}: expected rejection at {inst.expect}, failed {failed}"
        return None
    if not rep.passed or rep.code is None or not rep.code.match:
        return f"{inst.shape}: eligible instance not passed (failed {failed})"
    stage = rep.stage("per-codeword-weights")
    if stage is None or not stage.ok:
        return f"{inst.shape}: per-codeword weights not confirmed"
    if (rep.r, rep.case) != (inst.r, inst.case):
        return f"{inst.shape}: r/case {rep.r}/{rep.case}, built {inst.r}/{inst.case}"
    if (rep.code.length, rep.code.dimension) != (
            closed_form_length(inst.case, inst.n, inst.r), inst.r):
        return f"{inst.shape}: code [{rep.code.length}, {rep.code.dimension}] off the closed form"
    return None


def run_hypotheses(inst: Instance):
    """The public hypothesis path without the dense code stage."""
    f = inst.f
    profile = analysis.bent_profile(f)
    dual_ok, _ = analysis.is_dual_bent(f, profile)
    ctx = codes.select_defining_set(f, profile)
    cosets = analysis.coset_structure(f, profile)
    sizes = analysis.expected_preimage_sizes(f.n, ctx.r, ctx.j0, ctx.case.side)
    prediction = codes.predict_distribution(ctx.case, f.n, ctx.r)
    return dual_ok, ctx, cosets, sizes, prediction


def check_hypotheses(inst: Instance, result) -> str | None:
    dual_ok, ctx, cosets, sizes, prediction = result
    if not dual_ok:
        return f"{inst.shape}: dual not bent"
    if (ctx.r, ctx.case.value, ctx.j0) != (inst.r, inst.case, inst.j0):
        return f"{inst.shape}: r/case/j0 {ctx.r}/{ctx.case.value}/{ctx.j0} off the construction"
    side = inst.case.split("-")[1]
    sets = ctx.preimages.plus if side == "plus" else ctx.preimages.minus
    measured = {i: len(sets[i]) for i in range(3)}
    if not measured == sizes == closed_form_sizes(inst.n, inst.r, inst.j0, side):
        return f"{inst.shape}: pre-image sizes {measured}, closed form {sizes}"
    if not (cosets.coset_union_ok and cosets.constant_ok):
        return f"{inst.shape}: coset structure check failed"
    if prediction.length != len(ctx.defining) or prediction.length != closed_form_length(
            inst.case, inst.n, inst.r):
        return f"{inst.shape}: defining set size {len(ctx.defining)}, predicted {prediction.length}"
    return None


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

# (m, s, u_dim, count, side): the per-case plan shapes of the acceptance
# sweep, n = m + 2s from 4 to 8.  The counts put about 35% of a pass at
# n <= 5, 35% at n = 6 and 9% at n = 8, so the median latency falls inside
# the n = 6 cluster and the 95th percentile inside the n = 8 one; on a
# cluster boundary either would jump several-fold between runs.
SWEEP_PLANS = [
    (2, 1, 0, 20, "plus"), (4, 1, 0, 30, "plus"), (2, 2, 1, 20, "plus"),
    (3, 1, 0, 20, "plus"), (5, 1, 0, 15, "plus"), (3, 2, 1, 10, "plus"),
    (2, 1, 0, 20, "minus"), (4, 1, 0, 30, "minus"), (6, 1, 0, 20, "minus"),
    (3, 1, 0, 20, "minus"), (5, 1, 0, 15, "minus"), (1, 3, 1, 10, "minus"),
]


def build_sweep(seed: int) -> list[Instance]:
    """Every plan, and one weakly-regular reject (U = F_3^s) per plan shape,
    interleaved by relative position so that every prefix of the pass
    holds the plans and the rejects in proportion."""
    rng = random.Random(seed)
    groups = [[glue_instance(rng, m, s, u_dim, side) for _ in range(count)]
              for m, s, u_dim, count, side in SWEEP_PLANS]
    groups.append([glue_instance(rng, m, s, s, side)
                   for m, s, _, _, side in SWEEP_PLANS])
    keyed = [((i + 0.5) / len(group), g, inst)
             for g, group in enumerate(groups) for i, inst in enumerate(group)]
    return [inst for _, _, inst in sorted(keyed, key=lambda k: k[:2])]


def build_dense(seed: int) -> list[Instance]:
    """n = 9..10, one per case; the dense 3^n x |S| product peaks near 0.9 GB."""
    rng = random.Random(seed)
    return [glue_instance(rng, m, s, 0, side)
            for m, s, side in ((7, 1, "plus"), (7, 1, "minus"),
                               (4, 3, "plus"), (2, 4, "minus"))]


def build_structure(seed: int) -> list[Instance]:
    """m = n - 2, s = 1: n = 10 minus (r = 9) and n = 11 plus (r = 10)."""
    rng = random.Random(seed)
    return [glue_instance(rng, 8, 1, 0, "minus"), glue_instance(rng, 9, 1, 0, "plus")]


def run_pipeline(inst: Instance):
    return pipeline.run_pipeline(inst.f)


WORKLOADS = {
    "sweep-small": Workload(build_sweep, run_pipeline, check_report, round=1),
    "verify-dense": Workload(build_dense, run_pipeline, check_report),
    "structure-large": Workload(build_structure, run_hypotheses, check_hypotheses),
}
