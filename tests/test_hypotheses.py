"""The once-established hypothesis record against reference implementations.

establish() decides non-degeneracy and builds the kernel mask without
enumerating subspaces; orthogonal_complement and is_nondegenerate stay
the slow, direct references it is checked against here.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from tribent.analysis import (
    HYPOTHESES,
    BentType,
    HypothesisError,
    TernaryFunction,
    coset_structure,
    establish,
)
from tribent.codes import select_defining_set
from tribent.constructions import gmmf_build
from tribent.core import (
    add_points,
    dots_with,
    encode,
    is_nondegenerate,
    orthogonal_complement,
    size,
    span,
)
from tribent.fixtures import FIXTURES
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

# (m, s, dim U, side): eligible cases of both parities, U = F_3^s (weakly
# regular), and random lines in F_3^3, some spanned by an isotropic vector
PLANS = [
    (2, 1, 0, BentType.PLUS), (3, 1, 0, BentType.MINUS), (2, 2, 1, BentType.PLUS),
    (1, 2, 1, BentType.MINUS), (3, 1, 1, BentType.PLUS), (1, 2, 2, BentType.MINUS),
    (1, 3, 1, BentType.PLUS),
]


def _glue_instances() -> list[tuple[str, TernaryFunction]]:
    rng = random.Random(11)
    out = []
    for i in range(21):
        m, s, u_dim, side = PLANS[i % len(PLANS)]
        u = random_subspace(rng, s, u_dim)
        f = gmmf_build(random_instance(rng, m, s, side, u, rng.randrange(3)))
        out.append((f"glue-{i}", f))
        if i % 4 == 0:
            # adding a nonzero linear form keeps f bent and breaks evenness
            c = rng.randrange(1, size(f.n))
            out.append((f"glue-{i}-odd", TernaryFunction(f.n, (f.table + dots_with(c, f.n)) % 3)))
    isotropic = span([encode((1, 1, 1))], 3)
    f = gmmf_build(random_instance(rng, 1, 3, BentType.PLUS, isotropic, 0))
    out.append(("glue-degenerate", f))
    nprng = np.random.default_rng(3)
    out.append(("random", TernaryFunction(3, nprng.integers(0, 3, 27))))
    return out


CASES = [(fx.name, fx.build()) for fx in FIXTURES] + _glue_instances()


def _failed_hypothesis(f: TernaryFunction) -> str | None:
    rep = run_pipeline(f)
    failed = [s.name for s in rep.stages if s.name in HYPOTHESES and not s.ok]
    return failed[0] if failed else None


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_record_against_references(name, f):
    hyp = establish(f)
    if hyp.profile is None:
        assert [s.name for s in hyp.stages] == ["bent"]
        return
    perp = frozenset(np.flatnonzero(hyp.in_kernel).tolist())
    assert perp == orthogonal_complement(hyp.v).points()
    nondeg = next((s for s in hyp.stages if s.name == "non-degenerate"), None)
    if nondeg is not None:
        assert nondeg.ok == is_nondegenerate(hyp.v)


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_selection_fails_exactly_where_the_pipeline_does(name, f):
    failed = _failed_hypothesis(f)
    if failed is None:
        select_defining_set(f)
        return
    with pytest.raises(HypothesisError) as exc:
        select_defining_set(f)
    assert exc.value.hypothesis == HYPOTHESES[failed]


def test_cases_cover_every_verdict():
    verdicts = {_failed_hypothesis(f) for _, f in CASES}
    assert verdicts >= {None, "bent", "non-weakly-regular", "even", "dual-bent",
                        "non-degenerate"}


@pytest.mark.parametrize("name,f", CASES, ids=[name for name, _ in CASES])
def test_coset_tiling_against_pointwise_sums(name, f):
    hyp = establish(f)
    if not hyp.ok:
        return
    cs = coset_structure(f, hyp.profile)
    perp = orthogonal_complement(hyp.v).points()

    def cosets(reps):
        return {u: {add_points(u, w, f.n) for w in perp} for u in reps}

    union_ok = all(
        set().union(*cosets(reps).values()) == side
        for reps, side in ((cs.i_plus, cs.dual_profile.b_plus),
                           (cs.i_minus, cs.dual_profile.b_minus)))
    branch = cs.i_plus if cs.constant_branch == "i_plus" else cs.i_minus
    constant_ok = all(len({f(x) for x in points}) == 1
                      for points in cosets(branch).values())
    assert (cs.coset_union_ok, cs.constant_ok) == (union_ok, constant_ok)
