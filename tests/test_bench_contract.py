"""What the benchmark under perfbench/ relies on in the package.

The traced run wraps the functions named in perfbench/tracing.TARGETS,
and the structure-large workload drives the public hypothesis path; a
refactor that renames either away breaks the benchmark, so it fails here.
Nothing under perfbench/ is modified or installed.
"""

from __future__ import annotations

import random
import sys
import types
from pathlib import Path

import pytest

import tribent
from tribent import core
from tribent.analysis import bent_profile
from tribent.core import size

from conftest import assert_dual_by_cosets_matches_transform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Execute perfbench/<name>.py as a module, leaving no bytecode there."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_trace_target_resolves(name):
    module, path, _ = tracing.TARGETS[name]
    owner = getattr(tribent, module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_trace_targets_include_the_dense_layers():
    paths = {(module, path) for module, path, _ in tracing.TARGETS.values()}
    assert {("core", "Subspace.points"), ("codes", "WeightClassifier.check_all")} <= paths


def test_hypothesis_path_verdict():
    inst = workloads.glue_instance(random.Random(0), 4, 1, 0, "minus")
    assert workloads.check_hypotheses(inst, workloads.run_hypotheses(inst)) is None


def test_dual_profile_by_cosets_on_every_benchmark_instance():
    # every input of the three workloads at the default seed: the dual's
    # sign per coset from coset sums equals the dual's own transform at
    # the messages, and the transform's sign tiles the cosets
    instances = [inst for workload in workloads.WORKLOADS.values() for inst in workload.build(1)]
    assert len(instances) == 248
    ks = {assert_dual_by_cosets_matches_transform(inst.f) for inst in instances}
    assert {0, 1, 2, 3, 4} <= ks


def test_every_benchmark_type_side_spans_in_one_round(monkeypatch):
    # each workload input's type side is a subspace, so span's band sample
    # is already its basis: one null-space check (_null_basis) per span on
    # an empty table of interned subspaces
    instances = [inst for workload in workloads.WORKLOADS.values() for inst in workload.build(1)]
    profiles = [bent_profile(inst.f) for inst in instances]
    calls = []
    null_basis = core._null_basis
    monkeypatch.setattr(core, "_null_basis", lambda r: calls.append(r) or null_basis(r))
    for p in profiles:
        calls.clear()
        core._interned.cache_clear()
        v = core.span(p.side_mask(p.type), p.n)
        assert len(calls) == 1 and p.type_side_size == size(v.dim)
