"""Spans around the public entry points of each tribent layer.

The program is not edited: each traced function is replaced, from the
outside, by a wrapper at every module binding that refers to it.  The
modules import each other's names (`from .core import span`), so wrapping
`core.span` alone would miss `codes.span`, `analysis.span` and
`pipeline.span`.  Methods are wrapped once on their class.

A span is (name, start, end, parent, instance, work); spans stay in memory
until the run ends.  Spans nest strictly (one thread), so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import wraps

import tribent

# metric prefix -> (module, attribute path, work done by one call or None)
TARGETS = {
    "core.span": ("core", "span", None),
    "core.is_subspace": ("core", "is_subspace", None),
    "core.is_nondegenerate": ("core", "is_nondegenerate", None),
    "core.orthogonal_complement": ("core", "orthogonal_complement", None),
    "core.Subspace.points": ("core", "Subspace.points", lambda v: 3 ** v.dim),
    "codes.select_defining_set": ("codes", "select_defining_set", None),
    # computed bytes of the dense int64 message x defining-set product
    "codes.build_code": ("codes", "build_code", lambda s: 3 ** s.n * len(s) * 8),
    "codes.check_all": ("codes", "WeightClassifier.check_all",
                        lambda c: 3 ** c.f.n * len(c.ctx.defining) * 8),
    "codes.classifier_init": ("codes", "WeightClassifier.__init__", None),
    "analysis.walsh_spectrum": ("analysis", "walsh_spectrum", lambda f: 3 ** f.n),
    "analysis.bent_profile": ("analysis", "bent_profile", None),
    "analysis.is_dual_bent": ("analysis", "is_dual_bent", None),
    "analysis.preimage_sets": ("analysis", "preimage_sets", None),
    "analysis.coset_structure": ("analysis", "coset_structure", None),
    "pipeline.run_pipeline": ("pipeline", "run_pipeline", None),
    "constructions.gmmf_build": ("constructions", "gmmf_build", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.instance: object = None

    def wrap(self, name, fn, work):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            amount = work(args[0]) if work else 0
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.instance, amount)
        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded tribent modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tribent" or k.startswith("tribent.")]
        for name, (module, path, work) in TARGETS.items():
            owner = getattr(tribent, module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            traced = self.wrap(name, original, work)
            if cls:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def layer_metrics(self, instances: int, built: int) -> dict[str, float]:
        """Self time, calls and work per traced instance, by target.

        Spans of set-up (instance None) count only for the constructions
        layer, which is normalised by the number of instances built.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        for i, (name, start, end, _, inst, amount) in enumerate(self.spans):
            if (inst is None) != name.startswith("constructions."):
                continue
            self_s[name] += end - start - child[i]
            calls[name] += 1
            work[name] += amount
        out = {}
        for name in TARGETS:
            key = f"{name}.self_s" if name == "pipeline.run_pipeline" else f"{name}.s"
            out[key] = self_s[name] / (built if name.startswith("constructions.") else instances)
        for name in ("core.span", "core.is_subspace", "analysis.bent_profile"):
            out[f"{name}.calls"] = calls[name] / instances
        out["core.subspace_points"] = work["core.Subspace.points"] / instances
        out["analysis.walsh_spectrum.points"] = work["analysis.walsh_spectrum"] / instances
        out["codes.dense_bytes_computed"] = (
            work["codes.build_code"] + work["codes.check_all"]) / instances
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, inst, amount in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst,
                                     "work": amount}) + "\n")
