"""The memory guard's constant as a contract.

check_dim refuses an n whose run would need more than
PEAK_BYTES_PER_POINT bytes for each of the 3^n points, so every exported
path that takes or builds a 3^n table must stay within it.  Each path's
tracemalloc peak over 3^n is read at n = 12 on inputs built beforehand.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tribent.analysis import BentType, bent_profile, preimage_sets
from tribent.cli import load_table_file
from tribent.codes import DefiningSet, build_code, preimage_points
from tribent.constructions import (
    QuadraticForm,
    eval_poly,
    function_from_spec,
    gmmf_build,
    gmmf_predict,
    parse_poly,
    quadratic_function,
)
from tribent.core import PEAK_BYTES_PER_POINT, coord_matrix, size, span
from tribent.pipeline import run_pipeline
from tribent.search import random_instance, random_subspace

N = 12
DATA = Path(__file__).parent / "data"


def _glue_spec():
    rng = random.Random(1)
    return random_instance(rng, N - 2, 1, BentType.PLUS, random_subspace(rng, 1, 0), 0)


def _forced(tmp_path):
    # the sum of n squares is weakly regular, so its type side is all of
    # F_3^n and the forced set's code has r = n, the largest peak a run
    # reaches (tools/trajectory.py's forced path)
    f = quadratic_function(QuadraticForm((1,) * N))

    def run():
        rep = run_pipeline(f, force_set="C0")
        assert rep.code is not None and rep.code.dimension == N, rep.notes
    return run


def _table_file(tmp_path):
    path = tmp_path / "table.txt"
    trits = np.random.default_rng(N).integers(0, 3, size(N))
    path.write_text(f"{N}\n" + " ".join(map(str, trits.tolist())) + "\n")
    return lambda: load_table_file(str(path))


def _glue_file_spec(tmp_path):
    spec = {"m": N - 2, "s": 1, "components": [{"d": [1] * (N - 2)}] * 3}
    return lambda: function_from_spec(spec)


def _trace_spec(tmp_path):
    spec = json.loads((DATA / "trace-k12-square-spec.json").read_text())
    return lambda: function_from_spec(spec)


def _poly(tmp_path):
    expr = parse_poly(" + ".join(f"x{i}^2" for i in range(1, N + 1)) + " + x1*x2*x3", N)
    return lambda: eval_poly(expr)


def _predict(tmp_path):
    spec = _glue_spec()
    return lambda: gmmf_predict(spec)


def _full_space_points(tmp_path):
    v = span(np.ones(size(N), dtype=bool), N)
    coord_matrix.cache_clear()  # a fresh process pays for any table it caches
    return v.points


def _preimages(tmp_path):
    profile = bent_profile(gmmf_build(_glue_spec()))
    return lambda: preimage_sets(profile)


PATHS = {
    "run_pipeline-force_set": _forced,
    "load_table_file": _table_file,
    "function_from_spec-glue": _glue_file_spec,
    "function_from_spec-trace": _trace_spec,
    "eval_poly": _poly,
    "gmmf_predict": _predict,
    "preimage_sets": _preimages,
    "Subspace.points": _full_space_points,
}


@pytest.mark.parametrize("path", PATHS)
def test_exported_paths_peak_within_the_guards_bytes_per_point(tmp_path, path):
    run = PATHS[path](tmp_path)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] / size(N)
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES_PER_POINT, peak


# The code stage of the forced path above, measured alone: its transform's
# int32 pairs, with the indicator dropped after the first pass (17.01 B/point
# at n = 12; 18.01 while message_weights held the indicator throughout).
CODE_STAGE_BYTES_PER_POINT = 17.1


def test_the_forced_code_stage_holds_no_input_through_its_transform():
    f = quadratic_function(QuadraticForm((1,) * N))
    s = DefiningSet(N, preimage_points(bent_profile(f), BentType.PLUS, 0))
    v = span(s.mask, N)
    tracemalloc.start()
    try:
        code = build_code(s, v)
        peak = tracemalloc.get_traced_memory()[1] / size(N)
    finally:
        tracemalloc.stop()
    assert code.dimension == N
    assert peak <= CODE_STAGE_BYTES_PER_POINT, peak
