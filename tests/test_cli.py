import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tribent.analysis import TernaryFunction
from tribent.cli import load_table_file, main
from tribent.core import PEAK_BYTES_PER_POINT, encode, size
from tribent.fields import find_irreducible
from tribent.fixtures import FIXTURES, get_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


DATA = Path(__file__).resolve().parent / "data"


SEARCH_M4 = ["search", "--m", "4", "--s", "1", "--count", "50", "--seed", "7"]
VERIFY_N5 = ["verify", "--poly", "x2^2*x5^2 + x1^2 + x2^2 + x3^2 + x4*x5", "--n", "5"]
# weakly regular: a hypothesis fails, so the forced set is measured and
# the run exits 1
VERIFY_N3_D0 = ["verify", "--poly", "x1^2+x2^2+x3^2", "--n", "3", "--defining-set", "D0"]
EXIT_ONE = {"verify-squares-n3-D0.csv", "verify-squares-n3-D0.txt"}
# even/plus at r = n - 1 carries the alternative low-weight count
PREDICT_N6 = ["predict", "--case", "even-plus", "--n", "6", "--r", "5"]


@pytest.mark.parametrize("golden, argv", [
    ("examples.json", ["examples", "--format", "json"]),
    ("search-m4-s1-count50-seed7.json", SEARCH_M4 + ["--format", "json"]),
    # n = 8, r = 5: V-perp has three basis vectors
    ("search-m2-s3-count20-seed7.json",
     ["search", "--m", "2", "--s", "3", "--count", "20", "--seed", "7", "--format", "json"]),
    ("predict-even-plus-n6-r5.json", PREDICT_N6 + ["--format", "json"]),
    # n = 11, r = 6: V-perp has five basis vectors, past every benchmark shape
    ("search-m1-s5-count6-seed7-minus.json",
     ["search", "--m", "1", "--s", "5", "--count", "6", "--seed", "7", "--side", "minus",
      "--format", "json"]),
    # n = 8 with U of dimension 1: V-perp is not axis-aligned, so the
    # dual's coset folds translate by q != 0 (k = 2); one instance skips
    # at non-degenerate
    ("search-m2-s3-count8-seed7-u1.json",
     ["search", "--m", "2", "--s", "3", "--count", "8", "--seed", "7", "--u-dim", "1",
      "--format", "json"]),
    # odd-plus at n = 5 with the minimal r = 3: two-weight codes
    ("search-m1-s2-count5-seed1.json",
     ["search", "--m", "1", "--s", "2", "--count", "5", "--seed", "1", "--format", "json"]),
    # n = 7 with U of dimension 1: the twenty instances share a handful of
    # type sides V, so most verdicts read an interned V's tables
    ("search-m3-s2-u1-count20-seed0.json",
     ["search", "--m", "3", "--s", "2", "--count", "20", "--seed", "0", "--u-dim", "1",
      "--format", "json"]),
])
def test_json_reports_match_the_golden_outputs(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("golden, argv", [
    ("examples.csv", ["examples", "--format", "csv"]),
    ("examples.txt", ["examples"]),
    ("search-m4-s1-count50-seed7.csv", SEARCH_M4 + ["--format", "csv"]),
    ("search-m4-s1-count50-seed7.txt", SEARCH_M4),
    ("verify-poly-n5.csv", VERIFY_N5 + ["--format", "csv"]),
    ("verify-poly-n5.txt", VERIFY_N5),
    ("verify-squares-n3-D0.csv", VERIFY_N3_D0 + ["--format", "csv"]),
    ("verify-squares-n3-D0.txt", VERIFY_N3_D0),
    ("predict-even-plus-n6-r5.csv", PREDICT_N6 + ["--format", "csv"]),
    ("predict-even-plus-n6-r5.txt", PREDICT_N6),
])
def test_csv_and_table_reports_match_the_golden_outputs(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == (1 if golden in EXIT_ONE else 0)
    # the csv module ends rows with CRLF; compare the bytes untranslated
    assert out.encode() == (DATA / golden).read_bytes()


def test_forced_set_below_full_rank_matches_the_golden_output(capsys):
    # a seeded n = 7 glue instance, Random(0): U of dimension 1 in F_3^3,
    # plus side, j0 = 0; its type side is degenerate, so the forced set
    # C0 is measured over its own span, an [80, 5] code with r < n
    code, out, _ = run_cli(capsys, "verify", "--spec-file",
                           str(DATA / "glue-m1-s3-u1-seed0-spec.json"),
                           "--defining-set", "C0", "--format", "json")
    assert code == 1
    assert out == (DATA / "verify-glue-m1-s3-u1-C0.json").read_text()


def test_examples_single_fixture(capsys):
    code, out, _ = run_cli(capsys, "examples", "--name", "code36")
    assert code == 0
    assert "[36,4,18]_3" in out
    assert "PASS" in out


def test_examples_all_json(capsys):
    code, out, _ = run_cli(capsys, "examples", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 9
    assert all(entry["ok"] for entry in doc)
    by_name = {e["name"]: e for e in doc}
    assert by_name["code98-a"]["report"]["code"]["enumerator"] == \
        "1+32y^54+162y^66+48y^72"


def test_examples_csv(capsys):
    code, out, _ = run_cli(capsys, "examples", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "name"
    assert len(rows) == 10


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx.name)
def test_fixture_specs_verify_through_the_cli_loaders(tmp_path, capsys, fx):
    # the bundled examples are glue or trace spec files: verifying the
    # file gives the report that `examples` gives for the fixture
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fx.spec))
    argv = ["verify", "--spec-file", str(path), "--format", "json"]
    if fx.force_set:
        argv += ["--defining-set", fx.force_set]
    code, out, _ = run_cli(capsys, *argv)
    assert code == (0 if fx.expect["failed_stage"] is None else 1)
    _, examples, _ = run_cli(capsys, "examples", "--name", fx.name, "--format", "json")
    assert json.loads(out) == json.loads(examples)[0]["report"]


def test_defining_set_on_an_eligible_function_gets_a_note(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(get_fixture("code98-a").spec))
    code, out, err = run_cli(capsys, "verify", "--spec-file", str(path), "--defining-set", "D1")
    assert (code, err) == (0, "")
    assert "set=C0" in out
    assert ("  note: every hypothesis holds, so the selected set C0 was measured, "
            "not the requested set D1") in out.splitlines()


def test_defining_set_on_a_function_that_is_not_bent_gets_a_note(capsys):
    code, out, err = run_cli(capsys, "verify", "--poly", "x1", "--n", "1",
                             "--defining-set", "C0", "--format", "json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["defining_set"] is None and doc["code"] is None
    assert doc["notes"] == ["f is not bent, so it has no dual and the requested "
                            "set C0 was not measured"]


def test_verify_polynomial_pass(capsys):
    poly = "x2^2*x5^2 + x1^2 + x2^2 + x3^2 + x4*x5"
    code, out, _ = run_cli(capsys, "verify", "--poly", poly, "--n", "5",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["case"] == "odd-minus"
    assert doc["code"]["match"] is True


def test_verify_not_bent_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--poly", "x1 + x2", "--n", "2")
    assert code == 1
    assert "bent" in out


def test_verify_long_polynomial_input(capsys):
    poly = ("2*x1^2*x6^2*x7^2 + x1^2*x6*x7 + 2*x1^2*x7^2 + 2*x1^2 "
            "+ x2^2*x6^2*x7^2 + x2^2*x6^2 + 2*x2^2*x6*x7 + x2^2 "
            "+ 2*x3^2*x6^2*x7^2 + x3^2*x6*x7 + x3^2 + 2*x6^2*x7^2 "
            "+ x6^2 + x7^2 + x4*x6 + x5*x7 + 2")
    code, out, _ = run_cli(capsys, "verify", "--poly", poly, "--n", "7",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["code"]["length"] == 270
    assert doc["passed"] is True


def test_verify_weakly_regular_message(capsys):
    code, out, _ = run_cli(capsys, "verify", "--poly", "x1^2 + 2*x2^2", "--n", "2")
    assert code == 1
    assert "empty" in out


def test_verify_parse_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--poly", "x9", "--n", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("poly, position", [("*", 0), ("x1*", 2), ("x1 + *x2", 5)])
def test_verify_refuses_a_dangling_star(capsys, poly, position):
    code, out, err = run_cli(capsys, "verify", "--poly", poly, "--n", "2")
    assert code == 2 and out == ""
    assert err == f"error: '*' must stand between two factors (at position {position})\n"


def test_verify_checks_the_variable_count_before_parsing(capsys):
    code, out, err = run_cli(capsys, "verify", "--poly", "x1", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: dimension must be non-negative, got -1\n"


def test_search_refuses_a_negative_count(capsys):
    code, out, err = run_cli(capsys, "search", "--m", "2", "--s", "1", "--count", "-1")
    assert code == 2 and out == ""
    assert err == "error: count must be non-negative, got -1\n"


def test_verify_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_table_file(tmp_path, capsys):
    f = tmp_path / "square.txt"
    f.write_text("# one-variable square\n1\n0 1 1\n")
    code, out, _ = run_cli(capsys, "verify", "--table-file", str(f),
                           "--format", "json")
    assert code == 1  # weakly regular: hypotheses fail
    doc = json.loads(out)
    assert doc["type"] == "plus"


def test_verify_table_file_bad_length(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n0 1 1\n")
    code, _, err = run_cli(capsys, "verify", "--table-file", str(f))
    assert code == 2
    assert "expected 3^2" in err


def test_verify_gmmf_file(tmp_path, capsys):
    spec = {
        "m": 3, "s": 1,
        "components": [
            {"d": [1, 1, 1]},
            {"d": [1, 2, 1]},
            {"d": [1, 2, 1]},
        ],
    }
    f = tmp_path / "glue.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "verify", "--gmmf-file", str(f),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["code"]["length"] == 36


def test_spec_file_spellings_read_either_body(tmp_path, capsys):
    # --gmmf-file and --trace-file are older spellings of --spec-file: the
    # body's "k" key, not the flag, says which kind of spec it is
    f = tmp_path / "trace.json"
    f.write_text(json.dumps(TRACE))
    runs = [run_cli(capsys, "verify", flag, str(f), "--format", "json")
            for flag in ("--spec-file", "--gmmf-file", "--trace-file")]
    assert runs[0][0] == 1
    stages = json.loads(runs[0][1])["stages"]
    assert [st["name"] for st in stages if not st["ok"]] == ["dual-bent"]
    assert runs[1:] == runs[:1] * 2


def test_verify_needs_exactly_one_source(tmp_path, capsys):
    f = tmp_path / "glue.json"
    f.write_text(json.dumps(GLUE))
    for argv in ([], ["--spec-file", str(f), "--poly", "x1^2", "--n", "1"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == "error: provide exactly one of --poly/--table-file/--spec-file\n"


def test_verify_trace_file_with_forced_set(tmp_path, capsys):
    spec = {
        "k": 4,
        "modulus": list(find_irreducible(4)),
        "generator": 3,
        "terms": [[10, 22], [0, 4]],
    }
    f = tmp_path / "trace.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "verify", "--trace-file", str(f),
                           "--defining-set", "C0", "--format", "json")
    assert code == 1  # dual not bent, so the run is not a full pass
    doc = json.loads(out)
    assert doc["code"]["length"] == 14
    assert doc["code"]["enumerator"] == "1+4y^6+18y^10+4y^12"


@pytest.mark.slow
def test_verify_trace_file_at_the_cap_matches_the_golden_output(capsys):
    # Tr(x^2) over GF(3^12): bent but weakly regular, so the run stops at
    # the second stage; the field tables come from linear algebra
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--trace-file",
                           str(DATA / "trace-k12-square-spec.json"), "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == (DATA / "verify-trace-k12-square.json").read_text()


def test_verify_trace_file_refuses_negative_exponents(tmp_path, capsys):
    spec = {"k": 2, "modulus": [2, 2, 1], "generator": 3, "terms": [[0, -2]]}
    f = tmp_path / "trace.json"
    f.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "verify", "--trace-file", str(f))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {f}: bad trace spec: trace exponents must be non-negative"


def test_search_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "3", "--s", "1",
                           "--count", "5", "--seed", "4", "--side", "minus")
    assert code == 0
    assert "5 matched" in out


def test_search_cli_exits_1_when_a_check_fails(capsys, off_by_one_classifier):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--s", "1",
                           "--count", "2", "--seed", "1")
    assert code == 1
    assert out.count("MISMATCH") == 2
    assert "0 matched, 2 mismatched, 0 skipped" in out


def test_search_cli_odd_minimal_r(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "1", "--s", "2",
                           "--count", "5", "--seed", "1")
    assert code == 0
    assert "5 matched" in out


def test_predict_odd_minimal_r_has_two_weights(capsys):
    code, out, _ = run_cli(capsys, "predict", "--case", "odd-plus", "--n", "3", "--r", "2")
    assert code == 0
    assert "[6,2,4]_3" in out
    assert [ln.split("|")[0].strip() for ln in out.splitlines()[3:]] == ["0", "4", "6"]


def test_search_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "2", "--s", "1",
                           "--count", "3", "--seed", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4


def test_predict_table(capsys):
    code, out, _ = run_cli(capsys, "predict", "--case", "even-minus",
                           "--n", "8", "--r", "7")
    assert code == 0
    assert "[756,7,486]_3" in out
    assert "486 | 476" in out.replace("  ", " ").replace("  ", " ") or "476" in out


def test_predict_json(capsys):
    code, out, _ = run_cli(capsys, "predict", "--case", "odd-plus",
                           "--n", "7", "--r", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 270
    assert [162, 80] in doc["distribution"]


def test_predict_bad_parity_exits_two(capsys):
    code, _, err = run_cli(capsys, "predict", "--case", "even-plus",
                           "--n", "5", "--r", "4")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--case", "even-minus", "--n", "4", "--r", "9"], "error: r=9 exceeds n=4, the dimension of F_3^n"),
    (["--case", "even-plus", "--n", "2", "--r", "2"], "error: n=2 below 3, where the closed forms do not apply"),
    (["--case", "even-plus", "--n", "4", "--r", "4"],
     "error: r=4 equals n: the other side would be empty, so f would be weakly regular"),
    # past the n whose closed forms the tests check, however large
    (["--case", "odd-plus", "--n", "61", "--r", "60"],
     "error: n=61 exceeds 60, the largest n whose closed forms are checked"),
    (["--case", "even-plus", "--n", str(10 ** 12), "--r", str(10 ** 12 - 1)],
     f"error: n={10 ** 12} exceeds 60, the largest n whose closed forms are checked"),
])
def test_predict_out_of_range_exits_two_with_one_line(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "predict", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", message + "\n")


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--name", "no-such-fixture"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["examples", "--max-n", "2"],
    ["predict", "--case", "even-plus", "--n", "30", "--r", "20", "--max-n", "2"],
    ["verify", "--poly", "x1^2", "--n", "1", "--max-n", "1"],
    ["search", "--m", "1", "--s", "1", "--count", "1", "--max-n", "3"],
])
def test_every_command_refuses_max_n(argv):
    # check_dim is the one size gate; no flag raises or lowers it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("entry", [300, 5, True, False, 1.0])
def test_verify_gmmf_table_entry_out_of_range(tmp_path, capsys, entry):
    spec = {
        "m": 1, "s": 1,
        "components": [{"table": [0, 1, 1]}, {"table": [0, 2, entry]},
                       {"table": [0, 2, entry]}],
    }
    f = tmp_path / "glue.json"
    f.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "verify", "--gmmf-file", str(f))
    assert code == 2
    assert err.strip() == f"error: {f}: table entries must be 0, 1 or 2"


GLUE = {"m": 1, "s": 1, "components": [{"d": [1]}, {"d": [1]}, {"d": [1]}]}
TRACE = {"k": 4, "modulus": [2, 1, 0, 0, 1], "generator": 3, "terms": [[10, 22], [0, 4]]}


@pytest.mark.parametrize("flag, spec, message", [
    ("--gmmf-file", {**GLUE, "m": 1.7}, "bad glue spec: m must be an integer, got 1.7"),
    ("--gmmf-file", {**GLUE, "s": True}, "bad glue spec: s must be an integer, got True"),
    ("--gmmf-file", {**GLUE, "m": -1}, "bad glue spec: m must be non-negative, got -1"),
    ("--gmmf-file", {**GLUE, "s": -1}, "bad glue spec: s must be non-negative, got -1"),
    ("--gmmf-file", {**GLUE, "components": [{"d": [1.5]}] * 3},
     "bad glue spec: components[0].d[0] must be an integer, got 1.5"),
    ("--gmmf-file", {**GLUE, "components": [{"d": [1], "c": False}] * 3},
     "bad glue spec: components[0].c must be an integer, got False"),
    ("--trace-file", {**TRACE, "k": 4.0}, "bad trace spec: k must be an integer, got 4.0"),
    ("--trace-file", {**TRACE, "k": -1}, "bad trace spec: k must be non-negative, got -1"),
    ("--trace-file", {**TRACE, "generator": 3.9},
     "bad trace spec: generator must be an integer, got 3.9"),
    ("--trace-file", {**TRACE, "generator": [0, 5]},
     "bad trace spec: generator digits must be 0, 1 or 2, got [0, 5]"),
    ("--trace-file", {**TRACE, "generator": [0, True]},
     "bad trace spec: generator[1] must be an integer, got True"),
    ("--trace-file", {**TRACE, "modulus": [2, 1, 0, 0, 1.0]},
     "bad trace spec: modulus[4] must be an integer, got 1.0"),
    ("--trace-file", {**TRACE, "terms": [[10, 22.0]]},
     "bad trace spec: terms[0] must be an integer, got 22.0"),
    ("--gmmf-file", {"m": 1}, "bad glue spec: missing key 's'"),
    ("--trace-file", {"k": 2}, "bad trace spec: missing key 'modulus'"),
    ("--gmmf-file", [GLUE], "bad glue spec: the spec must be a JSON object, got list"),
    ("--gmmf-file", {**GLUE, "components": [1, 2, 3]},
     "bad glue spec: components[0] must be a JSON object, got 1"),
    ("--trace-file", {**TRACE, "terms": [[0, 2, 5]]},
     "bad trace spec: terms[0] must be a [generator_power, exponent] pair, got [0, 2, 5]"),
    ("--gmmf-file", {**GLUE, "components": 5},
     "bad glue spec: components must be a JSON array, got 5"),
    ("--gmmf-file", {**GLUE, "components": [{"table": 5}] * 3},
     "bad glue spec: components[0].table must be a JSON array, got 5"),
    ("--gmmf-file", {**GLUE, "components": [{"d": 5}] * 3},
     "bad glue spec: components[0].d must be a JSON array, got 5"),
    ("--trace-file", {**TRACE, "terms": 5}, "bad trace spec: terms must be a JSON array, got 5"),
    ("--trace-file", {**TRACE, "modulus": 5},
     "bad trace spec: modulus must be a JSON array, got 5"),
], ids=["m-float", "s-bool", "m-negative", "s-negative", "d-float", "c-bool",
        "k-float", "k-negative", "generator-float", "generator-digit", "generator-digit-bool",
        "modulus-float", "exponent-float", "missing-s", "missing-modulus", "array",
        "component-int", "term-triple", "components-int", "table-int", "d-int", "terms-int",
        "modulus-int"])
def test_json_spec_faults_exit_2_naming_the_field(tmp_path, capsys, flag, spec, message):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "verify", flag, str(f))
    assert (code, out, err) == (2, "", f"error: {f}: {message}\n")


def test_verify_poly_above_default_cap(capsys):
    # n = 13 runs with no flag: the size gate admits what memory holds
    code, out, _ = run_cli(capsys, "verify", "--poly", "x1^2", "--n", "13",
                           "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["stages"][0]["name"] == "bent"
    assert not doc["stages"][0]["ok"]


def test_verify_gmmf_file_above_default_cap(tmp_path, capsys):
    spec = {"m": 1, "s": 6, "components": [{"table": [0, 0, 0]}] * 729}
    f = tmp_path / "glue13.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "verify", "--gmmf-file", str(f), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["stages"][0]["name"] == "bent"
    assert not doc["stages"][0]["ok"]


def test_verify_refuses_an_inexact_transform_up_front(capsys):
    # 2 * 3^19 >= 2^31: refused before any table is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--poly", "x1^2", "--n", "19")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.strip() == ("error: n=19 exceeds 18, the largest dimension whose "
                           "transform is exact in int32 (2 * 3^n < 2^31)")
    assert len(err.strip().splitlines()) == 1


def test_table_file_over_the_cap_is_refused_before_its_body_is_read(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("# header first\n19 0 1\n2 x 1\n")
    code, _, err = run_cli(capsys, "verify", "--table-file", str(f))
    assert code == 2
    assert f"{f}: n=19 exceeds 18" in err
    assert "invalid literal" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("x\n0 1 1\n", "first value must be the dimension n"),
    ("1\n0 x 1\n", "table entries must be 0, 1 or 2"),
    ("1 0 1 1.0\n", "table entries must be 0, 1 or 2"),
    ("-1\n0\n", "dimension must be non-negative, got -1"),
], ids=["header", "body", "body-float", "negative-dimension"])
def test_table_file_non_integer_token_names_the_file(tmp_path, capsys, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--table-file", str(f))
    assert code == 2 and out == ""
    assert err == f"error: {f}: {message}\n"


@pytest.mark.parametrize("flag", ["--gmmf-file", "--trace-file"])
def test_json_spec_read_errors_name_the_file(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", flag, str(bad))
    assert code == 2 and err.startswith(f"error: {bad}: invalid JSON: ")
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "verify", flag, str(missing))
    assert code == 2 and err.startswith(f"error: cannot read {missing}: ")
    assert len(err.splitlines()) == 1


def test_table_file_header_may_share_its_line_with_trits(tmp_path, capsys):
    f = tmp_path / "square.txt"
    f.write_text("\n# comment\n1 0 1 # inline\n1\n")
    code, out, _ = run_cli(capsys, "verify", "--table-file", str(f), "--format", "json")
    assert code == 1
    assert json.loads(out)["type"] == "plus"


@pytest.mark.parametrize("surface", ["table-on-one-line", "table-a-value-a-line", "from_callable"])
def test_input_surfaces_tabulate_within_12_bytes_per_point(tmp_path, surface):
    # the memory guard's bytes per point are those of the verdict, so no
    # input surface may hold a 3^n-entry list of values while it reads
    n = 10
    trits = np.random.default_rng(n).integers(0, 3, size(n))
    path = tmp_path / "table.txt"
    sep = " " if surface == "table-on-one-line" else "\n"
    path.write_text(f"{n}{sep}" + sep.join(map(str, trits.tolist())) + "\n")
    if surface == "from_callable":
        read = lambda: TernaryFunction.from_callable(n, lambda c: trits[encode(c)])
    else:
        read = lambda: load_table_file(str(path))
    tracemalloc.start()
    try:
        f = read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(f.table, trits)
    assert peak <= 12 * size(n), peak / size(n)


def _run_with_address_space(limit: int, *argv: str) -> subprocess.CompletedProcess:
    """python argv in a child process whose RLIMIT_AS is lowered to limit
    bytes before it starts; this process keeps its own limits."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize("n", [16, 17])
def test_memory_guard_refuses_past_the_cap_in_one_line(n):
    # under a 1 GB address space, of which the interpreter already maps
    # about 140 MB, n = 16 and n = 17 (the guard asks 1.4 and 4.1 GB) are
    # refused before anything is tabulated
    search = ["search", "--m", str(n - 2), "--s", "1", "--count", "1"]
    proc = _run_with_address_space(10 ** 9, "-m", "tribent.cli", *search)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: n={n} needs about ")
    assert "MB this process may still take" in proc.stderr


def _admitting_n14() -> int:
    """The smallest address space the guard admits n = 14 in, plus 32 MB:
    the interpreter's own mappings (read from a probe of the same imports)
    and PEAK_BYTES_PER_POINT per point."""
    probe = ("import tribent.cli, resource; "
             "print(int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize())")
    proc = _run_with_address_space(10 ** 10, "-c", probe)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) + size(14) * PEAK_BYTES_PER_POINT + (32 << 20)


def test_memory_guard_admits_a_run_that_then_fits():
    # the run must finish in the smallest address space the guard admits
    limit = _admitting_n14()
    search = ["search", "--m", "12", "--s", "1", "--count", "1"]
    proc = _run_with_address_space(limit, "-m", "tribent.cli", *search)
    assert proc.returncode == 0, proc.stderr
    probe = "from tribent.core import memory_limit; print(memory_limit())"
    proc = _run_with_address_space(limit, "-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert size(14) * PEAK_BYTES_PER_POINT <= int(proc.stdout) < limit - (64 << 20)


def test_memory_guard_admits_a_forced_set_that_then_fits():
    # the largest measured peak per point: a --defining-set code over the
    # weakly regular sum of 14 squares, whose type side (minus, since
    # 14 % 4 == 2) is all of F_3^14, so the code has r = n
    squares = " + ".join(f"x{i}^2" for i in range(1, 15))
    verify = ["verify", "--poly", squares, "--n", "14", "--defining-set", "D0", "--format", "json"]
    proc = _run_with_address_space(_admitting_n14(), "-m", "tribent.cli", *verify)
    assert (proc.returncode, proc.stderr) == (1, "")
    doc = json.loads(proc.stdout)
    assert (doc["regularity"], doc["defining_set"]) == ("weakly-regular", "D0")
    assert doc["code"]["dimension"] == 14
