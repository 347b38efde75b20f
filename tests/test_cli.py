import csv
import io
import json

import pytest

from tribent.cli import main
from tribent.fields import find_irreducible


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_search_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "--m", "3", "--s", "1",
                           "--count", "5", "--seed", "4", "--side", "minus")
    assert code == 0
    assert "5 matched" in out


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


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--name", "no-such-fixture"])
    assert exc.value.code == 2


def test_max_n_cap(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("1\n0 1 1\n")
    code, _, _ = run_cli(capsys, "verify", "--table-file", str(f), "--max-n", "1")
    assert code == 1  # runs fine under the raised/explicit cap


@pytest.mark.parametrize("entry", [300, 5])
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


def test_verify_poly_above_default_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--poly", "x1^2", "--n", "13",
                           "--max-n", "13", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["stages"][0]["name"] == "bent"
    assert not doc["stages"][0]["ok"]
