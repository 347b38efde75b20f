"""Command-line front end.

Subcommands:
  examples  run the bundled worked examples (all, or one by name)
  verify    full pipeline on a user-supplied function
  search    seeded random glued-quadratic instances, aggregated pass/fail
  predict   print the closed-form weight distribution for a case/n/r

Output formats: json (one document), csv, or a human-readable table.
Exit codes: 0 all checks passed, 1 some comparison failed, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .analysis import BentType, TernaryFunction
from .codes import CodeCase, predict_distribution
from .constructions import eval_poly, function_from_spec, parse_poly
from .core import check_dim, size
from .fixtures import FIXTURES, get_fixture, run_fixture
from .pipeline import DEFINING_SET_LABELS, PipelineReport, run_pipeline
from .search import run_search

USAGE_ERROR = 2
MISMATCH = 1


class InputError(ValueError):
    """Anything wrong with user-supplied files, text, or parameters; a
    ValueError, as is every error main reports with exit code 2."""


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def load_table_file(path: str) -> TernaryFunction:
    """Plain-text table: first value is n, then 3^n trits, '#' comments.

    The file is read up to its first value and n passes the size gate,
    check_dim, before the rest is read or tokenized.  The trits are then
    read a line at a time straight into an int8 table, so no list of 3^n
    values is built; a value outside int8 stops the read as a bad entry,
    and so does a token that is not an integer.
    """

    def tokens(line: str) -> list[str]:
        return line.split("#", 1)[0].split()

    bad_entry = InputError(f"{path}: table entries must be 0, 1 or 2")
    try:
        with open(path) as fh:
            head = next((toks for toks in map(tokens, fh) if toks), None)
            if head is None:
                raise InputError(f"{path}: empty table file")
            try:
                n = int(head[0])
            except ValueError as exc:
                raise InputError(f"{path}: first value must be the dimension n") from exc
            try:
                check_dim(n)
            except ValueError as exc:  # a negative n, or DimensionCapError
                raise InputError(f"{path}: {exc}") from exc
            values = chain(islice(head, 1, None), chain.from_iterable(map(tokens, fh)))
            try:
                table = np.fromiter(map(int, values), dtype=np.int8)
            except (OverflowError, ValueError) as exc:
                raise bad_entry from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(table) != size(n):
        raise InputError(f"{path}: expected 3^{n} = {size(n)} values, found {len(table)}")
    if table.view(np.uint8).max() > 2:
        raise bad_entry
    return TernaryFunction(n, table)


def load_spec_file(path: str) -> TernaryFunction:
    """A JSON glue or trace spec (--spec-file), in the format
    constructions.function_from_spec reads; its one-line errors, and a
    refusal by the size gate, are prefixed with the path."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return function_from_spec(data)
    except ValueError as exc:  # DimensionCapError too
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_WEIGHT_HEADER = ["weight", "count"]


def _emit(fmt: str, doc: dict | list, header: list[str], rows: list,
          lines: list[str]) -> None:
    """Print one result in the chosen format: doc as one JSON document,
    header and rows as CSV, or lines as the table."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print("\n".join(lines))


def _parameters(length: int, dimension: int, min_distance: int) -> str:
    return f"[{length},{dimension},{min_distance}]_3"


def _weight_table(pairs: list[tuple[int, int]]) -> list[str]:
    return ["Hamming weight a | multiplicity E_a",
            "-----------------+-----------------",
            *(f"{w:>16d} | {e}" for w, e in pairs)]


def report_lines(rep: PipelineReport, name: str | None = None) -> list[str]:
    """The table lines of one pipeline report, headed by name if given."""
    lines = []
    if name:
        lines.append(f"== {name}")
    for st in rep.stages:
        mark = "ok " if st.ok else "FAIL"
        detail = f"  ({st.detail})" if st.detail else ""
        lines.append(f"  [{mark}] {st.name}{detail}")
    summary = (f"  type={rep.type} regularity={rep.regularity} j0={rep.j0} "
               f"r={rep.r} case={rep.case} set={rep.defining_set}")
    lines.append(summary)
    if rep.code:
        c = rep.code
        lines.append(f"  code {_parameters(c.length, c.dimension, c.min_distance)}  "
                     f"enumerator {c.enumerator}")
        lines.extend("    " + line for line in _weight_table(c.distribution))
        if c.prediction:
            lines.append(f"  prediction {c.prediction['enumerator']}  "
                         f"match={c.match}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    lines.append(f"  passed: {rep.passed}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_examples(args) -> int:
    fixtures = [get_fixture(args.name)] if args.name else list(FIXTURES)
    results = [run_fixture(fx) for fx in fixtures]
    doc, rows, lines = [], [], []
    for res in results:
        c = res.report.code
        doc.append({
            "name": res.fixture.name,
            "expected": {key: res.fixture.expect[key]
                         for key in ("parameters", "enumerator")},
            "report": res.report.to_dict(),
            "mismatches": res.mismatches,
            "ok": res.ok,
        })
        rows.append([
            res.fixture.name, res.report.case,
            *((c.n, c.length, c.dimension, c.min_distance, c.enumerator) if c else ("",) * 5),
            res.ok,
        ])
        lines.extend(report_lines(res.report, name=res.fixture.name))
        for mm in res.mismatches:
            lines.append(f"  MISMATCH: {mm}")
        lines.append(f"  fixture: {'PASS' if res.ok else 'FAIL'}")
    header = ["name", "case", "n", "length", "dimension",
              "min_distance", "enumerator", "ok"]
    _emit(args.format, doc, header, rows, lines)
    return 0 if all(res.ok for res in results) else MISMATCH


def cmd_verify(args) -> int:
    sources = [bool(args.poly), bool(args.table_file), bool(args.spec_file)]
    if sum(sources) != 1:
        raise InputError("provide exactly one of --poly/--table-file/--spec-file")
    if args.poly:
        if args.n is None:
            raise InputError("--poly needs --n")
        f = eval_poly(parse_poly(args.poly, args.n))
    elif args.table_file:
        f = load_table_file(args.table_file)
    else:
        f = load_spec_file(args.spec_file)
    rep = run_pipeline(f, force_set=args.defining_set)
    _emit(args.format, rep.to_dict(), _WEIGHT_HEADER,
          rep.code.distribution if rep.code else [], report_lines(rep))
    return 0 if rep.passed else MISMATCH


def cmd_search(args) -> int:
    side = BentType.PLUS if args.side == "plus" else BentType.MINUS
    summary = run_search(args.m, args.s, args.count, args.seed,
                         side=side, u_dim=args.u_dim)
    rows, lines = [], []
    for o in summary.outcomes:
        c = o.report.code
        rows.append([
            o.index, o.j0, o.u_dim, o.report.case, o.report.eligible,
            *((c.length, c.dimension, c.min_distance) if c else ("",) * 3),
            o.report.passed,
        ])
        params = _parameters(c.length, c.dimension, c.min_distance) if c else "-"
        status = ("match" if o.report.passed else
                  "MISMATCH" if o.report.eligible else
                  "skipped: " + o.report.failed_stage)
        lines.append(f"instance {o.index:3d}  j0={o.j0}  case={o.report.case or '-':11s}"
                     f"  {params:18s}  {status}")
    lines.append(f"summary: {summary.matched} matched, {summary.mismatched} mismatched, "
                 f"{summary.skipped} skipped, of {len(summary.outcomes)}")
    header = ["index", "j0", "u_dim", "case", "eligible",
              "length", "dimension", "min_distance", "passed"]
    _emit(args.format, summary.to_dict(), header, rows, lines)
    return 0 if summary.mismatched == 0 else MISMATCH


def cmd_predict(args) -> int:
    case = CodeCase(args.case)
    pred = predict_distribution(case, args.n, args.r)
    pairs = sorted(pred.distribution.items())
    doc = {
        "case": case.value,
        "n": args.n,
        "r": args.r,
        "length": pred.length,
        "dimension": pred.r,
        "min_distance": pred.min_distance,
        "distribution": [list(p) for p in pairs],
    }
    lines = [f"case {case.value}, n={args.n}, r={args.r}: "
             f"{_parameters(pred.length, pred.r, pred.min_distance)}",
             *_weight_table(pairs)]
    if pred.alt_low_weight_count is not None:
        doc["alt_low_weight_count"] = pred.alt_low_weight_count
        lines.append(f"note: an alternative tabulated reading puts "
                     f"{pred.alt_low_weight_count} at weight {pred.min_distance}; "
                     f"the counting argument above is the one measurements match")
    _emit(args.format, doc, _WEIGHT_HEADER, pairs, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribent",
        description="Exact ternary bent-function analysis and the "
                    "three-weight codes of their dual pre-image sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")

    p_ex = sub.add_parser("examples", help="run bundled worked examples")
    p_ex.add_argument("--name", choices=[f.name for f in FIXTURES])
    add_common(p_ex)
    p_ex.set_defaults(func=cmd_examples)

    p_ver = sub.add_parser("verify", help="run the pipeline on an input function")
    p_ver.add_argument("--poly", help="polynomial text, e.g. '2*x1^2 + x2*x3'")
    p_ver.add_argument("--n", type=int, help="variable count for --poly")
    p_ver.add_argument("--table-file", help="text file: n, then 3^n trits")
    p_ver.add_argument("--spec-file", "--gmmf-file", "--trace-file",
                       help="JSON glue or trace spec, told apart by its 'k' key")
    p_ver.add_argument("--defining-set", choices=DEFINING_SET_LABELS,
                       help="build this pre-image set's code even if "
                            "hypotheses fail; when they all hold, the "
                            "selected set is built and a note names both")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_se = sub.add_parser("search", help="random glued-quadratic instances")
    p_se.add_argument("--m", type=int, required=True)
    p_se.add_argument("--s", type=int, required=True)
    p_se.add_argument("--count", type=int, default=20)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--side", choices=("plus", "minus"), default="plus")
    p_se.add_argument("--u-dim", type=int, default=0,
                      help="dimension of the target type subspace in F_3^s")
    add_common(p_se)
    p_se.set_defaults(func=cmd_search)

    p_pr = sub.add_parser("predict", help="closed-form distribution for a case")
    p_pr.add_argument("--case", required=True,
                      choices=[c.value for c in CodeCase])
    p_pr.add_argument("--n", type=int, required=True)
    p_pr.add_argument("--r", type=int, required=True)
    add_common(p_pr)
    p_pr.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
