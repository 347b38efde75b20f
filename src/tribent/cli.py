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
import io
import json
import sys
from pathlib import Path

from .analysis import BentType, TernaryFunction
from .codes import CodeCase, predict_distribution
from .constructions import (
    GmmfSpec,
    PolyParseError,
    QuadraticForm,
    TraceSpec,
    eval_poly,
    gmmf_build,
    parse_poly,
    quadratic_function,
    trace_function,
)
from .core import DimensionCapError, check_dim, size
from .fields import ExtField
from .fixtures import FIXTURES, get_fixture, run_fixture
from .pipeline import PipelineReport, run_pipeline
from .search import run_search

USAGE_ERROR = 2
MISMATCH = 1


class InputError(Exception):
    """Anything wrong with user-supplied files, text, or parameters."""


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def load_table_file(path: str, cap: int | None) -> TernaryFunction:
    """Plain-text table: first value is n, then 3^n trits, '#' comments."""
    values: list[int] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        values.extend(int(tok) for tok in line.split())
    if not values:
        raise InputError(f"{path}: empty table file")
    n, trits = values[0], values[1:]
    check_dim(n, cap)
    if len(trits) != size(n):
        raise InputError(f"{path}: expected 3^{n} = {size(n)} values, found {len(trits)}")
    _check_trits(path, trits)
    return TernaryFunction(n, trits)


def _check_trits(path: str, trits: list) -> None:
    if any(t not in (0, 1, 2) for t in trits):
        raise InputError(f"{path}: table entries must be 0, 1 or 2")


def load_gmmf_file(path: str, cap: int | None) -> TernaryFunction:
    """JSON spec: {"m": int, "s": int, "components": [...]}.

    Each component is {"d": [coeffs], "c": const} for a diagonal
    quadratic, or {"table": [...]} as an explicit table on F_3^m, listed
    in parameter-index order (all 3^s of them).
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        m, s = int(data["m"]), int(data["s"])
        check_dim(m + 2 * s, cap)
        comps = []
        for entry in data["components"]:
            if "table" in entry:
                _check_trits(path, entry["table"])
                comps.append(TernaryFunction(m, entry["table"]))
            else:
                q = QuadraticForm(tuple(int(c) for c in entry["d"]),
                                  int(entry.get("c", 0)))
                comps.append(quadratic_function(q))
        spec = GmmfSpec(m, s, tuple(comps))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad glue spec: {exc}") from exc
    return gmmf_build(spec)


def load_trace_file(path: str, cap: int | None) -> TernaryFunction:
    """JSON spec: {"k", "modulus", "generator", "terms"}.

    modulus lists coefficients lowest degree first (monic); generator is
    a field element as an integer encoding or a digit list; terms are
    [generator_power, exponent] pairs.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        k = int(data["k"])
        check_dim(k, cap)
        modulus = tuple(int(c) for c in data["modulus"])
        gen = data["generator"]
        if isinstance(gen, list):
            gen = sum((int(d) % 3) * 3 ** i for i, d in enumerate(gen))
        terms = tuple((int(c), int(e)) for c, e in data["terms"])
        field = ExtField.create(k, modulus, int(gen))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad trace spec: {exc}") from exc
    return trace_function(TraceSpec(field, terms))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _weight_table(pairs: list[tuple[int, int]]) -> str:
    lines = ["Hamming weight a | multiplicity E_a",
             "-----------------+-----------------"]
    for w, e in pairs:
        lines.append(f"{w:>16d} | {e}")
    return "\n".join(lines)


def render_report(rep: PipelineReport, fmt: str, name: str | None = None) -> str:
    if fmt == "json":
        doc = rep.to_dict()
        if name:
            doc["name"] = name
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["weight", "count"])
        if rep.code:
            for w, c in rep.code.distribution:
                writer.writerow([w, c])
        return buf.getvalue().rstrip("\n")
    lines = []
    if name:
        lines.append(f"== {name}")
    for st in rep.stages:
        mark = "ok " if st.ok else "FAIL"
        detail = f"  ({st.detail})" if st.detail else ""
        lines.append(f"  [{mark}] {st.name}{detail}")
    summary = (f"  type={rep.type} regularity={rep.regularity} j0={rep.j0} "
               f"r={rep.r} case={rep.case} set={rep.defining_label}")
    lines.append(summary)
    if rep.code:
        c = rep.code
        lines.append(f"  code [{c.length},{c.dimension},{c.min_distance}]_3  "
                     f"enumerator {c.enumerator}")
        lines.append(_indent(_weight_table(c.distribution), 4))
        if c.prediction:
            lines.append(f"  prediction {c.prediction['enumerator']}  "
                         f"match={c.match}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    lines.append(f"  passed: {rep.passed}")
    return "\n".join(lines)


def _indent(text: str, k: int) -> str:
    pad = " " * k
    return "\n".join(pad + ln for ln in text.splitlines())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_examples(args) -> int:
    fixtures = [get_fixture(args.name)] if args.name else list(FIXTURES)
    results = [run_fixture(fx) for fx in fixtures]
    if args.format == "json":
        doc = [
            {
                "name": res.fixture.name,
                "expected": {
                    "parameters": list(res.fixture.parameters),
                    "enumerator": res.fixture.enumerator,
                },
                "report": res.report.to_dict(),
                "mismatches": res.mismatches,
                "ok": res.ok,
            }
            for res in results
        ]
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "case", "n", "length", "dimension",
                         "min_distance", "enumerator", "ok"])
        for res in results:
            c = res.report.code
            writer.writerow([
                res.fixture.name, res.report.case,
                c.n if c else "", c.length if c else "",
                c.dimension if c else "", c.min_distance if c else "",
                c.enumerator if c else "", res.ok,
            ])
    else:
        for res in results:
            print(render_report(res.report, "table", name=res.fixture.name))
            if res.mismatches:
                for mm in res.mismatches:
                    print(f"  MISMATCH: {mm}")
            print(f"  fixture: {'PASS' if res.ok else 'FAIL'}")
    return 0 if all(res.ok for res in results) else MISMATCH


def cmd_verify(args) -> int:
    cap = args.max_n
    sources = [bool(args.poly), bool(args.table_file),
               bool(args.gmmf_file), bool(args.trace_file)]
    if sum(sources) != 1:
        raise InputError("provide exactly one of --poly/--table-file/"
                         "--gmmf-file/--trace-file")
    if args.poly:
        if args.n is None:
            raise InputError("--poly needs --n")
        f = eval_poly(parse_poly(args.poly, args.n), cap)
    elif args.table_file:
        f = load_table_file(args.table_file, cap)
    elif args.gmmf_file:
        f = load_gmmf_file(args.gmmf_file, cap)
    else:
        f = load_trace_file(args.trace_file, cap)
    rep = run_pipeline(f, force_set=args.defining_set)
    print(render_report(rep, args.format))
    return 0 if rep.passed else MISMATCH


def cmd_search(args) -> int:
    side = BentType.PLUS if args.side == "plus" else BentType.MINUS
    summary = run_search(args.m, args.s, args.count, args.seed,
                         side=side, u_dim=args.u_dim, cap=args.max_n)
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "j0", "u_dim", "case", "eligible",
                         "length", "dimension", "min_distance", "passed"])
        for o in summary.outcomes:
            c = o.report.code
            writer.writerow([
                o.index, o.j0, o.u_dim, o.report.case, o.eligible,
                c.length if c else "", c.dimension if c else "",
                c.min_distance if c else "", o.report.passed,
            ])
    else:
        for o in summary.outcomes:
            c = o.report.code
            params = f"[{c.length},{c.dimension},{c.min_distance}]_3" if c else "-"
            status = ("match" if o.matched else
                      "MISMATCH" if o.eligible else
                      "skipped: " + next(s.name for s in o.report.stages if not s.ok))
            print(f"instance {o.index:3d}  j0={o.j0}  case={o.report.case or '-':11s}"
                  f"  {params:18s}  {status}")
        print(f"summary: {summary.matched} matched, {summary.mismatched} mismatched, "
              f"{summary.skipped} skipped, of {len(summary.outcomes)}")
    return 0 if summary.mismatched == 0 else MISMATCH


def cmd_predict(args) -> int:
    case = CodeCase(args.case)
    try:
        pred = predict_distribution(case, args.n, args.r)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    pairs = sorted(pred.distribution.items())
    if args.format == "json":
        doc = {
            "case": case.value,
            "n": args.n,
            "r": args.r,
            "length": pred.length,
            "dimension": pred.r,
            "min_distance": pred.min_distance,
            "distribution": [list(p) for p in pairs],
        }
        if pred.alt_low_weight_count is not None:
            doc["alt_low_weight_count"] = pred.alt_low_weight_count
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["weight", "count"])
        for w, e in pairs:
            writer.writerow([w, e])
    else:
        print(f"case {case.value}, n={args.n}, r={args.r}: "
              f"[{pred.length},{pred.r},{pred.min_distance}]_3")
        print(_weight_table(pairs))
        if pred.alt_low_weight_count is not None:
            print(f"note: an alternative tabulated reading puts "
                  f"{pred.alt_low_weight_count} at weight {pred.min_distance}; "
                  f"the counting argument above is the one measurements match")
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
        p.add_argument("--max-n", type=int, default=None,
                       help="raise the ambient dimension cap")

    p_ex = sub.add_parser("examples", help="run bundled worked examples")
    p_ex.add_argument("--name", choices=[f.name for f in FIXTURES])
    add_common(p_ex)
    p_ex.set_defaults(func=cmd_examples)

    p_ver = sub.add_parser("verify", help="run the pipeline on an input function")
    p_ver.add_argument("--poly", help="polynomial text, e.g. '2*x1^2 + x2*x3'")
    p_ver.add_argument("--n", type=int, help="variable count for --poly")
    p_ver.add_argument("--table-file", help="text file: n, then 3^n trits")
    p_ver.add_argument("--gmmf-file", help="JSON component-glue spec")
    p_ver.add_argument("--trace-file", help="JSON trace-form spec")
    p_ver.add_argument("--defining-set",
                       choices=[f"{s}{i}" for s in "CD" for i in range(3)],
                       help="build this pre-image set's code even if "
                            "hypotheses fail")
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
    except (InputError, PolyParseError, DimensionCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
