"""Command-line entry point.

Exit code contract, uniform across subcommands: 0 when the request
succeeded and any checked property holds, 1 when a checked property
fails (a structured counterexample is printed as JSON, the last stdout
line), 2 on usage, file, or format errors (a message on stderr).  Only
main keeps it: each handler returns its report, its human lines and its
failure document, and prints nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cayley import (
    CayleyError,
    ColumnDuplicate,
    FiniteQuasigroup,
    OutOfRange,
    RowDuplicate,
    parse_table_text,
)
from .characters import (
    CapExceeded,
    check_normalization,
    positive_sum_certificate,
    representation_well_defined,
    solve_characters,
    trivial_character,
)
from .identities import (
    UnknownIdentityError,
    builtin_identity,
    check_identity,
    parse_identity,
    pretty,
)
from .kunen import kunen_scan, modular_scan
from .measures import solve_quasi_invariant
from .permgroup import lmlt, mlt, rmlt
from .reports import UnknownReportKind, validate_report


def _load_table(path: str) -> FiniteQuasigroup:
    with open(path) as fh:
        return parse_table_text(fh.read())


def _cayley_failure(exc: CayleyError) -> dict:
    if isinstance(exc, RowDuplicate):
        return {"reason": "row-duplicate", "row": exc.row, "value": exc.value}
    if isinstance(exc, ColumnDuplicate):
        return {"reason": "column-duplicate", "col": exc.col, "value": exc.value}
    if isinstance(exc, OutOfRange):
        return {"reason": "out-of-range", "entry": repr(exc.entry), "order": exc.order}
    return {"reason": "invalid", "message": str(exc)}


def _cmd_validate(args) -> tuple:
    try:
        q = _load_table(args.table)
    except CayleyError as exc:
        failure = _cayley_failure(exc)
        doc = {"kind": "validate", "valid": False, "failure": failure}
        return doc, [f"invalid table: {exc}"], failure
    e = q.find_identity()
    doc = {
        "kind": "validate",
        "valid": True,
        "order": q.order,
        "is_loop": e is not None,
        "identity_element": e,
        "labels": list(q.labels) if q.labels is not None else None,
    }
    loop_line = (
        f"loop with identity {q.label_of(e)}" if e is not None else "not a loop"
    )
    return doc, [f"valid quasigroup of order {q.order}", loop_line], None


def _cmd_check_identity(args) -> tuple:
    q = _load_table(args.table)
    identity = (
        builtin_identity(args.builtin)
        if args.builtin
        else parse_identity(args.identity)
    )
    result = check_identity(q, identity, cap=args.cap)
    doc = {
        "kind": "check-identity",
        "identity": pretty(identity),
        "holds": result.holds,
        "counterexample": result.counterexample,
        "lhs_value": result.lhs_value,
        "rhs_value": result.rhs_value,
    }
    if result.holds:
        return doc, [f"holds: {pretty(identity)}"], None
    line = (
        f"fails: {pretty(identity)} "
        f"(lhs = {result.lhs_value}, rhs = {result.rhs_value})"
    )
    return doc, [line], result.counterexample


def _cmd_translations(args) -> tuple:
    q = _load_table(args.table)
    if args.element is not None and not 0 <= args.element < q.order:
        raise ValueError(f"element {args.element} outside [0, {q.order})")
    elements = [args.element] if args.element is not None else list(range(q.order))
    left, right = ([list(lines[a]) for a in elements] for lines in (q.table, q.columns))
    doc = {
        "kind": "translations",
        "order": q.order,
        "element": args.element,
        "left": left if args.side in ("left", "both") else [],
        "right": right if args.side in ("right", "both") else [],
    }
    lines = [f"L_{a}: {images}" for a, images in zip(elements, doc["left"])]
    lines += [f"R_{a}: {images}" for a, images in zip(elements, doc["right"])]
    return doc, lines, None


def _cmd_mlt(args) -> tuple:
    q = _load_table(args.table)
    group = {"left": lmlt, "right": rmlt, "both": mlt}[args.which](q)
    doc = {
        "kind": "mlt",
        "which": args.which,
        "degree": group.degree,
        "order": group.order,
        "transitive": group.is_transitive(),
        "generators": [list(g.images) for g in group.generators],
        "base": list(group.base),
    }
    summary = f"degree {group.degree}, order {group.order}, transitive: {doc['transitive']}"
    return doc, [summary] + [json.dumps(images) for images in doc["generators"]], None


def _cmd_measure(args) -> tuple:
    q = _load_table(args.table)
    sol = solve_quasi_invariant(q)
    doc = {
        "kind": "measure",
        "order": q.order,
        "measure": [str(w) for w in sol.measure.weights],
        "left_cocycle": [str(v) for v in sol.left_cocycle.values],
        "right_cocycle": [str(v) for v in sol.right_cocycle.values],
        "dimension": sol.dimension,
        "degenerate": sol.degenerate,
        "description": sol.description,
        "explanation": sol.explanation,
    }
    lines = [
        f"invariant measure space dimension {sol.dimension}: {sol.description}",
        f"measure (mass {sol.measure.mass}): {' '.join(doc['measure'])}",
        f"left cocycle j: {' '.join(doc['left_cocycle'])}",
        f"right cocycle rho: {' '.join(doc['right_cocycle'])}",
        f"degenerate (cocycles forced trivial): {sol.degenerate}",
    ]
    return doc, lines, None


def _cmd_characters(args) -> tuple:
    q = _load_table(args.table)
    basis = solve_characters(q)
    dimension = len(basis)
    oracle = positive_sum_certificate(q)
    agreement = oracle == (dimension == 0)
    chi = trivial_character(q.order)
    is_loop = q.find_identity() is not None
    normalization = check_normalization(q, chi) if is_loop else None
    audit = representation_well_defined(q, chi, element_cap=args.cap)
    doc = {
        "kind": "characters",
        "order": q.order,
        "dimension": dimension,
        "character_log": [str(c) for c in chi.log_values],
        "positive_sum_oracle": oracle,
        "agreement": agreement,
        "is_loop": is_loop,
        "normalization": normalization,
        "element_cap": args.cap,
        "representation": {
            "well_defined": audit.well_defined,
            "group_order": audit.group_order,
            "homomorphism": audit.homomorphism,
            "pairs_checked": audit.pairs_checked,
            "conflict": [list(w) for w in audit.conflict] if audit.conflict else None,
        },
    }
    lines = [
        f"log-character solution space dimension: {dimension}",
        f"positive-sum oracle agrees: {agreement}",
        "normalization chi(e) = 1: "
        + ("n/a (not a loop)" if normalization is None else str(normalization)),
        f"representation well-defined on LMlt (order {audit.group_order}): "
        f"{audit.well_defined}",
    ]
    checks = {
        "dimension": dimension == 0,
        "agreement": agreement,
        "normalization": normalization is not False,
        "well_defined": audit.well_defined,
    }
    failed = [name for name, ok in checks.items() if not ok]
    return doc, lines, {"failed": failed} if failed else None


def _cmd_axb(args) -> tuple:
    from .axb import run_verification_suite  # numpy loads only for this command

    report = run_verification_suite(
        trials=args.trials, tol=args.tol, seed=args.seed
    )
    lines = [f"seed {report['seed']}, {report['trials']} integral trials"]
    lines += [f"  {name}: max error {err:.3e}" for name, err in report["max_errors"].items()]
    if report["passed"]:
        return report, lines + ["all tolerances met"], None
    lines.append(f"tolerance violations: {', '.join(report['failures'])}")
    return report, lines, {"failures": report["failures"], "max_errors": report["max_errors"]}


def _cmd_kunen_scan(args) -> tuple:
    scan = dict(
        sample=args.sample,
        seed=args.seed,
        allow_n6=args.allow_n6,
        identity_name=args.builtin,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
    )
    if args.modular:
        if args.counterexample_dir is not None:
            raise ValueError("--counterexample-dir does not apply to --modular")
        rep = modular_scan(args.order, **scan)
        lines = [
            f"order {rep['order']} ({rep['mode']}): {rep['total_squares']} squares, "
            f"{rep['n1_count']} satisfy {args.builtin}",
            f"trivial cocycles on all satisfiers: {rep['all_trivial']} "
            f"({rep['trivial_cocycle_count']}/{rep['n1_count']})",
        ]
        return rep, lines, None if rep["all_trivial"] else {"failed": ["all_trivial"]}
    rep = kunen_scan(args.order, counterexample_dir=args.counterexample_dir, **scan)
    lines = [
        f"order {rep['order']} ({rep['mode']}): {rep['total_squares']} squares in "
        f"{rep['elapsed']:.1f}s",
        f"{args.builtin}-satisfiers: {rep['n1_count']}, of which loops: "
        f"{rep['n1_loop_count']}",
        f"loops: {rep['loop_count']} (failing {args.builtin}: {rep['loops_failing_n1']})",
        f"identity-implies-loop holds: {rep['kunen_holds']}",
    ]
    failure = {"counterexample_files": rep["counterexample_files"]}
    return rep, lines, None if rep["kunen_holds"] else failure


def _cmd_report_validate(args) -> tuple:
    from jsonschema import ValidationError  # jsonschema loads only for this command

    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    try:
        kind = validate_report(doc)
    except UnknownReportKind as exc:
        error = str(exc)
    except ValidationError as exc:
        error = exc.message
    else:
        return None, [f"valid {kind} report"], None
    return None, [f"invalid report: {error}"], {"valid": False, "error": error}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", metavar="PATH", help="write machine JSON report here")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress human output")
    common = [report, quiet]
    tabled = argparse.ArgumentParser(add_help=False, parents=common)
    tabled.add_argument("--table", required=True)

    parser = argparse.ArgumentParser(
        prog="quasilab",
        description=(
            "Desk-scale laboratory for finite quasigroups, translation "
            "calculus, invariant measures, and the ax+b group"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[tabled], help="validate a Cayley table file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "check-identity", parents=[tabled], help="test a term identity exhaustively"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", help='identity text, e.g. "((x*y)*z) = (x*(y*z))"')
    group.add_argument("--builtin", help="builtin identity name, e.g. N1")
    p.add_argument("--cap", type=_positive_int, default=4, help="max distinct variables")
    p.set_defaults(handler=_cmd_check_identity)

    p = sub.add_parser(
        "translations", parents=[tabled], help="print translation permutations"
    )
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    p.set_defaults(handler=_cmd_translations)

    p = sub.add_parser(
        "mlt", parents=[tabled], help="multiplication group order and transitivity"
    )
    p.add_argument("--which", choices=["left", "right", "both"], default="both")
    p.set_defaults(handler=_cmd_mlt)

    p = sub.add_parser(
        "measure", parents=[tabled], help="solve for quasi-invariant measures"
    )
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser(
        "characters", parents=[tabled], help="multiplicative character analysis"
    )
    p.add_argument("--cap", type=_positive_int, default=10**6, help="LMlt element cap")
    p.set_defaults(handler=_cmd_characters)

    p = sub.add_parser("axb", help="ax+b group numeric verification")
    axb_sub = p.add_subparsers(dest="axb_command", required=True)
    v = axb_sub.add_parser("verify", parents=common, help="run the full numeric suite")
    v.add_argument("--trials", type=_positive_int, default=100)
    v.add_argument("--tol", type=_positive_float, default=1e-6)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(handler=_cmd_axb)

    p = sub.add_parser(
        "kunen-scan", parents=common, help="scan Latin squares: identity vs loop"
    )
    p.add_argument("--order", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true", help="exhaustive (default)")
    mode.add_argument(
        "--sample", type=_positive_int, metavar="K", help="K seeded random squares"
    )
    p.add_argument("--seed", type=int, default=None, help="sample seed (default 0)")
    p.add_argument("--allow-n6", action="store_true", help="permit the full order-6 scan")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="workers for a full scan: this process and N - 1 child processes",
    )
    p.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="resumable tallies, one entry per first row, written as each orbit finishes",
    )
    p.add_argument("--counterexample-dir", metavar="DIR", default=None)
    p.add_argument("--builtin", default="N1", help="identity from the builtin catalog")
    p.add_argument(
        "--modular",
        action="store_true",
        help="report the invariant measures of the satisfiers instead of the loops",
    )
    p.set_defaults(handler=_cmd_kunen_scan)

    p = sub.add_parser(
        "report-validate", parents=[quiet], help="validate a JSON report file"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_report_validate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand under the exit code contract; the only code that prints.

    The handler returns (doc, lines, failure).  main writes doc to the
    --json file, prints lines unless --quiet, and prints failure, if any,
    as the last stdout line, even under --quiet, for exit 1.  An input
    error prints one line to stderr for exit 2.
    """
    args = _build_parser().parse_args(argv)
    try:
        doc, lines, failure = args.handler(args)
        if doc is not None and args.json:  # report-validate has no --json
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        if not args.quiet:
            for line in lines:
                print(line)
        if failure is None:
            return 0
        print(json.dumps(failure))
        return 1
    except CayleyError as exc:
        print(f"error: invalid table: {exc}", file=sys.stderr)
        return 2
    # file errors, TableFormatError, ParseError, VariableLimitExceeded and
    # OrderTooLarge are OSErrors or ValueErrors
    except (OSError, ValueError, UnknownIdentityError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
