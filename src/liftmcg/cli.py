"""Command-line surface: validate, enumerate, analyze, present, classify,
table1, verify.

Exit codes: 0 success; 1 usage/parse error or an unwritable --out path;
2 validation or verification failure, or an input outside the analysis
scope (the library's OutOfScopeError: an invalid data set, g0 != 0,
genus < 2, or classify with k != 3), with the reason written where the
output would go (stdout or --out); 3 analysis refused by a capacity guard.
Exit codes 1 and 3 print one ``error:`` line on stderr.  JSON output is
byte-stable across runs for identical inputs.  The argument parser is
built once per process, on the first call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .analysis import (
    analyze,
    classification_json,
    normalizer_centralizer,
    normalizer_spec_json,
    render_normalizer_specs,
    render_report,
    render_table_genus3,
    render_verification,
    report_json,
    table_genus3,
    table_json,
    verification_json,
    verify_doubled_matrices,
)
from .arith_perm import OutOfScopeError
from .datasets import (
    DataSetParseError,
    enumerate_spherical,
    parse_dataset,
    render_dataset,
    validate,
)
from .genvec import classify_irreducible, generating_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _genus(text: str) -> int:
    # int() also takes other scripts' digits, signs, spaces and underscores
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"genus must be ASCII decimal digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on integer digits
        raise argparse.ArgumentTypeError(f"genus of {len(text)} digits is too long") from None


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write output to PATH")

    parser = _Parser(
        prog="liftmcg",
        description="Liftable mapping class groups of cyclic branched covers "
                    "of the sphere.",
        epilog="Data sets are written (n,g0;(d1,n1),(d2,n2),...) with an "
               "optional (d,m)_r repetition suffix. Exit codes: 0 success, "
               "1 usage or parse error, 2 validation or verification failure "
               "or out-of-scope input (reason on stdout), 3 analysis refused "
               "by a capacity guard.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the data-set conditions")
    p.add_argument("dataset")

    p = sub.add_parser("enumerate", parents=[common],
                       help="all spherical classes of a given genus, canonical forms")
    p.add_argument("genus", type=_genus)

    p = sub.add_parser("analyze", parents=[common],
                       help="full analysis of one data set")
    p.add_argument("dataset")

    p = sub.add_parser("present", parents=[common],
                       help="normalizer and centralizer presentations")
    p.add_argument("dataset")

    p = sub.add_parser("classify", parents=[common],
                       help="isomorphism types for 3-branch-point data sets")
    p.add_argument("dataset")

    sub.add_parser("table1", parents=[common],
                   help="the genus-3 classification table")

    sub.add_parser("verify", parents=[common],
                   help="check the order-6 normalizer relations in homology")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def _cmd_validate(args) -> tuple[str, int]:
    ds = parse_dataset(args.dataset)
    report = validate(ds)
    if args.format == "json":
        payload = {
            "dataset": render_dataset(ds),
            "valid": report.ok,
            "genus": report.genus,
            "violations": list(report.violations),
            "flags": list(report.flags),
        }
        return _json_text(payload), EXIT_OK if report.ok else EXIT_INVALID
    if report.ok:
        note = " (outside the genus >= 2 scope)" if report.flags else ""
        return f"valid, genus {report.genus}{note}", EXIT_OK
    return ("invalid: " + ", ".join(report.violations)), EXIT_INVALID


def _cmd_enumerate(args) -> tuple[str, int]:
    try:
        found = enumerate_spherical(args.genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        payload = {
            "genus": args.genus,
            "count": len(found),
            "datasets": [render_dataset(ds) for ds in found],
        }
        return _json_text(payload), EXIT_OK
    lines = [render_dataset(ds) for ds in found]
    lines.append(f"{len(found)} classes of genus {args.genus}")
    return "\n".join(lines), EXIT_OK


def _cmd_analyze(args) -> tuple[str, int]:
    rep = analyze(parse_dataset(args.dataset))
    if args.format == "json":
        return _json_text(report_json(rep)), EXIT_OK
    return render_report(rep), EXIT_OK


def _cmd_present(args) -> tuple[str, int]:
    ds = parse_dataset(args.dataset)
    norm, cent = normalizer_centralizer(ds)
    if args.format == "json":
        payload = {
            "dataset": render_dataset(ds),
            "normalizer": normalizer_spec_json(norm),
            "centralizer": normalizer_spec_json(cent),
        }
        return _json_text(payload), EXIT_OK
    return render_normalizer_specs(norm, cent), EXIT_OK


def _cmd_classify(args) -> tuple[str, int]:
    ds = parse_dataset(args.dataset)
    cls = classify_irreducible(generating_vector(ds))
    if args.format == "json":
        payload = {"dataset": render_dataset(ds)}
        payload.update(classification_json(cls))
        return _json_text(payload), EXIT_OK
    return (f"case ({cls.case}): N(F) = {cls.normalizer.render()}, "
            f"C(F) = {cls.centralizer.render()}, LMod = {cls.lmod.render()}"), EXIT_OK


def _cmd_table1(args) -> tuple[str, int]:
    rows = table_genus3()
    if args.format == "json":
        return _json_text(table_json(rows)), EXIT_OK
    return render_table_genus3(rows), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    ver = verify_doubled_matrices()
    code = EXIT_OK if ver.ok else EXIT_INVALID
    if args.format == "json":
        return _json_text(verification_json(ver)), code
    return render_verification(ver), code


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "analyze": _cmd_analyze,
    "present": _cmd_present,
    "classify": _cmd_classify,
    "table1": _cmd_table1,
    "verify": _cmd_verify,
}


_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        text, code = _COMMANDS[args.verb](args)
    except (UsageError, DataSetParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutOfScopeError as exc:  # the reason is the output
        text, code = str(exc), EXIT_INVALID
    except ValueError as exc:  # CapacityError and any other refusal
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SystemExit as exc:  # argparse --help exits 0
        return exc.code or EXIT_OK
    try:
        _emit(text, args.out)
    except BrokenPipeError:
        # the reader closed early (e.g. `| head`); silence the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:  # e.g. --out into a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
