"""Command-line surface: validate, enumerate, analyze, present, classify,
table1, verify.

Exit codes: 0 success; 1 usage/parse error or an unwritable --out path;
2 validation or verification failure, or an input outside the analysis
scope (the library's OutOfScopeError: an invalid data set, g0 != 0,
genus < 2, or classify with k != 3), with the reason written where the
output would go (stdout or --out); 3 analysis refused by a capacity guard.
Exit codes 1 and 3 print one ``error:`` line on stderr.  ``main`` alone
chooses between JSON and text: each verb hands it both outputs unbuilt.
JSON output is one line, with json.dumps' default separators, so that
CPython writes it with its C encoder (an indent would select the pure-Python
one), and byte-stable across runs for identical inputs.  The argument parser
is built once per process, on the first call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

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
    for verb, (_, help_text, positional) in _VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text)
        if positional:
            p.add_argument(positional, type=_genus if positional == "genus" else None)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# Each verb returns (JSON payload, text, exit code), both outputs deferred:
# main builds only the one that --format names.


def _cmd_validate(args):
    ds = parse_dataset(args.dataset)
    report = validate(ds)
    note = " (outside the genus >= 2 scope)" if report.flags else ""
    return (lambda: {"dataset": render_dataset(ds), "valid": report.ok, "genus": report.genus,
                     "violations": list(report.violations), "flags": list(report.flags)},
            lambda: (f"valid, genus {report.genus}{note}" if report.ok
                     else "invalid: " + ", ".join(report.violations)),
            EXIT_OK if report.ok else EXIT_INVALID)


def _cmd_enumerate(args):
    try:
        found = [render_dataset(ds) for ds in enumerate_spherical(args.genus)]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return (lambda: {"genus": args.genus, "count": len(found), "datasets": found},
            lambda: "\n".join([*found, f"{len(found)} classes of genus {args.genus}"]), EXIT_OK)


def _cmd_analyze(args):
    rep = analyze(parse_dataset(args.dataset))
    return partial(report_json, rep), partial(render_report, rep), EXIT_OK


def _cmd_present(args):
    ds = parse_dataset(args.dataset)
    norm, cent = normalizer_centralizer(ds)
    return (lambda: {"dataset": render_dataset(ds), "normalizer": normalizer_spec_json(norm),
                     "centralizer": normalizer_spec_json(cent)},
            partial(render_normalizer_specs, norm, cent), EXIT_OK)


def _cmd_classify(args):
    ds = parse_dataset(args.dataset)
    cls = classify_irreducible(generating_vector(ds))
    return (lambda: {"dataset": render_dataset(ds), **classification_json(cls)},
            lambda: (f"case ({cls.case}): N(F) = {cls.normalizer.render()}, "
                     f"C(F) = {cls.centralizer.render()}, LMod = {cls.lmod.render()}"), EXIT_OK)


def _cmd_table1(args):
    rows = table_genus3()
    return partial(table_json, rows), partial(render_table_genus3, rows), EXIT_OK


def _cmd_verify(args):
    ver = verify_doubled_matrices()
    return (partial(verification_json, ver), partial(render_verification, ver),
            EXIT_OK if ver.ok else EXIT_INVALID)


# verb -> (command, help text, positional argument or None), in --help order
_VERBS = {
    "validate": (_cmd_validate, "check the data-set conditions", "dataset"),
    "enumerate": (_cmd_enumerate, "all spherical classes of a given genus, canonical forms",
                  "genus"),
    "analyze": (_cmd_analyze, "full analysis of one data set", "dataset"),
    "present": (_cmd_present, "normalizer and centralizer presentations", "dataset"),
    "classify": (_cmd_classify, "isomorphism types for 3-branch-point data sets", "dataset"),
    "table1": (_cmd_table1, "the genus-3 classification table", None),
    "verify": (_cmd_verify, "check every relator of the order-6 class's N(F) and C(F) "
               "in homology", None),
}


_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload, render, code = _VERBS[args.verb][0](args)
        text = json.dumps(payload()) if args.format == "json" else render()
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
