"""The benchmark's three workloads, each a list of closed-loop operations.

An operation is one call into the library (``call``) and the check of its
answer against the reference (``check``), which the runner keeps outside the
timed region.  ``build`` receives the freshly imported library and the
reference and returns the operations in canonical order; the runner shuffles
them with the run's seed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import factorial
from typing import Callable, NamedTuple

import oracle

SWEEP_GENERA = (2, 3, 4, 5, 6)
ABELIANIZE_GENERA = (2, 3, 4, 5)
CLI_GENERA = tuple(range(2, 9))
ENUMERATE_GENERA = tuple(range(2, 13))
DOUBLED_BASES = ("(6,0;(2,3),(1,6),(1,6))", "(8,0;(1,4),(5,8),(1,8))",
                 "(10,0;(1,5),(7,10),(1,10))")

# Operations left out.  They fail at this version, or they take so long that
# one pass would not fit the run time that the benchmark's total budget allows
# (about 30 s a run).  Each is a known defect of this version; every result
# file lists them, and a change that fixes one adds it back.
EXCLUDED = {
    "sweep_g2_6": {
        "(2,0;(1,2)_14)": "CapacityError: degree 14 exceeds the cap of 12",
        "(3,0;(1,3)_4,(2,3)_4)": "22 s, nearly all in Tietze",
        "(4,0;(1,2)_6,(1,4),(3,4))": "13.5 s, nearly all in Tietze",
        "(4,0;(1,2)_3,(1,4)_3,(3,4))": "about 60 s in Tietze (29 s for each of H1, H2)",
        "(6,0;(1,2)_2,(1,3)_2,(2,3)_2)": "9.3 s, nearly all in Tietze",
        "(6,0;(1,2)_3,(1,3)_2,(5,6))": "5.5-6.8 s, nearly all in Tietze",
    },
    "abelianize_raw": {
        "(4,0;(1,2)_2,(1,4)_2,(3,4)_2):h2": "10-12.5 s in Smith normal form (1620 x 361 "
                                            "matrix), more than all other operations together",
    },
    "cli_mix": {
        "analyze (2,0;(1,2)_14)": "CapacityError (hyperelliptic genus 6)",
        "present (2,0;(1,2)_14)": "CapacityError (hyperelliptic genus 6)",
        "analyze (2,0;(1,2)_16)": "CapacityError (hyperelliptic genus 7)",
        "present (2,0;(1,2)_16)": "CapacityError (hyperelliptic genus 7)",
    },
}


class Op(NamedTuple):
    verb: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


class Workload(NamedTuple):
    """One workload; BENCHMARK.json says why each exists."""

    name: str
    limit_s: float    # per-operation hang guard, several times the slowest operation
    pass_s: float     # time of one pass with its checks at this version
    build: Callable[[object, dict], list]


def keyed(lib, datasets) -> list:
    render = lib.datasets.render_dataset
    return [(render(ds), ds) for ds in datasets]


def spherical(lib, genera) -> list:
    return keyed(lib, [ds for g in genera for ds in lib.datasets.enumerate_spherical(g)])


def three_point_classes(lib) -> list:
    return [(key, ds) for key, ds in spherical(lib, CLI_GENERA) if ds.k == 3]


def family_members(lib) -> list:
    """The hyperelliptic, balanced-superelliptic and doubled members of the
    acceptance tests."""
    d = lib.datasets
    out = [d.hyperelliptic(g) for g in range(2, 8)]
    out += [d.balanced_superelliptic(n, k) for n, k in ((3, 1), (3, 2), (5, 1))]
    for g in (2, 4, 6, 8):
        out.append(d.dataset(2 * g + 2, 0, ((1, 2), (1, 2), (1, g + 1), (-1, g + 1))))
        out.append(d.dataset(2 * g, 0, ((1, 2), (1, 2), (1, 2 * g), (-1, 2 * g))))
    out += [d.doubled(d.parse_dataset(b)) for b in DOUBLED_BASES]
    return keyed(lib, out)


# ---------------------------------------------------------------------------
# analyze sweeps


def _check_analyze(lib, entry, rep):
    return oracle.check_report(entry, lib.analysis.report_json(rep))


def _analyze_ops(lib, ref, name, genera) -> list:
    skip = EXCLUDED.get(name, {})
    return [Op("analyze", key, partial(lib.analysis.analyze, ds),
               partial(_check_analyze, lib, ref["classes"][key]))
            for key, ds in spherical(lib, genera) if key not in skip]


def build_sweep(lib, ref):
    return _analyze_ops(lib, ref, "sweep_g2_6", SWEEP_GENERA)


# ---------------------------------------------------------------------------
# raw abelianization


def _raw_presentation(lib, ds, which, entry):
    """The unsimplified presentation of the preimage of H1 or H2: the sphere
    presentations at index 1 and for the trivial subgroup, else the raw
    Reidemeister-Schreier output."""
    fp = lib.fpgroups
    k = entry["k"]
    if entry[which] == factorial(k):
        return fp.mod_sphere_presentation(k)
    if entry[which] == 1:
        return fp.pmod_sphere_presentation(k)
    gv = lib.genvec
    stab = gv.liftable_images(gv.generating_vector(ds), cross_check=False)
    subgroup = stab.h1 if which == "h1" else stab.h2
    return fp.reidemeister_schreier_full(
        fp.mod_sphere_presentation(k), fp.psi_images(k), subgroup)[0]


def _abelianize_raw(lib, ds, which, entry):
    p = _raw_presentation(lib, ds, which, entry)
    return p, lib.fpgroups.abelianization(p)


def _check_abelianize(lib, want, result):
    p, ab = result
    letters = sum(len(w) for w in lib.fpgroups.presentation_json(p)["relators"])
    got = oracle.normalize_ab(ab)
    return (None if got == want else f"abelianization: got {got}, expected {want}"), letters


def build_abelianize(lib, ref):
    skip = EXCLUDED["abelianize_raw"]
    ops = []
    for key, ds in spherical(lib, ABELIANIZE_GENERA):
        entry = ref["classes"][key]
        for which, ab_key in (("h1", "lmod_ab"), ("h2", "clmod_ab")):
            if f"{key}:{which}" not in skip:
                ops.append(Op("abelianize", f"{key}:{which}",
                              partial(_abelianize_raw, lib, ds, which, entry),
                              partial(_check_abelianize, lib, entry[ab_key])))
    return ops


# ---------------------------------------------------------------------------
# command-line mix


def _run_cli(main, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _cli_check(check, result):
    code, text = result
    if code != 0:
        return f"exit code {code}", 0
    out = check(text)
    return out if isinstance(out, tuple) else (out, 0)


def build_cli(lib, ref):
    classes = ref["classes"]
    checks = []
    for key, _ in three_point_classes(lib):
        entry = classes[key]
        checks += [
            (["validate", key], partial(oracle.check_validate_text, entry)),
            (["classify", key], partial(oracle.check_classify_text, entry)),
            (["analyze", "--format", "json", key],
             lambda text, e=entry: oracle.check_report(e, json.loads(text))),
            (["present", "--format", "json", key],
             lambda text, e=entry: oracle.check_present_json(e, json.loads(text))),
        ]
    for key, _ in family_members(lib):
        entry = classes[key]
        checks += [
            (["validate", key], partial(oracle.check_validate_text, entry)),
            (["analyze", key], partial(oracle.check_analyze_text, entry)),
            (["present", key], partial(oracle.check_present_text, entry)),
        ]
    checks += [
        (["table1", "--format", "json"],
         lambda text: oracle.check_table1(ref["table1"], json.loads(text))),
        (["verify", "--format", "json"],
         lambda text: None if json.loads(text)["ok"] is True else "verify: ok is not true"),
    ]
    checks += [(["enumerate", str(g)],
                partial(oracle.check_enumerate_text, ref["enumerate"][str(g)]))
               for g in ENUMERATE_GENERA]
    skip = EXCLUDED["cli_mix"]
    return [Op(f"cli.{argv[0]}", " ".join(argv), partial(_run_cli, lib.cli.main, argv),
               partial(_cli_check, check))
            for argv, check in checks if " ".join(argv) not in skip]


WORKLOADS = {w.name: w for w in (
    Workload("sweep_g2_6", 60.0, 30.0, build_sweep),
    Workload("cli_mix", 20.0, 4.5, build_cli),
    Workload("abelianize_raw", 20.0, 7.5, build_abelianize),
)}
