"""Span recorder for the traced run.

It wraps the library's public functions, per layer, at every ``liftmcg.*``
module binding that holds them (``analysis`` and ``cli`` import them by
name).  Each call becomes a span: name, operation id, start, end, self time
and parent.  Self time is the duration minus the time of the child spans.
Spans and counts stay in memory until ``per_layer`` and ``dump`` read them at
the end of the run.  A function a later version removes is simply not
wrapped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

WRAPPED = {
    "datasets": ("enumerate_spherical", "parse_dataset", "validate"),
    "genvec": ("liftable_images", "stabilizer_bruteforce", "classify_irreducible"),
    "arith_perm": ("perm_closure", "extend_group", "young_subgroup", "symmetric_group",
                   "coset_table", "smith_normal_form"),
    "fpgroups": ("reidemeister_schreier_full", "tietze_simplify", "abelianization",
                 "extension_presentation"),
    "analysis": ("analyze", "normalizer_centralizer"),
    "cli": ("main",),
}
CLOSURES = ("arith_perm.perm_closure", "arith_perm.extend_group",
            "arith_perm.young_subgroup", "arith_perm.symmetric_group")


def _size(p) -> tuple[int, int, int]:
    """(generators, relators, letters) of a presentation."""
    return len(p.generators), len(p.relators), sum(len(r) for r in p.relators)


def _materialized(group) -> int:
    elements = getattr(group, "elements", None)
    return len(elements) if elements is not None else 0


class Recorder:
    def __init__(self):
        self.spans: list = []          # (name, op, start, end, self_s, parent)
        self.stack: list = []          # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.rows: dict = defaultdict(lambda: {"self_s": Counter(), "sizes": []})
        self.op = "setup"
        self._errors: set = set()

    def install(self) -> None:
        """Wrap the functions in every loaded ``liftmcg`` module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "liftmcg" or name.startswith("liftmcg.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"liftmcg.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            frame = [index, 0.0]
            self.spans.append(None)
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "CapacityError" and id(exc) not in self._errors:
                    self._errors.add(id(exc))
                    self.counts["arith_perm.capacity_errors"] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += end - start
                own = end - start - frame[1]
                self.spans[index] = (name, self.op, start, end, own, parent)
                self.calls[name] += 1
                self.self_s[name] += own
                self.rows[self.op]["self_s"][name] += own
            self._observe(name, args, kwargs, result)
            return result
        return wrapper

    def _observe(self, name, args, kwargs, result) -> None:
        c, sizes = self.counts, self.rows[self.op]["sizes"]
        if name == "fpgroups.tietze_simplify":
            before, after = _size(args[0]), _size(result)
            c["tietze_eliminations"] += before[0] - after[0]
            c["tietze_letters_in"] += before[2]
            c["tietze_letters_out"] += after[2]
            sizes.append({"stage": "tietze", "in": before, "out": after})
        elif name == "fpgroups.reidemeister_schreier_full":
            out = _size(result[0])
            c["rs_gens_out"] += out[0]
            c["rs_rels_out"] += out[1]
            c["rs_letters_out"] += out[2]
            sizes.append({"stage": "rs", "out": out})
        elif name == "arith_perm.coset_table":
            c["coset_index_sum"] += len(result)
            sizes.append({"stage": "coset_table", "index": len(result)})
        elif name == "arith_perm.smith_normal_form":
            ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
            if ncols is None:
                ncols = len(args[0][0]) if args[0] else 0
            c["snf_cells"] += len(args[0]) * ncols
            sizes.append({"stage": "snf", "shape": [len(args[0]), ncols]})
        elif name == "genvec.liftable_images":
            c["perms_materialized"] += _materialized(result.h1)
            if result.h2 is not result.h1:
                c["perms_materialized"] += _materialized(result.h2)
        elif name == "analysis.analyze":
            for kind in (result.lmod_kind, result.clmod_kind):
                c[f"route_{kind}"] += 1

    def note_output(self, text: str) -> None:
        self.counts["bytes_out"] += len(text.encode())

    def per_layer(self) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``."""
        s, n, c = self.self_s, self.calls, self.counts
        letters_in = c["tietze_letters_in"]
        return {
            "fpgroups.tietze_s": (s["fpgroups.tietze_simplify"], "s"),
            "fpgroups.tietze_calls": (n["fpgroups.tietze_simplify"], "count"),
            "fpgroups.tietze_eliminations": (c["tietze_eliminations"], "count"),
            "fpgroups.tietze_letters_in": (letters_in, "letters"),
            "fpgroups.tietze_letters_out": (c["tietze_letters_out"], "letters"),
            "fpgroups.tietze_growth": (
                c["tietze_letters_out"] / letters_in if letters_in else 0.0, "ratio"),
            "fpgroups.rs_s": (s["fpgroups.reidemeister_schreier_full"], "s"),
            "fpgroups.rs_gens_out": (c["rs_gens_out"], "count"),
            "fpgroups.rs_rels_out": (c["rs_rels_out"], "count"),
            "fpgroups.rs_letters_out": (c["rs_letters_out"], "letters"),
            "fpgroups.abelianization_s": (s["fpgroups.abelianization"], "s"),
            "fpgroups.extension_s": (s["fpgroups.extension_presentation"], "s"),
            "genvec.stabilizer_s": (s["genvec.liftable_images"], "s"),
            "genvec.bruteforce_s": (s["genvec.stabilizer_bruteforce"], "s"),
            "genvec.bruteforce_calls": (n["genvec.stabilizer_bruteforce"], "count"),
            "genvec.perms_materialized": (c["perms_materialized"], "count"),
            "genvec.classify_s": (s["genvec.classify_irreducible"], "s"),
            "arith_perm.closure_s": (sum(s[name] for name in CLOSURES), "s"),
            "arith_perm.coset_table_s": (s["arith_perm.coset_table"], "s"),
            "arith_perm.coset_index_sum": (c["coset_index_sum"], "count"),
            "arith_perm.snf_s": (s["arith_perm.smith_normal_form"], "s"),
            "arith_perm.snf_cells": (c["snf_cells"], "cells"),
            "arith_perm.capacity_errors": (c["arith_perm.capacity_errors"], "count"),
            "analysis.analyze_self_s": (s["analysis.analyze"], "s"),
            "analysis.analyze_calls": (n["analysis.analyze"], "count"),
            "analysis.present_self_s": (s["analysis.normalizer_centralizer"], "s"),
            "analysis.route_schreier": (c["route_schreier"], "count"),
            "analysis.route_mod_sphere": (c["route_mod_sphere"], "count"),
            "analysis.route_pmod_sphere": (c["route_pmod_sphere"], "count"),
            "cli.main_self_s": (s["cli.main"], "s"),
            "cli.bytes_out": (c["bytes_out"], "bytes"),
            "datasets.enumerate_s": (s["datasets.enumerate_spherical"], "s"),
            "datasets.parse_validate_s": (
                s["datasets.parse_dataset"] + s["datasets.validate"], "s"),
        }

    def dump(self, path) -> None:
        """Write spans, totals and the per-operation rows in one file."""
        payload = {
            "span_fields": ["name", "op", "start", "end", "self_s", "parent"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "per_op": {op: {"self_s": dict(row["self_s"]), "sizes": row["sizes"]}
                       for op, row in self.rows.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
