"""Checks of the library's answers against the checked-in reference file.

The abelian invariants are computed here, by a small Smith-normal-form of the
benchmark's own, from the exponent sums of the relators the library returns
(as JSON or as rendered text).  A check therefore never relies on the
library code it checks.  Every check returns ``(problem, letters)``: a
one-line description of the first disagreement, or None, and the total
relator letters of the presentations it read.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import gcd
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# abelian invariants


def abelian_invariants(rows: list[list[int]], ncols: int) -> list:
    """``[torsion, free_rank]`` of Z^ncols modulo the row span; torsion is the
    invariant-factor chain without its 1s."""
    m = [list(r) for r in rows if any(r)]
    diag = []
    while m:
        i, j = min(((i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x),
                   key=lambda ij: abs(m[ij[0]][ij[1]]))
        p = m[i][j]
        clean = True
        for r in range(len(m)):
            if r != i and m[r][j]:
                q = m[r][j] // p
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                clean = clean and not m[r][j]
        for c in range(len(m[i])):
            if c != j and m[i][c]:
                q = m[i][c] // p
                for row in m:
                    row[c] -= q * row[j]
                clean = clean and not m[i][c]
        if clean:
            diag.append(abs(p))
            del m[i]
            for row in m:
                del row[j]
            m = [r for r in m if any(r)]
    diag.sort()
    for x in range(len(diag)):
        for y in range(x + 1, len(diag)):
            g = gcd(diag[x], diag[y])
            diag[x], diag[y] = g, diag[x] * diag[y] // g
    return [[d for d in diag if d > 1], ncols - len(diag)]


def normalize_ab(ab) -> list:
    """The library's ``(factors, free_rank)`` in the reference's list form."""
    factors, rank = ab
    return [sorted(d for d in factors if d != 1), rank]


def mod_sphere_ab(k: int) -> list:
    """Mod(S_{0,k})^ab = Z/(k-1)gcd(k,2)."""
    order = (k - 1) * gcd(k, 2)
    return [[order] if order > 1 else [], 0]


def pmod_sphere_ab(k: int) -> list:
    """PMod(S_{0,k})^ab = Z^{k(k-3)/2}."""
    return [[], k * (k - 3) // 2]


# ---------------------------------------------------------------------------
# presentations as exponent-sum rows


def rows_from_json(block: dict, kill: tuple[str, ...] = ()) -> tuple[list, int, int]:
    """Exponent-sum rows of a ``presentation_json`` block with the generators
    in ``kill`` set to 1.  Symbolic relators ``lhs = base^param`` count only
    when their base is killed."""
    gens = [g for g in block["generators"] if g not in kill]
    index = {g: i for i, g in enumerate(gens)}
    words = list(block["relators"])
    for s in block.get("symbolic_relators", ()):
        if s["base"] not in kill:
            raise ValueError(f"symbolic relator over live generator {s['base']}")
        words.append(s["lhs"])
    rows = []
    for w in words:
        row = [0] * len(gens)
        for name, e in w:
            if name in index:
                row[index[name]] += e
        rows.append(row)
    return rows, len(gens), sum(len(w) for w in words)


def _side(text: str, index: dict, row: list, sign: int) -> int:
    if text == "1":
        return 0
    letters = 0
    for tok in text.split("*"):
        if tok.startswith("["):            # a commutator has zero exponent sums
            letters += 4
            continue
        name, _, exp = tok.partition("^")
        if exp and not exp.lstrip("-").isdigit():
            continue                       # F^e_i: a killed base with a parameter
        e = int(exp) if exp else 1
        letters += abs(e)
        if name in index:
            row[index[name]] += sign * e
    return letters


def rows_from_text(text: str, kill: tuple[str, ...] = ()) -> tuple[list, int, int]:
    """The same rows from a rendered ``<gens | lhs = rhs, ...>`` presentation."""
    text = text.strip()
    if text == "<1>":
        return [], 0, 0
    gens_part, _, rels_part = text[1:-1].partition("|")
    gens = [g.strip() for g in gens_part.split(",") if g.strip() not in kill]
    index = {g: i for i, g in enumerate(gens)}
    rows, letters = [], 0
    for rel in filter(None, (r.strip() for r in rels_part.split(", "))):
        lhs, _, rhs = rel.partition(" = ")
        row = [0] * len(gens)
        letters += _side(lhs, index, row, 1) + _side(rhs, index, row, -1)
        rows.append(row)
    return rows, len(gens), letters


def _compare(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _descriptor_order(text: str) -> int:
    out = 1
    for x in re.findall(r"Z(\d+)", text):
        out *= int(x)
    return out


# ---------------------------------------------------------------------------
# checks, one per kind of answer


def check_report(entry: dict, rep: dict) -> tuple[str | None, int]:
    """An ``analyze`` result in the ``report_json`` schema."""
    st = rep["stab"]
    letters = 0
    problems = [
        _compare("|H1|", st["H1_order"], entry["h1"]),
        _compare("|H2|", st["H2_order"], entry["h2"]),
        _compare("[Mod:LMod]", st["index_mod_lmod"], entry["index_mod_lmod"]),
        _compare("[N:C]", st["index_n_c"], entry["index_n_c"]),
    ]
    for key, ref_key in (("lmod_presentation", "lmod_ab"),
                         ("clmod_presentation", "clmod_ab")):
        rows, ncols, n_letters = rows_from_json(rep[key])
        letters += n_letters
        problems.append(_compare(f"{key} abelianization",
                                 abelian_invariants(rows, ncols), entry[ref_key]))
    if entry["k"] == 3:
        cls = rep["classification"] or {}
        problems.append(_check_descriptors(entry, cls.get("normalizer", {}).get("text", ""),
                                           cls.get("centralizer", {}).get("text", "")))
    return next(filter(None, problems), None), letters


def _check_descriptors(entry: dict, normalizer: str, centralizer: str) -> str | None:
    """With three branch points LMod = H1, so |N(F)| = n|H1| and |C(F)| = n|H2|."""
    return (_compare("|N(F)|", _descriptor_order(normalizer), entry["n"] * entry["h1"])
            or _compare("|C(F)|", _descriptor_order(centralizer), entry["n"] * entry["h2"]))


def check_quotients(entry: dict, normalizer: tuple, centralizer: tuple) -> str | None:
    """N(F)/<<F>> = LMod and C(F)/<<F>> = CLMod, compared by abelianization."""
    return (_compare("N(F)/F abelianization", abelian_invariants(*normalizer[:2]),
                     entry["lmod_ab"])
            or _compare("C(F)/F abelianization", abelian_invariants(*centralizer[:2]),
                        entry["clmod_ab"]))


def check_analyze_text(entry: dict, text: str) -> tuple[str | None, int]:
    fields = dict(re.findall(r"(\|H1\||\|H2\||\[Mod:LMod\]|\[N:C\]) = (\d+)", text))
    problems = [
        _compare("|H1|", int(fields.get("|H1|", -1)), entry["h1"]),
        _compare("|H2|", int(fields.get("|H2|", -1)), entry["h2"]),
        _compare("[Mod:LMod]", int(fields.get("[Mod:LMod]", -1)), entry["index_mod_lmod"]),
        _compare("[N:C]", int(fields.get("[N:C]", -1)), entry["index_n_c"]),
    ]
    letters = 0
    for label, ref_key in (("LMod", "lmod_ab"), ("CLMod", "clmod_ab")):
        match = re.search(rf"^{label} presentation \(\w+\): (<.*>)$", text, re.M)
        if match is None:
            problems.append(f"no {label} presentation line")
            continue
        rows, ncols, n_letters = rows_from_text(match.group(1))
        letters += n_letters
        problems.append(_compare(f"{label} abelianization",
                                 abelian_invariants(rows, ncols), entry[ref_key]))
    return next(filter(None, problems), None), letters


def check_present_json(entry: dict, payload: dict) -> tuple[str | None, int]:
    norm = rows_from_json(payload["normalizer"]["presentation"], kill=("F",))
    cent = rows_from_json(payload["centralizer"]["presentation"], kill=("F",))
    problem = check_quotients(entry, norm, cent)
    if problem is None and entry["k"] == 3:
        problem = _check_descriptors(
            entry, (payload["normalizer"]["descriptor"] or {}).get("text", ""),
            (payload["centralizer"]["descriptor"] or {}).get("text", ""))
    return problem, norm[2] + cent[2]


def check_present_text(entry: dict, text: str) -> tuple[str | None, int]:
    blocks = re.findall(r"^[NC]\(F\) \[\w+\].*\n  (<.*>)$", text, re.M)
    if len(blocks) != 2:
        return "expected N(F) and C(F) presentation lines", 0
    norm, cent = (rows_from_text(b, kill=("F",)) for b in blocks)
    return check_quotients(entry, norm, cent), norm[2] + cent[2]


def check_validate_text(entry: dict, text: str) -> str | None:
    return _compare("validate", text.strip(), f"valid, genus {entry['genus']}")


def check_classify_text(entry: dict, text: str) -> str | None:
    match = re.match(r"case \(\w+\): N\(F\) = (.*), C\(F\) = (.*), LMod = ", text)
    if match is None:
        return f"unreadable classify output {text[:60]!r}"
    return _check_descriptors(entry, match.group(1), match.group(2))


def check_table1(rows_ref: list, payload: dict) -> str | None:
    got = [[r["dataset"], r["normalizer"]["text"], r["centralizer"]["text"]]
           for r in payload["rows"]]
    return _compare("table1", got, rows_ref)


def enumerate_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_enumerate_text(ref: dict, text: str) -> str | None:
    lines = text.strip().split("\n")
    return (_compare("class count", len(lines) - 1, ref["count"])
            or _compare("class list digest", enumerate_digest(lines[:-1]), ref["sha256"]))
