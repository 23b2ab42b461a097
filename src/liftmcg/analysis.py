"""End-to-end analysis of spherical cyclic data sets: generating data and
presentations for the liftable/centralizer groups, normalizer and centralizer
presentations over the covered surface, the homology-matrix verification for
the order-2g+2 glued-rotation family, and the genus-3 classification table.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .arith_perm import InternalInvariantError, Perm, identity_perm
from .datasets import DataSet, parse_dataset
from .fpgroups import (
    EMPTY,
    LiftData,
    Presentation,
    Word,
    commutator,
    extension_presentation,
    gen,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    presentation_json,
    psi_images,
    reidemeister_schreier_full,
    render_presentation,
    render_word,
    tietze_simplify,
)
from .genvec import (
    GeneratingVector,
    GroupDescriptor,
    IrreducibleClassification,
    StabilizerReport,
    classify_irreducible,
    generating_vector,
    liftable_images,
    mod_equals_lmod,
    require_genus,
    unit_for_perm,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# family shape detectors


def hyperelliptic_shape(ds: DataSet) -> bool:
    return ds.n == 2 and all(pair == (1, 2) for pair in ds.pairs)


def balanced_superelliptic_shape(ds: DataSet) -> bool:
    if ds.k % 2 or ds.g0 != 0:
        return False
    half = ds.k // 2
    counts = Counter(ds.pairs)
    if ds.n == 2:
        return counts == Counter({(1, 2): ds.k})
    return counts == Counter({(1, ds.n): half, (ds.n - 1, ds.n): half})


def doubled_shape(ds: DataSet) -> bool:
    """Two (d, m), (-d, m) couples, the glued-rotation shape."""
    if ds.k != 4 or ds.g0 != 0:
        return False
    items = list(ds.pairs)
    couples = 0
    while items:
        d, m = items.pop(0)
        mate = ((m - d) % m, m)
        if mate not in items:
            return False
        items.remove(mate)
        couples += 1
    return couples == 2


# ---------------------------------------------------------------------------
# analyze


@dataclass(frozen=True)
class AnalysisReport:
    dataset: DataSet
    genus: int
    vector: GeneratingVector
    stab: StabilizerReport
    lmod_presentation: Presentation
    clmod_presentation: Presentation
    lmod_kind: str                      # "mod_sphere" | "pmod_sphere" | "schreier"
    clmod_kind: str
    lmod_images: Mapping[str, Perm]     # marked-point image per presentation generator
    clmod_images: Mapping[str, Perm]
    classification: IrreducibleClassification | None
    flags: Mapping[str, bool]


# distinct subgroups whose preimage presentations are kept; the H1 and H2 of
# genus 10 alone are 70 subgroups
PRESENTATION_MEMO_SIZE = 128


@lru_cache(maxsize=PRESENTATION_MEMO_SIZE)
def _subgroup_presentation(subgroup) -> tuple[Presentation, Mapping[str, Perm], str]:
    """Simplified presentation of the psi-preimage of a subgroup of Sym(k).

    Index 1 is the full sphere mapping class group and the trivial subgroup
    pulls back to the pure one; both have known presentations, so
    Reidemeister-Schreier runs only at intermediate index.  The result
    depends on the subgroup only as a set, so it is memoized on the set and
    shared, with read-only images, by every report whose H1 or H2 it is.
    """
    k = subgroup.degree
    psi = psi_images(k)
    if subgroup.is_symmetric:
        # kept unsimplified: index 1 is the ambient presentation itself
        p, kind = mod_sphere_presentation(k), "mod_sphere"
        images = {name: psi[name] for name in p.generators}
    elif subgroup.order == 1:
        p, kind = tietze_simplify(pmod_sphere_presentation(k)), "pmod_sphere"
        images = {name: identity_perm(k) for name in p.generators}
    else:
        raw, info = reidemeister_schreier_full(mod_sphere_presentation(k), psi, subgroup)
        if info.index * subgroup.order != factorial(k):
            raise InternalInvariantError(
                f"coset index {info.index} times |H| = {subgroup.order} is not {k}!")
        p, kind = tietze_simplify(raw), "schreier"
        images = {name: info.generator_images[name] for name in p.generators}
    return p, MappingProxyType(images), kind


def analyze(ds: DataSet) -> AnalysisReport:
    """Full pipeline: generating vector, stabilizer data, presentations of the
    liftable and centralizer preimages, classification when k = 3.
    OutOfScopeError for an invalid data set, g0 != 0 or genus < 2."""
    v = generating_vector(ds)
    genus = require_genus(v)
    stab = liftable_images(v)
    lmod_p, lmod_images, lmod_kind = _subgroup_presentation(stab.h1)
    clmod_p, clmod_images, clmod_kind = _subgroup_presentation(stab.h2)
    classification = classify_irreducible(v) if v.k == 3 else None

    flags = MappingProxyType({
        "mod_equals_lmod": mod_equals_lmod(v),
        "hyperelliptic": hyperelliptic_shape(ds),
        "balanced_superelliptic": balanced_superelliptic_shape(ds),
        "doubled": doubled_shape(ds),
    })
    if flags["mod_equals_lmod"] != stab.h1.is_symmetric:
        raise InternalInvariantError(
            f"mod_equals_lmod is {flags['mod_equals_lmod']} but |H1| = {stab.h1.order}")

    return AnalysisReport(
        dataset=ds, genus=genus, vector=v, stab=stab,
        lmod_presentation=lmod_p, clmod_presentation=clmod_p,
        lmod_kind=lmod_kind, clmod_kind=clmod_kind,
        lmod_images=lmod_images, clmod_images=clmod_images,
        classification=classification, flags=flags)


# ---------------------------------------------------------------------------
# normalizer / centralizer presentations


@dataclass(frozen=True)
class NormalizerSpec:
    """Presentation data for the normalizer (or centralizer) of the covering
    mapping class: kernel generator F plus one lift per quotient generator.

    conjugation_exponents[G] = e means the relation G F G^-1 = F^e (signed;
    -1 stands for the unit n-1); the mapping is kept read-only.
    """

    presentation: Presentation
    conjugation_exponents: Mapping[str, int]
    provenance: str                     # "built_in" | "user_supplied" | "symbolic"
    descriptor: GroupDescriptor | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "conjugation_exponents",
                           MappingProxyType(dict(self.conjugation_exponents)))


def _signed_unit(u: int, n: int) -> int:
    return -1 if n > 2 and u == n - 1 else u


def _lift_data(quotient: Presentation, exponents: list[int],
               evaluations: dict[int, Word | str],
               names: list[str] | None = None) -> LiftData:
    """Lifts G1, G2, ... (or names) of the quotient generators; G F G^-1 = F^e."""
    if names is None:
        names = [f"G{i}" for i in range(1, len(quotient.generators) + 1)]
    return LiftData(
        lifts=dict(zip(quotient.generators, names)),
        conjugation={(g, "F"): gen("F") ** e for g, e in zip(quotient.generators, exponents)},
        evaluations=evaluations)


def _extension_spec(n: int, quotient: Presentation, data: LiftData, provenance: str,
                    descriptor: GroupDescriptor | None = None,
                    notes: tuple[str, ...] = ()) -> NormalizerSpec:
    """The extension of <F | F^n> by the quotient; each lift's exponent is
    read off its conjugation word, a power of F."""
    pres = extension_presentation(Presentation(("F",), ((1,) * n,)), quotient, data)
    exponents = {data.lifts[g]: sum(e for _, e in data.conjugation[(g, "F")].letters)
                 for g in quotient.generators}
    return NormalizerSpec(pres, exponents, provenance, descriptor, notes)


def _descriptor_spec(desc: GroupDescriptor, notes: tuple[str, ...] = ()) -> NormalizerSpec:
    """The classified type as an extension of <F | F^n> by nothing (cyclic)
    or by <G | G^m> with G^m = 1 and G F G^-1 = F or F^twist."""
    if desc.kind == "cyclic":
        quotient, exponents = Presentation((), ()), []
    elif desc.kind in ("direct_product", "semidirect"):
        # a direct product is the twist-1 case
        quotient = Presentation(("G",), ((1,) * desc.m,))
        exponents = [_signed_unit(desc.twist or 1, desc.n)]
    else:
        raise ValueError(f"no presentation route for descriptor {desc}")
    data = _lift_data(quotient, exponents, dict.fromkeys(range(len(quotient.relators)), EMPTY),
                      names=list(quotient.generators))
    return _extension_spec(desc.n, quotient, data, "built_in", desc, notes)


def _doubled_builtin(rep: AnalysisReport) -> tuple[NormalizerSpec, NormalizerSpec]:
    """Exact lift data for the glued-rotation family of order n = 2g+2, even g:
    signature (0; 2, 2, g+1, g+1)."""
    g = rep.genus
    n = rep.dataset.n
    s1, s3, a13 = gen("s1"), gen("s3"), gen("a13")
    lmod_q = Presentation.from_words(
        ("s1", "s3", "a13"),
        (s3 ** 2 * s1 ** -2, commutator(s1, s3), (s1 * a13) ** 2, (s3 * a13) ** 2))
    clmod_q = Presentation.from_words(("s1", "a13"), ((s1 * a13) ** 2,))
    # the hard-coded exponents must agree with the stabilizer of this vector
    psi = psi_images(4)
    computed = [unit_for_perm(rep.vector, p, rep.stab.units)
                for p in (psi["s1"], psi["s3"], identity_perm(4))]
    if [_signed_unit(u, n) for u in computed] != [1, -1, 1]:
        raise InternalInvariantError(f"built-in exponents disagree with units {computed}")
    notes = ("lift data built in for the order-2g+2 glued-rotation family",)
    norm = _extension_spec(n, lmod_q, _lift_data(
        lmod_q, [1, -1, 1],
        {0: EMPTY, 1: EMPTY, 2: gen("F") ** (g + 2), 3: gen("F") ** (g + 1)},
        names=["G1", "G3", "G2"]), "built_in", notes=notes)
    cent = _extension_spec(n, clmod_q, _lift_data(
        clmod_q, [1, 1], {0: gen("F") ** (g + 2)}), "built_in", notes=notes)
    return norm, cent


def _is_doubled_builtin(rep: AnalysisReport) -> bool:
    ds = rep.dataset
    return (rep.flags["doubled"] and rep.genus % 2 == 0
            and ds.n == 2 * rep.genus + 2
            and sorted(m for _, m in ds.pairs) == [2, 2, rep.genus + 1, rep.genus + 1])


def _generic_spec(rep: AnalysisReport, quotient: Presentation,
                  images: Mapping[str, Perm]) -> NormalizerSpec:
    """Exponents from the units the generators' images pair with; relator
    evaluations carried as parameters unless the quotient is free."""
    n = rep.dataset.n
    exponents = [_signed_unit(unit_for_perm(rep.vector, images[g], rep.stab.units), n)
                 for g in quotient.generators]
    evaluations: dict[int, Word | str] = {i: f"e{i + 1}" for i in range(len(quotient.relators))}
    data = _lift_data(quotient, exponents, evaluations)
    if evaluations:
        return _extension_spec(n, quotient, data, "symbolic", notes=(
            "relator evaluations undetermined; carried as F^e_i parameters",))
    return _extension_spec(n, quotient, data, "built_in",
                           notes=("free quotient: no relator evaluations needed",))


def normalizer_centralizer(ds: DataSet, lifts: LiftData | None = None,
                           central_lifts: LiftData | None = None
                           ) -> tuple[NormalizerSpec, NormalizerSpec]:
    """Presentations of the normalizer and centralizer of the covering class.

    Every route builds extension_presentation of <F | F^n> by a quotient,
    with G F G^-1 = F^e read off the lift data.  Routes, in order:
    user-supplied lift data, over LMod and CLMod; the 3-branch-point
    classification (exact isomorphism types, the quotient <G | G^m> or
    none); built-in lift data for the order-2g+2 glued-rotation family; the
    generic extension of LMod and CLMod with symbolic relator evaluations
    (exact when the quotient presentation is free).
    OutOfScopeError as for analyze.
    """
    rep = analyze(ds)
    if lifts is None and central_lifts is None:
        if rep.classification is not None:
            cls = rep.classification
            return (_descriptor_spec(cls.normalizer, cls.notes),
                    _descriptor_spec(cls.centralizer, cls.notes))
        if _is_doubled_builtin(rep):
            return _doubled_builtin(rep)
    return tuple(
        _extension_spec(rep.dataset.n, quotient, user, "user_supplied")
        if user is not None else _generic_spec(rep, quotient, images)
        for quotient, images, user in ((rep.lmod_presentation, rep.lmod_images, lifts),
                                       (rep.clmod_presentation, rep.clmod_images, central_lifts)))


# ---------------------------------------------------------------------------
# homology matrix verification for the order-6 glued rotation (g = 2)


_PSI_F = ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, -1, 0))
_PSI_G1 = ((0, -2, -2, -1), (2, 2, 1, 2), (-2, -1, 0, -2), (1, 2, 2, 2))
_PSI_G2 = ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_PSI_G = ((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0))
_PSI_G3 = ((2, 1, 0, 2), (-1, -2, -2, -2), (0, 2, 2, 1), (-2, -2, -1, -2))

# skew form of the homology basis (two handles, one symplectic pair each)
_SKEW = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))

Matrix = tuple[tuple[int, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(4)) for j in range(4))
                 for i in range(4))


def _mat_pow(a: Matrix, e: int) -> Matrix:
    out = _MAT_ID
    for _ in range(e):
        out = _mat_mul(out, a)
    return out


def _mat_t(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


_MAT_ID: Matrix = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool


@dataclass(frozen=True)
class MatrixVerification:
    checks: tuple[RelationCheck, ...]
    alternate_readings: tuple[RelationCheck, ...]
    note: str

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_doubled_matrices() -> MatrixVerification:
    """Check the order-6 normalizer presentation in its homology image.

    This is a necessary-condition check (relations verified in the symplectic
    image; the image is faithful on finite subgroups only).  The two
    alternate-reading entries record a conflicting exponent reading and are
    expected to fail.
    """
    F, G1, G2, G, G3 = _PSI_F, _PSI_G1, _PSI_G2, _PSI_G, _PSI_G3
    checks = [
        RelationCheck("F^6 = 1", _mat_pow(F, 6) == _MAT_ID),
        RelationCheck("[G1, F] = 1", _mat_mul(G1, F) == _mat_mul(F, G1)),
        RelationCheck("[G2, F] = 1", _mat_mul(G2, F) == _mat_mul(F, G2)),
        RelationCheck("G3 F G3^-1 = F^-1",
                      _mat_mul(G3, F) == _mat_mul(_mat_pow(F, 5), G3)),
        RelationCheck("G3 = G1 G", _mat_mul(G1, G) == G3),
        RelationCheck("G1^2 = G3^2", _mat_pow(G1, 2) == _mat_pow(G3, 2)),
        RelationCheck("[G1, G3] = 1", _mat_mul(G1, G3) == _mat_mul(G3, G1)),
        RelationCheck("(G1 G2)^2 = F^4",
                      _mat_pow(_mat_mul(G1, G2), 2) == _mat_pow(F, 4)),
        RelationCheck("(G3 G2)^2 = F^3",
                      _mat_pow(_mat_mul(G3, G2), 2) == _mat_pow(F, 3)),
    ]
    for name, m in [("F", F), ("G1", G1), ("G2", G2), ("G", G), ("G3", G3)]:
        checks.append(RelationCheck(
            f"{name} symplectic", _mat_mul(_mat_mul(_mat_t(m), _SKEW), m) == _SKEW))
    alternates = (
        RelationCheck("G1^2 = G3^2 F (conflicting exponent reading)",
                      _mat_pow(G1, 2) == _mat_mul(_mat_pow(G3, 2), F)),
        RelationCheck("[G1, G3] = F (conflicting exponent reading)",
                      _mat_mul(G1, G3) == _mat_mul(_mat_mul(F, G3), G1)),
    )
    return MatrixVerification(
        checks=tuple(checks), alternate_readings=alternates,
        note="relations checked in the homology image; alternate readings "
             "record a conflicting stated exponent and are expected to fail")


# ---------------------------------------------------------------------------
# the genus-3 classification table


TABLE_GENUS3_INPUTS = (
    "(7,0;(1,7),(2,7),(4,7))",
    "(7,0;(5,7),(1,7),(1,7))",
    "(8,0;(1,4),(1,8),(5,8))",
    "(8,0;(3,4),(1,8),(1,8))",
    "(9,0;(1,3),(1,9),(5,9))",
    "(12,0;(1,2),(1,12),(5,12))",
    "(12,0;(2,3),(1,4),(1,12))",
    "(14,0;(1,2),(3,7),(1,14))",
)


@dataclass(frozen=True)
class TableRow:
    index: int
    dataset: DataSet
    normalizer: GroupDescriptor
    centralizer: GroupDescriptor
    case: str


def table_genus3() -> list[TableRow]:
    """Normalizer/centralizer types of the eight genus-3 irreducible classes.

    Data sets of the lifted mapping classes need lifting theory beyond this
    package; that column is intentionally out of scope.
    """
    rows = []
    for i, text in enumerate(TABLE_GENUS3_INPUTS, start=1):
        ds = parse_dataset(text)
        rep = analyze(ds)
        cls = rep.classification
        if cls is None or rep.genus != 3:
            raise InternalInvariantError(f"{text} is not a genus-3 three-point class")
        rows.append(TableRow(i, ds, cls.normalizer, cls.centralizer, cls.case))
    return rows


def render_table_genus3(rows: list[TableRow]) -> str:
    header = ("Sr.", "D_F", "N(F)", "C(F)")
    cells = [header]
    for row in rows:
        cells.append((str(row.index), str(row.dataset),
                      row.normalizer.render(), row.centralizer.render()))
    widths = [max(len(r[c]) for r in cells) for c in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
             for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append("(lifted-class column omitted: out of scope)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization


def descriptor_json(desc: GroupDescriptor) -> dict:
    return {"kind": desc.kind, "n": desc.n, "m": desc.m, "twist": desc.twist,
            "text": desc.render()}


def stabilizer_json(sr: StabilizerReport) -> dict:
    return {
        "n": sr.n,
        "c": list(sr.c),
        "H1_order": sr.h1.order,
        "H2_order": sr.h2.order,
        "units": list(sr.units),
        "B": [[i, j] for i, j in sr.swaps],
        "C": {str(u): render_word(sr.unit_words[u]) for u in sr.units},
        "index_mod_lmod": sr.index_mod_lmod,
        "index_n_c": sr.index_n_c,
    }


def classification_json(cls: IrreducibleClassification | None) -> dict | None:
    if cls is None:
        return None
    return {
        "case": cls.case,
        "twist": cls.twist,
        "lmod": descriptor_json(cls.lmod),
        "normalizer": descriptor_json(cls.normalizer),
        "centralizer": descriptor_json(cls.centralizer),
        "genus": cls.genus,
        "notes": list(cls.notes),
    }


def _presentation_block(p: Presentation, kind: str, index: int) -> dict:
    block = presentation_json(p)
    block["kind"] = kind
    block["index"] = index
    block["text"] = render_presentation(p)
    return block


def report_json(rep: AnalysisReport) -> dict:
    k = rep.vector.k
    return {
        "schema": SCHEMA_VERSION,
        "dataset": str(rep.dataset),
        "genus": rep.genus,
        "gamma": {"n": rep.vector.n, "c": list(rep.vector.c)},
        "stab": stabilizer_json(rep.stab),
        "lmod_presentation": _presentation_block(
            rep.lmod_presentation, rep.lmod_kind, rep.stab.index_mod_lmod),
        "clmod_presentation": _presentation_block(
            rep.clmod_presentation, rep.clmod_kind,
            factorial(k) // rep.stab.h2.order),
        "classification": classification_json(rep.classification),
        "flags": dict(rep.flags),
    }


def render_report(rep: AnalysisReport) -> str:
    k = rep.vector.k
    lines = [
        f"Data set: {rep.dataset}",
        f"Genus {rep.genus}, degree {rep.dataset.n}, {k} branch points",
        f"Generating vector: ({', '.join(map(str, rep.vector.c))}) mod {rep.vector.n}",
        f"|H1| = {rep.stab.h1.order}, |H2| = {rep.stab.h2.order}, "
        f"units = {{{', '.join(map(str, rep.stab.units))}}}",
        f"[Mod:LMod] = {rep.stab.index_mod_lmod}",
        f"[N:C] = {rep.stab.index_n_c}",
        "B = " + (", ".join(f"({i},{j})" for i, j in rep.stab.swaps) or "(empty)"),
        "C: " + "; ".join(f"{u} -> {render_word(rep.stab.unit_words[u])}"
                          for u in rep.stab.units),
    ]
    if rep.flags["mod_equals_lmod"]:
        lines.append(f"LMod = Mod(S_{{0,{k}}})")
    if rep.clmod_kind == "pmod_sphere":
        lines.append(f"CLMod = PMod(S_{{0,{k}}})")
    lines.append(f"LMod presentation ({rep.lmod_kind}): "
                 f"{render_presentation(rep.lmod_presentation)}")
    lines.append(f"CLMod presentation ({rep.clmod_kind}): "
                 f"{render_presentation(rep.clmod_presentation)}")
    if rep.classification is not None:
        cls = rep.classification
        lines.append(f"Irreducible case ({cls.case}): "
                     f"N(F) = {cls.normalizer.render()}, "
                     f"C(F) = {cls.centralizer.render()}")
    tags = [name for name in ("hyperelliptic", "balanced_superelliptic", "doubled")
            if rep.flags[name]]
    if tags:
        lines.append("Family tags: " + ", ".join(tags))
    return "\n".join(lines)


def normalizer_spec_json(spec: NormalizerSpec) -> dict:
    return {
        "presentation": _presentation_block(spec.presentation, spec.provenance, 1),
        "conjugation_exponents": dict(spec.conjugation_exponents),
        "provenance": spec.provenance,
        "descriptor": descriptor_json(spec.descriptor) if spec.descriptor else None,
        "notes": list(spec.notes),
    }


def render_normalizer_specs(norm: NormalizerSpec, cent: NormalizerSpec) -> str:
    lines = []
    for label, spec in (("N(F)", norm), ("C(F)", cent)):
        lines.append(f"{label} [{spec.provenance}]"
                     + (f" = {spec.descriptor.render()}" if spec.descriptor else ""))
        lines.append(f"  {render_presentation(spec.presentation)}")
        if spec.conjugation_exponents:
            lines.append("  conjugation: " + ", ".join(
                f"{g} F {g}^-1 = F^{e}" for g, e in spec.conjugation_exponents.items()))
        for note in spec.notes:
            lines.append(f"  note: {note}")
    return "\n".join(lines)


def verification_json(ver: MatrixVerification) -> dict:
    return {
        "ok": ver.ok,
        "checks": [{"name": c.name, "ok": c.ok} for c in ver.checks],
        "alternate_readings": [{"name": c.name, "ok": c.ok}
                               for c in ver.alternate_readings],
        "note": ver.note,
    }


def render_verification(ver: MatrixVerification) -> str:
    lines = [f"{'PASS' if c.ok else 'FAIL'}  {c.name}" for c in ver.checks]
    for c in ver.alternate_readings:
        lines.append(f"{'PASS' if c.ok else 'FAIL'}  {c.name} [informational]")
    lines.append(f"note: {ver.note}")
    lines.append("overall: " + ("PASS" if ver.ok else "FAIL"))
    return "\n".join(lines)


def table_json(rows: list[TableRow]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "rows": [{
            "index": row.index,
            "dataset": str(row.dataset),
            "normalizer": descriptor_json(row.normalizer),
            "centralizer": descriptor_json(row.centralizer),
            "case": row.case,
            "lifted_class": None,
        } for row in rows],
        "note": "lifted-class column out of scope",
    }
