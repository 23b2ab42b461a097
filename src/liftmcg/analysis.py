"""End-to-end analysis of spherical cyclic data sets: generating data and
presentations for the liftable/centralizer groups, normalizer and centralizer
presentations over the covered surface, the check of those presentations in
homology for the order-6 glued rotation, and the genus-3 classification table.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from types import MappingProxyType

from .arith_perm import (
    MAX_PMOD_SPHERE_DEGREE,
    CapacityError,
    InternalInvariantError,
    Perm,
    identity_perm,
)
from .datasets import DataSet, parse_dataset, require_dataset
from .fpgroups import (
    PRESENTATION_MEMO_SIZE,
    LiftData,
    Presentation,
    Relator,
    _rewrite,
    _sphere_data,
    extension_presentation,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    presentation_json,
    psi_images,
    render_presentation,
    render_relator,
    render_word,
    sigma_names,
    tietze_simplify,
)
from .genvec import (
    GroupDescriptor,
    IrreducibleClassification,
    StabilizerReport,
    _classify_h1,
    classify_irreducible,
    generating_vector,
    liftable_images,
    mod_equals_lmod,
    require_genus,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# family shape detectors


def hyperelliptic_shape(ds: DataSet) -> bool:
    return ds.n == 2 and all(pair == (1, 2) for pair in ds.pairs)


def _in_couples(pairs) -> bool:
    """Whether the pairs split into couples (d, m), (-d mod m, m): the unit -1
    permutes them, and each self-mate pair (2d = 0 mod m) comes in twos."""
    counts = Counter(pairs)
    return (counts == Counter(((-d) % m, m) for d, m in pairs)
            and all(c % 2 == 0 for (d, m), c in counts.items() if 2 * d % m == 0))


def balanced_superelliptic_shape(ds: DataSet) -> bool:
    """(1, n), (n-1, n) couples and nothing else; couples make k even."""
    return (ds.g0 == 0 and all(pair in ((1, ds.n), (ds.n - 1, ds.n)) for pair in ds.pairs)
            and _in_couples(ds.pairs))


def doubled_shape(ds: DataSet) -> bool:
    """Two (d, m), (-d, m) couples, the glued-rotation shape."""
    return ds.k == 4 and ds.g0 == 0 and _in_couples(ds.pairs)


# ---------------------------------------------------------------------------
# analyze


@dataclass(frozen=True)
class AnalysisReport:
    dataset: DataSet
    genus: int
    stab: StabilizerReport
    lmod_presentation: Presentation
    clmod_presentation: Presentation
    lmod_kind: str                      # "mod_sphere" | "pmod_sphere" | "schreier"
    clmod_kind: str
    lmod_images: tuple[Perm, ...]       # marked-point image of each generator, in order
    clmod_images: tuple[Perm, ...]
    classification: IrreducibleClassification | None
    flags: Mapping[str, bool]


@lru_cache(maxsize=PRESENTATION_MEMO_SIZE)
def _subgroup_presentation(subgroup) -> tuple[Presentation, tuple[Perm, ...], str]:
    """Simplified presentation of the psi-preimage of a subgroup of Sym(k).

    Index 1 is the full sphere mapping class group and the trivial subgroup
    pulls back to the pure one, refused (CapacityError) before it is built
    above MAX_PMOD_SPHERE_DEGREE marked points; both have known presentations,
    so Reidemeister-Schreier runs only at intermediate index, as the core
    _rewrite on _sphere_data(k), whose psi is checked once per degree, and
    its output goes to tietze_simplify; only the simplified result is kept,
    so the raw output is freed once it is simplified.  The images are a
    tuple, one per generator of the presentation in order.  The result
    depends on the subgroup only as a set, so it is memoized on the set,
    keeping the PRESENTATION_MEMO_SIZE most recently used, and shared by
    every report whose H1 or H2 it is.
    """
    k = subgroup.degree
    if subgroup.is_symmetric:
        # kept unsimplified: index 1 is the ambient presentation itself
        p, images, kind = mod_sphere_presentation(k), psi_images(k), "mod_sphere"
    elif subgroup.order == 1:
        if k > MAX_PMOD_SPHERE_DEGREE:
            raise CapacityError(f"{k} marked points exceed PMod's cap of {MAX_PMOD_SPHERE_DEGREE}")
        p, kind = tietze_simplify(pmod_sphere_presentation(k)), "pmod_sphere"
        images = (identity_perm(k),) * len(p.generators)
    else:
        raw, raw_images = _rewrite(*_sphere_data(k), subgroup)
        p, kind = tietze_simplify(raw), "schreier"
        image_of = dict(zip(raw.generators, raw_images))
        images = tuple(image_of[name] for name in p.generators)
    return p, images, kind


def analyze(ds: DataSet) -> AnalysisReport:
    """Full pipeline: generating vector, stabilizer data, presentations of the
    liftable and centralizer preimages, classification when k = 3.
    OutOfScopeError for an invalid data set, g0 != 0 or genus < 2;
    TypeError for anything that is not a DataSet.

    Memoized on the exact DataSet, like _subgroup_presentation: a repeat
    call, normalizer_centralizer's included, returns the same read-only
    report.  Anything else is refused before it reaches the memo.  A
    refusal stores nothing, so it is raised afresh on every call.
    """
    return _report_memo(require_dataset(ds))


def _analyze(ds: DataSet) -> AnalysisReport:
    v = generating_vector(ds)
    genus = require_genus(v)
    stab = liftable_images(v)
    lmod_p, lmod_images, lmod_kind = _subgroup_presentation(stab.h1)
    clmod_p, clmod_images, clmod_kind = _subgroup_presentation(stab.h2)
    classification = _classify_h1(stab.h1, genus) if v.k == 3 else None

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
        dataset=ds, genus=genus, stab=stab,
        lmod_presentation=lmod_p, clmod_presentation=clmod_p,
        lmod_kind=lmod_kind, clmod_kind=clmod_kind,
        lmod_images=lmod_images, clmod_images=clmod_images,
        classification=classification, flags=flags)


_report_memo = lru_cache(maxsize=PRESENTATION_MEMO_SIZE)(_analyze)


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
               evaluations: dict[int, Relator | str],
               names: list[str] | None = None) -> LiftData:
    """Lifts G1, G2, ... (or names) of the quotient generators; G F G^-1 = F^e."""
    if names is None:
        names = [f"G{i}" for i in range(1, len(quotient.generators) + 1)]
    return LiftData(
        lifts=dict(zip(quotient.generators, names)),
        conjugation={(g, "F"): (1 if e > 0 else -1,) * abs(e)
                     for g, e in zip(quotient.generators, exponents)},
        evaluations=evaluations)


def _extension_spec(n: int, quotient: Presentation, data: LiftData, provenance: str,
                    descriptor: GroupDescriptor | None = None,
                    notes: tuple[str, ...] = ()) -> NormalizerSpec:
    """The extension of <F | F^n> by the quotient; each lift's exponent is
    the letter sum of its conjugation word, a power of F, reported as a
    signed unit.  An exponent that is not a unit mod n raises ValueError,
    since G F G^-1 = F^e would then collapse F."""
    pres = extension_presentation(Presentation(("F",), ((1,) * n,)), quotient, data)
    exponents = {}
    for g in quotient.generators:
        lift = data.lifts[g]
        e = sum(data.conjugation[(g, "F")]) % n
        if gcd(e, n) != 1:
            raise ValueError(f"conjugation exponent {e} of lift {lift} is not a unit mod {n}")
        exponents[lift] = _signed_unit(e, n)
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
    data = _lift_data(quotient, exponents, dict.fromkeys(range(len(quotient.relators)), ()),
                      names=list(quotient.generators))
    return _extension_spec(desc.n, quotient, data, "built_in", desc, notes)


def _exponents(rep: AnalysisReport, images: Iterable[Perm]) -> list[int]:
    """The signed unit e of each image in H1: its lift has G F G^-1 = F^e."""
    units = [rep.stab.h1.unit_of(p) for p in images]
    if None in units:
        raise InternalInvariantError(f"a generator image lies outside H1 of {rep.stab.h1.vector}")
    return [_signed_unit(u, rep.dataset.n) for u in units]


def _doubled_builtin(rep: AnalysisReport) -> tuple[NormalizerSpec, NormalizerSpec]:
    """Exact lift data for the glued-rotation family of order n = 2g+2, even g:
    signature (0; 2, 2, g+1, g+1).  Only the relator values are built in."""
    g = rep.genus
    n = rep.dataset.n
    # s3^2 s1^-2, [s1,s3], (s1 a13)^2, (s3 a13)^2
    lmod_q = Presentation(("s1", "s3", "a13"),
                          ((2, 2, -1, -1), (1, 2, -1, -2), (1, 3, 1, 3), (2, 3, 2, 3)))
    clmod_q = Presentation(("s1", "a13"), ((1, 2, 1, 2),))  # (s1 a13)^2
    psi, one = psi_images(4), identity_perm(4)
    notes = ("lift data built in for the order-2g+2 glued-rotation family",)
    norm = _extension_spec(n, lmod_q, _lift_data(
        lmod_q, _exponents(rep, (psi[0], psi[2], one)),
        {0: (), 1: (), 2: (1,) * (g + 2), 3: (1,) * (g + 1)},
        names=["G1", "G3", "G2"]), "built_in", notes=notes)
    cent = _extension_spec(n, clmod_q, _lift_data(
        clmod_q, _exponents(rep, (psi[0], one)), {0: (1,) * (g + 2)}),
        "built_in", notes=notes)
    return norm, cent


def _is_doubled_builtin(rep: AnalysisReport) -> bool:
    ds = rep.dataset
    return (rep.flags["doubled"] and rep.genus % 2 == 0
            and ds.n == 2 * rep.genus + 2
            and sorted(m for _, m in ds.pairs) == [2, 2, rep.genus + 1, rep.genus + 1])


def _generic_spec(rep: AnalysisReport, quotient: Presentation,
                  images: tuple[Perm, ...]) -> NormalizerSpec:
    """Exponents from the units the generators' images pair with; relator
    evaluations carried as parameters unless the quotient is free."""
    n = rep.dataset.n
    exponents = _exponents(rep, images)
    evaluations = {i: f"e{i + 1}" for i in range(len(quotient.relators))}
    data = _lift_data(quotient, exponents, evaluations)
    if evaluations:
        return _extension_spec(n, quotient, data, "symbolic", notes=(
            "relator evaluations undetermined; carried as F^e_i parameters",))
    return _extension_spec(n, quotient, data, "built_in",
                           notes=("free quotient: no relator evaluations needed",))


def _default_specs(rep: AnalysisReport) -> tuple[NormalizerSpec, NormalizerSpec]:
    """N(F) and C(F) without lift data: the 3-branch-point classification,
    then the glued-rotation family's built-in lift data, then the generic
    extensions of LMod and CLMod."""
    if rep.classification is not None:
        cls = rep.classification
        return (_descriptor_spec(cls.normalizer, cls.notes),
                _descriptor_spec(cls.centralizer, cls.notes))
    if _is_doubled_builtin(rep):
        return _doubled_builtin(rep)
    return (_generic_spec(rep, rep.lmod_presentation, rep.lmod_images),
            _generic_spec(rep, rep.clmod_presentation, rep.clmod_images))


def normalizer_centralizer(ds: DataSet, lifts: LiftData | None = None,
                           central_lifts: LiftData | None = None
                           ) -> tuple[NormalizerSpec, NormalizerSpec]:
    """Presentations of the normalizer and centralizer of the covering class.

    Every route builds extension_presentation of <F | F^n> by a quotient,
    with G F G^-1 = F^e read off the lift data.  A group given lift data,
    lifts for N(F) over LMod and central_lifts for C(F) over CLMod, takes
    it; the other takes, in order: the 3-branch-point classification (exact
    isomorphism types, the quotient <G | G^m> or none); built-in lift data
    for the order-2g+2 glued-rotation family; the generic extension of LMod
    or CLMod with symbolic relator evaluations (exact when the quotient
    presentation is free).  So each group's route is the same whether or
    not the other was given lift data.  The report is analyze's, read
    through its memo; OutOfScopeError and TypeError as for analyze.
    """
    rep = analyze(ds)
    default = (_default_specs(rep) if lifts is None or central_lifts is None
               else (None, None))
    return tuple(
        spec if user is None else _extension_spec(rep.dataset.n, quotient, user, "user_supplied")
        for quotient, user, spec in zip((rep.lmod_presentation, rep.clmod_presentation),
                                        (lifts, central_lifts), default))


# ---------------------------------------------------------------------------
# homology matrix verification for the order-6 glued rotation (g = 2)


_ORDER6 = "(6,0;(1,2),(1,2),(1,3),(2,3))"

Matrix = tuple[tuple[int, ...], ...]

# the action on H_1 of the genus-2 surface of each generator of the order-6
# class's N(F) and C(F), in a basis with skew form _SKEW
_HOMOLOGY = MappingProxyType({
    "F": ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, -1, 0)),
    "G1": ((0, -2, -2, -1), (2, 2, 1, 2), (-2, -1, 0, -2), (1, 2, 2, 2)),
    "G2": ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "G3": ((2, 1, 0, 2), (-1, -2, -2, -2), (0, 2, 2, 1), (-2, -2, -1, -2)),
})

# skew form of the homology basis (two handles, one symplectic pair each)
_SKEW = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


_MAT_ID: Matrix = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


@dataclass(frozen=True)
class MatrixVerification:
    checks: Mapping[str, bool]          # check name -> passed, read-only
    note: str

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def verify_doubled_matrices() -> MatrixVerification:
    """Check each generator's matrix is symplectic, then every relator of the
    N(F) and C(F) that normalizer_centralizer returns for the order-6 glued
    rotation, in the homology image (faithful on finite subgroups only).  A
    generator with no matrix or a symbolic relator: InternalInvariantError."""
    # J^-1 M^T J, with J^-1 = J^T, is the inverse of M exactly when M is symplectic
    inverse = {name: _mat_mul(_mat_mul(tuple(zip(*_SKEW)), tuple(zip(*m))), _SKEW)
               for name, m in _HOMOLOGY.items()}
    checks = {f"{name} symplectic": _mat_mul(inverse[name], m) == _MAT_ID
              for name, m in _HOMOLOGY.items()}
    for label, spec in zip(("N(F)", "C(F)"), normalizer_centralizer(parse_dataset(_ORDER6))):
        p = spec.presentation
        if not _HOMOLOGY.keys() >= set(p.generators) or p.symbolic_relators:
            raise InternalInvariantError(f"{label} of {_ORDER6} is not checkable: {p}")
        letter = {s * i: (_HOMOLOGY if s > 0 else inverse)[name]
                  for i, name in enumerate(p.generators, start=1) for s in (1, -1)}
        checks.update((f"{label}: {render_relator(r, p.generators)}",
                       reduce(_mat_mul, (letter[x] for x in r), _MAT_ID) == _MAT_ID)
                      for r in p.relators)
    return MatrixVerification(
        checks=MappingProxyType(checks),
        note="the relators of the presentations present returns, checked in "
             "the homology image, which is faithful on finite subgroups only")


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
        cls = classify_irreducible(generating_vector(ds))
        if cls.genus != 3:
            raise InternalInvariantError(f"{text} is not a genus-3 three-point class")
        rows.append(TableRow(i, ds, cls.normalizer, cls.centralizer, cls.case))
    return rows


def render_table_genus3(rows: list[TableRow]) -> str:
    cells = [("Sr.", "D_F", "N(F)", "C(F)")]
    cells += [(str(row.index), str(row.dataset), row.normalizer.render(), row.centralizer.render())
              for row in rows]
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
        "n": sr.h1.vector.n,
        "c": list(sr.h1.vector.c),
        "H1_order": sr.h1.order,
        "H2_order": sr.h2.order,
        "units": list(sr.h1.units),
        "B": [[i, j] for i, j in sr.swaps],
        "C": {str(u): render_word(sr.unit_words[u], sigma_names(sr.h1.degree))
              for u in sr.h1.units},
        "index_mod_lmod": sr.h1.index,
        "index_n_c": len(sr.h1.units),
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
    return {**presentation_json(p), "kind": kind, "index": index, "text": render_presentation(p)}


def report_json(rep: AnalysisReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dataset": str(rep.dataset),
        "genus": rep.genus,
        "gamma": {"n": rep.stab.h1.vector.n, "c": list(rep.stab.h1.vector.c)},
        "stab": stabilizer_json(rep.stab),
        "lmod_presentation": _presentation_block(
            rep.lmod_presentation, rep.lmod_kind, rep.stab.h1.index),
        "clmod_presentation": _presentation_block(
            rep.clmod_presentation, rep.clmod_kind, rep.stab.h2.index),
        "classification": classification_json(rep.classification),
        "flags": dict(rep.flags),
    }


def render_report(rep: AnalysisReport) -> str:
    v = rep.stab.h1.vector
    k = v.k
    lines = [
        f"Data set: {rep.dataset}",
        f"Genus {rep.genus}, degree {rep.dataset.n}, {k} branch points",
        f"Generating vector: ({', '.join(map(str, v.c))}) mod {v.n}",
        f"|H1| = {rep.stab.h1.order}, |H2| = {rep.stab.h2.order}, "
        f"units = {{{', '.join(map(str, rep.stab.h1.units))}}}",
        f"[Mod:LMod] = {rep.stab.h1.index}",
        f"[N:C] = {len(rep.stab.h1.units)}",
        "B = " + (", ".join(f"({i},{j})" for i, j in rep.stab.swaps) or "(empty)"),
        "C: " + "; ".join(f"{u} -> {render_word(rep.stab.unit_words[u], sigma_names(k))}"
                          for u in rep.stab.h1.units),
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
        "checks": [{"name": name, "ok": ok} for name, ok in ver.checks.items()],
        "note": ver.note,
    }


def render_verification(ver: MatrixVerification) -> str:
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in ver.checks.items()]
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
