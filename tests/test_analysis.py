import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import pytest

from group_reference import perm_closure, same_relator_sets
from liftmcg.arith_perm import (
    OutOfScopeError,
    identity_perm,
    perm_from_cycles,
    transposition,
    units_mod,
)
from liftmcg.datasets import (
    balanced_superelliptic,
    dataset,
    doubled,
    enumerate_spherical,
    hyperelliptic,
    parse_dataset,
    render_dataset,
)
from liftmcg.fpgroups import (
    EMPTY,
    LiftData,
    Presentation,
    abelianization,
    commutator,
    evaluate_perm,
    gen,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    presentation_json,
    psi_images,
    reidemeister_schreier_full,
    render_presentation,
)
from liftmcg.genvec import (
    classify_irreducible,
    cyclic,
    direct_product,
    generating_vector,
    liftable_images,
    semidirect,
)
from liftmcg.analysis import (
    _subgroup_presentation,
    analyze,
    balanced_superelliptic_shape,
    doubled_shape,
    hyperelliptic_shape,
    normalizer_centralizer,
    normalizer_spec_json,
    render_normalizer_specs,
    render_report,
    render_table_genus3,
    report_json,
    stabilizer_json,
    table_genus3,
    table_json,
    verification_json,
    verify_doubled_matrices,
)
from liftmcg import schemas
from liftmcg.cli import main as cli_main


# ---------------------------------------------------------------------------
# shape detectors


def test_shape_detectors():
    assert hyperelliptic_shape(hyperelliptic(3))
    assert balanced_superelliptic_shape(balanced_superelliptic(3, 2))
    assert balanced_superelliptic_shape(hyperelliptic(2))  # degree-2 special case
    assert doubled_shape(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    assert doubled_shape(parse_dataset("(6,0;(1,3),(2,3),(1,6),(5,6))"))
    assert not doubled_shape(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))
    assert not hyperelliptic_shape(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))


# ---------------------------------------------------------------------------
# analyze


def test_analyze_hyperelliptic():
    rep = analyze(hyperelliptic(2))
    assert rep.flags["mod_equals_lmod"]
    assert rep.lmod_presentation == mod_sphere_presentation(6)
    assert rep.stab.index_mod_lmod == 1
    assert rep.lmod_kind == "mod_sphere" and rep.clmod_kind == "mod_sphere"


def test_analyze_doubled_degree_six():
    rep = analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    assert rep.stab.index_mod_lmod == 6
    assert rep.stab.index_n_c == 2
    assert abelianization(rep.lmod_presentation) == ((2, 2), 1)
    assert rep.flags["doubled"]


def test_analyze_irreducible_seven():
    rep = analyze(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))
    assert rep.classification is not None and rep.classification.case == "i"
    assert rep.stab.h1.order == 3
    assert abelianization(rep.lmod_presentation) == ((3,), 0)


def test_analyze_rejects_bad_inputs():
    with pytest.raises(ValueError):
        analyze(parse_dataset("(4,0;(1,2),(1,4))"))  # invalid data set
    with pytest.raises(ValueError):
        analyze(dataset(2, 1, ((1, 2), (1, 2))))  # not spherical
    with pytest.raises(ValueError):
        analyze(parse_dataset("(6,0;(1,2),(1,3),(1,6))"))  # genus 1


def test_scope_errors_are_typed_with_the_command_line_reasons():
    invalid = parse_dataset("(4,0;(1,2),(1,4))")
    not_spherical = dataset(2, 1, ((1, 2), (1, 2)))
    genus_one = parse_dataset("(2,0;(1,2)_4)")
    for call, reason in (
            (lambda: generating_vector(invalid), "invalid: cond_ii, cond_iv, rh_non_integer"),
            (lambda: generating_vector(not_spherical), "not spherical (g0 != 0)"),
            (lambda: analyze(invalid), "invalid: cond_ii, cond_iv, rh_non_integer"),
            (lambda: analyze(not_spherical), "not spherical (g0 != 0)"),
            (lambda: analyze(genus_one), "genus 1 is outside the genus >= 2 scope"),
            (lambda: normalizer_centralizer(genus_one), "genus 1 is outside the genus >= 2 scope"),
            (lambda: classify_irreducible(generating_vector(genus_one)),
             "genus 1 is outside the genus >= 2 scope"),
            (lambda: classify_irreducible(generating_vector(hyperelliptic(2))),
             "classification needs exactly 3 branch points, got 6")):
        with pytest.raises(OutOfScopeError) as info:
            call()
        assert str(info.value) == reason


def test_each_analysis_validates_its_data_set_once(monkeypatch, capsys):
    import liftmcg.cli as cli_module
    import liftmcg.datasets as datasets_module

    calls = []
    real = datasets_module.validate

    def counting(ds):
        calls.append(ds)
        return real(ds)

    monkeypatch.setattr(datasets_module, "validate", counting)
    monkeypatch.setattr(cli_module, "validate", counting)
    main = cli_module.main
    four, three = "(6,0;(1,2),(1,2),(1,3),(2,3))", "(7,0;(1,7),(2,7),(4,7))"
    for call in (lambda: analyze(parse_dataset(four)),
                 lambda: normalizer_centralizer(parse_dataset(four)),
                 lambda: main(["analyze", four]),
                 lambda: main(["present", four]),
                 lambda: main(["classify", three])):
        calls.clear()
        call()
        assert len(calls) == 1


def test_analyze_index_consistency_genus_2_to_4():
    from math import factorial

    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            assert rep.stab.h1.order == rep.stab.h2.order * len(rep.stab.units)
            assert rep.stab.index_mod_lmod * rep.stab.h1.order == factorial(ds.k)
            assert rep.genus == genus


def test_default_analysis_runs_no_stabilizer_oracle(monkeypatch):
    import liftmcg.genvec as genvec_module

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle ran on the default path")

    monkeypatch.setattr(genvec_module, "stabilizer_bruteforce", refuse)
    monkeypatch.setattr(genvec_module, "_check_against_bruteforce", refuse)
    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            analyze(ds)


# sha256 of render_dataset, then the LMod and CLMod presentation renders, one
# per line, for every spherical class of genus 2-4 in enumeration order
GENUS_2_TO_4_PRESENTATIONS_SHA256 = (
    "170269656b98abd3d17ad424f4e8e3cd0655bb73047ea7378346a08eb2309ba2")


def test_presentations_pinned_and_killed_by_images_genus_2_to_4():
    digest = hashlib.sha256()
    count = 0
    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            count += 1
            for line in (render_dataset(ds), render_presentation(rep.lmod_presentation),
                         render_presentation(rep.clmod_presentation)):
                digest.update((line + "\n").encode())
            k = rep.vector.k
            for pres, images in ((rep.lmod_presentation, rep.lmod_images),
                                 (rep.clmod_presentation, rep.clmod_images)):
                in_order = [images[g] for g in pres.generators]
                for r in pres.relators:
                    assert evaluate_perm(r, in_order, k) == identity_perm(k), (ds, r)
    assert count == 46
    assert digest.hexdigest() == GENUS_2_TO_4_PRESENTATIONS_SHA256


# the same digest for every spherical class of genus 5-6, the Tietze-heavy
# classes included (H1 of (3,0;(1,3)_4,(2,3)_4) alone simplifies 6,813 letters)
GENUS_5_TO_6_PRESENTATIONS_SHA256 = (
    "8e4083c124ddeefec0fd3453781d63ea32c73e75862a12a12db32552ea35dd61")


def test_presentations_pinned_genus_5_to_6():
    digest = hashlib.sha256()
    count = 0
    for genus in (5, 6):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            count += 1
            for line in (render_dataset(ds), render_presentation(rep.lmod_presentation),
                         render_presentation(rep.clmod_presentation)):
                digest.update((line + "\n").encode())
    assert count == 63
    assert digest.hexdigest() == GENUS_5_TO_6_PRESENTATIONS_SHA256


# sha256 of the JSON of every spherical class of genus 2-6, in enumeration
# order: report_json, then normalizer_spec_json of the normalizer and the
# centralizer, one sorted-key line each; this pins the letter lists of the
# simplified, extension and symbolic presentations, not only their renders
GENUS_2_TO_6_JSON_SHA256 = (
    "5fd229f31ce237a80b0be4d7cf5a8e91a475f46de04b6469f2667b9dc8bb6a19")


def test_json_pinned_genus_2_to_6():
    digest = hashlib.sha256()
    count = 0
    for genus in (2, 3, 4, 5, 6):
        for ds in enumerate_spherical(genus):
            count += 1
            norm, cent = normalizer_centralizer(ds)
            for block in (report_json(analyze(ds)), normalizer_spec_json(norm),
                          normalizer_spec_json(cent)):
                digest.update((json.dumps(block, sort_keys=True) + "\n").encode())
    assert count == 109
    assert digest.hexdigest() == GENUS_2_TO_6_JSON_SHA256


def _raw_presentation(k, subgroup):
    """The presentation of the preimage before Tietze: the sphere
    presentations at index 1 and for the trivial subgroup, else the raw
    Reidemeister-Schreier output."""
    if subgroup.is_symmetric:
        return mod_sphere_presentation(k)
    if subgroup.order == 1:
        return pmod_sphere_presentation(k)
    return reidemeister_schreier_full(mod_sphere_presentation(k), psi_images(k), subgroup)[0]


def test_raw_and_simplified_abelianizations_agree_genus_2_to_6():
    # includes H2 of (4,0;(1,2)_2,(1,4)_2,(3,4)_2), a 1620 x 361 relation
    # matrix, and H1 and H2 of (4,0;(1,2)_3,(1,4)_3,(3,4)), 3780 x 701
    count = 0
    for genus in (2, 3, 4, 5, 6):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            for subgroup, simplified in ((rep.stab.h1, rep.lmod_presentation),
                                         (rep.stab.h2, rep.clmod_presentation)):
                raw = _raw_presentation(rep.vector.k, subgroup)
                assert abelianization(raw) == abelianization(simplified), ds
                count += 1
    assert count == 218


def _report_bytes(ds) -> str:
    rep = analyze(ds)
    images = [sorted((name, list(p)) for name, p in m.items())
              for m in (rep.lmod_images, rep.clmod_images)]
    return json.dumps([report_json(rep), images])


def test_memoized_reports_match_cold_runs_genus_2_to_6():
    classes = [ds for genus in (2, 3, 4, 5, 6) for ds in enumerate_spherical(genus)]
    cold = {}
    for ds in classes:
        _subgroup_presentation.cache_clear()
        cold[ds] = _report_bytes(ds)
    _subgroup_presentation.cache_clear()
    random.Random(9).shuffle(classes)
    for ds in classes:
        assert _report_bytes(ds) == cold[ds], ds
    info = _subgroup_presentation.cache_info()
    assert info.misses == 47 and info.hits == 2 * 109 - 47


def test_memoized_reports_under_concurrent_workers():
    classes = [ds for genus in (2, 3, 4) for ds in enumerate_spherical(genus)]
    expected = {ds: _report_bytes(ds) for ds in classes}

    def sweep(seed):
        order = classes[:]
        random.Random(seed).shuffle(order)
        return all(_report_bytes(ds) == expected[ds] for ds in order)

    _subgroup_presentation.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(sweep, seed) for seed in range(6)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert _subgroup_presentation.cache_info().currsize == 26  # distinct subgroups


def test_memoized_reports_are_read_only():
    # H2 of the first is H1 of the second: <(1,2), (3,4)> in Sym(4)
    rep = analyze(parse_dataset("(3,0;(1,3),(1,3),(2,3),(2,3))"))
    other = analyze(parse_dataset("(4,0;(1,2),(1,2),(1,4),(3,4))"))
    assert other.lmod_presentation is rep.clmod_presentation
    assert other.lmod_images is rep.clmod_images
    name = next(iter(rep.lmod_images))
    with pytest.raises(TypeError):
        rep.lmod_images[name] = identity_perm(4)
    with pytest.raises(TypeError):
        del rep.clmod_images[next(iter(rep.clmod_images))]


def test_report_mappings_are_read_only():
    ds = parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")
    rep = analyze(ds)
    norm, _ = normalizer_centralizer(ds)
    for mapping, key in ((rep.flags, "doubled"), (rep.stab.unit_words, 1),
                         (rep.stab.unit_perms, 1), (norm.conjugation_exponents, "G1")):
        assert key in mapping
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    payload = json.loads(json.dumps(normalizer_spec_json(norm)))
    assert payload["conjugation_exponents"] == dict(norm.conjugation_exponents)


# sha256 of the raw Reidemeister-Schreier output for every H1 and H2 of genus
# 2-4 that is neither Sym(k) nor trivial, in enumeration order: one JSON line
# per subgroup holding presentation_json, the index and the sorted images.
# The relators are one rewrite per cyclic class; tests/test_rs_differential.py
# checks them against every rewrite at every coset
GENUS_2_TO_4_RAW_RS_SHA256 = (
    "40eff6415a02a1a87c893d8cf0534bd7490ee9670de62056cd2562110df11a19")


def test_raw_reidemeister_schreier_pinned_genus_2_to_4():
    digest = hashlib.sha256()
    count = 0
    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            v = generating_vector(ds)
            stab = liftable_images(v)
            for subgroup in (stab.h1, stab.h2):
                if subgroup.is_symmetric or subgroup.order == 1:
                    continue
                raw, info = reidemeister_schreier_full(
                    mod_sphere_presentation(v.k), psi_images(v.k), subgroup)
                images = sorted((name, list(img)) for name, img in info.generator_images.items())
                line = json.dumps([presentation_json(raw), info.index, images])
                digest.update((line + "\n").encode())
                count += 1
    assert count == 58
    assert digest.hexdigest() == GENUS_2_TO_4_RAW_RS_SHA256


# ---------------------------------------------------------------------------
# normalizer / centralizer


def test_normalizer_centralizer_free_clmod():
    # degree 6, genus 4 glued-rotation class: g+1 < n < 2g
    ds = doubled(parse_dataset("(6,0;(2,3),(1,6),(1,6))"))
    norm, cent = normalizer_centralizer(ds)
    F, G1, G2 = gen("F"), gen("G1"), gen("G2")
    target = Presentation.from_words(("F", "G1", "G2"),
                                     (F ** 6, commutator(G1, F), commutator(G2, F)))
    assert same_relator_sets(cent.presentation, target)
    assert cent.provenance == "built_in"
    assert not cent.presentation.symbolic_relators
    assert norm.provenance == "symbolic"
    assert norm.presentation.symbolic_relators


def test_normalizer_centralizer_builtin_order_six():
    norm, cent = normalizer_centralizer(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    F, G1, G2, G3 = gen("F"), gen("G1"), gen("G2"), gen("G3")
    target_norm = Presentation.from_words(("F", "G1", "G2", "G3"), (
        F ** 6, commutator(G1, F), commutator(G2, F), commutator(G1, G3),
        (G1 * G2) ** 2 * F ** -4, G3 * F * G3.inv() * F,
        G1 ** 2 * G3 ** -2, (G3 * G2) ** 2 * F ** -3))
    target_cent = Presentation.from_words(("F", "G1", "G2"), (
        F ** 6, commutator(G1, F), commutator(G2, F), (G1 * G2) ** 2 * F ** -4))
    assert same_relator_sets(norm.presentation, target_norm)
    assert same_relator_sets(cent.presentation, target_cent)
    assert norm.conjugation_exponents == {"G1": 1, "G3": -1, "G2": 1}
    assert norm.provenance == "built_in" and cent.provenance == "built_in"


def test_normalizer_centralizer_builtin_order_ten():
    # g = 4 member of the same family
    ds = dataset(10, 0, ((1, 2), (1, 2), (1, 5), (-1, 5)))
    norm, cent = normalizer_centralizer(ds)
    F, G1, G2 = gen("F"), gen("G1"), gen("G2")
    target_cent = Presentation.from_words(("F", "G1", "G2"), (
        F ** 10, commutator(G1, F), commutator(G2, F), (G1 * G2) ** 2 * F ** -6))
    assert same_relator_sets(cent.presentation, target_cent)
    assert norm.conjugation_exponents == {"G1": 1, "G3": -1, "G2": 1}


def test_normalizer_centralizer_classification_route():
    norm, cent = normalizer_centralizer(parse_dataset("(7,0;(5,7),(1,7),(1,7))"))
    assert norm.descriptor == direct_product(7, 2)
    assert cent.descriptor == direct_product(7, 2)
    F, G = gen("F"), gen("G")
    target = Presentation.from_words(("F", "G"), (F ** 7, G ** 2, commutator(G, F)))
    assert same_relator_sets(norm.presentation, target)
    assert norm.notes  # type asserted, not derived

    norm, cent = normalizer_centralizer(parse_dataset("(8,0;(1,4),(1,8),(5,8))"))
    assert norm.descriptor == semidirect(8, 2, 5)
    assert cent.descriptor == cyclic(8)
    assert norm.conjugation_exponents == {"G": 5}


def test_normalizer_centralizer_hyperelliptic_symbolic():
    norm, cent = normalizer_centralizer(hyperelliptic(2))
    # order 2: normalizer = centralizer; both lift the full sphere group
    assert norm.presentation.generators[0] == "F"
    assert len(norm.presentation.generators) == 1 + 5
    assert all(e == 1 for e in norm.conjugation_exponents.values())
    assert norm.provenance == "symbolic"


def test_normalizer_user_lift_data():
    ds = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    rep = analyze(ds)
    q = rep.lmod_presentation
    data = LiftData(
        lifts={g: f"L{i}" for i, g in enumerate(q.generators, start=1)},
        conjugation={(g, "F"): gen("F") ** 2 for g in q.generators},
        evaluations={i: EMPTY for i in range(len(q.relators))})
    norm, cent = normalizer_centralizer(ds, lifts=data, central_lifts=None)
    assert norm.provenance == "user_supplied"
    assert set(norm.conjugation_exponents.values()) == {2}
    # lift names must be strs
    numbered = LiftData(lifts={g: i for i, g in enumerate(q.generators, start=1)},
                        conjugation=data.conjugation, evaluations=data.evaluations)
    with pytest.raises(TypeError):
        normalizer_centralizer(ds, lifts=numbered)


def test_user_lift_exponents_are_units():
    # a user exponent is reported as the built-in routes report its unit,
    # and one that is not a unit mod n, which would collapse F, is refused
    ds = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    q = analyze(ds).lmod_presentation

    def lift_data(e):
        return LiftData(
            lifts={g: f"L{i}" for i, g in enumerate(q.generators, start=1)},
            conjugation={(g, "F"): gen("F") ** e for g in q.generators},
            evaluations={i: EMPTY for i in range(len(q.relators))})

    for e, reported in ((6, -1), (-6, 1), (9, 2), (-1, -1)):
        norm, _ = normalizer_centralizer(ds, lifts=lift_data(e))
        assert set(norm.conjugation_exponents.values()) == {reported}, e
    for e in (0, 7, -14):
        with pytest.raises(ValueError, match="lift L1 is not a unit mod 7"):
            normalizer_centralizer(ds, lifts=lift_data(e))
    ds = parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")
    q = analyze(ds).clmod_presentation
    with pytest.raises(ValueError, match="exponent 3 of lift L1"):
        normalizer_centralizer(ds, central_lifts=lift_data(3))


def test_user_lift_data_with_unknown_keys_is_refused():
    # a key naming no quotient generator, kernel generator or quotient
    # relator is refused by name instead of being ignored
    ds = parse_dataset("(3,0;(1,3),(1,3),(2,3),(2,3))")
    q = analyze(ds).clmod_presentation
    data = _user_lift_data(q, ds.n)
    assert normalizer_centralizer(ds, central_lifts=data)[1].provenance == "user_supplied"
    first, count = q.generators[0], len(q.relators)
    past = {i: EMPTY for i in range(count, count + 3)}
    cases = [
        (LiftData({**data.lifts, "bogus": "B"}, data.conjugation, {**data.evaluations, **past}),
         "lift for 'bogus'"),
        (LiftData(data.lifts, {**data.conjugation, ("bogus", "F"): EMPTY}, data.evaluations),
         r"\('bogus', 'F'\)"),
        (LiftData(data.lifts, {**data.conjugation, (first, "K"): EMPTY}, data.evaluations),
         rf"\('{first}', 'K'\)"),
        (LiftData(data.lifts, data.conjugation, {**data.evaluations, **past}),
         f"evaluation for relator {count},"),
        (LiftData(data.lifts, data.conjugation, {**data.evaluations, -1: EMPTY}),
         "evaluation for relator -1,"),
    ]
    for bad, key in cases:
        with pytest.raises(ValueError, match=key):
            normalizer_centralizer(ds, central_lifts=bad)


def _user_lift_data(q, n):
    """Lift data for the quotient q of a degree-n class: conjugation
    exponents running through the units mod n, written alternately as
    negative and positive powers of F, and empty, concrete and parameter
    relator evaluations."""
    units = units_mod(n)
    return LiftData(
        lifts={g: f"L{i}" for i, g in enumerate(q.generators, start=1)},
        conjugation={(g, "F"): gen("F") ** (units[i % len(units)] - (0 if i % 2 else n))
                     for i, g in enumerate(q.generators)},
        evaluations={i: (EMPTY, gen("F") ** (i + 1), f"p{i}")[i % 3]
                     for i in range(len(q.relators))})


# sha256 of the exact bytes, exit code then stdout, of `present` and
# `present --format json` for every spherical class of genus 2-6 and the
# family members above: every default route to N(F) and C(F)
PRESENT_SHA256 = (
    "a83d19fa96244c11afac1fece784ca06824b72c21b17887625e2746fe5eff8e1")
# sha256 of render_normalizer_specs and the unsorted-key normalizer_spec_json
# of user lift data passed for both groups; test_one_sided_lift_data_keeps_the_other_route
# reduces the one-sided calls to these
USER_LIFT_SHA256 = (
    "25f5328d4275f50c1e5f08df98d8eaf435a11b1d7875167db529dd7c96f2f6a6")
ONE_SIDED_INPUTS = ("(7,0;(1,7),(2,7),(4,7))", "(6,0;(1,2),(1,2),(1,3),(2,3))",
                    "(3,0;(1,3),(1,3),(2,3),(2,3))")


def test_present_pinned(capsys):
    members = [hyperelliptic(g) for g in range(2, 8)] + [
        balanced_superelliptic(3, 2),
        doubled(parse_dataset("(6,0;(2,3),(1,6),(1,6))")),
        dataset(10, 0, ((1, 2), (1, 2), (1, 5), (-1, 5))),
        parse_dataset("(4,0;(1,2),(1,2),(1,4),(3,4))"),
        parse_dataset("(6,0;(1,3),(2,3),(1,6),(5,6))"),
    ]
    classes = [ds for genus in range(2, 7) for ds in enumerate_spherical(genus)] + members
    digest = hashlib.sha256()
    for ds in classes:
        for fmt in ([], ["--format", "json"]):
            code = cli_main(["present", *fmt, render_dataset(ds)])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert len(classes) == 120
    assert digest.hexdigest() == PRESENT_SHA256
    digest = hashlib.sha256()
    for text in ONE_SIDED_INPUTS:
        ds = parse_dataset(text)
        rep = analyze(ds)
        norm, cent = normalizer_centralizer(ds, _user_lift_data(rep.lmod_presentation, ds.n),
                                            _user_lift_data(rep.clmod_presentation, ds.n))
        digest.update((render_normalizer_specs(norm, cent) + "\n").encode())
        for spec in (norm, cent):
            digest.update((json.dumps(normalizer_spec_json(spec)) + "\n").encode())
    assert digest.hexdigest() == USER_LIFT_SHA256


def test_one_sided_lift_data_keeps_the_other_route():
    # lift data for one group leaves the other on the route it takes with no
    # lift data: the classification, the glued-rotation built-in, or generic
    for text in ONE_SIDED_INPUTS:
        ds = parse_dataset(text)
        rep = analyze(ds)
        lifts = _user_lift_data(rep.lmod_presentation, ds.n)
        central = _user_lift_data(rep.clmod_presentation, ds.n)
        both = normalizer_centralizer(ds, lifts, central)
        default = normalizer_centralizer(ds)
        assert normalizer_centralizer(ds, lifts=lifts) == (both[0], default[1]), text
        assert normalizer_centralizer(ds, central_lifts=central) == (default[0], both[1]), text
    ds = parse_dataset(ONE_SIDED_INPUTS[0])
    _, cent = normalizer_centralizer(ds, lifts=_user_lift_data(analyze(ds).lmod_presentation, ds.n))
    assert cent.provenance == "built_in" and cent.descriptor == cyclic(7)
    ds = parse_dataset(ONE_SIDED_INPUTS[1])
    norm, _ = normalizer_centralizer(
        ds, central_lifts=_user_lift_data(analyze(ds).clmod_presentation, ds.n))
    assert norm.provenance == "built_in" and norm.descriptor is None
    assert norm.presentation.generators == ("F", "G1", "G3", "G2")


# ---------------------------------------------------------------------------
# matrix verification


def test_verify_doubled_matrices():
    ver = verify_doubled_matrices()
    assert ver.ok
    names = {c.name: c.ok for c in ver.checks}
    assert names["(G1 G2)^2 = F^4"] and names["(G3 G2)^2 = F^3"]
    assert names["G3 F G3^-1 = F^-1"] and names["G1^2 = G3^2"]
    assert all(names[f"{m} symplectic"] for m in ("F", "G1", "G2", "G", "G3"))
    assert all(not c.ok for c in ver.alternate_readings)


# ---------------------------------------------------------------------------
# the genus-3 table


EXPECTED_TABLE = [
    (semidirect(7, 3, 2), cyclic(7)),
    (direct_product(7, 2), direct_product(7, 2)),
    (semidirect(8, 2, 5), cyclic(8)),
    (direct_product(8, 2), direct_product(8, 2)),
    (cyclic(9), cyclic(9)),
    (semidirect(12, 2, 5), cyclic(12)),
    (cyclic(12), cyclic(12)),
    (cyclic(14), cyclic(14)),
]


def test_table_genus3_rows():
    rows = table_genus3()
    assert len(rows) == 8
    for row, (norm, cent) in zip(rows, EXPECTED_TABLE):
        assert row.normalizer == norm
        assert row.centralizer == cent


def test_table_genus3_render():
    text = render_table_genus3(table_genus3())
    lines = text.splitlines()
    assert len(lines) == 11  # header, rule, 8 rows, footnote
    assert "Z7 x|_2 Z3" in lines[2]
    assert "Z14" in lines[9]


# ---------------------------------------------------------------------------
# family invariants


def test_hyperelliptic_family_invariants():
    from math import factorial

    for g in (2, 3, 4, 5, 6, 7):
        rep = analyze(hyperelliptic(g))
        assert rep.stab.h1.order == factorial(2 * g + 2)
        assert rep.flags["mod_equals_lmod"]
        assert rep.lmod_kind == "mod_sphere"
        assert rep.lmod_presentation == mod_sphere_presentation(2 * g + 2)


def test_superelliptic_family_invariants():
    from liftmcg.genvec import GeneratingVector, liftable_images, stabilizer_bruteforce

    for n, k in ((3, 1), (3, 2), (5, 1)):
        points = 2 * k + 2
        v = GeneratingVector(n, (1, n - 1) * (k + 1))
        rep = liftable_images(v, cross_check=True)
        assert rep.units == (1, n - 1)
        gens = [transposition(i, i + 2, points) for i in range(1, points - 1)]
        gens.append(perm_from_cycles(
            [(2 * t + 1, 2 * t + 2) for t in range(k + 1)], points))
        assert perm_closure(gens, points) == \
            tuple(sorted(s for _, s in stabilizer_bruteforce(v)))
        assert rep.h1.order == 2 * rep.h2.order


def test_doubled_family_indices():
    cases = [
        ("(6,0;(1,2),(1,2),(1,3),(2,3))", 6),
        ("(4,0;(1,2),(1,2),(1,4),(3,4))", 6),
        ("(6,0;(1,3),(2,3),(1,6),(5,6))", 12),
    ]
    for text, index in cases:
        rep = analyze(parse_dataset(text))
        assert rep.stab.index_mod_lmod == index
        assert rep.stab.index_n_c == 2


# ---------------------------------------------------------------------------
# serialization


def test_report_json_schema_and_stability():
    rep = analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    payload = report_json(rep)
    jsonschema.validate(payload, schemas.ANALYSIS_SCHEMA)
    jsonschema.validate(payload["stab"], schemas.STABILIZER_SCHEMA)
    first = json.dumps(payload, indent=2)
    second = json.dumps(report_json(analyze(rep.dataset)), indent=2)
    assert first == second


def test_stabilizer_json_shape():
    rep = analyze(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))
    payload = stabilizer_json(rep.stab)
    assert payload["n"] == 7 and payload["c"] == [1, 2, 4]
    assert payload["H1_order"] == 3 and payload["H2_order"] == 1
    assert payload["units"] == [1, 2, 4]
    assert payload["B"] == []
    assert payload["C"]["1"] == "1" and payload["C"]["2"] == "s1*s2"
    assert payload["index_mod_lmod"] == 2 and payload["index_n_c"] == 3


def test_table_and_verification_json_schema():
    jsonschema.validate(table_json(table_genus3()), schemas.TABLE_SCHEMA)
    jsonschema.validate(verification_json(verify_doubled_matrices()),
                        schemas.VERIFY_SCHEMA)


def test_normalizer_spec_json():
    norm, cent = normalizer_centralizer(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    payload = normalizer_spec_json(norm)
    assert payload["provenance"] == "built_in"
    assert payload["conjugation_exponents"] == {"G1": 1, "G3": -1, "G2": 1}


def test_render_report_lines():
    text = render_report(analyze(hyperelliptic(2)))
    assert "LMod = Mod(S_{0,6})" in text
    text = render_report(analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")))
    assert "[Mod:LMod] = 6" in text
    assert "[N:C] = 2" in text
