import hashlib
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import jsonschema
import pytest

from by_name import commutator, from_words, gen
from group_reference import PointStabilizer, perm_closure, same_relator_sets
from liftmcg.arith_perm import (
    MAX_PMOD_SPHERE_DEGREE,
    CapacityError,
    InternalInvariantError,
    OutOfScopeError,
    identity_perm,
    perm_from_cycles,
    transposition,
    units_mod,
)
from liftmcg.datasets import (
    DataSet,
    balanced_superelliptic,
    dataset,
    doubled,
    enumerate_spherical,
    hyperelliptic,
    parse_dataset,
    render_dataset,
)
from liftmcg.fpgroups import (
    LiftData,
    Presentation,
    abelianization,
    evaluate_perm,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    presentation_json,
    psi_images,
    reidemeister_schreier_full,
    render_presentation,
    render_relator,
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
    _report_memo,
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
from liftmcg import analysis as analysis_module
from liftmcg import fpgroups
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
    assert rep.stab.h1.index == 1
    assert rep.lmod_kind == "mod_sphere" and rep.clmod_kind == "mod_sphere"


def test_analyze_doubled_degree_six():
    rep = analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    assert rep.stab.h1.index == 6
    assert len(rep.stab.h1.units) == 2
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


def _distinct_residues_mod_61(residues):
    return parse_dataset("(61,0;" + ",".join(f"({d},61)" for d in residues) + ")")


def test_analyze_refuses_the_pmod_route_past_its_cap():
    # genus 720, k = 26: H1 is trivial, so LMod is PMod(S_{0,26}), whose
    # Tietze run took 4.5 s unguarded
    ds = _distinct_residues_mod_61((*range(1, 12), *range(13, 28)))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="^26 marked points exceed PMod's cap of 24$"):
        analyze(ds)
    assert time.perf_counter() - start < 1.0


def test_pmod_route_cap_is_checked_before_building(monkeypatch):
    # at the cap the route runs, one past it nothing is built; Tietze is
    # skipped, since the cap is on the degree alone
    monkeypatch.setattr(analysis_module, "tietze_simplify", lambda p: p)
    at_cap = _distinct_residues_mod_61((*range(1, 24), 29))
    past_cap = _distinct_residues_mod_61((*range(1, 20), *range(21, 25), 26, 60))
    h2 = liftable_images(generating_vector(at_cap)).h2
    assert (h2.order, h2.degree) == (1, MAX_PMOD_SPHERE_DEGREE)
    p, _, kind = _subgroup_presentation.__wrapped__(h2)
    assert kind == "pmod_sphere" and p is pmod_sphere_presentation(MAX_PMOD_SPHERE_DEGREE)
    h2 = liftable_images(generating_vector(past_cap)).h2
    assert (h2.order, h2.degree) == (1, MAX_PMOD_SPHERE_DEGREE + 1)
    monkeypatch.setattr(analysis_module, "pmod_sphere_presentation", None)
    with pytest.raises(CapacityError, match="^25 marked points exceed"):
        _subgroup_presentation.__wrapped__(h2)


def test_pmod_route_of_every_class_to_genus_30_is_under_the_cap():
    # H1 or H2 is trivial exactly when the analysis takes the pmod_sphere route
    degrees = {}
    for genus in range(2, 31):
        for ds in enumerate_spherical(genus):
            stab = liftable_images(generating_vector(ds))
            for name, sub in (("H1", stab.h1), ("H2", stab.h2)):
                if sub.order == 1:
                    degrees[name, str(ds)] = sub.degree
    assert len(degrees) == 4156
    worst = max(degrees, key=degrees.get)
    assert worst == ("H2", "(12,0;(1,2),(1,3),(2,3),(1,4),(3,4),(1,6),(5,6),(1,12),(5,12))")
    assert degrees[worst] == 9 <= MAX_PMOD_SPHERE_DEGREE


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
    # each call is cold: one miss of the report memo, and classify reads none
    for call, misses in ((lambda: analyze(parse_dataset(four)), 1),
                         (lambda: normalizer_centralizer(parse_dataset(four)), 1),
                         (lambda: main(["analyze", four]), 1),
                         (lambda: main(["present", four]), 1),
                         (lambda: main(["classify", three]), 0)):
        _report_memo.cache_clear()
        calls.clear()
        call()
        assert len(calls) == 1
        info = _report_memo.cache_info()
        assert (info.hits, info.misses) == (0, misses)


def test_analyze_index_consistency_genus_2_to_4():
    from math import factorial

    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            assert rep.stab.h1.order == rep.stab.h2.order * len(rep.stab.h1.units)
            payload = stabilizer_json(rep.stab)
            assert payload["index_mod_lmod"] * rep.stab.h1.order == factorial(ds.k)
            assert payload["index_n_c"] == len(rep.stab.h1.units)
            assert rep.genus == genus


def test_default_analysis_runs_no_stabilizer_oracle(monkeypatch):
    import liftmcg.genvec as genvec_module

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle ran on the default path")

    monkeypatch.setattr(genvec_module, "stabilizer_bruteforce", refuse)
    monkeypatch.setattr(genvec_module, "_check_against_bruteforce", refuse)
    _report_memo.cache_clear()  # a memoized report would run no stabilizer code at all
    count = 0
    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            analyze(ds)
            count += 1
    info = _report_memo.cache_info()
    assert (info.hits, info.misses) == (0, count)  # every class ran the default path


def test_analysis_builds_h1_once_per_class(monkeypatch):
    # a three-point class is classified off the H1 that liftable_images built
    import liftmcg.genvec as genvec_module

    calls, real = [], genvec_module.stabilizing_units
    monkeypatch.setattr(genvec_module, "stabilizing_units",
                        lambda v: calls.append(v) or real(v))
    _report_memo.cache_clear()
    classes = [ds for genus in (2, 3, 4, 5, 6) for ds in enumerate_spherical(genus)]
    reports = [analyze(ds) for ds in classes]
    assert len(calls) == len(classes), len(calls)
    # the same classification as the public call, which builds H1 from the vector
    classified = [rep for rep in reports if rep.classification is not None]
    assert len(classified) > 20
    for rep in classified:
        assert rep.classification == classify_irreducible(rep.stab.h1.vector), rep.dataset


# sha256 of render_dataset, then the LMod and CLMod presentation renders, one
# per line, for every spherical class of genus 2-4 in enumeration order
GENUS_2_TO_4_PRESENTATIONS_SHA256 = (
    "b946a62d76f78df4231687c972e3862c4bf7be13ce0a6050a83f2939391fc9d4")


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
            k = rep.stab.h1.vector.k
            for pres, images in ((rep.lmod_presentation, rep.lmod_images),
                                 (rep.clmod_presentation, rep.clmod_images)):
                assert len(images) == len(pres.generators), ds
                for r in pres.relators:
                    assert evaluate_perm(r, images, k) == identity_perm(k), (ds, r)
    assert count == 46
    assert digest.hexdigest() == GENUS_2_TO_4_PRESENTATIONS_SHA256


# the same digest for every spherical class of genus 5-6, the Tietze-heavy
# classes included (H1 of (3,0;(1,3)_4,(2,3)_4) alone simplifies 6,813 letters)
GENUS_5_TO_6_PRESENTATIONS_SHA256 = (
    "351aa333e4dac06167ac9927c42f1f4ae25e7fd9347ddbe73d70ab74abb0c431")


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
    "9854a27a1027de521372947d6fb3698e6c5311392a72776368a55bd97d57649f")


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
    fpgroups._rs_memo.cache_clear()
    count = 0
    for genus in (2, 3, 4, 5, 6):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            for subgroup, simplified in ((rep.stab.h1, rep.lmod_presentation),
                                         (rep.stab.h2, rep.clmod_presentation)):
                raw = _raw_presentation(rep.stab.h1.vector.k, subgroup)
                assert abelianization(raw) == abelianization(simplified), ds
                count += 1
    assert count == 218
    # 142 preimages are Reidemeister-Schreier output, of 38 distinct subgroups:
    # H2 = H1 when [N:C] = 1, and subgroups recur across classes
    info = fpgroups._rs_memo.cache_info()
    assert (info.hits + info.misses, info.misses) == (142, 38)


def clmod_over_the_units_action(genera) -> int:
    """Check, on every class of the genera with more than one stabilizing
    unit, that CLMod is the kernel of LMod -> U: Reidemeister-Schreier of
    LMod's presentation, psi sending each generator to the regular action of
    the unit of its image on U = {u_0, u_1, ...} (u moves point i to the
    index of u * u_i), over Stab(0) in Sym(|U|), has CLMod's
    abelianization.  Returns the number of classes checked."""
    count = 0
    for genus in genera:
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            h1 = rep.stab.h1
            units, n = h1.units, h1.vector.n
            if len(units) == 1:
                continue
            position = {u: i for i, u in enumerate(units)}
            regular = {u: tuple(position[u * w % n] for w in units) for u in units}
            psi = [regular[h1.unit_of(image)] for image in rep.lmod_images]
            raw, images = reidemeister_schreier_full(rep.lmod_presentation, psi,
                                                     PointStabilizer(len(units)))
            # |U| cosets: |U| * (r - 1) + 1 generators from LMod's r
            ngens = len(rep.lmod_presentation.generators)
            assert len(images) == len(units) * (ngens - 1) + 1, ds
            assert abelianization(raw) == abelianization(rep.clmod_presentation), ds
            count += 1
    return count


def test_clmod_is_the_kernel_of_lmod_onto_the_units_genus_2_to_6():
    # psi's images are fixed-point-free wherever |U| > 2, so none is a
    # transposition; CI runs genus 7-8 (35 classes)
    assert clmod_over_the_units_action((2, 3, 4, 5, 6)) == 41


def _report_bytes(ds) -> str:
    rep = analyze(ds)
    images = [list(map(list, m)) for m in (rep.lmod_images, rep.clmod_images)]
    return json.dumps([report_json(rep), images])


def test_memoized_reports_match_cold_runs_genus_2_to_6():
    classes = [ds for genus in (2, 3, 4, 5, 6) for ds in enumerate_spherical(genus)]
    cold = {}
    for ds in classes:
        _subgroup_presentation.cache_clear()
        _report_memo.cache_clear()
        cold[ds] = _report_bytes(ds)
    _subgroup_presentation.cache_clear()
    _report_memo.cache_clear()
    random.Random(9).shuffle(classes)
    for ds in classes:
        assert _report_bytes(ds) == cold[ds], ds
    info = _subgroup_presentation.cache_info()
    assert info.misses == 47 and info.hits == 2 * 109 - 47
    reports = _report_memo.cache_info()
    assert (reports.hits, reports.misses, reports.currsize) == (0, 109, 109)
    # a second sweep reads every report from its memo, and no subgroup
    for ds in classes:
        assert _report_bytes(ds) == cold[ds], ds
    assert _subgroup_presentation.cache_info() == info
    reports = _report_memo.cache_info()
    assert (reports.hits, reports.misses, reports.currsize) == (109, 109, 109)


def test_memoized_reports_under_concurrent_workers():
    classes = [ds for genus in (2, 3, 4) for ds in enumerate_spherical(genus)]
    expected = {ds: _report_bytes(ds) for ds in classes}

    def sweep(seed):
        order = classes[:]
        random.Random(seed).shuffle(order)
        return all(_report_bytes(ds) == expected[ds] for ds in order)

    _subgroup_presentation.cache_clear()
    _report_memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(sweep, seed) for seed in range(6)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert _subgroup_presentation.cache_info().currsize == 26  # distinct subgroups
    # every class is a miss at least once; two workers may both miss on one
    reports = _report_memo.cache_info()
    assert reports.currsize == len(classes)
    assert reports.hits + reports.misses == 6 * len(classes)
    assert len(classes) <= reports.misses < 6 * len(classes)


def test_analyze_returns_the_memoized_report():
    ds = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    _report_memo.cache_clear()
    first = analyze(ds)
    assert analyze(ds) is first
    assert analyze(parse_dataset(str(ds))) is first  # an equal DataSet is the same key
    with pytest.raises(FrozenInstanceError):  # every caller gets this one object
        first.genus = 0

    class Marked(DataSet):  # a subclass is a DataSet too, memoized under its own key
        pass

    marked = Marked(ds.n, ds.g0, ds.pairs)
    assert analyze(marked) is analyze(marked) is not first
    info = _report_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 2, 2)
    assert info.maxsize == analysis_module.PRESENTATION_MEMO_SIZE == 128
    assert _subgroup_presentation.cache_info().maxsize == 128
    assert fpgroups._rs_memo.cache_info().maxsize == 128


def test_present_after_analyze_is_a_memo_hit_that_validates_nothing(monkeypatch, capsys):
    import liftmcg.datasets as datasets_module

    calls = []
    real = datasets_module.validate
    monkeypatch.setattr(datasets_module, "validate", lambda ds: calls.append(ds) or real(ds))
    four = "(6,0;(1,2),(1,2),(1,3),(2,3))"
    _report_memo.cache_clear()
    ds = parse_dataset(four)
    analyze(ds)
    assert len(calls) == 1
    for present in (lambda: normalizer_centralizer(ds), lambda: cli_main(["present", four])):
        calls.clear()
        before = _report_memo.cache_info()
        present()
        after = _report_memo.cache_info()
        assert calls == []
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_refused_class_is_refused_on_every_call_and_not_memoized():
    # genus 1, and genus 40 past the rewrite-volume cap
    for text, error in (("(6,0;(1,2),(1,3),(1,6))", OutOfScopeError),
                        ("(3,0;(1,3)_39,(2,3)_3)", CapacityError)):
        ds = parse_dataset(text)
        _report_memo.cache_clear()
        for call in (analyze, normalizer_centralizer, analyze):
            with pytest.raises(error):
                call(ds)
        info = _report_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0), text


def test_analysis_refuses_what_is_not_a_data_set():
    _report_memo.cache_clear()
    for bad, name in (("(6,0;(1,2),(1,3),(1,6))", "str"), (None, "NoneType"), ([1], "list")):
        for call in (analyze, normalizer_centralizer):
            with pytest.raises(TypeError) as info:
                call(bad)
            assert str(info.value) == ("a data set must be a DataSet (parse_dataset reads "
                                       f"one from text), got {name}")
    assert _report_memo.cache_info()[:2] == (0, 0)  # nothing reached the memo


def test_memoized_reports_are_read_only():
    # H2 of the first is H1 of the second: <(1,2), (3,4)> in Sym(4)
    rep = analyze(parse_dataset("(3,0;(1,3),(1,3),(2,3),(2,3))"))
    other = analyze(parse_dataset("(4,0;(1,2),(1,2),(1,4),(3,4))"))
    assert other.lmod_presentation is rep.clmod_presentation
    assert other.lmod_images is rep.clmod_images
    assert type(rep.lmod_images) is tuple and type(rep.clmod_images) is tuple
    with pytest.raises(TypeError):
        rep.lmod_images[0] = identity_perm(4)
    with pytest.raises(TypeError):
        del rep.clmod_images[0]


def test_report_mappings_are_read_only():
    ds = parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")
    rep = analyze(ds)
    norm, _ = normalizer_centralizer(ds)
    for mapping, key in ((rep.flags, "doubled"), (rep.stab.unit_words, 1),
                         (rep.stab.h1.unit_perms, 1), (norm.conjugation_exponents, "G1")):
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
# the same digest over genus 5-8, past the reach of the differential
GENUS_5_TO_8_RAW_RS_SHA256 = (
    "8746e98095307c9a67232f77456cd1f55101615366c025d4afe86cd5ec336d2d")


def _raw_rs_digest(genera) -> tuple[int, str]:
    """(subgroup count, sha256) of the raw RS output described above."""
    digest = hashlib.sha256()
    count = 0
    for genus in genera:
        for ds in enumerate_spherical(genus):
            v = generating_vector(ds)
            stab = liftable_images(v)
            for subgroup in (stab.h1, stab.h2):
                if subgroup.is_symmetric or subgroup.order == 1:
                    continue
                raw, images = reidemeister_schreier_full(
                    mod_sphere_presentation(v.k), psi_images(v.k), subgroup)
                named = sorted((name, list(img)) for name, img in zip(raw.generators, images))
                line = json.dumps([presentation_json(raw), subgroup.index, named])
                digest.update((line + "\n").encode())
                count += 1
    return count, digest.hexdigest()


def test_raw_reidemeister_schreier_pinned_genus_2_to_4():
    assert _raw_rs_digest((2, 3, 4)) == (58, GENUS_2_TO_4_RAW_RS_SHA256)


def test_raw_reidemeister_schreier_pinned_genus_5_to_8():
    assert _raw_rs_digest((5, 6, 7, 8)) == (228, GENUS_5_TO_8_RAW_RS_SHA256)


# ---------------------------------------------------------------------------
# normalizer / centralizer


def test_normalizer_centralizer_free_clmod():
    # degree 6, genus 4 glued-rotation class: g+1 < n < 2g
    ds = doubled(parse_dataset("(6,0;(2,3),(1,6),(1,6))"))
    norm, cent = normalizer_centralizer(ds)
    F, G1, G2 = gen("F"), gen("G1"), gen("G2")
    target = from_words(("F", "G1", "G2"),
                                     (F ** 6, commutator(G1, F), commutator(G2, F)))
    assert same_relator_sets(cent.presentation, target)
    assert cent.provenance == "built_in"
    assert not cent.presentation.symbolic_relators
    assert norm.provenance == "symbolic"
    assert norm.presentation.symbolic_relators


def test_normalizer_centralizer_builtin_order_six():
    norm, cent = normalizer_centralizer(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    F, G1, G2, G3 = gen("F"), gen("G1"), gen("G2"), gen("G3")
    target_norm = from_words(("F", "G1", "G2", "G3"), (
        F ** 6, commutator(G1, F), commutator(G2, F), commutator(G1, G3),
        (G1 * G2) ** 2 * F ** -4, G3 * F * G3.inv() * F,
        G1 ** 2 * G3 ** -2, (G3 * G2) ** 2 * F ** -3))
    target_cent = from_words(("F", "G1", "G2"), (
        F ** 6, commutator(G1, F), commutator(G2, F), (G1 * G2) ** 2 * F ** -4))
    assert same_relator_sets(norm.presentation, target_norm)
    assert same_relator_sets(cent.presentation, target_cent)
    assert norm.conjugation_exponents == {"G1": 1, "G3": -1, "G2": 1}
    assert norm.provenance == "built_in" and cent.provenance == "built_in"


def test_exponents_refuse_an_image_outside_h1():
    # H1 = <(1 2), (3 4)>; the images are the library's own, so (1 3) is a bug
    rep = analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))"))
    assert analysis_module._exponents(rep, [identity_perm(4), transposition(3, 4, 4)]) == [1, -1]
    with pytest.raises(InternalInvariantError, match="^a generator image lies outside H1 of "):
        analysis_module._exponents(rep, [identity_perm(4), transposition(1, 3, 4)])


def test_normalizer_centralizer_builtin_order_ten():
    # g = 4 member of the same family
    ds = dataset(10, 0, ((1, 2), (1, 2), (1, 5), (-1, 5)))
    norm, cent = normalizer_centralizer(ds)
    F, G1, G2 = gen("F"), gen("G1"), gen("G2")
    target_cent = from_words(("F", "G1", "G2"), (
        F ** 10, commutator(G1, F), commutator(G2, F), (G1 * G2) ** 2 * F ** -6))
    assert same_relator_sets(cent.presentation, target_cent)
    assert norm.conjugation_exponents == {"G1": 1, "G3": -1, "G2": 1}


def test_normalizer_centralizer_classification_route():
    norm, cent = normalizer_centralizer(parse_dataset("(7,0;(5,7),(1,7),(1,7))"))
    assert norm.descriptor == direct_product(7, 2)
    assert cent.descriptor == direct_product(7, 2)
    F, G = gen("F"), gen("G")
    target = from_words(("F", "G"), (F ** 7, G ** 2, commutator(G, F)))
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
        conjugation={(g, "F"): (1, 1) for g in q.generators},
        evaluations={i: () for i in range(len(q.relators))})
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
            conjugation={(g, "F"): (1 if e > 0 else -1,) * abs(e) for g in q.generators},
            evaluations={i: () for i in range(len(q.relators))})

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
    past = {i: () for i in range(count, count + 3)}
    cases = [
        (LiftData({**data.lifts, "bogus": "B"}, data.conjugation, {**data.evaluations, **past}),
         "lift for 'bogus'"),
        (LiftData(data.lifts, {**data.conjugation, ("bogus", "F"): ()}, data.evaluations),
         r"\('bogus', 'F'\)"),
        (LiftData(data.lifts, {**data.conjugation, (first, "K"): ()}, data.evaluations),
         rf"\('{first}', 'K'\)"),
        (LiftData(data.lifts, data.conjugation, {**data.evaluations, **past}),
         f"evaluation for relator {count},"),
        (LiftData(data.lifts, data.conjugation, {**data.evaluations, -1: ()}),
         "evaluation for relator -1,"),
    ]
    for bad, key in cases:
        with pytest.raises(ValueError, match=key):
            normalizer_centralizer(ds, central_lifts=bad)


def test_lift_data_that_is_not_lift_data_is_refused():
    # a dict used to fail on its missing attribute .lifts (AttributeError)
    ds = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    with pytest.raises(TypeError, match="^lift data is a LiftData, got dict$"):
        normalizer_centralizer(ds, lifts={"x": 1})
    with pytest.raises(TypeError, match="^lift data is a LiftData, got list$"):
        normalizer_centralizer(ds, central_lifts=[])


def _user_lift_data(q, n):
    """Lift data for the quotient q of a degree-n class: conjugation
    exponents running through the units mod n, written alternately as
    negative and positive powers of F, and empty, concrete and parameter
    relator evaluations."""
    units = units_mod(n)
    return LiftData(
        lifts={g: f"L{i}" for i, g in enumerate(q.generators, start=1)},
        conjugation={(g, "F"): (1,) * units[i % len(units)] if i % 2
                     else (-1,) * (n - units[i % len(units)])
                     for i, g in enumerate(q.generators)},
        evaluations={i: ((), (1,) * (i + 1), f"p{i}")[i % 3]
                     for i in range(len(q.relators))})


# sha256 of the exact bytes, exit code then stdout, of `present` and
# `present --format json` for every spherical class of genus 2-6 and the
# family members above: every default route to N(F) and C(F)
PRESENT_SHA256 = (
    "16b424e5d028047e0c0ef5319935047b58bb46cec79cba55ecc38d704a114694")
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


ORDER6 = "(6,0;(1,2),(1,2),(1,3),(2,3))"


def test_verify_doubled_matrices():
    # one check per symplectic matrix, then one per relator that present
    # prints for the order-6 class, named after it
    ver = verify_doubled_matrices()
    assert ver.ok and all(ver.checks.values())
    names = list(ver.checks)
    assert names[:4] == ["F symplectic", "G1 symplectic", "G2 symplectic", "G3 symplectic"]
    norm, cent = normalizer_centralizer(parse_dataset(ORDER6))
    assert names[4:] == (
        [f"N(F): {render_relator(r, norm.presentation.generators)}"
         for r in norm.presentation.relators]
        + [f"C(F): {render_relator(r, cent.presentation.generators)}"
           for r in cent.presentation.relators])
    assert len(names) == 4 + 8 + 4
    assert "N(F): G1*G2*G1*G2 = F^4" in names and "N(F): G3*G2*G3*G2 = F^3" in names
    assert "N(F): G3*F*G3^-1*F = 1" in names and "N(F): G3^2 = G1^2" in names
    text = render_normalizer_specs(norm, cent)
    assert all(name.split(": ", 1)[1] in text for name in names[4:])


def test_verify_fails_on_a_wrong_relator_value(monkeypatch, capsys):
    # N(F)'s (G1 G2)^2 = F^(g+2) tampered to F^(g+3): verify reads the
    # presentation that present returns, so it must fail
    built_in = analysis_module._doubled_builtin

    def tampered(rep):
        norm, cent = built_in(rep)
        p = norm.presentation
        g1g2 = next(r for r in p.relators
                    if render_relator(r, p.generators) == "G1*G2*G1*G2 = F^4")
        relators = tuple(r + (-1,) if r == g1g2 else r for r in p.relators)
        return replace(norm, presentation=Presentation(p.generators, relators)), cent

    monkeypatch.setattr(analysis_module, "_doubled_builtin", tampered)
    assert "G1*G2*G1*G2 = F^5" in render_normalizer_specs(
        *normalizer_centralizer(parse_dataset(ORDER6)))
    assert cli_main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  N(F): G1*G2*G1*G2 = F^5" in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_verify_refuses_a_generator_with_no_matrix(monkeypatch):
    matrices = dict(analysis_module._HOMOLOGY)
    del matrices["G3"]
    monkeypatch.setattr(analysis_module, "_HOMOLOGY", matrices)
    with pytest.raises(InternalInvariantError, match="N\\(F\\) of .* is not checkable"):
        verify_doubled_matrices()


# the paper's G, with G3 = G1 G; it is in neither presentation
PSI_G = ((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0))


def test_homology_matrices_are_the_papers():
    m = analysis_module._HOMOLOGY
    mul = analysis_module._mat_mul
    F, G1, G3 = m["F"], m["G1"], m["G3"]
    assert mul(G1, PSI_G) == G3
    # two other readings of the relations, which the matrices refute:
    # G1^2 = G3^2 F and [G1, G3] = F
    assert mul(G1, G1) != mul(mul(G3, G3), F)
    assert mul(G1, G3) != mul(mul(F, G3), G1)
    # while G1^2 = G3^2 and [G1, G3] = 1 hold
    assert mul(G1, G1) == mul(G3, G3) and mul(G1, G3) == mul(G3, G1)


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
        assert rep.h1.units == (1, n - 1)
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
        assert rep.stab.h1.index == index
        assert len(rep.stab.h1.units) == 2


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
    # both specs of every class of genus 2-3 meet the schema's normalizer part
    validator = jsonschema.Draft202012Validator(schemas.PRESENT_SCHEMA["properties"]["normalizer"])
    specs = [spec for genus in (2, 3) for ds in enumerate_spherical(genus)
             for spec in normalizer_centralizer(ds)]
    assert len(specs) == 46
    for spec in specs:
        validator.validate(normalizer_spec_json(spec))


def test_render_report_lines():
    text = render_report(analyze(hyperelliptic(2)))
    assert "LMod = Mod(S_{0,6})" in text
    text = render_report(analyze(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")))
    assert "[Mod:LMod] = 6" in text
    assert "[N:C] = 2" in text
