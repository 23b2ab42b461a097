import hashlib
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial, gcd

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from by_name import EMPTY, Word, commutator, from_words, gen
from group_reference import (
    PermGroup,
    closure,
    relator_key,
    rename_presentation,
    same_relator_sets,
)
from liftmcg import schemas
from liftmcg.arith_perm import (
    MAX_REWRITE_LETTERS,
    CapacityError,
    compose,
    identity_perm,
    inverse,
    perm_from_cycles,
    transposition,
)
from liftmcg.datasets import (
    are_equivalent,
    canonical_form,
    doubled,
    enumerate_spherical,
    equivalence_witness,
    parse_dataset,
    render_dataset,
    validate,
)
from liftmcg.fpgroups import (
    LiftData,
    Presentation,
    SymbolicRelator,
    abelianization,
    evaluate_perm,
    extension_presentation,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    preimage_presentation,
    presentation_json,
    psi_image,
    psi_images,
    reidemeister_schreier_full,
    render_presentation,
    render_relator,
    render_word,
    tietze_simplify,
)
from liftmcg.genvec import (
    VectorStabilizer,
    act,
    generating_vector,
    half_twist_word,
    liftable_images,
    mod_equals_lmod,
    stabilizer_bruteforce,
)
from sphere_reference import mismatched_degrees


# ---------------------------------------------------------------------------
# words


def test_word_render():
    assert render_word((), ("a", "b")) == "1"
    assert render_word((1, 1, -2, -2, -2), ("a", "b")) == "a^2*b^-3"
    assert render_word((1, 2, -1), ("a", "b")) == "a*b*a^-1"
    assert render_word((2, -1, -1), ("s1", "s2")) == "s2*s1^-2"


def test_word_helpers_refuse_a_letter_past_their_generators():
    # letter 0 read images[-1] and names[-1], the last generator inverted, and
    # True read as letter 1; images of another degree gave a product of theirs
    psi = psi_images(4)
    for bad in ((0,), (4,), (-4,), (True,), (1, 1.0)):
        with pytest.raises(ValueError, match=r"^word letter .* is not one of \+-1\.\.\+-3$"):
            evaluate_perm(bad, psi, 4)
    with pytest.raises(ValueError, match="^the images must have degree 5$"):
        evaluate_perm((1,), psi, 5)
    with pytest.raises(ValueError, match="^the images must have degree 4$"):
        evaluate_perm((), (*psi[:2], transposition(1, 2, 5)), 4)
    for bad in ((0,), (2,), (-2,), (True,), (1, 1, 0)):
        with pytest.raises(ValueError, match=r"^word letter .* is not one of \+-1\.\.\+-1$"):
            render_word(bad, ("a",))
    # a commutator letter past the names raised IndexError
    for bad in ((1, 2, -1, -2), (2, 1, -2, -1), (1, -2), (0,)):
        with pytest.raises(ValueError, match=r"^word letter .* is not one of \+-1\.\.\+-1$"):
            render_relator(bad, ("a",))
    assert evaluate_perm((1, -3), psi, 4) == compose(psi[0], inverse(psi[2]))


def test_render_relator_and_presentation():
    a, b = gen("a"), gen("b")
    p = from_words(("a", "b"), (a ** 2 * b ** -3, commutator(a, b)))
    assert p.relators == ((1, 1, -2, -2, -2), (1, 2, -1, -2))
    assert render_relator(p.relators[0], p.generators) == "a^2 = b^3"
    assert render_relator(p.relators[1], p.generators) == "[a,b] = 1"
    assert render_presentation(p) == "<a, b | a^2 = b^3, [a,b] = 1>"
    assert render_presentation(Presentation((), ())) == "<1>"
    assert render_presentation(Presentation(("a",), ())) == "<a | >"


def test_presentation_validates_letters():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    # relators are tuples of nonzero ints naming generators, freely reduced
    for relator in ((0,), (True,), (1, False), (1.0,), ("a",), (None,),
                    (3,), (-3,), (1, 2, -2), (-1, 1)):
        with pytest.raises(ValueError):
            Presentation(("a", "b"), (relator,))
    with pytest.raises(TypeError):
        Presentation(("a",), (gen("a"),))
    # a symbolic relator is a SymbolicRelator, not its lhs alone
    with pytest.raises(TypeError, match="SymbolicRelator"):
        Presentation(("a",), (), ((1,),))
    with pytest.raises(ValueError, match="symbolic base 2 is not a generator number"):
        Presentation(("a",), (), (SymbolicRelator((1,), 2, "e1"),))
    # generator names are nonempty strs
    for names in ((1,), ("a", None), (("a",),)):
        with pytest.raises(TypeError):
            Presentation(names, ((1, 1),))
    with pytest.raises(ValueError):
        Presentation(("",), ((1, 1),))
    assert Presentation(("a", "b"), ((1, 2, -1, -2), (), (-2, -2))).relators[2] == (-2, -2)


def test_symbolic_exponent_is_a_nonempty_name():
    # an int exponent rendered "F = F^5", read as a literal power, and its
    # JSON failed the presentation schema; "" rendered "F = F^"
    for param, error in ((5, TypeError), (None, TypeError), (("e1",), TypeError),
                         ("", ValueError)):
        with pytest.raises(error, match="symbolic exponent"):
            Presentation(("F",), (), (SymbolicRelator((1,), 1, param),))
    p = Presentation(("F",), (), (SymbolicRelator((1,), 1, "e1"),))
    assert str(p) == "<F | F = F^e1>"
    payload = {**presentation_json(p), "text": str(p)}
    jsonschema.validate(payload, schemas._PRESENTATION)
    payload["symbolic_relators"][0]["param"] = 5
    with pytest.raises(jsonschema.ValidationError, match="5 is not of type 'string'"):
        jsonschema.validate(payload, schemas._PRESENTATION)


def test_presentation_stores_tuples():
    # built from lists, it equals and hashes as the presentation it copies,
    # so the memoized checks of Reidemeister-Schreier accept it
    m = mod_sphere_presentation(4)
    p = Presentation(list(m.generators), list(m.relators), [])
    assert p == m and hash(p) == hash(m)
    assert (type(p.generators), type(p.relators), type(p.symbolic_relators)) == (tuple,) * 3
    h2 = liftable_images(generating_vector(parse_dataset("(3,0;(1,3),(1,3),(2,3),(2,3))"))).h2
    assert (reidemeister_schreier_full(p, psi_images(4), h2)
            == reidemeister_schreier_full(m, psi_images(4), h2))


def test_relator_key_cyclic_and_inverse():
    w = (1, 2, -1, -2, -2)  # a*b*a^-1*b^-2, cyclically reduced
    rotations = [w[i:] + w[:i] for i in range(len(w))]
    assert all(relator_key(w) == relator_key(r) for r in rotations)
    assert relator_key(w) == relator_key((2, 2, 1, -2, -1))  # the inverse
    # conjugates agree through cyclic reduction
    assert relator_key((1, 1, 2, -1, -2, -2, -1)) == relator_key(w)
    assert relator_key((1, 2)) != relator_key((1, -2))


# ---------------------------------------------------------------------------
# sphere presentations


def test_mod_sphere_counts():
    p = mod_sphere_presentation(4)
    assert len(p.generators) == 3
    assert len(p.relators) == 5  # [s1,s3] + 2 braids + chain + palindrome
    assert abelianization(p) == ((6,), 0)
    with pytest.raises(ValueError):
        mod_sphere_presentation(2)
    with pytest.raises(ValueError, match="need k >= 3 marked points, got 2"):
        pmod_sphere_presentation(2)


def test_sphere_builders_list_no_relator_twice():
    # no relator repeats another up to rotation and inversion; Mod(S_{0,k})
    # states each far commutation [s_i,s_j], j > i + 1, once
    for k in range(3, 63):
        keys = [relator_key(r) for r in mod_sphere_presentation(k).relators]
        assert len(keys) == len(set(keys)) == (k - 2) * (k - 3) // 2 + (k - 2) + 2, k
    for k in range(3, 25):
        keys = [relator_key(r) for r in pmod_sphere_presentation(k).relators]
        assert len(keys) == len(set(keys)), k


def test_sphere_data_built_once_per_degree():
    assert mod_sphere_presentation(6) is mod_sphere_presentation(6)
    assert pmod_sphere_presentation(6) is pmod_sphere_presentation(6)
    assert psi_images(4) is psi_images(4)
    psi = psi_images(4)
    with pytest.raises(TypeError):
        psi[0] = identity_perm(4)
    with pytest.raises(TypeError):
        del psi[1]
    assert psi == ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def test_psi_images_are_the_adjacent_transpositions_by_position():
    # entry i - 1 is the image of s_i, generator i of mod_sphere_presentation(k)
    for k in range(2, 31):
        assert psi_images(k) == tuple(transposition(i, i + 1, k) for i in range(1, k))
        if k >= 3:
            assert len(psi_images(k)) == len(mod_sphere_presentation(k).generators)


def test_sphere_builders_match_the_by_name_reference(monkeypatch):
    # the by-name builders that the signed-int ones replaced; CI runs k = 21-30
    assert mismatched_degrees(range(3, 21)) == []

    def no_words(self):
        raise AssertionError("a sphere builder constructed a by-name Word")

    monkeypatch.setattr(Word, "__post_init__", no_words)
    for build in (mod_sphere_presentation, pmod_sphere_presentation):
        assert build.__wrapped__(7) == build(7)


def test_sphere_builders_refuse_a_non_int_degree_whatever_is_cached():
    # 4.0 == 4 and hashes alike, so a memo keyed on k alone would answer it
    # with the cached degree-4 data; the degree is checked before the memo
    for build in (mod_sphere_presentation, pmod_sphere_presentation, psi_images):
        build(4)
        for _ in range(2):  # with degree 4 cached, then with nothing cached
            # below the bound or not, the same refusal
            for k in (4.0, "4", [4], 1.0, 2.0):
                with pytest.raises(TypeError) as err:
                    build(k)
                assert str(err.value) == f"the degree k must be an int, got {k!r}"
            build.cache_clear()
    assert psi_image((1,), 4) == transposition(1, 2, 4)
    with pytest.raises(TypeError, match=r"^the degree k must be an int, got 4\.0$"):
        psi_image((1,), 4.0)
    with pytest.raises(ValueError, match="need k >= 3 marked points, got True"):
        mod_sphere_presentation(True)
    # psi used to give an empty mapping, (), or (0,) for these degrees
    for k in (True, 1, 0, -2):
        for build in (psi_images, lambda k: psi_image((), k)):
            with pytest.raises(ValueError, match=f"^need k >= 2 marked points, got {k}$"):
                build(k)
    assert psi_images(2) == ((1, 0),) and psi_image((), 2) == (0, 1)


def test_rs_refuses_bad_psi_after_a_cached_good_call():
    p, psi = mod_sphere_presentation(4), psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    good = reidemeister_schreier_full(p, psi, klein)
    # kills every relator, but its image Sym(3) meets 3 of klein's 6 cosets
    without_34 = (*psi[:2], transposition(1, 2, 4))
    # every adjacent transposition, but s1 and s3 no longer commute
    shuffled = (transposition(2, 3, 4), transposition(1, 2, 4), transposition(3, 4, 4))
    wrong_degree = (psi[0], transposition(2, 3, 5), psi[2])
    for _ in range(2):
        with pytest.raises(ValueError, match="^psi's images reach 3 of the subgroup's 6 cosets$"):
            reidemeister_schreier_full(p, without_34, klein)
        with pytest.raises(ValueError, match=r"does not kill the relator s1\*s3\*s1\^-1\*s3\^-1$"):
            reidemeister_schreier_full(p, shuffled, klein)
        with pytest.raises(ValueError, match="must have degree 4"):
            reidemeister_schreier_full(p, wrong_degree, klein)
        assert reidemeister_schreier_full(p, psi, klein) == good
    # an equal presentation that is not the cached one is checked alike
    copy = Presentation(p.generators, p.relators)
    with pytest.raises(ValueError, match="does not kill the relator"):
        reidemeister_schreier_full(copy, shuffled, klein)
    assert reidemeister_schreier_full(copy, list(psi), klein) == good


def test_rs_takes_one_image_per_generator_in_order(monkeypatch):
    # a mapping by generator name, and a count other than the generators',
    # are refused before psi is checked
    from liftmcg import fpgroups

    p, psi = mod_sphere_presentation(4), psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    good = reidemeister_schreier_full(p, psi, klein)
    checked, real = [], fpgroups._check_psi
    monkeypatch.setattr(fpgroups, "_check_psi",
                        lambda *args: checked.append(args) or real(*args))
    held = fpgroups._rs_memo.cache_info()
    for bad, error, message in (
            (dict(zip(p.generators, psi)), TypeError,
             "psi's images are a sequence in p's generator order, not a mapping"),
            (psi[:2], ValueError, "2 images of psi for 3 generators"),
            ((*psi, psi[0]), ValueError, "4 images of psi for 3 generators")):
        with pytest.raises(error) as info:
            reidemeister_schreier_full(p, bad, klein)
        assert str(info.value) == message
        assert reidemeister_schreier_full(p, psi, klein) == good
    after = fpgroups._rs_memo.cache_info()
    # no refusal reached the check or the memo, and each good call was a hit
    # on the memo, which checks nothing again
    assert checked == []
    assert (after.hits - held.hits, after.misses, after.currsize) == (
        3, held.misses, held.currsize)


def test_rs_checks_psi_before_the_capacity_guard():
    # psi is checked before the table size is predicted: at index 10! a good
    # psi meets the cap, and one that fails to kill a relator is refused for
    # that instead
    p, psi = mod_sphere_presentation(10), psi_images(10)
    trivial = closure([], 10)
    with pytest.raises(CapacityError):
        reidemeister_schreier_full(p, psi, trivial)
    swapped = (psi[1], psi[0], *psi[2:])
    with pytest.raises(ValueError, match=r"does not kill the relator s1\*s3\*s1\^-1") as err:
        reidemeister_schreier_full(p, swapped, trivial)
    assert not isinstance(err.value, CapacityError)


def test_sphere_data_refuses_a_degree_past_the_branch_point_cap():
    # pmod_sphere_presentation(200) would start on about 1.9e8 relators and
    # mod_sphere_presentation(10**5) on about 1e10
    psi_images(62)
    for build in (mod_sphere_presentation, pmod_sphere_presentation, psi_images,
                  lambda k: psi_image((), k)):
        for k in (63, 200, 10**6):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=f"^{k} marked points exceed the cap of 62$"):
                build(k)
            assert time.perf_counter() - start < 1.0


def test_rs_refuses_a_rewrite_volume_past_the_cap():
    # genus 40, k = 42: index 42!/(39! 3!) = 11,480 with 41 generators passes
    # the coset-table cap, but rewriting 5,164 relator letters at every coset
    # predicts 59.3M letters
    h1 = liftable_images(generating_vector(parse_dataset("(3,0;(1,3)_39,(2,3)_3)"))).h1
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="^rewriting 5164 relator letters at each of "
                                            "11480 predicted cosets exceeds the cap of "
                                            "20000000 letters$"):
        reidemeister_schreier_full(mod_sphere_presentation(42), psi_images(42), h1)
    assert time.perf_counter() - start < 2.0


def test_rewrite_volume_of_every_class_to_genus_12_is_under_the_cap():
    # the prediction the guard makes, at each H1 and H2 the analysis passes to
    # Reidemeister-Schreier (neither Sym(k) nor trivial), without running it
    predictions = {}
    for genus in range(2, 13):
        for ds in enumerate_spherical(genus):
            stab = liftable_images(generating_vector(ds))
            for name, sub in (("H1", stab.h1), ("H2", stab.h2)):
                if not (sub.is_symmetric or sub.order == 1):
                    letters = sum(map(len, mod_sphere_presentation(sub.degree).relators))
                    predictions[name, str(ds)] = sub.index * letters
    assert len(predictions) == 934
    worst = max(predictions, key=predictions.get)
    assert worst == ("H2", "(4,0;(1,2)_6,(1,4)_3,(3,4)_3)")
    assert predictions[worst] == 7_281_120 < MAX_REWRITE_LETTERS


def test_sphere_data_and_psi_checks_under_concurrent_workers():
    # a failing pair must never be remembered as checked, and every thread
    # must get the data a fresh build gives, Mod(S_{0,k}) checking psi as it
    # is built
    from liftmcg import fpgroups

    p, psi = mod_sphere_presentation(4), psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    good = reidemeister_schreier_full(p, psi, klein)
    shuffled = (transposition(2, 3, 4), transposition(1, 2, 4), transposition(3, 4, 4))
    fresh = {k: (mod_sphere_presentation.__wrapped__(k), psi_images.__wrapped__(k))
             for k in range(3, 10)}

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(60):
            k = rng.randrange(3, 10)
            if (mod_sphere_presentation(k), psi_images(k)) != fresh[k]:
                return False
            if rng.random() < 0.5:
                if reidemeister_schreier_full(p, list(psi), klein) != good:
                    return False
            else:
                with pytest.raises(ValueError, match="does not kill"):
                    reidemeister_schreier_full(p, shuffled, klein)
        return True

    fpgroups._rs_memo.cache_clear()
    mod_sphere_presentation.cache_clear()
    psi_images.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(worker, seed) for seed in range(6)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    # the good key alone is held
    assert fpgroups._rs_memo.cache_info().currsize == 1


def test_mod_sphere_k3_index_of_trivial_subgroup():
    p = mod_sphere_presentation(3)
    psi = psi_images(3)
    trivial = closure([], 3)
    out, images = reidemeister_schreier_full(p, psi, trivial)
    # 6 cosets: of the 6 * 2 edges, all but the 5 of the tree give a generator
    assert trivial.index == 6 and len(images) == len(out.generators) == 7


def test_mod_sphere_relators_die_in_symmetric_group():
    from liftmcg.fpgroups import evaluate_perm

    for k in (3, 4, 5, 6):
        p = mod_sphere_presentation(k)
        psi = psi_images(k)
        for r in p.relators:
            assert evaluate_perm(r, psi, k) == identity_perm(k)


def test_pmod_sphere_small():
    p3 = pmod_sphere_presentation(3)
    assert p3.generators == ("a12",)
    assert tietze_simplify(p3) == Presentation((), ())

    p4 = pmod_sphere_presentation(4)
    assert p4.generators == ("a12", "a13", "a23")
    assert abelianization(p4) == ((), 2)
    t4 = tietze_simplify(p4)
    assert len(t4.generators) == 2 and not t4.relators  # free of rank 2


def test_pmod_sphere_abelianization_all_ones_row():
    # families (i)-(iv) abelianize to zero; only the boundary product remains
    p5 = pmod_sphere_presentation(5)
    assert abelianization(p5) == ((), 5)


@pytest.mark.parametrize("k", range(3, 9))
def test_sphere_abelianization_closed_forms(k):
    # Mod(S_{0,k})^ab = Z/(k-1)gcd(k,2); PMod(S_{0,k})^ab is free of rank k(k-3)/2
    assert abelianization(mod_sphere_presentation(k)) == (((k - 1) * gcd(k, 2),), 0)
    assert abelianization(pmod_sphere_presentation(k)) == ((), k * (k - 3) // 2)


def a_in_sigmas(i: int, j: int) -> tuple[int, ...]:
    """The pure generator a_ij as a word in half-twists, s_t being letter t:
    (s_{j-1}...s_{i+1}) s_i^2 (s_{j-1}...s_{i+1})^-1."""
    return (*range(j - 1, i, -1), i, i, *range(-i - 1, -j, -1))


def test_pure_generators_as_half_twist_words():
    # a_ij is a pure mapping class: its marked-point image is trivial
    for k in (4, 5, 6):
        for i in range(1, k - 1):
            for j in range(i + 1, k):
                w = a_in_sigmas(i, j)
                assert psi_image(w, k) == identity_perm(k)
    # a_{i,i+1} is the square of the adjacent half-twist
    assert a_in_sigmas(1, 2) == (1, 1)
    assert a_in_sigmas(2, 5) == (4, 3, 2, 2, -3, -4)
    # the half-twist swapping i < j maps onto (i j)
    assert half_twist_word(2, 4) == (2, 3, -2)
    assert psi_image(half_twist_word(2, 4), 5) == transposition(2, 4, 5)
    with pytest.raises(ValueError, match=r"need 1 <= i < j, got \(2, 2\)"):
        half_twist_word(2, 2)
    # a word's letters are the half-twists of its degree, freely reduced
    for bad in ((5,), (0,), (-5,), (True,), (1.0,), (2, -2)):
        with pytest.raises(ValueError, match="half-twist word"):
            psi_image(bad, 5)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def test_rs_index_one_is_renaming():
    # at index 1 every generator g is the Schreier generator x0_g, with image
    # psi(g), and RS renames p exactly: the same relators in the same order
    for k in (3, 4, 5, 6):
        p = mod_sphere_presentation(k)
        psi = psi_images(k)
        out, images = reidemeister_schreier_full(p, psi, closure(psi, k))
        assert out.generators == tuple(f"x0_s{i}" for i in range(1, k))
        assert images == psi
        assert out.relators == p.relators
        assert rename_presentation(out, {f"x0_{g}": g for g in p.generators}) == p


def test_rs_one_rewrite_per_cyclic_class():
    # over the trivial subgroup of Sym(3), index 6: s1^2 and s1^-2 are
    # rewritten once per psi(s1)-orbit (3 of size 2), the braid, its rotation
    # and its inverse at all 6 cosets, (s1*s2)^3 once per psi(s1*s2)-orbit
    # (2 of size 3), and the empty relator has no rewrite; the repeated input
    # relators are rewritten, and Tietze drops what they add
    s1, s2 = gen("s1"), gen("s2")
    braid = s1 * s2 * s1 * (s2 * s1 * s2).inv()
    p = from_words(("s1", "s2"), (
        EMPTY, s1 ** 2, braid, s2 * s1 * s2.inv() * s1.inv() * s2.inv() * s1, braid.inv(),
        (s1 * s2) ** 3, s1 ** -2, EMPTY))
    out, images = reidemeister_schreier_full(p, psi_images(3), closure([], 3))
    assert len(images) == 6 * 2 - 5
    assert len(out.relators) == 3 + 6 + 6 + 6 + 2 + 3 == 26
    distinct = Presentation(p.generators, (p.relators[1], p.relators[2], p.relators[5]))
    distinct_out = reidemeister_schreier_full(distinct, psi_images(3), closure([], 3))[0]
    assert len(distinct_out.relators) == 3 + 6 + 2
    assert distinct_out.generators == out.generators
    assert tietze_simplify(distinct_out) == tietze_simplify(out)


def test_rs_prop_case_one_abelianization():
    # preimage of <(1,2),(3,4)>: independent SNF oracle value Z + Z2 + Z2
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    H = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    out, _ = reidemeister_schreier_full(p, psi, H)
    assert abelianization(out) == ((2, 2), 1)

    explicit = from_words(
        ("s1", "s3", "a13"),
        (gen("s3") ** 2 * gen("s1") ** -2,
         commutator(gen("s1"), gen("s3")),
         (gen("s1") * gen("a13")) ** 2,
         (gen("s3") * gen("a13")) ** 2))
    assert abelianization(explicit) == ((2, 2), 1)


def test_rs_prop_case_two_abelianization():
    # preimage of <(1,2)(3,4)>: independent SNF oracle value Z^2 + Z2
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    H = closure([perm_from_cycles([(1, 2), (3, 4)], 4)], 4)
    out, _ = reidemeister_schreier_full(p, psi, H)
    assert abelianization(out) == ((2,), 2)

    explicit = from_words(
        ("a12", "a13", "d"),
        (gen("d") ** 2, commutator(gen("a12"), gen("d")),
         commutator(gen("a13"), gen("d"))))
    assert abelianization(explicit) == ((2,), 2)


def test_rs_schreier_rank_bookkeeping():
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    for gens in ([transposition(1, 2, 4), transposition(3, 4, 4)],
                 [perm_from_cycles([(1, 2), (3, 4)], 4)],
                 [transposition(2, 3, 4)]):
        H = closure(gens, 4)
        out, images = reidemeister_schreier_full(p, psi, H)
        assert len(images) == len(out.generators) == H.index * len(p.generators) - (H.index - 1)
        assert H.index * H.order == 24


def test_rs_generator_images_cover_generators_and_lie_in_subgroup():
    from liftmcg.fpgroups import evaluate_perm

    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    for gens in ([transposition(1, 2, 4), transposition(3, 4, 4)],
                 [perm_from_cycles([(1, 2), (3, 4)], 4)],
                 [transposition(2, 3, 4)]):
        H = closure(gens, 4)
        out, images = reidemeister_schreier_full(p, psi, H)
        assert len(images) == len(out.generators)
        for image in images:
            assert image in H  # Schreier generators live in the subgroup
        for r in out.relators:
            assert evaluate_perm(r, images, 4) == tuple(range(4))


def test_rs_rejects_subgroup_outside_image():
    # psi image of <s1> alone is <(1,2)>; the Klein subgroup is not inside
    p = Presentation(("s1",), ())
    psi = (transposition(1, 2, 4),)
    H = closure([transposition(3, 4, 4)], 4)
    with pytest.raises(ValueError):
        reidemeister_schreier_full(p, psi, H)


def test_rs_requires_psi_onto_the_symmetric_group():
    # H = <(1,2)> lies inside the image <(1,2)> of psi, but that image meets
    # only H of its 12 cosets, so the walk from H reaches no other
    p = Presentation(("s1",), ())
    psi = (transposition(1, 2, 4),)
    H = closure([transposition(1, 2, 4)], 4)
    with pytest.raises(ValueError, match="^psi's images reach 1 of the subgroup's 12 cosets$"):
        reidemeister_schreier_full(p, psi, H)


@dataclass(frozen=True)
class _StatedIndex:
    """A subgroup whose stated index is not the number of its cosets."""

    group: PermGroup
    index: int

    @property
    def degree(self):
        return self.group.degree

    def coset_key(self, g):
        return self.group.coset_key(g)


def test_rs_takes_any_psi_whose_image_meets_every_coset():
    # psi onto Sym({1,2,3}) in Sym(4): with <(1 2 3 4)> it makes all of
    # Sym(4), so the walk reaches all 6 cosets; with klein only 12 elements
    p = Presentation(("a", "b"), ((1, 1), (2, 2), (1, 2) * 3))
    psi = (transposition(1, 2, 4), transposition(2, 3, 4))
    rotation = closure([perm_from_cycles([(1, 2, 3, 4)], 4)], 4)
    out, images = reidemeister_schreier_full(p, psi, rotation)
    assert len(images) == 6 * 2 - 5 and all(x in rotation for x in images)
    # Sym(3) meets <(1 2 3 4)> in the identity alone: the preimage is trivial
    assert abelianization(out) == ((), 0)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    with pytest.raises(ValueError, match="^psi's images reach 3 of the subgroup's 6 cosets$"):
        reidemeister_schreier_full(p, psi, klein)
    # a 3-cycle's powers meet the 3 cosets of <(1 2)> in Sym(3)
    out, images = reidemeister_schreier_full(Presentation(("a",), ((1, 1, 1),)),
                                             (perm_from_cycles([(1, 2, 3)], 3),),
                                             closure([transposition(1, 2, 3)], 3))
    assert (len(images), abelianization(out)) == (3 * 1 - 2, ((), 0))
    # the index is trusted: a walk past it stops at once, below it is refused
    for stated, message in ((2, "reach more than the subgroup's 2 cosets"),
                            (12, "reach 6 of the subgroup's 12 cosets")):
        with pytest.raises(ValueError, match=message):
            reidemeister_schreier_full(p, psi, _StatedIndex(rotation, stated))


def test_rs_commutes_with_relabelling_the_points_genus_2_to_5():
    # sigma fixes v exactly when g sigma g^-1 fixes act(1, g, v), so conjugating
    # psi and H by g relabels the points: the walk, the Schreier generators
    # and the rewrites are the same, and each generator's image is conjugated
    rng = random.Random(42)
    count = 0
    for genus in (2, 3, 4, 5):
        for ds in enumerate_spherical(genus):
            v = generating_vector(ds)
            stab = liftable_images(v)
            k = v.k
            p = mod_sphere_presentation(k)
            for h in (stab.h1, stab.h2):
                if h.is_symmetric or h.order == 1:
                    continue
                count += 1
                g = tuple(rng.sample(range(k), k))

                def conjugated(x, g=g, g_inv=inverse(g)):
                    return compose(compose(g, x), g_inv)

                out, images = reidemeister_schreier_full(p, psi_images(k), h)
                moved = VectorStabilizer(act(1, g, v), h.units)
                got, got_images = reidemeister_schreier_full(
                    p, tuple(map(conjugated, psi_images(k))), moved)
                assert got == out, (ds, h.units, g)
                assert got_images == tuple(map(conjugated, images))
    assert count == 85


def _free_on_half_twists(k):
    """The relator-free presentation on s1..s_{k-1}, with psi the adjacent
    transpositions."""
    return Presentation(tuple(f"s{i}" for i in range(1, k)), ()), psi_images(k)


def test_rs_index_examples():
    p, psi = _free_on_half_twists(4)
    # a subgroup of index i in the free group of rank r has rank i * (r - 1) + 1
    assert len(reidemeister_schreier_full(p, psi, closure(psi, 4))[1]) == 1 * 2 + 1
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    assert len(reidemeister_schreier_full(p, psi, klein)[1]) == 6 * 2 + 1
    p3, psi3 = _free_on_half_twists(3)
    sub = closure([transposition(2, 3, 3)], 3)
    assert len(reidemeister_schreier_full(p3, psi3, sub)[1]) == 3 * 1 + 1


def test_rs_index_times_order_random():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.randrange(2, 8)
        sub_gens = [tuple(rng.sample(range(k), k)) for _ in range(rng.randrange(1, 3))]
        sub = closure(sub_gens, k)
        p, psi = _free_on_half_twists(k)
        out, images = reidemeister_schreier_full(p, psi, sub)
        assert sub.index * sub.order == factorial(k)
        assert len(images) == len(out.generators) == sub.index * (k - 1) - sub.index + 1
        assert not out.relators


class _NoCosets:
    """The trivial subgroup of Sym(10), refusing to label any coset."""

    degree, index = 10, factorial(10)

    def coset_key(self, g):
        raise AssertionError("a coset was built")


def test_rs_refused_past_the_cap():
    # predicted index 10! times 9 generators > 2,000,000 entries, refused
    # before any coset is built
    p, psi = _free_on_half_twists(10)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        reidemeister_schreier_full(p, psi, _NoCosets())
    with pytest.raises(CapacityError, match="exceeds the cap"):
        reidemeister_schreier_full(p, psi, closure([], 10))


def test_rs_deterministic():
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    assert reidemeister_schreier_full(p, psi, klein) == reidemeister_schreier_full(p, psi, klein)


def test_rs_memo_returns_one_result_per_subgroup_set():
    # H2 of the first class and H1 of the second come from different vectors
    # but are one subgroup of Sym(4), <(1 2), (3 4)>
    from liftmcg import fpgroups

    h2 = liftable_images(generating_vector(parse_dataset("(3,0;(1,3)_2,(2,3)_2)"))).h2
    h1 = liftable_images(generating_vector(parse_dataset("(4,0;(1,2)_2,(1,4),(3,4))"))).h1
    assert h1.vector != h2.vector and h1 == h2
    p, psi = mod_sphere_presentation(4), psi_images(4)
    fpgroups._rs_memo.cache_clear()
    first = reidemeister_schreier_full(p, psi, h2)
    assert reidemeister_schreier_full(Presentation(p.generators, p.relators), list(psi), h1) is first
    info = fpgroups._rs_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # the shared result is what a fresh rewrite builds, and it is read-only
    assert first == fpgroups._rewrite(p, psi, h1)
    raw, images = first
    with pytest.raises(TypeError):
        images[0] = identity_perm(4)
    with pytest.raises(TypeError):
        del images[0]
    assert len(images) == len(raw.generators)


class _Unhashable:
    """A subgroup-like object without a hash; touching it is an error."""

    __hash__ = None

    def __getattr__(self, name):
        raise AssertionError(f"the subgroup's {name} was read")


def test_rs_memo_stores_no_refusal(monkeypatch):
    from liftmcg import fpgroups

    p, psi = mod_sphere_presentation(4), psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    good = reidemeister_schreier_full(p, psi, klein)
    held = fpgroups._rs_memo.cache_info().currsize
    shuffled = (transposition(2, 3, 4), transposition(1, 2, 4), transposition(3, 4, 4))
    # genus 40, k = 42: past the rewrite-volume cap; Mod(S_{0,42}) checks
    # psi once, as it is built
    k42 = liftable_images(generating_vector(parse_dataset("(3,0;(1,3)_39,(2,3)_3)"))).h1
    p42 = mod_sphere_presentation(42)
    checked, real = [], fpgroups._check_psi
    monkeypatch.setattr(fpgroups, "_check_psi",
                        lambda p, images, degree: checked.append(images) or real(p, images, degree))
    for _ in range(3):
        with pytest.raises(ValueError, match="does not kill the relator"):
            reidemeister_schreier_full(p, shuffled, klein)
        with pytest.raises(CapacityError, match="predicted cosets exceeds the cap"):
            reidemeister_schreier_full(p42, psi_images(42), k42)
        with pytest.raises(TypeError) as err:
            reidemeister_schreier_full(p, psi, _Unhashable())
        assert str(err.value) == ("the subgroup must be hashable, with == meaning the "
                                  "same set, got _Unhashable")
        assert fpgroups._rs_memo.cache_info().currsize == held
        assert reidemeister_schreier_full(p, psi, klein) is good
    # the unhashable subgroup reached no check, the good key was a hit, and
    # each refused key was checked afresh on every call
    assert checked == [shuffled, psi_images(42)] * 3


class _OrderNotIndex:
    """A subgroup as Reidemeister-Schreier once read it: degree, order, coset_key."""

    degree, order = 4, 24

    def coset_key(self, g):
        raise AssertionError("a coset was built")


_KERNEL = Presentation(("t",), ((1, 1),))
_QUOTIENT = Presentation(("a",), ((1, 1),))
_LIFTS = LiftData(("A",), (((1,),),), ((),))
_DATA_SET = "a data set must be a DataSet (parse_dataset reads one from text), got str"
_DS = parse_dataset("(7,0;(1,7),(2,7),(4,7))")


@pytest.mark.parametrize("call, message", [
    (lambda: abelianization("x"), "the presentation must be a Presentation, got str"),
    (lambda: tietze_simplify(None), "the presentation must be a Presentation, got NoneType"),
    (lambda: reidemeister_schreier_full(None, psi_images(4), closure([], 4)),
     "the presentation must be a Presentation, got NoneType"),
    (lambda: reidemeister_schreier_full(mod_sphere_presentation(4), psi_images(4), None),
     "the subgroup needs degree, index and coset_key, got NoneType"),
    (lambda: reidemeister_schreier_full(mod_sphere_presentation(4), psi_images(4),
                                        _OrderNotIndex()),
     "the subgroup needs degree, index and coset_key, got _OrderNotIndex"),
    (lambda: extension_presentation(None, _QUOTIENT, _LIFTS),
     "the kernel must be a Presentation, got NoneType"),
    (lambda: extension_presentation(_KERNEL, None, _LIFTS),
     "the quotient must be a Presentation, got NoneType"),
    (lambda: LiftData(None, (), ()), "LiftData's lifts is a sequence in order, got NoneType"),
    (lambda: LiftData(("G",), {("a", "F"): (1,)}, ((),)),
     "LiftData's conjugation is a sequence in order, got dict"),
    (lambda: LiftData(("G",), (((1,),),), {0: ()}),
     "LiftData's evaluations is a sequence in order, got dict"),
    (lambda: validate("x"), _DATA_SET),
    (lambda: doubled("x"), _DATA_SET),
    (lambda: canonical_form("x"), _DATA_SET),
    (lambda: are_equivalent(None, _DS), _DATA_SET.replace("str", "NoneType")),
    (lambda: equivalence_witness(_DS, "x"), _DATA_SET),
    (lambda: render_dataset(None), _DATA_SET.replace("str", "NoneType")),
    (lambda: liftable_images(_DS), "liftable_images reads a GeneratingVector, got DataSet"),
    (lambda: act(1, (0, 1, 2), "x"), "act reads a GeneratingVector, got str"),
    (lambda: mod_equals_lmod(None), "mod_equals_lmod reads a GeneratingVector, got NoneType"),
    (lambda: VectorStabilizer(_DS, (1,)), "VectorStabilizer reads a GeneratingVector, got DataSet"),
    (lambda: VectorStabilizer(generating_vector(_DS), (1.0,)), "the units must be ints, got (1.0,)"),
    (lambda: VectorStabilizer(generating_vector(_DS), (True,)), "the units must be ints, got (True,)"),
    (lambda: stabilizer_bruteforce("x"), "stabilizer_bruteforce reads a GeneratingVector, got str"),
    (lambda: presentation_json(_DS), "the presentation must be a Presentation, got DataSet"),
    (lambda: render_presentation("x"), "the presentation must be a Presentation, got str"),
    (lambda: preimage_presentation(None),
     "the subgroup needs degree, is_symmetric, order, index and coset_key, got NoneType"),
], ids=["abelianization", "tietze", "rs-presentation", "rs-none-subgroup",
        "rs-subgroup-without-index", "extension-kernel", "extension-quotient",
        "lift-data-lifts", "lift-data-conjugation", "lift-data-evaluations",
        "validate", "doubled", "canonical-form", "are-equivalent", "equivalence-witness",
        "render-dataset", "liftable-images", "act", "mod-equals-lmod", "vector-stabilizer",
        "vector-stabilizer-float-unit", "vector-stabilizer-bool-unit",
        "stabilizer-bruteforce", "presentation-json", "render-presentation",
        "preimage-presentation"])
def test_entry_points_refuse_the_wrong_type_before_any_work(monkeypatch, call, message):
    # each raised AttributeError from deep inside, or took its wrong type; no
    # check of psi is reached (Mod(S_{0,4}) checks its own as it is built)
    from liftmcg import fpgroups

    mod_sphere_presentation(4)
    monkeypatch.setattr(fpgroups, "_check_psi", lambda *args: pytest.fail("psi was checked"))
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message
    assert extension_presentation(_KERNEL, _QUOTIENT, _LIFTS).generators == ("t", "A")


def test_analysis_checks_psi_once_per_degree(monkeypatch):
    # on the Schreier route the analysis rewrites over mod_sphere_presentation(k),
    # which checks psi once per degree as it is built, whatever the subgroup
    from liftmcg import fpgroups
    from liftmcg.analysis import _report_memo, analyze

    mod_sphere_presentation.cache_clear()
    fpgroups.preimage_presentation.cache_clear()
    _report_memo.cache_clear()
    checked, real = [], fpgroups._check_psi
    monkeypatch.setattr(fpgroups, "_check_psi",
                        lambda p, images, degree: checked.append(degree) or real(p, images, degree))
    degrees = set()
    for genus in (2, 3, 4, 5, 6):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            if {"schreier", "mod_sphere"} & {rep.lmod_kind, rep.clmod_kind}:
                degrees.add(rep.stab.h1.degree)
    assert sorted(checked) == sorted(degrees) == [3, 4, 5, 6, 7, 8, 10, 12, 14]
    # a good call through the public entry does not excuse a bad psi after it
    p, psi = mod_sphere_presentation(4), psi_images(4)
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    reidemeister_schreier_full(p, psi, klein)
    shuffled = (transposition(2, 3, 4), transposition(1, 2, 4), transposition(3, 4, 4))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"does not kill the relator s1\*s3\*s1\^-1"):
            reidemeister_schreier_full(p, shuffled, klein)


def test_analysis_leaves_the_rs_memo_empty():
    # the analysis keeps only the simplified presentation, so its raw
    # Reidemeister-Schreier output is never held
    from liftmcg import fpgroups
    from liftmcg.analysis import _report_memo, analyze

    fpgroups._rs_memo.cache_clear()
    fpgroups.preimage_presentation.cache_clear()
    _report_memo.cache_clear()
    for genus in (2, 3, 4, 5, 6):
        for ds in enumerate_spherical(genus):
            analyze(ds)
    assert fpgroups.preimage_presentation.cache_info().misses == 47
    info = fpgroups._rs_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_abelianization_is_kept_per_presentation(monkeypatch):
    from liftmcg import fpgroups

    calls = []
    real = fpgroups.smith_normal_form
    monkeypatch.setattr(fpgroups, "smith_normal_form",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    count = 0
    for genus in (2, 3, 4, 5):
        for ds in enumerate_spherical(genus):
            v = generating_vector(ds)
            stab = liftable_images(v)
            for subgroup in (stab.h1, stab.h2):
                if subgroup.is_symmetric or subgroup.order == 1:
                    continue
                raw, _ = reidemeister_schreier_full(
                    mod_sphere_presentation(v.k), psi_images(v.k), subgroup)
                kept = abelianization(raw)
                calls.clear()
                assert abelianization(raw) is kept and not calls
                fresh = Presentation(raw.generators, raw.relators)
                assert fresh == raw and abelianization(fresh) == kept, ds
                assert len(calls) == 1
                count += 1
    assert count == 85


def test_abelianization_refuses_symbolic_relators_on_every_call():
    p = Presentation(("a",), ((1, 1, 1),), (SymbolicRelator((1,), 1, "e1"),))
    for _ in range(3):
        with pytest.raises(ValueError, match="cannot abelianize a presentation with symbolic"):
            abelianization(p)
    assert abelianization(Presentation(p.generators, p.relators)) == ((3,), 0)


# ---------------------------------------------------------------------------
# Tietze


def test_tietze_examples():
    a, b = gen("a"), gen("b")
    assert tietze_simplify(from_words(("a", "b"), (b,))) == Presentation(("a",), ())
    assert tietze_simplify(from_words(("a", "b"), (a * b,))) == Presentation(("a",), ())
    t = tietze_simplify(pmod_sphere_presentation(4))
    assert len(t.generators) == 2 and not t.relators


# sha256 of the pmod_sphere route's output, one repr((generators, relators))
# line per degree, as the engine alone gave it before the union-find became
# tietze_simplify's first phase.  Tier-1 checks k = 3-16; k = 17-24 take most
# of the time, and a CI step checks them.
PMOD_TIETZE_K3_TO_16 = "38ab32be3f34e2dd20d913f58508b6ee407dab59921ea3c554bb4bb3fc901352"
PMOD_TIETZE_K17_TO_24 = "5bbf1b72b63cc182ef9663bea117940841827299159503223609525c2233db21"


def pmod_tietze_digest(degrees) -> str:
    digest = hashlib.sha256()
    for k in degrees:
        q = tietze_simplify(pmod_sphere_presentation(k))
        digest.update(repr((q.generators, q.relators)).encode() + b"\n")
    return digest.hexdigest()


def test_tietze_output_on_pmod_sphere_is_pinned():
    assert pmod_tietze_digest(range(3, 17)) == PMOD_TIETZE_K3_TO_16


def test_tietze_refuses_a_step_past_the_letter_cap(monkeypatch):
    # Tietze's one step on PMod(S_{0,6}) takes its 210 letters to 424
    from liftmcg import fpgroups

    p = pmod_sphere_presentation(6)
    assert sum(map(len, p.relators)) == 210
    monkeypatch.setattr(fpgroups, "MAX_REWRITE_LETTERS", 424)
    out = tietze_simplify(p)
    assert (len(out.generators), sum(map(len, out.relators))) == (9, 424)
    for cap in (423, 200):    # the input is not measured, only what a step leaves
        monkeypatch.setattr(fpgroups, "MAX_REWRITE_LETTERS", cap)
        with pytest.raises(CapacityError, match=f"^a Tietze step left 424 relator letters, "
                                                f"past the cap of {cap}$"):
            tietze_simplify(p)
    # with no step to take, nothing is refused
    monkeypatch.setattr(fpgroups, "MAX_REWRITE_LETTERS", 0)
    commuting = Presentation(("a", "b"), ((1, 2, -1, -2),))
    assert tietze_simplify(commuting) == commuting


def test_tietze_dedupes_and_drops_trivial():
    a, b = gen("a"), gen("b")
    p = from_words(("a", "b"),
                     (commutator(a, b), commutator(b, a), a * a.inv(), a ** 2, a ** 2))
    t = tietze_simplify(p)
    assert len(t.relators) == 2  # one commutator survives, one a^2


def test_tietze_dedup_keeps_earlier_untouched_relator():
    # c = b turns the later [a,c] into [b,a], the inverse of the earlier [a,b]
    a, b, c = gen("a"), gen("b"), gen("c")
    p = from_words(("a", "b", "c"), (commutator(a, b), c * b.inv(), commutator(a, c)))
    assert tietze_simplify(p) == from_words(("a", "b"), (commutator(a, b),))


def test_tietze_dedup_keeps_earlier_rewritten_relator():
    # c = b turns the earlier [c,a] into [b,a], the inverse of the later [a,b]
    a, b, c = gen("a"), gen("b"), gen("c")
    p = from_words(("a", "b", "c"), (commutator(c, a), c * b.inv(), commutator(a, b)))
    assert tietze_simplify(p) == from_words(("a", "b"), (commutator(b, a),))


def test_tietze_reduces_rotation_of_non_cyclically_reduced_relator():
    # a*b*c*a^-1 rotates to a^-1*a*b, so c = b^-1
    a, b, c = gen("a"), gen("b"), gen("c")
    p = from_words(("a", "b", "c"), (a * b * c * a.inv(), c * a * c * a * b))
    t = tietze_simplify(p)
    assert t == from_words(("a", "b"), (b.inv() * a * b.inv() * a * b,))
    assert render_presentation(t) == "<a, b | b^-1*a*b^-1*a*b = 1>"


def test_tietze_preserves_abelianization_random():
    rng = random.Random(31)
    names = ("a", "b", "c")
    for _ in range(40):
        relators = []
        for _ in range(rng.randrange(1, 5)):
            letters = tuple(
                (rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7)))
            relators.append(Word(letters))
        p = from_words(names, relators)
        assert abelianization(tietze_simplify(p)) == abelianization(p)


def test_tietze_preserves_abelianization_on_rs_output():
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    for gens in ([transposition(1, 2, 4), transposition(3, 4, 4)],
                 [perm_from_cycles([(1, 2), (3, 4)], 4)]):
        out, _ = reidemeister_schreier_full(p, psi, closure(gens, 4))
        assert abelianization(tietze_simplify(out)) == abelianization(out)


def test_tietze_preserves_abelianization_on_pipeline_outputs():
    from liftmcg.analysis import analyze
    from liftmcg.datasets import enumerate_spherical

    for ds in enumerate_spherical(2):
        rep = analyze(ds)
        for pres in (rep.lmod_presentation, rep.clmod_presentation):
            assert abelianization(tietze_simplify(pres)) == abelianization(pres)


# ---------------------------------------------------------------------------
# abelianization


def test_abelianization_examples():
    assert abelianization(Presentation(("a", "b"), ())) == ((), 2)
    sigma = from_words(
        ("s1", "s3", "a13"),
        (gen("s3") ** 2 * gen("s1") ** -2,
         commutator(gen("s1"), gen("s3")),
         (gen("s1") * gen("a13")) ** 2,
         (gen("s3") * gen("a13")) ** 2))
    assert abelianization(sigma) == ((2, 2), 1)
    centralizer = from_words(
        ("F", "G1", "G2"),
        (gen("F") ** 6, commutator(gen("G1"), gen("F")),
         commutator(gen("G2"), gen("F")),
         (gen("G1") * gen("G2")) ** 2 * gen("F") ** -4))
    assert abelianization(centralizer) == ((2, 6), 1)


# ---------------------------------------------------------------------------
# extension presentations


def _f(e: int) -> tuple[int, ...]:
    """F^e as a word over a kernel whose first generator is F."""
    return (1 if e > 0 else -1,) * abs(e)


def test_extension_trivial_kernel():
    q = from_words(("x", "y"), (gen("x") ** 2, commutator(gen("x"), gen("y"))))
    data = LiftData(lifts=("X", "Y"), conjugation=((), ()), evaluations=((), ()))
    out = extension_presentation(Presentation((), ()), q, data)
    assert same_relator_sets(rename_presentation(q, {"x": "X", "y": "Y"}), out)


def test_extension_trivial_quotient():
    n = from_words(("F",), (gen("F") ** 5,))
    out = extension_presentation(n, Presentation((), ()),
                                 LiftData(lifts=(), conjugation=()))
    assert out == n


def test_extension_direct_product_abelianization():
    rng = random.Random(17)
    for _ in range(15):
        relators = []
        for _ in range(rng.randrange(0, 3)):
            letters = tuple((rng.choice("xy"), rng.choice((1, -1)))
                            for _ in range(rng.randrange(1, 6)))
            relators.append(Word(letters))
        q = from_words(("x", "y"), relators)
        n = rng.randrange(2, 9)
        kernel = from_words(("F",), (gen("F") ** n,))
        data = LiftData(lifts=("X", "Y"), conjugation=(((1,),), ((1,),)),
                        evaluations=((),) * len(relators))
        out = extension_presentation(kernel, q, data)
        # Z/n x Q^ab: the relation matrix of <F, x, y | F^n, relators of q>
        expect = from_words(("F", "x", "y"), (gen("F") ** n, *relators))
        assert abelianization(out) == abelianization(expect)


def test_extension_symbolic_and_errors():
    kernel = Presentation(("F",), (_f(6),))
    q = Presentation(("x",), (_f(2),))
    data = LiftData(lifts=("G",), conjugation=(((1,),),), evaluations=("e1",))
    out = extension_presentation(kernel, q, data)
    assert len(out.symbolic_relators) == 1
    assert out.symbolic_relators[0].param == "e1"
    with pytest.raises(ValueError):
        abelianization(out)
    with pytest.raises(ValueError):
        tietze_simplify(out)
    with pytest.raises(ValueError, match="nested symbolic relators"):
        extension_presentation(out, q, data)
    # every count is checked against the quotient's and the kernel's
    for bad, message in (
            (LiftData((), (((1,),),), ((),)), "^0 lifts for 1 quotient generators$"),
            (LiftData(("G",), (), ((),)), "^0 conjugation rows for 1 quotient generators$"),
            (LiftData(("G",), (((1,),),), ()), "^0 evaluations for 1 quotient relators$"),
            (LiftData(("G",), (((1,), (1,)),), ((),)),
             "^2 words in conjugation row 0 for 1 kernel generators$")):
        with pytest.raises(ValueError, match=message):
            extension_presentation(kernel, q, bad)
    with pytest.raises(ValueError, match="fresh and distinct"):
        extension_presentation(kernel, q, LiftData(("F",), (((1,),),), ((),)))
    # an evaluation is a kernel word or a parameter name, never an exponent
    # (a bool neither)
    cube = Presentation(("F",), (_f(3),))
    for value in (2, True, None, (("F", 1),)):
        with pytest.raises(TypeError, match="quotient relator 0"):
            extension_presentation(cube, Presentation(("G",), (_f(2),)),
                                   LiftData(("G1",), (((1,),),), (value,)))
    # a conjugation value is a kernel word, not a name
    with pytest.raises(TypeError, match=r"\('x', 'F'\)"):
        extension_presentation(kernel, q, LiftData(("G",), ((("F",),),), ((),)))
    two_gen_kernel = Presentation(("F", "K"), ())
    with pytest.raises(ValueError, match="symbolic evaluations need a cyclic kernel"):
        extension_presentation(two_gen_kernel, q, LiftData(("G",), (((1,), (2,)),), ("e1",)))


def _one_word(kernel_word=(1,), evaluation=()):
    """Kernel <F | F^6>, quotient <x | x^2>, and lift data whose conjugation
    word and evaluation are the given ones."""
    return (Presentation(("F",), (_f(6),)), Presentation(("x",), (_f(2),)),
            LiftData(("G",), ((kernel_word,),), (evaluation,)))


def test_extension_refuses_a_kernel_word_that_is_not_a_tuple_of_ints():
    for bad in ([1], (True,), (1.0,), ("F",), (1, None), 1):
        with pytest.raises(TypeError, match=r"conjugation word for \('x', 'F'\) is a tuple"):
            extension_presentation(*_one_word(kernel_word=bad))
    for bad in ((True,), (1, 1.0)):
        with pytest.raises(TypeError, match="evaluation for quotient relator 0 is a tuple"):
            extension_presentation(*_one_word(evaluation=bad))


def test_extension_refuses_a_letter_outside_the_kernel_or_an_unreduced_word():
    # a letter past the kernel's generators would name a lift in the output
    for bad in ((2,), (-2,), (0,), (1, 2)):
        with pytest.raises(ValueError, match=r"'F'\) letter .* is not one of \+-1\.\.\+-1$"):
            extension_presentation(*_one_word(kernel_word=bad))
        with pytest.raises(ValueError, match="quotient relator 0 letter .* is not one of"):
            extension_presentation(*_one_word(evaluation=bad))
    for bad in ((1, -1), (1, 1, -1)):
        with pytest.raises(ValueError, match=r"\('x', 'F'\) is not freely reduced$"):
            extension_presentation(*_one_word(kernel_word=bad))
        with pytest.raises(ValueError, match="quotient relator 0 is not freely reduced$"):
            extension_presentation(*_one_word(evaluation=bad))
    kernel, q, good = _one_word()
    assert extension_presentation(kernel, q, good).relators == (
        _f(6), (2, 2), (2, 1, -2, -1))


def test_lift_data_keeps_read_only_copies():
    # each field is copied into a tuple, the rows of conjugation too, so a
    # later edit of a list given changes nothing
    lifts, row, evaluations = ["G"], [(1,)], [()]
    data = LiftData(lifts, [row], evaluations)
    lifts.append("H")
    row.append((1,))
    evaluations.append(())
    assert data == LiftData(("G",), (((1,),),), ((),))
    assert type(data.lifts) is type(data.conjugation[0]) is type(data.evaluations) is tuple
    assert LiftData((), ()).evaluations == ()
    # a mapping would be read as its keys and a str as its characters
    for fields, message in (
            (({"x": "G"}, (((1,),),), ((),)), "lifts is a sequence in order, got dict"),
            ((("G",), ({"F": (1,)},), ((),)), "conjugation row 0 is a sequence in order, got dict"),
            ((("G",), (1,), ((),)), "conjugation row 0 is a sequence in order, got int"),
            ((("G",), (((1,),),), "e1"), "evaluations is a sequence in order, got str"),
            (("G", (((1,),),), ((),)), "lifts is a sequence in order, got str")):
        with pytest.raises(TypeError, match=f"^LiftData's {message}$"):
            LiftData(*fields)


def test_extension_refuses_data_that_is_not_lift_data():
    kernel, q, good = _one_word()
    for bad in ({"x": "G"}, (good.lifts, good.conjugation, good.evaluations), None):
        with pytest.raises(TypeError, match="^lift data is a LiftData, got "):
            extension_presentation(kernel, q, bad)


def _freely_reduced(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@st.composite
def _extensions_of_a_cyclic_kernel(draw):
    """A quotient Q on 1-3 generators with up to 4 relators of up to 6
    letters, n, a unit exponent for each lift's conjugation of F, and the
    power of F that each lifted relator evaluates to."""
    ngens = draw(st.integers(1, 3))
    letter = st.sampled_from([x for i in range(1, ngens + 1) for x in (i, -i)])
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=4))
    n = draw(st.integers(2, 12))
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    exponents = draw(st.lists(st.sampled_from(units), min_size=ngens, max_size=ngens))
    values = draw(st.lists(st.integers(-n, n), min_size=len(relators), max_size=len(relators)))
    q = Presentation(("x", "y", "z")[:ngens], [_freely_reduced(r) for r in relators])
    return q, n, exponents, values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_extensions_of_a_cyclic_kernel())
@example((Presentation(("x", "y"), ((1, 1), (1, 2, -1, -2))), 5, [2, 4], [1, -3]))
def test_extension_modulo_the_kernel_has_the_quotients_abelianization(case):
    # E = <F, lifts | F^n, lifted relators = F^v, X F X^-1 = F^e> and
    # E / <<F>> = Q, whatever n, e and v are
    q, n, exponents, values = case
    lifts = tuple(g.upper() for g in q.generators)
    data = LiftData(lifts=lifts, conjugation=tuple((_f(e),) for e in exponents),
                    evaluations=tuple(map(_f, values)))
    out = extension_presentation(Presentation(("F",), ((1,) * n,)), q, data)
    assert out.generators == ("F", *lifts)
    killed = [_freely_reduced(x - 1 if x > 0 else x + 1 for x in r if abs(x) != 1)
              for r in out.relators]
    assert abelianization(Presentation(out.generators[1:], killed)) == abelianization(q)
