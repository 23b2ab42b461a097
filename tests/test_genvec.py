import random
from itertools import combinations, permutations
from math import factorial, gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import half_twist_reference as reference
from group_reference import closure, perm_closure
from liftmcg.arith_perm import (
    CapacityError,
    InternalInvariantError,
    OutOfScopeError,
    compose,
    identity_perm,
    inverse,
    perm_from_cycles,
    transposition,
    units_mod,
)
from liftmcg.datasets import (
    dataset,
    enumerate_spherical,
    hyperelliptic,
    parse_dataset,
)
from liftmcg.fpgroups import (
    mod_sphere_presentation,
    psi_image,
    psi_images,
    reidemeister_schreier_full,
)
from liftmcg.genvec import (
    GeneratingVector,
    GroupDescriptor,
    VectorStabilizer,
    act,
    classify_irreducible,
    cyclic,
    direct_product,
    equal_pairs,
    generating_vector,
    half_twist_word,
    liftable_images,
    matching_perm,
    mod_equals_lmod,
    perm_to_half_twist_word,
    semidirect,
    stabilizer_bruteforce,
    stabilizing_units,
    value_blocks,
)


def vec(n, *c):
    return GeneratingVector(n, tuple(c))


def all_vectors(genus, max_k=8):
    out = []
    for ds in enumerate_spherical(genus):
        v = generating_vector(ds)
        if v.k <= max_k:
            out.append(v)
    return out


def test_generating_vector_examples():
    assert generating_vector(parse_dataset("(7,0;(1,7),(2,7),(4,7))")).c == (1, 2, 4)
    assert generating_vector(hyperelliptic(2)).c == (1,) * 6
    assert generating_vector(parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")).c == (3, 3, 2, 4)


def test_generating_vector_rejects():
    with pytest.raises(ValueError):
        generating_vector(dataset(2, 1, ((1, 2), (1, 2))))
    with pytest.raises(ValueError):
        GeneratingVector(6, (2, 3))  # sum != 0
    with pytest.raises(ValueError):
        GeneratingVector(6, (0, 6))
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        GeneratingVector(1, (1,))
    with pytest.raises(ValueError, match="need at least one entry"):
        GeneratingVector(3, ())
    # entries in 2Z/20: the unit 11 fixes each of them, so the units would
    # overcount H1 (|H1| = 1, two stabilizing units)
    with pytest.raises(ValueError, match="must generate the residues mod 20"):
        GeneratingVector(20, (2, 4, 14))
    assert GeneratingVector(122, (1, 121)).n == 122  # Wiman's bound at genus 30
    with pytest.raises(CapacityError):
        GeneratingVector(123, (1, 122))
    # ints only, as for DataSet: a bool or a float is refused, naming the field
    with pytest.raises(TypeError, match="c must be an int, got True"):
        GeneratingVector(2, (True, True, 1, 1, 1, 1))
    with pytest.raises(TypeError, match="n must be an int, got True"):
        GeneratingVector(True, (1, 1))
    with pytest.raises(TypeError, match="n must be an int, got 6.0"):
        GeneratingVector(6.0, (1, 5))
    with pytest.raises(TypeError, match="c must be an int, got 5.0"):
        GeneratingVector(6, (1, 5.0))
    assert GeneratingVector(6, [1, 5]).c == (1, 5)


def test_act_examples():
    v = vec(7, 1, 2, 4)
    assert act(1, identity_perm(3), v) == v
    assert act(2, perm_from_cycles([(1, 2, 3)], 3), v) == v
    w = vec(7, 5, 1, 1)
    assert act(1, perm_from_cycles([(2, 3)], 3), w) == w
    # moving case: positions permute against the inverse
    assert act(1, perm_from_cycles([(1, 2, 3)], 3), vec(7, 1, 2, 4)).c == (4, 1, 2)


def test_act_rejects_non_unit_and_bad_degree():
    with pytest.raises(ValueError):
        act(2, identity_perm(4), vec(6, 3, 3, 2, 4))  # gcd(2, 6) != 1
    with pytest.raises(ValueError):
        act(5, identity_perm(3), vec(6, 3, 3, 2, 4))  # degree mismatch


def test_act_left_action_laws():
    rng = random.Random(23)
    pool = all_vectors(2) + all_vectors(3)
    for v in pool:
        units = units_mod(v.n)
        for _ in range(8):
            l1, l2 = rng.choice(units), rng.choice(units)
            s1 = tuple(rng.sample(range(v.k), v.k))
            s2 = tuple(rng.sample(range(v.k), v.k))
            assert act(1, identity_perm(v.k), v) == v
            assert act(l1, s1, act(l2, s2, v)) == act(l1 * l2 % v.n, compose(s1, s2), v)


def test_stabilizer_examples():
    stab = stabilizer_bruteforce(vec(7, 1, 2, 4))
    assert stab == [(1, identity_perm(3)),
                    (2, perm_from_cycles([(1, 2, 3)], 3)),
                    (4, perm_from_cycles([(1, 3, 2)], 3))]

    hyp = stabilizer_bruteforce(generating_vector(hyperelliptic(2)))
    assert len(hyp) == 720
    assert {u for u, _ in hyp} == {1}

    small = stabilizer_bruteforce(vec(7, 5, 1, 1))
    assert small == [(1, identity_perm(3)), (1, perm_from_cycles([(2, 3)], 3))]


def test_stabilizer_closed_under_inverse_and_products():
    for v in all_vectors(2):
        stab = set(stabilizer_bruteforce(v))
        for u, s in stab:
            assert (pow(u, -1, v.n), inverse(s)) in stab
        sample = sorted(stab)[:12]
        for (u1, s1) in sample:
            for (u2, s2) in sample:
                assert (u1 * u2 % v.n, compose(s1, s2)) in stab


def test_liftable_images_hyperelliptic():
    rep = liftable_images(generating_vector(hyperelliptic(2)))
    assert len(rep.swaps) == 15
    assert rep.unit_words == {1: rep.unit_words[1]} and not rep.unit_words[1]
    assert rep.h1.order == 720 and rep.h2.order == 720
    assert rep.h1.is_symmetric and rep.h2.is_symmetric
    assert rep.h1.index == 1 and len(rep.h1.units) == 1


def test_liftable_images_superelliptic_alternating():
    # the alternating vector (1, -1, 1, -1) of the degree-3 double cover
    v = vec(3, 1, 2, 1, 2)
    rep = liftable_images(v)
    assert rep.swaps == ((1, 3), (2, 4))
    assert rep.h1.units == (1, 2)
    assert rep.h1.unit_perms[2] == perm_from_cycles([(1, 2), (3, 4)], 4)
    assert rep.h1.order == 8 and rep.h2.order == 4


def test_liftable_images_seven():
    rep = liftable_images(vec(7, 1, 2, 4))
    assert rep.swaps == ()
    # unit 2 is s1 s2 s1^-1 * s1, whose seam cancels
    assert rep.unit_words == {1: (), 2: (1, 2), 4: (1, 1, 2, -1)}
    assert psi_image(rep.unit_words[2], 3) == perm_from_cycles([(1, 2, 3)], 3)
    assert psi_image(rep.unit_words[4], 3) == perm_from_cycles([(1, 3, 2)], 3)
    assert rep.h1.order == 3 and rep.h2.order == 1


def test_liftable_images_matches_bruteforce_exhaustively(monkeypatch):
    # every class of genus 2-10 with k <= 8; the cross-check raises on any
    # mismatch, and the brute-force set it used is compared here as well
    import liftmcg.genvec as genvec_module

    seen = []

    def recorded(v):
        seen.append(stabilizer_bruteforce(v))
        return seen[-1]

    monkeypatch.setattr(genvec_module, "stabilizer_bruteforce", recorded)
    count = 0
    for genus in range(2, 11):
        for v in all_vectors(genus):
            rep = liftable_images(v, cross_check=True)
            stab = seen.pop()
            closure1 = perm_closure(rep.h1.generators, v.k)
            closure2 = perm_closure(rep.h2.generators, v.k)
            assert list(closure1) == sorted(sigma for _, sigma in stab), v
            assert list(closure2) == sorted(sigma for u, sigma in stab if u == 1), v
            assert rep.h1.units == tuple(sorted({u for u, _ in stab})), v
            assert len(stab) == rep.h1.order == rep.h2.order * len(rep.h1.units), v
            count += 1
    assert count == 349


def test_cross_check_refuses_wrong_generators():
    # H1 = <(1 2), (3 4), (1 3)(2 4)> and H2 = <(1 2), (3 4)> in Sym(4); a
    # generating set that falls short of the group, or leaves it, is refused.
    # A VectorStabilizer derives its generators, so stand-ins carry wrong ones.
    from liftmcg.genvec import _check_against_bruteforce

    def stand_in(h, gens):
        return SimpleNamespace(generators=gens, degree=h.degree, units=h.units, order=h.order)

    v = vec(3, 1, 1, 2, 2)
    rep = liftable_images(v, cross_check=True)
    stab = tuple(stabilizer_bruteforce(v))
    h1, h2 = rep.h1, rep.h2
    assert len(h1.generators) == 3 and len(h2.generators) == 2
    outside = transposition(1, 3, 4)
    unit_perm = rep.h1.unit_perms[2]
    for gens in (h1.generators[:-1], h1.generators + (outside,)):
        with pytest.raises(InternalInvariantError,
                           match="^h1 differs from the stabilizer projection$"):
            _check_against_bruteforce(stab, stand_in(h1, gens), h2)
    for gens in (h2.generators[:-1], h2.generators + (outside,), h2.generators + (unit_perm,)):
        with pytest.raises(InternalInvariantError, match="^h2 differs from the unit-1 slice$"):
            _check_against_bruteforce(stab, h1, stand_in(h2, gens))
    # a sigma listed twice is not the group either
    with pytest.raises(InternalInvariantError,
                       match="^h1 differs from the stabilizer projection$"):
        _check_against_bruteforce(stab + stab[-1:], h1, h2)
    _check_against_bruteforce(stab, h1, h2)


@st.composite
def vectors(draw):
    """Any generating vector with 2 <= k <= 7 and n <= 12, genus < 2 included."""
    n = draw(st.integers(2, 12))
    c = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6))
    c.append(-sum(c) % n)
    assume(c[-1] != 0 and gcd(n, *c) == 1)
    return GeneratingVector(n, tuple(c))


@settings(derandomize=True, deadline=None, max_examples=75)
@given(vectors())
@example(vec(3, 1, 2, 1, 2))  # H2 = <(1 3), (2 4)>, H1 = H2 and (1 2)(3 4): D4
@example(vec(7, 1, 2, 4))  # H1 = Z3, H2 = 1
@example(vec(8, 1, 3, 5, 7))  # H1 = Z2 x Z2, which no one unit permutation generates
@example(vec(2, 1, 1, 1, 1, 1, 1))  # H1 = H2 = Sym(6)
def test_vector_stabilizer_matches_bruteforce_on_generated_vectors(v):
    # the derived generators pass the cross-check, and unit_of pairs every
    # sigma of the stabilizer with its unit and nothing else with any
    h1 = liftable_images(v, cross_check=True).h1
    stab = stabilizer_bruteforce(v)
    assert all(h1.unit_of(sigma) == u for u, sigma in stab), v
    if not h1.is_symmetric:
        members = {sigma for _, sigma in stab}
        outside = next(p for p in permutations(range(v.k)) if p not in members)
        assert h1.unit_of(outside) is None and outside not in h1, v


def test_membership_refuses_what_is_not_a_permutation():
    # every entry of (3,0;(1,3)_6) is 1, so H1 = H2 = Sym(6) and every tuple
    # of six entries in range reads the vector back; only permutations count
    stab = liftable_images(generating_vector(parse_dataset("(3,0;(1,3)_6)")))
    assert stab.h1.is_symmetric and stab.h2.is_symmetric
    for p in ((0,) * 6, (0, 1, 2, 3, 4, 4), (1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4)):
        assert stab.h1.unit_of(p) is None and p not in stab.h1 and p not in stab.h2, p
    assert stab.h1.unit_of((5, 4, 3, 2, 1, 0)) == 1 and (5, 4, 3, 2, 1, 0) in stab.h2


def test_vector_stabilizer_refuses_units_that_are_no_subgroup_of_the_fixing_ones():
    # at v = (1,1,1,1) mod 4 only the unit 1 fixes v: (1, 3) used to give
    # order 48 > 4! and index 0, (1, 1) order 48, and (3,) index 1, which
    # Reidemeister-Schreier then trusted, though no sigma has act(3, sigma, v) = v
    v = vec(4, 1, 1, 1, 1)
    for units in ((1, 3), (1, 1), (3,), (), (1, 5), (1, 0)):
        with pytest.raises(ValueError, match=r"^units .* are no subgroup of those fixing "):
            VectorStabilizer(v, units)
    assert VectorStabilizer(v, (1,)).index == 1
    # (7,0;(1,7),(2,7),(4,7)) is fixed by the units 1, 2 and 4 mod 7; 2 alone
    # with 1 is not closed (2 * 2 = 4), nor is 1 with 4 (4 * 4 = 2)
    v = vec(7, 1, 2, 4)
    assert VectorStabilizer(v, (1, 2, 4)).index == 2
    for units in ((1, 2), (1, 4), (2, 4), (1, 2, 4, 3)):
        with pytest.raises(ValueError, match="are no subgroup"):
            VectorStabilizer(v, units)


def test_vector_stabilizer_keeps_its_units_as_a_tuple():
    # a list was kept: after units.append(3) the cached order stayed 2 while
    # units named a unit that does not fix the vector
    v = GeneratingVector(4, (1, 1, 2))
    units = [1]
    h = VectorStabilizer(v, units)
    units.append(3)
    assert type(h.units) is tuple and h.units == (1,) and h.order == 2
    assert h == VectorStabilizer(v, (1,)) and hash(h) == hash(VectorStabilizer(v, (1,)))
    with pytest.raises(ValueError, match=r"^units \(1, 3\) are no subgroup"):
        VectorStabilizer(v, units)


def test_half_twist_word_refuses_what_is_not_a_permutation():
    # (0, 0, 1) used to give the word () and (1, 1, 0) the word (1,)
    for p in ((0, 0, 1), (1, 1, 0), (5,)):
        with pytest.raises(ValueError, match="is not a permutation"):
            perm_to_half_twist_word(p)


def test_clmod_image_is_normal_in_lmod_image():
    for genus in (2, 3):
        for v in all_vectors(genus):
            rep = liftable_images(v)
            for g in rep.h1.generators:
                for s in rep.h2.generators:
                    assert compose(compose(g, s), inverse(g)) in rep.h2


def test_liftable_images_ten_equal_entries():
    v = generating_vector(hyperelliptic(4))  # k = 10
    rep = liftable_images(v)
    assert rep.h1.order == factorial(10)
    assert rep.h1.is_symmetric and rep.h2.is_symmetric
    assert rep.h1.units == (1,)
    assert len(rep.swaps) == 45


def test_unit_words_fix_the_vector():
    for genus in (2, 3):
        for v in all_vectors(genus):
            rep = liftable_images(v)
            for u, w in rep.unit_words.items():
                sigma = psi_image(w, v.k)
                assert act(u, sigma, v) == v


def test_half_twist_words_equal_the_by_name_reference():
    # the by-name words compiled with s_i -> i: every half-twist and every
    # permutation of Sym(k), k = 2-7, then every unit word of genus 2-10
    for k in range(2, 8):
        for i, j in combinations(range(1, k + 1), 2):
            assert half_twist_word(i, j) == reference.compiled(
                reference.half_twist_word(i, j), k), (i, j)
        for p in permutations(range(k)):
            assert perm_to_half_twist_word(p) == reference.compiled(
                reference.perm_to_half_twist_word(p), k), p
    count = 0
    for genus in range(2, 11):
        for ds in enumerate_spherical(genus):
            rep = liftable_images(generating_vector(ds))
            for u, w in rep.unit_words.items():
                expect = reference.perm_to_half_twist_word(rep.h1.unit_perms[u])
                assert w == reference.compiled(expect, rep.h1.degree), (str(ds), u)
                count += 1
    assert count == 526  # the unit 1's empty words among them


def test_matching_perm_is_greedy_and_unit_recoverable():
    v = vec(3, 1, 2, 1, 2)
    assert matching_perm(1, v) == identity_perm(4)
    sigma = matching_perm(2, v)
    h1 = liftable_images(v).h1
    assert h1.unit_perms[2] == sigma and h1.unit_of(sigma) == 2
    # (1 2) takes c = (1, 2, 1, 2) to no unit multiple of it
    assert h1.unit_of(transposition(1, 2, 4)) is None
    assert h1.unit_of(identity_perm(3)) is None  # wrong degree
    with pytest.raises(ValueError):
        matching_perm(2, vec(7, 1, 1, 5))  # 2 does not stabilize


def test_rs_of_stabilizers_matches_materialized_groups_genus_2_to_5():
    # every H1 and H2 of the Reidemeister-Schreier route: the stabilizer and
    # the materialized group give one presentation, index and image per
    # Schreier generator
    count = 0
    for genus in (2, 3, 4, 5):
        for v in all_vectors(genus, max_k=12):
            rep = liftable_images(v, cross_check=False)
            ambient, psi = mod_sphere_presentation(v.k), psi_images(v.k)
            for h in (rep.h1, rep.h2):
                if h.is_symmetric or h.order == 1:
                    continue
                reference = closure(h.generators, v.k)
                assert h.order == reference.order
                assert all(p in h for p in reference.elements)
                assert (reidemeister_schreier_full(ambient, psi, h)
                        == reidemeister_schreier_full(ambient, psi, reference)), v
                count += 1
    assert count == 85


def test_stabilizer_membership_and_cosets():
    v = vec(3, 1, 2, 1, 2)
    rep = liftable_images(v)
    swap = perm_from_cycles([(1, 3)], 4)
    flip = perm_from_cycles([(1, 2), (3, 4)], 4)
    assert swap in rep.h2 and swap in rep.h1
    assert flip not in rep.h2 and flip in rep.h1
    assert perm_from_cycles([(1, 2)], 4) not in rep.h1
    assert identity_perm(3) not in rep.h1  # wrong degree
    # H2*g = H2*(swap g), and H1 also merges g with flip*g
    g = perm_from_cycles([(2, 3, 4)], 4)
    assert rep.h2.coset_key(compose(swap, g)) == rep.h2.coset_key(g)
    assert rep.h2.coset_key(compose(flip, g)) != rep.h2.coset_key(g)
    assert rep.h1.coset_key(compose(flip, g)) == rep.h1.coset_key(g)


def test_stabilizer_equality_is_set_equality_genus_2_to_6():
    # every H1 and H2 with k <= 8, against the brute-force element sets
    subgroups = []
    for genus in range(2, 7):
        for v in all_vectors(genus):
            stab = stabilizer_bruteforce(v)
            rep = liftable_images(v)
            subgroups.append((rep.h1, frozenset(sigma for _, sigma in stab)))
            subgroups.append((rep.h2, frozenset(sigma for u, sigma in stab if u == 1)))
    assert len(subgroups) == 212
    # equal sets need not have equal blocks of equal entries: H2 of (1,1,2,2)
    # mod 3 is H1 of (2,2,1,3) mod 4, whose unit 3 swaps the entries 1 and 3
    blocks_differ = 0
    for a, elements_a in subgroups:
        for b, elements_b in subgroups:
            if a.degree != b.degree:
                continue
            assert (a == b) == (elements_a == elements_b), (a.vector, b.vector)
            if a == b:
                assert hash(a) == hash(b)
                blocks_differ += sorted(value_blocks(a.vector)) != sorted(value_blocks(b.vector))
    assert blocks_differ > 0
    assert len({a for a, _ in subgroups}) == len({(a.degree, e) for a, e in subgroups})


def test_stabilizer_is_unequal_to_other_types():
    h1 = liftable_images(vec(3, 1, 1, 2, 2)).h1
    same_elements = closure(h1.generators, h1.degree)
    assert h1.order == same_elements.order == 8
    assert all(p in h1 for p in same_elements.elements)
    assert h1 != object()
    assert not h1 == same_elements
    assert not same_elements == h1


def test_liftable_images_refuses_past_the_branch_point_bound():
    with pytest.raises(CapacityError, match="63 branch points"):
        liftable_images(vec(3, *([1] * 63)))


def test_mod_equals_lmod():
    assert mod_equals_lmod(generating_vector(hyperelliptic(2)))
    assert not mod_equals_lmod(vec(7, 1, 2, 4))
    v = vec(3, 1, 1, 1, 1, 1, 1)
    assert mod_equals_lmod(v)
    assert v.genus() == 4


def test_mod_equals_lmod_agrees_with_symmetric_image():
    for genus in (2, 3, 4):
        for v in all_vectors(genus):
            rep = liftable_images(v)
            assert mod_equals_lmod(v) == rep.h1.is_symmetric


# ---------------------------------------------------------------------------
# the 3-branch-point classification


def test_classify_table_rows():
    rows = {
        "(7,0;(1,7),(2,7),(4,7))": ("i", semidirect(7, 3, 2), cyclic(7)),
        "(7,0;(5,7),(1,7),(1,7))": ("ii_a", direct_product(7, 2), direct_product(7, 2)),
        "(8,0;(1,4),(1,8),(5,8))": ("ii_b", semidirect(8, 2, 5), cyclic(8)),
        "(9,0;(1,3),(1,9),(5,9))": ("iii", cyclic(9), cyclic(9)),
    }
    for text, (case, normalizer, centralizer) in rows.items():
        cls = classify_irreducible(generating_vector(parse_dataset(text)))
        assert cls.case == case
        assert cls.normalizer == normalizer
        assert cls.centralizer == centralizer


def test_classify_requires_three_points_and_genus():
    with pytest.raises(ValueError):
        classify_irreducible(generating_vector(hyperelliptic(2)))
    with pytest.raises(ValueError):
        classify_irreducible(vec(3, 1, 1, 1))  # genus 1


def test_classify_takes_the_vector():
    # it builds H1 itself: a stabilizer, H1 or H2, is refused by type
    v = generating_vector(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))
    stab = liftable_images(v)
    assert classify_irreducible(v).case == "i"
    for bad in (stab.h1, stab.h2, stab, parse_dataset("(7,0;(1,7),(2,7),(4,7))"), (7, 1, 2, 4)):
        with pytest.raises(TypeError) as info:
            classify_irreducible(bad)
        assert str(info.value) == ("classification reads a GeneratingVector, "
                                   f"got {type(bad).__name__}")
    # case ii_b reads its twist off H1's units in order
    assert classify_irreducible(generating_vector(parse_dataset("(8,0;(1,4),(1,8),(5,8))"))
                                ).twist == 5
    # genus < 2 is refused before k != 3
    for v, reason in ((vec(2, 1, 1), "genus 0 is outside the genus >= 2 scope"),
                      (vec(2, 1, 1, 1, 1), "genus 1 is outside the genus >= 2 scope"),
                      (vec(3, 1, 1, 2, 2), "classification needs exactly 3 branch points, got 4")):
        with pytest.raises(OutOfScopeError) as info:
            classify_irreducible(v)
        assert str(info.value) == reason


def test_classify_agrees_with_liftable_images():
    sizes = {"i": 3, "ii_a": 2, "ii_b": 2, "iii": 1}
    for genus in (2, 3, 4):
        for v in all_vectors(genus):
            if v.k != 3:
                continue
            rep = liftable_images(v)
            cls = classify_irreducible(v)
            assert rep.h1.order == sizes[cls.case]
            if cls.twist is not None and cls.case != "ii_a":
                assert cls.twist in rep.h1.units


def test_group_descriptor_validation():
    with pytest.raises(ValueError):
        semidirect(7, 3, 1)  # twist 1 is not a semidirect twist
    with pytest.raises(ValueError):
        semidirect(7, 2, 2)  # 2^2 != 1 mod 7
    assert GroupDescriptor("semidirect", n=7, m=3, twist=2).render() == "Z7 x|_2 Z3"
    # each kind needs its own fields as ints >= 1 and no other field
    for kind, fields in (
            ("cyclic", {}), ("direct_product", {"n": 3}), ("semidirect", {"n": 8, "twist": 5}),
            ("cyclic", {"n": 0}), ("cyclic", {"n": True}), ("cyclic", {"n": 3.0}),
            ("cyclic", {"n": "3"}), ("cyclic", {"n": 3, "m": 2}),
            ("direct_product", {"n": 3, "m": -2}),
            ("direct_product", {"n": 3, "m": 2, "twist": 1}),
            ("semidirect", {"n": 7, "m": 3, "twist": 0}), ("trivial", {"n": 1}),
            ("dihedral", {"n": 3})):
        with pytest.raises(ValueError):
            GroupDescriptor(kind, **fields)
    assert GroupDescriptor("trivial").render() == "1"
    assert cyclic(9).render() == "Z9"
    assert direct_product(7, 2).render() == "Z7 x Z2"


def test_equal_pairs_and_units():
    v = vec(2, *([1] * 6))
    assert len(equal_pairs(v)) == 15
    assert stabilizing_units(v) == [1]
    assert stabilizing_units(vec(7, 1, 2, 4)) == [1, 2, 4]
