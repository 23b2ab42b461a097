import random
from math import factorial, gcd

import pytest

from group_reference import closure, relator_key, rename_presentation, same_relator_sets
from liftmcg.arith_perm import (
    CapacityError,
    identity_perm,
    perm_from_cycles,
    transposition,
)
from liftmcg.fpgroups import (
    EMPTY,
    LiftData,
    Presentation,
    Word,
    abelianization,
    commutator,
    extension_presentation,
    gen,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    psi_image,
    psi_images,
    reidemeister_schreier_full,
    render_presentation,
    render_relator,
    render_word,
    tietze_simplify,
    word,
)


# ---------------------------------------------------------------------------
# words


def test_word_reduction_and_algebra():
    a, b = gen("a"), gen("b")
    assert (a * a.inv()) == EMPTY
    assert (a * b * b.inv()).letters == (("a", 1),)
    assert (a ** -2).letters == (("a", -1), ("a", -1))
    assert (a * b).inv() == b.inv() * a.inv()
    assert commutator(a, b).letters == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert (a ** 0) == EMPTY
    for e in (True, False, -1.0, 2, 0):
        with pytest.raises(ValueError):
            Word((("a", e),))
    with pytest.raises(ValueError):
        Word((("a", 1), ("b", True)))


def test_word_render():
    a, b = gen("a"), gen("b")
    assert render_word(EMPTY) == "1"
    assert render_word(a ** 2 * b ** -3) == "a^2*b^-3"
    assert render_word(a * b * a.inv()) == "a*b*a^-1"


def test_render_relator_and_presentation():
    a, b = gen("a"), gen("b")
    p = Presentation.from_words(("a", "b"), (a ** 2 * b ** -3, commutator(a, b)))
    assert p.relators == ((1, 1, -2, -2, -2), (1, 2, -1, -2))
    assert render_relator(p.relators[0], p.generators) == "a^2 = b^3"
    assert render_relator(p.relators[1], p.generators) == "[a,b] = 1"
    assert render_presentation(p) == "<a, b | a^2 = b^3, [a,b] = 1>"
    assert render_presentation(Presentation((), ())) == "<1>"
    assert render_presentation(Presentation(("a",), ())) == "<a | >"


def test_presentation_validates_letters():
    with pytest.raises(ValueError):
        Presentation.from_words(("a",), (gen("b"),))
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    # relators are tuples of nonzero ints naming generators, freely reduced
    for relator in ((0,), (True,), (1, False), (1.0,), ("a",), (None,),
                    (3,), (-3,), (1, 2, -2), (-1, 1)):
        with pytest.raises(ValueError):
            Presentation(("a", "b"), (relator,))
    with pytest.raises(TypeError):
        Presentation(("a",), (gen("a"),))
    # generator names are nonempty strs
    for names in ((1,), ("a", None), (("a",),)):
        with pytest.raises(TypeError):
            Presentation(names, ((1, 1),))
    with pytest.raises(ValueError):
        Presentation(("",), ((1, 1),))
    assert Presentation(("a", "b"), ((1, 2, -1, -2), (), (-2, -2))).relators[2] == (-2, -2)


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
    assert len(p.relators) == 6  # 2 commutations + 2 braids + chain + palindrome
    assert abelianization(p) == ((6,), 0)
    with pytest.raises(ValueError):
        mod_sphere_presentation(2)


def test_mod_sphere_k3_index_of_trivial_subgroup():
    p = mod_sphere_presentation(3)
    psi = psi_images(3)
    _, info = reidemeister_schreier_full(p, psi, closure([], 3))
    assert info.index == 6


def test_mod_sphere_relators_die_in_symmetric_group():
    from liftmcg.fpgroups import evaluate_perm

    for k in (3, 4, 5, 6):
        p = mod_sphere_presentation(k)
        psi = psi_images(k)
        for r in p.relators:
            assert evaluate_perm(r, [psi[g] for g in p.generators], k) == identity_perm(k)


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


def a_in_sigmas(i: int, j: int) -> Word:
    """The pure generator a_ij as a word in half-twists:
    (s_{j-1}...s_{i+1}) s_i^2 (s_{j-1}...s_{i+1})^-1."""
    conj = word(*(gen(f"s{t}") for t in range(j - 1, i, -1)))
    return conj * gen(f"s{i}") ** 2 * conj.inv()


def test_pure_generators_as_half_twist_words():
    # a_ij is a pure mapping class: its marked-point image is trivial
    for k in (4, 5, 6):
        for i in range(1, k - 1):
            for j in range(i + 1, k):
                w = a_in_sigmas(i, j)
                assert psi_image(w, k) == identity_perm(k)
    # a_{i,i+1} is the square of the adjacent half-twist
    assert a_in_sigmas(1, 2) == gen("s1") ** 2


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def test_rs_index_one_is_renaming():
    # at index 1 every generator g is the Schreier generator x0_g, and RS
    # renames p less its reversed commutators [s_i,s_j], i > j + 1, each the
    # inverse of the earlier [s_j,s_i]
    for k in (3, 4, 5, 6):
        p = mod_sphere_presentation(k)
        psi = psi_images(k)
        full = closure([psi[g] for g in p.generators], k)
        out, info = reidemeister_schreier_full(p, psi, full)
        s = {i: gen(f"s{i}") for i in range(1, k)}
        reversed_commutators = Presentation.from_words(p.generators, [
            commutator(s[i], s[j]) for i in range(1, k) for j in range(1, i - 1)]).relators
        assert len(reversed_commutators) == (k - 2) * (k - 3) // 2
        mapping = {f"x0_{g}": g for g in p.generators}
        assert info.index == 1 and rename_presentation(out, mapping) == Presentation(
            p.generators, tuple(r for r in p.relators if r not in reversed_commutators))


def test_rs_one_rewrite_per_cyclic_class():
    # over the trivial subgroup of Sym(3), index 6: s1^2 is rewritten once
    # per psi(s1)-orbit (3 of size 2), the braid at all 6 cosets, (s1*s2)^3
    # once per psi(s1*s2)-orbit (2 of size 3); the braid's rotation and
    # inverse and s1^-2 repeat earlier relators and are skipped, and the
    # empty relator has no rewrite
    s1, s2 = gen("s1"), gen("s2")
    braid = s1 * s2 * s1 * (s2 * s1 * s2).inv()
    p = Presentation.from_words(("s1", "s2"), (
        EMPTY, s1 ** 2, braid, s2 * s1 * s2.inv() * s1.inv() * s2.inv() * s1, braid.inv(),
        (s1 * s2) ** 3, s1 ** -2, EMPTY))
    out, info = reidemeister_schreier_full(p, psi_images(3), closure([], 3))
    assert info.index == 6
    assert len(out.relators) == 3 + 6 + 2
    distinct = Presentation(p.generators, (p.relators[1], p.relators[2], p.relators[5]))
    assert reidemeister_schreier_full(distinct, psi_images(3), closure([], 3))[0] == out


def test_rs_prop_case_one_abelianization():
    # preimage of <(1,2),(3,4)>: independent SNF oracle value Z + Z2 + Z2
    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    H = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    out, _ = reidemeister_schreier_full(p, psi, H)
    assert abelianization(out) == ((2, 2), 1)

    explicit = Presentation.from_words(
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

    explicit = Presentation.from_words(
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
        out, info = reidemeister_schreier_full(p, psi, H)
        assert len(out.generators) == info.index * len(p.generators) - (info.index - 1)
        assert info.index * H.order == 24


def test_rs_generator_images_cover_generators_and_lie_in_subgroup():
    from liftmcg.fpgroups import evaluate_perm

    p = mod_sphere_presentation(4)
    psi = psi_images(4)
    for gens in ([transposition(1, 2, 4), transposition(3, 4, 4)],
                 [perm_from_cycles([(1, 2), (3, 4)], 4)],
                 [transposition(2, 3, 4)]):
        H = closure(gens, 4)
        out, info = reidemeister_schreier_full(p, psi, H)
        assert set(info.generator_images) == set(out.generators)
        for image in info.generator_images.values():
            assert image in H  # Schreier generators live in the subgroup
        images = [info.generator_images[g] for g in out.generators]
        for r in out.relators:
            assert evaluate_perm(r, images, 4) == tuple(range(4))


def test_rs_rejects_subgroup_outside_image():
    # psi image of <s1> alone is <(1,2)>; the Klein subgroup is not inside
    p = Presentation(("s1",), ())
    psi = {"s1": transposition(1, 2, 4)}
    H = closure([transposition(3, 4, 4)], 4)
    with pytest.raises(ValueError):
        reidemeister_schreier_full(p, psi, H)


def test_rs_requires_psi_onto_the_symmetric_group():
    # H = <(1,2)> lies inside the image <(1,2)> of psi, but psi is not onto
    # Sym(4), which Reidemeister-Schreier requires
    p = Presentation(("s1",), ())
    psi = {"s1": transposition(1, 2, 4)}
    H = closure([transposition(1, 2, 4)], 4)
    with pytest.raises(ValueError, match="adjacent transposition"):
        reidemeister_schreier_full(p, psi, H)


def _free_on_half_twists(k):
    """The relator-free presentation on s1..s_{k-1}, with psi the adjacent
    transpositions."""
    return Presentation(tuple(f"s{i}" for i in range(1, k)), ()), psi_images(k)


def test_rs_index_examples():
    p, psi = _free_on_half_twists(4)
    adjacents = list(psi.values())
    assert reidemeister_schreier_full(p, psi, closure(adjacents, 4))[1].index == 1
    klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
    assert reidemeister_schreier_full(p, psi, klein)[1].index == 6
    p3, psi3 = _free_on_half_twists(3)
    sub = closure([transposition(2, 3, 3)], 3)
    assert reidemeister_schreier_full(p3, psi3, sub)[1].index == 3


def test_rs_index_times_order_random():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.randrange(2, 8)
        sub_gens = [tuple(rng.sample(range(k), k)) for _ in range(rng.randrange(1, 3))]
        sub = closure(sub_gens, k)
        p, psi = _free_on_half_twists(k)
        out, info = reidemeister_schreier_full(p, psi, sub)
        assert info.index * sub.order == factorial(k)
        assert len(out.generators) == info.index * (k - 1) - info.index + 1
        assert not out.relators


class _NoCosets:
    """The trivial subgroup of Sym(10), refusing to label any coset."""

    degree, order = 10, 1

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


# ---------------------------------------------------------------------------
# Tietze


def test_tietze_examples():
    a, b = gen("a"), gen("b")
    assert tietze_simplify(Presentation.from_words(("a", "b"), (b,))) == Presentation(("a",), ())
    assert tietze_simplify(Presentation.from_words(("a", "b"), (a * b,))) == Presentation(("a",), ())
    t = tietze_simplify(pmod_sphere_presentation(4))
    assert len(t.generators) == 2 and not t.relators


def test_tietze_dedupes_and_drops_trivial():
    a, b = gen("a"), gen("b")
    p = Presentation.from_words(("a", "b"),
                     (commutator(a, b), commutator(b, a), a * a.inv(), a ** 2, a ** 2))
    t = tietze_simplify(p)
    assert len(t.relators) == 2  # one commutator survives, one a^2


def test_tietze_dedup_keeps_earlier_untouched_relator():
    # c = b turns the later [a,c] into [b,a], the inverse of the earlier [a,b]
    a, b, c = gen("a"), gen("b"), gen("c")
    p = Presentation.from_words(("a", "b", "c"), (commutator(a, b), c * b.inv(), commutator(a, c)))
    assert tietze_simplify(p) == Presentation.from_words(("a", "b"), (commutator(a, b),))


def test_tietze_dedup_keeps_earlier_rewritten_relator():
    # c = b turns the earlier [c,a] into [b,a], the inverse of the later [a,b]
    a, b, c = gen("a"), gen("b"), gen("c")
    p = Presentation.from_words(("a", "b", "c"), (commutator(c, a), c * b.inv(), commutator(a, b)))
    assert tietze_simplify(p) == Presentation.from_words(("a", "b"), (commutator(b, a),))


def test_tietze_reduces_rotation_of_non_cyclically_reduced_relator():
    # a*b*c*a^-1 rotates to a^-1*a*b, so c = b^-1
    a, b, c = gen("a"), gen("b"), gen("c")
    p = Presentation.from_words(("a", "b", "c"), (a * b * c * a.inv(), c * a * c * a * b))
    t = tietze_simplify(p)
    assert t == Presentation.from_words(("a", "b"), (b.inv() * a * b.inv() * a * b,))
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
        p = Presentation.from_words(names, relators)
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
    sigma = Presentation.from_words(
        ("s1", "s3", "a13"),
        (gen("s3") ** 2 * gen("s1") ** -2,
         commutator(gen("s1"), gen("s3")),
         (gen("s1") * gen("a13")) ** 2,
         (gen("s3") * gen("a13")) ** 2))
    assert abelianization(sigma) == ((2, 2), 1)
    centralizer = Presentation.from_words(
        ("F", "G1", "G2"),
        (gen("F") ** 6, commutator(gen("G1"), gen("F")),
         commutator(gen("G2"), gen("F")),
         (gen("G1") * gen("G2")) ** 2 * gen("F") ** -4))
    assert abelianization(centralizer) == ((2, 6), 1)


# ---------------------------------------------------------------------------
# extension presentations


def test_extension_trivial_kernel():
    q = Presentation.from_words(("x", "y"), (gen("x") ** 2, commutator(gen("x"), gen("y"))))
    data = LiftData(lifts={"x": "X", "y": "Y"}, conjugation={},
                    evaluations={0: EMPTY, 1: EMPTY})
    out = extension_presentation(Presentation((), ()), q, data)
    assert same_relator_sets(rename_presentation(q, {"x": "X", "y": "Y"}), out)


def test_extension_trivial_quotient():
    n = Presentation.from_words(("F",), (gen("F") ** 5,))
    out = extension_presentation(n, Presentation((), ()),
                                 LiftData(lifts={}, conjugation={}))
    assert out == n


def test_extension_direct_product_abelianization():
    rng = random.Random(17)
    for _ in range(15):
        relators = []
        for _ in range(rng.randrange(0, 3)):
            letters = tuple((rng.choice("xy"), rng.choice((1, -1)))
                            for _ in range(rng.randrange(1, 6)))
            relators.append(Word(letters))
        q = Presentation.from_words(("x", "y"), relators)
        n = rng.randrange(2, 9)
        kernel = Presentation.from_words(("F",), (gen("F") ** n,))
        data = LiftData(
            lifts={"x": "X", "y": "Y"},
            conjugation={("x", "F"): gen("F"), ("y", "F"): gen("F")},
            evaluations={i: EMPTY for i in range(len(relators))})
        out = extension_presentation(kernel, q, data)
        # Z/n x Q^ab: the relation matrix of <F, x, y | F^n, relators of q>
        expect = Presentation.from_words(("F", "x", "y"), (gen("F") ** n, *relators))
        assert abelianization(out) == abelianization(expect)


def test_extension_symbolic_and_errors():
    kernel = Presentation.from_words(("F",), (gen("F") ** 6,))
    q = Presentation.from_words(("x",), (gen("x") ** 2,))
    data = LiftData(lifts={"x": "G"}, conjugation={("x", "F"): gen("F")},
                    evaluations={0: "e1"})
    out = extension_presentation(kernel, q, data)
    assert len(out.symbolic_relators) == 1
    assert out.symbolic_relators[0].param == "e1"
    with pytest.raises(ValueError):
        abelianization(out)
    with pytest.raises(ValueError):
        tietze_simplify(out)
    with pytest.raises(ValueError):
        extension_presentation(kernel, q, LiftData({"x": "G"}, {}, {0: EMPTY}))
    with pytest.raises(ValueError):
        extension_presentation(kernel, q,
                               LiftData({"x": "G"}, {("x", "F"): gen("F")}, {}))
    with pytest.raises(ValueError):
        extension_presentation(kernel, q,
                               LiftData({"x": "F"}, {("x", "F"): gen("F")},
                                        {0: EMPTY}))
    two_gen_kernel = Presentation(("F", "K"), ())
    with pytest.raises(ValueError):
        extension_presentation(
            two_gen_kernel, q,
            LiftData({"x": "G"},
                     {("x", "F"): gen("F"), ("x", "K"): gen("K")},
                     {0: "e1"}))
