"""reidemeister_schreier_full against the version that rewrote every relator
at every coset (tests/rs_reference.py): the same generators and images,
and a subsequence of its relators whose every dropped relator is a rotation
of an earlier kept one or of its inverse, so Tietze and the abelianization
agree."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from liftmcg.analysis import analyze
from liftmcg.arith_perm import identity_perm
from liftmcg.datasets import enumerate_spherical
from liftmcg.fpgroups import (
    Presentation,
    _inverted,
    abelianization,
    evaluate_perm,
    mod_sphere_presentation,
    psi_images,
    reidemeister_schreier_full,
    tietze_simplify,
)

from by_name import from_words, gen
import rs_reference as reference
from group_reference import closure

# derandomized, so that Tier-1 runs the same examples on every run
TIER1 = settings(derandomize=True, max_examples=40, deadline=None)


def _rotation_key(r):
    """The least rotation of r or of its inverse."""
    return min(w[i:] + w[:i] for w in (r, _inverted(r)) for i in range(len(w)))


def _dropped_are_rotations(kept, every):
    """kept is a subsequence of every, and each relator of every missing from
    kept is a rotation of an earlier kept relator or of its inverse."""
    kept_iter = iter(kept)
    nxt = next(kept_iter, None)
    earlier = set()
    for r in every:
        if r == nxt:
            earlier.add(_rotation_key(r))
            nxt = next(kept_iter, None)
        elif _rotation_key(r) not in earlier:
            return False
    return nxt is None


def _check_against_reference(subgroup, p, psi):
    """psi holds one image per generator of p, in order; the reference reads
    it by generator name."""
    out, images = reidemeister_schreier_full(p, psi, subgroup)
    ref, ref_images = reference.reidemeister_schreier_full(
        p, dict(zip(p.generators, psi)), subgroup)
    assert images == ref_images
    assert out.generators == ref.generators
    assert _dropped_are_rotations(out.relators, ref.relators)
    assert tietze_simplify(out) == tietze_simplify(ref)
    assert abelianization(out) == abelianization(ref)
    return sum(map(len, out.relators)), sum(map(len, ref.relators))


def _on_sphere(k, subgroup):
    return _check_against_reference(subgroup, mod_sphere_presentation(k), psi_images(k))


def test_equal_to_reference_on_every_preimage_of_genus_2_to_5():
    degree = {}    # H1 and H2 of every class, each distinct subgroup once
    for genus in (2, 3, 4, 5):
        for ds in enumerate_spherical(genus):
            rep = analyze(ds)
            for subgroup in (rep.stab.h1, rep.stab.h2):
                if not subgroup.is_symmetric and subgroup.order > 1:
                    degree.setdefault(subgroup, rep.stab.h1.vector.k)
    assert len(degree) == 27
    letters = [_on_sphere(k, subgroup) for subgroup, k in degree.items()]
    # raw letters, new and reference
    assert tuple(map(sum, zip(*letters))) == (19425, 26781)


def test_equal_to_reference_on_powers_with_inverse_letters():
    # every subgroup of Sym(4) generated by two elements, on the sphere
    # relators plus a generator t of order 3, so that its coset action is
    # not its inverse's, and powers u^m with m the order of psi(u), whose u
    # have inverse letters; the last is a rotation of the inverse of the one
    # before
    names = ("s1", "s2", "s3", "t")
    s1, s2, s3, t = map(gen, names)
    psi = (*psi_images(4), evaluate_perm((1, 2), psi_images(4), 4))
    relators = [*mod_sphere_presentation(4).relators]
    for w in (t * (s1 * s2).inv(), t.inv() * s3, t.inv() * s1, s1 * s2.inv(),
              s3.inv() * t.inv() * s2, s2 * t):
        u = from_words(names, (w,)).relators[0]
        m = 1
        while evaluate_perm(u * m, psi, 4) != identity_perm(4):
            m += 1
        relators.append(u * m)
    relators.append(_inverted(relators[-1])[1:] + _inverted(relators[-1])[:1])
    p = Presentation(names, tuple(relators))
    elements = list(permutations(range(4)))
    subgroups = {closure([a, b], 4) for a in elements for b in elements}
    assert len(subgroups) == 30
    for subgroup in subgroups:
        _check_against_reference(subgroup, p, psi)


def test_equal_to_reference_at_degrees_one_and_two():
    # the coset walk composes by itemgetter, which returns a bare entry for
    # one index and takes no zero indices
    t_cubed = Presentation(("t",), ((1, 1, 1),))
    _check_against_reference(closure([], 1), t_cubed, ((0,),))
    s1_squared = Presentation(("s1",), ((1, 1),))
    for subgroup in (closure([], 2), closure([(1, 0)], 2)):
        _check_against_reference(subgroup, s1_squared, psi_images(2))
    out, images = reidemeister_schreier_full(s1_squared, psi_images(2), closure([], 2))
    assert (out.generators, images) == (("x1_s1",), ((0, 1),))
    assert out.relators == ((1,),)


@st.composite
def subgroups(draw):
    """A subgroup of Sym(4..6) generated by one or two random permutations."""
    k = draw(st.integers(4, 6))
    gens = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=2))
    return k, closure([tuple(g) for g in gens], k)


@TIER1
@given(subgroups())
def test_equal_to_reference_on_random_subgroups(case):
    _on_sphere(*case)
