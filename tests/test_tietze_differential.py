"""Tietze simplification against the engine it replaced
(tests/tietze_reference.py).  The engine alone, fpgroups._tietze_engine, must
give presentations equal to the reference's, letter for letter, on every
input; tietze_simplify, the union-find _identify_short_generators and then the
engine, must give the same on every preimage the analysis meets."""

import hashlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftmcg.analysis import _subgroup_presentation
from liftmcg.arith_perm import CapacityError
from liftmcg.datasets import enumerate_spherical
from liftmcg.fpgroups import (
    MAX_TIETZE_GENERATORS,
    Presentation,
    SymbolicRelator,
    _identify_short_generators,
    _tietze_engine,
    abelianization,
    tietze_simplify,
)
from liftmcg.genvec import generating_vector, liftable_images

from by_name import Word, from_words, gen
import tietze_reference as reference
from test_analysis import _raw_presentation

# derandomized, so that Tier-1 runs the same examples on every run; the
# profile "tietze-5000" of tests/conftest.py raises the count to 5,000
TIER1 = settings(derandomize=True, deadline=None,
                 max_examples=max(300, settings.default.max_examples))

NAMES = ("a", "b", "c", "d", "e")


def distinct_preimages(genera):
    """{subgroup: degree} of H1 and H2 of every class of the given genera,
    each distinct subgroup once, in enumeration order."""
    degree = {}
    for genus in genera:
        for ds in enumerate_spherical(genus):
            vector = generating_vector(ds)
            images = liftable_images(vector)
            for subgroup in (images.h1, images.h2):
                degree.setdefault(subgroup, vector.k)
    return degree


def assert_equal_on_every_preimage(genera, count):
    """tietze_simplify equals the reference engine on each of the count
    distinct preimages of the given genera; a CI step runs it at genus 8."""
    degree = distinct_preimages(genera)
    assert len(degree) == count, len(degree)
    for subgroup, k in degree.items():
        raw = _raw_presentation(k, subgroup)
        assert tietze_simplify(raw) == reference.tietze_simplify(raw), subgroup


def test_analysis_path_equal_on_every_preimage_of_genus_2_to_7():
    degree = distinct_preimages((2, 3, 4, 5, 6, 7))
    assert len(degree) == 66
    for subgroup, k in degree.items():
        raw = _raw_presentation(k, subgroup)
        q = tietze_simplify(raw)
        assert q == reference.tietze_simplify(raw), subgroup
        if not subgroup.is_symmetric and subgroup.order > 1:
            assert _subgroup_presentation(subgroup)[0] == q, subgroup


# The count of distinct H1 and H2 of genus 9-10 and the sha256 over
# tietze_simplify of their raw presentations, one repr((generators,
# relators)) line each in enumeration order.  The reference engine is too
# slow there, so a CI step recomputes tietze_digest((9, 10)) against this
# pin instead of Tier-1.
GENUS_9_TO_10_TIETZE = (104, "49793bdd212851c4012978e1dea4c8636e761d8688bd9b425e157ed9c4cb5488")


def tietze_digest(genera):
    digest = hashlib.sha256()
    degree = distinct_preimages(genera)
    for subgroup, k in degree.items():
        q = tietze_simplify(_raw_presentation(k, subgroup))
        digest.update(repr((q.generators, q.relators)).encode() + b"\n")
    return len(degree), digest.hexdigest()


@st.composite
def presentations(draw):
    """Random relators plus copies of them that are equal up to rotation and
    inversion, conjugated (so not cyclically reduced), or empty.  About half
    of the random relators have one or two letters, so that chains of
    eliminations by short relators, and short duplicates, are common."""
    names = NAMES[:draw(st.integers(2, len(NAMES)))]
    letters = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    words = st.one_of(st.lists(letters, min_size=1, max_size=2),
                      st.lists(letters, min_size=1, max_size=8)).map(lambda w: Word(tuple(w)))
    relators = draw(st.lists(words, min_size=1, max_size=8))
    for kind in draw(st.lists(st.sampled_from(
            ("copy", "rotate", "invert", "conjugate", "empty")), max_size=8)):
        if kind == "empty" or not relators:
            relators.append(Word())
            continue
        w = draw(st.sampled_from(relators))
        if kind == "rotate":
            i = draw(st.integers(0, len(w)))
            w = Word(w.letters[i:] + w.letters[:i])
        elif kind == "invert":
            w = w.inv()
        elif kind == "conjugate":
            c = draw(words)
            w = c * w * c.inv()
        relators.insert(draw(st.integers(0, len(relators))), w)
    return from_words(names, relators)


a, b, c, d, e = map(gen, NAMES)

# Three inputs on which the union-find, which renames in rounds instead of
# replaying the engine's steps, changes what the engine then gives; both
# results are pinned in test_rounds_before_the_engine.
ROUNDS = (
    # The cyclic reduction of the first relator is b, so the engine drops the
    # second at entry as its duplicate, while the union-find makes b trivial.
    from_words(NAMES[:2], (b.inv() * a.inv() * b * a * b, b)),
    Presentation(tuple("abcdef"), (
        (2, -1), (-3, -6, -6, 4), (-3, -4), (-5, 4, 2, 1, 1), (-1,), (2, -1), (-1, 6, -2),
        (-4, 6, 6, 3), (4, 3, 1, 2, 3), (-5, -3), (-6, 5, -6, 2, 4, 6))),
    Presentation(tuple("abcd"), (
        (-2, -3, -3, -1, -1, -1, -2, -2), (-2, -3, 1, 2, 1), (-2, -1, 3), (1, -2), (-3,),
        (1, 2, 1, -2, -3), (2, -1, -1, 3, -2), (), (2, -1, -3, -1, -2), (-1, -3, 2))),
)


@TIER1
@given(presentations())
# b = e*a^-1*e^-1 is not cyclically reduced, so b^2 cancels between the copies
@example(from_words(NAMES, (a * b * b * e.inv() * d, a * e.inv() * b * e,
                                         a.inv() * c * b * d * c.inv())))
# eliminating b from a*b*a^-1 leaves a^-1*a before reduction
@example(from_words(NAMES[:3], (a * b * a.inv(), a.inv() * b.inv() * c * c)))
# The three ROUNDS presentations, where the union-find's rounds, the first
# phase of tietze_simplify, give another result than the engine's steps.
@example(ROUNDS[0])
@example(ROUNDS[1])
@example(ROUNDS[2])
# The next two were the seams of the engine's former rename phase.  Renaming
# c to a^-1 makes the second relator a rotation of the first, which is
# dropped when the longer relators are bucketed: <a | >.
@example(Presentation(tuple("abc"), ((-2, -1, -1), (3, -1, -2), (3, 1))))
# The step by a*b^-2 leaves d*b, whose step came after the rename phase:
# <b, c | >.
@example(Presentation(tuple("abcd"), ((1, -2, -2), (4, -2, 1))))
# A class of renamed generators is renamed down a chain while its long
# holders wait, which the five-name strategy seldom draws: w1, w2, w3 become
# x3, then x3 becomes x2, rewriting each w_i*z*w_i*z*w_i, and x2
# becomes x1, which they then hold.  <z, x1 | x1*z*x1*z*x1 = 1>.
@example(Presentation(("z", "x1", "x2", "x3", "w1", "w2", "w3"), (
    (5, -4), (6, -4), (7, -4), (4, -3), (3, -2), (5, 1, 5, 1, 5), (6, 1, 6, 1, 6),
    (7, 1, 7, 1, 7))))
# The next three sat at the boundary of the rename phase.  The square a*a
# heads the queue but no generator occurs once in it, so it is no step: c
# becomes b, and <a | a^2 = 1> is left, not <1>.
@example(from_words(NAMES[:3], (a * a, b * c.inv(), c * a * c.inv() * b)))
# c*b*c^-1 was queued in the phase (its cyclic reduction is b) but is 3
# letters long, so the phase ended before it and the step is by a*b*a, which
# comes first: b = a^-2, leaving <a, c | c*a^-2*c^-1 = 1>, not <a, c | a^2 = 1>.
@example(from_words(NAMES[:3], (a * b * a, c * b * c.inv())))
# b, the later generator, is inverted in a*b^-1, so b becomes a (not a^-1):
# <a | a^2 = 1>, not <a | >.
@example(from_words(NAMES[:2], (a * b.inv(), a * b)))
def test_equal_on_generated_presentations(p):
    assert _tietze_engine(p.generators, p.relators) == reference.tietze_simplify(p)


def test_rounds_before_the_engine():
    # what tietze_simplify returns where its union-find and the engine alone differ
    engine = ["<a, b | b^-1*a^-1*b*a*b = 1>", "<c | c^2 = 1, c^3 = 1>", "<a, d | a^2 = 1>"]
    public = ["<a | >", "<1>", "<a, d | a^6 = 1, a^2 = 1>"]
    for p, alone, whole in zip(ROUNDS, engine, public):
        assert str(_tietze_engine(p.generators, p.relators)) == alone
        assert str(reference.tietze_simplify(p)) == alone
        assert str(tietze_simplify(p)) == whole
        assert abelianization(tietze_simplify(p)) == abelianization(p)


def _cyclic_reduction(r):
    i, j = 0, len(r)
    while j - i >= 2 and r[i] == -r[j - 1]:
        i += 1
        j -= 1
    return r[i:j]


@TIER1
@given(presentations())
def test_identify_short_generators_keeps_the_abelianization(p):
    # both apply only Tietze moves, so this holds on every input
    n = len(p.generators)
    rels, gone = _identify_short_generators(n, p.relators)
    assert gone == {-x for x in gone} and gone <= set(range(-n, n + 1)) - {0}
    number = {}
    for j, g in enumerate((g for g in range(1, n + 1) if g not in gone), start=1):
        number[g], number[-g] = j, -j
    q = Presentation(tuple(p.generators[g - 1] for g in number if g > 0),
                     tuple(tuple(map(number.__getitem__, r)) for r in rels if r))
    assert abelianization(p) == abelianization(q) == abelianization(tietze_simplify(p))
    for r in map(_cyclic_reduction, q.relators):
        assert len(r) > 2 or len(r) == 2 and r[0] == r[1], r


def test_equal_on_letters_past_the_surrogates_and_the_basic_plane():
    # generators 27648-28671 are written with surrogate code points, and
    # generators past 32767 with code points past U+FFFF
    names = tuple(f"x{i}" for i in range(1, 40001))
    x = {i: gen(f"x{i}") for i in (27647, 27648, 27649, 28671, 28672, 32767, 32768, 40000)}
    p = from_words(names, (
        x[27648] * x[28671] * x[27648].inv() * x[28671].inv(),
        x[27647] * x[27648] * x[32768],
        x[40000] * x[27649] * x[40000] * x[28672].inv(),
        x[32767] ** 3 * x[28671] ** -2,
        x[28672] * x[32767] * x[28672].inv()))
    assert tietze_simplify(p) == reference.tietze_simplify(p)


def test_refuses_past_the_encoding_cap(monkeypatch):
    # every refusal comes before the union-find, tietze_simplify's first phase
    from liftmcg import fpgroups

    monkeypatch.setattr(fpgroups, "_identify_short_generators",
                        lambda *args: pytest.fail("the union-find ran"))
    assert 2 * MAX_TIETZE_GENERATORS + 1 == sys.maxunicode
    p = Presentation(tuple(f"x{i}" for i in range(MAX_TIETZE_GENERATORS + 1)), ((1,),))
    with pytest.raises(CapacityError, match="557056 generators exceed the Tietze cap"):
        tietze_simplify(p)
    with pytest.raises(ValueError, match="symbolic relators"):
        tietze_simplify(Presentation(("a",), (), (SymbolicRelator((1,), 1, "e"),)))
    with pytest.raises(TypeError, match="must be a Presentation"):
        tietze_simplify(((1,),))
