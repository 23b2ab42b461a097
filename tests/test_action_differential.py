"""The readers of the (unit, permutation) action against the versions they
replaced (tests/action_reference.py): the classification read off the
stabilizer, the shape predicates read off the unit -1, the one matcher and
the coset label read off the cached unit multiples must give the results of
the old searches, greedy loops and closed form."""

import random
from functools import lru_cache
from itertools import permutations

from liftmcg.analysis import balanced_superelliptic_shape, doubled_shape
from liftmcg.arith_perm import units_mod
from liftmcg.datasets import (
    DataSet,
    balanced_superelliptic,
    dataset,
    doubled,
    enumerate_spherical,
    equivalence_witness,
    hyperelliptic,
)
from liftmcg.genvec import (
    GeneratingVector,
    classify_irreducible,
    generating_vector,
    liftable_images,
    matching_perm,
    stabilizing_units,
)

import action_reference as reference


@lru_cache(maxsize=None)
def classes(genus):
    return tuple(enumerate_spherical(genus))


def test_classification_on_every_three_point_class_genus_2_to_30():
    # up to genus 12, each class in every order of its entries, which moves
    # the fixed entry and the swapped pair of cases ii_a and ii_b through all
    # positions
    vectors = [(genus, generating_vector(ds)) for genus in range(2, 31)
               for ds in classes(genus) if ds.k == 3]
    assert len(vectors) == 638
    cases = set()
    for genus, v in vectors:
        for c in (permutations(v.c) if genus <= 12 else (v.c,)):
            w = GeneratingVector(v.n, c)
            cls = classify_irreducible(w)
            assert cls == reference.classify_irreducible(w), w
            cases.add(cls.case)
    assert cases == {"i", "ii_a", "ii_b", "iii"}


def test_matching_perm_with_every_stabilizing_unit_genus_2_to_12():
    pairs = 0
    for genus in range(2, 13):
        for ds in classes(genus):
            v = generating_vector(ds)
            for u in stabilizing_units(v):
                assert matching_perm(u, v) == reference.matching_perm(u, v), (u, v)
                pairs += 1
    assert pairs == 873


def test_equivalence_witness_on_scrambled_classes_genus_2_to_8():
    # an image of each class under a random unit, its pairs in random order,
    # both ways round; and the next class, which is not equivalent
    rng = random.Random(31)
    for genus in range(2, 9):
        pool = classes(genus)
        for ds, other in zip(pool, pool[1:]):
            unit = rng.choice(units_mod(ds.n))
            pairs = [((unit * d) % m, m) for d, m in ds.pairs]
            rng.shuffle(pairs)
            scrambled = DataSet(ds.n, 0, tuple(pairs))
            for a, b in ((ds, scrambled), (scrambled, ds), (ds, other)):
                witness = equivalence_witness(a, b)
                assert witness == reference.equivalence_witness(a, b), (a, b)
                assert (witness is None) == (b is other)


def test_shapes_on_classes_family_members_and_random_data_sets():
    members = ([hyperelliptic(g) for g in range(2, 8)]
               + [balanced_superelliptic(n, k) for n in range(2, 8) for k in range(1, 5)]
               + [doubled(ds) for genus in (2, 3, 4) for ds in classes(genus)
                  if ds.k == 3 and (1, ds.n) in ds.pairs])
    rng = random.Random(47)
    drawn = []
    for _ in range(20000):
        # stored pairs, d in [0, m), valid or not, half of them built from
        # (d, m), (-d, m) couples so that both answers occur often
        n = rng.randrange(2, 13)
        orders = [m for m in range(1, n + 1) if n % m == 0]
        pairs = [(rng.randrange(m), m)
                 for m in (rng.choice(orders) for _ in range(rng.randrange(1, 5)))]
        if rng.random() < 0.5:
            pairs += [((-d) % m, m) for d, m in pairs]
            rng.shuffle(pairs)
        drawn.append(DataSet(n, rng.choice((0, 0, 0, 1)), tuple(pairs)))
    classes_2_to_12 = [ds for genus in range(2, 13) for ds in classes(genus)]
    tags = [0, 0]
    for ds in classes_2_to_12 + members + drawn + [dataset(6, 0, ((1, 6), (5, 6)) * 3)]:
        got = (doubled_shape(ds), balanced_superelliptic_shape(ds))
        assert got == (reference.doubled_shape(ds),
                       reference.balanced_superelliptic_shape(ds)), ds
        tags[0] += got[0]
        tags[1] += got[1]
    assert min(tags) > 300


def test_coset_key_on_every_preimage_of_genus_2_to_5():
    # every g in Sym(k) for k <= 6 and 200 seeded random g above
    rng = random.Random(20)
    every = {k: list(permutations(range(k))) for k in range(3, 7)}
    subgroups = 0
    for genus in (2, 3, 4, 5):
        for ds in classes(genus):
            v = generating_vector(ds)
            rep = liftable_images(v, cross_check=False)
            perms = every.get(v.k) or [tuple(rng.sample(range(v.k), v.k)) for _ in range(200)]
            for h in (rep.h1, rep.h2):
                subgroups += 1
                for g in perms:
                    assert h.coset_key(g) == reference.coset_key(h, g), (v, h.units, g)
    assert subgroups == 128
