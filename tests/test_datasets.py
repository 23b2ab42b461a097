import random
import time
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest

from liftmcg.arith_perm import CapacityError, units_mod
from liftmcg.datasets import (
    COND_I,
    COND_II,
    COND_III,
    COND_IV,
    RH_NON_INTEGER,
    SCOPE_GENUS,
    DataSetParseError,
    are_equivalent,
    balanced_superelliptic,
    canonical_form,
    dataset,
    doubled,
    enumerate_spherical,
    equivalence_witness,
    hyperelliptic,
    make_family,
    parse_dataset,
    render_dataset,
    validate,
)


def test_validate_table_row():
    report = validate(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))
    assert report.ok and report.genus == 3 and not report.flags


def test_validate_hyperelliptic():
    report = validate(dataset(2, 0, ((1, 2),) * 6))
    assert report.ok and report.genus == 2


def test_validate_degree6_four_pairs():
    report = validate(parse_dataset("(6,0;(1,2),(1,2),(1,6),(5,6))"))
    assert report.ok and report.genus == 3


def test_validate_failure_labels():
    report = validate(parse_dataset("(4,0;(1,2),(1,4))"))
    assert not report.ok
    assert set(report.violations) == {COND_II, COND_IV, RH_NON_INTEGER}
    assert report.genus is None


def test_validate_cond_i_and_iii():
    assert COND_I in validate(dataset(6, 0, ((1, 4), (1, 6), (1, 6)))).violations
    assert COND_III in validate(dataset(8, 0, ((1, 4), (1, 4), (1, 2)))).violations


def test_scope_flag_genus_below_two():
    report = validate(parse_dataset("(6,0;(1,2),(1,3),(1,6))"))
    assert report.ok and report.genus == 1 and report.flags == (SCOPE_GENUS,)


def test_dataset_constructor_errors():
    with pytest.raises(ValueError):
        dataset(1, 0, ((1, 2),))
    with pytest.raises(ValueError):
        dataset(4, 0, ((1, 0),))
    with pytest.raises(ValueError):
        dataset(4, 0, ())
    # k = 0 with positive quotient genus is syntactically fine
    report = validate(dataset(2, 2, ()))
    assert report.ok and report.genus == 3


def test_dataset_normalization():
    ds = dataset(6, 0, ((-1, 6), (1, 2), (1, 2), (-1, 3)))
    assert ds.pairs == ((1, 2), (1, 2), (2, 3), (5, 6))


# ---------------------------------------------------------------------------
# equivalence and canonical forms


def test_equivalence_reorder_only():
    d1 = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    d2 = dataset(7, 0, ((2, 7), (4, 7), (1, 7)))
    witness = equivalence_witness(d1, d2)
    assert witness is not None and witness[0] == 1


def test_equivalence_by_unit():
    d1 = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    d2 = parse_dataset("(7,0;(3,7),(5,7),(6,7))")
    witness = equivalence_witness(d1, d2)
    assert witness is not None and witness[0] == 3


def test_inequivalent():
    d1 = parse_dataset("(7,0;(1,7),(1,7),(5,7))")
    d2 = parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    assert not are_equivalent(d1, d2)


def test_witness_transforms_pairs():
    rng = random.Random(19)
    pool = enumerate_spherical(2) + enumerate_spherical(3)
    for ds in pool:
        units = units_mod(ds.n)
        unit = rng.choice(units)
        scrambled = dataset(ds.n, 0, [((unit * d) % m, m) for d, m in ds.pairs])
        witness = equivalence_witness(ds, scrambled)
        assert witness is not None
        u, sigma = witness
        for i, (d, m) in enumerate(ds.pairs):
            assert scrambled.pairs[sigma[i]] == ((u * d) % m, m)


def test_canonical_form_examples():
    assert canonical_form(parse_dataset("(7,0;(3,7),(5,7),(6,7))")) == \
        parse_dataset("(7,0;(1,7),(2,7),(4,7))")
    hyp = hyperelliptic(2)
    assert canonical_form(hyp) == hyp
    ds = parse_dataset("(8,0;(1,4),(1,8),(5,8))")
    assert canonical_form(ds) == ds


def test_canonical_form_and_equivalence_bound_the_modulus():
    big = parse_dataset("(100000007,0;(1,100000007),(1,100000007),(100000005,100000007))")
    for call in (canonical_form, lambda ds: equivalence_witness(ds, ds),
                 lambda ds: are_equivalent(ds, ds)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="modulus 100000007 exceeds the cap of 122"):
            call(big)
        assert time.perf_counter() - start < 2.0
    ds = parse_dataset("(122,0;(1,2),(1,61),(59,122))")  # genus 30, the largest modulus
    canon = canonical_form(ds)
    assert canonical_form(canon) == canon and are_equivalent(ds, canon)


def test_canonical_form_idempotent_and_sound():
    for ds in enumerate_spherical(2) + enumerate_spherical(3):
        assert canonical_form(ds) == ds  # enumeration emits canonical forms
        for unit in units_mod(ds.n):
            moved = dataset(ds.n, 0, [((unit * d) % m, m) for d, m in ds.pairs])
            assert canonical_form(moved) == ds


def test_canonical_iff_equivalent():
    pool = enumerate_spherical(2) + enumerate_spherical(3)
    for d1 in pool:
        for d2 in pool:
            assert (canonical_form(d1) == canonical_form(d2)) == are_equivalent(d1, d2)


# ---------------------------------------------------------------------------
# enumeration and its independent oracle


def oracle_class_count(genus, n):
    """Count equivalence classes by brute force over all residue tuples with
    zero sum, generating entries, and the right branch genus; classes are
    taken under unit multiplication and permutation."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    classes = set()
    k_max = (4 * genus - 4) // n + 4
    for k in range(3, k_max + 1):
        for prefix in product(range(1, n), repeat=k - 1):
            last = -sum(prefix) % n
            if last == 0:
                continue
            tup = prefix + (last,)
            if reduce(gcd, tup, n) != 1:
                continue
            total = sum(Fraction(m - 1, m) for m in (n // gcd(x, n) for x in tup))
            if 1 + Fraction(n, 2) * (total - 2) != genus:
                continue
            classes.add(min(tuple(sorted(u * x % n for x in tup)) for u in units))
    return len(classes)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_enumeration_matches_oracle(genus):
    found = enumerate_spherical(genus)
    by_degree = {}
    for ds in found:
        by_degree[ds.n] = by_degree.get(ds.n, 0) + 1
    for n in range(2, 4 * genus + 3):
        assert by_degree.get(n, 0) == oracle_class_count(genus, n), f"n={n}"


@pytest.mark.parametrize("genus", [2, 3])
def test_no_classes_beyond_degree_bound(genus):
    for n in range(4 * genus + 3, 8 * genus + 9):
        assert oracle_class_count(genus, n) == 0, f"n={n}"


def test_enumerate_genus2():
    found = enumerate_spherical(2)
    assert len(found) == 8
    assert hyperelliptic(2) in found
    assert found == sorted(found, key=lambda ds: (ds.n, tuple((m, d) for d, m in ds.pairs)))


def test_enumerate_genus3_contains_irreducible_table():
    from liftmcg.analysis import TABLE_GENUS3_INPUTS

    found = set(enumerate_spherical(3))
    for text in TABLE_GENUS3_INPUTS:
        assert canonical_form(parse_dataset(text)) in found


@pytest.mark.parametrize("genus", [2, 3])
def test_enumerated_sets_are_valid(genus):
    for ds in enumerate_spherical(genus):
        report = validate(ds)
        assert report.ok and report.genus == genus
        assert sum((ds.n // m) * d for d, m in ds.pairs) % ds.n == 0


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_spherical(1)
    with pytest.raises(ValueError):
        enumerate_spherical(31)


# ---------------------------------------------------------------------------
# named families


def test_hyperelliptic_family():
    ds = hyperelliptic(2)
    assert ds == parse_dataset("(2,0;(1,2)_6)")
    assert validate(ds).genus == 2
    with pytest.raises(ValueError):
        hyperelliptic(1)


def test_balanced_superelliptic_family():
    ds = balanced_superelliptic(3, 1)
    assert ds == dataset(3, 0, ((1, 3), (2, 3), (1, 3), (2, 3)))
    assert validate(ds).genus == 2
    assert validate(balanced_superelliptic(3, 2)).genus == 4
    with pytest.raises(ValueError, match=r"got n=1, k=1"):
        balanced_superelliptic(1, 1)


def test_doubled_family():
    base = parse_dataset("(6,0;(1,2),(2,3),(1,6))")
    ds = doubled(base)
    assert ds == parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")
    assert validate(ds).genus == 2
    # doubling a genus-3 rotation gives the genus-6 class
    assert validate(doubled(parse_dataset("(7,0;(1,7),(2,7),(4,7))"))).genus == 6
    with pytest.raises(ValueError):
        doubled(dataset(7, 0, ((2, 7), (2, 7), (3, 7))))  # no (1,7) entry
    with pytest.raises(ValueError):
        doubled(hyperelliptic(2))  # not a 3-pair base


def test_make_family_dispatch():
    assert make_family("hyperelliptic", 2) == hyperelliptic(2)
    assert make_family("balanced_superelliptic", n=3, k=1) == balanced_superelliptic(3, 1)
    with pytest.raises(ValueError):
        make_family("nope")


# ---------------------------------------------------------------------------
# text grammar


def test_parse_render_roundtrip_enumerated():
    for genus in (2, 3, 4):
        for ds in enumerate_spherical(genus):
            assert parse_dataset(render_dataset(ds)) == ds


def test_parse_repetition_and_negatives():
    assert parse_dataset("(2,0;(1,2)_6)") == hyperelliptic(2)
    assert parse_dataset("(6,0;(-1,6),(1,2)_2,(-1,3))") == \
        dataset(6, 0, ((5, 6), (1, 2), (1, 2), (2, 3)))
    assert parse_dataset(" ( 6 , 0 ; ( 1 , 2 ) _ 2 , (1,3), (2,3) ) ") == \
        parse_dataset("(6,0;(1,2)_2,(1,3),(2,3))")


def test_render_uses_repetition_suffix():
    assert render_dataset(hyperelliptic(2)) == "(2,0;(1,2)_6)"
    assert render_dataset(parse_dataset("(7,0;(1,7),(2,7),(4,7))")) == \
        "(7,0;(1,7),(2,7),(4,7))"


def test_parse_errors_carry_position():
    with pytest.raises(DataSetParseError) as err:
        parse_dataset("(4,0;(1,2),(1,4)")
    assert err.value.line == 1 and err.value.col == 17
    with pytest.raises(DataSetParseError):
        parse_dataset("(4;0)")
    with pytest.raises(DataSetParseError):
        parse_dataset("(4,0;(1,2)) trailing")
