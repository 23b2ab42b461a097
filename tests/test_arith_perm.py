import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_reference import perm_closure
from liftmcg.arith_perm import (
    compose,
    identity_perm,
    inverse,
    perm_from_cycles,
    smith_normal_form,
    transposition,
    units_mod,
)


def euler_phi(n):
    # independent of units_mod: multiplicative formula over prime factors
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def test_units_mod_examples():
    assert units_mod(2) == [1]
    assert units_mod(7) == [1, 2, 3, 4, 5, 6]
    assert units_mod(12) == [1, 5, 7, 11]
    assert units_mod(1) == [0]


def test_units_mod_size_and_closure():
    for n in range(2, 201):
        units = units_mod(n)
        assert len(units) == euler_phi(n)
        members = set(units)
        assert all(u * v % n in members for u in units for v in units)


def test_units_mod_rejects_nonpositive():
    with pytest.raises(ValueError):
        units_mod(0)


# ---------------------------------------------------------------------------
# permutations


def test_compose_applies_right_factor_first():
    # (1,2) after (2,3): 1->1->2, 2->3->3, 3->2->1
    p = transposition(1, 2, 3)
    q = transposition(2, 3, 3)
    assert compose(p, q) == perm_from_cycles([(1, 2, 3)], 3)


def test_inverse():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randrange(1, 9)
        p = tuple(rng.sample(range(k), k))
        assert compose(p, inverse(p)) == identity_perm(k)
        assert compose(inverse(p), p) == identity_perm(k)


def test_perm_closure_examples():
    assert perm_closure([transposition(1, 2, 2)], 2) == ((0, 1), (1, 0))
    # hand oracle: <(1,3),(2,4),(1,2)(3,4)> is dihedral of order 8
    gens = [transposition(1, 3, 4), transposition(2, 4, 4),
            perm_from_cycles([(1, 2), (3, 4)], 4)]
    assert len(perm_closure(gens, 4)) == 8
    adjacents = [transposition(i, i + 1, 6) for i in range(1, 6)]
    assert len(perm_closure(adjacents, 6)) == 720


def test_perm_closure_properties():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randrange(2, 7)
        gens = [tuple(rng.sample(range(k), k)) for _ in range(rng.randrange(1, 4))]
        elements = perm_closure(gens, k)
        assert type(elements) is tuple
        assert factorial(k) % len(elements) == 0
        group = set(elements)
        assert len(group) == len(elements)
        assert all(g in group for g in gens)
        assert all(compose(g, h) in group for g in gens for h in gens)
        assert list(elements) == sorted(elements)


# ---------------------------------------------------------------------------
# Smith normal form


def _snf(mat):
    """smith_normal_form of a dense matrix with at least one row."""
    return smith_normal_form([{j: v for j, v in enumerate(r) if v} for r in mat], len(mat[0]))


def test_snf_examples():
    assert _snf([[1, 0], [0, 1]]) == ((1, 1), 0)
    assert _snf([[2, 0], [0, 4]]) == ((2, 4), 0)
    # row/column reduction oracle, worked by hand
    assert _snf([[2, -2, 0], [2, 0, 2], [0, 2, 2]]) == ((2, 2), 1)


def test_snf_edges():
    assert smith_normal_form([], 3) == ((), 3)
    assert smith_normal_form([{}, {0: 0, 1: 0}], 2) == ((), 2)
    assert _snf([[0, 0], [0, 0]]) == ((), 2)
    rows = [{0: 1}, {2: 1}]
    assert smith_normal_form(rows, 3) == ((1, 1), 1)
    assert rows == [{0: 1}, {2: 1}]  # the input is not modified
    for bad in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            smith_normal_form([{0: 1}, bad], 2)


def _apply_random_unimodular(rows, rng, steps=12):
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0])
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0 and nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            c = rng.randrange(-3, 4)
            for t in range(ncols):
                a[i][t] += c * a[j][t]
        elif kind == 1 and ncols > 1:
            i, j = rng.sample(range(ncols), 2)
            c = rng.randrange(-3, 4)
            for row in a:
                row[i] += c * row[j]
        elif kind == 2 and nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            a[i], a[j] = a[j], a[i]
        else:
            i = rng.randrange(ncols)
            for row in a:
                row[i] = -row[i]
    return a


def test_snf_invariant_under_unimodular_ops():
    rng = random.Random(42)
    for _ in range(60):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)]
        expected = _snf(rows)
        assert _snf(_apply_random_unimodular(rows, rng)) == expected


def test_snf_divisibility_chain():
    rng = random.Random(99)
    for _ in range(40):
        rows = [[rng.randrange(-20, 21) for _ in range(4)] for _ in range(4)]
        factors, free_rank = _snf(rows)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert free_rank == 4 - len(factors)


# independent oracle: d_1 * ... * d_i is the gcd of the i x i minors


def _det(m):
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for t in range(n):
        p = next((i for i in range(t, n) if a[i][t]), None)
        if p is None:
            return 0
        if p != t:
            a[t], a[p] = a[p], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            for j in range(t, n):
                a[i][j] -= f * a[t][j]
    return int(det)


def _snf_by_minors(rows, ncols):
    factors, prev = [], 1
    for size in range(1, min(len(rows), ncols) + 1):
        g = 0
        for ri in combinations(range(len(rows)), size):
            for ci in combinations(range(ncols), size):
                g = gcd(g, _det([[rows[r][c] for c in ci] for r in ri]))
                if g == prev:  # prev divides every size x size minor
                    break
            if g == prev:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors), ncols - len(factors)


def _mostly_units(rng, nrows, ncols):
    def entry():
        r = rng.random()
        if r < 0.5:
            return 0
        if r < 0.9:
            return rng.choice((1, -1))
        return rng.randrange(-4, 5)
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _no_units(rng, nrows, ncols):
    # no +-1 entry, so no unit pivot is available at the start
    return [[rng.choice((0, 0, 2, -2, 3, 4, -6, 9)) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("rows, expected", [
    # a zero column and an all-zero row
    ([[1, 0, 2], [0, 0, 0], [3, 0, 4]], ((1, 2), 1)),
    # duplicate rows
    ([[1, -1, 0], [1, -1, 0], [0, 2, 2]], ((1, 2), 1)),
    # the second row goes to zero when the first is eliminated
    ([[1, 2], [2, 4], [0, 3]], ((1, 3), 0)),
    # pivoting on the +-1 leaves only non-unit entries
    ([[1, 1], [1, -1]], ((1, 2), 0)),
    ([[1, 2, 2], [1, 0, 4]], ((1, 2), 1)),
    # no unit entry: coprime, non-dividing and rank-deficient diagonals
    ([[2, 0], [0, 3]], ((1, 6), 0)),
    ([[6, 0], [0, 4]], ((2, 12), 0)),
    ([[4, 6], [6, 9]], ((1,), 1)),
    # a full-pivot dense loop let these entries grow past 4,300 digits
    ([[-163, 70, 29, -145, -123, 149, 169],
      [191, -157, -180, -136, -181, -45, 120],
      [125, 191, -164, 98, -67, 107, 75],
      [35, -39, -76, -80, -186, 160, -172],
      [55, 131, -69, 17, -84, 156, 15],
      [2, -51, 58, 53, 0, -101, -87]], ((1,) * 6, 1)),
])
def test_snf_sparse_elimination_cases(rows, expected):
    assert _snf_by_minors(rows, len(rows[0])) == expected
    assert _snf(rows) == expected


def test_snf_matches_determinantal_divisors():
    rng = random.Random(2024)
    shapes = [(rng.randrange(1, 6), rng.randrange(1, 7)) for _ in range(150)]
    shapes += [(rng.randrange(6, 8), rng.randrange(6, 9)) for _ in range(8)]
    for entries in (_mostly_units, _no_units):
        for nrows, ncols in shapes:
            rows = entries(rng, nrows, ncols)
            assert _snf(rows) == _snf_by_minors(rows, ncols), rows


@st.composite
def small_matrices(draw):
    """Integer matrices of 1-4 rows and 1-4 columns, entries in [-6, 6]."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


# derandomized, so that Tier-1 runs the same examples on every run
@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_matches_determinantal_divisors_generated(rows):
    assert _snf(rows) == _snf_by_minors(rows, len(rows[0]))
