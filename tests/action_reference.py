"""The readers of the (unit, permutation) action as they stood before they
were read off the vector's stabilizer, kept verbatim as test oracles: the
3-branch-point classification by its own search over the units, the family
shape predicates by pairing off couples, the greedy position matchers of
matching_perm and equivalence_witness, and the right-coset label of a
vector stabilizer in its closed form.  Each must agree with its counterpart
in liftmcg on every input the tests give."""

from __future__ import annotations

from collections import Counter

from liftmcg.arith_perm import OutOfScopeError, Perm, units_mod
from liftmcg.datasets import DataSet, require_modulus
from liftmcg.genvec import (
    GeneratingVector,
    IrreducibleClassification,
    VectorStabilizer,
    cyclic,
    direct_product,
    require_genus,
    semidirect,
    trivial_group,
)


def classify_irreducible(v: GeneratingVector) -> IrreducibleClassification:
    g = require_genus(v)
    if v.k != 3:
        raise OutOfScopeError(f"classification needs exactly 3 branch points, got {v.k}")
    n, c = v.n, v.c

    for u in units_mod(n):
        if pow(u, 3, n) == 1 and c == (c[0], u * c[0] % n, u * u * c[0] % n):
            if u == 1:
                continue  # excluded for genus >= 2 (forces n = 3, genus 1)
            return IrreducibleClassification(
                case="i", twist=u, lmod=cyclic(3), centralizer=cyclic(n),
                normalizer=semidirect(n, 3, u), genus=g)

    # fixed position p, swapped pair (q, r), scanned in the three orderings
    for p, q, r in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        for u in units_mod(n):
            if pow(u, 2, n) != 1:
                continue
            if u * c[p] % n == c[p] and u * c[q] % n == c[r]:
                if u == 1:
                    desc = direct_product(n, 2)
                    return IrreducibleClassification(
                        case="ii_a", twist=1, lmod=cyclic(2), centralizer=desc,
                        normalizer=desc, genus=g,
                        notes=("normalizer type asserted, not derived",))
                return IrreducibleClassification(
                    case="ii_b", twist=u, lmod=cyclic(2), centralizer=cyclic(n),
                    normalizer=semidirect(n, 2, u), genus=g)

    return IrreducibleClassification(
        case="iii", twist=None, lmod=trivial_group(), centralizer=cyclic(n),
        normalizer=cyclic(n), genus=g)


def balanced_superelliptic_shape(ds: DataSet) -> bool:
    if ds.k % 2 or ds.g0 != 0:
        return False
    half = ds.k // 2
    counts = Counter(ds.pairs)
    if ds.n == 2:
        return counts == Counter({(1, 2): ds.k})
    return counts == Counter({(1, ds.n): half, (ds.n - 1, ds.n): half})


def doubled_shape(ds: DataSet) -> bool:
    """Two (d, m), (-d, m) couples, the glued-rotation shape."""
    if ds.k != 4 or ds.g0 != 0:
        return False
    items = list(ds.pairs)
    couples = 0
    while items:
        d, m = items.pop(0)
        mate = ((m - d) % m, m)
        if mate not in items:
            return False
        items.remove(mate)
        couples += 1
    return couples == 2


def matching_perm(unit: int, v: GeneratingVector) -> Perm:
    """The pinned permutation paired with a stabilizing unit: positions are
    matched greedily by ascending index (first unmatched j with l*c_j = c_i)."""
    n, c, k = v.n, v.c, v.k
    taken = [False] * k
    sigma = [0] * k
    for i in range(k):
        for j in range(k):
            if not taken[j] and unit * c[j] % n == c[i]:
                taken[j] = True
                sigma[j] = i
                break
        else:
            raise ValueError(f"{unit} does not stabilize {v}")
    return tuple(sigma)


def equivalence_witness(d1: DataSet, d2: DataSet) -> tuple[int, Perm] | None:
    """A pair (unit, sigma) with (unit*d_i mod n_i, n_i) = d2.pairs[sigma[i]], or None."""
    if (d1.n, d1.g0, d1.k) != (d2.n, d2.g0, d2.k):
        return None
    require_modulus(d1.n)
    target = list(d2.pairs)
    for unit in units_mod(d1.n):
        scaled = [((unit * d) % m, m) for d, m in d1.pairs]
        if sorted(scaled) != sorted(target):
            continue
        used = [False] * len(target)
        sigma = [0] * len(target)
        for i, pair in enumerate(scaled):
            for j, other in enumerate(target):
                if not used[j] and other == pair:
                    used[j] = True
                    sigma[i] = j
                    break
        return unit, tuple(sigma)
    return None


def coset_key(h: VectorStabilizer, g: Perm) -> tuple[int, ...]:
    """The label of the right coset H*g: the least unit multiple of the
    entries read through g."""
    n, c = h.vector.n, h.vector.c
    return min(tuple(u * c[x] % n for x in g) for u in h.units)
