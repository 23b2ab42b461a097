"""Generating vectors of spherical cyclic actions and the (unit, permutation)
action on them: stabilizers, the liftable/centralizer images in the symmetric
group, the half-twist generating data, and the 3-branch-point classification.

The liftable image H1 is the set of sigma with act(u, sigma, v) = v for some
unit u, and the centralizer image H2 the same set with u = 1; both are kept
as VectorStabilizer, read off the vector without storing any element.  The
unit's permutation is arith_perm.matching of the scaled entries onto the
entries, and the 3-branch-point classification is read off H2 and H1's
units.  The brute-force stabilizer is an oracle only: liftable_images
compares with it when asked (cross_check=True), never by default.

The action convention: ``act(l, sigma, v)`` puts ``l * c_j`` at position
``sigma(j)``, i.e. position i of the result is ``l * c_{sigma^-1(i)}``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations as _all_perms
from math import factorial, gcd
from operator import itemgetter
from types import MappingProxyType

from .arith_perm import (
    CapacityError,
    InternalInvariantError,
    OutOfScopeError,
    Perm,
    compose,
    cycles_of,
    identity_perm,
    inverse,
    matching,
    transposition,
    units_mod,
)
from .datasets import MAX_BRANCH_POINTS, DataSet, require_modulus, require_valid, riemann_hurwitz
from .fpgroups import EMPTY, Word, gen, psi_image, word

MAX_BRUTE_DEGREE = 10


@dataclass(frozen=True)
class GeneratingVector:
    """Residues (c_1, ..., c_k) mod n, each != 0, summing to 0 and generating Z_n;
    n <= MAX_MODULUS (else CapacityError), as analysis loops over the residues."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        require_modulus(self.n)
        if not self.c:
            raise ValueError("need at least one entry")
        if any(not 0 < x < self.n for x in self.c):
            raise ValueError(f"entries must be nonzero residues mod {self.n}: {self.c}")
        if sum(self.c) % self.n != 0:
            raise ValueError(f"entries must sum to 0 mod {self.n}: {self.c}")
        if gcd(self.n, *self.c) != 1:
            raise ValueError(f"entries must generate the residues mod {self.n}: {self.c}")

    @property
    def k(self) -> int:
        return len(self.c)

    def orders(self) -> tuple[int, ...]:
        return tuple(self.n // gcd(x, self.n) for x in self.c)

    def genus(self) -> int:
        """Riemann-Hurwitz with g0 = 0; an integer, since the entries sum to 0."""
        r, full = riemann_hurwitz(self.n, 0, self.orders())
        return r // (2 * full)


def generating_vector(ds: DataSet) -> GeneratingVector:
    """The vector with c_i = (n/n_i) d_i in the data set's stored pair order;
    validates once, with OutOfScopeError if invalid or not spherical."""
    require_valid(ds)
    if ds.g0 != 0:
        raise OutOfScopeError("not spherical (g0 != 0)")
    c = tuple((ds.n // m) * d % ds.n for d, m in ds.pairs)
    return GeneratingVector(ds.n, c)


def require_genus(v: GeneratingVector) -> int:
    """The genus of the cover; OutOfScopeError unless it is >= 2."""
    g = v.genus()
    if g < 2:
        raise OutOfScopeError(f"genus {g} is outside the genus >= 2 scope")
    return g


def act(unit: int, sigma: Perm, v: GeneratingVector) -> GeneratingVector:
    """Left action: entry j is multiplied by the unit and moved to sigma(j)."""
    if gcd(unit, v.n) != 1:
        raise ValueError(f"{unit} is not a unit mod {v.n}")
    if len(sigma) != v.k:
        raise ValueError(f"permutation degree {len(sigma)} != {v.k}")
    out = [0] * v.k
    for j, x in enumerate(v.c):
        out[sigma[j]] = unit * x % v.n
    return GeneratingVector(v.n, tuple(out))


def _is_fixed(unit: int, sigma: Perm, v: GeneratingVector) -> bool:
    n, c = v.n, v.c
    return all(unit * c[j] % n == c[sigma[j]] for j in range(len(c)))


def stabilizer_bruteforce(v: GeneratingVector) -> list[tuple[int, Perm]]:
    """All (unit, sigma) pairs fixing the vector, ordered by (unit, sigma)."""
    if v.k > MAX_BRUTE_DEGREE:
        raise CapacityError(f"brute force over {v.k}! permutations refused")
    units = units_mod(v.n)
    stab = [(u, sigma)
            for u in units
            for sigma in _all_perms(range(v.k))
            if _is_fixed(u, sigma, v)]
    _assert_subgroup(stab, v)
    return stab


def _assert_subgroup(stab: list[tuple[int, Perm]], v: GeneratingVector) -> None:
    members = set(stab)
    if (1, identity_perm(v.k)) not in members:
        raise InternalInvariantError("stabilizer misses the identity")
    for u, sigma in stab:
        if (pow(u, -1, v.n), inverse(sigma)) not in members:
            raise InternalInvariantError("stabilizer not inverse-closed")
    # full closure is O(|stab|^2); sample deterministically when large
    pairs = stab if len(stab) <= 300 else stab[:20] + stab[-20:]
    for u1, s1 in pairs:
        for u2, s2 in pairs:
            if (u1 * u2 % v.n, compose(s1, s2)) not in members:
                raise InternalInvariantError("stabilizer not closed under products")


# ---------------------------------------------------------------------------
# generating data for the liftable and centralizer images


def value_blocks(v: GeneratingVector) -> list[list[int]]:
    """0-based position blocks of equal entries, ordered by first occurrence."""
    blocks: dict[int, list[int]] = {}
    for i, x in enumerate(v.c):
        blocks.setdefault(x, []).append(i)
    return [blocks[x] for x in sorted(blocks)]


def equal_pairs(v: GeneratingVector) -> list[tuple[int, int]]:
    """1-based pairs (i, j), i < j, with c_i = c_j (the commuting half-twists)."""
    return [(i + 1, j + 1)
            for i, j in combinations(range(v.k), 2)
            if v.c[i] == v.c[j]]


def stabilizing_units(v: GeneratingVector) -> list[int]:
    """Units whose multiple of the vector is a permutation of it."""
    reference = sorted(v.c)
    return [u for u in units_mod(v.n)
            if sorted(u * x % v.n for x in v.c) == reference]


def matching_perm(unit: int, v: GeneratingVector) -> Perm:
    """The pinned permutation paired with a stabilizing unit: sigma(j) = i
    for l*c_j = c_i, equal entries matched in order of position."""
    sigma = matching([unit * x % v.n for x in v.c], v.c)
    if sigma is None:
        raise ValueError(f"{unit} does not stabilize {v}")
    return sigma


def half_twist_word(i: int, j: int) -> Word:
    """Half-twist swapping 1-based points i < j, as a word in s_1..:
    s_i ... s_{j-2} s_{j-1} s_{j-2}^-1 ... s_i^-1."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    conj = word(*(gen(f"s{t}") for t in range(i, j - 1)))
    return conj * gen(f"s{j - 1}") * conj.inv()


def perm_to_half_twist_word(p: Perm) -> Word:
    """Word in the half-twist generators mapping onto p: each cycle
    (x_1,...,x_m), x_1 least, contributes (x_1,x_m)(x_1,x_{m-1})...(x_1,x_2)."""
    parts = []
    for cyc in cycles_of(p):
        base = cyc[0]
        for other in reversed(cyc[1:]):
            parts.append(half_twist_word(base, other))
    return word(*parts)


@dataclass(frozen=True)
class VectorStabilizer:
    """The sigma in Sym(k) with act(u, sigma, v) = v for some u in units.

    units must be a subgroup of the stabilizing units: all of them give the
    liftable image H1, (1,) gives the centralizer image H2.  Nothing is
    materialized.  H2 permutes equal entries, so its order is the product of
    the factorials of the block sizes and |H1| = |H2| * |units|; the right
    coset H*g is labelled by the least unit multiple of the entries read
    through g, (u * c[g[i]] mod n)_i, because H*g = H*g' exactly when those
    labels agree.  The generators are the adjacent transpositions inside each
    block of equal entries followed by the unit permutations other than 1.

    Equality and hashing are those of the set of sigma, so stabilizers of
    different vectors compare equal when they are the same subgroup of
    Sym(k).
    """

    vector: GeneratingVector
    units: tuple[int, ...]
    generators: tuple[Perm, ...]

    @property
    def degree(self) -> int:
        return self.vector.k

    @property
    def order(self) -> int:
        order = len(self.units)
        for count in Counter(self.vector.c).values():
            order *= factorial(count)
        return order

    @property
    def is_symmetric(self) -> bool:
        return self.order == factorial(self.degree)

    def __contains__(self, p: Perm) -> bool:
        return len(p) == self.degree and any(_is_fixed(u, p, self.vector) for u in self.units)

    def coset_key(self, g: Perm) -> tuple[int, ...]:
        n, c = self.vector.n, self.vector.c
        return min(tuple(u * c[x] % n for x in g) for u in self.units)

    @cached_property
    def _subset(self) -> tuple:
        """Canonical form of the set: its blocks and its block maps.

        The blocks are the classes of i ~ j for the transpositions (i j) in
        the set: blocks of equal entries, with singletons {i} and {j} joined
        when a unit moves only entries i and j.  The set holds every
        permutation inside the blocks and maps blocks onto blocks, so it is
        the sigma whose block map B -> sigma(B) is that of some unit's
        permutation.  Both parts are read off the set alone.
        """
        n, c, k = self.vector.n, self.vector.c, self.degree
        label = list(c)
        for u in self.units:
            moved = [i for i in range(k) if u * c[i] % n != c[i]]
            if len(moved) == 2:
                old, new = label[moved[1]], label[moved[0]]
                label = [new if x == old else x for x in label]
        members: dict[int, list[int]] = {}
        for i, x in enumerate(label):
            members.setdefault(x, []).append(i)
        blocks = tuple(tuple(b) for b in members.values())
        block_of = {i: b for b, block in enumerate(blocks) for i in block}
        first = {x: i for i, x in reversed(list(enumerate(c)))}
        maps = {tuple(block_of[first[u * c[b[0]] % n]] for b in blocks)
                for u in self.units}
        return blocks, tuple(sorted(maps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorStabilizer):
            return NotImplemented
        return self._subset == other._subset

    def __hash__(self) -> int:
        return hash(self._subset)


@dataclass(frozen=True)
class StabilizerReport:
    """Generating data of the liftable (h1) and centralizer (h2) images.

    swaps is the set B of equal-entry index pairs; unit_words maps each
    stabilizing unit to a half-twist word whose image pairs with it in the
    stabilizer (the unit 1 always maps to the empty word).  The full set of
    (unit, sigma) pairs is stabilizer_bruteforce(v).
    """

    n: int
    c: tuple[int, ...]
    h1: VectorStabilizer
    h2: VectorStabilizer
    units: tuple[int, ...]
    swaps: tuple[tuple[int, int], ...]
    unit_words: Mapping[int, Word]
    unit_perms: Mapping[int, Perm]
    index_mod_lmod: int
    index_n_c: int


def liftable_images(v: GeneratingVector, cross_check: bool = False) -> StabilizerReport:
    """H1 and H2 as stabilizers of the vector, with the stabilizer data.

    cross_check=True also compares them with the brute-force stabilizer
    (k <= MAX_BRUTE_DEGREE) and raises InternalInvariantError on a mismatch.
    More than MAX_BRANCH_POINTS branch points raise CapacityError.
    """
    k = v.k
    if k > MAX_BRANCH_POINTS:
        raise CapacityError(f"{k} branch points exceed the cap of {MAX_BRANCH_POINTS}")
    units = tuple(stabilizing_units(v))
    unit_perms = {u: matching_perm(u, v) for u in units}
    unit_words = {u: (EMPTY if u == 1 else perm_to_half_twist_word(unit_perms[u]))
                  for u in units}
    for u, w in unit_words.items():
        if psi_image(w, k) != unit_perms[u] or not _is_fixed(u, unit_perms[u], v):
            raise InternalInvariantError(f"unit word of {u} does not fix {v}")

    block_gens = tuple(transposition(a + 1, b + 1, k)
                       for block in value_blocks(v) for a, b in zip(block, block[1:]))
    h2 = VectorStabilizer(v, (1,), block_gens)
    h1 = VectorStabilizer(v, units, block_gens + tuple(unit_perms[u] for u in units if u != 1))

    if cross_check:
        _check_against_bruteforce(tuple(stabilizer_bruteforce(v)), h1, h2)

    return StabilizerReport(
        n=v.n, c=v.c, h1=h1, h2=h2, units=units, swaps=tuple(equal_pairs(v)),
        unit_words=MappingProxyType(unit_words), unit_perms=MappingProxyType(unit_perms),
        index_mod_lmod=factorial(k) // h1.order, index_n_c=len(units))


def _check_against_bruteforce(stab: tuple[tuple[int, Perm], ...],
                              h1: VectorStabilizer, h2: VectorStabilizer) -> None:
    """The groups generated by h1's and h2's generators are the sigma
    projection and the unit-1 slice of the brute-force stabilizer."""
    projection = [sigma for _, sigma in stab]
    unit_1_slice = [sigma for u, sigma in stab if u == 1]
    if not _generates(h1.generators, projection, h1.degree):
        raise InternalInvariantError("h1 differs from the stabilizer projection")
    if ((h2.generators, unit_1_slice) != (h1.generators, projection)  # else as for h1
            and not _generates(h2.generators, unit_1_slice, h2.degree)):
        raise InternalInvariantError("h2 differs from the unit-1 slice")
    if h1.units != tuple(sorted({u for u, _ in stab})):
        raise InternalInvariantError("units differ from the brute-force stabilizer")
    if len(stab) != h1.order:
        raise InternalInvariantError(f"|H1| = {h1.order} but the stabilizer has {len(stab)}")


def _generates(gens: tuple[Perm, ...], elements: list[Perm], k: int) -> bool:
    """Whether gens (degree k) generate exactly the listed elements, none twice:
    a walk from the identity by right multiplication stays in the list."""
    members = set(elements)
    rights = [itemgetter(*g) for g in gens]  # right(e) = compose(e, g)
    walk = [identity_perm(k)]
    reached = set(walk)
    for e in walk:  # walk grows while it is read
        for right in rights:
            f = right(e)
            if f not in reached:
                if f not in members:
                    return False
                reached.add(f)
                walk.append(f)
    return reached == members and len(members) == len(elements)


def unit_for_perm(v: GeneratingVector, sigma: Perm, units: tuple[int, ...]) -> int:
    """The unique unit paired with sigma in the stabilizer, looked up among
    units, the stabilizing units of v."""
    for u in units:
        if _is_fixed(u, sigma, v):
            return u
    raise ValueError(f"{sigma} is not in the liftable image of {v}")


def mod_equals_lmod(v: GeneratingVector) -> bool:
    """Whether every mapping class lifts: all entries equal and n | k."""
    return len(set(v.c)) == 1 and v.k % v.n == 0


# ---------------------------------------------------------------------------
# group descriptors and the 3-branch-point classification


# the fields each descriptor kind uses; the others are None
_DESCRIPTOR_FIELDS = {"trivial": (), "cyclic": ("n",), "direct_product": ("n", "m"),
                      "semidirect": ("n", "m", "twist")}


@dataclass(frozen=True)
class GroupDescriptor:
    """One of: trivial, cyclic(n), direct_product(Z_n x Z_m),
    semidirect(Z_n x|_twist Z_m); the fields a kind uses are ints >= 1 and
    the others None."""

    kind: str
    n: int | None = None
    m: int | None = None
    twist: int | None = None

    def __post_init__(self):
        used = _DESCRIPTOR_FIELDS.get(self.kind)
        if used is None:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        for name in ("n", "m", "twist"):
            value = getattr(self, name)
            if not ((type(value) is int and value >= 1) if name in used else value is None):
                raise ValueError(f"{self.kind} descriptor: {name} must be "
                                 f"{'an int >= 1' if name in used else 'None'}, got {value!r}")
        if self.kind == "semidirect" and (self.twist == 1 or pow(self.twist, self.m, self.n) != 1):
            raise ValueError(
                f"semidirect twist must satisfy twist^{self.m} = 1 != twist mod {self.n}")

    def render(self) -> str:
        if self.kind == "trivial":
            return "1"
        if self.kind == "cyclic":
            return f"Z{self.n}"
        if self.kind == "direct_product":
            return f"Z{self.n} x Z{self.m}"
        return f"Z{self.n} x|_{self.twist} Z{self.m}"


def trivial_group() -> GroupDescriptor:
    return GroupDescriptor("trivial")


def cyclic(n: int) -> GroupDescriptor:
    return GroupDescriptor("cyclic", n=n)


def direct_product(n: int, m: int) -> GroupDescriptor:
    return GroupDescriptor("direct_product", n=n, m=m)


def semidirect(n: int, m: int, twist: int) -> GroupDescriptor:
    return GroupDescriptor("semidirect", n=n, m=m, twist=twist)


@dataclass(frozen=True)
class IrreducibleClassification:
    case: str                      # "i", "ii_a", "ii_b", "iii"
    twist: int | None
    lmod: GroupDescriptor
    centralizer: GroupDescriptor
    normalizer: GroupDescriptor
    genus: int
    notes: tuple[str, ...] = ()


def classify_irreducible(v: GeneratingVector) -> IrreducibleClassification:
    """Normalizer/centralizer isomorphism types for 3-branch-point actions,
    read off the stabilizer: Mod(S_{0,3}) = Sym(3), so LMod = H1.

    Cases: (ii_a) two equal entries, H2 != 1 -> N = C = Z_n x Z_2; else
    H1 = Z_m with m the number of stabilizing units, and its generator pairs
    with the twist l: (i) m = 3, l*c_0 = c_1 -> N = Z_n x|_l Z_3; (ii_b) m = 2,
    l != 1 -> N = Z_n x|_l Z_2; (iii) m = 1 -> N = C = Z_n.
    OutOfScopeError for genus < 2, then for k != 3.
    """
    g = require_genus(v)
    if v.k != 3:
        raise OutOfScopeError(f"classification needs exactly 3 branch points, got {v.k}")
    n, c = v.n, v.c
    if len(set(c)) < 3:
        desc = direct_product(n, 2)
        return IrreducibleClassification(
            case="ii_a", twist=1, lmod=cyclic(2), centralizer=desc, normalizer=desc,
            genus=g, notes=("normalizer type asserted, not derived",))
    units = stabilizing_units(v)
    m = len(units)
    if m == 1:
        return IrreducibleClassification(
            case="iii", twist=None, lmod=trivial_group(), centralizer=cyclic(n),
            normalizer=cyclic(n), genus=g)
    twist = units[1] if m == 2 else next(u for u in units if u * c[0] % n == c[1])
    return IrreducibleClassification(
        case="ii_b" if m == 2 else "i", twist=twist, lmod=cyclic(m), centralizer=cyclic(n),
        normalizer=semidirect(n, m, twist), genus=g)
