"""Generating vectors of spherical cyclic actions and the (unit, permutation)
action on them: stabilizers, the liftable/centralizer images in the symmetric
group, the half-twist generating data, and the 3-branch-point classification.

The liftable image H1 is the set of sigma with act(u, sigma, v) = v for some
unit u, and the centralizer image H2 the same set with u = 1; both are kept
as VectorStabilizer, read off the vector without storing any element.  The
unit's permutation is arith_perm.matching of the scaled entries onto the
entries, and its half-twist word, like every word of the library, is a
freely reduced tuple of signed ints, s_t being letter t.  [Mod:LMod] and
[N:C] are read off H1, its index and unit count, never stored apart.  The
3-branch-point classification takes the vector, builds H1 from it and reads
the case off its units and their permutations.  The brute-force stabilizer
is an oracle only: liftable_images compares with it when asked
(cross_check=True), never by default.

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
from .fpgroups import Relator, _free_reduction, psi_image

MAX_BRUTE_DEGREE = 10


@dataclass(frozen=True)
class GeneratingVector:
    """Residues (c_1, ..., c_k) mod n, each != 0, summing to 0 and generating Z_n,
    kept as a tuple of ints (a bool is not an int: TypeError); n <= MAX_MODULUS
    (else CapacityError), as analysis loops over the residues."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        for name, value in (("n", self.n), *(("c", x) for x in self.c)):
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
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


def _require_vector(v: GeneratingVector, what: str) -> GeneratingVector:
    """v itself if it is a GeneratingVector; else TypeError naming what reads
    it and the type it got."""
    if not isinstance(v, GeneratingVector):
        raise TypeError(f"{what} reads a GeneratingVector, got {type(v).__name__}")
    return v


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
    """Left action: entry j is multiplied by the unit and moved to sigma(j).
    ValueError for a unit that is not one mod n, or a sigma of another
    degree or that is no permutation of 0..k-1."""
    if gcd(unit, _require_vector(v, "act").n) != 1:
        raise ValueError(f"{unit} is not a unit mod {v.n}")
    if len(sigma) != v.k:
        raise ValueError(f"permutation degree {len(sigma)} != {v.k}")
    if sorted(sigma) != list(range(v.k)):
        raise ValueError(f"{sigma} is not a permutation of 0..{v.k - 1}")
    out = [0] * v.k
    for j, x in enumerate(v.c):
        out[sigma[j]] = unit * x % v.n
    return GeneratingVector(v.n, tuple(out))


def _is_fixed(unit: int, sigma: Perm, v: GeneratingVector) -> bool:
    n, c = v.n, v.c
    return all(unit * c[j] % n == c[sigma[j]] for j in range(len(c)))


def stabilizer_bruteforce(v: GeneratingVector) -> list[tuple[int, Perm]]:
    """All (unit, sigma) pairs fixing the vector, ordered by (unit, sigma)."""
    if _require_vector(v, "stabilizer_bruteforce").k > MAX_BRUTE_DEGREE:
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


def half_twist_word(i: int, j: int) -> Relator:
    """Half-twist swapping 1-based points i < j, as a word in s_1.., s_t
    being letter t: s_i ... s_{j-2} s_{j-1} s_{j-2}^-1 ... s_i^-1."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return (*range(i, j), *range(2 - j, 1 - i))


def perm_to_half_twist_word(p: Perm) -> Relator:
    """Freely reduced word in the half-twists mapping onto p: each cycle
    (x_1,...,x_m), x_1 least, contributes (x_1,x_m)(x_1,x_{m-1})...(x_1,x_2)."""
    return _free_reduction(x for cyc in cycles_of(p) for other in reversed(cyc[1:])
                           for x in half_twist_word(cyc[0], other))


@dataclass(frozen=True)
class VectorStabilizer:
    """The sigma in Sym(k) with act(u, sigma, v) = v for some u in units.

    units, kept as a tuple whatever sequence it is given as, must be a
    subgroup of the stabilizing units, else ValueError: all of them give the
    liftable image H1, (1,) the centralizer image H2.  Nothing is
    materialized.  H2 permutes equal entries, so its order is the product
    of the factorials of the block sizes and |H1| = |H2| * |units|; the right
    coset H*g is labelled by the least unit multiple of the entries read
    through g, (u * c[g[i]] mod n)_i, because H*g = H*g' exactly when those
    labels agree.  The generators are the adjacent transpositions inside each
    block of equal entries followed by the unit permutations other than 1.
    A unit that is not an int, a bool included, raises TypeError.

    Equality is that of the set of sigma, so stabilizers of different
    vectors compare equal when they are the same subgroup of Sym(k): the
    generators generate the set, so other's generators lying in self with
    |other| = |self| means other = self.  The hash is (degree, order).
    """

    vector: GeneratingVector
    units: tuple[int, ...]

    def __post_init__(self):
        n = _require_vector(self.vector, "VectorStabilizer").n
        object.__setattr__(self, "units", tuple(self.units))
        if any(type(u) is not int for u in self.units):
            raise TypeError(f"the units must be ints, got {self.units!r}")
        units, c = self.units, sorted(self.vector.c)
        if (1 not in units or len(set(units)) != len(units)
                or {a * b % n for a in units for b in units} != set(units)
                or any(not 0 < u < n or sorted([u * x % n for x in c]) != c for u in units)):
            raise ValueError(f"units {units} are no subgroup of those fixing {self.vector}")

    @property
    def degree(self) -> int:
        return self.vector.k

    @cached_property
    def order(self) -> int:
        order = len(self.units)
        for count in Counter(self.vector.c).values():
            order *= factorial(count)
        return order

    @property
    def index(self) -> int:
        """[Sym(k) : H] = k!/|H|."""
        return factorial(self.degree) // self.order

    @property
    def is_symmetric(self) -> bool:
        return self.index == 1

    @cached_property
    def unit_perms(self) -> Mapping[int, Perm]:
        """Each unit's matching_perm, the sigma paired with it."""
        return MappingProxyType({u: matching_perm(u, self.vector) for u in self.units})

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        blocks = tuple(transposition(a + 1, b + 1, self.degree)
                       for block in value_blocks(self.vector) for a, b in zip(block, block[1:]))
        return blocks + tuple(self.unit_perms[u] for u in self.units if u != 1)

    def unit_of(self, p: Perm) -> int | None:
        """The unit paired with p, or None unless p is a permutation in the set."""
        if sorted(p) != list(range(self.degree)):
            return None
        return next((u for u in self.units if _is_fixed(u, p, self.vector)), None)

    def __contains__(self, p: Perm) -> bool:
        return self.unit_of(p) is not None

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], ...]:
        """The unit multiples of the entries, (u * c_i mod n)_i for each unit."""
        n, c = self.vector.n, self.vector.c
        return tuple(tuple(u * x % n for x in c) for u in self.units)

    def coset_key(self, g: Perm) -> tuple[int, ...]:
        return min(tuple(map(s.__getitem__, g)) for s in self._scaled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorStabilizer):
            return NotImplemented
        return (self.degree == other.degree and self.order == other.order
                and all(g in self for g in other.generators))

    def __hash__(self) -> int:
        return hash((self.degree, self.order))


@dataclass(frozen=True)
class StabilizerReport:
    """Generating data of the liftable (h1) and centralizer (h2) images.

    swaps is the set B of equal-entry index pairs; unit_words (C) maps each
    unit u of h1 to a half-twist word, s_t being letter t, with image
    h1.unit_perms[u] (the unit 1 to the empty word ()).  [Mod:LMod] is
    h1.index and [N:C] is len(h1.units).
    """

    h1: VectorStabilizer
    h2: VectorStabilizer
    swaps: tuple[tuple[int, int], ...]
    unit_words: Mapping[int, Relator]


def liftable_images(v: GeneratingVector, cross_check: bool = False) -> StabilizerReport:
    """H1 and H2 as stabilizers of the vector, with the stabilizer data.

    cross_check=True also compares them with the brute-force stabilizer
    (k <= MAX_BRUTE_DEGREE) and raises InternalInvariantError on a mismatch.
    More than MAX_BRANCH_POINTS branch points raise CapacityError, and
    anything that is not a GeneratingVector TypeError.
    """
    k = _require_vector(v, "liftable_images").k
    if k > MAX_BRANCH_POINTS:
        raise CapacityError(f"{k} branch points exceed the cap of {MAX_BRANCH_POINTS}")
    h1 = VectorStabilizer(v, tuple(stabilizing_units(v)))
    h2 = VectorStabilizer(v, (1,))
    unit_words = {u: perm_to_half_twist_word(p) for u, p in h1.unit_perms.items()}
    for u, w in unit_words.items():
        if psi_image(w, k) != h1.unit_perms[u] or not _is_fixed(u, h1.unit_perms[u], v):
            raise InternalInvariantError(f"unit word of {u} does not fix {v}")

    if cross_check:
        _check_against_bruteforce(tuple(stabilizer_bruteforce(v)), h1, h2)

    return StabilizerReport(
        h1=h1, h2=h2, swaps=tuple(equal_pairs(v)), unit_words=MappingProxyType(unit_words))


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


def mod_equals_lmod(v: GeneratingVector) -> bool:
    """Whether every mapping class lifts: all entries equal and n | k."""
    return len(set(_require_vector(v, "mod_equals_lmod").c)) == 1 and v.k % v.n == 0


# ---------------------------------------------------------------------------
# group descriptors and the 3-branch-point classification


# kind -> (the fields it uses, the others being None; its text format)
_DESCRIPTORS = {"trivial": ((), "1"), "cyclic": (("n",), "Z{n}"),
                "direct_product": (("n", "m"), "Z{n} x Z{m}"),
                "semidirect": (("n", "m", "twist"), "Z{n} x|_{twist} Z{m}")}


@dataclass(frozen=True)
class GroupDescriptor:
    """One of: trivial, cyclic(n), direct_product(Z_n x Z_m),
    semidirect(Z_n x|_twist Z_m); the fields a kind uses are ints >= 1 and
    the others None.  A semidirect twist is in 2..n-1, with twist^m = 1 mod
    n: 1 or n + 1 would be a direct product, and n + 2 is twist 2 again."""

    kind: str
    n: int | None = None
    m: int | None = None
    twist: int | None = None

    def __post_init__(self):
        if self.kind not in _DESCRIPTORS:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        used = _DESCRIPTORS[self.kind][0]
        for name in ("n", "m", "twist"):
            value = getattr(self, name)
            if not ((type(value) is int and value >= 1) if name in used else value is None):
                raise ValueError(f"{self.kind} descriptor: {name} must be "
                                 f"{'an int >= 1' if name in used else 'None'}, got {value!r}")
        if self.kind == "semidirect" and (self.twist not in range(2, self.n)
                                          or pow(self.twist, self.m, self.n) != 1):
            raise ValueError(f"semidirect twist must be in 2..{self.n - 1} "
                             f"with twist^{self.m} = 1 mod {self.n}")

    def render(self) -> str:
        return _DESCRIPTORS[self.kind][1].format(n=self.n, m=self.m, twist=self.twist)


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
    read off H1, the stabilizer of the vector under all its stabilizing
    units: Mod(S_{0,3}) = Sym(3), so LMod = H1.

    Cases: (ii_a) two equal entries, H2 != 1 -> N = C = Z_n x Z_2; else
    H1 = Z_m with m the number of stabilizing units, and its generator pairs
    with the twist l: (i) m = 3, l's permutation sends position 0 to 1 ->
    N = Z_n x|_l Z_3; (ii_b) m = 2, l != 1 -> N = Z_n x|_l Z_2; (iii) m = 1
    -> N = C = Z_n.  TypeError unless v is a GeneratingVector; then
    OutOfScopeError for genus < 2, then for k != 3.
    """
    g = require_genus(_require_vector(v, "classification"))
    if v.k != 3:
        raise OutOfScopeError(f"classification needs exactly 3 branch points, got {v.k}")
    return _classify_h1(VectorStabilizer(v, tuple(stabilizing_units(v))), g)


def _classify_h1(h1: VectorStabilizer, g: int) -> IrreducibleClassification:
    """classify_irreducible(h1.vector) read off h1, the vector's stabilizer
    under all its stabilizing units, given its genus g >= 2 and k = 3."""
    n = h1.vector.n
    if len(set(h1.vector.c)) < 3:
        desc = direct_product(n, 2)
        return IrreducibleClassification(
            case="ii_a", twist=1, lmod=cyclic(2), centralizer=desc, normalizer=desc,
            genus=g, notes=("normalizer type asserted, not derived",))
    m = len(h1.units)
    if m == 1:
        return IrreducibleClassification(
            case="iii", twist=None, lmod=trivial_group(), centralizer=cyclic(n),
            normalizer=cyclic(n), genus=g)
    twist = h1.units[1] if m == 2 else next(u for u, p in h1.unit_perms.items() if p[0] == 1)
    return IrreducibleClassification(
        case="ii_b" if m == 2 else "i", twist=twist, lmod=cyclic(m), centralizer=cyclic(n),
        normalizer=semidirect(n, m, twist), genus=g)
