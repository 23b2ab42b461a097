"""Whole groups and relator sets, for tests only.

perm_closure lists the elements of the subgroup some permutations generate.
PermGroup is a subgroup of Sym(degree) with its elements stored: the
reference that genvec's stabilizers, which store nothing, are checked
against, and a subgroup Reidemeister-Schreier accepts (it has ``degree``,
``order`` and ``coset_key``).  relator_key and same_relator_sets compare
presentations up to the order of their relators, cyclic rotation and
inversion.
"""

from __future__ import annotations

from math import factorial

from liftmcg.arith_perm import Perm, compose, identity_perm
from liftmcg.fpgroups import Presentation, Relator, _inverted


def perm_closure(gens, degree: int) -> tuple[Perm, ...]:
    """The elements of the subgroup generated by gens, sorted: a walk from
    the identity, multiplying each element reached on the right by each
    generator."""
    walk = [identity_perm(degree)]
    reached = set(walk)
    for e in walk:  # walk grows while it is read
        for g in gens:
            f = compose(e, g)
            if f not in reached:
                reached.add(f)
                walk.append(f)
    return tuple(sorted(walk))


def closure(gens, degree: int) -> PermGroup:
    """The PermGroup generated by gens."""
    return PermGroup(degree, tuple(gens), perm_closure(gens, degree))


class PermGroup:
    """A subgroup of Sym(degree) with a materialized, sorted element list.

    The reference implementation: closure builds it from perm_closure's
    elements and tests compare the stabilizer groups of genvec against it.
    """

    __slots__ = ("degree", "generators", "elements", "_member_set")

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._member_set = frozenset(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_symmetric(self) -> bool:
        return len(self.elements) == factorial(self.degree)

    def __contains__(self, p: Perm) -> bool:
        return p in self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def coset_key(self, g: Perm) -> Perm:
        """Canonical label of the right coset H*g: its least element."""
        return min(compose(h, g) for h in self.elements)


def rename_presentation(p: Presentation, mapping: dict[str, str]) -> Presentation:
    """p with its generators renamed; relators are positional, so they stay."""
    return Presentation(tuple(mapping.get(g, g) for g in p.generators),
                        p.relators, p.symbolic_relators)


def relator_key(r: Relator) -> Relator:
    """Canonical form of a relator up to conjugation and inversion: the least
    rotation of its cyclic reduction or of the inverse."""
    i, j = 0, len(r)
    while j - i >= 2 and r[i] == -r[j - 1]:
        i += 1
        j -= 1
    core = r[i:j]
    if not core:
        return core
    inv = _inverted(core)
    first = min(core + inv)    # the first letter of every least rotation
    n = len(core)
    return min(doubled[s:s + n] for doubled in (core + core, inv + inv)
               for s in range(n) if doubled[s] == first)


def same_relator_sets(p1: Presentation, p2: Presentation) -> bool:
    """Equal generator and relator sets, with relators compared up to cyclic
    rotation and inversion."""
    if sorted(p1.generators) != sorted(p2.generators):
        return False
    position = {name: i for i, name in enumerate(p2.generators, start=1)}
    # p1's generator i is p2's generator to[i]
    to = [0] + [position[name] for name in p1.generators]
    return (sorted(relator_key(tuple(to[x] if x > 0 else -to[-x] for x in r))
                   for r in p1.relators)
            == sorted(relator_key(r) for r in p2.relators))
