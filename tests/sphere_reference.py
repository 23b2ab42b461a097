"""The sphere presentation builders as they stood when they built each
relator from by-name Words and compiled it through Presentation.from_words
(now by_name.from_words), kept verbatim as a test oracle:
liftmcg.fpgroups.pmod_sphere_presentation, which writes signed ints, must
equal its version with ==, and mod_sphere_presentation must equal its version
less the commutators [s_j,s_i], j > i + 1, each the inverse of the earlier
[s_i,s_j], which the library lists once.  They are not memoized."""

from __future__ import annotations

from by_name import Word, commutator, from_words, gen, word
from liftmcg import fpgroups
from liftmcg.fpgroups import Presentation, _require_degree, a_name, sigma_names


def mod_sphere_presentation(k: int) -> Presentation:
    """Half-twist presentation of the mapping class group of a k-marked sphere."""
    _require_degree(k, 3)
    s = {i: gen(f"s{i}") for i in range(1, k)}
    relators: list[Word] = []
    for i in range(1, k):
        for j in range(1, k):
            if i != j and abs(i - j) > 1:
                relators.append(commutator(s[i], s[j]))
    for i in range(1, k - 1):
        relators.append(s[i] * s[i + 1] * s[i] * (s[i + 1] * s[i] * s[i + 1]).inv())
    chain = word(*(s[i] for i in range(1, k)))
    relators += [chain ** k, word(chain, *(s[i] for i in range(k - 1, 0, -1)))]
    return from_words(sigma_names(k), relators)


def pmod_sphere_presentation(k: int) -> Presentation:
    """Pure mapping class group of the k-marked sphere on generators a_ij,
    1 <= i < j < k."""
    _require_degree(k, 3)
    # generator indices satisfy 1 <= i < j <= k-1
    names = [(i, j) for i in range(1, k - 1) for j in range(i + 1, k)]
    a = {(i, j): gen(a_name(i, j)) for i, j in names}
    relators: list[Word] = []
    quads = [(p, q, r, s)
             for p in range(1, k - 1) for q in range(p + 1, k - 1)
             for r in range(q + 1, k - 1) for s in range(r + 1, k)]
    for p, q, r, s_ in quads:
        relators.append(commutator(a[p, q], a[r, s_]))
    for p, q, r, s_ in quads:
        relators.append(commutator(a[p, s_], a[q, r]))
    for p, q, r, s_ in quads:
        relators.append(commutator(a[r, s_] * a[p, r] * a[r, s_].inv(), a[q, s_]))
    for p in range(1, k - 1):
        for q in range(p + 1, k - 1):
            for r in range(q + 1, k):
                w1 = a[p, r] * a[q, r] * a[p, q]
                w2 = a[q, r] * a[p, q] * a[p, r]
                w3 = a[p, q] * a[p, r] * a[q, r]
                relators.append(w1 * w2.inv())
                relators.append(w2 * w3.inv())
    total = word(*(a[i, j] for i, j in names))
    relators.append(total)
    return from_words([a_name(i, j) for i, j in names], relators)


def _far_commutations_once(p: Presentation) -> Presentation:
    """p less its commutators [s_j,s_i] with j > i + 1, in order."""
    k = len(p.generators) + 1
    repeats = {(j, i, -j, -i) for i in range(1, k) for j in range(i + 2, k)}
    return Presentation(p.generators, tuple(r for r in p.relators if r not in repeats))


def mismatched_degrees(degrees) -> list[int]:
    """The degrees among degrees at which a library builder differs from
    its by-name version above, mod_sphere's taken with each far commutation
    once."""
    return [k for k in degrees
            if fpgroups.mod_sphere_presentation(k)
            != _far_commutations_once(mod_sphere_presentation(k))
            or fpgroups.pmod_sphere_presentation(k) != pmod_sphere_presentation(k)]
