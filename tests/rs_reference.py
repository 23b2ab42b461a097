"""Reidemeister-Schreier as it stood before it rewrote each relator once per
cyclic class, kept verbatim as a test oracle: it rewrites every relator at
every coset, so liftmcg.fpgroups.reidemeister_schreier_full must return the
same generators and images and a subsequence of its relators, dropping only
rotations of kept relators or of their inverses."""

from __future__ import annotations

from math import factorial

from liftmcg.arith_perm import (
    MAX_MATERIALIZED,
    CapacityError,
    InternalInvariantError,
    Perm,
    compose,
    identity_perm,
    inverse,
    transposition,
)
from liftmcg.fpgroups import (
    Presentation,
    Relator,
    evaluate_perm,
    render_word,
)


def reidemeister_schreier_full(p: Presentation, psi: dict[str, Perm],
                               subgroup) -> tuple[Presentation, tuple[Perm, ...]]:
    """Presentation of the psi-preimage of a subgroup of Sym(k), plus the
    Schreier generators' images, one per generator in order.

    psi's images must include every adjacent transposition of Sym(k), so psi
    is onto and the subgroup lies in its image; otherwise ValueError.  The
    subgroup needs only ``degree``, ``order`` and ``coset_key(g)``, a label
    equal for g and g' exactly when H*g = H*g', so any object with these
    three serves (the analysis passes a genvec.VectorStabilizer).  The run
    is refused before any coset is built when the predicted index k!/|H|
    times the generator count exceeds MAX_MATERIALIZED.

    One BFS numbers the right cosets, coset 0 being H, taking cosets in
    discovery order and generators in order.  An edge c --g--> d that
    reaches a new coset is a tree edge and gives d its representative
    rep(c) psi(g); every other edge gives the Schreier generator x{c}_{g},
    with image rep(c) psi(g) rep(d)^-1.
    """
    degree = subgroup.degree
    images = [psi[g] for g in p.generators]
    if any(len(x) != degree for x in images):
        raise ValueError(f"psi's images must have degree {degree}")
    if not {transposition(i, i + 1, degree) for i in range(1, degree)} <= set(images):
        raise ValueError("psi's images must include every adjacent transposition")
    ngens = len(images)
    index = factorial(degree) // subgroup.order
    if index * ngens > MAX_MATERIALIZED:
        raise CapacityError(
            f"coset table of predicted index {index} with {ngens} "
            f"generators exceeds the cap of {MAX_MATERIALIZED} entries")

    identity = identity_perm(degree)
    reps, rep_invs = [identity], [identity]
    index_of = {subgroup.coset_key(identity): 0}
    table: list[list[int]] = []
    inv_table = [[0] * ngens]
    # coset -> per generator, the Schreier generator's letters (s, -s), one
    # shared int each, or None on a tree edge
    sch_letters: list[list[tuple[int, int] | None]] = []
    gen_images: dict[str, Perm] = {}         # in discovery order: the output generators
    for c, rep in enumerate(reps):           # reps grows while it is walked
        row: list[int] = []
        letters_of: list[tuple[int, int] | None] = []
        for gi, g in enumerate(images):
            img = compose(rep, g)
            key = subgroup.coset_key(img)
            d = index_of.get(key)
            if d is None:
                d = index_of[key] = len(reps)
                reps.append(img)
                rep_invs.append(inverse(img))
                inv_table.append([0] * ngens)
                letters_of.append(None)
            else:
                gen_images[f"x{c}_{p.generators[gi]}"] = compose(img, rep_invs[d])
                s = len(gen_images)
                letters_of.append((s, -s))
            row.append(d)
            inv_table[d][gi] = c
        table.append(row)
        sch_letters.append(letters_of)
    if len(reps) != index:
        raise InternalInvariantError(
            f"coset index {len(reps)} times |H| = {subgroup.order} is not {degree}!")

    relators: list[Relator] = []
    for r in p.relators:
        if evaluate_perm(r, images, degree) != identity:
            raise ValueError(f"psi does not kill the relator {render_word(r, p.generators)}")
        # the rewrite of a freely reduced relator is freely reduced: between a
        # Schreier letter and its inverse it would walk a closed path of tree
        # edges, and a closed tree walk backtracks
        for c in range(index):
            cur = c
            letters: list[int] = []
            for x in r:
                if x > 0:
                    s = sch_letters[cur][x - 1]
                    cur = table[cur][x - 1]
                    if s is not None:
                        letters.append(s[0])
                else:
                    cur = inv_table[cur][-x - 1]
                    s = sch_letters[cur][-x - 1]
                    if s is not None:
                        letters.append(s[1])
            if cur != c:
                raise InternalInvariantError("relator does not stabilize its coset")
            if letters:
                relators.append(tuple(letters))

    return Presentation(tuple(gen_images), tuple(relators)), tuple(gen_images.values())

