"""The half-twist words as they stood when they were built from by-name
Words, kept verbatim as a test oracle: liftmcg.genvec.half_twist_word and
perm_to_half_twist_word, which write signed ints, must equal these compiled
with s_i -> i."""

from __future__ import annotations

from by_name import Word, compile_word, gen, word
from liftmcg.arith_perm import Perm, cycles_of
from liftmcg.fpgroups import Relator


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
    return word(*(half_twist_word(cyc[0], other)
                  for cyc in cycles_of(p) for other in reversed(cyc[1:])))


def compiled(w: Word, k: int) -> Relator:
    """w in signed ints over s_1..s_{k-1}, s_i being letter i."""
    return compile_word(w, {f"s{i}": i for i in range(1, k)})
