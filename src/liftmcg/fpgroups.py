"""Finitely presented groups: words, sphere mapping-class presentations,
Reidemeister-Schreier rewriting, Tietze simplification, abelianization,
and extension presentations.

A Presentation keeps its generator names and stores each relator as a freely
reduced tuple of signed ints: +i is generator i (1-based, in declaration
order) and -i its inverse.  Names are read only at the edges: a Word, of
(name, +-1) letters, builds words by hand and compile_word turns it into ints;
the renderers and presentation_json map ints back to names.  A word is its
letters composed left to right (rightmost applied first under the permutation
image, matching arith_perm.compose).

Reidemeister-Schreier enumerates the cosets itself, in one BFS, and needs of
a subgroup only its degree, order and coset labels: the analysis passes
genvec's vector stabilizers, never a stored group.  Tietze simplification is
deterministic; its engine writes a relator as a str of code points, one per
letter, so that substitution, search and inversion are str methods.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, groupby
from math import factorial

from .arith_perm import (
    MAX_MATERIALIZED,
    CapacityError,
    InternalInvariantError,
    Perm,
    compose,
    identity_perm,
    inverse,
    smith_normal_form,
    transposition,
)

Letter = tuple[str, int]
Relator = tuple[int, ...]


@dataclass(frozen=True)
class Word:
    """A freely reduced word by generator name, for building presentations
    by hand; compile_word turns it into a relator."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        out: list[Letter] = []
        for name, e in self.letters:
            if type(e) is not int or e not in (1, -1):
                raise ValueError(f"letter exponent must be the int 1 or -1, got {e!r}")
            if out and out[-1][0] == name and out[-1][1] == -e:
                out.pop()
            else:
                out.append((name, e))
        object.__setattr__(self, "letters", tuple(out))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, e: int) -> "Word":
        base = self if e > 0 else self.inv()
        return Word(base.letters * abs(e))

    def inv(self) -> "Word":
        return Word(tuple((name, -e) for name, e in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return render_word(self)


EMPTY = Word()


def gen(name: str, e: int = 1) -> Word:
    return Word(((name, 1 if e > 0 else -1),) * abs(e))


def word(*parts: Word) -> Word:
    return Word(tuple(chain.from_iterable(p.letters for p in parts)))


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inv() * b.inv()


def compile_word(w: Word, index: Mapping[str, int]) -> Relator:
    """w in signed ints, where index maps each generator name to its 1-based
    number; ValueError for a name that index lacks."""
    try:
        return tuple(index[name] * e for name, e in w.letters)
    except KeyError as exc:
        raise ValueError(f"word uses undeclared generator {exc.args[0]!r}") from None


def _inverted(r: Relator) -> Relator:
    return tuple(-x for x in reversed(r))


def _letter_codes(ngens: int) -> list[str]:
    """code[x] is the code point of the signed int letter x: chr(2i) for i,
    and chr(2i + 1) for -i at index -i.  A relator written in them is a str,
    whose rotations are its substrings when it is written twice."""
    return ["", *(chr(2 * i) for i in range(1, ngens + 1)),
            *(chr(2 * i + 1) for i in range(ngens, 0, -1))]


def evaluate_perm(r: Relator, images: Sequence[Perm], degree: int) -> Perm:
    """The product of the letters of r, images[i - 1] being generator i's."""
    out = identity_perm(degree)
    for x in r:
        p = images[abs(x) - 1]
        out = compose(out, p if x > 0 else inverse(p))
    return out


def _render(r: Relator, names: Sequence[str]) -> str:
    parts = []
    for x, run in groupby(r):
        count = len(list(run)) if x > 0 else -len(list(run))
        parts.append(names[abs(x) - 1] + ("" if count == 1 else f"^{count}"))
    return "*".join(parts) or "1"


def render_word(w: Word) -> str:
    """Run-aggregated product string; the empty word renders as "1"."""
    names = tuple(dict.fromkeys(name for name, _ in w.letters))
    return _render(compile_word(w, {name: i for i, name in enumerate(names, start=1)}), names)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class SymbolicRelator:
    """A relation ``lhs = base^param`` with an undetermined integer exponent:
    lhs is a relator in signed ints and base a generator number."""

    lhs: Relator
    base: int
    param: str


@dataclass(frozen=True)
class Presentation:
    """Generators by name and relators as freely reduced tuples of signed
    ints: +i is generator i (1-based, in declaration order), -i its inverse.
    from_words builds one from Words."""

    generators: tuple[str, ...]
    relators: tuple[Relator, ...]
    symbolic_relators: tuple[SymbolicRelator, ...] = ()

    def __post_init__(self):
        for name in self.generators:
            if not isinstance(name, str):
                raise TypeError(f"a generator name is a str, got {name!r}")
        if "" in self.generators:
            raise ValueError("a generator name is empty")
        ngens = len(self.generators)
        if len(set(self.generators)) != ngens:
            raise ValueError("duplicate generator names")
        for r in chain(self.relators, (s.lhs for s in self.symbolic_relators)):
            if type(r) is not tuple:
                raise TypeError(f"a relator is a tuple of signed ints, got {type(r).__name__}")
            prev = 0
            for x in r:
                if type(x) is not int or not 0 < abs(x) <= ngens:
                    raise ValueError(f"relator letter {x!r} is not one of +-1..+-{ngens}")
                if x == -prev:
                    raise ValueError("relator is not freely reduced")
                prev = x
        for s in self.symbolic_relators:
            if type(s.base) is not int or not 1 <= s.base <= ngens:
                raise ValueError(f"symbolic base {s.base!r} is not a generator number")

    @classmethod
    def from_words(cls, generators: Sequence[str],
                   relators: Iterable[Word] = ()) -> "Presentation":
        index = {name: i for i, name in enumerate(generators, start=1)}
        return cls(tuple(generators), tuple(compile_word(w, index) for w in relators))

    def __str__(self) -> str:
        return render_presentation(self)


def render_relator(r: Relator, names: Sequence[str]) -> str:
    """r as an equation u = v, v^-1 being its maximal all-inverse suffix, or
    as [a,b] = 1."""
    if len(r) == 4:
        a, b, c, d = r
        if a > 0 and b > 0 and c == -a and d == -b and a != b:
            return f"[{names[a - 1]},{names[b - 1]}] = 1"
    cut = len(r)
    while cut > 0 and r[cut - 1] < 0:
        cut -= 1
    u, v = r[:cut], _inverted(r[cut:])
    if not v:
        return f"{_render(u, names)} = 1"
    if not u:
        return f"{_render(v, names)} = 1"
    return f"{_render(u, names)} = {_render(v, names)}"


def render_presentation(p: Presentation) -> str:
    names = p.generators
    if not names:
        return "<1>"
    rels = [render_relator(r, names) for r in p.relators]
    rels += [f"{_render(s.lhs, names)} = {names[s.base - 1]}^{s.param}"
             for s in p.symbolic_relators]
    gens = ", ".join(names)
    if not rels:
        return f"<{gens} | >"
    return f"<{gens} | " + ", ".join(rels) + ">"


def _letters_json(r: Relator, names: Sequence[str]) -> list[list]:
    return [[names[x - 1], 1] if x > 0 else [names[-x - 1], -1] for x in r]


def presentation_json(p: Presentation) -> dict:
    names = p.generators
    out = {
        "generators": list(names),
        "relators": [_letters_json(r, names) for r in p.relators],
    }
    if p.symbolic_relators:
        out["symbolic_relators"] = [
            {"lhs": _letters_json(s.lhs, names), "base": names[s.base - 1], "param": s.param}
            for s in p.symbolic_relators
        ]
    return out


# ---------------------------------------------------------------------------
# sphere mapping class group presentations


def sigma_names(k: int) -> list[str]:
    return [f"s{i}" for i in range(1, k)]


def psi_images(k: int) -> dict[str, Perm]:
    """The marked-point action of the half-twist generators: s_i -> (i, i+1)."""
    return {f"s{i}": transposition(i, i + 1, k) for i in range(1, k)}


def psi_image(w: Word, k: int) -> Perm:
    """The marked-point permutation of a word in the half-twists s_1..s_{k-1}."""
    index = {name: i for i, name in enumerate(sigma_names(k), start=1)}
    return evaluate_perm(compile_word(w, index), list(psi_images(k).values()), k)


def mod_sphere_presentation(k: int) -> Presentation:
    """Half-twist presentation of the mapping class group of a k-marked sphere."""
    if k < 3:
        raise ValueError(f"need k >= 3 marked points, got {k}")
    s = {i: gen(f"s{i}") for i in range(1, k)}
    relators: list[Word] = []
    for i in range(1, k):
        for j in range(1, k):
            if i != j and abs(i - j) > 1:
                relators.append(commutator(s[i], s[j]))
    for i in range(1, k - 1):
        relators.append(s[i] * s[i + 1] * s[i] * (s[i + 1] * s[i] * s[i + 1]).inv())
    chain = word(*(s[i] for i in range(1, k)))
    relators.append(chain ** k)
    relators.append(word(*(s[i] for i in range(1, k)),
                         *(s[i] for i in range(k - 1, 0, -1))))
    return Presentation.from_words(sigma_names(k), relators)


def a_name(i: int, j: int) -> str:
    return f"a{i}{j}"


def pmod_sphere_presentation(k: int) -> Presentation:
    """Pure mapping class group of the k-marked sphere on generators a_ij,
    1 <= i < j < k."""
    if k < 3:
        raise ValueError(f"need k >= 3 marked points, got {k}")
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
    return Presentation.from_words([a_name(i, j) for i, j in names], relators)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


@dataclass(frozen=True)
class SchreierInfo:
    """The coset index and, for each Schreier generator, its marked-point
    image, an element of the subgroup."""

    index: int
    generator_images: dict[str, Perm]


def reidemeister_schreier_full(p: Presentation, psi: dict[str, Perm],
                               subgroup) -> tuple[Presentation, SchreierInfo]:
    """Presentation of the psi-preimage of a subgroup of Sym(k), plus the
    index and the Schreier generators' images.

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

    The relators are the nonempty rewrites, one per cyclic class, relator by
    relator and coset by coset in order.  An input relator equal to an
    earlier one up to rotation and inversion is skipped: its rewrites are
    rotations of the earlier one's or of their inverses.  A relator u^p,
    with u primitive and p > 1, is rewritten only at the least coset of each
    psi(u)-orbit, since its rewrite at c*u is a rotation of that at c.  So
    each dropped rewrite is a rotation of an earlier kept one or of its
    inverse, and tietze_simplify, which drops those, returns what it would
    from every rewrite at every coset.
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

    code = _letter_codes(ngens)
    relators: list[Relator] = []
    # length -> the earlier relators of that length, each written twice,
    # joined by chr(1), which is no letter
    rewritten: dict[int, str] = {}
    for r in p.relators:
        if evaluate_perm(r, images, degree) != identity:
            raise ValueError(f"psi does not kill the relator {_render(r, p.generators)}")
        if not r:
            continue
        w = "".join(map(code.__getitem__, r))
        same_length = rewritten.get(len(w), "")
        if same_length and (w in same_length
                            or "".join([code[-x] for x in reversed(r)]) in same_length):
            continue
        twice = w * 2
        rewritten[len(w)] = same_length + "\x01" + twice
        # r = u^power with u primitive: its least period, a divisor of its
        # length, is where w recurs in w*w
        period = twice.find(w, 1)
        starts = range(index)
        if period < len(r):
            # c -> c*u, and the least coset of each psi(u)-orbit
            step = list(range(index))
            for x in r[:period]:
                step = ([table[d][x - 1] for d in step] if x > 0
                        else [inv_table[d][-x - 1] for d in step])
            starts, orbit_of = [], [-1] * index
            for c in range(index):
                if orbit_of[c] < 0:
                    starts.append(c)
                    d = c
                    while orbit_of[d] < 0:
                        orbit_of[d] = c
                        d = step[d]
                    if d != c:
                        raise InternalInvariantError("a psi(u)-orbit of cosets does not close")
        # the rewrite of a freely reduced relator is freely reduced: between a
        # Schreier letter and its inverse it would walk a closed path of tree
        # edges, and a closed tree walk backtracks
        for c in starts:
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

    return Presentation(tuple(gen_images), tuple(relators)), SchreierInfo(index, gen_images)


# ---------------------------------------------------------------------------
# Tietze simplification

# Generator i (1-based) is the letter chr(2i) and its inverse chr(2i + 1), so
# the last generator's inverse must be a code point.
MAX_TIETZE_GENERATORS = (sys.maxunicode - 1) // 2


def _free_reduce(s: str) -> str:
    out: list[str] = []
    for c in s:
        if out and ord(out[-1]) ^ ord(c) == 1:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class _TietzeEngine:
    """Tietze state on code-point strings: generator i (1-based, declaration
    order) is the letter chr(2i) and its inverse chr(2i + 1), so two letters
    cancel when their code points differ in the last bit alone.

    Positions are the relators' list positions at entry; a rewritten relator
    keeps its position, so comparing positions compares list order.  Relators
    are bucketed by the length and generators of their cyclic reductions, and
    two in one bucket are equal up to rotation and inversion when one cyclic
    reduction, or its inverse, occurs in the other written twice.
    """

    def __init__(self, ngens: int, relators: list[str]):
        letters = range(2, 2 * ngens + 2)
        self.inv = {c: c ^ 1 for c in letters}
        self.gen_of = {c: c & ~1 for c in letters}
        self.rels: dict[int, str] = {}
        self.held: dict[int, tuple[str, tuple]] = {}  # position -> (cyclic reduction, bucket)
        self.buckets: dict[tuple, list[int]] = {}
        # generator letter -> positions whose relator may contain it; read
        # once, when the generator is eliminated
        self.occurs: defaultdict[str, set[int]] = defaultdict(set)
        self.once: dict[int, int] = {}        # position -> latest gen occurring once, or 0
        self.heap: list[tuple[int, int]] = []  # (length, position); stale entries skipped
        for pos, s in enumerate(relators):
            if s:
                core, bucket, other = self._lookup(s)
                if other is None:
                    self._insert(pos, s, core, bucket)
                    for g in set(s.translate(self.gen_of)):
                        self.occurs[g].add(pos)

    def _lookup(self, s: str) -> tuple[str, tuple, int | None]:
        """The cyclic reduction of s, its bucket, and the position holding a
        relator equal to s up to rotation and inversion, or None."""
        i, j = 0, len(s)
        while j - i >= 2 and ord(s[i]) ^ ord(s[j - 1]) == 1:
            i += 1
            j -= 1
        core = s[i:j]
        bucket = (j - i, frozenset(core.translate(self.gen_of)))
        for pos in self.buckets.get(bucket, ()):
            doubled = self.held[pos][0] * 2
            if core in doubled or core[::-1].translate(self.inv) in doubled:
                return core, bucket, pos
        return core, bucket, None

    def _seams(self, g: str, g_inv: str, repl: str) -> tuple[str, ...]:
        """The letter pairs around g or g_inv at which substituting the freely
        reduced repl for g cancels; g and g_inv themselves when repl is empty."""
        first, last = repl[:1], repl[-1:]
        before = first.translate(self.inv)
        pairs = (before + g, g + last.translate(self.inv), last + g_inv, g_inv + first)
        return pairs + (g + g, g_inv + g_inv) if last == before else pairs

    def _insert(self, pos: int, s: str, core: str, bucket: tuple) -> None:
        self.rels[pos] = s
        self.held[pos] = core, bucket
        self.buckets.setdefault(bucket, []).append(pos)
        self.once.pop(pos, None)
        heappush(self.heap, (len(s), pos))

    def _drop(self, pos: int) -> str:
        bucket = self.held.pop(pos)[1]
        same = self.buckets[bucket]
        same.remove(pos)
        if not same:
            del self.buckets[bucket]
        return self.rels.pop(pos)

    def _shortest_with_once(self) -> int | None:
        heap, rels, once = self.heap, self.rels, self.once
        while heap:
            length, pos = heap[0]
            s = rels.get(pos)
            if s is not None and len(s) == length:
                g = once.get(pos)
                if g is None:    # the latest generator occurring once in s, or 0
                    n = Counter(s)
                    g = once[pos] = max((ord(c) >> 1 for c, k in n.items()
                                         if k == 1 and chr(ord(c) ^ 1) not in n), default=0)
                if g:
                    return pos
            heappop(heap)
        return None

    def eliminate(self) -> int | None:
        """Eliminate the latest generator occurring once in the shortest such
        relator; return it, or None when no relator has one."""
        pos = self._shortest_with_once()
        if pos is None:
            return None
        g = self.once[pos]
        s = self._drop(pos)
        letter, letter_inv = chr(2 * g), chr(2 * g + 1)
        i = s.find(letter)
        positive = i >= 0
        if not positive:
            i = s.find(letter_inv)
        # g^e * rest is a rotation of the relator
        rest = _free_reduce(s[i + 1:] + s[:i])
        rest_inv = rest[::-1].translate(self.inv)
        repl, repl_inv = (rest_inv, rest) if positive else (rest, rest_inv)

        touched = sorted(t for t in self.occurs.pop(letter)
                         if letter in (r := self.rels.get(t, "")) or letter_inv in r)
        for h in set(repl.translate(self.gen_of)):
            self.occurs[h].update(touched)
        before = [self._drop(t) for t in touched]
        # all old relators are released; on a clash the earlier position survives
        seams = self._seams(letter, letter_inv, repl)
        for t, old in zip(touched, before):
            new = old.replace(letter, repl).replace(letter_inv, repl_inv)
            if any(map(old.__contains__, seams)):
                new = _free_reduce(new)
            if new:
                core, bucket, other = self._lookup(new)
                if other is not None:
                    if other < t:
                        continue
                    self._drop(other)
                self._insert(t, new, core, bucket)
        return g


def tietze_simplify(p: Presentation) -> Presentation:
    """Eliminate generators that occur exactly once in some relator, dropping
    trivial and duplicate relators along the way.

    Each step takes the relator that is least by (length, list position)
    among those with a generator occurring exactly once in it, eliminates the
    latest-declared such generator, and substitutes the freely reduced
    rotation of that relator for it everywhere.  Empty relators are dropped;
    of two relators equal up to rotation and inversion the earlier in the
    list survives.  Steps repeat until no relator has such a generator; the
    result presents an isomorphic group.

    More than MAX_TIETZE_GENERATORS generators raise CapacityError.
    """
    if p.symbolic_relators:
        raise ValueError("cannot simplify a presentation with symbolic relators")
    names = p.generators
    n = len(names)
    if n > MAX_TIETZE_GENERATORS:
        raise CapacityError(f"{n} generators exceed the Tietze cap of {MAX_TIETZE_GENERATORS}")
    code = _letter_codes(n)
    engine = _TietzeEngine(n, ["".join(map(code.__getitem__, r)) for r in p.relators])
    gone = set(iter(engine.eliminate, None))
    kept = [i for i in range(1, n + 1) if i not in gone]
    # survivors are renumbered, with one shared int per signed letter
    letter = {}
    for j, i in enumerate(kept, start=1):
        letter[chr(2 * i)], letter[chr(2 * i + 1)] = j, -j
    return Presentation(
        tuple(names[i - 1] for i in kept),
        tuple(tuple(map(letter.__getitem__, engine.rels[pos])) for pos in sorted(engine.rels)))


# ---------------------------------------------------------------------------
# abelianization


def abelianization(p: Presentation) -> tuple[tuple[int, ...], int]:
    """Invariant factors (> 1) and free rank of the abelianized group."""
    if p.symbolic_relators:
        raise ValueError("cannot abelianize a presentation with symbolic relators")
    rows = []
    for r in p.relators:
        row: dict[int, int] = {}
        for x in r:
            j = abs(x) - 1
            row[j] = row.get(j, 0) + (1 if x > 0 else -1)
        rows.append(row)
    factors, free_rank = smith_normal_form(rows, ncols=len(p.generators))
    return tuple(d for d in factors if d != 1), free_rank


# ---------------------------------------------------------------------------
# extension presentations


@dataclass(frozen=True)
class LiftData:
    """Lifting data for assembling a presentation of a group extension.

    lifts: quotient generator name -> lift name (disjoint from kernel names).
    conjugation: (quotient gen, kernel gen) -> word in kernel generators equal
        to lift * kernel_gen * lift^-1.
    evaluations: quotient relator index -> its value in the kernel, either a
        concrete kernel word or a parameter name (undetermined exponent of the
        kernel generator; cyclic kernels only).
    """

    lifts: dict[str, str]
    conjugation: dict[tuple[str, str], Word]
    evaluations: dict[int, Word | str] = field(default_factory=dict)


def extension_presentation(kernel: Presentation, quotient: Presentation,
                           data: LiftData) -> Presentation:
    """Presentation of an extension of the kernel by the quotient:
    kernel relators + lifted relators (set to their kernel values) +
    conjugation relators.  A key of the lift data that names no quotient
    generator, kernel generator or quotient relator raises ValueError."""
    if quotient.symbolic_relators or kernel.symbolic_relators:
        raise ValueError("nested symbolic relators are not supported")
    missing = [g for g in quotient.generators if g not in data.lifts]
    if missing:
        raise ValueError(f"missing lifts for quotient generators {missing}")
    for g in data.lifts:
        if g not in quotient.generators:
            raise ValueError(f"lift for {g!r}, which is not a quotient generator")
    for qg, kg in data.conjugation:
        if qg not in quotient.generators or kg not in kernel.generators:
            raise ValueError(f"conjugation word for ({qg!r}, {kg!r}), which is not a "
                             f"(quotient generator, kernel generator) pair")
    for idx in data.evaluations:
        if idx not in range(len(quotient.relators)):
            raise ValueError(f"evaluation for relator {idx!r}, but the quotient "
                             f"has {len(quotient.relators)} relators")
    lift_names = [data.lifts[g] for g in quotient.generators]
    clash = set(lift_names) & set(kernel.generators)
    if clash or len(set(lift_names)) != len(lift_names):
        raise ValueError(f"lift names must be fresh and distinct, got {lift_names}")
    shift = len(kernel.generators)
    kernel_index = {name: i for i, name in enumerate(kernel.generators, start=1)}

    relators: list[Relator] = list(kernel.relators)
    symbolic: list[SymbolicRelator] = []
    for idx, r in enumerate(quotient.relators):
        if idx not in data.evaluations:
            raise ValueError(f"missing evaluation for quotient relator {idx}")
        lifted = tuple(x + shift if x > 0 else x - shift for x in r)
        ev = data.evaluations[idx]
        if isinstance(ev, Word):
            relators.append(lifted + _inverted(compile_word(ev, kernel_index)))
        else:
            if len(kernel.generators) != 1:
                raise ValueError("symbolic evaluations need a cyclic kernel")
            symbolic.append(SymbolicRelator(lifted, 1, ev))
    for lift, qg in enumerate(quotient.generators, start=shift + 1):
        for kg, name in enumerate(kernel.generators, start=1):
            if (qg, name) not in data.conjugation:
                raise ValueError(f"missing conjugation word for ({qg}, {name})")
            s_a = compile_word(data.conjugation[(qg, name)], kernel_index)
            relators.append((lift, kg, -lift) + _inverted(s_a))

    return Presentation((*kernel.generators, *lift_names), tuple(relators), tuple(symbolic))
