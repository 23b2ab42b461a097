"""Finitely presented groups: words, sphere mapping-class presentations,
Reidemeister-Schreier rewriting, Tietze simplification, abelianization,
and extension presentations.

Words are freely reduced tuples of (generator name, +-1) letters; the group
product of a word is its letters composed left to right (rightmost applied
first under the permutation image, matching arith_perm.compose).

Reidemeister-Schreier reads the coset table of arith_perm.coset_table in one
row-major pass, relying on its BFS numbering to meet each coset's tree edge
first, so a subgroup needs only its degree, order, generators and coset
labels: the analysis passes genvec's vector stabilizers, never a stored group.

Tietze simplification is deterministic.  Each step picks the relator least by
(length, list position) among those in which some generator occurs exactly
once, eliminates the latest-declared such generator by substituting the
freely reduced rotation of that relator, drops empty relators, and keeps the
earlier of two relators equal up to rotation and inversion, until no relator
has a generator occurring once.  Internally the engine writes letters as
signed ints and rewrites only the relators that contain the eliminated
generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import neg

from .arith_perm import (
    InternalInvariantError,
    Perm,
    compose,
    coset_table,
    identity_perm,
    inverse,
    perm_closure,
    smith_normal_form,
    transposition,
)

Letter = tuple[str, int]


def _reduce(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for name, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")
        if out and out[-1][0] == name and out[-1][1] == -e:
            out.pop()
        else:
            out.append((name, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        reduced = _reduce(self.letters)
        if reduced != tuple(self.letters):
            object.__setattr__(self, "letters", reduced)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, e: int) -> "Word":
        if e == 0:
            return Word()
        base = self if e > 0 else self.inv()
        return Word(base.letters * abs(e))

    def inv(self) -> "Word":
        return Word(tuple((name, -e) for name, e in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return render_word(self)


EMPTY = Word()


def gen(name: str, e: int = 1) -> Word:
    if e == 0:
        return EMPTY
    return Word(((name, 1 if e > 0 else -1),) * abs(e))


def word(*parts: Word) -> Word:
    out = EMPTY
    for p in parts:
        out = out * p
    return out


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inv() * b.inv()


def rename_word(w: Word, mapping: dict[str, str]) -> Word:
    return Word(tuple((mapping.get(name, name), e) for name, e in w.letters))


def evaluate_perm(w: Word, images: dict[str, Perm], degree: int) -> Perm:
    out = identity_perm(degree)
    for name, e in w.letters:
        p = images[name]
        out = compose(out, p if e == 1 else inverse(p))
    return out


def render_word(w: Word) -> str:
    """Run-aggregated product string; the empty word renders as "1"."""
    if not w.letters:
        return "1"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        name, e = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, e):
            j += 1
        count = (j - i) * e
        parts.append(name if count == 1 else f"{name}^{count}")
        i = j
    return "*".join(parts)


def word_json(w: Word) -> list[list]:
    return [[name, e] for name, e in w.letters]


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class SymbolicRelator:
    """A relation ``lhs = base^param`` with an undetermined integer exponent."""

    lhs: Word
    base: str
    param: str


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    symbolic_relators: tuple[SymbolicRelator, ...] = ()

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator names")
        for r in self.relators:
            for name, _ in r.letters:
                if name not in declared:
                    raise ValueError(f"relator uses undeclared generator {name!r}")
        for s in self.symbolic_relators:
            for name, _ in s.lhs.letters:
                if name not in declared:
                    raise ValueError(f"relator uses undeclared generator {name!r}")
            if s.base not in declared:
                raise ValueError(f"symbolic base {s.base!r} not a generator")

    def __str__(self) -> str:
        return render_presentation(self)


def _split_equation(w: Word) -> tuple[Word, Word]:
    # w = u * v^-1 with v^-1 the maximal all-negative suffix; returns (u, v)
    letters = w.letters
    cut = len(letters)
    while cut > 0 and letters[cut - 1][1] == -1:
        cut -= 1
    u = Word(letters[:cut])
    v = Word(letters[cut:]).inv()
    return u, v


def render_relator(w: Word) -> str:
    if len(w.letters) == 4:
        (a, ea), (b, eb), (c, ec), (d, ed) = w.letters
        if (ea, eb, ec, ed) == (1, 1, -1, -1) and a == c and b == d and a != b:
            return f"[{a},{b}] = 1"
    u, v = _split_equation(w)
    if not v:
        return f"{render_word(u)} = 1"
    if not u:
        return f"{render_word(v)} = 1"
    return f"{render_word(u)} = {render_word(v)}"


def render_presentation(p: Presentation) -> str:
    if not p.generators:
        return "<1>"
    rels = [render_relator(r) for r in p.relators]
    rels += [f"{render_word(s.lhs)} = {s.base}^{s.param}" for s in p.symbolic_relators]
    gens = ", ".join(p.generators)
    if not rels:
        return f"<{gens} | >"
    return f"<{gens} | " + ", ".join(rels) + ">"


def presentation_json(p: Presentation) -> dict:
    out = {
        "generators": list(p.generators),
        "relators": [word_json(r) for r in p.relators],
    }
    if p.symbolic_relators:
        out["symbolic_relators"] = [
            {"lhs": word_json(s.lhs), "base": s.base, "param": s.param}
            for s in p.symbolic_relators
        ]
    return out


def rename_presentation(p: Presentation, mapping: dict[str, str]) -> Presentation:
    gens = tuple(mapping.get(g, g) for g in p.generators)
    rels = tuple(rename_word(r, mapping) for r in p.relators)
    sym = tuple(
        SymbolicRelator(rename_word(s.lhs, mapping), mapping.get(s.base, s.base), s.param)
        for s in p.symbolic_relators
    )
    return Presentation(gens, rels, sym)


def _least_rotation(letters: tuple) -> tuple:
    if not letters:
        return letters
    first = min(letters)
    doubled = letters + letters
    n = len(letters)
    return min(doubled[i:i + n] for i, x in enumerate(letters) if x == first)


def _canonical_key(letters: tuple, inv) -> tuple:
    """The least rotation of the cyclic reduction of ``letters`` or of its
    inverse; ``inv`` inverts one letter."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == inv(letters[j - 1]):
        i += 1
        j -= 1
    reduced = letters[i:j]
    return min(_least_rotation(reduced),
               _least_rotation(tuple(map(inv, reversed(reduced)))))


def _inverse_letter(letter: Letter) -> Letter:
    return letter[0], -letter[1]


def relator_key(w: Word) -> tuple[Letter, ...]:
    """Canonical form of a relator up to conjugation and inversion: the least
    rotation of its cyclic reduction or of the inverse."""
    return _canonical_key(w.letters, _inverse_letter)


def same_relator_sets(p1: Presentation, p2: Presentation,
                      mapping: dict[str, str] | None = None) -> bool:
    """Equal generator and relator sets after renaming p1, with relators
    compared up to cyclic rotation and inversion."""
    q = rename_presentation(p1, mapping) if mapping else p1
    if sorted(q.generators) != sorted(p2.generators):
        return False
    return (sorted(relator_key(r) for r in q.relators)
            == sorted(relator_key(r) for r in p2.relators))


# ---------------------------------------------------------------------------
# sphere mapping class group presentations


def sigma_names(k: int) -> list[str]:
    return [f"s{i}" for i in range(1, k)]


def psi_images(k: int) -> dict[str, Perm]:
    """The marked-point action of the half-twist generators: s_i -> (i, i+1)."""
    return {f"s{i}": transposition(i, i + 1, k) for i in range(1, k)}


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
    return Presentation(tuple(sigma_names(k)), tuple(relators))


def a_name(i: int, j: int) -> str:
    return f"a{i}{j}"


def a_in_sigmas(i: int, j: int) -> Word:
    """The pure generator a_ij as a word in half-twists:
    (s_{j-1}...s_{i+1}) s_i^2 (s_{j-1}...s_{i+1})^-1."""
    conj = word(*(gen(f"s{t}") for t in range(j - 1, i, -1)))
    return conj * gen(f"s{i}") ** 2 * conj.inv()


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
    return Presentation(tuple(a_name(i, j) for i, j in names), tuple(relators))


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
    """Presentation of the psi-preimage of a subgroup of the image, plus the
    index and the Schreier generators' images.

    subgroup is a PermGroup or a genvec.VectorStabilizer; its cosets are
    enumerated by arith_perm.coset_table.  Containment in the image is
    checked on the subgroup's generators, and skipped when the images
    include every adjacent transposition and so generate Sym(k).

    The transversal is read off the table in one row-major pass, which relies
    on coset_table's BFS numbering: the first edge in row order that reaches a
    coset is the tree edge that found it.  Every other edge c --g--> d gives
    the Schreier generator x{c}_{g}, with image rep(c) psi(g) rep(d)^-1.
    """
    degree = subgroup.degree
    images = [psi[g] for g in p.generators]
    adjacents = {transposition(i, i + 1, degree) for i in range(1, degree)}
    if not adjacents <= set(images):
        img_group = perm_closure(images, degree)
        if any(h not in img_group for h in subgroup.generators):
            raise ValueError("subgroup is not contained in the image of psi")

    table = coset_table(subgroup, images)
    index = len(table)
    ngens = len(p.generators)

    reps: list[Perm | None] = [identity_perm(degree)] + [None] * (index - 1)
    rep_invs: list[Perm | None] = list(reps)
    inv_table = [[0] * ngens for _ in range(index)]
    # coset -> per generator, the Schreier generator's (name, 1) and (name, -1)
    sch_letters: list[list[tuple[Letter, Letter] | None]] = []
    gen_images: dict[str, Perm] = {}         # in row-major order: the output generators
    for c, row in enumerate(table):
        if reps[c] is None:
            raise InternalInvariantError("coset table not connected in BFS order")
        letters_of: list[tuple[Letter, Letter] | None] = []
        for gi, nxt in enumerate(row):
            inv_table[nxt][gi] = c
            img = compose(reps[c], images[gi])
            if reps[nxt] is None:
                reps[nxt], rep_invs[nxt] = img, inverse(img)
                letters_of.append(None)
                continue
            name = f"x{c}_{p.generators[gi]}"
            letters_of.append(((name, 1), (name, -1)))
            gen_images[name] = compose(img, rep_invs[nxt])
        sch_letters.append(letters_of)
    if len(gen_images) != index * ngens - (index - 1):
        raise InternalInvariantError(
            f"{len(gen_images)} Schreier generators, expected {index * ngens - (index - 1)}")

    gi_of = {g: i for i, g in enumerate(p.generators)}
    relators: list[Word] = []
    for r in p.relators:
        if evaluate_perm(r, psi, degree) != identity_perm(degree):
            raise ValueError(f"psi does not kill the relator {render_word(r)}")
        for c in range(index):
            cur = c
            letters: list[Letter] = []
            for name, e in r.letters:
                gi = gi_of[name]
                if e == 1:
                    s = sch_letters[cur][gi]
                    if s is not None:
                        letters.append(s[0])
                    cur = table[cur][gi]
                else:
                    prev = inv_table[cur][gi]
                    s = sch_letters[prev][gi]
                    if s is not None:
                        letters.append(s[1])
                    cur = prev
            if cur != c:
                raise InternalInvariantError("relator does not stabilize its coset")
            rewritten = Word(tuple(letters))
            if rewritten:
                relators.append(rewritten)

    return Presentation(tuple(gen_images), tuple(relators)), SchreierInfo(index, gen_images)


def reidemeister_schreier(p: Presentation, psi: dict[str, Perm],
                          subgroup) -> Presentation:
    return reidemeister_schreier_full(p, psi, subgroup)[0]


# ---------------------------------------------------------------------------
# Tietze simplification


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(letters)))


class _TietzeEngine:
    """Tietze state on signed-int letters: generator i (1-based, declaration
    order) is written i and its inverse -i.

    Positions are the relators' list positions at entry; a rewritten relator
    keeps its position, so comparing positions compares list order.
    """

    def __init__(self, ngens: int, relators: list[tuple[int, ...]]):
        self.rels: dict[int, tuple[int, ...]] = {}
        self.key_of: dict[int, tuple] = {}
        self.holder: dict[tuple, int] = {}    # canonical key -> position holding it
        self.occurs: list[set[int]] = [set() for _ in range(ngens + 1)]
        self.once: dict[int, int] = {}        # position -> latest gen occurring once, or 0
        self.heap: list[tuple[int, int]] = []  # (length, position); stale entries skipped
        for pos, letters in enumerate(relators):
            if letters:
                key = _canonical_key(letters, neg)
                if key not in self.holder:
                    self._insert(pos, letters, key)

    def _insert(self, pos: int, letters: tuple[int, ...], key: tuple) -> None:
        self.rels[pos] = letters
        self.key_of[pos] = key
        self.holder[key] = pos
        counts = Counter(map(abs, letters))
        for g in counts:
            self.occurs[g].add(pos)
        latest = max((g for g, c in counts.items() if c == 1), default=0)
        self.once[pos] = latest
        if latest:
            heappush(self.heap, (len(letters), pos))

    def _remove(self, pos: int) -> tuple[int, ...]:
        letters = self.rels.pop(pos)
        del self.holder[self.key_of.pop(pos)]
        for g in set(map(abs, letters)):
            self.occurs[g].discard(pos)
        return letters

    def _shortest_with_once(self) -> int | None:
        heap, rels = self.heap, self.rels
        while heap:
            length, pos = heap[0]
            if pos in rels and len(rels[pos]) == length and self.once[pos]:
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
        letters = self._remove(pos)
        i = letters.index(g) if g in letters else letters.index(-g)
        # g^e * rest is a rotation of the relator; rest may not be freely
        # reduced, but the rewrite below reduces on a stack as it substitutes
        rest = letters[i + 1:] + letters[:i]
        repl = _inverse(rest) if letters[i] > 0 else rest
        repl_inv = _inverse(repl)

        touched = sorted(self.occurs[g])
        rewritten = []
        for t in touched:
            out: list[int] = []
            for x in self._remove(t):
                if x == g:
                    seq = repl
                elif x == -g:
                    seq = repl_inv
                else:
                    if out and out[-1] == -x:
                        out.pop()
                    else:
                        out.append(x)
                    continue
                for y in seq:
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            rewritten.append(tuple(out))
        # all old keys are gone; on a key clash the earlier position survives
        for t, new in zip(touched, rewritten):
            if not new:
                continue
            key = _canonical_key(new, neg)
            other = self.holder.get(key)
            if other is not None:
                if other < t:
                    continue
                self._remove(other)
            self._insert(t, new, key)
        return g

    def relators(self) -> list[tuple[int, ...]]:
        return [self.rels[pos] for pos in sorted(self.rels)]


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
    """
    if p.symbolic_relators:
        raise ValueError("cannot simplify a presentation with symbolic relators")
    names = p.generators
    code = {name: i for i, name in enumerate(names, start=1)}
    engine = _TietzeEngine(len(names), [tuple(code[n] * e for n, e in r.letters)
                                        for r in p.relators])
    gone = set()
    while (g := engine.eliminate()) is not None:
        gone.add(g)
    # one shared (name, +-1) tuple per signed generator, not one per letter
    letter = {sign * i: (name, sign) for name, i in code.items() for sign in (1, -1)}
    return Presentation(
        tuple(name for name, i in code.items() if i not in gone),
        tuple(Word(tuple(map(letter.__getitem__, r))) for r in engine.relators()))


# ---------------------------------------------------------------------------
# abelianization


def abelianization(p: Presentation) -> tuple[tuple[int, ...], int]:
    """Invariant factors (> 1) and free rank of the abelianized group."""
    if p.symbolic_relators:
        raise ValueError("cannot abelianize a presentation with symbolic relators")
    index = {name: i for i, name in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        row: dict[int, int] = {}
        for name, e in r.letters:
            j = index[name]
            row[j] = row.get(j, 0) + e
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
    conjugation relators."""
    if quotient.symbolic_relators or kernel.symbolic_relators:
        raise ValueError("nested symbolic relators are not supported")
    missing = [g for g in quotient.generators if g not in data.lifts]
    if missing:
        raise ValueError(f"missing lifts for quotient generators {missing}")
    lift_names = [data.lifts[g] for g in quotient.generators]
    clash = set(lift_names) & set(kernel.generators)
    if clash or len(set(lift_names)) != len(lift_names):
        raise ValueError(f"lift names must be fresh and distinct, got {lift_names}")
    kernel_names = set(kernel.generators)

    relators: list[Word] = list(kernel.relators)
    symbolic: list[SymbolicRelator] = []
    for idx, r in enumerate(quotient.relators):
        if idx not in data.evaluations:
            raise ValueError(f"missing evaluation for quotient relator {idx}")
        lifted = rename_word(r, data.lifts)
        ev = data.evaluations[idx]
        if isinstance(ev, Word):
            bad = [n for n, _ in ev.letters if n not in kernel_names]
            if bad:
                raise ValueError(f"evaluation uses non-kernel generators {bad}")
            relators.append(lifted * ev.inv())
        else:
            if len(kernel.generators) != 1:
                raise ValueError("symbolic evaluations need a cyclic kernel")
            symbolic.append(SymbolicRelator(lifted, kernel.generators[0], ev))
    for qg in quotient.generators:
        for kg in kernel.generators:
            if (qg, kg) not in data.conjugation:
                raise ValueError(f"missing conjugation word for ({qg}, {kg})")
            s_a = data.conjugation[(qg, kg)]
            bad = [n for n, _ in s_a.letters if n not in kernel_names]
            if bad:
                raise ValueError(f"conjugation word uses non-kernel generators {bad}")
            lift = gen(data.lifts[qg])
            relators.append(lift * gen(kg) * lift.inv() * s_a.inv())

    gens = tuple(kernel.generators) + tuple(lift_names)
    return Presentation(gens, tuple(relators), tuple(symbolic))
