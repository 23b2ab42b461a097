"""Finitely presented groups: words, sphere mapping-class presentations,
Reidemeister-Schreier rewriting, Tietze simplification, abelianization,
and extension presentations.

Every word is a freely reduced tuple of signed ints: +i is generator i
(1-based, in declaration order) and -i its inverse.  A Presentation keeps
its generator names and stores each relator so; the half-twist words of
genvec are words in s_1..s_{k-1} (s_t is letter t), and LiftData's words are
over the kernel's generators, numbered as in its presentation.  Names are
read only at the edges: render_word, the other renderers and
presentation_json map ints back to names.  A word is its letters composed
left to right (rightmost applied first under the permutation image,
matching arith_perm.compose).

The degree-k data, mod_sphere_presentation(k), pmod_sphere_presentation(k)
and psi_images(k) (a tuple, entry i - 1 the image of s_i), are built once
per degree and kept for the life of the process; only an int k is memoized,
so any other k is refused exactly as a fresh build refuses it.  A degree
above MAX_BRANCH_POINTS is refused before anything is built.

Reidemeister-Schreier asks of psi, one image per generator in order, only
that it kill every relator, and of a subgroup only its degree, index, coset
labels and a hash and == by the set: the analysis passes genvec's vector
stabilizers; it returns its generators' images as it takes psi's.  Its
coset walk is the one check that psi's image meets every coset; the
analysis calls its core, _rewrite, uncached on _sphere_data(k).
A Presentation keeps its abelianization once computed.  Tietze
simplification is deterministic; one engine writes a relator as a str of
code points, one per letter, so that substitution, search and inversion are
str methods, takes every step by one rule and refuses a step that leaves
more than MAX_REWRITE_LETTERS letters; tietze_simplify runs it after a signed
union-find on the relators of cyclic length 1 or 2.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, wraps
from heapq import heappop, heappush
from itertools import chain, combinations, groupby
from operator import itemgetter
from types import MappingProxyType

from .arith_perm import (
    MAX_MATERIALIZED,
    MAX_REWRITE_LETTERS,
    CapacityError,
    InternalInvariantError,
    Perm,
    compose,
    identity_perm,
    inverse,
    smith_normal_form,
    transposition,
)
from .datasets import MAX_BRANCH_POINTS

Relator = tuple[int, ...]

# the bound of every memo keyed on a presentation or a subgroup: the raw
# Reidemeister-Schreier output, and analysis's simplified presentations and
# reports (the H1 and H2 of genus 10 alone are 70 subgroups)
PRESENTATION_MEMO_SIZE = 128


def _inverted(r: Relator) -> Relator:
    return tuple(-x for x in reversed(r))


def _free_reduction(letters: Iterable[int]) -> Relator:
    """The freely reduced word of the letters, cancelled through one stack."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _check_letters(r: Relator, ngens: int, what: str) -> None:
    """ValueError unless every letter of r is one of +-1..+-ngens and r is
    freely reduced; what names r in the message."""
    prev = 0
    for x in r:
        _check_letter(x, ngens, what)
        if x == -prev:
            raise ValueError(f"{what} is not freely reduced")
        prev = x


def _check_letter(x: int, ngens: int, what: str = "word") -> None:
    """ValueError unless x is one of +-1..+-ngens (a bool is not an int);
    what names its word in the message."""
    if type(x) is not int or not 0 < abs(x) <= ngens:
        raise ValueError(f"{what} letter {x!r} is not one of +-1..+-{ngens}")


def _product(r: Relator, images: Sequence[Perm], degree: int) -> Perm:
    """evaluate_perm without its checks, which the caller has made."""
    out = identity_perm(degree)
    for x in r:
        p = images[abs(x) - 1]
        out = compose(out, p if x > 0 else inverse(p))
    return out


def evaluate_perm(r: Relator, images: Sequence[Perm], degree: int) -> Perm:
    """The product of the letters of r, images[i - 1] being generator i's;
    ValueError for an image of another degree or a letter outside
    +-1..+-len(images)."""
    if any(len(p) != degree for p in images):
        raise ValueError(f"the images must have degree {degree}")
    for x in r:
        _check_letter(x, len(images))
    return _product(r, images, degree)


def render_word(r: Relator, names: Sequence[str]) -> str:
    """Run-aggregated product string, names[i - 1] being generator i's name;
    the empty word renders as "1".  ValueError for a letter outside
    +-1..+-len(names)."""
    parts = []
    for x, run in groupby(r):
        _check_letter(x, len(names))
        count = len(list(run)) if x > 0 else -len(list(run))
        parts.append(names[abs(x) - 1] + ("" if count == 1 else f"^{count}"))
    return "*".join(parts) or "1"


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class SymbolicRelator:
    """A relation ``lhs = base^param`` with an undetermined integer exponent:
    lhs is a relator in signed ints, base a generator number and param the
    exponent's nonempty name."""

    lhs: Relator
    base: int
    param: str


@dataclass(frozen=True)
class Presentation:
    """Generators by name and relators as signed-int words, the three fields
    stored as tuples, whatever sequence they are given as."""

    generators: tuple[str, ...]
    relators: tuple[Relator, ...]
    symbolic_relators: tuple[SymbolicRelator, ...] = ()

    def __post_init__(self):
        for field_name in ("generators", "relators", "symbolic_relators"):
            object.__setattr__(self, field_name, tuple(getattr(self, field_name)))
        for name in self.generators:
            if not isinstance(name, str):
                raise TypeError(f"a generator name is a str, got {name!r}")
        if "" in self.generators:
            raise ValueError("a generator name is empty")
        ngens = len(self.generators)
        if len(set(self.generators)) != ngens:
            raise ValueError("duplicate generator names")
        for s in self.symbolic_relators:
            if not isinstance(s, SymbolicRelator):
                raise TypeError(f"a symbolic relator is a SymbolicRelator, got {s!r}")
            if type(s.base) is not int or not 1 <= s.base <= ngens:
                raise ValueError(f"symbolic base {s.base!r} is not a generator number")
            if not isinstance(s.param, str):
                raise TypeError(f"a symbolic exponent is named by a str, got {s.param!r}")
            if not s.param:
                raise ValueError("a symbolic exponent's name is empty")
        for r in chain(self.relators, (s.lhs for s in self.symbolic_relators)):
            if type(r) is not tuple:
                raise TypeError(f"a relator is a tuple of signed ints, got {type(r).__name__}")
            _check_letters(r, ngens, "relator")

    def __str__(self) -> str:
        return render_presentation(self)

    @cached_property
    def _abelianization(self) -> tuple[tuple[int, ...], int]:
        """abelianization(self), kept in the instance once computed."""
        rows = []
        for r in self.relators:
            row: dict[int, int] = {}
            for x in r:
                j = abs(x) - 1
                row[j] = row.get(j, 0) + (1 if x > 0 else -1)
            rows.append(row)
        factors, free_rank = smith_normal_form(rows, ncols=len(self.generators))
        return tuple(d for d in factors if d != 1), free_rank


def _require_presentation(p, what: str) -> Presentation:
    """p itself if it is a Presentation; else TypeError naming what it is."""
    if not isinstance(p, Presentation):
        raise TypeError(f"{what} must be a Presentation, got {type(p).__name__}")
    return p


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
    if not (u and v):
        return f"{render_word(u or v, names)} = 1"
    return f"{render_word(u, names)} = {render_word(v, names)}"


def render_presentation(p: Presentation) -> str:
    names = _require_presentation(p, "the presentation").generators
    if not names:
        return "<1>"
    rels = [render_relator(r, names) for r in p.relators]
    rels += [f"{render_word(s.lhs, names)} = {names[s.base - 1]}^{s.param}"
             for s in p.symbolic_relators]
    return f"<{', '.join(names)} | " + ", ".join(rels) + ">"


def _letters_json(r: Relator, names: Sequence[str]) -> list[list]:
    return [[names[x - 1], 1] if x > 0 else [names[-x - 1], -1] for x in r]


def presentation_json(p: Presentation) -> dict:
    names = _require_presentation(p, "the presentation").generators
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


def _per_degree(build):
    """build, memoized on an int k for the life of the process; any other k
    (4.0 equals 4 and hashes alike) goes to build uncached, so it is refused
    exactly as a fresh build refuses it.  A build that raises stores nothing."""
    memo = cache(build)

    @wraps(build)
    def per_degree(k):
        return memo(k) if type(k) is int else build(k)

    per_degree.cache_clear = memo.cache_clear
    return per_degree


def _require_degree(k: int, least: int) -> None:
    """Refuse a degree k that is not an int (TypeError), is below least
    (ValueError) or exceeds MAX_BRANCH_POINTS (CapacityError); a bool counts
    as 0 or 1."""
    if not isinstance(k, int):
        raise TypeError(f"the degree k must be an int, got {k!r}")
    if k < least:
        raise ValueError(f"need k >= {least} marked points, got {k}")
    if k > MAX_BRANCH_POINTS:
        raise CapacityError(f"{k} marked points exceed the cap of {MAX_BRANCH_POINTS}")


def sigma_names(k: int) -> list[str]:
    return [f"s{i}" for i in range(1, k)]


@_per_degree
def psi_images(k: int) -> tuple[Perm, ...]:
    """The marked-point action of the half-twist generators: entry i - 1 is
    the image (i, i+1) of s_i, generator i of mod_sphere_presentation(k)."""
    _require_degree(k, 2)
    return tuple(transposition(i, i + 1, k) for i in range(1, k))


def psi_image(r: Relator, k: int) -> Perm:
    """The marked-point permutation of a word in the half-twists s_1..s_{k-1},
    s_t being letter t; ValueError for a letter outside +-1..+-(k-1) or a
    word that is not freely reduced."""
    images = psi_images(k)
    _check_letters(r, k - 1, "half-twist word")
    return _product(r, images, k)


@_per_degree
def mod_sphere_presentation(k: int) -> Presentation:
    """Half-twist presentation of the mapping class group of a k-marked
    sphere; generator i is s_i.  Each far commutator [s_i, s_j], j > i + 1,
    is listed once."""
    _require_degree(k, 3)
    far = [(i, j, -i, -j) for i in range(1, k) for j in range(i + 2, k)]
    braid = [(i, i + 1, i, -i - 1, -i, -i - 1) for i in range(1, k - 1)]
    full = tuple(range(1, k))  # s_1 s_2 ... s_{k-1}
    return Presentation(sigma_names(k), far + braid + [full * k, full + full[::-1]])


def a_name(i: int, j: int) -> str:
    return f"a{i}{j}"


@_per_degree
def pmod_sphere_presentation(k: int) -> Presentation:
    """Pure mapping class group of the k-marked sphere on generators a_ij,
    1 <= i < j < k, numbered in that (i, j) order."""
    _require_degree(k, 3)
    pairs = list(combinations(range(1, k), 2))
    a = {ij: n for n, ij in enumerate(pairs, start=1)}
    disjoint, nested, crossed = [], [], []
    for p, q, r, s in combinations(range(1, k), 4):
        pq, rs, ps, qr, pr, qs = a[p, q], a[r, s], a[p, s], a[q, r], a[p, r], a[q, s]
        disjoint.append((pq, rs, -pq, -rs))
        nested.append((ps, qr, -ps, -qr))
        crossed.append((rs, pr, -rs, qs, rs, -pr, -rs, -qs))  # [a_rs a_pr a_rs^-1, a_qs]
    relators = disjoint + nested + crossed
    for p, q, r in combinations(range(1, k), 3):
        pq, pr, qr = a[p, q], a[p, r], a[q, r]
        # a_pr a_qr a_pq = a_qr a_pq a_pr = a_pq a_pr a_qr
        relators += [(pr, qr, pq, -pr, -pq, -qr), (qr, pq, pr, -qr, -pr, -pq)]
    relators.append(tuple(range(1, len(pairs) + 1)))
    return Presentation([a_name(i, j) for i, j in pairs], relators)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def _right_multiplier(g: Perm) -> Callable[[Perm], Perm]:
    """p -> compose(p, g), by itemgetter where it returns a tuple: with one
    index it returns the bare entry, and it takes no zero indices."""
    return itemgetter(*g) if len(g) > 1 else lambda p: compose(p, g)


def _check_psi(p: Presentation, images: tuple[Perm, ...], degree: int) -> None:
    """psi's images must have the degree and kill every relator of p (whose
    letters p checked), else ValueError, in that order; the walk checks the rest."""
    if any(len(x) != degree for x in images):
        raise ValueError(f"psi's images must have degree {degree}")
    identity = identity_perm(degree)
    for r in p.relators:
        if _product(r, images, degree) != identity:
            raise ValueError(f"psi does not kill the relator {render_word(r, p.generators)}")


@_per_degree
def _sphere_data(k: int) -> tuple[Presentation, tuple[Perm, ...]]:
    """(mod_sphere_presentation(k), psi_images(k)), psi checked once per
    degree: the pair the analysis rewrites over."""
    p, images = mod_sphere_presentation(k), psi_images(k)
    _check_psi(p, images, k)
    return p, images


def reidemeister_schreier_full(p: Presentation, images: Sequence[Perm],
                               subgroup) -> tuple[Presentation, tuple[Perm, ...]]:
    """Presentation of the psi-preimage of a subgroup H of Sym(k), and a tuple
    of its generators' marked-point images in H, in order, as images is psi of
    each generator of p in order; the index is H's own.  On every call, before
    any work: TypeError for a p that is not a Presentation, images in a
    Mapping, or a subgroup that is unhashable or lacks ``degree``, ``index``
    or ``coset_key(g)`` (a label equal for g and g' exactly when H*g =
    H*g'), and ValueError for a count of images other than p's generators'.
    Any such subgroup whose == means the same set serves (the analysis
    passes a genvec.VectorStabilizer).

    The rest is memoized on (p, images, subgroup), keeping the
    PRESENTATION_MEMO_SIZE most recently used: a call that raises stores
    nothing, and a hit returns the objects built on the miss, shared and
    read-only, so subgroups equal as sets get one result.  A miss refuses,
    in order: psi's images of another degree or not killing a relator of p
    (ValueError, _check_psi); an index that times the generator count
    exceeds MAX_MATERIALIZED, or times the letters of p's relators exceeds
    MAX_REWRITE_LETTERS (CapacityError, before any coset is built); a coset
    walk that does not reach exactly the index of cosets, as when psi's
    image misses a coset (ValueError, before any relator is rewritten).
    So psi need not be onto Sym(k).

    One BFS numbers the right cosets, coset 0 being H, taking cosets in
    discovery order and generators in order.  An edge c --g--> d that
    reaches a new coset is a tree edge and gives d its representative
    rep(c) psi(g); every other edge gives the Schreier generator x{c}_{g},
    with image rep(c) psi(g) rep(d)^-1.  The relators are the nonempty
    rewrites, relator by relator and coset by coset in order; a relator
    u^p, with u primitive and p > 1, is rewritten only at the least coset of
    each psi(u)-orbit, since its rewrite at c*u is a rotation of that at c,
    which tietze_simplify drops, as it drops the rewrites of an input
    relator that repeats an earlier one up to rotation and inversion.
    """
    _require_presentation(p, "the presentation")
    if isinstance(images, Mapping):
        raise TypeError("psi's images are a sequence in p's generator order, not a mapping")
    if len(images := tuple(images)) != len(p.generators):
        raise ValueError(f"{len(images)} images of psi for {len(p.generators)} generators")
    try:
        hash(subgroup)
    except TypeError:
        raise TypeError("the subgroup must be hashable, with == meaning the same set, "
                        f"got {type(subgroup).__name__}") from None
    if not all(hasattr(subgroup, name) for name in ("degree", "index", "coset_key")):
        raise TypeError("the subgroup needs degree, index and coset_key, "
                        f"got {type(subgroup).__name__}")
    return _rs_memo(p, images, subgroup)


@lru_cache(maxsize=PRESENTATION_MEMO_SIZE)
def _rs_memo(p: Presentation, images: tuple[Perm, ...],
             subgroup) -> tuple[Presentation, tuple[Perm, ...]]:
    """_check_psi, then _rewrite: reidemeister_schreier_full's memo."""
    _check_psi(p, images, subgroup.degree)
    return _rewrite(p, images, subgroup)


def _rewrite(p: Presentation, images: tuple[Perm, ...],
             subgroup) -> tuple[Presentation, tuple[Perm, ...]]:
    """Reidemeister-Schreier from the capacity guards on, on images that
    passed _check_psi and trusting subgroup.index; nothing is memoized."""
    ngens = len(images)
    index = subgroup.index
    if index * ngens > MAX_MATERIALIZED:
        raise CapacityError(
            f"coset table of predicted index {index} with {ngens} "
            f"generators exceeds the cap of {MAX_MATERIALIZED} entries")
    letters = sum(map(len, p.relators))
    if index * letters > MAX_REWRITE_LETTERS:
        raise CapacityError(
            f"rewriting {letters} relator letters at each of {index} predicted "
            f"cosets exceeds the cap of {MAX_REWRITE_LETTERS} letters")

    identity = identity_perm(subgroup.degree)
    coset_key = subgroup.coset_key
    times = [_right_multiplier(g) for g in images]
    # per coset d, the map p -> p * rep(d)^-1
    reps, times_rep_inv = [identity], [_right_multiplier(identity)]
    index_of = {coset_key(identity): 0}
    # coset c -> per signed letter x, (c*x, its Schreier letter or 0): one
    # shared int per signed Schreier letter; -x reads from the end of the row
    edges: list[list[tuple[int, int]]] = [[(0, 0)] * (2 * ngens + 1)]
    names: list[str] = []                    # in discovery order: the output generators
    gen_images: list[Perm] = []              # and their images
    for c, rep in enumerate(reps):           # reps grows while it is walked
        for x, times_g in enumerate(times, 1):
            img = times_g(rep)
            key = coset_key(img)
            d = index_of.get(key)
            s = 0
            if d is None:
                if len(reps) == index:       # the walk stops at once past the index
                    raise ValueError(f"psi's images reach more than the subgroup's {index} cosets")
                d = index_of[key] = len(reps)
                reps.append(img)
                times_rep_inv.append(_right_multiplier(inverse(img)))
                edges.append([(0, 0)] * (2 * ngens + 1))
            else:
                names.append(f"x{c}_{p.generators[x - 1]}")
                gen_images.append(times_rep_inv[d](img))
                s = len(gen_images)
            edges[c][x] = d, s
            edges[d][-x] = c, -s
    if len(reps) != index:
        raise ValueError(f"psi's images reach {len(reps)} of the subgroup's {index} cosets")

    relators: list[Relator] = []
    for r in p.relators:
        if not r:
            continue
        # r = u^power with u primitive: its least period, a divisor of its length
        n = len(r)
        period = next(d for d in range(1, n + 1) if n % d == 0 and r[:d] * (n // d) == r)
        starts = range(index)
        if period < n:
            # c -> c*u, and the least coset of each psi(u)-orbit
            step = list(range(index))
            for x in r[:period]:
                step = [edges[d][x][0] for d in step]
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
                cur, s = edges[cur][x]
                if s:
                    letters.append(s)
            if cur != c:
                raise InternalInvariantError("relator does not stabilize its coset")
            if letters:
                relators.append(tuple(letters))

    return Presentation(tuple(names), tuple(relators)), tuple(gen_images)


# ---------------------------------------------------------------------------
# Tietze simplification

# Generator i (1-based) is the letter chr(2i) and its inverse chr(2i + 1), so
# the last generator's inverse must be a code point.
MAX_TIETZE_GENERATORS = (sys.maxunicode - 1) // 2


def _letter_codes(ngens: int) -> list[str]:
    """code[x] is the code point of the signed int letter x: chr(2i) for i,
    and chr(2i + 1) for -i at index -i.  A relator written in them is a str,
    whose rotations are its substrings when it is written twice."""
    return ["", *(chr(2 * i) for i in range(1, ngens + 1)),
            *(chr(2 * i + 1) for i in range(ngens, 0, -1))]


def _join_reduced(parts: Iterable[str]) -> str:
    """The free reduction of the join of freely reduced parts: letters cancel
    only where two parts meet."""
    out: list[str] = []
    for part in parts:
        i = 0
        while out and i < len(part) and ord(out[-1]) ^ ord(part[i]) == 1:
            out.pop()
            i += 1
        out.extend(part[i:] if i else part)
    return "".join(out)


class _TietzeEngine:
    """Tietze state on code-point strings: generator i (1-based, declaration
    order) is the letter chr(2i) and its inverse chr(2i + 1), so two letters
    cancel when their code points differ in the last bit alone.

    rels is the given list, rewritten in place, with "" where a relator is
    gone, so comparing positions compares list order.  _shortest_with_once
    picks every step, which re-enters only the relators that hold the
    eliminated generator.
    """

    def __init__(self, ngens: int, relators: list[str]):
        letters = range(2, 2 * ngens + 2)
        self.inv = {c: c ^ 1 for c in letters}
        self.gen_of = {c: c & ~1 for c in letters}
        self.rels = relators
        self.letters = 0    # the letters of the relators kept
        self.held: dict[int, tuple] = {}      # position -> (cyclic reduction, bucket)
        self.buckets: dict[tuple, list[int]] = {}    # (length, generators) -> positions
        # generator code point -> positions whose relator may contain it; read
        # once, when the generator is eliminated
        self.occurs: defaultdict[int, set[int]] = defaultdict(set)
        self.heap: list[tuple[int, int]] = []  # (length, position); stale entries skipped
        for pos, s in enumerate(relators):
            self._enter(pos, s)
            if relators[pos]:
                for c in set(s):
                    self.occurs[ord(c) & ~1].add(pos)

    def _enter(self, pos: int, s: str) -> None:
        """Write s at pos and, if nonempty, bucket and queue it, unless an
        earlier relator equals it up to rotation and inversion; a later one
        is dropped."""
        self.rels[pos] = s
        if not s:
            return
        i, j = 0, len(s)
        while j - i >= 2 and ord(s[i]) ^ ord(s[j - 1]) == 1:
            i += 1
            j -= 1
        core = s[i:j]    # the cyclic reduction
        bucket = self.buckets.setdefault((j - i, frozenset(core.translate(self.gen_of))), [])
        for other in bucket:
            doubled = self.held[other][0] * 2
            if core in doubled or core[::-1].translate(self.inv) in doubled:
                if other < pos:
                    self.rels[pos] = ""
                    return
                self._drop(other)
                break
        self.held[pos] = core, bucket
        bucket.append(pos)
        heappush(self.heap, (len(s), pos))
        self.letters += len(s)

    def _drop(self, pos: int) -> str:
        s, self.rels[pos] = self.rels[pos], ""
        self.held.pop(pos)[1].remove(pos)
        self.letters -= len(s)
        return s

    def _shortest_with_once(self) -> tuple[int, int] | None:
        """(position, index of the latest once-occurring generator's letter) of
        the relator least by (length, position) with such a generator, or None."""
        heap, rels = self.heap, self.rels
        while heap:
            length, pos = heap[0]
            s = rels[pos]
            if len(s) == length:
                letters = set(s)
                for c in sorted(letters, reverse=True):
                    if chr(ord(c) ^ 1) not in letters and s.count(c) == 1:
                        return pos, s.index(c)
            heappop(heap)
        return None

    def eliminate(self) -> int | None:
        """Eliminate the latest generator occurring once in the shortest such
        relator; return it, or None when no relator has one.  CapacityError
        when the relators then hold more than MAX_REWRITE_LETTERS letters."""
        rels, occurs = self.rels, self.occurs
        step = self._shortest_with_once()
        if step is None:
            return None
        pos, i = step
        s = self._drop(pos)
        letter, letter_inv = s[i], chr(ord(s[i]) ^ 1)    # letter occurs once in s
        repl_inv = _join_reduced((s[i + 1:], s[:i]))    # letter * repl_inv is a rotation of s
        repl = repl_inv[::-1].translate(self.inv)

        touched = sorted(t for t in occurs.pop(ord(letter) & ~1)
                         if letter in (r := rels[t]) or letter_inv in r)
        # all old relators are released; on a clash the earlier position survives
        before = [self._drop(t) for t in touched]
        # a substitution cancels exactly where it writes one of these pairs, or
        # for an empty repl (empty pairs) where two pieces meet; chr(1) cuts them
        seams = repl_inv[-1:] + repl[:1], repl[-1:] + repl_inv[:1]
        cut, cut_inv = f"\x01{repl}\x01", f"\x01{repl_inv}\x01"
        for t, old in zip(touched, before):
            new = old.replace(letter, repl).replace(letter_inv, repl_inv)
            if seams[0] in new or seams[1] in new:
                pieces = old.replace(letter, cut).replace(letter_inv, cut_inv)
                new = _join_reduced(pieces.split("\x01"))
            self._enter(t, new)
        kept = [t for t in touched if rels[t]]
        for h in {ord(c) & ~1 for c in repl}:
            occurs[h].update(kept)
        if self.letters > MAX_REWRITE_LETTERS:
            raise CapacityError(f"a Tietze step left {self.letters} relator letters, "
                                f"past the cap of {MAX_REWRITE_LETTERS}")
        return ord(letter) >> 1


def tietze_simplify(p: Presentation) -> Presentation:
    """The same group by Tietze moves: first a signed union-find removes the
    generators that relators of cyclic length 1 or 2 make trivial or equal to
    another letter (_identify_short_generators); then each step of the
    engine takes the relator least by (length, list position) among those
    with a generator occurring exactly once in it, eliminates the
    latest-declared such generator, and substitutes the freely reduced
    rotation of that relator for it everywhere.  Empty relators are dropped;
    of two relators equal up to rotation and inversion the earlier in the
    list survives.  Steps repeat until no relator has such a generator.

    Refused before any work: a p that is not a Presentation (TypeError),
    symbolic relators (ValueError), more than MAX_TIETZE_GENERATORS
    generators (CapacityError).  A step that leaves more than
    MAX_REWRITE_LETTERS letters raises CapacityError.
    """
    if _require_presentation(p, "the presentation").symbolic_relators:
        raise ValueError("cannot simplify a presentation with symbolic relators")
    n = len(p.generators)
    if n > MAX_TIETZE_GENERATORS:
        raise CapacityError(f"{n} generators exceed the Tietze cap of {MAX_TIETZE_GENERATORS}")
    return _tietze_engine(p.generators, *_identify_short_generators(n, p.relators))


def _tietze_engine(names: Sequence[str], relators: Iterable[Relator], gone=()) -> Presentation:
    """The engine on relators over generators 1..len(names) less those in gone:
    tietze_simplify's second phase, and tests/tietze_reference.py's counterpart."""
    n = len(names)
    code = _letter_codes(n)
    engine = _TietzeEngine(n, ["".join(map(code.__getitem__, r)) for r in relators])
    gone = {*gone, *iter(engine.eliminate, None)}
    kept = [i for i in range(1, n + 1) if i not in gone]
    # survivors are renumbered, with one shared int per signed letter
    letter = {}
    for j, i in enumerate(kept, start=1):
        letter[chr(2 * i)], letter[chr(2 * i + 1)] = j, -j
    return Presentation(
        tuple(names[i - 1] for i in kept),
        tuple(tuple(map(letter.__getitem__, s)) for s in engine.rels if s))


def _identify_short_generators(n: int, relators: Sequence[Relator]) -> tuple[list, set[int]]:
    """tietze_simplify's first phase, a signed union-find on relators over
    generators 1..n: the relators rewritten and the letters eliminated, both
    signs.  Relators are read in list order, in rounds, rewritten through the
    representatives and freely reduced, until all their letters are
    representatives.  A cyclic reduction of one letter makes its generator
    trivial, one of two letters of distinct generators makes the later the
    inverse of the other, and the relator becomes empty.  On RS output the
    engine then gives what it gives alone, but not on every input."""
    # up[x] is the signed letter that x equals: x at a representative, 0 if
    # trivial; a negative letter is a negative index, and up[-x] = -up[x]
    up = [*range(n + 1), *range(-n, 0)]

    def find(x: int) -> int:
        path = []
        while (y := up[x]) != x and y:
            path.append(x)
            x = y
        for z in path:    # path compression
            up[z], up[-z] = y, -y
        return y

    rels = list(relators)
    gone: set[int] = set()    # the letters that are no longer representatives
    todo = range(len(rels))
    while todo:
        for t in todo:
            if not gone.isdisjoint(out := rels[t]):
                out = []
                for x in rels[t]:
                    if up[y := up[x]] != y:
                        y = find(x)
                    if out and out[-1] == -y:
                        out.pop()
                    elif y:
                        out.append(y)
            i = 0
            while len(out) - 2 * i >= 2 and out[i] == -out[-1 - i]:
                i += 1
            core = out[i:len(out) - i]
            if len(core) == 1 or len(core) == 2 and core[0] != core[1]:
                u, v = sorted(core, key=abs) if len(core) == 2 else (0, core[0])
                up[v], up[-v] = -u, u
                gone.update((v, -v))
                out = ()
            rels[t] = tuple(out)
        todo = [t for t, r in enumerate(rels) if not gone.isdisjoint(r)]
    return rels, gone


# ---------------------------------------------------------------------------
# abelianization


def abelianization(p: Presentation) -> tuple[tuple[int, ...], int]:
    """Invariant factors (> 1) and free rank of the abelianized group, by the
    Smith normal form of the relation matrix.  Computed once per Presentation
    object and kept in it, so a repeat call on that object, such as on a
    memoized Reidemeister-Schreier output, reads it back; an equal but
    distinct Presentation computes it afresh.  Anything that is not a
    Presentation (TypeError) and symbolic relators (ValueError) are refused
    on every call."""
    if _require_presentation(p, "the presentation").symbolic_relators:
        raise ValueError("cannot abelianize a presentation with symbolic relators")
    return p._abelianization


# ---------------------------------------------------------------------------
# extension presentations


@dataclass(frozen=True)
class LiftData:
    """Lifting data for assembling a presentation of a group extension; a
    kernel word is a freely reduced tuple of signed ints over the kernel's
    generators, numbered as in its presentation.

    lifts: quotient generator name -> lift name (disjoint from kernel names).
    conjugation: (quotient gen, kernel gen) -> the kernel word equal to
        lift * kernel_gen * lift^-1.
    evaluations: quotient relator index -> its value in the kernel, either a
        kernel word or a parameter name (undetermined exponent of the kernel
        generator; cyclic kernels only).
    Each is kept as a read-only copy of the mapping given; anything else is
    refused (TypeError).  extension_presentation checks the contents.
    """

    lifts: Mapping[str, str]
    conjugation: Mapping[tuple[str, str], Relator]
    evaluations: Mapping[int, Relator | str] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lifts", "conjugation", "evaluations"):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise TypeError(f"LiftData's {name} is a mapping, got {type(value).__name__}")
            object.__setattr__(self, name, MappingProxyType(dict(value)))


def _kernel_word(w, kernel: Presentation, what: str) -> Relator:
    """w, checked as a kernel word of LiftData; what names it in messages."""
    if type(w) is not tuple or any(type(x) is not int for x in w):
        raise TypeError(f"{what} is a tuple of signed ints, got {w!r}")
    _check_letters(w, len(kernel.generators), what)
    return w


def extension_presentation(kernel: Presentation, quotient: Presentation,
                           data: LiftData) -> Presentation:
    """Presentation of an extension of the kernel by the quotient:
    kernel relators + lifted relators (set to their kernel values) +
    conjugation relators.  TypeError for a kernel or quotient that is not a
    Presentation, data that is not a LiftData, a key that is not a str pair,
    a word that is not a tuple of ints (a bool is not an int) or an
    evaluation neither word nor str; ValueError for a key that names no
    quotient generator, kernel generator or quotient relator, or a word with
    a letter past the kernel's generators or not freely reduced."""
    _require_presentation(kernel, "the kernel")
    _require_presentation(quotient, "the quotient")
    if not isinstance(data, LiftData):
        raise TypeError(f"lift data is a LiftData, got {type(data).__name__}")
    if quotient.symbolic_relators or kernel.symbolic_relators:
        raise ValueError("nested symbolic relators are not supported")
    missing = [g for g in quotient.generators if g not in data.lifts]
    if missing:
        raise ValueError(f"missing lifts for quotient generators {missing}")
    for g in data.lifts:
        if g not in quotient.generators:
            raise ValueError(f"lift for {g!r}, which is not a quotient generator")
    for key, w in data.conjugation.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, str) for x in key)):
            raise TypeError(f"conjugation key must be a tuple of two str, got {key!r}")
        qg, kg = key
        if qg not in quotient.generators or kg not in kernel.generators:
            raise ValueError(f"conjugation word for ({qg!r}, {kg!r}), which is not a "
                             f"(quotient generator, kernel generator) pair")
        _kernel_word(w, kernel, f"conjugation word for ({qg!r}, {kg!r})")
    for idx in data.evaluations:
        if idx not in range(len(quotient.relators)):
            raise ValueError(f"evaluation for relator {idx!r}, but the quotient "
                             f"has {len(quotient.relators)} relators")
    lift_names = [data.lifts[g] for g in quotient.generators]
    clash = set(lift_names) & set(kernel.generators)
    if clash or len(set(lift_names)) != len(lift_names):
        raise ValueError(f"lift names must be fresh and distinct, got {lift_names}")
    shift = len(kernel.generators)

    relators: list[Relator] = list(kernel.relators)
    symbolic: list[SymbolicRelator] = []
    for idx, r in enumerate(quotient.relators):
        if idx not in data.evaluations:
            raise ValueError(f"missing evaluation for quotient relator {idx}")
        lifted = tuple(x + shift if x > 0 else x - shift for x in r)
        ev = data.evaluations[idx]
        if isinstance(ev, str):
            if len(kernel.generators) != 1:
                raise ValueError("symbolic evaluations need a cyclic kernel")
            symbolic.append(SymbolicRelator(lifted, 1, ev))
        elif isinstance(ev, tuple):
            what = f"evaluation for quotient relator {idx}"
            relators.append(lifted + _inverted(_kernel_word(ev, kernel, what)))
        else:
            raise TypeError(f"evaluation for quotient relator {idx} is a kernel word or "
                            f"a parameter name (str), got {ev!r}")
    for lift, qg in enumerate(quotient.generators, start=shift + 1):
        for kg, name in enumerate(kernel.generators, start=1):
            if (qg, name) not in data.conjugation:
                raise ValueError(f"missing conjugation word for ({qg}, {name})")
            relators.append((lift, kg, -lift) + _inverted(data.conjugation[(qg, name)]))

    return Presentation((*kernel.generators, *lift_names), tuple(relators), tuple(symbolic))
