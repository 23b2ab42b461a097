"""The Tietze engine as it stood before its rewrite on code-point strings,
kept verbatim as a test oracle: tietze_simplify here and in liftmcg.fpgroups
must give equal presentations on every input."""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from operator import neg

from liftmcg.fpgroups import Presentation


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
    engine = _TietzeEngine(len(names), list(p.relators))
    gone = set()
    while (g := engine.eliminate()) is not None:
        gone.add(g)
    kept = [i for i in range(1, len(names) + 1) if i not in gone]
    # survivors renumbered in declaration order
    letter = {sign * i: sign * j for j, i in enumerate(kept, start=1) for sign in (1, -1)}
    return Presentation(
        tuple(names[i - 1] for i in kept),
        tuple(tuple(map(letter.__getitem__, r)) for r in engine.relators()))
