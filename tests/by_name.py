"""Words by generator name, for tests that type presentations by hand.

The library writes every word as a freely reduced tuple of signed ints; a
Word of (name, +-1) letters is compiled into one against the generators it
is written over.  Word, gen, word, commutator and compile_word are the
library's former by-name builders, kept verbatim so that hand-typed test
data, and the derandomized strategies built on them, stay as they were.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

from liftmcg.fpgroups import Presentation, Relator

Letter = tuple[str, int]


@dataclass(frozen=True)
class Word:
    """A freely reduced word by generator name."""

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


def from_words(generators: Sequence[str], relators: Iterable[Word] = ()) -> Presentation:
    """The presentation on the named generators whose relators are the Words."""
    index = {name: i for i, name in enumerate(generators, start=1)}
    return Presentation(tuple(generators), tuple(compile_word(w, index) for w in relators))
