"""Exact modular arithmetic, permutations, coset tables, Smith normal form.

Conventions used throughout the package:

* Residues mod n are plain ints in [0, n).
* A permutation of degree k is a tuple ``p`` of length k with 0-based entries,
  ``p[i]`` being the image of i.  Marked points are numbered 1..k in all
  human-facing output (cycle strings, pair lists), 0..k-1 internally.
* Composition is right-to-left: ``compose(p, q)`` maps i to ``p[q[i]]``, i.e.
  q is applied first.  This is the one place the convention is fixed; every
  other module relies on it.
* Integer arithmetic is exact (Python big ints).  smith_normal_form takes a
  matrix as a list of sparse rows, {column: value} dicts, and its column
  count.

A coset table is the Schreier graph of the right cosets of a subgroup H,
built by BFS over canonical coset labels that H supplies (``coset_key``).
PermGroup, a materialized group, is the reference implementation; the
analysis uses genvec.VectorStabilizer, which labels cosets without storing H.

The Smith normal form is one elimination loop on the sparse rows, pivoting
on entries of least absolute value in the columns met by the fewest rows;
relation matrices of Reidemeister-Schreier presentations are sparse and
nearly all +-1, so +-1 pivots do almost all of the work.
"""

from __future__ import annotations

from math import factorial, gcd, lcm
from operator import itemgetter

Perm = tuple[int, ...]

# perm_closure stores whole groups, so it refuses degrees past 12; the
# materialization cap bounds both its element store and the size of a coset
# table.
MAX_DEGREE = 12
MAX_MATERIALIZED = 2_000_000


class CapacityError(ValueError):
    """Raised when an operation would exceed the desk-scale guards."""


class OutOfScopeError(ValueError):
    """Raised for input outside the analysis scope; the message is the reason."""


class InternalInvariantError(RuntimeError):
    """Raised when a result fails an internal consistency check: a bug in
    this package, not bad input."""


def units_mod(n: int) -> list[int]:
    """Multiplicative units mod n, ascending.

    For n = 1 the unit group is trivial and [0] is returned (0 == 1 mod 1).
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return [0]
    return [x for x in range(1, n) if gcd(x, n) == 1]


# ---------------------------------------------------------------------------
# permutations


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)): apply q first, then p."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def transposition(i: int, j: int, degree: int) -> Perm:
    """Swap of 1-based points i and j."""
    return perm_from_cycles([(i, j)], degree)


def perm_from_cycles(cycles: list[tuple[int, ...]], degree: int) -> Perm:
    """Build a permutation from 1-based cycles."""
    out = list(range(degree))
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle {cyc}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= degree:
                raise ValueError(f"point {a} out of range 1..{degree}")
            out[a - 1] = b - 1
    return tuple(out)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 1-based, each starting at its least point."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = p[x]
        cycles.append(tuple(cyc))
    return cycles


def perm_str(p: Perm) -> str:
    """Cycle-notation string, e.g. "(1,2)(3,4)"; identity is "()"."""
    cycles = cycles_of(p)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x) for x in cyc) + ")" for cyc in cycles)


def parse_perm(text: str, degree: int) -> Perm:
    """Inverse of perm_str."""
    s = text.replace(" ", "")
    if s in ("()", ""):
        return identity_perm(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad cycle string {text!r}")
    cycles = []
    for part in s[1:-1].split(")("):
        try:
            cyc = tuple(int(x) for x in part.split(","))
        except ValueError:
            raise ValueError(f"bad cycle string {text!r}") from None
        cycles.append(cyc)
    return perm_from_cycles(cycles, degree)


# ---------------------------------------------------------------------------
# permutation groups and coset tables


class PermGroup:
    """A subgroup of Sym(degree) with a materialized, sorted element list.

    The reference implementation: perm_closure builds it and tests compare
    the stabilizer groups of genvec against it.
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


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if degree > MAX_DEGREE:
        raise CapacityError(f"degree {degree} exceeds the cap of {MAX_DEGREE}")


def perm_closure(gens: list[Perm], degree: int) -> PermGroup:
    """Subgroup generated by gens, with deterministic (sorted) element order.

    Dimino's algorithm: the group of the first i generators is the union of
    right cosets of the group of the first i - 1, and a coset is added whole
    when a representative times a generator falls outside, so each element
    is composed once.
    """
    _check_degree(degree)
    for p in gens:
        if len(p) != degree:
            raise ValueError(f"generator degree {len(p)} != {degree}")
    elements = [identity_perm(degree)]
    members = set(elements)
    for i, g in enumerate(gens):
        if g in members:
            continue
        sub = elements[:]
        reps = [elements[0]]
        for r in reps:  # reps grows while it is walked
            for s in gens[:i + 1]:
                e = compose(r, s)
                if e not in members:
                    reps.append(e)
                    right = itemgetter(*e)  # right(h) = compose(h, e)
                    coset = [right(h) for h in sub]
                    members.update(coset)
                    elements += coset
                    if len(elements) > MAX_MATERIALIZED:
                        raise CapacityError(
                            f"closure exceeds {MAX_MATERIALIZED} elements")
    return PermGroup(degree, tuple(gens), tuple(sorted(elements)))


def coset_table(H, acting_gens: list[Perm]) -> list[list[int]]:
    """Right-coset action table for H <= Sym(k) under the acting generators.

    H is any group with ``degree``, ``order`` and ``coset_key(g)``, a label
    equal for g and g' exactly when H*g = H*g' (a PermGroup, or a
    genvec.VectorStabilizer).  table[c][i] is the index of coset
    c * acting_gens[i]; coset 0 is H itself and cosets are numbered by BFS
    from 0 with generators in input order (Reidemeister-Schreier relies on
    this).  The table is refused before any work when its predicted size,
    index k!/|H| times the generator count, exceeds MAX_MATERIALIZED.
    """
    degree = H.degree
    for p in acting_gens:
        if len(p) != degree:
            raise ValueError(f"acting generator degree {len(p)} != {degree}")
    index = factorial(degree) // H.order
    if index * len(acting_gens) > MAX_MATERIALIZED:
        raise CapacityError(
            f"coset table of predicted index {index} with {len(acting_gens)} "
            f"generators exceeds the cap of {MAX_MATERIALIZED} entries")

    reps: list[Perm] = [identity_perm(degree)]
    index_of: dict = {H.coset_key(reps[0]): 0}
    table: list[list[int]] = []
    c = 0
    while c < len(reps):
        row = []
        for g in acting_gens:
            img = compose(reps[c], g)
            key = H.coset_key(img)
            nxt = index_of.get(key)
            if nxt is None:
                nxt = len(reps)
                index_of[key] = nxt
                reps.append(img)
            row.append(nxt)
        table.append(row)
        c += 1
    return table


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(rows, ncols: int) -> tuple[tuple[int, ...], int]:
    """Invariant factors (d_1 | d_2 | ..., 1s included) and free rank of an
    integer matrix given as sparse rows.

    Each row is a {column: value} dict, a relation on ncols unknowns with
    columns 0..ncols-1; the free rank is ncols - rank.  The rows are not
    modified.

    The reduction works on the sparse rows throughout (Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993): _diagonalize splits the
    matrix into diagonal entries, which pairwise gcd/lcm steps then turn into
    the divisibility chain.
    """
    live: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        entries = {j: v for j, v in row.items() if v}
        if entries:
            if min(entries) < 0 or max(entries) >= ncols:
                raise ValueError(f"row {i} has a column outside 0..{ncols - 1}")
            live[i] = entries
    diagonal = _diagonalize(live)
    factors = [d for d in diagonal if d != 1]
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            x, y = factors[a], factors[b]
            factors[a], factors[b] = gcd(x, y), lcm(x, y)
    factors = [1] * (len(diagonal) - len(factors)) + factors

    for x, y in zip(factors, factors[1:]):
        if y % x:
            raise InternalInvariantError(f"divisibility chain broken: {factors}")
    return tuple(factors), ncols - len(factors)


def _diagonalize(rows: dict[int, dict[int, int]]) -> list[int]:
    """Reduce the sparse rows in place to a diagonal; return its entries |d|.

    Each pass visits the live rows shortest first.  A row whose least
    absolute value is at most the matrix's least at the start of the pass
    gives the pivot: an entry of that value, in the column met by the fewest
    rows.  While +-1 entries are left only rows holding one are pivoted,
    which keeps fill-in low on Reidemeister-Schreier matrices.  Floor
    multiples of the pivot row are subtracted from the other rows meeting
    the pivot column.  Once that column holds only the pivot row, column
    operations, which touch no other row, reduce the rest of the row modulo
    the pivot d; if nothing is left the row and column split off as the
    block [d].  Rows that become zero are dropped.

    Each pass ends with fewer rows or with an entry below the least value it
    started from, so the loop ends.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    diagonal: list[int] = []
    while rows:
        least = min(abs(v) for row in rows.values() for v in row.values())
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows.get(i)
            if row is None:
                continue
            pj, size = None, 0
            for j, v in row.items():
                a = abs(v)
                if pj is None or a < size or (a == size and len(cols[j]) < len(cols[pj])):
                    pj, size = j, a
            if size > least:
                continue
            d = row[pj]
            for r in list(cols[pj]):
                other = rows[r]
                q = other[pj] // d
                if r == i or not q:
                    continue
                for j, v in row.items():
                    w = other.get(j, 0) - q * v
                    if w:
                        if j not in other:
                            cols[j].add(r)
                        other[j] = w
                    elif j in other:
                        del other[j]
                        cols[j].discard(r)
                if not other:
                    del rows[r]
            if len(cols[pj]) > 1:
                continue
            for j in list(row):
                if j != pj:
                    w = row[j] % d
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        cols[j].discard(i)
            if len(row) == 1:
                del rows[i], cols[pj]
                diagonal.append(size)
    return diagonal
