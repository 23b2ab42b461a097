"""Exact modular arithmetic, permutations, coset tables, Smith normal form.

Conventions used throughout the package:

* Residues mod n are plain ints in [0, n).
* A permutation of degree k is a tuple ``p`` of length k with 0-based entries,
  ``p[i]`` being the image of i.  Marked points are numbered 1..k in all
  human-facing output (cycle strings, pair lists), 0..k-1 internally.
* Composition is right-to-left: ``compose(p, q)`` maps i to ``p[q[i]]``, i.e.
  q is applied first.  This is the one place the convention is fixed; every
  other module relies on it.
* Integer matrices are sequences of equal-length int rows; all arithmetic is
  exact (Python big ints).

A coset table is the Schreier graph of the right cosets of a subgroup H,
built by BFS over canonical coset labels that H supplies (``coset_key``).
PermGroup, a materialized group, is the reference implementation; the
analysis uses genvec.VectorStabilizer, which labels cosets without storing H.

The Smith normal form first eliminates +-1 pivots on sparse rows, choosing
the pivot column met by the fewest rows, and runs a dense full-pivot loop
only on the block that is left; relation matrices of Reidemeister-Schreier
presentations are sparse and nearly all +-1, so that block is small.
"""

from __future__ import annotations

from math import factorial, gcd
from operator import itemgetter

Perm = tuple[int, ...]

# perm_closure stores whole groups, so it refuses degrees past 12; the
# materialization cap bounds both its element store and the size of a coset
# table.
MAX_DEGREE = 12
MAX_MATERIALIZED = 2_000_000


class CapacityError(ValueError):
    """Raised when an operation would exceed the desk-scale guards."""


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


def smith_normal_form(mat, ncols: int | None = None) -> tuple[tuple[int, ...], int]:
    """Invariant factors (d_1 | d_2 | ..., 1s included) and free rank of an
    integer matrix.

    Rows are relations on ncols unknowns; the free rank is ncols - rank.
    ncols is only needed when mat has no rows.

    Relation matrices from Reidemeister-Schreier are sparse and nearly all
    +-1, so the matrix is first reduced sparsely (Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993): rows become
    {column: value} dicts and every +-1 entry that remains is used as a
    pivot, each splitting off an invariant factor 1.  Rows are visited
    shortest first, and within a row the +-1 column met by the fewest live
    rows is taken, which keeps fill-in low.  The dense full-pivot loop then
    finishes the small block left over, over its nonzero columns only.
    """
    rows, ncols = _sparse_rows(mat, ncols)
    units = _eliminate_unit_pivots(rows)
    used = sorted({j for row in rows.values() for j in row})
    block = [[row.get(j, 0) for j in used] for row in rows.values()]
    factors = [1] * units + _dense_factors(block, len(used))

    for x, y in zip(factors, factors[1:]):
        if y % x:
            raise InternalInvariantError(f"divisibility chain broken: {factors}")
    return tuple(factors), ncols - len(factors)


def _sparse_rows(mat, ncols: int | None) -> tuple[dict[int, dict[int, int]], int]:
    """Nonzero rows of mat as {row number: {column: value}}, and the width."""
    rows: dict[int, dict[int, int]] = {}
    width = None
    for i, row in enumerate(mat):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        entries = {j: int(v) for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
    if width is None:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        return rows, ncols
    if ncols is not None and ncols != width:
        raise ValueError(f"ncols={ncols} does not match row width {width}")
    return rows, width


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Pivot on +-1 entries in place until none is left; return the count.

    A pivot row is subtracted from every other row meeting its pivot column.
    Column operations would then clear the rest of the pivot row without
    touching any other row, so the row and column split off as a block [+-1]
    and are dropped.  Rows that become zero are dropped too.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    progress = True
    while progress:
        progress = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows.get(i)
            if row is None:
                continue
            pj = None
            for j, v in row.items():
                if (v == 1 or v == -1) and (pj is None or len(cols[j]) < len(cols[pj])):
                    pj = j
            if pj is None:
                continue
            del rows[i]
            for j in row:
                cols[j].discard(i)
            sign = row.pop(pj)
            for r in cols.pop(pj):
                other = rows[r]
                q = other.pop(pj) * sign
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
            pivots += 1
            progress = True
    return pivots


def _dense_factors(a: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors of a dense matrix by full-pivot elimination (a is
    overwritten)."""
    nrows = len(a)
    factors: list[int] = []
    t = 0
    while True:
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        # clear row and column t; restarts when a remainder undercuts the pivot
        while True:
            dirty = False
            for i in range(nrows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(ncols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break

        d = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(ncols):
                a[t][j] += a[offender][j]
            continue
        factors.append(abs(d))
        t += 1
    return factors
