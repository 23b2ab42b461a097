"""Exact modular arithmetic, permutations, Smith normal form.

Conventions used throughout the package:

* Residues mod n are plain ints in [0, n).
* A permutation of degree k is a tuple ``p`` of length k with 0-based entries,
  ``p[i]`` being the image of i.  Marked points are numbered 1..k in cycles
  and in all human-facing output (pair lists), 0..k-1 internally.
* Composition is right-to-left: ``compose(p, q)`` maps i to ``p[q[i]]``, i.e.
  q is applied first.  This is the one place the convention is fixed; every
  other module relies on it.
* Integer arithmetic is exact (Python big ints).  smith_normal_form takes a
  matrix as a list of sparse rows, {column: value} dicts, and its column
  count.

The analysis lists no subgroup of Sym(k): genvec.VectorStabilizer labels
right cosets (``coset_key``) instead.

The Smith normal form is one elimination loop on the sparse rows, pivoting
on entries of least absolute value in the columns met by the fewest rows;
relation matrices of Reidemeister-Schreier presentations are sparse and
nearly all +-1, so +-1 pivots do almost all of the work.
"""

from __future__ import annotations

from math import gcd, lcm

Perm = tuple[int, ...]

# bounds Reidemeister-Schreier's coset table (fpgroups): index x generators
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


def matching(src, dst) -> Perm | None:
    """The sigma with dst[sigma[j]] == src[j], pairing equal values in order
    of position (the i-th occurrence of x in src goes to the i-th in dst);
    None when src is not a rearrangement of dst.  The values must sort."""
    if sorted(src) != sorted(dst):
        return None
    slots: dict = {}
    for i in reversed(range(len(dst))):
        slots.setdefault(dst[i], []).append(i)
    return tuple([slots[x].pop() for x in src])


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
