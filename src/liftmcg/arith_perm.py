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

The Smith normal form first splits off unit rows, +-x_j and +-x_i +- x_j,
as substitutions through a table of column links; most rows of a
Reidemeister-Schreier relation matrix read so once earlier substitutions
are made.  One elimination loop on the sparse rows left then pivots on
entries of least absolute value in the columns met by the fewest rows.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

Perm = tuple[int, ...]

# bounds Reidemeister-Schreier's coset table (fpgroups): index x generators
MAX_MATERIALIZED = 2_000_000
# bounds Reidemeister-Schreier's rewriting (fpgroups): index x the letters of
# the relators it rewrites; no class of genus <= 12 predicts more than 7.3M
MAX_REWRITE_LETTERS = 20_000_000
# bounds the trivial-subgroup route (analysis): Tietze on PMod(S_{0,k}) grows as
# k^6, 2.5 s at k = 24 on 2 vCPUs; no class of genus <= 30 takes it above k = 9
MAX_PMOD_SPHERE_DEGREE = 24


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
    """Build a permutation from disjoint 1-based cycles."""
    out = list(range(degree))
    seen = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= degree:
                raise ValueError(f"point {a} out of range 1..{degree}")
            if a in seen:
                raise ValueError(f"point {a} appears twice in the cycles {cycles}")
            seen.add(a)
            out[a - 1] = b - 1
    return tuple(out)


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of a permutation, 1-based, each from its least point."""
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p!r} is not a permutation of 0..{len(p) - 1}")
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
    modified.  A column, value or ncols that is not an int raises TypeError,
    a column out of range or ncols < 0 ValueError; a bool counts as 0 or 1.

    The reduction works on the sparse rows throughout (Havas-Holt-Rees,
    "Recognizing badly presented Z-modules", 1993).  Unit rows go first, as
    substitutions: each row is read through a table of column links, and a
    row that then reads +-x_j sets x_j = 0, one that reads +-x_i +- x_j
    (i < j) sets x_j to -+x_i.  Either is a unimodular step that splits off
    an invariant factor 1, and the row is not stored.  A stored row that
    holds a column linked after it is read again, found through an index of
    the rows holding each column, until no stored row holds a linked column.
    _diagonalize splits the rows left into diagonal entries, which pairwise
    gcd/lcm steps then turn into the divisibility chain.
    """
    if type(ncols) is not int:
        raise TypeError(f"ncols must be an int, got {ncols!r}")
    if ncols < 0:
        raise ValueError(f"ncols must be >= 0, got {ncols}")
    live: dict[int, dict[int, int]] = {}
    # j -> (root, sign) for x_j = sign * x_root; (-1, 0) for x_j = 0
    link: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(rows):
        try:  # a sum of ints (bools among them) is an int, and only such a sum
            exact = type(sum(row)) is int and type(sum(row.values())) is int
        except TypeError:
            exact = False
        if not exact:
            raise TypeError(f"row {i} has a column or value that is not an int")
        entries = {j: v for j, v in row.items() if v}
        if entries:
            if min(entries) < 0 or max(entries) >= ncols:
                raise ValueError(f"row {i} has a column outside 0..{ncols - 1}")
            if link and not link.keys().isdisjoint(entries):
                entries = _read(entries, link)
                if not entries:
                    continue
            if _link_unit(entries, link) is None:
                live[i] = entries
    # the stored rows that hold a column linked after them
    queue = [i for i, row in live.items() if not link.keys().isdisjoint(row)]
    if queue:
        holders: dict[int, list[int]] = defaultdict(list)  # column -> rows stored with it
        for i, row in live.items():
            for j in row:
                holders[j].append(i)
        while queue:
            i = queue.pop()
            row = live.get(i)
            if row is None or link.keys().isdisjoint(row):
                continue
            entries = _read(row, link)
            j = _link_unit(entries, link) if entries else None
            if j is None and entries:
                live[i] = entries
                for j in entries.keys() - row.keys():
                    holders[j].append(i)
            else:
                del live[i]
                if j is not None:
                    queue += holders.get(j, ())
    diagonal = _diagonalize(live)
    factors = [d for d in diagonal if d != 1]
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            x, y = factors[a], factors[b]
            factors[a], factors[b] = gcd(x, y), lcm(x, y)
    factors = [1] * (len(link) + len(diagonal) - len(factors)) + factors

    for x, y in zip(factors, factors[1:]):
        if y % x:
            raise InternalInvariantError(f"divisibility chain broken: {factors}")
    return tuple(factors), ncols - len(factors)


def _link_unit(row: dict[int, int], link: dict[int, tuple[int, int]]) -> int | None:
    """Link and return the column that a row of root columns eliminates when
    it reads +-x_j (x_j = 0) or +-x_i +- x_j with i < j (x_j = -+x_i); None,
    and no link, for any other row."""
    if len(row) == 1:
        (j, v), = row.items()
        if v == 1 or v == -1:
            link[j] = (-1, 0)
            return j
    elif len(row) == 2:
        (i, a), (j, b) = sorted(row.items())
        if (a == 1 or a == -1) and (b == 1 or b == -1):
            link[j] = (i, -a * b)
            return j
    return None


def _read(row: dict[int, int], link: dict[int, tuple[int, int]]) -> dict[int, int]:
    """The row with each linked column replaced by its root, zero entries
    dropped."""
    out: dict[int, int] = {}
    for j, v in row.items():
        if j in link:
            root, sign = link[j]
            if root in link:
                root, sign = _root(j, link)
            if not sign:
                continue
            j, v = root, v * sign
        w = out.get(j, 0) + v
        if w:
            out[j] = w
        else:
            del out[j]
    return out


def _root(j: int, link: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """(root, sign) with x_j = sign * x_root, sign 0 when x_j = 0; the links
    on the way are shortened to point at the root."""
    path = []
    while j in link:
        path.append(j)
        j = link[j][0]
    sign = 1
    for p in reversed(path):
        sign *= link[p][1]
        link[p] = (j, sign)
    return j, sign


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
