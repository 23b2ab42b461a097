"""Cyclic data sets: validation, equivalence, canonical forms, enumeration, families.

A data set ``(n, g0; (d_1,n_1), ..., (d_k,n_k))`` records a degree-n cyclic
action: n_i are the branch orders, d_i the local rotation exponents.  Pairs
are stored with d reduced into [0, n_i) and sorted by (n_i, d_i); the text
grammar is ``(n,g0;(d,m),...)`` with an optional ``(d,m)_r`` repetition
suffix, and negative d is accepted and reduced on parse.

The conditions and the enumeration use exact integer arithmetic, over the
common denominator of the branch orders.  Enumeration is orderly (McKay,
1998): only sorted keys with first exponent 1 are built, the last exponent is
solved from the closing sum, and each new orbit is expanded only over the
units that send a first-block exponent to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from math import gcd, lcm

from .arith_perm import (
    CapacityError,
    InternalInvariantError,
    OutOfScopeError,
    Perm,
    matching,
    units_mod,
)

Pair = tuple[int, int]  # (d, m)

MAX_ENUM_GENUS = 30
# A genus-g class has at most 2g+2 branch points (the hyperelliptic one), so
# no enumerated class has more than this; parsing and analysis refuse more.
MAX_BRANCH_POINTS = 2 * MAX_ENUM_GENUS + 2
# Wiman: a cyclic action on a genus-g surface has order at most 4g+2, so no
# enumerated class has a larger modulus; code looping over the units refuses more.
MAX_MODULUS = 4 * MAX_ENUM_GENUS + 2

COND_I = "cond_i"
COND_II = "cond_ii"
COND_III = "cond_iii"
COND_IV = "cond_iv"
COND_V = "cond_v"
RH_NON_INTEGER = "rh_non_integer"
SCOPE_GENUS = "scope_genus"


def _require_ints(**fields) -> None:
    """TypeError naming the first field that is not an int (a bool is not)."""
    for name, value in fields.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True, order=True)
class DataSet:
    """A data set in its normal form: each d reduced into [0, m) and the
    pairs sorted by (m, d), after the types and ranges are checked.  Each
    pair has two items, else TypeError naming the pair, and every field is
    an int (a bool is not), else TypeError naming the field."""

    n: int
    g0: int
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        _require_ints(n=self.n, g0=self.g0)
        if self.n < 2:
            raise ValueError(f"degree must be >= 2, got {self.n}")
        if self.g0 < 0:
            raise ValueError(f"orbifold genus must be >= 0, got {self.g0}")
        for pair in self.pairs:
            try:
                d, m = pair
            except (TypeError, ValueError):
                raise TypeError(f"a pair must have two items (d, m), got {pair!r}") from None
            if type(d) is not int or type(m) is not int:
                name, value = ("d", d) if type(d) is not int else ("m", m)
                raise TypeError(f"{name} must be an int, got {value!r}")
            if m < 1:
                raise ValueError(f"branch order must be >= 1, got {m}")
        if self.g0 == 0 and not self.pairs:
            raise ValueError("a genus-0 quotient needs at least one branch point")
        object.__setattr__(self, "pairs", tuple(sorted(
            ((d % m, m) for d, m in self.pairs), key=lambda dm: (dm[1], dm[0]))))

    @property
    def k(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return render_dataset(self)


def dataset(n: int, g0: int, pairs) -> DataSet:
    """The DataSet of any iterable of (d, m) pairs."""
    return DataSet(n, g0, tuple(pairs))


@dataclass(frozen=True)
class ValidationReport:
    genus: int | None
    violations: tuple[str, ...]
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(ds: DataSet) -> ValidationReport:
    """Check the five data-set conditions; genus is reported only when all pass.

    Genus < 2 is arithmetically fine but flagged (classification refuses it);
    anything that is not a DataSet raises TypeError naming its type."""
    n, g0, pairs = require_dataset(ds).n, ds.g0, ds.pairs
    violations: list[str] = []

    if any(m < 2 or n % m != 0 or gcd(d, m) != 1 for d, m in pairs):
        violations.append(COND_I)

    orders = [m for _, m in pairs]
    r, full = riemann_hurwitz(n, g0, orders)
    if not _lcm_survives_a_drop(orders, full):
        violations.append(COND_II)

    if g0 == 0 and full != n:
        violations.append(COND_III)

    # sum (n/m)*d is an integer multiple of n, over the denominator full
    if sum(n * d * (full // m) for d, m in pairs) % (full * n):
        violations.append(COND_IV)

    if r % (2 * full):
        violations.append(RH_NON_INTEGER)
    elif r < 0:
        violations.append(COND_V)

    if violations:
        return ValidationReport(None, tuple(violations), ())
    genus = r // (2 * full)
    flags = (SCOPE_GENUS,) if genus < 2 else ()
    return ValidationReport(genus, (), flags)


def riemann_hurwitz(n: int, g0: int, orders) -> tuple[int, int]:
    """(r, full) with 2g = 2 + n*(2*g0 - 2 + sum (m-1)/m) = r / full, full the
    lcm of the branch orders (Riemann-Hurwitz over a common denominator)."""
    full = reduce(lcm, orders, 1)
    return 2 * full + n * ((2 * g0 - 2) * full + sum((m - 1) * (full // m) for m in orders)), full


def _lcm_survives_a_drop(orders: list[int], full: int) -> bool:
    """Whether the orders less any one still have lcm full; dropping a
    repeated order changes nothing, so only the singletons are tried."""
    distinct = set(orders)
    return all(reduce(lcm, distinct - {m}, 1) == full for m in distinct if orders.count(m) == 1)


def require_dataset(ds: DataSet) -> DataSet:
    """ds itself if it is a DataSet; else TypeError naming its type."""
    if not isinstance(ds, DataSet):
        raise TypeError(f"a data set must be a DataSet (parse_dataset reads one from text), "
                        f"got {type(ds).__name__}")
    return ds


def require_valid(ds: DataSet) -> DataSet:
    """ds itself, once it passes validate; else OutOfScopeError naming the
    failed conditions.  Anything that is not a DataSet raises TypeError
    naming its type, before any work."""
    report = validate(ds)
    if not report.ok:
        raise OutOfScopeError("invalid: " + ", ".join(report.violations))
    return ds


def require_modulus(n: int) -> None:
    """CapacityError past MAX_MODULUS, for code that loops over the units mod n."""
    if n > MAX_MODULUS:
        raise CapacityError(f"modulus {n} exceeds the cap of {MAX_MODULUS}")


# ---------------------------------------------------------------------------
# equivalence and canonical forms


def _scaled_key(pairs: tuple[Pair, ...], unit: int) -> tuple[tuple[int, int], ...]:
    # sorted (m, d) keys of the pair list after d -> unit*d mod m
    return tuple(sorted((m, (unit * d) % m) for d, m in pairs))


def equivalence_witness(d1: DataSet, d2: DataSet) -> tuple[int, Perm] | None:
    """A pair (unit, sigma) with (unit*d_i mod n_i, n_i) = d2.pairs[sigma[i]], or None;
    TypeError unless both are DataSets."""
    if (require_dataset(d1).n, d1.g0, d1.k) != (require_dataset(d2).n, d2.g0, d2.k):
        return None
    require_modulus(d1.n)
    for unit in units_mod(d1.n):
        sigma = matching([((unit * d) % m, m) for d, m in d1.pairs], d2.pairs)
        if sigma is not None:
            return unit, sigma
    return None


def are_equivalent(d1: DataSet, d2: DataSet) -> bool:
    return equivalence_witness(d1, d2) is not None


def canonical_form(ds: DataSet) -> DataSet:
    """Lexicographically least sorted pair list over all unit multiples;
    n > MAX_MODULUS raises CapacityError, as do the equivalence tests, and
    anything that is not a DataSet TypeError."""
    require_modulus(require_dataset(ds).n)
    best = min(_scaled_key(ds.pairs, unit) for unit in units_mod(ds.n))
    return DataSet(ds.n, ds.g0, tuple((d, m) for m, d in best))


# ---------------------------------------------------------------------------
# enumeration


def _signatures(n: int, total: int) -> list[tuple[int, ...]]:
    """Non-decreasing multisets of divisors (>= 2) of n with sum(n - n/m) = total
    whose lcm is n with any one entry dropped (conditions (ii) and (iii))."""
    divisors = [m for m in range(2, n + 1) if n % m == 0]
    terms = [n - n // m for m in divisors]  # increasing with m
    out: list[tuple[int, ...]] = []

    def rec(start: int, remaining: int, acc: list[int]) -> None:
        for idx in range(start, len(divisors)):
            rest = remaining - terms[idx]
            if rest < 0:
                break
            acc.append(divisors[idx])
            if rest == 0:
                if reduce(lcm, acc) == n and _lcm_survives_a_drop(acc, n):
                    out.append(tuple(acc))
            elif rest >= terms[idx]:  # else no later entry fits
                rec(idx, rest, acc)
            acc.pop()

    rec(0, total, [])
    return out


def _spherical_for_degree(genus: int, n: int) -> list[DataSet]:
    units = units_mod(n)
    # sorted (m, d) keys of every unit orbit met so far, and each one's least
    seen: set[tuple[tuple[int, int], ...]] = set()
    found: list[tuple[tuple[int, int], ...]] = []
    # the (m, d) key entries of each branch order m
    entries = {m: [(m, d) for d in units_mod(m)] for m in range(2, n + 1) if n % m == 0}
    # Riemann-Hurwitz with g0 = 0, times n: sum(n - n/m) = 2g - 2 + 2n
    for sig in _signatures(n, 2 * genus - 2 + 2 * n):
        # the sorted keys of sig starting (m_min, 1), each with its (n/m)*d sum
        m_min, m_last = sig[0], sig[-1]
        prefixes = [(((m_min, 1),), n // m_min)]
        for m in sig[1:-1]:
            prefixes = [(key + (md,), r + n // m * md[1])
                        for key, r in prefixes for md in entries[m] if md >= key[-1]]
        # the prefix's share of the closing sum mod n -> the last exponent
        closing = {n - n // m_last * d: d for _, d in entries[m_last]}
        for key, r in prefixes:
            d = closing.get(r % n)
            if d is None or key[-1] > (m_last, d):
                continue
            key += ((m_last, d),)
            if key in seen:
                continue
            # every image of key closes too; the loop meets again only those
            # starting (m_min, 1), and the lookup above skips them
            inverses = {pow(e, -1, m_min) for m, e in key if m == m_min}
            pairs = tuple((e, m) for m, e in key)
            orbit = {_scaled_key(pairs, u) for u in units if u % m_min in inverses}
            seen |= orbit
            found.append(min(orbit))
    out = []
    for key in sorted(found):
        ds = DataSet(n, 0, tuple((d, m) for m, d in key))
        report = validate(ds)
        if not report.ok or report.genus != genus:
            raise InternalInvariantError(f"enumerated {ds} is not a genus-{genus} data set")
        out.append(ds)
    return out


def enumerate_spherical(genus: int) -> list[DataSet]:
    """Canonical representatives of all genus-0-quotient classes of the given genus.

    Degrees are scanned up to the classical 4g+2 bound; output is sorted by
    (n, pairs).  Keys start (m_min, 1), as each unit orbit's least key does;
    the last exponent is solved from sum (n/m)*d = 0 mod n (Harvey, 1966); each
    new orbit is expanded over the units that send an order-m_min exponent to
    1, the only images the loop meets again, and its least image is emitted.
    """
    if type(genus) is not int or not 2 <= genus <= MAX_ENUM_GENUS:
        raise ValueError(f"genus must be an int in [2, {MAX_ENUM_GENUS}], got {genus!r}")
    return [ds for n in range(2, 4 * genus + 3) for ds in _spherical_for_degree(genus, n)]


# ---------------------------------------------------------------------------
# named families


def hyperelliptic(genus: int) -> DataSet:
    """Order-2 action with 2g+2 branch points."""
    _require_ints(genus=genus)
    if genus < 2:
        raise ValueError(f"hyperelliptic family needs genus >= 2, got {genus}")
    return require_valid(dataset(2, 0, ((1, 2),) * (2 * genus + 2)))


def balanced_superelliptic(n: int, k: int) -> DataSet:
    """Degree-n action with k+1 alternating (1,n), (-1,n) pairs; genus k(n-1)."""
    _require_ints(n=n, k=k)
    if n < 2 or k < 1:
        raise ValueError(f"balanced superelliptic family needs n >= 2, k >= 1, got n={n}, k={k}")
    return require_valid(dataset(n, 0, ((1, n), (n - 1, n)) * (k + 1)))


def doubled(base: DataSet) -> DataSet:
    """Glue an order-n rotation to its inverse along their central fixed points.

    The base is a 3-pair spherical tuple containing the center pair (1, n);
    that pair is dropped and each remaining pair (d, m) contributes (d, m)
    and (-d, m).  The base orders must satisfy the divisor conditions, but
    its closing sum is not required: the printed center exponent is a
    power-normalized stand-in and only the two non-center pairs survive.
    The result is fully validated and has twice the genus of the base.  A
    base that is not a DataSet raises TypeError."""
    if require_dataset(base).k != 3 or base.g0 != 0:
        raise ValueError(f"doubled family needs a 3-pair spherical base, got {base}")
    if (1, base.n) not in base.pairs:
        raise ValueError(f"doubled family needs a base containing (1,{base.n})")
    structural = set(validate(base).violations) - {COND_IV, RH_NON_INTEGER, COND_V}
    if structural:
        raise ValueError(
            f"doubled family base violates {', '.join(sorted(structural))}: {base}")
    rest = list(base.pairs)
    rest.remove((1, base.n))
    return require_valid(dataset(base.n, 0, [dm for d, m in rest for dm in ((d, m), (-d, m))]))


# ---------------------------------------------------------------------------
# text grammar


class DataSetParseError(ValueError):
    """Parse failure with 1-based line/column of the offending character."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = self.start = 0

    def _line_col(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def error(self, message: str, pos: int | None = None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise DataSetParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def integer(self) -> int:
        """The integer at the cursor; self.start keeps where it begins."""
        self.skip_ws()
        self.start = start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's limit on integer digits
            self.error(f"integer of {self.pos - start} characters is too long", start)


def parse_dataset(text: str) -> DataSet:
    """Parse the ``(n,g0;(d,m),(d,m)_r,...)`` grammar.

    More than MAX_BRANCH_POINTS pairs raise CapacityError before any
    repetition is expanded; a text that is not a str raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"data set text must be a str, got {text!r}")
    sc = _Scanner(text)
    sc.expect("(")
    n = sc.integer()
    # (start, refused) of each field that dataset() checks, in its order
    fields = [(sc.start, n < 2)]
    sc.expect(",")
    g0 = sc.integer()
    fields.append((sc.start, g0 < 0))
    sc.expect(";")
    pairs: list[Pair] = []
    while sc.peek() != ")":
        sc.expect("(")
        d = sc.integer()
        sc.expect(",")
        m = sc.integer()
        fields.append((sc.start, m < 1))
        sc.expect(")")
        reps = 1
        if sc.peek() == "_":
            sc.expect("_")
            reps = sc.integer()
            if reps < 1:
                sc.error("repetition count must be >= 1", sc.start)
        if len(pairs) + reps > MAX_BRANCH_POINTS:
            raise CapacityError(f"{len(pairs) + reps} branch points exceed "
                                f"the cap of {MAX_BRANCH_POINTS}")
        pairs.extend([(d, m)] * reps)
        if sc.peek() == ",":
            sc.expect(",")
        elif sc.peek() != ")":
            sc.error("expected ',' or ')'")
    fields.append((sc.pos, True))  # the closing ')' of an empty pair list
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input after data set")
    try:
        return dataset(n, g0, pairs)
    except ValueError as exc:
        refused = next(pos for pos, bad in fields if bad)
        raise DataSetParseError(str(exc), *sc._line_col(refused)) from None


def render_dataset(ds: DataSet) -> str:
    """Inverse of parse_dataset; runs of equal pairs use the _r suffix.
    TypeError for anything that is not a DataSet."""
    chunks = []
    for (d, m), run in groupby(require_dataset(ds).pairs):
        count = len(list(run))
        chunks.append(f"({d},{m})" + (f"_{count}" if count > 1 else ""))
    return f"({ds.n},{ds.g0};" + ",".join(chunks) + ")"
