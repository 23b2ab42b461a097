"""Cyclic data sets: validation, equivalence, canonical forms, enumeration, families.

A data set ``(n, g0; (d_1,n_1), ..., (d_k,n_k))`` records a degree-n cyclic
action: n_i are the branch orders, d_i the local rotation exponents.  Pairs
are stored with d reduced into (0, n_i) and sorted by (n_i, d_i); the text
grammar is ``(n,g0;(d,m),...)`` with an optional ``(d,m)_r`` repetition
suffix, and negative d is accepted and reduced on parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from .arith_perm import CapacityError, InternalInvariantError, OutOfScopeError, Perm, units_mod

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


@dataclass(frozen=True, order=True)
class DataSet:
    n: int
    g0: int
    pairs: tuple[Pair, ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return render_dataset(self)


def dataset(n: int, g0: int, pairs) -> DataSet:
    """Normalized DataSet: d reduced mod its order, pairs sorted by (m, d)."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    if g0 < 0:
        raise ValueError(f"orbifold genus must be >= 0, got {g0}")
    norm = []
    for d, m in pairs:
        if m < 1:
            raise ValueError(f"branch order must be >= 1, got {m}")
        norm.append((d % m, m))
    if g0 == 0 and not norm:
        raise ValueError("a genus-0 quotient needs at least one branch point")
    norm.sort(key=lambda dm: (dm[1], dm[0]))
    return DataSet(n, g0, tuple(norm))


@dataclass(frozen=True)
class ValidationReport:
    genus: int | None
    violations: tuple[str, ...]
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _rh_genus(n: int, g0: int, pairs: tuple[Pair, ...]) -> Fraction:
    total = sum(Fraction(m - 1, m) for _, m in pairs)
    return 1 + Fraction(n, 2) * (2 * g0 - 2 + total)


def validate(ds: DataSet) -> ValidationReport:
    """Check the five data-set conditions; genus is reported only when all pass.

    Genus < 2 is arithmetically fine but flagged (classification refuses it).
    """
    n, g0, pairs = ds.n, ds.g0, ds.pairs
    violations: list[str] = []

    if any(m < 2 or n % m != 0 or gcd(d, m) != 1 for d, m in pairs):
        violations.append(COND_I)

    orders = [m for _, m in pairs]
    full = reduce(lcm, orders, 1)
    if any(reduce(lcm, orders[:i] + orders[i + 1:], 1) != full
           for i in range(len(orders))):
        violations.append(COND_II)

    if g0 == 0 and full != n:
        violations.append(COND_III)

    angle_sum = sum(Fraction(n, m) * d for d, m in pairs)
    if angle_sum.denominator != 1 or angle_sum % n != 0:
        violations.append(COND_IV)

    g = _rh_genus(n, g0, pairs)
    if g.denominator != 1:
        violations.append(RH_NON_INTEGER)
    elif g < 0:
        violations.append(COND_V)

    if violations:
        return ValidationReport(None, tuple(violations), ())
    genus = int(g)
    flags = (SCOPE_GENUS,) if genus < 2 else ()
    return ValidationReport(genus, (), flags)


def require_valid(ds: DataSet) -> ValidationReport:
    """The validation report; OutOfScopeError naming the failed conditions."""
    report = validate(ds)
    if not report.ok:
        raise OutOfScopeError("invalid: " + ", ".join(report.violations))
    return report


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
    """A pair (unit, sigma) with (unit*d_i mod n_i, n_i) = d2.pairs[sigma[i]], or None."""
    if (d1.n, d1.g0, d1.k) != (d2.n, d2.g0, d2.k):
        return None
    require_modulus(d1.n)
    target = list(d2.pairs)
    for unit in units_mod(d1.n):
        scaled = [((unit * d) % m, m) for d, m in d1.pairs]
        if sorted(scaled) != sorted(target):
            continue
        used = [False] * len(target)
        sigma = [0] * len(target)
        for i, pair in enumerate(scaled):
            for j, other in enumerate(target):
                if not used[j] and other == pair:
                    used[j] = True
                    sigma[i] = j
                    break
        return unit, tuple(sigma)
    return None


def are_equivalent(d1: DataSet, d2: DataSet) -> bool:
    return equivalence_witness(d1, d2) is not None


def canonical_form(ds: DataSet) -> DataSet:
    """Lexicographically least sorted pair list over all unit multiples;
    n > MAX_MODULUS raises CapacityError, as do the equivalence tests."""
    require_modulus(ds.n)
    best = min(_scaled_key(ds.pairs, unit) for unit in units_mod(ds.n))
    pairs = tuple((d, m) for m, d in best)
    return DataSet(ds.n, ds.g0, pairs)


# ---------------------------------------------------------------------------
# enumeration


def _divisor_signatures(n: int, target: Fraction) -> list[tuple[int, ...]]:
    """Non-decreasing multisets of divisors (>= 2) of n with sum(1 - 1/m) = target."""
    divisors = [m for m in range(2, n + 1) if n % m == 0]
    out: list[tuple[int, ...]] = []

    def rec(start: int, remaining: Fraction, acc: list[int]) -> None:
        if remaining == 0:
            if acc:
                out.append(tuple(acc))
            return
        if remaining < Fraction(1, 2):
            return
        for idx in range(start, len(divisors)):
            m = divisors[idx]
            term = Fraction(m - 1, m)
            if term <= remaining:
                acc.append(m)
                rec(idx, remaining - term, acc)
                acc.pop()

    rec(0, target, [])
    return out


def _signature_admissible(n: int, sig: tuple[int, ...]) -> bool:
    full = reduce(lcm, sig, 1)
    if full != n:
        return False
    return all(reduce(lcm, sig[:i] + sig[i + 1:], 1) == full
               for i in range(len(sig)))


def _spherical_for_degree(genus: int, n: int) -> list[DataSet]:
    target = Fraction(2 * genus - 2, n) + 2
    found: set[tuple[tuple[int, int], ...]] = set()
    for sig in _divisor_signatures(n, target):
        if not _signature_admissible(n, sig):
            continue
        orders = sorted(set(sig))
        counts = [sig.count(m) for m in orders]
        unit_lists = [[d for d in range(1, m) if gcd(d, m) == 1] for m in orders]
        choice_sets = [
            list(combinations_with_replacement(units, count))
            for units, count in zip(unit_lists, counts)
        ]
        for combo in product(*choice_sets):
            pairs = tuple(
                (d, m)
                for m, block in zip(orders, combo)
                for d in block
            )
            if sum((n // m) * d for d, m in pairs) % n != 0:
                continue
            found.add(min(_scaled_key(pairs, u) for u in units_mod(n)))
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
    (n, pairs).
    """
    if not 2 <= genus <= MAX_ENUM_GENUS:
        raise ValueError(f"genus must be in [2, {MAX_ENUM_GENUS}], got {genus}")
    out: list[DataSet] = []
    for n in range(2, 4 * genus + 3):
        out.extend(_spherical_for_degree(genus, n))
    return out


# ---------------------------------------------------------------------------
# named families


def hyperelliptic(genus: int) -> DataSet:
    """Order-2 action with 2g+2 branch points."""
    if genus < 2:
        raise ValueError(f"hyperelliptic family needs genus >= 2, got {genus}")
    ds = dataset(2, 0, ((1, 2),) * (2 * genus + 2))
    require_valid(ds)
    return ds


def balanced_superelliptic(n: int, k: int) -> DataSet:
    """Degree-n action with k+1 alternating (1,n), (-1,n) pairs; genus k(n-1)."""
    if n < 2 or k < 1:
        raise ValueError(f"balanced superelliptic family needs n >= 2, k >= 1, got n={n}, k={k}")
    ds = dataset(n, 0, ((1, n), (n - 1, n)) * (k + 1))
    require_valid(ds)
    return ds


def doubled(base: DataSet) -> DataSet:
    """Glue an order-n rotation to its inverse along their central fixed points.

    The base is a 3-pair spherical tuple containing the center pair (1, n);
    that pair is dropped and each remaining pair (d, m) contributes (d, m)
    and (-d, m).  The base orders must satisfy the divisor conditions, but
    its closing sum is not required: the printed center exponent is a
    power-normalized stand-in and only the two non-center pairs survive.
    The result is fully validated and has twice the genus of the base.
    """
    if base.k != 3 or base.g0 != 0:
        raise ValueError(f"doubled family needs a 3-pair spherical base, got {base}")
    if (1, base.n) not in base.pairs:
        raise ValueError(f"doubled family needs a base containing (1,{base.n})")
    structural = set(validate(base).violations) - {COND_IV, RH_NON_INTEGER, COND_V}
    if structural:
        raise ValueError(
            f"doubled family base violates {', '.join(sorted(structural))}: {base}")
    rest = list(base.pairs)
    rest.remove((1, base.n))
    pairs = []
    for d, m in rest:
        pairs.append((d, m))
        pairs.append((-d, m))
    ds = dataset(base.n, 0, pairs)
    require_valid(ds)
    return ds


_FAMILIES = {
    "hyperelliptic": hyperelliptic,
    "balanced_superelliptic": balanced_superelliptic,
    "doubled": doubled,
}


def make_family(name: str, *args, **kwargs) -> DataSet:
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}") from None
    return builder(*args, **kwargs)


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
        self.pos = 0

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
        self.skip_ws()
        start = self.pos
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
    repetition is expanded.
    """
    sc = _Scanner(text)
    sc.expect("(")
    n = sc.integer()
    sc.expect(",")
    g0 = sc.integer()
    sc.expect(";")
    pairs: list[Pair] = []
    while sc.peek() != ")":
        sc.expect("(")
        d = sc.integer()
        sc.expect(",")
        m = sc.integer()
        sc.expect(")")
        reps = 1
        if sc.peek() == "_":
            sc.expect("_")
            reps = sc.integer()
            if reps < 1:
                sc.error("repetition count must be >= 1")
        if len(pairs) + reps > MAX_BRANCH_POINTS:
            raise CapacityError(f"{len(pairs) + reps} branch points exceed "
                                f"the cap of {MAX_BRANCH_POINTS}")
        pairs.extend([(d, m)] * reps)
        if sc.peek() == ",":
            sc.expect(",")
        elif sc.peek() != ")":
            sc.error("expected ',' or ')'")
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.error("trailing input after data set")
    try:
        return dataset(n, g0, pairs)
    except ValueError as exc:
        raise DataSetParseError(str(exc), 1, 1) from None


def render_dataset(ds: DataSet) -> str:
    """Inverse of parse_dataset; runs of equal pairs use the _r suffix."""
    chunks = []
    i = 0
    while i < len(ds.pairs):
        j = i
        while j < len(ds.pairs) and ds.pairs[j] == ds.pairs[i]:
            j += 1
        d, m = ds.pairs[i]
        chunk = f"({d},{m})"
        if j - i > 1:
            chunk += f"_{j - i}"
        chunks.append(chunk)
        i = j
    return f"({ds.n},{ds.g0};" + ",".join(chunks) + ")"
