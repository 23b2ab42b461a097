"""validate as it stood before its rewrite on ints, kept verbatim as a test
oracle: validate here and in liftmcg.datasets must give equal reports on
every data set."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from liftmcg.datasets import (
    COND_I,
    COND_II,
    COND_III,
    COND_IV,
    COND_V,
    RH_NON_INTEGER,
    SCOPE_GENUS,
    DataSet,
    Pair,
    ValidationReport,
)


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
