"""validate against the Fraction-based version it replaced
(tests/validate_reference.py): the two must give equal reports on every data
set, valid or not, normalized or not."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftmcg.datasets import (
    COND_I,
    COND_II,
    COND_III,
    COND_IV,
    COND_V,
    RH_NON_INTEGER,
    SCOPE_GENUS,
    DataSet,
    validate,
)

import validate_reference as reference

# derandomized, so that Tier-1 runs the same examples on every run
TIER1 = settings(derandomize=True, max_examples=500, deadline=None)

# one data set per label it carries, pinned as explicit examples
LABELED = (
    (COND_I, DataSet(4, 0, ((0, 1), (1, 4), (3, 4)))),        # m = 1
    (COND_I, DataSet(6, 0, ((1, 4), (1, 6), (1, 6)))),        # m does not divide n
    (COND_I, DataSet(4, 0, ((2, 4), (2, 4)))),                # gcd(d, m) > 1
    (COND_II, DataSet(3, 1, ((1, 3),))),
    (COND_III, DataSet(4, 0, ((1, 2),) * 4)),
    (COND_IV, DataSet(3, 0, ((1, 3), (1, 3)))),
    (RH_NON_INTEGER, DataSet(2, 0, ((1, 2),) * 3)),
    (COND_V, DataSet(4, 0, ((1, 2), (1, 2)))),
    (SCOPE_GENUS, DataSet(6, 0, ((1, 2), (1, 3), (1, 6)))),
)


@st.composite
def data_sets(draw):
    """Degree 2-130, quotient genus 0-3, 0-12 pairs (at least one on a sphere),
    d in -100..100 and m in 1-60, half the orders drawn among the divisors of n
    so that valid data sets occur."""
    n = draw(st.integers(2, 130))
    g0 = draw(st.integers(0, 3))
    divisors = [m for m in range(1, 61) if n % m == 0]
    order = st.one_of(st.integers(1, 60), st.sampled_from(divisors))
    pair = st.tuples(st.integers(-100, 100), order)
    pairs = draw(st.lists(pair, min_size=1 if g0 == 0 else 0, max_size=12))
    return DataSet(n, g0, tuple(pairs))


def test_labeled_examples_carry_their_labels():
    for label, ds in LABELED:
        report = reference.validate(ds)
        assert label in report.violations + report.flags, (label, ds)


def _with_labeled_examples(test):
    for _, ds in LABELED:
        test = example(ds)(test)
    return test


@TIER1
@given(data_sets())
@_with_labeled_examples
def test_validate_equals_reference(ds):
    assert validate(ds) == reference.validate(ds)
