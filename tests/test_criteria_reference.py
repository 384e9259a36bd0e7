"""Differential tests: pair criteria, witnesses and leveledness against the references."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import criteria_reference as ref
from kernel_views import one_agent, pair_eval, pair_item
from strategies import allocated_instances
from fairdual.criteria import BASES, ComparisonCriterion, is_fair
from fairdual.leveled import leveled_counterexample
from fairdual.model import Instance, InstanceError, ItemType

CRITERIA = tuple(
    ComparisonCriterion(base, orientation, wc)
    for base in BASES
    for orientation in ("goods", "chores")
    for wc in (False, True)
)

# Small values with zeros and many ties.
values = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


@st.composite
def pairs(draw):
    """One agent's valuation and two arbitrary bundles (overlapping or empty)."""
    names = [f"t{k}" for k in range(draw(st.integers(1, 6)))]
    valuation = {name: draw(values) for name in names}
    bundle = st.frozensets(st.sampled_from(names))
    return valuation, draw(bundle), draw(bundle)


@settings(max_examples=150, deadline=None)
@given(pairs())
# EF: an empty other side against a negative own value.
@example(({"t0": Fraction(-1)}, frozenset({"t0"}), frozenset()))
# EF1 forgives the largest entry (found second), EFX the smallest (found first).
@example(
    (
        {"t0": Fraction(1), "t1": Fraction(4), "t2": Fraction(2)},
        frozenset({"t2"}),
        frozenset({"t0", "t1"}),
    )
)
# EFX's smallest entry comes second, EF1's largest first.
@example(
    (
        {"t0": Fraction(4), "t1": Fraction(1), "t2": Fraction(2)},
        frozenset({"t2"}),
        frozenset({"t0", "t1"}),
    )
)
# EFL: three entries on the other side, one of which it may drop.
@example(
    (
        {"t0": Fraction(2), "t1": Fraction(2), "t2": Fraction(1), "t3": Fraction(3)},
        frozenset({"t3"}),
        frozenset({"t0", "t1", "t2"}),
    )
)
def test_pair_test_matches_the_reference(pair):
    valuation, bundle_i, bundle_u = pair
    instance = one_agent(valuation)
    for criterion in CRITERIA:
        verdict = pair_eval(criterion, valuation, bundle_i, bundle_u)
        assert verdict == ref.criterion_eval(criterion, valuation, bundle_i, bundle_u)
        if not verdict:
            item = pair_item(criterion, valuation, bundle_i, bundle_u)
            assert item == ref.offending_item(
                criterion, instance, valuation, bundle_i, bundle_u
            ), criterion


@settings(max_examples=120, deadline=None)
@given(allocated_instances())
def test_is_fair_witnesses_match_the_reference_loop(case):
    instance, allocation = case
    for criterion in CRITERIA:
        if criterion.orientation != instance.orientation():
            continue
        report = is_fair(instance, allocation, criterion)
        found = [(w.envious, w.envied, w.item) for w in report.witnesses]
        assert found == ref.witnesses(instance, allocation, criterion), criterion
        assert report.fair == (not found)


# Rows near a constant are often leveled; wide rows usually are not.
row_values = st.one_of(
    st.integers(0, 6).map(Fraction),
    st.integers(8, 10).map(lambda k: Fraction(k, 2)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(row_values, max_size=9))
def test_leveled_check_matches_the_reference(row):
    instance = Instance(
        agents=1,
        types=tuple(ItemType(f"t{k}", 1) for k in range(len(row))),
        values=(tuple(row),),
    )
    assert leveled_counterexample(instance, 0) == ref.leveled_counterexample(instance, 0)


def test_leveled_check_refuses_negative_values():
    instance = Instance(
        agents=1,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(-1)),),
    )
    with pytest.raises(InstanceError, match="negative values"):
        leveled_counterexample(instance, 0)
