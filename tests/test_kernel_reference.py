"""Differential test: the integer kernel against the Fraction references.

The benchmark's instances have integer values, so they never exercise the
scaling of each row by the LCM of its denominators. Here values are
rationals with denominators 1-7, zeros and ties (1/2 = 2/4 = 3/6). Existence,
counting, Nash welfare and `is_fair` must give exactly what the Fraction
pair test of `criteria_reference` gives on the plan of `plan_reference`.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import criteria_reference as ref
from fairdual.criteria import BASES, ComparisonCriterion, is_fair
from fairdual.model import Allocation, Instance, ItemType
from fairdual.search import count_fair, exists_fair, max_nash_welfare, plan_total
from plan_reference import plan_bundles

CRITERIA = tuple(
    ComparisonCriterion(base, orientation, wc)
    for base in BASES
    for orientation in ("goods", "chores")
    for wc in (False, True)
)

rationals = st.builds(Fraction, st.integers(0, 4), st.integers(1, 7))


@st.composite
def rational_instances(draw):
    """1-4 agents, 0-6 types with copies 1..n, goods or chores, plan of at most 200."""
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    while math.prod(math.comb(n, c) for c in copies) > 200:
        copies.pop()
    sign = draw(st.sampled_from([1, -1]))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(sign * draw(rationals) for _ in copies) for _ in range(n)),
    )


def applies(instance, criterion):
    return instance.goods_pure if criterion.orientation == "goods" else instance.chores_pure


@settings(max_examples=80, deadline=None)
@given(rational_instances())
def test_kernel_matches_the_fraction_reference(instance):
    plan = [Allocation(bundles) for bundles in plan_bundles(instance)]
    assert len(plan) == plan_total(instance)
    for criterion in filter(lambda c: applies(instance, c), CRITERIA):
        expected = [ref.witnesses(instance, a, criterion) for a in plan]
        for allocation, witnesses in zip(plan, expected):
            report = is_fair(instance, allocation, criterion)
            assert [(w.envious, w.envied, w.item) for w in report.witnesses] == witnesses
        fair = [not witnesses for witnesses in expected]
        first = fair.index(True) if any(fair) else None
        witness = None if first is None else plan[first]
        certificate = exists_fair(instance, criterion)
        assert certificate.exists == (first is not None), criterion
        assert certificate.checked == (len(plan) if first is None else first + 1)
        assert certificate.witness == witness
        assert count_fair(instance, criterion) == (sum(fair), witness)
    if instance.goods_pure:
        welfare = [
            math.prod(
                (instance.bundle_value(i, b) for i, b in enumerate(a.bundles)),
                start=Fraction(1),
            )
            for a in plan
        ]
        best = welfare.index(max(welfare))
        allocation, value = max_nash_welfare(instance)
        assert allocation == plan[best]
        assert isinstance(value, Fraction) and value == welfare[best]
