import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdual.criteria import ComparisonCriterion, criterion_for, is_fair
from fairdual.duality import (
    DroppedType,
    check_envy_duality,
    check_share_duality,
    complement_criterion,
    dualize,
)
from fairdual.model import Allocation, Instance, InstanceError, ItemType, bundle
from fairdual.randgen import random_allocation, random_instance


def section_instance():
    """Three agents, four doubled types worth 1, 2, 3, 9 to everyone."""
    return Instance(
        agents=3,
        types=(
            ItemType("t1", 2),
            ItemType("t2", 2),
            ItemType("t3", 2),
            ItemType("t4", 2),
        ),
        values=tuple(
            (Fraction(1), Fraction(2), Fraction(3), Fraction(9)) for _ in range(3)
        ),
    )


def test_dual_copies_and_negation():
    instance = section_instance()
    dual = dualize(instance).instance
    assert dual.type_names() == ("t1", "t2", "t3", "t4")
    assert all(t.copies == 1 for t in dual.types)
    assert dual.value(0, "t4") == -9
    assert dual.orientation() == "chores"


def test_dual_allocation_is_survivor_complement():
    instance = section_instance()
    allocation = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    dual = dualize(instance, allocation)
    assert dual.allocation.bundles == (
        bundle("t3"),
        bundle("t1", "t2"),
        bundle("t4"),
    )


def test_full_copy_types_are_dropped_and_recorded():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 2), ItemType("b", 1)),
        values=((Fraction(5), Fraction(1)), (Fraction(4), Fraction(2))),
    )
    result = dualize(instance)
    assert result.instance.type_names() == ("b",)
    assert len(result.dropped) == 1
    record = result.dropped[0]
    assert record.item.name == "a" and record.position == 0
    assert record.values == (Fraction(5), Fraction(4))


def test_double_dual_round_trips_through_reinsert():
    rng = random.Random(3)
    for _ in range(60):
        instance = random_instance(rng, max_agents=4, max_types=5)
        allocation = random_allocation(rng, instance)
        first = dualize(instance, allocation)
        second = dualize(first.instance, first.allocation, reinsert=first.dropped)
        assert second.instance == instance
        assert second.allocation == allocation


def test_reinsert_rejects_name_collisions():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 2), ItemType("b", 1)),
        values=((Fraction(5), Fraction(1)),) * 2,
    )
    result = dualize(instance)
    clashing = DroppedType(
        position=0, item=ItemType("b", 2), values=(Fraction(5), Fraction(5))
    )
    with pytest.raises(InstanceError):
        dualize(result.instance, reinsert=(clashing,))


@st.composite
def allocated_instances(draw):
    """1-4 agents, 0-5 goods or chores with copies 1..n, and a complete allocation.

    Copies reach n, so full-copy types, which the dual drops, turn up.
    """
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=5))
    signs = [draw(st.sampled_from((1, -1))) for _ in copies]
    value = st.builds(Fraction, st.integers(0, 12), st.integers(1, 5))
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(s * draw(value) for s in signs) for _ in range(n)),
    )
    holders = [draw(st.permutations(range(n)))[:c] for c in copies]
    allocation = Allocation(
        tuple(
            frozenset(f"t{k}" for k, held in enumerate(holders) if i in held)
            for i in range(n)
        )
    )
    return instance, allocation


@settings(max_examples=100, deadline=None)
@given(allocated_instances())
@example(
    (
        Instance(
            agents=2,
            types=(ItemType("a", 2), ItemType("b", 1)),
            values=((Fraction(5), Fraction(1)), (Fraction(4), Fraction(2))),
        ),
        Allocation.of(["a", "b"], ["a"]),
    )
)
def test_value_identity_on_random_instances(case):
    """v(primal) - v(dual) = v(all types), for every agent and every bundle.

    Agent i's value for bundle j, minus their value for j's dual bundle, is
    i's value for one copy of each type, dropped full-copy types included.
    """
    instance, allocation = case
    dual = dualize(instance, allocation)
    for i in range(instance.agents):
        for primal, mirrored in zip(allocation.bundles, dual.allocation.bundles):
            shift = instance.bundle_value(i, primal) - dual.instance.bundle_value(
                i, mirrored
            )
            assert shift == sum(instance.values[i])


def test_complement_criterion_flips_orientation_only():
    crit = ComparisonCriterion("efx", "goods", True)
    flipped = complement_criterion(crit)
    assert flipped.base == "efx"
    assert flipped.orientation == "chores"
    assert flipped.without_commons
    assert complement_criterion(flipped) == crit


def test_envy_duality_on_known_witness():
    instance = section_instance()
    allocation = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    assert is_fair(
        instance, allocation, ComparisonCriterion("efx", "goods", True)
    ).fair
    dual = dualize(instance, allocation)
    assert is_fair(
        dual.instance, dual.allocation, ComparisonCriterion("efx", "chores", True)
    ).fair
    assert check_envy_duality(instance, allocation, criterion_for(instance, "efx"))


def test_envy_duality_random_sweep():
    rng = random.Random(19)
    for _ in range(150):
        instance = random_instance(rng, max_agents=4, max_types=4,
                                   orientation="goods")
        allocation = random_allocation(rng, instance)
        for base in ("ef1", "efx", "efl"):
            crit = ComparisonCriterion(base, "goods", False)
            assert check_envy_duality(instance, allocation, crit)


def test_share_duality_shift():
    rng = random.Random(23)
    for _ in range(40):
        instance = random_instance(rng, max_agents=3, max_types=4)
        assert check_share_duality(instance, "prop")
        assert check_share_duality(instance, "mms")
    with pytest.raises(ValueError):
        check_share_duality(section_instance(), "tps")
