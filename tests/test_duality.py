import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdual.criteria import BASES, ComparisonCriterion, criterion_for, is_fair
from fairdual.duality import (
    DroppedType,
    check_envy_duality,
    complement_criterion,
    dualize,
)
from fairdual.model import Allocation, Instance, InstanceError, ItemType, bundle
from fairdual.randgen import random_instance
from fairdual.shares import check_share_duality
from strategies import signed_allocations


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


def test_reinsert_rejects_negative_positions():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 1)),
        values=((Fraction(1), Fraction(2), Fraction(3)),) * 2,
    )
    negative = DroppedType(
        position=-1, item=ItemType("z", 2), values=(Fraction(5), Fraction(5))
    )
    with pytest.raises(InstanceError, match="'z' has negative position -1"):
        dualize(instance, reinsert=(negative,))


def test_reinsert_rejects_positions_past_the_end():
    """A record lands at its own position; one past the end is refused, not appended."""
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1),),
        values=((Fraction(1),), (Fraction(2),)),
    )

    def record(name, position):
        return DroppedType(position, ItemType(name, 2), (Fraction(5), Fraction(5)))

    with pytest.raises(
        InstanceError, match="^reinserted type 'z' has position 7 past the end of 1 types$"
    ):
        dualize(instance, reinsert=(record("z", 7),))
    # Records go in by ascending position, so the second may use the slot the first made.
    dual = dualize(instance, reinsert=(record("y", 2), record("z", 1))).instance
    assert dual.type_names() == ("a", "z", "y")
    with pytest.raises(InstanceError, match="'y' has position 3 past the end of 2 types"):
        dualize(instance, reinsert=(record("y", 3), record("z", 1)))


@settings(max_examples=100, deadline=None)
@given(signed_allocations())
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


@settings(max_examples=100, deadline=None)
@given(signed_allocations())
def test_double_dual_round_trips_through_reinsert(case):
    """Dualizing twice, reinserting the dropped full-copy types, gives back the input."""
    instance, allocation = case
    first = dualize(instance, allocation)
    second = dualize(first.instance, first.allocation, reinsert=first.dropped)
    assert second.instance == instance
    assert second.allocation == allocation
    full = [(pos, t) for pos, t in enumerate(instance.types) if t.copies == instance.agents]
    assert [(record.position, record.item) for record in first.dropped] == full
    assert [record.values for record in first.dropped] == [
        tuple(row[pos] for row in instance.values) for pos, _ in full
    ]
    assert second.dropped == ()


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


@settings(max_examples=150, deadline=None)
@given(signed_allocations(pure=True))
def test_envy_duality_random_sweep(case):
    """Every base, lifted to without-commons, transfers to the dual, in both orientations."""
    instance, allocation = case
    for base in BASES:
        crit = ComparisonCriterion(base, instance.orientation(), False)
        assert check_envy_duality(instance, allocation, crit)


def test_share_duality_shift():
    rng = random.Random(23)
    for _ in range(40):
        instance = random_instance(rng, max_agents=3, max_types=4)
        assert check_share_duality(instance, "prop")
        assert check_share_duality(instance, "mms")
    with pytest.raises(ValueError):
        check_share_duality(section_instance(), "tps")


@st.composite
def share_duality_cases(draw):
    """1-3 agents, 0-3 types held by some but not all, 0-2 held by everyone, one sign."""
    n = draw(st.integers(1, 3))
    copies = [] if n == 1 else draw(st.lists(st.integers(1, n - 1), max_size=3))
    copies += [n] * draw(st.integers(0, 2))
    copies = draw(st.permutations(copies))
    sign = draw(st.sampled_from((1, -1)))
    value = st.builds(Fraction, st.integers(0, 12), st.integers(1, 5))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(sign * draw(value) for _ in copies) for _ in range(n)),
    )


@settings(max_examples=100, deadline=None)
@given(
    share_duality_cases(),
    st.sampled_from([None, Fraction(0), Fraction(2, 5), Fraction(3, 7), Fraction(1)]),
)
@example(
    Instance(agents=1, types=(ItemType("t0", 1),), values=((Fraction(3),),)), Fraction(1)
)
def test_share_duality_holds_for_every_linear_share(instance, entitlement):
    """PROP, MMS and APS (at b against 1 - b) shift by the typeset value, goods and chores.

    Entitlements 0 and 1 included: a one-agent dual holds no types, and its
    anyprice share at 1 - 1 = 0 is 0."""
    assert check_share_duality(instance, "prop")
    assert check_share_duality(instance, "mms")
    assert check_share_duality(instance, "aps", entitlement=entitlement)


def test_reinsert_refusals_name_the_fault():
    """Reinserted records are caller data, so the dual they build is validated."""
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1),),
        values=((Fraction(1),), (Fraction(2),)),
    )

    def record(name, *values):
        return DroppedType(position=0, item=ItemType(name, 2), values=values)

    with pytest.raises(InstanceError, match="^value 1 is not a Fraction$"):
        dualize(instance, reinsert=(record("z", 1, Fraction(1)),))
    with pytest.raises(
        InstanceError,
        match="^type 'z' has both positive and negative values; "
        "every type must be a good or a chore for all agents$",
    ):
        dualize(instance, reinsert=(record("z", Fraction(1), Fraction(-1)),))
    twice = record("z", Fraction(1), Fraction(1))
    with pytest.raises(InstanceError, match="^duplicate type names$"):
        dualize(instance, reinsert=(twice, twice))


@st.composite
def dual_cases(draw):
    """1-4 agents, 0-6 types with copies 1..n (full-copy types drop), one
    denominator 1-7 per type (so dropping a column can change a row's LCM),
    some all-zero columns, and whether the kernel is compiled beforehand."""
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    columns = []
    for _ in copies:
        sign, denominator = draw(st.sampled_from((1, -1))), draw(st.integers(1, 7))
        numerators = st.just(0) if draw(st.booleans()) else st.integers(0, 12)
        columns.append([Fraction(sign * draw(numerators), denominator) for _ in range(n)])
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(column[i] for column in columns) for i in range(n)),
    )
    return instance, draw(st.booleans())


def assert_as_validated(dual):
    validated = Instance(dual.agents, dual.types, dual.values)
    assert dual == validated
    assert dual.type_tags == validated.type_tags
    assert dual.kernel == validated.kernel


@settings(max_examples=150, deadline=None)
@given(dual_cases())
def test_the_dual_equals_the_validated_instance(case):
    """The unvalidated dual carries the swapped tags and, when the primal's
    kernel is compiled, a kernel derived from it; both match what a
    validated instance of the same fields computes. So do the double dual
    (again unvalidated) and the reinserted one (validated)."""
    instance, compiled = case
    if compiled:
        instance.kernel
    first = dualize(instance)
    assert ("kernel" in first.instance.__dict__) == compiled
    assert_as_validated(first.instance)
    assert_as_validated(dualize(first.instance).instance)
    restored = dualize(first.instance, reinsert=first.dropped).instance
    assert restored == instance
    assert_as_validated(restored)
