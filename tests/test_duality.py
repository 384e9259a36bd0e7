import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdual.criteria import BASES, ComparisonCriterion, criterion_for, is_fair
from fairdual.duality import check_envy_duality, complement_criterion, dualize
from fairdual.model import Allocation, Instance, ItemType, bundle
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
def test_double_dual_restricts_to_the_types_not_held_by_everyone(case):
    """Dualizing twice gives the instance and the allocation restricted to
    the types held by fewer than n agents, and `dropped` records every
    full-copy type with its position and column. A dual allocation maps back
    to the primal as each agent's complement in all the primal's types."""
    instance, allocation = case
    n = instance.agents
    first = dualize(instance, allocation)
    second = dualize(first.instance, first.allocation)
    keep = [pos for pos, t in enumerate(instance.types) if t.copies < n]
    restricted = Instance(
        agents=n,
        types=tuple(instance.types[pos] for pos in keep),
        values=tuple(tuple(row[pos] for pos in keep) for row in instance.values),
    )
    assert second.instance == restricted
    kept = frozenset(restricted.index)
    assert second.allocation == Allocation(tuple(held & kept for held in allocation.bundles))
    assert second.dropped == ()
    every = frozenset(instance.index)
    assert Allocation(tuple(every - held for held in first.allocation.bundles)) == allocation
    full = [pos for pos in range(len(instance.types)) if pos not in keep]
    assert [(record.position, record.item, record.values) for record in first.dropped] == [
        (pos, instance.types[pos], tuple(row[pos] for row in instance.values)) for pos in full
    ]


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
    assert dual.signs == validated.signs
    assert dual.kernel == validated.kernel


@settings(max_examples=150, deadline=None)
@given(dual_cases())
def test_the_dual_equals_the_validated_instance(case):
    """The unvalidated dual carries a sign set and a kernel derived from the
    primal's, which `dualize` compiles when it is not compiled yet; both
    match what a validated instance of the same fields computes. So does
    the double dual."""
    instance, compiled = case
    if compiled:
        instance.kernel
    first = dualize(instance)
    assert "kernel" in instance.__dict__ and "kernel" in first.instance.__dict__
    assert_as_validated(first.instance)
    assert_as_validated(dualize(first.instance).instance)


@settings(max_examples=150, deadline=None)
@given(dual_cases())
def test_the_dual_keeps_its_values_in_the_kernel_when_the_primal_is_compiled(case):
    """A dual, whether or not its primal's kernel was compiled beforehand,
    holds its kernel and chores rows and no values until they are read; the
    preset chores rows are the negated kernel a validated instance compiles.
    Read, its values are exact: `==`, `hash` and `repr` agree with the
    validated instance's."""
    instance, compiled = case
    if compiled:
        instance.kernel
    dual = dualize(instance).instance
    assert "kernel" in dual.__dict__ and "chores_rows" in dual.__dict__
    assert "values" not in dual.__dict__
    chores_rows = dual.chores_rows
    assert chores_rows is dual.chores_rows
    validated = Instance(dual.agents, dual.types, dual.values)
    assert chores_rows == validated.chores_rows
    assert chores_rows == tuple(tuple(-x for x in row) for row in validated.kernel.rows)
    assert dual == validated and hash(dual) == hash(validated)
    assert repr(dual) == repr(validated)
