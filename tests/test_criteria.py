import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from fairdual.criteria import (
    BASES,
    HIERARCHY_EDGES,
    ComparisonCriterion,
    NotACycleError,
    OrientationError,
    cancel_envy_cycle,
    criterion_for,
    envy_graph,
    is_fair,
    parse_notion,
)
from fairdual.model import Allocation, Instance, ItemType, bundle
from fairdual.randgen import random_allocation, random_instance
from kernel_views import pair_eval
from strategies import allocated_instances, signed_allocations


def test_parse_notion():
    assert parse_notion("efx_wc") == ("efx", True)
    assert parse_notion("ef1") == ("ef1", False)
    with pytest.raises(ValueError):
        parse_notion("efz")


def test_criterion_names_round_trip():
    for base in BASES:
        for wc in (False, True):
            crit = ComparisonCriterion(base, "goods", wc)
            assert parse_notion(crit.notion) == (base, wc)


def test_criterion_for_infers_orientation():
    goods = Instance(
        agents=2, types=(ItemType("a", 1),), values=((Fraction(1),), (Fraction(2),))
    )
    assert criterion_for(goods, "ef1").orientation == "goods"
    chores = Instance(
        agents=2, types=(ItemType("a", 1),), values=((Fraction(-1),), (Fraction(-2),))
    )
    assert criterion_for(chores, "ef1").orientation == "chores"
    mixed = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(-1)),) * 2,
    )
    with pytest.raises(OrientationError):
        criterion_for(mixed, "ef1")


def test_goods_base_definitions_by_hand():
    # one agent holding {a}, comparing against {b, c}
    valuation = {"a": Fraction(3), "b": Fraction(2), "c": Fraction(2)}
    inside = bundle("a")
    outside = bundle("b", "c")

    def holds(notion):
        base, wc = parse_notion(notion)
        crit = ComparisonCriterion(base, "goods", wc)
        return pair_eval(crit, valuation, inside, outside)

    assert not holds("ef")  # 3 < 4
    assert holds("ef1")  # 3 >= 4 - 2
    assert holds("efx")  # both removals leave 2
    assert holds("efl")  # 3 >= 2 and 3 >= 2


def test_efl_two_conditions():
    # EFL needs some item both droppable and individually dominated
    valuation = {"a": Fraction(1), "b": Fraction(5), "c": Fraction(5)}
    crit = ComparisonCriterion("efl", "goods", False)
    assert not pair_eval(crit, valuation, bundle("a"), bundle("b", "c"))
    # a singleton comparison bundle passes EFL outright
    assert pair_eval(crit, valuation, bundle("a"), bundle("b"))
    assert pair_eval(crit, valuation, bundle("a"), bundle())


def test_chores_complement_negates_and_swaps():
    # chores EF1: drop the worst chore from the envious side
    valuation = {"a": Fraction(-4), "b": Fraction(-1)}
    crit = ComparisonCriterion("ef1", "chores", False)
    assert pair_eval(crit, valuation, bundle("a"), bundle("b"))
    crit_ef = ComparisonCriterion("ef", "chores", False)
    assert not pair_eval(crit_ef, valuation, bundle("a"), bundle("b"))
    assert pair_eval(crit_ef, valuation, bundle("b"), bundle("a"))


def test_without_commons_strips_shared_types():
    valuation = {"h": Fraction(10), "a": Fraction(1), "b": Fraction(1)}
    plain = ComparisonCriterion("ef", "goods", False)
    wc = ComparisonCriterion("ef", "goods", True)
    inside = bundle("h", "a")
    outside = bundle("h", "a", "b")
    assert not pair_eval(plain, valuation, inside, outside)
    assert not pair_eval(wc, valuation, inside, outside)
    # equal once commons are gone
    assert pair_eval(wc, valuation, bundle("h", "b"), bundle("h", "a"))


def test_ef_wc_equals_ef_on_disjoint_bundles():
    rng = random.Random(7)
    for _ in range(100):
        instance = random_instance(rng, max_agents=3, max_types=4, orientation="goods",
                                   single_copy=True)
        allocation = random_allocation(rng, instance)
        for base in BASES:
            plain = is_fair(instance, allocation,
                            ComparisonCriterion(base, "goods", False)).fair
            lifted = is_fair(instance, allocation,
                             ComparisonCriterion(base, "goods", True)).fair
            assert plain == lifted


@settings(max_examples=300, deadline=None)
@given(allocated_instances())
def test_hierarchy_edges_hold_pointwise(case):
    """Every lattice edge is a true implication, on goods and on chores."""
    instance, allocation = case
    orientation = instance.orientation()
    verdicts = {
        crit.notion: is_fair(instance, allocation, crit).fair
        for crit in (
            ComparisonCriterion(base, orientation, wc) for base in BASES for wc in (False, True)
        )
    }
    for stronger, weaker in HIERARCHY_EDGES:
        assert verdicts[weaker] or not verdicts[stronger], (stronger, weaker)


def test_is_fair_rejects_orientation_mismatch():
    goods = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(2)),) * 2,
    )
    allocation = Allocation.of(["a"], ["b"])
    crit = ComparisonCriterion("ef1", "chores", False)
    with pytest.raises(OrientationError):
        is_fair(goods, allocation, crit)


def test_witnesses_are_lex_sorted_with_items():
    instance = Instance(
        agents=3,
        types=(
            ItemType("a", 1),
            ItemType("b", 1),
            ItemType("c", 1),
            ItemType("d", 1),
        ),
        values=((Fraction(1), Fraction(5), Fraction(5), Fraction(1)),) * 3,
    )
    allocation = Allocation.of(["a"], ["b", "c"], ["d"])
    report = is_fair(instance, allocation, ComparisonCriterion("efx", "goods", False))
    assert not report.fair
    pairs = [(w.envious, w.envied) for w in report.witnesses]
    assert pairs == sorted(pairs)
    assert pairs == [(0, 1), (2, 1)]
    for w in report.witnesses:
        assert w.item in ("b", "c")


def test_envy_graph_and_cycle_cancel():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=(
            (Fraction(1), Fraction(4)),
            (Fraction(4), Fraction(1)),
        ),
    )
    allocation = Allocation.of(["a"], ["b"])
    edges = envy_graph(instance, allocation)
    assert (0, 1) in edges and (1, 0) in edges
    swapped = cancel_envy_cycle(instance, allocation, (0, 1))
    assert swapped.bundles[0] == bundle("b")
    assert swapped.bundles[1] == bundle("a")
    assert not envy_graph(instance, swapped)


@settings(max_examples=150, deadline=None)
@given(signed_allocations())
@example(
    # An empty bundle against a negative own value: agent 1 envies agent 0.
    (
        Instance(
            agents=2,
            types=(ItemType("t0", 1),),
            values=((Fraction(0),), (Fraction(-1),)),
        ),
        Allocation.of([], ["t0"]),
    )
)
def test_envy_graph_edges_are_strict_value_gaps(case):
    """Goods, chores and mixed alike: i -> j exactly when i values A_j above A_i."""
    instance, allocation = case
    bundles = allocation.bundles
    expected = {
        (i, j)
        for i in range(instance.agents)
        for j in range(instance.agents)
        if instance.bundle_value(i, bundles[i]) < instance.bundle_value(i, bundles[j])
    }
    assert envy_graph(instance, allocation) == expected


def test_cancel_requires_actual_cycle():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(4), Fraction(1)), (Fraction(4), Fraction(1))),
    )
    allocation = Allocation.of(["a"], ["b"])
    # agent 0 holds the better bundle, so 0 -> 1 is not an envy edge
    with pytest.raises(NotACycleError):
        cancel_envy_cycle(instance, allocation, (0, 1))
    with pytest.raises(NotACycleError):
        cancel_envy_cycle(instance, allocation, (1, 1))
