import random
from fractions import Fraction

import pytest

from fairdual.criteria import ComparisonCriterion, is_fair
from fairdual.duality import dualize
from fairdual.leveled import (
    potential,
    round_robin_init,
    solve_leveled_efxwc,
)
from fairdual.model import Allocation, Instance, InstanceError, ItemType, NotLeveledError
from fairdual.randgen import random_leveled_instance


def test_round_robin_balances_bundle_sizes():
    instance = Instance(
        agents=3,
        types=(ItemType("a", 2), ItemType("b", 1), ItemType("c", 3)),
        values=tuple((Fraction(1), Fraction(1), Fraction(1)) for _ in range(3)),
    )
    allocation = round_robin_init(instance)
    sizes = sorted(len(b) for b in allocation.bundles)
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 6


def test_solver_rejects_unleveled_values():
    spiky = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 1)),
        values=((Fraction(9), Fraction(1), Fraction(1)),) * 2,
    )
    with pytest.raises(NotLeveledError):
        solve_leveled_efxwc(spiky)


def test_solver_certified_on_small_instance():
    instance = Instance(
        agents=3,
        types=tuple(ItemType(f"t{k}", 1) for k in range(1, 7)),
        values=(
            tuple(1 + Fraction(k, 100) for k in (0, 1, 2, 3, 4, 5)),
            tuple(1 + Fraction(k, 100) for k in (5, 4, 3, 2, 1, 0)),
            tuple(1 + Fraction(k, 100) for k in (2, 2, 2, 2, 2, 2)),
        ),
    )
    result = solve_leveled_efxwc(instance)
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    assert is_fair(instance, result.allocation, criterion).fair


def test_solver_sweep_certifies_and_respects_bound():
    rng = random.Random(41)
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    for _ in range(300):
        instance = random_leveled_instance(rng, max_agents=5, max_types=8)
        result = solve_leveled_efxwc(instance)
        assert is_fair(instance, result.allocation, criterion).fair
        assert len(result.trace) <= instance.agents * len(instance.types) ** 2


@pytest.mark.parametrize(
    "bundles",
    [
        ([], []),  # hands out nothing
        (["a", "b", "c"], ["a", "b", "c"]),  # one-copy types held twice
        (["a", "c"], ["z", "c"]),  # unknown type name
    ],
)
def test_potential_refuses_an_invalid_allocation(bundles):
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 2)),
        values=((Fraction(1),) * 3,) * 2,
    )
    with pytest.raises(InstanceError):
        potential(instance, Allocation.of(*bundles))


def test_swap_potentials_strictly_increase():
    rng = random.Random(43)
    seen_swaps = 0
    while seen_swaps < 50:
        instance = random_leveled_instance(rng, max_agents=5, max_types=8)
        result = solve_leveled_efxwc(instance)
        levels = [result.initial_potential] + [s.potential for s in result.trace]
        assert all(a < b for a, b in zip(levels, levels[1:]))
        assert potential(instance, result.initial) == levels[0]
        assert potential(instance, result.allocation) == levels[-1]
        # Each step's potential is that of the allocation replayed to it.
        bundles = list(result.initial.bundles)
        for swap in result.trace:
            i, j = swap.envious, swap.envied
            bundles[i] = bundles[i] - {swap.lost} | {swap.gained}
            bundles[j] = bundles[j] - {swap.gained} | {swap.lost}
            assert potential(instance, Allocation(tuple(bundles))) == swap.potential
        assert Allocation(tuple(bundles)) == result.allocation
        seen_swaps += len(result.trace)


def test_solved_duals_are_chores_fair():
    rng = random.Random(47)
    criterion = ComparisonCriterion("efx", "chores", without_commons=True)
    for _ in range(100):
        instance = random_leveled_instance(rng, max_agents=4, max_types=6)
        result = solve_leveled_efxwc(instance)
        dual = dualize(instance, result.allocation)
        if not dual.instance.types:
            continue
        assert is_fair(dual.instance, dual.allocation, criterion).fair
