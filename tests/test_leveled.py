import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdual.criteria import ComparisonCriterion, is_fair
from fairdual.duality import dualize
from fairdual.leveled import (
    potential,
    round_robin_init,
    solve_leveled_efxwc,
)
from fairdual.model import (
    Allocation,
    Instance,
    InstanceError,
    ItemType,
    NotLeveledError,
    validate_allocation,
)
from fairdual.randgen import random_leveled_instance
from leveled_reference import reference_walk

# Grid steps for leveled values: few steps, so values often tie.
GRID = 4


def leveled_instance(copies, steps) -> Instance:
    """Agent i values type t at 1 + steps[i][t] / (GRID * |T|), which is leveled."""
    scale = GRID * len(copies)
    return Instance(
        agents=len(steps),
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(Fraction(scale + k, scale) for k in row) for row in steps),
    )


@st.composite
def leveled_instances(draw):
    n = draw(st.integers(2, 6))
    copies = draw(st.lists(st.integers(1, n), min_size=1, max_size=7))
    row = st.lists(st.integers(0, GRID - 1), min_size=len(copies), max_size=len(copies))
    steps = draw(st.lists(row, min_size=n, max_size=n))
    return leveled_instance(copies, steps)


@st.composite
def leveled_allocations(draw):
    """A leveled instance and any valid allocation of it, not only a walk state."""
    instance = draw(leveled_instances())
    bundles = [set() for _ in range(instance.agents)]
    for t in instance.types:
        for agent in draw(st.permutations(range(instance.agents)))[: t.copies]:
            bundles[agent].add(t.name)
    return instance, Allocation.of(*bundles)


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


@settings(max_examples=200, deadline=None)
@given(leveled_instances())
# Swaps (2, 0), then (1, 0): the envied agent sits below the envious one, and
# the second pair lies before the first in lexicographic order.
@example(leveled_instance((2, 1, 1), ((3, 2, 1), (0, 0, 3), (3, 2, 0))))
def test_the_resumed_walk_matches_the_restarting_reference(instance):
    """Scanning only the pairs from a lower-level agent to a higher-level one
    leaves the walk as it was when every scan tested every pair from (0, 1):
    same start, trace, potentials and end."""
    result = solve_leveled_efxwc(instance)
    initial, initial_potential, trace, final = reference_walk(instance)
    assert result.initial.bundles == tuple(initial)
    assert result.initial_potential == initial_potential
    assert [(s.envious, s.envied, s.gained, s.lost, s.potential) for s in result.trace] == trace
    assert result.allocation.bundles == tuple(final)


@settings(max_examples=200, deadline=None)
@given(leveled_allocations())
# One level: every pair is of equal sizes, so the allocation is EFX_WC.
@example(
    (
        leveled_instance((2, 1, 1), ((3, 2, 1), (0, 0, 3))),
        Allocation.of(["t0", "t1"], ["t0", "t2"]),
    )
)
def test_an_agent_whose_bundle_is_no_smaller_never_envies(case):
    """On leveled valuations i passes goods EFX_WC against j whenever
    |A_i| >= |A_j|: i's exclusive types outnumber j's less one. This is why
    the walk scans only the pairs from a smaller bundle to a larger one."""
    instance, allocation = case
    bundles = allocation.bundles
    report = is_fair(instance, allocation, ComparisonCriterion("efx", "goods", True))
    assert all(len(bundles[w.envious]) < len(bundles[w.envied]) for w in report.witnesses)
    if len({len(b) for b in bundles}) == 1:
        assert report.fair


@settings(max_examples=200, deadline=None)
@given(leveled_instances())
def test_every_solver_allocation_is_valid(instance):
    """The solver's allocation skips `require_valid` as valid by construction,
    so a full check must find no defect in it."""
    assert validate_allocation(instance, solve_leveled_efxwc(instance).allocation) == ()
