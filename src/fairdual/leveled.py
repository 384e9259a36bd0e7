"""Leveled preferences: the leveledness check and a local-search solver.

With leveled preferences (any larger bundle beats any smaller one) an
allocation without commons envy always exists and a simple swap walk finds
it: start from a cyclic round-robin assignment, then repeatedly let the
lexicographically first envious agent trade their least-valued exclusive
good for the best good the envied agent holds exclusively. Each swap
strictly raises the rank-sum potential of the lower-level bundles, which
caps the walk at n * |T|^2 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .criteria import ComparisonCriterion, _agent_valuations
from .model import Allocation, FairdualError, Instance, InstanceError, NotLeveledError
from .search import _first_unfair_pair


def leveled_counterexample(instance: Instance, agent: int) -> Optional[tuple]:
    """Find a cardinality pair violating leveledness, or None.

    A valuation is leveled when any larger bundle is strictly preferred to
    any smaller one. Additivity reduces that to adjacent sizes: for every m,
    the m+1 smallest values must sum strictly above the m largest. One
    ascending sort and two running sums check every m; returns (m + 1, m)
    for the first failing m.
    """
    ascending = sorted(instance.values[agent])
    if ascending and ascending[0] < 0:
        raise InstanceError(
            f"agent {agent} has negative values; leveledness is a goods notion"
        )
    smallest = largest = Fraction(0)
    for m, value in enumerate(ascending):
        smallest += value
        if not smallest > largest:
            return (m + 1, m)
        largest += ascending[-1 - m]
    return None


def is_leveled(instance: Instance, agent: int) -> bool:
    """Whether the agent strictly prefers any larger bundle to any smaller one."""
    return leveled_counterexample(instance, agent) is None


def require_leveled(instance: Instance) -> None:
    for agent in range(instance.agents):
        gap = leveled_counterexample(instance, agent)
        if gap is not None:
            raise NotLeveledError(agent, *gap)


def round_robin_init(instance: Instance) -> Allocation:
    """Deal each type's copies to consecutive agents, wrapping around.

    Bundle sizes end up within one of each other, so the walk starts with
    at most two levels.
    """
    n = instance.agents
    bundles = [set() for _ in range(n)]
    pointer = 0
    for t in instance.types:
        for step in range(t.copies):
            bundles[(pointer + step) % n].add(t.name)
        pointer = (pointer + t.copies) % n
    return Allocation(tuple(frozenset(b) for b in bundles))


def _rank_tables(instance: Instance) -> list:
    """Ordinal position of each type per agent: worst good is 1."""
    tables = []
    for agent in range(instance.agents):
        row = instance.values[agent]
        order = sorted(range(len(row)), key=lambda pos: (row[pos], pos))
        ranks = {instance.types[pos].name: rank + 1 for rank, pos in enumerate(order)}
        tables.append(ranks)
    return tables


def _rank_sum(ranks, bundles) -> int:
    low = min(len(b) for b in bundles)
    return sum(
        ranks[i][g]
        for i in range(len(bundles))
        if len(bundles[i]) == low
        for g in bundles[i]
    )


def potential(instance: Instance, allocation: Allocation) -> int:
    """Rank-sum of the lower-level bundles (all bundles if one level)."""
    return _rank_sum(_rank_tables(instance), allocation.bundles)


@dataclass(frozen=True)
class Swap:
    envious: int
    envied: int
    gained: str
    lost: str
    potential: int


@dataclass(frozen=True)
class LeveledResult:
    allocation: Allocation
    initial: Allocation
    initial_potential: int
    trace: tuple


def solve_leveled_efxwc(instance: Instance) -> LeveledResult:
    """Find an allocation nobody EFX-envies after stripping shared types."""
    require_leveled(instance)
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    valuations = _agent_valuations(instance)
    initial = round_robin_init(instance)
    bundles = list(initial.bundles)
    ranks = _rank_tables(instance)
    index = {t.name: p for p, t in enumerate(instance.types)}
    limit = instance.agents * len(instance.types) ** 2
    trace = []
    while True:
        pair = _first_unfair_pair(instance, valuations, criterion, bundles)
        if pair is None:
            break
        i, j = pair
        if len(bundles[i]) >= len(bundles[j]):
            raise FairdualError(
                f"envious agent {i} is not below agent {j}; instance is not leveled"
            )
        only_j = bundles[j] - bundles[i]
        only_i = bundles[i] - bundles[j]
        row = valuations[i]
        g_max = max(only_j, key=lambda g: (row[g], -index[g]))
        g_min = min(only_i, key=lambda g: (row[g], index[g]))
        assert row[g_max] > row[g_min], "swap would not improve the envious agent"
        bundles[i] = (bundles[i] - {g_min}) | {g_max}
        bundles[j] = (bundles[j] - {g_max}) | {g_min}
        trace.append(
            Swap(
                envious=i,
                envied=j,
                gained=g_max,
                lost=g_min,
                potential=_rank_sum(ranks, bundles),
            )
        )
        if len(trace) > limit:
            raise FairdualError(
                f"swap walk exceeded the {limit}-step potential bound"
            )
    return LeveledResult(
        allocation=Allocation(tuple(bundles)),
        initial=initial,
        initial_potential=_rank_sum(ranks, initial.bundles),
        trace=tuple(trace),
    )
