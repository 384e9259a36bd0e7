"""Seeded random instances and allocations for sweep tests.

Callers pass their own random.Random so every sweep is reproducible from
its seed. The sampling scheme is part of the contract: changing it would
silently change what seeded tests cover, so bump GENERATOR_VERSION on any
behavioral edit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import Allocation, Instance, ItemType

GENERATOR_VERSION = 1

# Leveled values are drawn from a grid of this resolution inside
# [1, 1 + 1/|T|), which keeps every valuation leveled (any m + 1 goods
# outweigh any m goods).
LEVELED_GRID = 16


def random_instance(
    rng: random.Random,
    max_agents: int = 4,
    max_types: int = 5,
    orientation: str = "goods",
    max_abs_value: int = 9,
) -> Instance:
    """Small instance with integer values; orientation goods or chores."""
    if orientation not in ("goods", "chores"):
        raise ValueError(f"unknown orientation {orientation!r}")
    sign = 1 if orientation == "goods" else -1
    agents = rng.randint(2, max(2, max_agents))
    n_types = rng.randint(1, max_types)
    types = tuple(
        ItemType(f"t{pos + 1}", rng.randint(1, agents)) for pos in range(n_types)
    )
    values = tuple(
        tuple(
            Fraction(sign * rng.randint(0, max_abs_value))
            for _ in range(n_types)
        )
        for _ in range(agents)
    )
    return Instance(agents=agents, types=types, values=values)


def random_allocation(rng: random.Random, instance: Instance) -> Allocation:
    """Uniform complete exclusive allocation: random holders per type."""
    bundles = [set() for _ in range(instance.agents)]
    for t in instance.types:
        for agent in rng.sample(range(instance.agents), t.copies):
            bundles[agent].add(t.name)
    return Allocation(tuple(frozenset(b) for b in bundles))


def random_leveled_instance(
    rng: random.Random, max_agents: int = 5, max_types: int = 8
) -> Instance:
    """Instance whose valuations are all leveled.

    Values sit in [1, 1 + 1/|T|), so any larger bundle is worth strictly
    more than any smaller one.
    """
    agents = rng.randint(2, max(2, max_agents))
    n_types = rng.randint(1, max_types)
    types = tuple(
        ItemType(f"t{pos + 1}", rng.randint(1, agents)) for pos in range(n_types)
    )
    values = tuple(
        tuple(
            1 + Fraction(rng.randint(0, LEVELED_GRID - 1), LEVELED_GRID * n_types)
            for _ in range(n_types)
        )
        for _ in range(agents)
    )
    return Instance(agents=agents, types=types, values=values)
