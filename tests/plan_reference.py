"""Reference enumeration of the allocation plan, independent of the library.

Each type's holder sets are materialised with `combinations` and the plan is
their cartesian product, first type most significant. This is the plan order
the library's lazy walk must reproduce; tests compare against it.
"""

from itertools import combinations, product


def plan_choices(instance):
    """Every plan entry as one tuple of holder sets per type, in plan order."""
    per_type = [
        tuple(combinations(range(instance.agents), t.copies)) for t in instance.types
    ]
    return product(*per_type)


def plan_bundles(instance):
    """Every plan entry as a tuple of frozenset bundles, in plan order."""
    for choice in plan_choices(instance):
        bundles = [set() for _ in range(instance.agents)]
        for t, holders in zip(instance.types, choice):
            for agent in holders:
                bundles[agent].add(t.name)
        yield tuple(frozenset(b) for b in bundles)
