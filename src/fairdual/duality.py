"""Goods/chores duality transform and the checks built on it.

Dualizing negates every value and complements every copy count: a type
held by k of the n agents is, in the dual, held by the other n - k. A type
held by everyone would get zero copies, so it is dropped from the dual
instance and recorded; passing the record back through `reinsert` restores
it, making a double dualization reproduce the original instance exactly.

Allocations dualize to complements: agent i's dual bundle is every
surviving type i does not hold. Fairness transfers between the two views
for the without-commons criteria, with goods and chores swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .criteria import ComparisonCriterion, is_fair
from .model import Allocation, Instance, InstanceError, ItemType, require_valid


@dataclass(frozen=True)
class DroppedType:
    """A full-copy type removed while dualizing, with what it takes to restore it."""

    position: int
    item: ItemType
    values: tuple


@dataclass(frozen=True)
class DualResult:
    instance: Instance
    allocation: Optional[Allocation]
    dropped: tuple


def dualize(
    instance: Instance,
    allocation: Optional[Allocation] = None,
    reinsert: tuple = (),
) -> DualResult:
    """Build the dual instance (and allocation, if one is given).

    `reinsert` takes the `dropped` record of a previous dualization; each
    entry reappears at its recorded position with a copy per agent and its
    recorded values, so `dualize(dualize(inst).instance, reinsert=...)`
    round-trips.
    """
    if allocation is not None:
        require_valid(instance, allocation)
    n = instance.agents
    existing = {t.name for t in instance.types}
    for record in reinsert:
        if record.item.name in existing:
            raise InstanceError(
                f"reinserted type {record.item.name!r} collides with an existing type"
            )
        if len(record.values) != n:
            raise InstanceError(
                f"reinserted type {record.item.name!r} has {len(record.values)} values "
                f"for {n} agents"
            )

    survivors = []  # (source position, ItemType, negated values column)
    dropped = []
    for pos, t in enumerate(instance.types):
        column = tuple(instance.values[i][pos] for i in range(n))
        if t.copies == n:
            dropped.append(DroppedType(position=pos, item=t, values=column))
        else:
            survivors.append(
                (pos, ItemType(t.name, n - t.copies), tuple(-v for v in column))
            )
    for record in sorted(reinsert, key=lambda r: r.position):
        entry = (record.position, ItemType(record.item.name, n), record.values)
        survivors.insert(min(record.position, len(survivors)), entry)

    dual_types = tuple(entry[1] for entry in survivors)
    dual_values = tuple(
        tuple(entry[2][i] for entry in survivors) for i in range(n)
    )
    dual_instance = Instance(agents=n, types=dual_types, values=dual_values)

    dual_allocation = None
    if allocation is not None:
        dual_allocation = Allocation(
            tuple(
                frozenset(
                    t.name for t in dual_types if t.name not in allocation.bundles[i]
                )
                for i in range(n)
            )
        )
    return DualResult(
        instance=dual_instance,
        allocation=dual_allocation,
        dropped=tuple(dropped),
    )


def complement_criterion(criterion: ComparisonCriterion) -> ComparisonCriterion:
    flipped = "chores" if criterion.orientation == "goods" else "goods"
    return ComparisonCriterion(criterion.base, flipped, criterion.without_commons)


def check_envy_duality(
    instance: Instance, allocation: Allocation, criterion: ComparisonCriterion
) -> bool:
    """Without-commons fairness transfers to the dual under the complement notion.

    The check lifts whatever base criterion it is given into the
    without-commons family on both sides. Returns True when the two
    verdicts agree.
    """
    lifted = ComparisonCriterion(criterion.base, criterion.orientation, True)
    dual = dualize(instance, allocation)
    mirrored = complement_criterion(lifted)
    primal_fair = is_fair(instance, allocation, lifted).fair
    dual_fair = is_fair(dual.instance, dual.allocation, mirrored).fair
    return primal_fair == dual_fair


def check_share_duality(
    instance: Instance, share: str = "prop", budget: Optional[int] = None
) -> bool:
    """Proportional and maximin shares shift by the typeset value under duality.

    For every agent i: share(instance, i) equals share(dual, i) plus i's
    typeset value. Holds for "prop" and "mms"; other shares do not obey a
    linear shift and are rejected.
    """
    from . import shares

    if share not in ("prop", "mms"):
        raise ValueError(f"no linear duality shift for share {share!r}")
    dual = dualize(instance).instance
    for i in range(instance.agents):
        offset = instance.typeset_value(i)
        if share == "prop":
            primal = shares.prop_share(instance, i)
            mirrored = shares.prop_share(dual, i)
        else:
            primal = shares.mms_share(instance, i, budget=budget).value
            mirrored = shares.mms_share(dual, i, budget=budget).value
        if primal != mirrored + offset:
            return False
    return True
