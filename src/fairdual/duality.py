"""Goods/chores duality transform and the envy check built on it.

Dualizing negates every value and complements every copy count: a type
held by k of the n agents is, in the dual, held by the other n - k. A type
held by everyone would get zero copies, so it is dropped from the dual
instance and recorded. Dualizing twice therefore gives back the instance
restricted to its types held by fewer than n agents.

Allocations dualize to complements: agent i's dual bundle is every
surviving type i does not hold. Fairness transfers between the two views
for the without-commons criteria, with goods and chores swapped.

Every dual instance is built one way, by `Instance._dual`, which derives
its kernel, chores rows and sign set from the primal's kernel without
validating again and builds its Fraction values on first read. This module
adds what belongs to duality: the records of the dropped types and the
complement allocation, marked valid for the dual instance so the checks it
meets next skip validating it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .criteria import ComparisonCriterion, is_fair
from .model import Allocation, Instance, ItemType, _mark_valid, require_valid


@dataclass(frozen=True)
class DroppedType:
    """A full-copy type removed while dualizing: its position, type and values."""

    position: int
    item: ItemType
    values: tuple


@dataclass(frozen=True)
class DualResult:
    instance: Instance
    allocation: Optional[Allocation]
    dropped: tuple


def dualize(instance: Instance, allocation: Optional[Allocation] = None) -> DualResult:
    """Build the dual instance (and allocation, if one is given)."""
    if allocation is not None:
        require_valid(instance, allocation)
    dual_instance = instance._dual()
    index = dual_instance.index
    dropped = tuple(
        DroppedType(position=pos, item=t, values=tuple(row[pos] for row in instance.values))
        for pos, t in enumerate(instance.types)
        if t.name not in index
    )
    dual_allocation = None
    if allocation is not None:
        names = frozenset(index)
        # The complement of a valid allocation is valid: a type held by k
        # agents is held by the other n - k.
        dual_allocation = _mark_valid(
            dual_instance, Allocation(tuple(names - held for held in allocation.bundles))
        )
    return DualResult(instance=dual_instance, allocation=dual_allocation, dropped=dropped)


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

