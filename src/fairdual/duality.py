"""Goods/chores duality transform and the envy check built on it.

Dualizing negates every value and complements every copy count: a type
held by k of the n agents is, in the dual, held by the other n - k. A type
held by everyone would get zero copies, so it is dropped from the dual
instance and recorded. Dualizing twice therefore gives back the instance
restricted to its types held by fewer than n agents.

Allocations dualize to complements: agent i's dual bundle is every
surviving type i does not hold. Fairness transfers between the two views
for the without-commons criteria, with goods and chores swapped.

Every dual is built one way, from the validated primal without validating
it again: it keeps only the kernel, chores rows and sign set derived from
the primal's kernel (see `_dual_rows`), building its Fraction values on
first read. A dual allocation is marked valid for the dual instance, so
the checks it meets next skip validating it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .criteria import ComparisonCriterion, is_fair
from .model import Allocation, Instance, ItemType, Kernel
from .model import _mark_valid, require_valid


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


def _dual_rows(kernel: Kernel, keep: list) -> tuple:
    """The dual's kernel, chores rows and sign set from the primal's kernel.

    A primal entry is x = v * S for the row's scale S. The kept values'
    least common denominator is S / g, with g the gcd of S and their
    kept entries, so the kept entries divided exactly by g, signs kept, are
    the chores rows (the kernel negated) that a validated dual compiles.
    Negated, a negative kept entry is a good's value and a positive one a
    chore's.
    """
    rows, scales, chores = [], [], []
    low = high = 0
    for row, scale in zip(*kernel):
        kept = [row[pos] for pos in keep]
        g = math.gcd(scale, *kept)
        if g > 1:
            kept = [x // g for x in kept]
        chores.append(tuple(kept))
        rows.append(tuple(-x for x in kept))
        scales.append(scale // g)
        low, high = min([low, *kept]), max([high, *kept])
    signs = frozenset([1] * (low < 0) + [-1] * (high > 0))
    return Kernel(tuple(rows), tuple(scales)), tuple(chores), signs


def dualize(instance: Instance, allocation: Optional[Allocation] = None) -> DualResult:
    """Build the dual instance (and allocation, if one is given)."""
    if allocation is not None:
        require_valid(instance, allocation)
    n = instance.agents
    keep, types, dropped = [], [], []
    for pos, t in enumerate(instance.types):
        if t.copies < n:
            keep.append(pos)
            types.append(ItemType(t.name, n - t.copies))
        else:
            values = tuple(row[pos] for row in instance.values)
            dropped.append(DroppedType(position=pos, item=t, values=values))
    kernel, chores_rows, signs = _dual_rows(instance.kernel, keep)
    dual_instance = Instance._unvalidated(
        n, tuple(types), kernel=kernel, chores_rows=chores_rows, signs=signs
    )

    dual_allocation = None
    if allocation is not None:
        names = frozenset(dual_instance.index)
        # The complement of a valid allocation is valid: a type held by k
        # agents is held by the other n - k.
        dual_allocation = _mark_valid(
            dual_instance, Allocation(tuple(names - held for held in allocation.bundles))
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

