"""Goods/chores duality transform and the envy check built on it.

Dualizing negates every value and complements every copy count: a type
held by k of the n agents is, in the dual, held by the other n - k. A type
held by everyone would get zero copies, so it is dropped from the dual
instance and recorded; passing the record back through `reinsert` restores
it, making a double dualization reproduce the original instance exactly.

Allocations dualize to complements: agent i's dual bundle is every
surviving type i does not hold. Fairness transfers between the two views
for the without-commons criteria, with goods and chores swapped.

Every dual is built from the validated primal without validating it
again: its sign tags are the primal's, swapped, and it keeps only the
kernel and chores rows derived from the primal's kernel (see `_dual_rows`),
building its Fraction values on first read. Reinserted records are caller
data, so with `reinsert` they go into that dual's values and the result
goes through the validating constructor. A dual allocation is marked
valid for the dual instance, so the checks it meets next skip validating
it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .criteria import ComparisonCriterion, is_fair
from .model import Allocation, Instance, InstanceError, ItemType, Kernel
from .model import _mark_valid, require_valid


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


_SWAPPED_TAG = {"good": "chore", "chore": "good", "zero": "zero"}


def _dual_rows(kernel: Kernel, keep: list) -> tuple:
    """The dual's kernel and chores rows from the primal's kernel.

    A primal entry is x = v * S for the row's scale S. The kept values'
    least common denominator is S / g, with g the gcd of S and their
    kept entries, so the kept entries divided exactly by g, signs kept, are
    the chores rows (the kernel negated) that a validated dual compiles.
    """
    rows, scales, chores = [], [], []
    for row, scale in zip(*kernel):
        kept = [row[pos] for pos in keep]
        g = math.gcd(scale, *kept)
        if g > 1:
            kept = [x // g for x in kept]
        chores.append(tuple(kept))
        rows.append(tuple(-x for x in kept))
        scales.append(scale // g)
    return Kernel(tuple(rows), tuple(scales)), tuple(chores)


def dualize(
    instance: Instance,
    allocation: Optional[Allocation] = None,
    reinsert: tuple = (),
) -> DualResult:
    """Build the dual instance (and allocation, if one is given).

    `reinsert` takes the `dropped` record of a previous dualization; each
    entry reappears at its recorded position with a copy per agent and its
    recorded values, so `dualize(dualize(inst).instance, reinsert=...)`
    round-trips. Entries go in by ascending position; one past the end is refused.
    """
    if allocation is not None:
        require_valid(instance, allocation)
    n = instance.agents
    for record in reinsert:
        if record.item.name in instance.index:
            raise InstanceError(
                f"reinserted type {record.item.name!r} collides with an existing type"
            )
        if record.position < 0:
            raise InstanceError(
                f"reinserted type {record.item.name!r} has negative position "
                f"{record.position}"
            )
        if len(record.values) != n:
            raise InstanceError(
                f"reinserted type {record.item.name!r} has {len(record.values)} values "
                f"for {n} agents"
            )

    keep, types, dropped = [], [], []
    for pos, t in enumerate(instance.types):
        if t.copies < n:
            keep.append(pos)
            types.append(ItemType(t.name, n - t.copies))
        else:
            values = tuple(row[pos] for row in instance.values)
            dropped.append(DroppedType(position=pos, item=t, values=values))
    tags = instance.type_tags
    kernel, chores_rows = _dual_rows(instance.kernel, keep)
    swapped = tuple(_SWAPPED_TAG[tags[pos]] for pos in keep)
    dual_instance = Instance._unvalidated(
        n, tuple(types), kernel=kernel, chores_rows=chores_rows, type_tags=swapped
    )
    if reinsert:
        rows = [list(row) for row in dual_instance.values]
        for record in sorted(reinsert, key=lambda r: r.position):
            if record.position > len(types):
                raise InstanceError(
                    f"reinserted type {record.item.name!r} has position "
                    f"{record.position} past the end of {len(types)} types"
                )
            types.insert(record.position, ItemType(record.item.name, n))
            for row, value in zip(rows, record.values):
                row.insert(record.position, value)
        dual_instance = Instance(agents=n, types=tuple(types), values=tuple(map(tuple, rows)))

    dual_allocation = None
    if allocation is not None:
        names = frozenset(dual_instance.index)
        # The complement of a valid allocation is valid: a type held by k
        # agents is held by the other n - k, and a reinserted one by all.
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

