"""Brute-force certification: enumeration, existence, Nash welfare.

The enumeration strategy is deterministic and seedless: for each type,
choose which agents receive a copy (subsets in lexicographic order), and
walk the cartesian product with the first type most significant. One lazy
walk serves every caller: it keeps one subset iterator per type and can
start at any plan index, so memory does not grow with the plan and every
budget is checked before any work. Every certificate produced from it is
therefore reproducible bit for bit, and "not exists" verdicts state how
many allocations were examined (always the whole plan).

The walk yields per-agent type masks and XORs a changed type's bit into its
old and new holders only. Existence, counting and Nash welfare run on those
masks and on integer rows, and decode only the allocation they report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from .criteria import (
    ComparisonCriterion,
    _bundles,
    _entries,
    _rows,
    criterion_eval,
    require_orientation,
)
from .model import Allocation, BudgetExceededError, Instance, OrientationError

# Hard default on allocations examined per exhaustive operation.
DEFAULT_ENUM_CAP = 50_000_000


def plan_total(instance: Instance) -> int:
    """Allocations in the plan, counted without building it."""
    return math.prod(math.comb(instance.agents, t.copies) for t in instance.types)


def _holder_sets_from(n: int, k: int, rank: int) -> Iterator[tuple]:
    """The k-subsets of range(n) in lexicographic order, from the one at `rank`."""
    first = []
    agent = 0
    while len(first) < k:
        below = math.comb(n - agent - 1, k - len(first) - 1)
        if rank < below:
            first.append(agent)
        else:
            rank -= below
        agent += 1
    # Later subsets share a prefix first[:p] and exceed first[p] at position p.
    for p in reversed(range(k)):
        head = tuple(first[:p])
        for tail in combinations(range(first[p] + (p < k - 1), n), k - p):
            yield head + tail


def _walk(instance: Instance, start: int = 0) -> Iterator[tuple]:
    """Yield each allocation's per-agent masks in plan order, from plan index `start`."""
    n = instance.agents
    types = instance.types
    digits = []
    for t in reversed(types):
        start, digit = divmod(start, math.comb(n, t.copies))
        digits.append(digit)
    if start:
        return
    digits.reverse()
    subsets = [
        _holder_sets_from(n, t.copies, digit) for t, digit in zip(types, digits)
    ]
    choice = [next(it) for it in subsets]
    masks = [sum(1 << p for p, h in enumerate(choice) if a in h) for a in range(n)]
    while True:
        yield tuple(masks)
        # Odometer step: the last type turns fastest; a spent type restarts.
        for pos in reversed(range(len(types))):
            holders = next(subsets[pos], None)
            if holders is None:
                subsets[pos] = combinations(range(n), types[pos].copies)
            new = holders or next(subsets[pos])
            # The bit flips for the old and the new holders; one in both keeps it.
            for agent in choice[pos] + new:
                masks[agent] ^= 1 << pos
            choice[pos] = new
            if holders is not None:
                break
        else:
            return


def enumerate_allocations(
    instance: Instance, budget: Optional[int] = None
) -> Iterator[Allocation]:
    """Stream every complete exclusive allocation in plan order.

    The stream is lazy: nothing is built ahead of the allocation it yields.
    Raises BudgetExceededError if the stream would pass the budget
    (default DEFAULT_ENUM_CAP) with allocations still unvisited.
    """
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    for _, masks in zip(range(cap), _walk(instance)):
        yield Allocation(_bundles(instance, masks))
    _require_within_budget(instance, budget)


def _require_within_budget(instance: Instance, budget: Optional[int]) -> None:
    """Refuse a plan larger than the budget (default DEFAULT_ENUM_CAP)."""
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    total = plan_total(instance)
    if total > cap:
        raise BudgetExceededError(
            f"enumeration budget {cap} exhausted with allocations remaining "
            f"(plan size {total})"
        )


def allocation_at(instance: Instance, index: int) -> Allocation:
    """The allocation at a given plan position: the first step of the walk there."""
    total = plan_total(instance)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside plan of size {total}")
    return Allocation(_bundles(instance, next(_walk(instance, index))))


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of an exhaustive existence check.

    For a positive verdict, `witness` is the first fair allocation in plan
    order and `checked` counts the allocations examined up to and including
    it. For a refutation, the whole plan was swept and `checked` equals
    `plan_total`.
    """

    exists: bool
    notion: ComparisonCriterion
    witness: Optional[Allocation]
    checked: int
    plan_total: int


def _first_unfair_pair(rows, criterion, masks) -> Optional[tuple]:
    """The first ordered pair (i, j) the criterion rejects, or None if fair."""
    for i, row in enumerate(rows):
        own = masks[i]
        for j, other in enumerate(masks):
            if i != j and not criterion_eval(criterion, row, own, other):
                return i, j
    return None


def _first_fair(instance, criterion, start: int, stop: int) -> Optional[int]:
    """The first plan index in [start, stop) whose allocation is fair, or None."""
    rows, _ = _rows(instance, criterion.orientation)
    for index, masks in zip(range(start, stop), _walk(instance, start)):
        if _first_unfair_pair(rows, criterion, masks) is None:
            return index
    return None


def exists_fair(
    instance: Instance,
    criterion: ComparisonCriterion,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> ExistenceCertificate:
    """Decide whether any complete exclusive allocation satisfies the criterion.

    Sweeps the plan in order; a refutation requires the full sweep. With
    jobs > 1 the sweep is split into index ranges over worker processes,
    each walking its range the same way; the reported witness is still the
    globally first one, so certificates do not depend on the worker count.
    """
    require_orientation(instance, criterion)
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    total = plan_total(instance)
    limit = min(total, cap)
    # A pool forks all its workers at once; more than the CPUs cannot help.
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or limit < 4096:
        found = _first_fair(instance, criterion, 0, limit)
    else:
        # Imported here: multiprocessing is heavy, and only --jobs needs it.
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, math.ceil(limit / (jobs * 8)))
        starts = range(0, limit, chunk)
        stops = [min(start + chunk, limit) for start in starts]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(
                _first_fair,
                [instance] * len(starts),
                [criterion] * len(starts),
                starts,
                stops,
            )
            found = next((r for r in results if r is not None), None)
            # Ranges after the first fair one need not run.
            pool.shutdown(cancel_futures=True)
    if found is not None:
        return ExistenceCertificate(
            exists=True,
            notion=criterion,
            witness=allocation_at(instance, found),
            checked=found + 1,
            plan_total=total,
        )
    if limit < total:
        raise BudgetExceededError(
            f"no fair allocation within budget {cap}; plan size {total}, "
            "cannot certify non-existence"
        )
    return ExistenceCertificate(
        exists=False,
        notion=criterion,
        witness=None,
        checked=total,
        plan_total=total,
    )


def count_fair(
    instance: Instance,
    criterion: ComparisonCriterion,
    budget: Optional[int] = None,
) -> tuple:
    """Count satisfying allocations over the whole plan.

    Returns (count, first witness or None). Unlike exists_fair there is no
    early exit, so the count is exact for the full plan.
    """
    require_orientation(instance, criterion)
    _require_within_budget(instance, budget)
    rows, _ = _rows(instance, criterion.orientation)
    count, first = 0, None
    for masks in _walk(instance):
        if _first_unfair_pair(rows, criterion, masks) is None:
            count, first = count + 1, first or masks
    return count, None if first is None else Allocation(_bundles(instance, first))


def check_chores_characterization(
    instance: Instance, budget: Optional[int] = None, jobs: int = 1
) -> bool:
    """Single-copy chores: EFX exists here iff EFX_WC exists on the dual.

    The dual instance has the negated values with n-1 copies of every type.
    Returns True when the two exhaustive verdicts agree (the expected
    outcome on every input; False would be a counterexample worth keeping).
    """
    from .duality import dualize

    if not instance.chores_pure:
        raise OrientationError("characterization applies to chores-pure instances")
    if any(t.copies != 1 for t in instance.types):
        raise ValueError("characterization applies to single-copy instances")
    chores_side = exists_fair(
        instance, ComparisonCriterion("efx", "chores"), budget=budget, jobs=jobs
    )
    dual = dualize(instance)
    goods_side = exists_fair(
        dual.instance,
        ComparisonCriterion("efx", "goods", without_commons=True),
        budget=budget,
        jobs=jobs,
    )
    return chores_side.exists == goods_side.exists


def max_nash_welfare(
    instance: Instance, budget: Optional[int] = None
) -> tuple:
    """Exhaustive Nash welfare maximizer for a goods-pure instance.

    Returns (allocation, product of own-bundle values). Ties keep the first
    maximizer in plan order. Products of integer totals keep that maximizer,
    since every row scale is positive; the value divides by their product.
    """
    if not instance.goods_pure:
        raise OrientationError("Nash welfare maximization expects a goods-pure instance")
    _require_within_budget(instance, budget)
    rows, scales = _rows(instance)
    best, best_welfare = None, -1  # every product is >= 0 on goods
    for masks in _walk(instance):
        welfare = math.prod(sum(_entries(row, m)) for row, m in zip(rows, masks))
        if welfare > best_welfare:
            best, best_welfare = masks, welfare
    return Allocation(_bundles(instance, best)), Fraction(best_welfare, math.prod(scales))
