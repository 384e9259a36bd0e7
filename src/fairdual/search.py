"""Brute-force certification: enumeration, existence, Nash welfare.

The enumeration strategy is deterministic and seedless: for each type,
choose which agents receive a copy (subsets in lexicographic order), and
walk the cartesian product with the first type most significant. Every
certificate produced from it is therefore reproducible bit for bit, and
"not exists" verdicts state how many allocations were examined (always the
whole plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Optional

from .criteria import ComparisonCriterion, criterion_eval, require_orientation
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    OrientationError,
    instance_from_json,
    instance_to_json,
)

# Hard default on allocations examined per exhaustive operation.
DEFAULT_ENUM_CAP = 50_000_000


@dataclass(frozen=True)
class EnumerationPlan:
    """Per-type agent-subset choices and the resulting allocation count."""

    subsets: tuple  # one tuple of agent-index tuples per type
    total: int


def plan_total(instance: Instance) -> int:
    """Allocations in the plan, counted without building it."""
    return math.prod(math.comb(instance.agents, t.copies) for t in instance.types)


def enumeration_plan(instance: Instance) -> EnumerationPlan:
    per_type = tuple(
        tuple(combinations(range(instance.agents), t.copies)) for t in instance.types
    )
    return EnumerationPlan(subsets=per_type, total=plan_total(instance))


def _bundles_for_choice(instance: Instance, choice) -> tuple:
    bundles = [[] for _ in range(instance.agents)]
    for pos, holders in enumerate(choice):
        name = instance.types[pos].name
        for agent in holders:
            bundles[agent].append(name)
    return tuple(frozenset(b) for b in bundles)


def enumerate_allocations(
    instance: Instance, budget: Optional[int] = None
) -> Iterator[Allocation]:
    """Stream every complete exclusive allocation in plan order.

    Raises BudgetExceededError if the stream would pass the budget
    (default DEFAULT_ENUM_CAP) with allocations still unvisited.
    """
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    plan = enumeration_plan(instance)
    produced = 0
    for choice in product(*plan.subsets):
        if produced >= cap:
            raise BudgetExceededError(
                f"enumeration budget {cap} exhausted with allocations remaining "
                f"(plan size {plan.total})"
            )
        produced += 1
        yield Allocation(_bundles_for_choice(instance, choice))


def allocation_at(instance: Instance, index: int) -> Allocation:
    """Decode the allocation at a given plan position (mixed radix)."""
    plan = enumeration_plan(instance)
    if not 0 <= index < plan.total:
        raise IndexError(f"index {index} outside plan of size {plan.total}")
    digits = []
    remaining = index
    for options in reversed(plan.subsets):
        remaining, digit = divmod(remaining, len(options))
        digits.append(options[digit])
    choice = tuple(reversed(digits))
    return Allocation(_bundles_for_choice(instance, choice))


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


def _agent_valuations(instance: Instance) -> list:
    return [
        {t.name: instance.values[i][p] for p, t in enumerate(instance.types)}
        for i in range(instance.agents)
    ]


def _satisfies(instance, valuations, criterion, bundles) -> bool:
    for i in range(instance.agents):
        for j in range(instance.agents):
            if i != j and not criterion_eval(
                criterion, valuations[i], bundles[i], bundles[j]
            ):
                return False
    return True


def _scan_range(args):
    """Worker: find the first fair allocation index in [start, stop)."""
    instance_json, base, orientation, wc, start, stop = args
    instance = instance_from_json(instance_json)
    criterion = ComparisonCriterion(base, orientation, wc)
    valuations = _agent_valuations(instance)
    plan = enumeration_plan(instance)
    # Re-derive the product cursor at `start` instead of shipping allocations.
    radices = plan.subsets
    digits = []
    remaining = start
    for options in reversed(radices):
        remaining, digit = divmod(remaining, len(options))
        digits.append(digit)
    digits.reverse()
    for index in range(start, stop):
        choice = tuple(radices[pos][d] for pos, d in enumerate(digits))
        bundles = _bundles_for_choice(instance, choice)
        if _satisfies(instance, valuations, criterion, bundles):
            return index
        for pos in range(len(digits) - 1, -1, -1):
            digits[pos] += 1
            if digits[pos] < len(radices[pos]):
                break
            digits[pos] = 0
    return None


def exists_fair(
    instance: Instance,
    criterion: ComparisonCriterion,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> ExistenceCertificate:
    """Decide whether any complete exclusive allocation satisfies the criterion.

    Sweeps the plan in order; a refutation requires the full sweep. With
    jobs > 1 the sweep is split over worker processes; the reported witness
    is still the globally first one, so certificates do not depend on the
    worker count.
    """
    require_orientation(instance, criterion)
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    plan = enumeration_plan(instance)
    limit = min(plan.total, cap)
    found: Optional[int] = None
    if jobs <= 1 or limit < 4096:
        valuations = _agent_valuations(instance)
        index = 0
        for choice in product(*plan.subsets):
            if index >= limit:
                break
            bundles = _bundles_for_choice(instance, choice)
            if _satisfies(instance, valuations, criterion, bundles):
                found = index
                break
            index += 1
    else:
        # Imported here: multiprocessing is heavy, and only --jobs needs it.
        from concurrent.futures import ProcessPoolExecutor
        instance_json = instance_to_json(instance)
        chunk = max(1, math.ceil(limit / (jobs * 8)))
        tasks = [
            (
                instance_json,
                criterion.base,
                criterion.orientation,
                criterion.without_commons,
                start,
                min(start + chunk, limit),
            )
            for start in range(0, limit, chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_scan_range, tasks):
                if result is not None:
                    found = result
                    break
    if found is not None:
        return ExistenceCertificate(
            exists=True,
            notion=criterion,
            witness=allocation_at(instance, found),
            checked=found + 1,
            plan_total=plan.total,
        )
    if limit < plan.total:
        raise BudgetExceededError(
            f"no fair allocation within budget {cap}; plan size {plan.total}, "
            "cannot certify non-existence"
        )
    return ExistenceCertificate(
        exists=False,
        notion=criterion,
        witness=None,
        checked=plan.total,
        plan_total=plan.total,
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
    valuations = _agent_valuations(instance)
    count = 0
    witness: Optional[Allocation] = None
    for allocation in enumerate_allocations(instance, budget=budget):
        if _satisfies(instance, valuations, criterion, allocation.bundles):
            count += 1
            if witness is None:
                witness = allocation
    return count, witness


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
    maximizer in plan order.
    """
    if not instance.goods_pure:
        raise OrientationError("Nash welfare maximization expects a goods-pure instance")
    best: Optional[Allocation] = None
    best_value: Optional[Fraction] = None
    for allocation in enumerate_allocations(instance, budget=budget):
        welfare = Fraction(1)
        for i in range(instance.agents):
            welfare *= instance.bundle_value(i, allocation.bundles[i])
        if best_value is None or welfare > best_value:
            best, best_value = allocation, welfare
    if best is None:
        raise ValueError("instance admits no allocations")
    return best, best_value
