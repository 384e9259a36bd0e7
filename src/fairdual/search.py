"""Brute-force certification: enumeration, existence, Nash welfare.

The enumeration strategy is deterministic and seedless: for each type,
choose which agents receive a copy (subsets in lexicographic order), and
walk the cartesian product with the first type most significant. One lazy
walk, always from position 0, serves existence, counting and the sweep: it
keeps each type's holders in one list, stepped in place to the next set,
so memory does not grow with the plan.
Nash welfare walks no plan: its product depends only on the agents' own
totals, so a dynamic program over types keeps one state per distinct tuple
of totals, holding the plan position of the first prefix that reaches it.
Every certificate is therefore reproducible bit for bit.

Budgets (default DEFAULT_ENUM_CAP) follow two rules. A caller that needs
the whole plan (`count_fair`, `max_nash_welfare`, `shares.mms_share`)
refuses a plan larger than its budget before any work. `exists_fair`
walks at most `budget` plan positions and refuses only if it found no
fair allocation among them.

The walk yields per-agent type masks, updated only for the agents that
gain or lose a changed type. It can also skip the rest of the subtree under a
prefix of types. Existence and counting test pairs on the rows of
`Instance.kernel`, compiled once per call by `criteria._table_rows` into
half-row subset tables (which no instance keeps) when the walk may visit
2**ceil(T/2) positions. They skip each subtree in which a failing pair
fails everywhere (see `_refuted_depth`), so a certificate's `checked` is
a plan position: every allocation before it was either examined or lies
in a subtree a failing pair refutes. A "not exists" verdict covers the
whole plan the same way. Only the allocation a caller reports is decoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterator, Optional

from .criteria import (
    ComparisonCriterion,
    _bundles,
    _table_rows,
    criterion_eval,
    require_orientation,
)
from .duality import dualize
from .model import Allocation, BudgetExceededError, Instance, OrientationError, _is_count

# Hard default on allocations examined per exhaustive operation.
DEFAULT_ENUM_CAP = 50_000_000


def plan_total(instance: Instance) -> int:
    """Allocations in the plan, counted without building it."""
    return math.prod(math.comb(instance.agents, t.copies) for t in instance.types)


def _walk(instance: Instance) -> Iterator[list]:
    """Yield the per-agent type masks of each allocation in plan order.

    `masks[a]` has bit p set when agent a holds the type at position p. The
    list is the walk's own, changed in place by the next step: copy it to
    keep it. `walk.send(d)` skips the rest of the subtree under the current
    prefix of types 0..d and yields the first allocation after it; d = -1
    ends the walk. A plain `next` is `send(len(types) - 1)`.

    Each type keeps its sorted holders in a list, stepped in place to the
    next set in lexicographic order (Knuth, TAOCP 7.2.1.3): the tail from
    the last holder that can still rise is replaced by a run, and the bits
    flip for the old and the new tail. A step restarts the deeper types not
    at their first set, then advances the type at d; a spent type restarts
    and carries into the type before it. Memory stays O(n + sum of copies).
    """
    n = instance.agents
    types = instance.types
    holders = [list(range(t.copies)) for t in types]
    firsts = [tuple(range(t.copies)) for t in types]
    # The last holder set of k copies starts at n - k; from it back to the
    # first set, the agents in exactly one of the two flip.
    heads = [n - t.copies for t in types]
    wraps = [
        (*range(min(t.copies, n - t.copies)), *range(max(t.copies, n - t.copies), n))
        for t in types
    ]
    masks = [sum(1 << p for p, t in enumerate(types) if a < t.copies) for a in range(n)]
    count = len(types)
    top = n - 1
    while True:
        depth = yield masks
        if depth is None:
            depth = count - 1
        for pos in range(depth + 1, count):
            held, first = holders[pos], firsts[pos]
            if held[-1] != first[-1]:
                bit = 1 << pos
                for agent in held:
                    masks[agent] ^= bit
                for agent in first:
                    masks[agent] ^= bit
                held[:] = first
        while depth >= 0:
            held = holders[depth]
            bit = 1 << depth
            x = held[-1]
            if x < top:
                masks[x] ^= bit
                masks[x + 1] ^= bit
                held[-1] = x + 1
                break
            if held[0] == heads[depth]:
                for agent in wraps[depth]:
                    masks[agent] ^= bit
                held[:] = firsts[depth]
                depth -= 1
                continue
            # The last holder is at the top: find the last one that can still rise.
            k = len(held)
            i = k - 2
            while held[i] == top - (k - 1 - i):
                i -= 1
            for agent in held[i:]:
                masks[agent] ^= bit
            x = held[i] + 1
            held[i:] = range(x, x + k - i)
            for agent in held[i:]:
                masks[agent] ^= bit
            break
        else:
            return


def _cap(budget: Optional[int]) -> int:
    """The budget's cap on plan positions: DEFAULT_ENUM_CAP for None.

    Anything but None or a non-negative int (a bool is no count) is refused.
    """
    if budget is None:
        return DEFAULT_ENUM_CAP
    if not _is_count(budget) or budget < 0:
        raise ValueError(f"budget must be None or a non-negative int, got {budget!r}")
    return budget


def _require_within_budget(instance: Instance, budget: Optional[int]) -> None:
    """Refuse a plan larger than the budget (default DEFAULT_ENUM_CAP)."""
    cap = _cap(budget)
    total = plan_total(instance)
    if total > cap:
        raise BudgetExceededError(
            f"enumeration budget {cap} exhausted with allocations remaining "
            f"(plan size {total})"
        )


def allocation_at(instance: Instance, index: int) -> Allocation:
    """The allocation at a given plan position, unranked without a walk.

    One mixed-radix digit per type, the first most significant, is the
    lexicographic rank of that type's holder set among the agents' k-subsets.
    """
    total = plan_total(instance)
    if not _is_count(index) or not 0 <= index < total:
        raise IndexError(f"index {index!r} outside plan of size {total}")
    n, masks = instance.agents, [0] * instance.agents
    for pos in reversed(range(len(instance.types))):
        k = instance.types[pos].copies
        index, rank = divmod(index, math.comb(n, k))
        for agent in range(n):
            # Of the subsets left, comb(n - agent - 1, k - 1) take `agent` next.
            below = math.comb(n - agent - 1, k - 1) if k else 0
            if rank < below:
                masks[agent] |= 1 << pos
                k -= 1
            else:
                rank -= below
    return Allocation(_bundles(instance, masks))


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of an exhaustive existence check.

    For a positive verdict, `witness` is the first fair allocation in plan
    order and `checked` is its plan position plus one. For a refutation,
    `checked` equals `plan_total`. Either way every allocation before
    `checked` was examined or lies in a subtree that a failing pair refutes,
    so the walk may have examined fewer than `checked` allocations.
    """

    exists: bool
    witness: Optional[Allocation]
    checked: int
    plan_total: int


def _all_pairs(n: int) -> tuple:
    """Every ordered pair (i, j) of distinct agents, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def _first_unfair_pair(rows, criterion, masks, pairs) -> Optional[tuple]:
    """The first pair (i, j) of `pairs` the criterion rejects, or None.

    `pairs`, built once per walk in lexicographic order, is `_all_pairs(n)` or
    omits pairs known to pass, as the leveled walk keeps smaller-to-larger ones.

    Not shared with `criteria.is_fair`, which lists every failing pair: the
    walks look `criterion_eval` up here, where `bench/spans.py` counts them.
    """
    for i, j in pairs:
        if not criterion_eval(criterion, rows[i], masks[i], masks[j]):
            return i, j
    return None


def _refuted_depth(criterion, row, mask_i: int, mask_j: int, full: int, everything: int) -> int:
    """How far up the plan tree a failing pair (i, j) refutes this allocation.

    Returns the shallowest depth d >= 0 such that the pair fails on every
    allocation sharing this one's holders of types 0..d. `row` is agent i's
    row from `_rows` or `_table_rows`, `full` the mask of the full-copy
    types and `everything` the mask of all types.

    Soundness: `require_orientation` makes every row `_rows` gives
    non-negative, and for every base, plain or `_wc`, an item on the own
    side never hurts, an item on the other side never helps, and a shared
    item is never better than own-only. So the pair's best completion of a
    prefix gives each later type that is not full to the favoured agent
    alone (i for goods, j for chores, whose sides swap) and each full-copy
    type to both; if the pair fails there, it fails on every allocation in
    the subtree. Climbing from the deepest prefix, trailing types that this
    allocation already gives the favoured agent alone need no evaluation;
    each other type costs one, until the pair passes. It passes at the
    lowest such type at the latest: there the completion is the fully
    favourable allocation, which every base accepts.
    """
    chores = criterion.orientation == "chores"
    fav, other = (mask_j, mask_i) if chores else (mask_i, mask_j)
    # Types this allocation does not give the favoured agent alone.
    loose = everything & ~full & ~(fav & ~other)
    while True:
        assert loose, "a failing pair fails its fully favourable completion"
        depth = loose.bit_length() - 1
        loose ^= 1 << depth
        prefix = (1 << depth) - 1
        best_fav = fav & prefix | everything & ~prefix
        best_other = other & prefix | full & ~prefix
        pair = (best_other, best_fav) if chores else (best_fav, best_other)
        if criterion_eval(criterion, row, *pair):
            return depth


def _fair_indices(instance, criterion, stop: int) -> Iterator[tuple]:
    """(index, masks) per fair allocation below plan index `stop`, in order.

    `masks` is the walk's live list, valid until the next step. At an unfair
    allocation the walk jumps past the subtree its first failing pair
    refutes (`_refuted_depth`). The pair tests read the rows `_table_rows`
    compiles once per call for a walk of at most `stop` positions.
    """
    if stop <= 0:
        return
    rows = _table_rows(instance, criterion, stop)
    n, last = instance.agents, len(instance.types) - 1
    everything = (1 << len(instance.types)) - 1
    full = sum(1 << p for p, t in enumerate(instance.types) if t.copies == n)
    # below[d + 1]: the allocations sharing one holder choice for types 0..d.
    below = [1]
    for t in reversed(instance.types):
        below.append(below[-1] * math.comb(n, t.copies))
    below.reverse()
    pairs = _all_pairs(n)
    walk = _walk(instance)
    masks = next(walk)
    index = 0
    while True:
        pair = _first_unfair_pair(rows, criterion, masks, pairs)
        if pair is None:
            yield index, masks
            depth = last
        else:
            i, j = pair
            depth = _refuted_depth(criterion, rows[i], masks[i], masks[j], full, everything)
        size = below[depth + 1]
        index = (index // size + 1) * size
        if index >= stop:
            return
        masks = walk.send(depth)


def exists_fair(
    instance: Instance,
    criterion: ComparisonCriterion,
    budget: Optional[int] = None,
) -> ExistenceCertificate:
    """Decide whether any complete exclusive allocation satisfies the criterion.

    Sweeps the plan in order, skipping subtrees a failing pair refutes, and
    stops at the first fair allocation; a refutation covers the whole plan.
    """
    require_orientation(instance, criterion)
    cap = _cap(budget)
    total = plan_total(instance)
    limit = min(total, cap)
    found = next(_fair_indices(instance, criterion, limit), None)
    if found is not None:
        index, masks = found
        return ExistenceCertificate(
            exists=True,
            witness=Allocation(_bundles(instance, masks)),
            checked=index + 1,
            plan_total=total,
        )
    if limit < total:
        raise BudgetExceededError(
            f"no fair allocation within budget {cap}; plan size {total}, "
            "cannot certify non-existence"
        )
    return ExistenceCertificate(
        exists=False,
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
    early exit, so the count is exact for the full plan; only subtrees a
    failing pair refutes are skipped.
    """
    require_orientation(instance, criterion)
    _require_within_budget(instance, budget)
    fair = _fair_indices(instance, criterion, plan_total(instance))
    first = next(fair, None)
    if first is None:
        return 0, None
    witness = Allocation(_bundles(instance, first[1]))
    return 1 + sum(1 for _ in fair), witness


def check_chores_characterization(instance: Instance) -> bool:
    """Single-copy chores: EFX exists here iff EFX_WC exists on the dual.

    The dual instance has the negated values with n-1 copies of every type.
    Returns True when the two exhaustive verdicts agree (the expected
    outcome on every input; False would be a counterexample worth keeping).
    """
    if not instance.chores_pure:
        raise OrientationError("characterization applies to chores-pure instances")
    if any(t.copies != 1 for t in instance.types):
        raise ValueError("characterization applies to single-copy instances")
    chores_side = exists_fair(instance, ComparisonCriterion("efx", "chores"))
    goods_side = exists_fair(
        dualize(instance).instance, ComparisonCriterion("efx", "goods", without_commons=True)
    )
    return chores_side.exists == goods_side.exists


def max_nash_welfare(
    instance: Instance, budget: Optional[int] = None
) -> tuple:
    """Exact Nash welfare maximizer for a goods-pure instance.

    Returns (allocation, product of own-bundle values). Ties keep the first
    maximizer in plan order. The product depends only on the agents' own
    totals on the integer kernel rows, so a dynamic program over types keeps
    one state per distinct tuple of totals: the plan index of the first
    prefix reaching it. Parents grow in insertion order and holder sets in
    rank order, and a state keeps its first index, so insertion order is
    plan order and `max` returns the first maximizer, which `allocation_at`
    decodes. No layer outgrows its prefix plan, so a plan over the budget is
    refused before any work. Products of integer totals keep that maximizer,
    since every row scale is positive; the value divides by their product.
    """
    if not instance.goods_pure:
        raise OrientationError("Nash welfare maximization expects a goods-pure instance")
    _require_within_budget(instance, budget)
    n = instance.agents
    layer = {(0,) * n: 0}
    for t, column in zip(instance.types, zip(*instance.kernel.rows)):
        steps = [
            tuple(column[a] if a in holders else 0 for a in range(n))
            for holders in combinations(range(n), t.copies)
        ]
        grown = {}
        for totals, index in layer.items():
            first = index * len(steps)
            for rank, step in enumerate(steps):
                grown.setdefault(tuple(map(add, totals, step)), first + rank)
        layer = grown
    best = max(layer, key=math.prod)
    welfare = Fraction(math.prod(best), math.prod(instance.kernel.scales))
    return allocation_at(instance, layer[best]), welfare
