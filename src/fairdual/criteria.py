"""Pairwise fairness criteria, reports and envy graphs.

A comparison criterion looks at one ordered pair of bundles through one
agent's eyes: the agent's own bundle B_I against another bundle B_U. The
goods bases are EF, EF1, EFX and EFL. Two orthogonal modifiers produce the
rest of the family:

  * chores orientation is the complement: evaluate the base on the negated
    valuation with the bundles swapped;
  * "without commons" (suffix _wc) strips the shared types first, comparing
    B_I minus B_U against B_U minus B_I.

The two modifiers commute, so applying strip-then-complement is exact.

Pair tests run on integers. They read `Instance.kernel`, compiled once per
instance: each agent's row times the LCM of its denominators (a positive
factor, so no comparison changes). Chores tests read it negated, as
`Instance.chores_rows`, also built once per instance; a bundle is a mask
with bit p set for the type at position p.
`criterion_eval` strips with `a & ~b` / `b & ~a`, swaps the sides for
chores and decides a goods base on the row's entries at the bits. It takes
a row in either of two forms. On a kernel row it walks each side's bits
once, summing them and, on the other side, tracking the largest (EF1) or
smallest (EFX) entry; only EFL lists the other side. A plan walk tests
thousands of allocations against the same rows, so `_table_rows` compiles
them once per walk into `HalfTables`: subset tables over the low and the
high half of the positions (the meet-in-the-middle split of Horowitz and
Sahni, 1974), when the walk may visit at least as many plan positions as
a half-table has entries. On those a side's sum, and the other side's
least or largest entry, take two lookups each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    Allocation,
    Instance,
    NotACycleError,
    OrientationError,
    require_valid,
)

BASES = ("ef", "ef1", "efx", "efl")

# Implications among the goods notions, checked by the sweep harness: every
# allocation satisfying the left notion must satisfy the right one. EF and
# EF_wc imply each other because values are additive, so common types cancel.
HIERARCHY_EDGES = (
    ("ef", "efx"),
    ("ef", "ef_wc"),
    ("ef_wc", "ef"),
    ("efx", "efx_wc"),
    ("efx_wc", "efl_wc"),
    ("efl_wc", "ef1_wc"),
    ("ef1_wc", "ef1"),
    ("efx", "efl"),
    ("efl", "ef1"),
)


@dataclass(frozen=True)
class ComparisonCriterion:
    """One member of the criterion family."""

    base: str
    orientation: str = "goods"
    without_commons: bool = False

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown base criterion {self.base!r}")
        if self.orientation not in ("goods", "chores"):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def notion(self) -> str:
        """The notion string: base plus optional _wc suffix."""
        return self.base + ("_wc" if self.without_commons else "")

    def __str__(self) -> str:
        return f"{self.notion}[{self.orientation}]"


def parse_notion(notion: str) -> tuple:
    """Split a notion string like "efx_wc" into (base, without_commons)."""
    base, wc = notion, False
    if notion.endswith("_wc"):
        base, wc = notion[: -len("_wc")], True
    if base not in BASES:
        raise ValueError(f"unknown notion {notion!r}")
    return base, wc


def criterion_for(instance: Instance, notion: str) -> ComparisonCriterion:
    """Build a criterion for this sign-pure instance, in its own orientation."""
    base, wc = parse_notion(notion)
    orientation = instance.orientation()
    if orientation is None:
        raise OrientationError(
            "instance mixes goods and chores; no criterion applies to it"
        )
    return ComparisonCriterion(base, orientation, wc)


def _rows(instance: Instance, orientation: str = "goods"):
    """Per agent, the kernel row, negated for chores."""
    return instance.chores_rows if orientation == "chores" else instance.kernel.rows


def _entries(row, mask: int) -> list:
    """The row's entries at the set bits of mask, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(row[low.bit_length() - 1])
        mask ^= low
    return out


def _bits(mask: int) -> list:
    """Positions of the set bits of mask, lowest first (instance order)."""
    return _entries(range(mask.bit_length()), mask)


def _masks(instance: Instance, bundles) -> list:
    """Each bundle of type names as a mask."""
    return [sum(1 << instance.index[name] for name in b) for b in bundles]


def _bundles(instance: Instance, masks) -> tuple:
    """Each mask as a bundle: a frozenset of type names."""
    return tuple(frozenset(_entries(instance.type_names(), m)) for m in masks)


# Widest half, in type positions, that `_table_rows` compiles: 2**12 entries
# per table, so only a walk over at most 24 types can read tables.
HALF_BITS = 12


def _subset_sums(items):
    """Sum of every subset of the items, indexed by bitmask."""
    sums = [0]
    for item in items:
        sums += [s + item for s in sums]
    return sums


def _least_items(items, empty=None):
    """Least item of every subset, indexed by bitmask.

    The empty subset's is `empty`, by default the items' sum plus one, which
    exceeds every item when none is negative.
    """
    least = [sum(items) + 1 if empty is None else empty]
    for item in items:
        least += [x if x < item else item for x in least]
    return least


def _largest_items(items):
    """Largest item of every subset, indexed by bitmask; the empty subset's is 0."""
    largest = [0]
    for item in items:
        largest += [x if x > item else item for x in largest]
    return largest


class HalfTables:
    """One non-negative row as subset tables over two halves of the positions.

    The low half holds the first `cut` positions (ceil(T/2) of T), the high
    half the rest. A mask's sum is `low_sums[mask & low] + high_sums[mask >>
    cut]`. For EFX, `low_spared`/`high_spared` hold each half-subset's least
    entry (an empty half's exceeds every entry); for EF1, its largest (an
    empty half's is 0); EF reads neither and leaves them None.
    """

    __slots__ = ("cut", "low", "low_sums", "high_sums", "low_spared", "high_spared")

    def __init__(self, row, base: str):
        self.cut = (len(row) + 1) // 2
        self.low = (1 << self.cut) - 1
        low, high = row[: self.cut], row[self.cut :]
        self.low_sums, self.high_sums = _subset_sums(low), _subset_sums(high)
        self.low_spared = self.high_spared = None
        if base == "efx":
            # One empty-half entry above every entry of the row.
            empty = sum(row) + 1
            self.low_spared = _least_items(low, empty)
            self.high_spared = _least_items(high, empty)
        elif base == "ef1":
            self.low_spared, self.high_spared = _largest_items(low), _largest_items(high)


def _table_rows(instance: Instance, criterion: ComparisonCriterion, positions: int) -> Sequence:
    """Per agent, the criterion's row from `_rows` compiled for a plan walk.

    `positions` is the most plan positions the walk may visit. Each row
    becomes a HalfTables holding the tables the criterion's base reads,
    built per call and kept by no instance. The walks call it after
    `require_orientation`, so no row has a negative entry, as the tables'
    empty-half entries assume. The kernel rows, which `criterion_eval`
    reads as well, are kept where tables would not pay: EFL reads none, a
    half wider than HALF_BITS would be too large, and a walk of fewer
    positions than the low half-table's 2**cut entries could spend more on
    building the tables than on its pair tests.
    """
    rows = _rows(instance, criterion.orientation)
    cut = (len(instance.types) + 1) // 2
    if criterion.base == "efl" or cut > HALF_BITS or positions < 2**cut:
        return rows
    return [HalfTables(row, criterion.base) for row in rows]


def _total(row, mask: int) -> int:
    """The sum of a `_rows` or `_table_rows` row over the positions in mask."""
    if type(row) is HalfTables:
        return row.low_sums[mask & row.low] + row.high_sums[mask >> row.cut]
    return sum(_entries(row, mask))


def criterion_eval(criterion: ComparisonCriterion, row, mask_i: int, mask_u: int) -> bool:
    """Whether the criterion accepts mask_i against mask_u for the agent of `row`.

    `row` comes from `_rows` for the criterion's orientation, or from
    `_table_rows`; on a HalfTables each side costs two table lookups.
    """
    if criterion.without_commons:
        mask_i, mask_u = mask_i & ~mask_u, mask_u & ~mask_i
    if criterion.orientation == "chores":
        mask_i, mask_u = mask_u, mask_i
    if type(row) is HalfTables:
        low, cut, low_sums, high_sums = row.low, row.cut, row.low_sums, row.high_sums
        lo, hi = mask_u & low, mask_u >> cut
        # How far the other side's sum exceeds the own side's.
        gap = low_sums[lo] + high_sums[hi] - low_sums[mask_i & low] - high_sums[mask_i >> cut]
        base = criterion.base
        if base == "ef":
            return gap <= 0
        # EFX forgives the least entry: the gap is at most both halves' least.
        # EF1 forgives the largest: the gap is at most either half's largest.
        if base == "efx":
            return gap <= row.low_spared[lo] and gap <= row.high_spared[hi]
        return gap <= row.low_spared[lo] or gap <= row.high_spared[hi]
    mine = 0
    while mask_i:
        low = mask_i & -mask_i
        mine += row[low.bit_length() - 1]
        mask_i ^= low
    base = criterion.base
    if base == "efl":
        other = _entries(row, mask_u)
        theirs = sum(other)
        return len(other) <= 1 or any(mine >= theirs - v and mine >= v for v in other)
    if base == "ef":
        theirs = 0
        while mask_u:
            low = mask_u & -mask_u
            theirs += row[low.bit_length() - 1]
            mask_u ^= low
        return mine >= theirs
    if not mask_u:
        return True
    # EF1 forgives the other side's largest entry, EFX its smallest.
    largest = base == "ef1"
    low = mask_u & -mask_u
    theirs = spared = row[low.bit_length() - 1]
    mask_u ^= low
    while mask_u:
        low = mask_u & -mask_u
        v = row[low.bit_length() - 1]
        theirs += v
        if v > spared if largest else v < spared:
            spared = v
        mask_u ^= low
    return mine >= theirs - spared


def _offending_item(
    criterion: ComparisonCriterion, instance: Instance, row, mask_i: int, mask_u: int
) -> Optional[str]:
    """For a failing pair, the item that demonstrates the failure, if any.

    Only EFX reports one: the first type in instance order (lowest bit)
    whose removal from the other side still leaves the agent envious. EF
    removes nothing, and the existential bases (EF1, EFL) fail for every
    item, so none of them reports an item.
    """
    if criterion.base != "efx":
        return None
    if criterion.without_commons:
        mask_i, mask_u = mask_i & ~mask_u, mask_u & ~mask_i
    if criterion.orientation == "chores":
        mask_i, mask_u = mask_u, mask_i
    gap = sum(_entries(row, mask_u)) - sum(_entries(row, mask_i))
    for p in _bits(mask_u):
        if row[p] < gap:
            return instance.types[p].name
    return None


@dataclass(frozen=True)
class Witness:
    """One violating ordered pair, with an optional demonstrating item."""

    envious: int
    envied: Optional[int] = None
    item: Optional[str] = None


@dataclass(frozen=True)
class FairnessReport:
    """Verdict of a fairness check plus every violating pair."""

    fair: bool
    witnesses: tuple = ()


def require_orientation(instance: Instance, criterion: ComparisonCriterion) -> None:
    if criterion.orientation == "goods" and not instance.goods_pure:
        raise OrientationError("goods criterion on an instance that is not goods-pure")
    if criterion.orientation == "chores" and not instance.chores_pure:
        raise OrientationError("chores criterion on an instance that is not chores-pure")


def is_fair(
    instance: Instance, allocation: Allocation, criterion: ComparisonCriterion
) -> FairnessReport:
    """Check the criterion on every ordered agent pair.

    The instance must be sign-pure and match the criterion's orientation
    (an all-zero instance matches both). Witnesses come out in
    lexicographic (envious, envied) order. The walks stop at the first
    failing pair instead, in their own loop (`search._first_unfair_pair`).
    """
    require_valid(instance, allocation)
    require_orientation(instance, criterion)
    rows = _rows(instance, criterion.orientation)
    masks = _masks(instance, allocation.bundles)
    witnesses = []
    for i, row in enumerate(rows):
        for j, mask in enumerate(masks):
            if i != j and not criterion_eval(criterion, row, masks[i], mask):
                item = _offending_item(criterion, instance, row, masks[i], mask)
                witnesses.append(Witness(i, j, item))
    return FairnessReport(fair=not witnesses, witnesses=tuple(witnesses))


def envy_graph(instance: Instance, allocation: Allocation) -> frozenset:
    """Envy edges of a valid allocation: (i, j) when i values j's bundle above its own.

    They are the pairs the plain goods EF test rejects on the signed kernel
    rows (any sign pattern), where it compares the own value with the other's.
    """
    require_valid(instance, allocation)
    ef = ComparisonCriterion("ef")
    masks = _masks(instance, allocation.bundles)
    return frozenset(
        (i, j)
        for i, row in enumerate(instance.kernel.rows)
        for j, mask in enumerate(masks)
        if i != j and not criterion_eval(ef, row, masks[i], mask)
    )


def cancel_envy_cycle(
    instance: Instance, allocation: Allocation, cycle: Sequence
) -> Allocation:
    """Rotate bundles along an envy cycle; every agent on it strictly gains.

    `cycle` lists distinct agents such that each envies the next (the last
    envies the first). An empty cycle returns the allocation unchanged.
    """
    cycle = list(cycle)
    if not cycle:
        return allocation
    if len(set(cycle)) != len(cycle):
        raise NotACycleError(f"agents repeat in {cycle}")
    edges = envy_graph(instance, allocation)
    bundles = list(allocation.bundles)
    for agent, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        if (agent, nxt) not in edges:
            raise NotACycleError(f"agent {agent} does not envy agent {nxt}")
        bundles[agent] = allocation.bundles[nxt]
    return Allocation(tuple(bundles))
