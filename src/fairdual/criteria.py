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
factor, so no comparison changes). `_rows` negates it for chores, and a
bundle is a mask with bit p set for the type at position p.
`criterion_eval` strips with `a & ~b` / `b & ~a`, swaps the sides for
chores and decides a goods base on the row's entries at the bits. It walks
each side's bits once, summing them and, on the other side, tracking the
largest (EF1) or smallest (EFX) entry; only EFL lists the other side.
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
    rows = instance.kernel.rows
    return [[-v for v in row] for row in rows] if orientation == "chores" else rows


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


def criterion_eval(criterion: ComparisonCriterion, row, mask_i: int, mask_u: int) -> bool:
    """Whether the criterion accepts mask_i against mask_u for the agent of `row`.

    `row` comes from `_rows` for the criterion's orientation.
    """
    if criterion.without_commons:
        mask_i, mask_u = mask_i & ~mask_u, mask_u & ~mask_i
    if criterion.orientation == "chores":
        mask_i, mask_u = mask_u, mask_i
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
    notion: ComparisonCriterion
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
    return FairnessReport(
        fair=not witnesses, notion=criterion, witnesses=tuple(witnesses)
    )


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
