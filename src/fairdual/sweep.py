"""Randomized lattice and share-bound sweeps.

A sweep draws seeded random goods instances, walks every exclusive
allocation of each, and records two things: whether the implication
lattice between the envy notions ever breaks, and the smallest
value-to-maximin ratio seen among allocations passing each notion.
Violations carry a full reproducer instance so a failure is a bug
report, not a shrug. Reports are deterministic functions of the config.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .criteria import (
    BASES,
    HIERARCHY_EDGES,
    ComparisonCriterion,
    _bundles,
    _table_rows,
    _total,
)
from .model import MAX_INSTANCE_CELLS, _is_count, format_rational, instance_to_json
from .randgen import GENERATOR_VERSION, random_instance
from .search import _all_pairs, _first_unfair_pair, _walk, plan_total
from .shares import mms_share

# Every goods criterion the sweep evaluates: each base, plain then without commons.
SWEEP_CRITERIA = tuple(
    ComparisonCriterion(base, "goods", wc) for base in BASES for wc in (False, True)
)
SWEEP_NOTIONS = tuple(c.notion for c in SWEEP_CRITERIA)

# Proven per-notion maximin guarantees the sweep must never undercut.
BOUND_FLOORS = {
    "efx_wc": Fraction(4, 11),
    "efl_wc": Fraction(1, 3),
}


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 1
    count: int = 200
    max_agents: int = 3
    max_types: int = 4
    max_value: int = 9
    plan_cap: int = 100_000

    def __post_init__(self):
        for name in ("count", "max_agents", "max_types", "max_value", "plan_cap"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.max_agents < 2:
            raise ValueError("need at least two agents")
        if self.max_types < 1:
            raise ValueError("need at least one type")
        if self.max_agents * self.max_types > MAX_INSTANCE_CELLS:
            raise ValueError(f"max_agents * max_types exceeds {MAX_INSTANCE_CELLS} values")
        if self.max_value < 0:
            raise ValueError("max_value must be nonnegative")
        if self.plan_cap < 1:
            raise ValueError("plan_cap must be positive")


@dataclass(frozen=True)
class NotionStats:
    """Aggregates for one notion across the whole sweep."""

    notion: str
    passing: int
    min_ratio: Optional[Fraction]
    min_ratio_index: Optional[int]  # sweep position of the minimizing instance


@dataclass(frozen=True)
class SweepViolation:
    kind: str  # "hierarchy" or "bound"
    index: int
    detail: str
    instance: dict  # reproducer, in instance JSON form


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    generator_version: int
    instances: int
    skipped: int  # instances drawn but not examined: plan over plan_cap
    allocations: int
    stats: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "generator_version": self.generator_version,
            "instances": self.instances,
            "skipped": self.skipped,
            "allocations": self.allocations,
            "notions": [
                {
                    "notion": s.notion,
                    "passing": s.passing,
                    "min_ratio": None
                    if s.min_ratio is None
                    else format_rational(s.min_ratio),
                    "min_ratio_instance": s.min_ratio_index,
                }
                for s in self.stats
            ],
            "violations": [
                {
                    "kind": v.kind,
                    "instance_index": v.index,
                    "detail": v.detail,
                    "instance": v.instance,
                }
                for v in self.violations
            ],
            "ok": self.ok,
        }


def _violation(kind: str, index: int, instance, detail: str) -> SweepViolation:
    """A violation on the sweep's index-th instance, with that instance as reproducer."""
    return SweepViolation(kind, index, detail, instance_to_json(instance))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Execute the sweep described by the config."""
    rng = random.Random(config.seed)
    passing = {notion: 0 for notion in SWEEP_NOTIONS}
    lowest = {}  # notion -> (least ratio, sweep index of the first instance with it)
    violations = []
    total_allocations = 0
    skipped = 0
    for index in range(config.count):
        instance = random_instance(
            rng,
            max_agents=config.max_agents,
            max_types=config.max_types,
            orientation="goods",
            max_abs_value=config.max_value,
        )
        size = plan_total(instance)
        if size > config.plan_cap:
            skipped += 1
            continue
        scales = instance.kernel.scales
        tables = {base: _table_rows(instance, ComparisonCriterion(base), size) for base in BASES}
        sums = tables["ef"]
        pairs = _all_pairs(instance.agents)
        maximins = [
            mms_share(instance, agent, budget=config.plan_cap).value
            for agent in range(instance.agents)
        ]
        for masks in _walk(instance):
            total_allocations += 1
            verdict = {
                c.notion: _first_unfair_pair(tables[c.base], c, masks, pairs) is None
                for c in SWEEP_CRITERIA
            }
            for stronger, weaker in HIERARCHY_EDGES:
                if verdict[stronger] and not verdict[weaker]:
                    bundles = [sorted(b) for b in _bundles(instance, masks)]
                    detail = f"{stronger} holds but {weaker} fails on {bundles}"
                    violations.append(_violation("hierarchy", index, instance, detail))
            # Each agent's value over a positive maximin share, once per allocation.
            ratios = [
                (agent, Fraction(_total(sums[agent], masks[agent]), scales[agent]) / share)
                for agent, share in enumerate(maximins)
                if share > 0
            ]
            least = min((ratio for _, ratio in ratios), default=None)
            for notion in SWEEP_NOTIONS:
                if not verdict[notion]:
                    continue
                passing[notion] += 1
                if ratios and (notion not in lowest or least < lowest[notion][0]):
                    lowest[notion] = (least, index)
                floor = BOUND_FLOORS.get(notion)
                if floor is None:
                    continue
                for agent, ratio in ratios:
                    if ratio < floor:
                        detail = (
                            f"{notion} allocation gives agent {agent} "
                            f"ratio {format_rational(ratio)} < {format_rational(floor)}"
                        )
                        violations.append(_violation("bound", index, instance, detail))
    stats = tuple(
        NotionStats(notion, passing[notion], *lowest.get(notion, (None, None)))
        for notion in SWEEP_NOTIONS
    )
    return SweepReport(
        config=config,
        generator_version=GENERATOR_VERSION,
        instances=config.count,
        skipped=skipped,
        allocations=total_allocations,
        stats=stats,
        violations=tuple(violations),
    )
