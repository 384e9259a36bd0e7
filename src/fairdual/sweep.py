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

from .criteria import BASES, HIERARCHY_EDGES, ComparisonCriterion, _bundles
from .model import Instance, format_rational, instance_to_json
from .randgen import GENERATOR_VERSION, random_instance
from .search import _first_unfair_pair, _walk, plan_total
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
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.max_agents < 2:
            raise ValueError("need at least two agents")
        if self.max_types < 1:
            raise ValueError("need at least one type")
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


def _sweep_instance(config: SweepConfig, rng: random.Random) -> Instance:
    return random_instance(
        rng,
        max_agents=config.max_agents,
        max_types=config.max_types,
        orientation="goods",
        max_abs_value=config.max_value,
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Execute the sweep described by the config."""
    rng = random.Random(config.seed)
    passing = {notion: 0 for notion in SWEEP_NOTIONS}
    min_ratio = {notion: None for notion in SWEEP_NOTIONS}
    min_index = {notion: None for notion in SWEEP_NOTIONS}
    violations = []
    total_allocations = 0
    skipped = 0
    for index in range(config.count):
        instance = _sweep_instance(config, rng)
        if plan_total(instance) > config.plan_cap:
            skipped += 1
            continue
        rows, scales = instance.kernel
        maximins = [
            mms_share(instance, agent, budget=config.plan_cap).value
            for agent in range(instance.agents)
        ]
        for masks, own in _walk(instance):
            total_allocations += 1
            verdict = {
                c.notion: _first_unfair_pair(rows, c, masks) is None
                for c in SWEEP_CRITERIA
            }
            for stronger, weaker in HIERARCHY_EDGES:
                if verdict[stronger] and not verdict[weaker]:
                    violations.append(
                        SweepViolation(
                            kind="hierarchy",
                            index=index,
                            detail=(
                                f"{stronger} holds but {weaker} fails on "
                                f"{[sorted(b) for b in _bundles(instance, masks)]}"
                            ),
                            instance=instance_to_json(instance),
                        )
                    )
            for notion in SWEEP_NOTIONS:
                if not verdict[notion]:
                    continue
                passing[notion] += 1
                for agent in range(instance.agents):
                    share = maximins[agent]
                    if share <= 0:
                        continue
                    value = Fraction(own[agent], scales[agent])
                    ratio = value / share
                    if min_ratio[notion] is None or ratio < min_ratio[notion]:
                        min_ratio[notion] = ratio
                        min_index[notion] = index
                    floor = BOUND_FLOORS.get(notion)
                    if floor is not None and ratio < floor:
                        violations.append(
                            SweepViolation(
                                kind="bound",
                                index=index,
                                detail=(
                                    f"{notion} allocation gives agent {agent} "
                                    f"ratio {format_rational(ratio)} < "
                                    f"{format_rational(floor)}"
                                ),
                                instance=instance_to_json(instance),
                            )
                        )
    stats = tuple(
        NotionStats(
            notion=notion,
            passing=passing[notion],
            min_ratio=min_ratio[notion],
            min_ratio_index=min_index[notion],
        )
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
