"""Seeded instance generator for the benchmark workloads.

Standard library only, and independent of `fairdual.randgen`: an edit to the
package's own generator must not change what a workload runs. The sampling
scheme below is part of the benchmark; bump GENERATOR_VERSION on any edit
that changes the generated bytes for some seed.

Each workload has a fixed cycle of strata, and instance i is drawn from
stratum i mod len(strata). A stratum fixes the shape (agent count, type
counts, and so the plan size); the seed draws which copy count each type
gets among those that keep the plan size, and the values. A document holds
whole cycles, so runs with different seeds cover the same shapes and differ
only in values.
"""

from __future__ import annotations

import json
import random

GENERATOR_VERSION = 2

MAX_VALUE = 9

# (kind, agents, free types, two-copy types among them, full-copy types).
# A free type with 1 or n - 1 copies multiplies the plan size by n, a
# two-copy type with n = 4 by 6, a full-copy type by 1.

# exhaustive: goods, chores and single-copy chores with 2-4 agents. Nine
# strata have plans of 256-729 allocations, so a full sweep (count_fair,
# max_nash_welfare, a refutation) costs tens of milliseconds and a run holds
# many instances; a plan of 81 and one of 4096 add the ends of the 1e2..1e4
# range.
EXHAUSTIVE_STRATA = (
    ("goods", 2, 9, 0, 1),          # 512
    ("chores", 2, 9, 0, 1),         # 512
    ("chores-single", 2, 9, 0, 0),  # 512
    ("goods", 3, 6, 0, 1),          # 729
    ("chores", 3, 6, 0, 1),         # 729
    ("chores-single", 3, 6, 0, 0),  # 729
    ("goods", 4, 4, 1, 1),          # 384
    ("chores", 4, 4, 1, 1),         # 384
    ("chores-single", 4, 4, 0, 0),  # 256
    ("goods", 3, 4, 0, 1),          # 81
    ("goods", 2, 12, 0, 1),         # 4096
)

# shares: 4-8 free types plus 0-2 full-copy (forced) types, plans of 64 to
# 4096 allocations, so that the slowest maximin call stays near 0.25 s and a
# run holds several hundred operations.
SHARES_STRATA = (
    ("goods", 2, 8, 0, 1),   # 256
    ("chores", 2, 6, 0, 2),  # 64
    ("goods", 3, 5, 0, 0),   # 243
    ("chores", 3, 7, 0, 1),  # 2187
    ("goods", 4, 6, 0, 2),   # 4096
    ("chores", 4, 4, 4, 0),  # 1296
)

# leveled: 2-8 agents and 4-24 types, values on a grid inside [1, 1 + 1/|T|),
# which keeps every valuation leveled (any m + 1 types outweigh any m).
LEVELED_GRID = 16
LEVELED_STRATA = tuple(
    (agents, n_types) for n_types in range(4, 25) for agents in range(2, 9)
)

# Cycles per document: the operation set of one run. Sized so that pass 0
# over it takes most of a 30 s run on a shared 2-vCPU x86 guest, and as many
# operations as that allows keep the percentiles steady from seed to seed.
CYCLES = {"exhaustive": 17, "shares": 9, "leveled": 16}


def shaped_entry(rng: random.Random, stratum) -> dict:
    kind, agents, free, two_copy, forced = stratum
    if kind == "chores-single":
        copies = [1] * free
    else:
        copies = [2] * two_copy + [rng.choice((1, agents - 1)) for _ in range(free - two_copy)]
    copies += [agents] * forced
    rng.shuffle(copies)
    sign = 1 if kind == "goods" else -1
    types = [
        {
            "name": f"t{pos + 1}",
            "copies": k,
            "values": [sign * rng.randint(0, MAX_VALUE) for _ in range(agents)],
        }
        for pos, k in enumerate(copies)
    ]
    return {"kind": kind, "instance": {"agents": agents, "types": types}}


def leveled_entry(rng: random.Random, stratum) -> dict:
    agents, n_types = stratum
    denominator = LEVELED_GRID * n_types
    types = [
        {
            "name": f"t{pos + 1}",
            "copies": rng.randint(1, agents),
            "values": [
                f"{denominator + rng.randint(0, LEVELED_GRID - 1)}/{denominator}"
                for _ in range(agents)
            ],
        }
        for pos in range(n_types)
    ]
    return {"kind": "leveled", "instance": {"agents": agents, "types": types}}


WORKLOADS = {
    "exhaustive": (EXHAUSTIVE_STRATA, shaped_entry),
    "shares": (SHARES_STRATA, shaped_entry),
    "leveled": (LEVELED_STRATA, leveled_entry),
}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for a seed: the same seed gives the same document."""
    strata, entry = WORKLOADS[workload]
    rng = random.Random(f"fairdual-bench/{workload}/{seed}")
    count = len(strata) * CYCLES[workload]
    return {
        "generator": {"name": "bench.gen", "version": GENERATOR_VERSION},
        "workload": workload,
        "seed": seed,
        "cycle": len(strata),
        "instances": [entry(rng, strata[i % len(strata)]) for i in range(count)],
    }


def dumps(document: dict) -> bytes:
    """Canonical bytes of a generated document."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
