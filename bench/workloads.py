"""Workload operations and their answer checks.

Each workload turns a generated document into a schedule of operations. An
operation is one closed-loop call (or, for `leveled`, one fixed pipeline of
calls) into fairdual's public functions, made through an `api` namespace so
that the traced run can put a span around every call. Checks run after the
timed passes, on the first result of each operation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from fairdual import criteria, duality, leveled, search, shares
from fairdual.model import instance_from_json, validate_allocation

# Public functions the benchmark calls, by the layer name their spans carry.
LAYER_CALLS = {
    "search.exists_fair": search.exists_fair,
    "search.count_fair": search.count_fair,
    "search.max_nash_welfare": search.max_nash_welfare,
    "search.check_chores_characterization": search.check_chores_characterization,
    "criteria.is_fair": criteria.is_fair,
    "shares.mms_share": shares.mms_share,
    "shares.aps_share": shares.aps_share,
    "leveled.solve_leveled_efxwc": leveled.solve_leveled_efxwc,
    "duality.dualize": duality.dualize,
}

EXISTS_NOTIONS = ("ef", "ef1_wc", "efx", "efx_wc", "efl")


def make_api(tracer=None) -> SimpleNamespace:
    """The layer functions, each wrapped in a span when a tracer is given."""
    return SimpleNamespace(
        **{
            name.split(".")[1]: (fn if tracer is None else tracer.wrap(name, fn))
            for name, fn in LAYER_CALLS.items()
        }
    )


def plan_total(instance) -> int:
    """Allocations in the instance's plan, computed here so checks need not trust search."""
    return math.prod(math.comb(instance.agents, t.copies) for t in instance.types)


def allocation_key(instance, allocation):
    if allocation is None:
        return None
    return [sorted(b, key=instance.position) for b in allocation.bundles]


def _fails(condition: bool, message: str) -> list:
    return [] if condition else [message]


class Workload:
    """Schedule, execution, canonical answers and checks of one workload."""

    # Wall-time limit per operation; an operation that reaches it fails.
    op_limit_s = 10.0

    def __init__(self, document: dict):
        self.entries = document["instances"]
        self.instances = [instance_from_json(e["instance"]) for e in self.entries]
        self.prepare()
        # The operations of all instances, in a seeded random order.
        rng = random.Random(f"fairdual-bench/schedule/{document['seed']}")
        self.ops = [op for index in range(len(self.instances)) for op in self.instance_ops(index)]
        rng.shuffle(self.ops)

    def prepare(self) -> None:
        """Untimed per-instance preparation."""

    def instance_ops(self, index: int) -> list:
        raise NotImplementedError

    def run(self, api, op):
        raise NotImplementedError

    def canonical(self, op, result):
        raise NotImplementedError

    def check(self, results: dict) -> dict:
        """Map op -> list of failed-check messages, over ops that returned."""
        raise NotImplementedError

    def counts(self, answers: list) -> dict:
        """Exact work counts over (op, canonical answer) pairs that returned."""
        return {}


class Exhaustive(Workload):
    def prepare(self) -> None:
        self.criteria = [
            {notion: criteria.criterion_for(inst, notion) for notion in EXISTS_NOTIONS}
            for inst in self.instances
        ]

    def instance_ops(self, index: int) -> list:
        kind = self.entries[index]["kind"]
        ops = [("exists", index, notion) for notion in EXISTS_NOTIONS]
        ops.append(("count", index, "efx_wc"))
        if kind == "goods":
            ops.append(("mnw", index, None))
        if kind == "chores-single":
            ops.append(("characterization", index, None))
        return ops

    def run(self, api, op):
        kind, index, notion = op
        inst = self.instances[index]
        if kind == "exists":
            return api.exists_fair(inst, self.criteria[index][notion])
        if kind == "count":
            return api.count_fair(inst, self.criteria[index][notion])
        if kind == "mnw":
            return api.max_nash_welfare(inst)
        return api.check_chores_characterization(inst)

    def canonical(self, op, result):
        kind, index, _ = op
        inst = self.instances[index]
        if kind == "exists":
            return [result.exists, result.checked, result.plan_total,
                    allocation_key(inst, result.witness)]
        if kind == "count":
            return [result[0], allocation_key(inst, result[1])]
        if kind == "mnw":
            return [str(result[1]), allocation_key(inst, result[0])]
        return result

    def _fair(self, index, notion, allocation) -> bool:
        inst = self.instances[index]
        return criteria.is_fair(inst, allocation, self.criteria[index][notion]).fair

    def check(self, results: dict) -> dict:
        errors = {}
        for op, result in results.items():
            kind, index, notion = op
            inst = self.instances[index]
            plan = plan_total(inst)
            bad = []
            if kind == "exists":
                bad += _fails(result.plan_total == plan, "plan total differs from the product of binomials")
                if result.exists:
                    bad += _fails(1 <= result.checked <= plan, "witness position outside the plan")
                    bad += _fails(self._fair(index, notion, result.witness), "witness fails is_fair")
                else:
                    bad += _fails(result.checked == plan, "refutation did not sweep the whole plan")
            elif kind == "count":
                count, witness = result
                bad += _fails(0 <= count <= plan, "count outside the plan")
                bad += _fails((count > 0) == (witness is not None), "count and witness disagree")
                if witness is not None:
                    bad += _fails(self._fair(index, notion, witness), "count witness fails is_fair")
                exists = results.get(("exists", index, notion))
                if exists is not None:
                    bad += _fails((count > 0) == exists.exists, "count_fair and exists_fair disagree")
                    bad += _fails(witness == exists.witness, "count_fair and exists_fair report different first witnesses")
            elif kind == "mnw":
                allocation, welfare = result
                bad += _fails(not validate_allocation(inst, allocation), "welfare maximizer is not a valid allocation")
                product = math.prod(
                    (inst.bundle_value(i, b) for i, b in enumerate(allocation.bundles)),
                    start=Fraction(1),
                )
                bad += _fails(welfare == product, "welfare differs from the recomputed product")
            else:
                bad += _fails(result is True, "chores EFX characterization failed")
            if bad:
                errors[op] = bad
        return errors

    def counts(self, answers: list) -> dict:
        out = {"allocs_exists": 0, "allocs_count": 0, "allocs_mnw": 0, "refutations": 0}
        for (kind, index, _), answer in answers:
            if kind == "exists":
                exists, checked = answer[:2]
                out["allocs_exists"] += checked
                out["refutations"] += not exists
            elif kind in ("count", "mnw"):
                out["allocs_" + kind] += plan_total(self.instances[index])
        return out


class Shares(Workload):
    # The slowest maximin call takes about 0.25 s, and an anyprice call 0.5 s,
    # on a 2-core x86 box; sympy's simplex can cycle forever on some anyprice
    # programs, and each such call should cost the run little beyond a
    # failure.
    op_limit_s = 1.0

    def prepare(self) -> None:
        self.duals = [duality.dualize(inst).instance for inst in self.instances]

    def instance_ops(self, index: int) -> list:
        n = self.instances[index].agents
        agent = index % n
        ops = [("aps", index, ("primal", agent)), ("aps", index, ("dual", agent))]
        for i in range(n):
            ops += [("mms", index, ("primal", i)), ("mms", index, ("dual", i))]
        return ops

    def _side(self, index, side):
        return self.instances[index] if side == "primal" else self.duals[index]

    def run(self, api, op):
        kind, index, (side, agent) = op
        inst = self._side(index, side)
        if kind == "mms":
            return api.mms_share(inst, agent)
        b = Fraction(1, inst.agents)
        return api.aps_share(inst, agent, b if side == "primal" else 1 - b)

    def canonical(self, op, result):
        return str(result.value)

    def check(self, results: dict) -> dict:
        errors = {}
        for op, result in results.items():
            kind, index, (side, agent) = op
            inst = self._side(index, side)
            primal = self.instances[index]
            shift = primal.typeset_value(agent)
            prop = inst.total_value(agent) / inst.agents
            mirror = results.get((kind, index, ("dual", agent)))
            bad = []
            if kind == "mms":
                cert = result.certificate
                bad += _fails(not validate_allocation(inst, cert), "maximin certificate is not a valid allocation")
                worst = min(inst.bundle_value(agent, b) for b in cert.bundles)
                bad += _fails(result.value == worst, "maximin value differs from its certificate's worst bundle")
                bad += _fails(result.value <= prop, "maximin share exceeds PROP")
                if side == "primal" and mirror is not None:
                    bad += _fails(result.value == mirror.value + shift, "maximin duality shift fails")
            else:
                if side == "primal" and inst.goods_pure:
                    bad += _fails(result.value <= prop, "goods anyprice share at 1/n exceeds PROP")
                if side == "primal" and mirror is not None:
                    bad += _fails(mirror.value == result.value - shift, "anyprice entitlement duality fails")
            if bad:
                errors[op] = bad
        return errors

    def counts(self, answers: list) -> dict:
        plans = sum(
            plan_total(self._side(index, side))
            for (kind, index, (side, _)), _ in answers
            if kind == "mms"
        )
        return {"mms_plan_allocs": plans}


class Leveled(Workload):
    EFXWC = criteria.ComparisonCriterion("efx", "goods", without_commons=True)
    CHORES_EFXWC = criteria.ComparisonCriterion("efx", "chores", without_commons=True)

    def instance_ops(self, index: int) -> list:
        return [("c08", index, None)]

    def run(self, api, op):
        inst = self.instances[op[1]]
        result = api.solve_leveled_efxwc(inst)
        primal = api.is_fair(inst, result.allocation, self.EFXWC)
        dual = api.dualize(inst, result.allocation)
        mirrored = api.is_fair(dual.instance, dual.allocation, self.CHORES_EFXWC)
        return result, primal.fair, mirrored.fair

    def canonical(self, op, result):
        solved, primal_fair, dual_fair = result
        inst = self.instances[op[1]]
        return [allocation_key(inst, solved.allocation), len(solved.trace), primal_fair, dual_fair]

    def check(self, results: dict) -> dict:
        errors = {}
        for op, (solved, primal_fair, dual_fair) in results.items():
            inst = self.instances[op[1]]
            levels = [solved.initial_potential] + [s.potential for s in solved.trace]
            bad = _fails(primal_fair, "EFX_WC fails on the primal")
            bad += _fails(dual_fair, "chores EFX_WC fails on the dual")
            bad += _fails(all(a < b for a, b in zip(levels, levels[1:])), "potential does not rise strictly")
            bad += _fails(len(solved.trace) <= inst.agents * len(inst.types) ** 2, "walk exceeds n*|T|^2 steps")
            if bad:
                errors[op] = bad
        return errors

    def counts(self, answers: list) -> dict:
        swaps = pairs = 0
        for (_, index, _), answer in answers:
            n = self.instances[index].agents
            swaps += answer[1]
            pairs += 2 * n * (n - 1)
        return {"swaps": swaps, "is_fair_pairs": pairs}


WORKLOADS = {"exhaustive": Exhaustive, "shares": Shares, "leveled": Leveled}
