"""Bundled example corpus: instances, allocations, and scripted claims.

Each fixture is a JSON data file naming an instance, zero or more
allocations, and a list of claims. Claims are small declarative checks
(an allocation passes a notion, a share has an exact value, and so on)
so the corpus stays auditable without reading any code. `replicate`
evaluates the claims of one fixture; the CLI exposes the whole corpus.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .criteria import cancel_envy_cycle, criterion_for, is_fair
from .duality import dualize
from .model import (
    Allocation,
    FairdualError,
    Instance,
    allocation_from_json,
    allocation_to_json,
    format_rational,
    instance_from_json,
    parse_rational,
)
from .search import exists_fair, max_nash_welfare
from .shares import (
    check_alpha_mms,
    check_share_duality,
    prop_share,
    share_value,
    verify_mms_lower_bound,
)


@dataclass(frozen=True)
class Fixture:
    id: str
    title: str
    instance: Instance
    allocations: dict
    claims: tuple


@dataclass(frozen=True)
class ClaimResult:
    fixture: str
    description: str
    passed: bool
    detail: str = ""


def _data_root():
    return resources.files(__package__) / "fixtures"


def fixture_ids() -> tuple:
    """Sorted ids of every bundled fixture."""
    names = [
        entry.name[: -len(".json")]
        for entry in _data_root().iterdir()
        if entry.name.endswith(".json")
    ]
    return tuple(sorted(names))


def load_fixture(fixture_id: str) -> Fixture:
    """Load a bundled fixture; only the ids of `fixture_ids()` are accepted."""
    known = fixture_ids()
    if fixture_id not in known:
        raise FairdualError(
            f"unknown fixture {fixture_id!r}; known ids: {', '.join(known)}"
        )
    path = _data_root() / (fixture_id + ".json")
    data = json.loads(path.read_text(encoding="utf-8"))
    instance = instance_from_json(data["instance"])
    allocations = {
        name: allocation_from_json(payload)
        for name, payload in data.get("allocations", {}).items()
    }
    return Fixture(
        id=data["id"],
        title=data["title"],
        instance=instance,
        allocations=allocations,
        claims=tuple(data["claims"]),
    )


def _view(fixture: Fixture, claim: dict) -> tuple:
    """The claim's instance and named allocation; for `dual_*` kinds, their duals."""
    name = claim.get("allocation")
    allocation = None if name is None else fixture.allocations[name]
    if not claim["kind"].startswith("dual_"):
        return fixture.instance, allocation
    dual = dualize(fixture.instance, allocation)
    return dual.instance, dual.allocation


def _exact(value: Fraction, expect) -> tuple:
    """(passed, detail) for a claim that `value` is exactly the rational `expect`."""
    passed = value == parse_rational(expect)
    return passed, "" if passed else f"got {format_rational(value)}"


def _claim_is_fair(fixture: Fixture, claim: dict, budget) -> tuple:
    name = claim["allocation"]
    instance, allocation = _view(fixture, claim)
    notion = claim["notion"]
    criterion = criterion_for(instance, notion)
    report = is_fair(instance, allocation, criterion)
    passed = report.fair == claim["expect"]
    detail = ""
    if passed and "witnesses" in claim:
        pairs = [[w.envious, w.envied] for w in report.witnesses]
        if pairs != claim["witnesses"]:
            passed = False
            detail = f"witnesses {pairs} != {claim['witnesses']}"
    elif not passed:
        detail = f"expected fair={claim['expect']}, got {report.fair}"
    verb = "satisfies" if claim["expect"] else "violates"
    description = f"{name} {verb} {notion}"
    if claim["kind"] == "dual_is_fair":
        description = f"dual of {description} on the dual instance"
    return description, passed, detail


def _claim_exists(fixture: Fixture, claim: dict, budget) -> tuple:
    notion = claim["notion"]
    criterion = criterion_for(fixture.instance, notion)
    certificate = exists_fair(fixture.instance, criterion, budget=budget)
    passed = certificate.exists == claim["expect"]
    detail = ""
    if passed and "checked" in claim and certificate.checked != claim["checked"]:
        passed = False
        detail = f"checked {certificate.checked} != {claim['checked']}"
    elif not passed:
        detail = f"expected exists={claim['expect']}, got {certificate.exists}"
    kind = "admits" if claim["expect"] else "refutes"
    return f"instance {kind} {notion}", passed, detail


def _claim_dual_allocation(fixture: Fixture, claim: dict, budget) -> tuple:
    name = claim["allocation"]
    instance, allocation = _view(fixture, claim)
    expected = Allocation(tuple(frozenset(b) for b in claim["expect"]))
    passed = allocation == expected
    bundles = allocation_to_json(allocation, instance)["bundles"]
    detail = "" if passed else f"dual bundles differ: {bundles}"
    return f"dual of {name} matches", passed, detail


def _claim_cancel_cycle(fixture: Fixture, claim: dict, budget) -> tuple:
    name = claim["allocation"]
    before = fixture.allocations[name]
    after = cancel_envy_cycle(fixture.instance, before, claim["cycle"])
    expected = fixture.allocations[claim["expect"]]
    passed = after == expected
    detail = "" if passed else "rotated allocation differs"
    if passed:
        for agent in claim.get("improves", []):
            gained = fixture.instance.bundle_value(agent, after.bundles[agent])
            held = fixture.instance.bundle_value(agent, before.bundles[agent])
            if gained <= held:
                passed = False
                detail = f"agent {agent} does not strictly gain"
                break
    cycle = "-".join(str(a) for a in claim["cycle"])
    return (
        f"cancelling cycle {cycle} on {name} gives {claim['expect']}", passed, detail
    )


def _claim_mnw(fixture: Fixture, claim: dict, budget) -> tuple:
    best, welfare = max_nash_welfare(fixture.instance, budget=budget)
    expected = fixture.allocations[claim["expect"]]
    passed = best == expected and welfare == parse_rational(claim["welfare"])
    detail = ""
    if not passed:
        detail = f"welfare {format_rational(welfare)}, target {claim['welfare']}"
    return (
        f"Nash welfare maximum is {claim['expect']} with welfare {claim['welfare']}",
        passed, detail,
    )


def _claim_share(fixture: Fixture, claim: dict, budget) -> tuple:
    instance, _ = _view(fixture, claim)
    entitlement = claim.get("entitlement")
    value = share_value(
        instance,
        claim["share"],
        claim["agent"],
        None if entitlement is None else parse_rational(entitlement),
        budget,
    ).value
    dual = "dual " if claim["kind"] == "dual_share" else ""
    description = f"{dual}{claim['share']} share of agent {claim['agent']}"
    return (f"{description} is {claim['expect']}", *_exact(value, claim["expect"]))


def _claim_mms_lower_bound(fixture: Fixture, claim: dict, budget) -> tuple:
    witness = fixture.allocations[claim["witness"]]
    bound = verify_mms_lower_bound(fixture.instance, claim["agent"], witness)
    return (
        f"witness gives agent {claim['agent']} a maximin bound of {claim['expect']}",
        *_exact(bound, claim["expect"]),
    )


def _claim_value_ratio(fixture: Fixture, claim: dict, budget) -> tuple:
    agent = claim["agent"]
    allocation = fixture.allocations[claim["allocation"]]
    value = fixture.instance.bundle_value(agent, allocation.bundles[agent])
    return (
        f"agent {agent}'s value is {claim['expect']} of the {claim['share']} share",
        *_exact(value / parse_rational(claim["share"]), claim["expect"]),
    )


def _claim_alpha_bound_via_prop(fixture: Fixture, claim: dict, budget) -> tuple:
    instance = fixture.instance
    report = check_alpha_mms(
        instance,
        fixture.allocations[claim["allocation"]],
        parse_rational(claim["alpha"]),
        [prop_share(instance, i) for i in range(instance.agents)],
    )
    excluded = set(claim.get("exclude", []))
    failing = [agent for agent in report.failing if agent not in excluded]
    detail = f"agents below the bound: {failing}" if failing else ""
    return (
        f"remaining agents clear {claim['alpha']} of their proportional share",
        not failing, detail,
    )


def _claim_aps_entitlement_duality(fixture, claim, budget) -> tuple:
    ok = check_share_duality(
        fixture.instance, "aps", entitlement=parse_rational(claim["entitlement"])
    )
    passed = ok == claim["expect"]
    detail = "" if passed else f"checker returned {ok}"
    return f"entitlement duality holds at {claim['entitlement']}", passed, detail


# Claim kind -> evaluator returning (description, passed, detail).
_CLAIM_EVALUATORS = {
    "is_fair": _claim_is_fair,
    "exists": _claim_exists,
    "dual_allocation": _claim_dual_allocation,
    "dual_is_fair": _claim_is_fair,
    "cancel_cycle": _claim_cancel_cycle,
    "mnw": _claim_mnw,
    "share": _claim_share,
    "dual_share": _claim_share,
    "mms_lower_bound": _claim_mms_lower_bound,
    "value_ratio": _claim_value_ratio,
    "alpha_bound_via_prop": _claim_alpha_bound_via_prop,
    "aps_entitlement_duality": _claim_aps_entitlement_duality,
}


def replicate(fixture: Fixture, budget: Optional[int] = None) -> tuple:
    """Evaluate every claim of one fixture, in order."""
    results = []
    for claim in fixture.claims:
        try:
            evaluator = _CLAIM_EVALUATORS[claim["kind"]]
        except KeyError:
            raise FairdualError(
                f"fixture {fixture.id}: unknown claim kind {claim.get('kind')!r}"
            ) from None
        results.append(ClaimResult(fixture.id, *evaluator(fixture, claim, budget)))
    return tuple(results)

