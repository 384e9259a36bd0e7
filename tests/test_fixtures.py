from dataclasses import replace

import pytest

from fairdual import fixtures
from fairdual.fixtures import (
    fixture_ids,
    load_fixture,
    replicate,
)
from fairdual.model import FairdualError, format_rational, parse_rational


def test_corpus_lists_known_ids():
    ids = fixture_ids()
    assert len(ids) == 14
    assert list(ids) == sorted(ids)
    for expected in (
        "no-efx-four-types",
        "cycle-cancel",
        "mnw-not-ef1wc",
        "efxwc-two-fifths-mms",
        "aps-chores",
    ):
        assert expected in ids


def test_load_unknown_id_lists_choices():
    with pytest.raises(FairdualError) as excinfo:
        load_fixture("definitely-not-a-fixture")
    assert "no-efx-four-types" in str(excinfo.value)


def test_fixture_shape():
    fixture = load_fixture("no-efx-four-types")
    assert fixture.id == "no-efx-four-types"
    assert fixture.instance.agents == 3
    assert fixture.claims
    assert "main" in fixture.allocations


def test_every_fixture_replicates():
    for fixture_id in fixture_ids():
        results = replicate(load_fixture(fixture_id))
        assert results, fixture_id
        failing = [r for r in results if not r.passed]
        assert not failing, (fixture_id, [r.description for r in failing])


def test_replicate_all_covers_corpus():
    by_fixture = [r for i in fixture_ids() for r in replicate(load_fixture(i))]
    assert set(r.fixture for r in by_fixture) == set(fixture_ids())
    assert all(r.passed for r in by_fixture)
    assert len(by_fixture) == 50


# Claim kind -> every key its evaluator reads.
CLAIM_KEYS = {
    "is_fair": {"kind", "allocation", "notion", "expect", "witnesses"},
    "dual_is_fair": {"kind", "allocation", "notion", "expect", "witnesses"},
    "exists": {"kind", "notion", "expect", "checked"},
    "dual_allocation": {"kind", "allocation", "expect"},
    "cancel_cycle": {"kind", "allocation", "cycle", "expect", "improves"},
    "mnw": {"kind", "expect", "welfare"},
    "share": {"kind", "share", "agent", "entitlement", "expect"},
    "dual_share": {"kind", "share", "agent", "entitlement", "expect"},
    "mms_lower_bound": {"kind", "witness", "agent", "expect"},
    "value_ratio": {"kind", "agent", "allocation", "share", "expect"},
    "alpha_bound_via_prop": {"kind", "allocation", "alpha", "exclude"},
    "aps_entitlement_duality": {"kind", "entitlement", "expect"},
}


def test_every_claim_carries_only_keys_its_evaluator_reads():
    """A key no evaluator reads would look like part of the claim while checking nothing."""
    assert set(CLAIM_KEYS) == set(fixtures._CLAIM_EVALUATORS)
    for fixture_id in fixture_ids():
        for claim in load_fixture(fixture_id).claims:
            stray = set(claim) - CLAIM_KEYS[claim["kind"]]
            assert not stray, (fixture_id, claim["kind"], sorted(stray))


def _shifted(value) -> str:
    return str(format_rational(parse_rational(value) + 1))


def _flipped(claim: dict) -> dict:
    """The same claim with a wrong expectation."""
    claim = dict(claim)
    kind = claim["kind"]
    if kind == "dual_allocation":
        claim["expect"] = claim["expect"][1:] + claim["expect"][:1]
    elif kind == "cancel_cycle":
        claim["expect"] = claim["allocation"]
    elif kind == "mnw":
        claim["welfare"] = _shifted(claim["welfare"])
    elif kind == "alpha_bound_via_prop":
        claim["alpha"] = _shifted(claim["alpha"])
    elif isinstance(claim["expect"], bool):
        claim["expect"] = not claim["expect"]
    else:
        claim["expect"] = _shifted(claim["expect"])
    return claim


def test_every_fixture_claim_fails_with_a_wrong_expectation():
    for fixture_id in fixture_ids():
        fixture = load_fixture(fixture_id)
        for claim in fixture.claims:
            wrong = _flipped(claim)
            assert wrong != claim
            (result,) = replicate(replace(fixture, claims=(wrong,)))
            assert result.passed is False, (fixture_id, claim)
            assert result.detail, (fixture_id, claim)
            if claim["kind"] == "dual_allocation":
                # Bundles render in instance type order, whatever the hash seed.
                assert result.detail == f"dual bundles differ: {claim['expect']}"


def test_a_claim_without_its_allocation_raises():
    """Primal and dual claims alike refuse to evaluate a missing allocation."""
    fixture = load_fixture("no-efx-four-types")
    claims = [claim for claim in fixture.claims if "allocation" in claim]
    assert {claim["kind"] for claim in claims} == {
        "is_fair", "dual_allocation", "dual_is_fair"
    }
    for claim in claims:
        unknown = dict(claim, allocation="no-such-allocation")
        unnamed = {k: v for k, v in claim.items() if k != "allocation"}
        for wrong in (unknown, unnamed):
            with pytest.raises(KeyError):
                replicate(replace(fixture, claims=(wrong,)))


def _replicated(fixture_id: str, kind: str, **changes):
    """The result of a fixture's first claim of `kind` that carries the changed keys."""
    fixture = load_fixture(fixture_id)
    claim = next(
        claim
        for claim in fixture.claims
        if claim["kind"] == kind and changes.keys() <= claim.keys()
    )
    (result,) = replicate(replace(fixture, claims=(dict(claim, **changes),)))
    return result


def test_a_claim_fails_on_witnesses_a_checked_count_or_a_gain_that_differ():
    """The verdict holds, yet another part of the claim does not."""
    witnesses = _replicated("no-efx-four-types", "is_fair", witnesses=[[2, 0]])
    assert not witnesses.passed
    assert witnesses.detail == "witnesses [[2, 0], [2, 1]] != [[2, 0]]"
    checked = _replicated("no-efx-four-types", "exists", checked=80)
    assert not checked.passed
    assert checked.detail == "checked 81 != 80"
    # Agent 2 is off the cycle, so its bundle stays as it was.
    gain = _replicated("cycle-cancel", "cancel_cycle", improves=[0, 2])
    assert not gain.passed
    assert gain.detail == "agent 2 does not strictly gain"


def test_an_unknown_claim_kind_raises():
    fixture = load_fixture("cycle-cancel")
    with pytest.raises(FairdualError, match="fixture cycle-cancel: unknown claim kind 'nope'"):
        replicate(replace(fixture, claims=({"kind": "nope"},)))
