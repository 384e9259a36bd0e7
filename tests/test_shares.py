"""Share computations against hand-checked and oracle-frozen values.

The maximin value 6 for the four-doubled-types instance and the anyprice
values -16 / 4 / 1 come from the standalone scripts in tests/oracles/,
which recompute them from scratch without importing the package.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from aps_reference import reference_aps_share, reference_price_value
from hypothesis import strategies as st
from plan_reference import plan_choices
from tps_reference import reference_tps

from fairdual import shares
from fairdual.criteria import OrientationError
from fairdual.duality import dualize
from fairdual.fixtures import load_fixture
from fairdual.model import (
    Allocation,
    BudgetExceededError,
    CertificateError,
    Instance,
    InstanceError,
    ItemType,
    instance_from_json,
    validate_allocation,
)
from fairdual.randgen import random_instance
from fairdual.search import plan_total
from fairdual.shares import (
    PriceVector,
    aps_share,
    check_alpha_mms,
    check_share_duality,
    forced_types,
    mms_share,
    prop_share,
    share_value,
    tps_share,
    verify_mms_lower_bound,
)


def section_instance():
    return Instance(
        agents=3,
        types=(
            ItemType("t1", 2),
            ItemType("t2", 2),
            ItemType("t3", 2),
            ItemType("t4", 2),
        ),
        values=tuple(
            (Fraction(1), Fraction(2), Fraction(3), Fraction(9)) for _ in range(3)
        ),
    )


def chores_instance():
    """Five single chores -2..-6, each in three copies, four agents."""
    return Instance(
        agents=4,
        types=tuple(ItemType(f"c{k}", 3) for k in range(2, 7)),
        values=tuple(
            tuple(Fraction(-k) for k in range(2, 7)) for _ in range(4)
        ),
    )


def trio_instance():
    return Instance(
        agents=3,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 1)),
        values=((Fraction(2), Fraction(3), Fraction(5)),) * 3,
    )


def test_prop_share_is_total_over_agents():
    instance = section_instance()
    assert prop_share(instance, 0) == Fraction(30, 3)
    chores = chores_instance()
    assert prop_share(chores, 0) == Fraction(-60, 4)


def test_mms_of_doubled_types_is_six():
    instance = section_instance()
    result = mms_share(instance, 0)
    assert result.value == 6
    assert min(
        instance.bundle_value(0, b) for b in result.certificate.bundles
    ) == 6


def test_mms_certificate_is_achievable_partition():
    rng = random.Random(17)
    for _ in range(30):
        instance = random_instance(rng, max_agents=3, max_types=4)
        result = mms_share(instance, 0)
        floor = verify_mms_lower_bound(instance, 0, result.certificate)
        assert floor == result.value
        assert result.value <= prop_share(instance, 0)


def test_mms_budget_guard():
    instance = section_instance()
    message = r"enumeration budget 80 exhausted with allocations remaining \(plan size 81\)"
    with pytest.raises(BudgetExceededError, match=message):
        mms_share(instance, 0, budget=80)


def test_aps_refuses_more_free_types_than_its_enumeration_limit():
    free = shares.MAX_FREE_TYPES + 1
    instance = Instance(
        agents=2,
        types=tuple(ItemType(f"t{k}", 1) for k in range(free)),
        values=((Fraction(1),) * free,) * 2,
    )
    message = f"{free} free types exceed the {shares.MAX_FREE_TYPES}-type bundle"
    with pytest.raises(BudgetExceededError, match=message):
        aps_share(instance, 0)


def test_price_vectors_sum_to_one_without_negative_prices():
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="prices sum to 1/2, not 1"):
        PriceVector((("a", half),), half)
    with pytest.raises(ValueError, match="negative price"):
        PriceVector((("a", Fraction(2)), ("b", Fraction(-1))), half)
    assert PriceVector((("a", half), ("b", half)), half).weight({"a"}) == half


def test_mms_budget_is_checked_before_the_plan_is_built(monkeypatch):
    # The l20 fixture has n = 41 and copies 20/21/20: its subset tuples
    # alone would not fit in memory.
    instance = load_fixture("eflwc-third-mms-l20").instance

    def refuse(*_):
        raise AssertionError("holder sets enumerated before the budget check")

    monkeypatch.setattr(shares, "combinations", refuse)
    with pytest.raises(BudgetExceededError):
        mms_share(instance, 0, budget=10)


def test_mms_certificate_failure_is_an_error(monkeypatch):
    monkeypatch.setattr(
        shares, "verify_mms_lower_bound", lambda *args: Fraction(-1)
    )
    with pytest.raises(CertificateError):
        mms_share(section_instance(), 0)


def reference_mms_share(instance, agent):
    """Maximin share by walking every allocation of the plan.

    Stops early at PROP, which no minimum bundle value can beat.
    """
    row = instance.values[agent]
    ceiling = prop_share(instance, agent)
    best = None
    for choice in plan_choices(instance):
        totals = [Fraction(0)] * instance.agents
        for pos, holders in enumerate(choice):
            for a in holders:
                totals[a] += row[pos]
        worst = min(totals)
        if best is None or worst > best:
            best = worst
            if best == ceiling:
                break
    return best


@st.composite
def signed_instances(draw):
    """1-4 agents, 0-6 types; goods, chores or both; per-type denominators."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 6))
    copies = [draw(st.integers(1, n)) for _ in range(count)]
    mode = draw(st.sampled_from([(1,), (-1,), (1, -1)]))  # goods, chores, mixed
    signs = [draw(st.sampled_from(mode)) for _ in range(count)]
    dens = [draw(st.integers(1, 7)) for _ in range(count)]
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(
                Fraction(sign * draw(st.integers(0, 12)), den)
                for sign, den in zip(signs, dens)
            )
            for _ in range(n)
        ),
    )
    assume(plan_total(instance) <= 3000)
    return instance


@settings(max_examples=300, deadline=None)
@given(signed_instances(), st.data())
def test_mms_matches_the_plan_walk(instance, data):
    agent = data.draw(st.integers(0, instance.agents - 1))
    result = mms_share(instance, agent)
    assert result.value == reference_mms_share(instance, agent)
    assert not validate_allocation(instance, result.certificate)
    assert min(
        instance.bundle_value(agent, b) for b in result.certificate.bundles
    ) == result.value
    assert result.value <= prop_share(instance, agent)


def test_verify_mms_lower_bound_uses_witness_minimum():
    instance = section_instance()
    witness = Allocation.of(
        ["t1", "t2", "t3", "t4"], ["t1", "t2", "t3"], ["t4"]
    )
    assert verify_mms_lower_bound(instance, 0, witness) == 6


def test_check_alpha_mms_report():
    instance = section_instance()
    allocation = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    maximin = [mms_share(instance, i).value for i in range(instance.agents)]
    report = check_alpha_mms(instance, allocation, Fraction(1, 2), maximin)
    assert report.fair
    assert report.shares == (Fraction(6),) * 3
    assert report.ratios == (Fraction(2), Fraction(2), Fraction(1))
    strict = check_alpha_mms(instance, allocation, Fraction(3, 2), maximin)
    assert not strict.fair and strict.failing == (2,)
    supplied = check_alpha_mms(instance, allocation, Fraction(1, 2), (6, 6, 6))
    assert supplied.shares == report.shares
    with pytest.raises(ValueError, match="one share value per agent required"):
        check_alpha_mms(instance, allocation, Fraction(1, 2), (6, 6))


def test_check_alpha_mms_decides_with_the_alpha_it_reports():
    """A float alpha is read exactly once: 0.1 is slightly above 1/10, so an
    own value of 1 against a share of 10 falls short of it, and the reported
    alpha, passed back in, gives the same verdict."""
    instance = Instance(agents=1, types=(ItemType("t", 1),), values=((Fraction(1),),))
    allocation = Allocation.of(["t"])
    report = check_alpha_mms(instance, allocation, 0.1, (10,))
    assert report.alpha == Fraction(0.1) != Fraction(1, 10)
    assert report.fair == check_alpha_mms(instance, allocation, report.alpha, (10,)).fair
    assert not report.fair and report.failing == (0,)


def test_tps_trio_is_two():
    assert tps_share(trio_instance(), 0).value == 2


def test_tps_forced_type_shifts_nonlinearly():
    trio = trio_instance()
    extended = Instance(
        agents=3,
        types=trio.types + (ItemType("d", 3),),
        values=tuple(row + (Fraction(3),) for row in trio.values),
    )
    assert tps_share(extended, 0).value == Fraction(19, 3)
    # the shift is 13/3, not the added type's value of 3
    assert tps_share(extended, 0).value - tps_share(trio, 0).value == Fraction(13, 3)


def test_tps_large_item_truncates():
    instance = Instance(
        agents=4,
        types=tuple(
            ItemType(name, 1) for name in ("a", "b", "c", "d", "e", "f")
        ),
        values=(
            (
                Fraction(1),
                Fraction(3),
                Fraction(4),
                Fraction(6),
                Fraction(7),
                Fraction(19),
            ),
        )
        * 4,
    )
    result = tps_share(instance, 0)
    assert result.value == 7
    assert prop_share(instance, 0) == 10
    dual = dualize(instance).instance
    assert tps_share(dual, 0).value == -30
    assert prop_share(dual, 0) == -30


def test_tps_chores_is_prop_or_worst_chore():
    chores = chores_instance()
    assert tps_share(chores, 0).value == -15
    lopsided = Instance(
        agents=3,
        types=(ItemType("big", 1), ItemType("small", 1)),
        values=((Fraction(-20), Fraction(-1)),) * 3,
    )
    assert tps_share(lopsided, 0).value == -20


def test_tps_needs_sign_purity():
    mixed = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(-1)),) * 2,
    )
    with pytest.raises(OrientationError):
        tps_share(mixed, 0)


def _copies_instance(agents, *columns):
    """One type per (copies, value) column, worth the same to every agent."""
    return Instance(
        agents=agents,
        types=tuple(ItemType(f"t{k}", c) for k, (c, _) in enumerate(columns)),
        values=(tuple(Fraction(v) for _, v in columns),) * agents,
    )


@st.composite
def goods_instances(draw):
    """1-5 agents, 0-6 types with copies 1..n; small values, so zeros and repeats."""
    n = draw(st.integers(1, 5))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(
                Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
                for _ in copies
            )
            for _ in range(n)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(goods_instances())
# Bounds (total - top j) / (n - j) that tie at the minimum: 4/2 = 2/1 on
# copies 2, 2; 6/3 = 4/2 = 2/1 on copies 2, 2, 2; 6/2 = 3/1 after 15/3 on
# copies 9, 3, 3; and 0/2 = 0/1 after 6/3 on copies 6, 0, 0.
@example(_copies_instance(2, (2, 2)))
@example(_copies_instance(3, (1, 2), (2, 2)))
@example(_copies_instance(3, (1, 9), (2, 3)))
@example(_copies_instance(3, (1, 6), (2, 0)))
def test_tps_matches_the_bracket_scan(instance):
    """The closed-form minimum gives the scan's value and certificate for every agent."""
    for agent in range(instance.agents):
        result = tps_share(instance, agent)
        assert (result.value, result.certificate) == reference_tps(instance, agent)


def test_forced_types_detection():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 2), ItemType("b", 1)),
        values=((Fraction(1), Fraction(1)),) * 2,
    )
    assert forced_types(instance) == frozenset({"a"})


def test_aps_chores_value_and_certificate():
    chores = chores_instance()
    result = aps_share(chores, 0, Fraction(3, 4))
    assert result.value == -16
    prices = result.certificate
    assert isinstance(prices, PriceVector)
    assert sum(w for _, w in prices.prices) == 1
    # the certificate excludes everything better than the share: any bundle
    # of weight >= 3/4 is worth at most -16
    names = [t.name for t in chores.types]
    from itertools import combinations

    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            if prices.weight(frozenset(subset)) >= Fraction(3, 4):
                assert chores.bundle_value(0, frozenset(subset)) <= -16


def test_aps_goods_dual_value():
    dual = dualize(chores_instance()).instance
    result = aps_share(dual, 0, Fraction(1, 4))
    assert result.value == 4
    prices = result.certificate
    names = [t.name for t in dual.types]
    from itertools import combinations

    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            if prices.weight(frozenset(subset)) <= Fraction(1, 4):
                assert dual.bundle_value(0, frozenset(subset)) <= 4


def test_aps_entitlement_duality_identity():
    chores = chores_instance()
    assert check_share_duality(chores, "aps", entitlement=Fraction(3, 4))
    dual_value = aps_share(dualize(chores).instance, 0, Fraction(1, 4)).value
    assert aps_share(chores, 0, Fraction(3, 4)).value == dual_value - 20


def assert_copy_shift(instance, agent, value, entitlement=None):
    """Adding a full-copy type worth `value` moves the anyprice share by `value`.

    `aps_share` adds full-copy types as a constant before any LP, so the
    shifted share is also held against the frozen reference search.
    """
    assert "shifted" not in instance.index
    extended = Instance(
        agents=instance.agents,
        types=instance.types + (ItemType("shifted", instance.agents),),
        values=tuple(row + (value,) for row in instance.values),
    )
    before = aps_share(instance, agent, entitlement).value
    after = aps_share(extended, agent, entitlement).value
    assert after == before + value
    assert after == reference_aps_share(extended, agent, entitlement).value


def test_aps_unit_pair_and_forced_shift():
    pair = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(1)),) * 2,
    )
    assert aps_share(pair, 0).value == 1
    assert_copy_shift(pair, 0, Fraction(3))
    assert_copy_shift(chores_instance(), 0, Fraction(-7, 2), Fraction(3, 4))


def test_aps_forced_only_instance():
    forced = Instance(
        agents=2,
        types=(ItemType("a", 2),),
        values=((Fraction(4),), (Fraction(4),)),
    )
    result = aps_share(forced, 0)
    assert result.value == 4
    assert result.certificate.prices == ()


def test_aps_at_most_prop_at_default_entitlement():
    rng = random.Random(29)
    for _ in range(40):
        instance = random_instance(rng, max_agents=3, max_types=4,
                                   orientation="goods")
        for agent in range(instance.agents):
            assert aps_share(instance, agent).value <= prop_share(instance, agent)


def test_aps_entitlement_validation():
    pair = chores_instance()
    with pytest.raises(ValueError):
        aps_share(pair, 0, Fraction(3, 2))


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_rational(flag):
    """True would read as 1 and False as 0; the entitlement, alpha and shares refuse both."""
    instance = section_instance()
    allocation = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    calls = (
        ("entitlement", lambda: aps_share(instance, 0, flag)),
        ("entitlement", lambda: share_value(instance, "aps", 0, flag)),
        ("entitlement", lambda: check_share_duality(instance, "aps", flag)),
        ("alpha", lambda: check_alpha_mms(instance, allocation, flag, (6, 6, 6))),
        ("share", lambda: check_alpha_mms(instance, allocation, Fraction(1, 2), (6, flag, 6))),
    )
    for what, call in calls:
        with pytest.raises(ValueError, match=f"^{what} must be a rational, got {flag}$"):
            call()


@pytest.mark.parametrize("agent", [-1, 3, 1.5, True])
def test_per_agent_shares_refuse_agents_out_of_range(agent):
    instance = section_instance()
    witness = Allocation.of({"t1", "t2", "t3", "t4"}, {"t1", "t2"}, {"t3", "t4"})
    message = rf"agent {agent} out of range: the instance has agents 0\.\.2"
    calls = (
        lambda: instance.value(agent, "t1"),
        lambda: instance.bundle_value(agent, ()),
        lambda: instance.total_value(agent),
        lambda: instance.typeset_value(agent),
        lambda: prop_share(instance, agent),
        lambda: mms_share(instance, agent),
        lambda: tps_share(instance, agent),
        lambda: aps_share(instance, agent),
        lambda: verify_mms_lower_bound(instance, agent, witness),
    )
    for call in calls:
        with pytest.raises(InstanceError, match=message):
            call()
    for kind in ("prop", "mms", "tps", "aps"):
        with pytest.raises(InstanceError, match=message):
            share_value(instance, kind, agent)


def test_share_value_dispatch():
    instance = section_instance()
    assert share_value(instance, "prop", 0).value == 10
    assert share_value(instance, "mms", 0).value == 6
    assert share_value(instance, "tps", 0).value == 10
    aps = share_value(instance, "aps", 0, entitlement=Fraction(1, 3))
    assert aps.value <= 10


def test_share_value_refuses_unknown_kinds_and_stray_entitlements():
    instance = section_instance()
    with pytest.raises(ValueError, match="unknown share kind 'ef'"):
        share_value(instance, "ef", 0)
    for kind in ("prop", "mms", "tps"):
        with pytest.raises(ValueError, match="entitlement applies to the anyprice share only"):
            share_value(instance, kind, 0, entitlement=Fraction(1, 3))


def formerly_failing_instance():
    """sympy's simplex raised "Oscillating system" on this instance."""
    return instance_from_json(
        {
            "agents": 3,
            "types": [
                {"name": "t1", "copies": 1, "values": [3, 6, 8]},
                {"name": "t2", "copies": 1, "values": [7, 9, 3]},
                {"name": "t3", "copies": 2, "values": [4, 3, 7]},
                {"name": "t4", "copies": 2, "values": [6, 3, 3]},
                {"name": "t5", "copies": 2, "values": [2, 1, 5]},
            ],
        }
    )


def test_aps_formerly_failing_instance():
    instance = formerly_failing_instance()
    primal = aps_share(instance, 1, Fraction(1, 3))
    assert primal.value == 6
    assert instance.typeset_value(1) == 22
    dual = dualize(instance).instance
    assert aps_share(dual, 1, Fraction(2, 3)).value == -16

    # Upper side: under the certificate prices no bundle worth more than 6
    # fits the budget 1/3.
    prices = primal.certificate
    names = instance.type_names()
    for size in range(len(names) + 1):
        for chosen in itertools.combinations(names, size):
            if prices.weight(chosen) <= Fraction(1, 3):
                assert instance.bundle_value(1, chosen) <= 6

    # Lower side: a cover of bundles worth at least 6, with weight 1/3 each,
    # puts at most 1/3 on every type, so no prices exclude all of them.
    cover = [
        (Fraction(1, 3), {"t1"}),
        (Fraction(1, 3), {"t2"}),
        (Fraction(1, 3), {"t3", "t4"}),
    ]
    assert sum(w for w, _ in cover) == 1
    assert all(instance.bundle_value(1, b) >= 6 for _, b in cover)
    for name in names:
        assert sum(w for w, b in cover if name in b) <= Fraction(1, 3)


def test_aps_certificate_failure_is_an_error(monkeypatch):
    monkeypatch.setattr(shares, "_best_within_budget", lambda *args: None)
    with pytest.raises(CertificateError, match="certify no bundle, not 6"):
        aps_share(formerly_failing_instance(), 1)
    # Chores are solved on the negated row; the message speaks in shares.
    # Its empty bundle stands for taking every chore: -20 against -16.
    monkeypatch.setattr(shares, "_best_within_budget", lambda values, *rest: values[0])
    with pytest.raises(CertificateError, match="certify -20, not -16"):
        aps_share(chores_instance(), 0, Fraction(3, 4))


@st.composite
def goods_instances(draw):
    n = draw(st.integers(2, 4))
    free = draw(st.integers(3, 7))
    forced = draw(st.integers(0, 1))
    copies = [draw(st.integers(1, n - 1)) for _ in range(free)] + [n] * forced
    value = st.builds(Fraction, st.integers(0, 12), st.integers(1, 3))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(draw(value) for _ in copies) for _ in range(n)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(goods_instances(), st.data())
def test_aps_property_on_random_goods(instance, data):
    agent = data.draw(st.integers(0, instance.agents - 1))
    b = Fraction(1, instance.agents)
    value = aps_share(instance, agent, b).value
    assert value <= prop_share(instance, agent)
    dual = dualize(instance).instance
    mirrored = aps_share(dual, agent, 1 - b).value
    assert mirrored == value - instance.typeset_value(agent)
    shift = data.draw(st.builds(Fraction, st.integers(0, 12)))
    assert_copy_shift(instance, agent, shift)


@st.composite
def sign_pure_instances(draw):
    """2-4 agents, 0-6 types with copies 1..n; goods or chores, zeros and ties."""
    n = draw(st.integers(2, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    sign = draw(st.sampled_from((1, -1)))
    value = st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(sign * draw(value) for _ in copies) for _ in range(n)),
    )


@settings(max_examples=200, deadline=None)
@given(sign_pure_instances(), st.data())
def test_aps_search_matches_the_reference(instance, data):
    """Same value as the two-orientation reference search. Goods keep its
    certificate prices; chores prices may be another optimal vertex, so
    they must pass the reference's own chores rule."""
    agent = data.draw(st.integers(0, instance.agents - 1))
    for entitlement in (None, Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        share = aps_share(instance, agent, entitlement)
        reference = reference_aps_share(instance, agent, entitlement)
        if instance.orientation() == "goods":
            assert share == reference
            continue
        assert share.value == reference.value
        assert share.certificate.entitlement == reference.certificate.entitlement
        assert reference_price_value(instance, agent, share.certificate) == share.value


@st.composite
def mixed_scale_instances(draw):
    """2-4 agents, up to 5 shared types and 0-2 full-copy ones; goods or
    chores with denominators 1..7, so each agent's row has its own scale."""
    n = draw(st.integers(2, 4))
    copies = draw(st.lists(st.integers(1, n - 1), max_size=5))
    copies = draw(st.permutations(copies + [n] * draw(st.integers(0, 2))))
    sign = draw(st.sampled_from((1, -1)))
    value = st.builds(Fraction, st.integers(0, 12), st.integers(1, 7))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(sign * draw(value) for _ in copies) for _ in range(n)),
    )


@settings(max_examples=100, deadline=None)
@given(mixed_scale_instances(), st.data())
def test_aps_on_scaled_integer_rows_matches_the_reference(instance, data):
    """Entitlements 2/5 and 3/7 have denominators the prices need not share."""
    agent = data.draw(st.integers(0, instance.agents - 1))
    for entitlement in (None, Fraction(0), Fraction(2, 5), Fraction(3, 7), Fraction(1)):
        share = aps_share(instance, agent, entitlement)
        reference = reference_aps_share(instance, agent, entitlement)
        assert share.value == reference.value
        if instance.orientation() == "goods":
            assert share == reference
        else:
            assert reference_price_value(instance, agent, share.certificate) == share.value


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=7))
@example([0, 0, 2, 2, 3])
def test_least_item_frontier_matches_a_one_removal_scan(row):
    """Zero-valued and tied items included, at every threshold from the least up."""
    values = shares._subset_sums(row)
    least = shares._least_items(row)
    for threshold in sorted(set(values)):
        qualifying = {m for m, v in enumerate(values) if v >= threshold}
        scan = [
            m
            for m in sorted(qualifying)
            if not any((m ^ (1 << i)) in qualifying for i in range(len(row)) if m >> i & 1)
        ]
        assert shares._frontier(values, least, threshold) == scan
