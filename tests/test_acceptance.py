"""End-to-end gate: the numbered requirements the package ships against.

Each test covers one criterion, checks its values exactly (rationals, not
floats), enforces a wall-clock budget, and prints a single
`criterion NN PASS/FAIL` line (visible with pytest -s).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from fairdual.criteria import (
    ComparisonCriterion,
    cancel_envy_cycle,
    criterion_for,
    is_fair,
)
from fairdual.duality import check_envy_duality, dualize
from fairdual.fixtures import fixture_ids, load_fixture
from fairdual.leveled import solve_leveled_efxwc
from fairdual.model import Allocation, Instance, ItemType, bundle, validate_allocation
from fairdual.randgen import random_instance, random_leveled_instance
from fairdual.search import (
    check_chores_characterization,
    exists_fair,
    max_nash_welfare,
)
from fairdual.shares import (
    aps_share,
    check_share_duality,
    prop_share,
    tps_share,
    verify_mms_lower_bound,
)
from fairdual.sweep import SweepConfig, run_sweep
from strategies import single_copy_instance


@contextmanager
def gate(number, description, seconds):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < seconds, (
            f"overran the {seconds}s budget ({elapsed:.1f}s)"
        )
    except BaseException:
        print(f"criterion {number:02d} FAIL {description}")
        raise
    print(f"criterion {number:02d} PASS {description} ({elapsed:.2f}s)")


def doubled_types_instance():
    """Three agents, types t1..t4 worth 1, 2, 3, 9 to everyone, two copies each."""
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


def three_agent_instance(rng, single_copy=False, **kwargs):
    draw = single_copy_instance if single_copy else random_instance
    while True:
        instance = draw(rng, max_agents=3, **kwargs)
        if instance.agents == 3:
            return instance


_SWEEP_CACHE = {}


def shared_sweep():
    """One 200-instance exhaustive sweep, shared by the lattice and bound gates."""
    if "report" not in _SWEEP_CACHE:
        _SWEEP_CACHE["report"] = run_sweep(SweepConfig(seed=1, count=200))
    return _SWEEP_CACHE["report"]


def test_c01_no_efx_or_efl_among_all_81_allocations():
    with gate(1, "EFX and EFL refuted after exactly 81 checks", 1.0):
        instance = doubled_types_instance()
        for base in ("efx", "efl"):
            certificate = exists_fair(instance, ComparisonCriterion(base, "goods"))
            assert not certificate.exists
            assert certificate.checked == 81
            assert certificate.plan_total == 81


def test_c02_witness_allocation_and_its_dual():
    with gate(2, "witness passes EFX_WC, fails EFX; dual passes chores EFX", 1.0):
        instance = doubled_types_instance()
        witness = Allocation.of(
            ["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"]
        )
        assert is_fair(
            instance, witness, ComparisonCriterion("efx", "goods", True)
        ).fair
        report = is_fair(instance, witness, ComparisonCriterion("efx", "goods"))
        assert not report.fair
        assert {w.envious for w in report.witnesses} == {2}

        dual = dualize(instance, witness)
        assert all(t.copies == 1 for t in dual.instance.types)
        assert dual.instance.value(0, "t4") == -9
        assert dual.allocation.bundles == (
            bundle("t3"),
            bundle("t1", "t2"),
            bundle("t4"),
        )
        assert is_fair(
            dual.instance, dual.allocation, ComparisonCriterion("efx", "chores")
        ).fair


def test_c03_envy_duality_on_1000_random_pairs():
    with gate(3, "envy duality on 1000 seeded pairs, three bases", 30.0):
        rng = random.Random(2026)
        from fairdual.randgen import random_allocation

        for index in range(1000):
            orientation = "goods" if index % 2 == 0 else "chores"
            instance = random_instance(
                rng, max_agents=4, max_types=5, orientation=orientation
            )
            allocation = random_allocation(rng, instance)
            for base in ("ef1", "efx", "efl"):
                assert check_envy_duality(
                    instance, allocation, criterion_for(instance, base)
                ), (index, base)


def test_c04_share_duality_shift_and_tps_nonlinearity():
    with gate(4, "PROP/MMS duality shift on 200 instances; TPS shift 13/3", 60.0):
        rng = random.Random(404)
        for _ in range(200):
            instance = three_agent_instance(rng, max_types=4)
            assert check_share_duality(instance, "prop")
            assert check_share_duality(instance, "mms")

        trio = load_fixture("tps-trio").instance
        forced = load_fixture("tps-forced-copies").instance
        before = tps_share(trio, 0).value
        after = tps_share(forced, 0).value
        assert before == 2
        assert after == Fraction(19, 3)
        assert after - before == Fraction(13, 3)
        assert after - before != 3  # the added type is worth 3; no linear shift


def test_c05_chores_efx_characterization_on_500_instances():
    with gate(5, "chores-EFX iff dual goods EFX_WC on 500 instances", 120.0):
        rng = random.Random(505)
        for _ in range(500):
            instance = three_agent_instance(
                rng, max_types=4, orientation="chores", single_copy=True
            )
            assert check_chores_characterization(instance)


def test_c06_hierarchy_lattice_and_separations():
    with gate(6, "lattice clean over the sweep; four separations exact", 300.0):
        report = shared_sweep()
        assert report.instances == 200
        assert not [v for v in report.violations if v.kind == "hierarchy"]

        def verdict(fixture_id, name, notion):
            fixture = load_fixture(fixture_id)
            allocation = fixture.allocations[name]
            return is_fair(
                fixture.instance,
                allocation,
                criterion_for(fixture.instance, notion),
            )

        # EFL_WC holds yet EFX_WC fails
        assert verdict("eflwc-not-efxwc", "main", "efl_wc").fair
        separation = verdict("eflwc-not-efxwc", "main", "efx_wc")
        assert not separation.fair
        assert [(w.envious, w.envied) for w in separation.witnesses] == [(1, 0)]
        # EFL holds yet EF1_WC fails
        assert verdict("efl-not-ef1wc", "main", "efl").fair
        assert not verdict("efl-not-ef1wc", "main", "ef1_wc").fair
        # EF1 holds yet EF1_WC fails
        assert verdict("ef1-not-ef1wc", "main", "ef1").fair
        assert not verdict("ef1-not-ef1wc", "main", "ef1_wc").fair
        # EFX_WC holds yet EFL fails
        assert verdict("no-efx-four-types", "main", "efx_wc").fair
        assert not verdict("no-efx-four-types", "main", "efl").fair


def test_c07_mms_ratio_floors_and_upper_bound_fixtures():
    with gate(7, "sweep ratios above 4/11 and 1/3; fixtures hit 2/5 and 1/4", 300.0):
        report = shared_sweep()
        assert not [v for v in report.violations if v.kind == "bound"]
        by_notion = {s.notion: s for s in report.stats}
        efxwc = by_notion["efx_wc"].min_ratio
        eflwc = by_notion["efl_wc"].min_ratio
        assert efxwc is not None and efxwc >= Fraction(4, 11)
        assert eflwc is not None and eflwc >= Fraction(1, 3)

        fixture = load_fixture("efxwc-two-fifths-mms")
        instance = fixture.instance
        main = fixture.allocations["main"]
        partition = fixture.allocations["witness"]
        assert instance.agents == 13
        assert is_fair(instance, main, criterion_for(instance, "efx_wc")).fair
        floor = verify_mms_lower_bound(instance, 12, partition)
        ceiling = prop_share(instance, 12)
        assert floor == Fraction(5, 2) == ceiling  # pins the maximin exactly
        own = instance.bundle_value(12, main.bundles[12])
        assert own / Fraction(5, 2) == Fraction(2, 5)

        quarter = load_fixture("ef1wc-quarter-mms")
        assert quarter.instance.agents == 4
        q_main = quarter.allocations["main"]
        assert is_fair(
            quarter.instance, q_main, criterion_for(quarter.instance, "ef1_wc")
        ).fair
        q_floor = verify_mms_lower_bound(
            quarter.instance, 3, quarter.allocations["witness"]
        )
        assert q_floor == 4 == prop_share(quarter.instance, 3)
        q_own = quarter.instance.bundle_value(3, q_main.bundles[3])
        assert q_own / q_floor == Fraction(1, 4)


def test_c08_leveled_solver_on_ten_thousand_instances():
    with gate(8, "leveled solver certified on 10000 instances", 300.0):
        rng = random.Random(808)
        efxwc = ComparisonCriterion("efx", "goods", without_commons=True)
        chores_efxwc = ComparisonCriterion("efx", "chores", without_commons=True)
        for index in range(10_000):
            instance = random_leveled_instance(rng, max_agents=5, max_types=8)
            result = solve_leveled_efxwc(instance)
            assert not validate_allocation(instance, result.allocation), index
            assert is_fair(instance, result.allocation, efxwc).fair, index
            levels = [result.initial_potential] + [
                s.potential for s in result.trace
            ]
            assert all(a < b for a, b in zip(levels, levels[1:])), index
            assert len(result.trace) <= instance.agents * len(instance.types) ** 2
            dual = dualize(instance, result.allocation)
            assert is_fair(dual.instance, dual.allocation, chores_efxwc).fair, index


def test_c09_envy_cycle_cancellation_breaks_fairness():
    with gate(9, "cancelling the cycle helps both agents yet breaks EF1_WC", 10.0):
        fixture = load_fixture("cycle-cancel")
        instance = fixture.instance
        before = fixture.allocations["main"]
        assert is_fair(instance, before, criterion_for(instance, "efx_wc")).fair
        after = cancel_envy_cycle(instance, before, (0, 1))
        assert after == fixture.allocations["post"]
        for agent in (0, 1):
            assert instance.bundle_value(
                agent, after.bundles[agent]
            ) > instance.bundle_value(agent, before.bundles[agent])
        report = is_fair(instance, after, criterion_for(instance, "ef1_wc"))
        assert not report.fair
        assert [(w.envious, w.envied) for w in report.witnesses] == [(0, 2)]


def test_c10_nash_welfare_maximizer_is_not_ef1wc():
    with gate(10, "MNW allocation has welfare 3 and fails EF1_WC", 1.0):
        fixture = load_fixture("mnw-not-ef1wc")
        instance = fixture.instance
        allocation, welfare = max_nash_welfare(instance)
        assert welfare == 3
        assert allocation == fixture.allocations["main"]
        assert allocation.bundles == (
            bundle("a", "b", "c"),
            bundle("a"),
            bundle("d"),
        )
        report = is_fair(instance, allocation, criterion_for(instance, "ef1_wc"))
        assert not report.fair
        assert [(w.envious, w.envied) for w in report.witnesses] == [(1, 0)]


def test_c11_share_values_and_certificates():
    with gate(11, "TPS 2, 19/3, 7; APS -16 certified; APS <= PROP", 120.0):
        assert tps_share(load_fixture("tps-trio").instance, 0).value == 2
        assert tps_share(
            load_fixture("tps-forced-copies").instance, 0
        ).value == Fraction(19, 3)
        large = load_fixture("tps-large-item").instance
        assert tps_share(large, 0).value == 7
        assert prop_share(large, 0) == 10

        chores = load_fixture("aps-chores").instance
        assert prop_share(chores, 0) == -15
        result = aps_share(chores, 0, Fraction(3, 4))
        assert result.value == -16
        prices = result.certificate
        assert sum(w for _, w in prices.prices) == 1
        names = [t.name for t in chores.types]
        achieved = False
        for size in range(len(names) + 1):
            for subset in combinations(names, size):
                held = frozenset(subset)
                if prices.weight(held) >= Fraction(3, 4):
                    worth = chores.bundle_value(0, held)
                    assert worth <= -16
                    achieved = achieved or worth == -16
        assert achieved  # the certificate pins the share from both sides

        dual_value = aps_share(dualize(chores).instance, 0, Fraction(1, 4)).value
        assert dual_value == 4
        assert chores.typeset_value(0) == -20
        assert dual_value + chores.typeset_value(0) == -16

        rng = random.Random(1111)
        for _ in range(60):
            goods = random_instance(rng, max_agents=3, max_types=4,
                                    orientation="goods")
            for agent in range(goods.agents):
                assert aps_share(goods, agent).value <= prop_share(goods, agent)


def test_c12_open_existence_questions_carry_no_claims():
    """General EFX_WC existence (arbitrary copies) and chores EFX existence
    are open; nothing in the corpus asserts them beyond concrete instances,
    and the randomized sweeps above stand in for them."""
    with gate(12, "open problems stay out of scope", 5.0):
        for fixture_id in fixture_ids():
            for claim in load_fixture(fixture_id).claims:
                if claim["kind"] == "exists":
                    assert "expect" in claim  # a verdict about one instance
