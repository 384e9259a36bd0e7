import json
from fractions import Fraction

import pytest

from fairdual import sweep
from fairdual.sweep import (
    BOUND_FLOORS,
    SWEEP_NOTIONS,
    SweepConfig,
    run_sweep,
)


def test_notion_roster():
    assert len(SWEEP_NOTIONS) == 8
    assert "efx_wc" in SWEEP_NOTIONS and "ef" in SWEEP_NOTIONS
    assert set(BOUND_FLOORS) == {"efx_wc", "efl_wc"}
    assert BOUND_FLOORS["efx_wc"] == Fraction(4, 11)
    assert BOUND_FLOORS["efl_wc"] == Fraction(1, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(count=-1)
    with pytest.raises(ValueError):
        SweepConfig(max_agents=1)
    with pytest.raises(ValueError, match="max_value must be nonnegative"):
        SweepConfig(max_value=-1)
    for plan_cap in (0, -1):
        with pytest.raises(ValueError, match="plan_cap must be positive"):
            SweepConfig(plan_cap=plan_cap)
    for name in ("count", "max_agents", "max_types", "max_value", "plan_cap"):
        for value in (True, 2.5, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
                SweepConfig(**{name: value})
    report = run_sweep(SweepConfig(seed=2, count=3, max_value=0, plan_cap=1))
    assert (report.instances, report.ok) == (3, True)


def test_small_sweep_is_clean_and_counts_add_up():
    report = run_sweep(SweepConfig(seed=5, count=40))
    assert report.ok
    assert report.instances == 40
    assert report.allocations > 0
    by_notion = {s.notion: s for s in report.stats}
    assert set(by_notion) == set(SWEEP_NOTIONS)
    # EF is the strongest notion; whatever passes it passes everything else
    for notion in SWEEP_NOTIONS:
        assert by_notion[notion].passing >= by_notion["ef"].passing
    for notion, floor in BOUND_FLOORS.items():
        ratio = by_notion[notion].min_ratio
        assert ratio is None or ratio >= floor


def test_reports_are_deterministic():
    first = run_sweep(SweepConfig(seed=9, count=25))
    second = run_sweep(SweepConfig(seed=9, count=25))
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())
    different = run_sweep(SweepConfig(seed=10, count=25))
    assert json.dumps(first.to_json()) != json.dumps(different.to_json())


def test_min_ratio_index_points_at_reproducible_instance():
    config = SweepConfig(seed=5, count=40)
    report = run_sweep(config)
    for stat in report.stats:
        if stat.min_ratio is not None:
            assert stat.min_ratio_index is not None
            assert 0 <= stat.min_ratio_index < config.count


def test_skipped_instances_are_reported():
    full = run_sweep(SweepConfig(seed=5, count=40))
    capped = run_sweep(SweepConfig(seed=5, count=40, plan_cap=20))
    assert full.skipped == 0
    assert 0 < capped.skipped < capped.instances == 40
    assert capped.allocations < full.allocations
    assert capped.to_json()["skipped"] == capped.skipped
    assert SweepConfig(**capped.to_json()["config"]) == capped.config


def test_forced_violations_keep_their_count_order_and_text(monkeypatch):
    """A false lattice edge and raised floors make every kind of violation fire.

    Hierarchy violations of an allocation come first, then bound violations
    by notion and agent; the figures were recorded before the sweep computed
    each allocation's ratios once.
    """
    floors = {"ef1": Fraction(1), "efx_wc": Fraction(6, 5)}
    monkeypatch.setattr(sweep, "BOUND_FLOORS", floors)
    monkeypatch.setattr(sweep, "HIERARCHY_EDGES", (("ef1", "ef"),) + sweep.HIERARCHY_EDGES)
    report = run_sweep(SweepConfig(seed=1, count=4))
    assert (report.allocations, report.skipped) == (33, 0)
    hierarchy, bound = "hierarchy", "bound"
    assert [(v.kind, v.index) for v in report.violations] == [
        (bound, 0), (bound, 0),
        (hierarchy, 1), (bound, 1), (hierarchy, 1), (bound, 1),
        *[(hierarchy, 1)] * 4, (bound, 1), *[(hierarchy, 1)] * 4, (bound, 1),
        *[(hierarchy, 1)] * 3, (bound, 1), (hierarchy, 1),
        (hierarchy, 2),
        (hierarchy, 3), (bound, 3), (bound, 3), (hierarchy, 3), *[(bound, 3)] * 3,
    ]
    assert [v.detail for v in report.violations[:4]] == [
        "efx_wc allocation gives agent 0 ratio 1 < 6/5",
        "efx_wc allocation gives agent 1 ratio 1 < 6/5",
        "ef1 holds but ef fails on [['t1', 't2', 't3'], ['t1', 't2'], ['t1', 't4']]",
        "ef1 allocation gives agent 2 ratio 8/9 < 1",
    ]
    assert report.violations[3].instance == {
        "agents": 3,
        "types": [
            {"name": "t1", "copies": 3, "values": [7, 9, 3]},
            {"name": "t2", "copies": 2, "values": [0, 0, 9]},
            {"name": "t3", "copies": 1, "values": [6, 7, 1]},
            {"name": "t4", "copies": 1, "values": [6, 4, 5]},
        ],
    }
    by_notion = {
        s.notion: (s.passing, s.min_ratio, s.min_ratio_index) for s in report.stats
    }
    assert by_notion["ef1"] == (20, Fraction(8, 9), 1)
    assert by_notion["efx_wc"] == (12, Fraction(1), 0)
