"""The names the traced benchmark wraps must exist and be called through.

`bench/spans.py` replaces `fairdual.search.criterion_eval`,
`fairdual.shares.maximize` and `fairdual.leveled.require_leveled` with
counting shims. A refactor that stops calling through one of these module
attributes would silently blank its per-layer metrics, so each is pinned
here with a counting wrapper.
"""

from fractions import Fraction

from fairdual import leveled, search, shares
from fairdual.criteria import ComparisonCriterion
from fairdual.model import Instance, ItemType
from fairdual.shares import aps_share


def counted(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def small_instance(types=4):
    """Three agents, copies alternating 1 and 2: one level of two copies each
    with four types, bundle sizes 3, 2, 2 with five. Values are leveled."""
    return Instance(
        agents=3,
        types=tuple(ItemType(f"t{k}", 1 + k % 2) for k in range(types)),
        values=tuple(
            tuple(Fraction(10 + (i + k) % 3, 10) for k in range(types)) for i in range(3)
        ),
    )


def test_search_calls_criterion_eval_through_its_module(monkeypatch):
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    calls = counted(monkeypatch, search, "criterion_eval")
    search.exists_fair(small_instance(), criterion)
    assert calls
    calls.clear()
    search.count_fair(small_instance(), criterion)
    assert calls


def test_shares_calls_maximize_through_its_module(monkeypatch):
    calls = counted(monkeypatch, shares, "maximize")
    aps_share(small_instance(), 0)
    assert calls


def test_leveled_calls_both_shimmed_names(monkeypatch):
    checks = counted(monkeypatch, leveled, "require_leveled")
    evaluations = counted(monkeypatch, search, "criterion_eval")
    leveled.solve_leveled_efxwc(small_instance())
    assert checks
    # With one level no pair can fail, so the walk evaluates none; with two
    # it evaluates the pairs from the lower level to the higher.
    assert not evaluations
    leveled.solve_leveled_efxwc(small_instance(types=5))
    assert evaluations
