import importlib
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdual
from fairdual import model
from fairdual.criteria import ComparisonCriterion, is_fair
from fairdual.leveled import leveled_counterexample, solve_leveled_efxwc
from fairdual.model import (
    Allocation,
    Instance,
    InstanceError,
    ItemType,
    UnknownTypeError,
    allocation_from_json,
    allocation_to_json,
    bundle,
    format_rational,
    instance_from_json,
    instance_to_json,
    parse_rational,
    require_valid,
    validate_allocation,
)
from fairdual.search import count_fair, exists_fair, max_nash_welfare
from fairdual.shares import mms_share


def three_agent_instance():
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


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("2.5") == Fraction(5, 2)
    assert parse_rational("-7/3") == Fraction(-7, 3)


def test_parse_rational_rejects_floats_and_bools():
    with pytest.raises(InstanceError):
        parse_rational(0.1)
    with pytest.raises(InstanceError):
        parse_rational(True)
    with pytest.raises(InstanceError):
        parse_rational("one half")


def test_format_rational_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        value = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        assert parse_rational(format_rational(value)) == value


def test_instance_rejects_too_many_copies():
    with pytest.raises(InstanceError):
        Instance(
            agents=2,
            types=(ItemType("a", 3),),
            values=((Fraction(1),), (Fraction(1),)),
        )


def test_instance_rejects_bool_counts():
    one = ((Fraction(1),),)
    with pytest.raises(InstanceError, match="agent count must be a positive int"):
        Instance(agents=True, types=(ItemType("a", 1),), values=one)
    with pytest.raises(InstanceError, match="has True copies"):
        Instance(agents=1, types=(ItemType("a", True),), values=one)
    assert Instance(agents=1, types=(ItemType("a", 1),), values=one).agents == 1


def test_instance_rejects_duplicate_type_names():
    with pytest.raises(InstanceError):
        Instance(
            agents=2,
            types=(ItemType("a", 1), ItemType("a", 1)),
            values=((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
        )


def test_instance_rejects_ragged_values():
    with pytest.raises(InstanceError):
        Instance(
            agents=2,
            types=(ItemType("a", 1), ItemType("b", 1)),
            values=((Fraction(1),), (Fraction(1), Fraction(2))),
        )


def test_orientation_classification():
    goods = three_agent_instance()
    assert goods.goods_pure and not goods.chores_pure
    assert goods.orientation() == "goods"
    chores = Instance(
        agents=2,
        types=(ItemType("c", 1),),
        values=((Fraction(-1),), (Fraction(-2),)),
    )
    assert chores.orientation() == "chores"
    mixed = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(1), Fraction(-1)),) * 2,
    )
    assert mixed.orientation() is None
    # all-zero values are both goods and chores
    zero = Instance(
        agents=2, types=(ItemType("a", 1),), values=((Fraction(0),), (Fraction(0),))
    )
    assert zero.goods_pure and zero.chores_pure


def reference_tag(column):
    """A type's sign tag by Fraction comparisons."""
    has_pos = any(v > 0 for v in column)
    has_neg = any(v < 0 for v in column)
    if has_pos and has_neg:
        return "mixed"
    return "good" if has_pos else "chore" if has_neg else "zero"


# Per type: all zero, goods, chores, or both signs (mixed is likely).
signed_columns = st.sampled_from([(0, 0), (0, 1), (-1, 0), (-1, 1)]).flatmap(
    lambda signs: st.lists(
        st.builds(
            lambda sign, p, q: Fraction(sign * p, q),
            st.sampled_from(signs),
            st.integers(0, 9),
            st.integers(1, 6),
        ),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(signed_columns, max_size=5))
def test_type_tags_match_fraction_comparisons(n, draws):
    columns = [(draw * n)[:n] for draw in draws]
    expected = [reference_tag(column) for column in columns]
    types = tuple(ItemType(f"t{k}", 1) for k in range(len(columns)))
    values = tuple(tuple(column[i] for column in columns) for i in range(n))
    if "mixed" in expected:
        name = types[expected.index("mixed")].name
        message = f"type {name!r} has both positive and negative values"
        with pytest.raises(InstanceError, match=message):
            Instance(agents=n, types=types, values=values)
    else:
        assert Instance(agents=n, types=types, values=values).type_tags == tuple(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(signed_columns.filter(lambda c: reference_tag(c) != "mixed"), max_size=5),
)
def test_kernel_rows_are_values_times_the_lcm_of_their_denominators(n, draws):
    """Goods, chores and zero types; so rows that mix signs, all-zero rows, no types."""
    columns = [(draw * n)[:n] for draw in draws]
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", 1) for k in range(len(columns))),
        values=tuple(tuple(column[i] for column in columns) for i in range(n)),
    )
    rows, scales = instance.kernel
    assert instance.kernel is instance.kernel
    assert len(rows) == len(scales) == n
    for values, row, scale in zip(instance.values, rows, scales):
        assert scale == math.lcm(*(v.denominator for v in values))
        assert type(row) is tuple and all(type(x) is int for x in row)
        assert row == tuple(v * scale for v in values)


def test_every_consumer_reads_the_one_compiled_kernel(monkeypatch):
    """One goods instance through solver, pair check, search, Nash and maximin: n compiles."""
    calls = []
    original = model._integer_row

    def counted(values):
        calls.append(values)
        return original(values)

    for info in pkgutil.iter_modules(fairdual.__path__):
        module = importlib.import_module(f"fairdual.{info.name}")
        if hasattr(module, "_integer_row"):
            monkeypatch.setattr(module, "_integer_row", counted)
    n = 3
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", 1 + k % 2) for k in range(4)),
        values=tuple(
            tuple(Fraction(10 + (i + k) % 3, 10 + k) for k in range(4)) for i in range(n)
        ),
    )
    assert calls == []
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    allocation = solve_leveled_efxwc(instance).allocation
    assert is_fair(instance, allocation, criterion).fair
    assert exists_fair(instance, criterion).exists
    assert count_fair(instance, criterion)[0] > 0
    max_nash_welfare(instance)
    for agent in range(n):
        mms_share(instance, agent)
    assert len(calls) == n


def test_value_accessors():
    instance = three_agent_instance()
    assert instance.position("t3") == 2
    assert instance.value(0, "t4") == 9
    assert instance.bundle_value(1, bundle("t1", "t2")) == 3
    assert instance.total_value(0) == 2 * (1 + 2 + 3 + 9)
    assert instance.typeset_value(0) == 15
    with pytest.raises(UnknownTypeError):
        instance.position("nope")


def test_validate_allocation_catches_copy_mismatch():
    instance = three_agent_instance()
    good = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    assert validate_allocation(instance, good) == ()
    require_valid(instance, good)
    short = Allocation.of(["t1"], ["t1"], [])
    problems = validate_allocation(instance, short)
    assert problems and any("t2" in v.message for v in problems)
    with pytest.raises(InstanceError):
        require_valid(instance, short)


def test_validate_allocation_bundle_count():
    instance = three_agent_instance()
    wrong = Allocation.of(["t1", "t2", "t3", "t4"], ["t1", "t2", "t3", "t4"])
    kinds = {v.kind for v in validate_allocation(instance, wrong)}
    assert "bundle-count" in kinds


def test_leveled_predicate():
    # values within [1, 1 + 1/4) keep every valuation leveled
    instance = Instance(
        agents=2,
        types=tuple(ItemType(f"t{i}", 1) for i in range(1, 5)),
        values=(
            (Fraction(1), Fraction(9, 8), Fraction(9, 8), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
        ),
    )
    assert leveled_counterexample(instance, 0) is None
    assert leveled_counterexample(instance, 1) is None
    spiky = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 1)),
        values=((Fraction(10), Fraction(1), Fraction(1)),) * 2,
    )
    larger, smaller = leveled_counterexample(spiky, 0)
    assert larger == smaller + 1
    # the two cheapest goods together fall below the single dearest one
    assert smaller == 1


def test_instance_json_round_trip():
    instance = three_agent_instance()
    data = instance_to_json(instance)
    again = instance_from_json(data)
    assert again == instance


def test_instance_json_shared_values_and_zero_copies():
    notices = []
    instance = instance_from_json(
        {
            "agents": 2,
            "types": [
                {"name": "a", "copies": 1, "values": {"shared": "3/2"}},
                {"name": "gone", "copies": 0, "values": {"shared": 1}},
                {"name": "b", "copies": 2, "values": [1, "2"]},
            ],
        },
        on_notice=notices.append,
    )
    assert instance.type_names() == ("a", "b")
    assert instance.value(1, "a") == Fraction(3, 2)
    assert notices and "gone" in notices[0]


def test_instance_json_bad_shapes():
    with pytest.raises(InstanceError):
        instance_from_json({"agents": 2})
    with pytest.raises(InstanceError):
        instance_from_json(
            {"agents": 0, "types": []}
        )
    with pytest.raises(InstanceError):
        instance_from_json(
            {
                "agents": 2,
                "types": [{"name": "a", "copies": 1, "values": [1]}],
            }
        )


def test_allocation_json_round_trip():
    instance = three_agent_instance()
    allocation = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    data = allocation_to_json(allocation, instance)
    assert data["bundles"][0] == ["t1", "t2", "t4"]
    assert allocation_from_json(data) == allocation


def test_allocation_json_rejects_repeats():
    with pytest.raises(InstanceError):
        allocation_from_json({"bundles": [["a", "a"]]})
