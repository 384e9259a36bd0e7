import ast
import importlib
import json
import math
import os
import pkgutil
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairdual
from fairdual import model
from fairdual.criteria import ComparisonCriterion, is_fair
from fairdual.duality import dualize
from fairdual.leveled import require_leveled, solve_leveled_efxwc
from fairdual.model import (
    MAX_DECIMAL_EXPONENT,
    MAX_INSTANCE_CELLS,
    Allocation,
    FairdualError,
    Instance,
    InstanceError,
    ItemType,
    NotLeveledError,
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
from fairdual.shares import aps_share, mms_share
from strategies import corrupted_encodings, json_allocations, json_instances, json_values


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


def test_parse_rational_bounds_decimal_exponents():
    """Fraction would build 10**exp for any exponent, so a long one is refused first."""
    assert parse_rational("1e3") == 1000
    assert parse_rational(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10**MAX_DECIMAL_EXPONENT)
    for text in (
        f"1e{MAX_DECIMAL_EXPONENT + 1}",
        f" -2.5E-{MAX_DECIMAL_EXPONENT + 1} ",
        "1e-1000000",
    ):
        with pytest.raises(InstanceError, match="exponent"):
            parse_rational(text)
    with pytest.raises(InstanceError, match="not a rational"):
        parse_rational("1e" + "9" * (MAX_DECIMAL_EXPONENT + 1))


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
    # What the JSON codec refuses, the constructor refuses with its message.
    one = ((Fraction(1),), (Fraction(1),))
    with pytest.raises(InstanceError, match="type name must be a string, got 1"):
        Instance(agents=2, types=(ItemType(1, 1),), values=one)
    with pytest.raises(InstanceError, match=r"type name must be a string, got \['a'\]"):
        Instance(agents=2, types=(ItemType(["a"], 1),), values=one)
    with pytest.raises(InstanceError, match=r"type must be an ItemType, got \('a', 1\)"):
        Instance(agents=2, types=(("a", 1),), values=one)


def test_instance_rejects_ragged_values():
    with pytest.raises(InstanceError):
        Instance(
            agents=2,
            types=(ItemType("a", 1), ItemType("b", 1)),
            values=((Fraction(1),), (Fraction(1), Fraction(2))),
        )
    types = (ItemType("a", 1),)
    with pytest.raises(InstanceError, match="expected 2 valuation rows, got 1"):
        Instance(agents=2, types=types, values=((Fraction(1),),))
    with pytest.raises(InstanceError, match="value 1 is not a Fraction"):
        Instance(agents=2, types=types, values=((Fraction(1),), (1,)))


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


def reference_signs(column) -> set:
    """The signs of a column's nonzero values, by Fraction comparisons."""
    return {1 for v in column if v > 0} | {-1 for v in column if v < 0}


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
def test_signs_match_fraction_comparisons(n, draws):
    columns = [(draw * n)[:n] for draw in draws]
    expected = [reference_signs(column) for column in columns]
    types = tuple(ItemType(f"t{k}", 1) for k in range(len(columns)))
    values = tuple(tuple(column[i] for column in columns) for i in range(n))
    mixed = [t.name for t, found in zip(types, expected) if len(found) > 1]
    if mixed:
        message = f"type {mixed[0]!r} has both positive and negative values"
        with pytest.raises(InstanceError, match=message):
            Instance(agents=n, types=types, values=values)
    else:
        assert Instance(agents=n, types=types, values=values).signs == set().union(*expected)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(signed_columns.filter(lambda c: len(reference_signs(c)) < 2), max_size=5),
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


def leveled_pipeline_instance() -> Instance:
    """Three leveled agents; the last of the four types is a full-copy one."""
    n = 3
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", (1, 2, 1, n)[k]) for k in range(4)),
        values=tuple(
            tuple(Fraction(30 + (i + k) % 3, 30 + k) for k in range(4)) for i in range(n)
        ),
    )


@pytest.fixture
def validations(monkeypatch):
    """Every (instance, allocation) pair `validate_allocation` checks from now on."""
    checked = []
    original = model.validate_allocation

    def counted(instance, allocation):
        checked.append((instance, allocation))
        return original(instance, allocation)

    monkeypatch.setattr(model, "validate_allocation", counted)
    return checked


def test_the_leveled_pipeline_compiles_the_primal_kernel_only(monkeypatch):
    """Solver, `is_fair`, `dualize` and the dual's chores `is_fair` on one
    goods instance compile n rows: the dual's kernel is derived from the
    primal's, with a full-copy column dropped."""
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
    instance = leveled_pipeline_instance()
    allocation = solve_leveled_efxwc(instance).allocation
    assert is_fair(instance, allocation, ComparisonCriterion("efx", "goods", True)).fair
    dual = dualize(instance, allocation)
    chores = ComparisonCriterion("efx", "chores", True)
    assert is_fair(dual.instance, dual.allocation, chores).fair
    assert len(dual.instance.types) == 3
    assert len(calls) == n


def test_the_leveled_pipeline_validates_one_allocation(validations):
    """On one `c08` operation no allocation gets a full validation: the
    solver marks its allocation valid for the instance, by construction,
    and `dualize` marks the dual allocation valid for the dual it built.
    The dual's values are never built, and reading them gives the primal's
    kept columns negated, as a validated instance holds them."""
    instance = leveled_pipeline_instance()
    allocation = solve_leveled_efxwc(instance).allocation
    assert is_fair(instance, allocation, ComparisonCriterion("efx", "goods", True)).fair
    dual = dualize(instance, allocation)
    chores = ComparisonCriterion("efx", "chores", True)
    assert is_fair(dual.instance, dual.allocation, chores).fair
    assert validations == []
    assert model.validate_allocation(instance, allocation) == ()
    d = dual.instance
    assert "values" not in d.__dict__
    negated = tuple(tuple(-row[k] for k in range(3)) for row in instance.values)
    assert d.values == negated == Instance(d.agents, d.types, d.values).values


def _package_files_naming(identifier: str) -> set:
    """The package's files that name `identifier` as an attribute, a name, a
    definition or a string constant."""
    package = os.path.dirname(os.path.abspath(model.__file__))
    users = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            named = {
                getattr(node, field, None)
                for node in ast.walk(tree)
                for field in ("attr", "id", "name", "value")
            }
            if identifier in named:
                users.add(name)
    return users


def test_only_model_builds_an_instance_without_validating_it():
    """`object.__new__` skips `__post_init__`, so only `model` may call it,
    and there only in `Instance._dual`: every instance is validated or is
    the dual of one."""
    assert _package_files_naming("__new__") == {"model.py"}
    with open(model.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    builders = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    }
    assert builders == {"_dual"}


def test_only_duality_calls_the_dual_constructor():
    """Besides `model`, which defines `Instance._dual`, only `duality` names
    it, and every dual is built one way: `duality` never calls the
    validating `Instance(...)`."""
    assert _package_files_naming("_dual") == {"model.py", "duality.py"}
    package = os.path.dirname(os.path.abspath(model.__file__))
    with open(os.path.join(package, "duality.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename="duality.py")
    callees = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "Instance" not in callees
    assert "instance._dual" in callees


def test_only_model_and_duality_name_the_validity_mark():
    """An allocation marked valid skips `require_valid`, so only `model`
    touches the mark, through `require_valid` and `_mark_valid`."""
    assert _package_files_naming("_valid_for") == {"model.py"}


def test_only_duality_and_leveled_call_the_marking_helper():
    """`_mark_valid` trusts its caller, so besides `model`, which defines
    it, only the two constructions that build an allocation valid may name
    it: the dual's complements and the leveled walk's result."""
    assert _package_files_naming("_mark_valid") == {"model.py", "duality.py", "leveled.py"}


def two_type_instance(copies_of_a: int) -> Instance:
    return Instance(
        agents=2,
        types=(ItemType("a", copies_of_a), ItemType("b", 1)),
        values=((Fraction(1), Fraction(2)),) * 2,
    )


def test_an_allocation_valid_for_one_instance_is_refused_on_another():
    single, doubled = two_type_instance(1), two_type_instance(2)
    allocation = Allocation.of(["a"], ["b"])
    require_valid(single, allocation)
    message = "type 'a' held by 1 agents, has 2 copies"
    with pytest.raises(InstanceError, match=message):
        require_valid(doubled, allocation)
    with pytest.raises(InstanceError, match=message):
        is_fair(doubled, allocation, ComparisonCriterion("ef"))
    with pytest.raises(InstanceError, match=message):
        dualize(doubled, allocation)
    require_valid(single, allocation)


def test_an_equal_but_distinct_instance_gets_a_full_check(validations):
    """A caller's allocation is checked on every call. A mark holds only for
    the instance whose construction set it, not for an equal validated copy."""
    first, second = two_type_instance(1), two_type_instance(1)
    assert first == second and first is not second
    allocation = Allocation.of(["a"], ["b"])
    require_valid(first, allocation)
    require_valid(first, allocation)
    assert len(validations) == 2
    require_valid(second, allocation)
    assert len(validations) == 3 and validations[2][0] is second
    dual = dualize(first, allocation)
    assert len(validations) == 4 and validations[3][0] is first
    require_valid(dual.instance, dual.allocation)
    assert len(validations) == 4
    validated = Instance(dual.instance.agents, dual.instance.types, dual.instance.values)
    assert validated == dual.instance
    require_valid(validated, dual.allocation)
    assert len(validations) == 5 and validations[4][0] is validated


def test_the_validity_mark_changes_no_view_of_an_allocation():
    instance = three_agent_instance()
    allocation = Allocation.of(["t1", "t2"], ["t1", "t3", "t4"], ["t2", "t3", "t4"])
    dual = dualize(instance, allocation)
    marked, fresh = dual.allocation, Allocation(dual.allocation.bundles)
    assert "_valid_for" in vars(marked) and "_valid_for" not in vars(fresh)
    assert "_valid_for" not in vars(allocation)
    assert marked == fresh
    assert hash(marked) == hash(fresh)
    assert repr(marked) == repr(fresh)
    assert allocation_to_json(marked, dual.instance) == allocation_to_json(fresh, dual.instance)


def test_anyprice_shares_compile_no_value_row_beyond_the_kernels(monkeypatch):
    """Every agent's anyprice share on an instance and on its dual: the
    primal's n kernel rows, compiled by `dualize`, are the only value rows
    compiled; the dual's kernel is derived from them. The re-check scales
    each price vector with its budget, and `exactlp` scales its own
    constraint rows; neither is a value row."""
    calls = []
    original = model._integer_row

    def counted_in(name):
        def counted(values):
            calls.append((name, list(values)))
            return original(values)

        return counted

    for info in pkgutil.iter_modules(fairdual.__path__):
        module = importlib.import_module(f"fairdual.{info.name}")
        if hasattr(module, "_integer_row"):
            monkeypatch.setattr(module, "_integer_row", counted_in(info.name))
    n = 3
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", (1, 2, 1, 2, n)[k]) for k in range(5)),
        values=tuple(
            tuple(Fraction(10 + (i + k) % 3, 10 + k) for k in range(5)) for i in range(n)
        ),
    )
    dual = dualize(instance).instance
    primal_rows = [("model", list(row)) for row in instance.values]
    assert calls == primal_rows
    for inst, b in ((instance, Fraction(1, n)), (dual, 1 - Fraction(1, n))):
        for agent in range(n):
            aps_share(inst, agent, b)
    assert [call for call in calls if call[0] == "model"] == primal_rows
    for name, (*weights, budget) in calls:
        if name == "shares":
            assert sum(weights) == 1 and budget in (Fraction(1, n), 1 - Fraction(1, n))
        else:
            assert name in ("model", "exactlp")


def test_value_accessors():
    instance = three_agent_instance()
    assert instance.position("t3") == 2
    assert instance.value(0, "t4") == 9
    assert instance.bundle_value(1, bundle("t1", "t2")) == 3
    assert instance.total_value(0) == 2 * (1 + 2 + 3 + 9)
    assert instance.typeset_value(0) == 15
    with pytest.raises(UnknownTypeError):
        instance.position("nope")


def test_an_unhashable_name_is_an_unknown_type():
    instance = three_agent_instance()
    for call in (
        lambda: instance.position(["t1"]),
        lambda: instance.value(0, ["t1"]),
        lambda: instance.bundle_value(0, [["t1"]]),
    ):
        with pytest.raises(UnknownTypeError, match=r"^unknown type \['t1'\]$"):
            call()


def test_validate_allocation_catches_copy_mismatch():
    instance = three_agent_instance()
    good = Allocation.of(["t1", "t2", "t4"], ["t3", "t4"], ["t1", "t2", "t3"])
    assert validate_allocation(instance, good) == ()
    require_valid(instance, good)
    short = Allocation.of(["t1"], ["t1"], [])
    problems = validate_allocation(instance, short)
    assert problems and any("t2" in v for v in problems)
    with pytest.raises(InstanceError) as refused:
        require_valid(instance, short)
    assert str(refused.value) == "; ".join(problems)


def test_a_non_string_name_is_an_unknown_type():
    """Names that do not sort together are listed in repr order, not a TypeError."""
    instance = Instance(
        agents=3,
        types=(ItemType("a", 1), ItemType("b", 2)),
        values=((Fraction(1), Fraction(2)),) * 3,
    )
    allocation = Allocation.of(["a", 1], ["b"], ["b"])
    message = "bundle 0 holds unknown type 1"
    assert validate_allocation(instance, allocation) == (message,)
    mixed = Allocation.of(["a", 1, "z"], ["b"], ["b"])
    assert validate_allocation(instance, mixed) == (
        "bundle 0 holds unknown type 'z'", message,
    )
    criterion = ComparisonCriterion("ef", "goods")
    for call in (
        lambda: require_valid(instance, allocation),
        lambda: is_fair(instance, allocation, criterion),
        lambda: dualize(instance, allocation),
    ):
        with pytest.raises(InstanceError, match=f"^{message}$"):
            call()


def test_validate_allocation_bundle_count():
    instance = three_agent_instance()
    wrong = Allocation.of(["t1", "t2", "t3", "t4"], ["t1", "t2", "t3", "t4"])
    assert "expected 3 bundles, got 2" in validate_allocation(instance, wrong)


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
    # worst good ranks 1, ties by position
    assert require_leveled(instance) == [[1, 3, 4, 2], [1, 2, 3, 4]]
    spiky = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1), ItemType("c", 1)),
        values=((Fraction(10), Fraction(1), Fraction(1)),) * 2,
    )
    with pytest.raises(NotLeveledError) as refused:
        require_leveled(spiky)
    # the two cheapest goods together fall below the single dearest one
    assert (refused.value.agent, refused.value.larger, refused.value.smaller) == (0, 2, 1)


@settings(max_examples=100, deadline=None)
@given(json_instances())
def test_instance_json_round_trip(instance):
    data = json.loads(json.dumps(instance_to_json(instance)))
    assert instance_from_json(data) == instance


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


def test_instance_json_refuses_too_many_cells_before_building_columns():
    """10**9 agents would need over 100 GB; a child capped at 300 MB of address
    space is refused at once. A shared column counts once per agent."""
    limit = 300 * 2**20

    def cap_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "from fairdual.model import InstanceError, instance_from_json\n"
        "try:\n"
        "    instance_from_json({'agents': 10**9, 'types': []})\n"
        "except InstanceError as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", child],
        env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("instance too large: 1000000000 agents")
    shared = [
        {"name": f"t{k}", "copies": 1, "values": {"shared": 1}} for k in range(2)
    ]
    with pytest.raises(InstanceError, match="instance too large"):
        instance_from_json({"agents": MAX_INSTANCE_CELLS // 2 + 1, "types": shared})


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


@settings(max_examples=100, deadline=None)
@given(json_allocations())
def test_allocation_json_round_trip(case):
    """Bundles are written in the instance's type order and read back unchanged."""
    instance, allocation = case
    encoded = json.loads(json.dumps(allocation_to_json(allocation, instance)))
    names = instance.type_names()
    assert encoded["bundles"] == [[x for x in names if x in b] for b in allocation.bundles]
    assert allocation_from_json(encoded) == allocation


def test_allocation_json_rejects_repeats():
    with pytest.raises(InstanceError):
        allocation_from_json({"bundles": [["a", "a"]]})


@settings(max_examples=300, deadline=None)
@given(json_values | corrupted_encodings())
@example({"agents": 1, "types": [{"name": "a", "copies": 1, "values": ["1/0"]}]})
def test_json_decoders_raise_only_fairdual_errors(data):
    """Malformed input, at the top or deep inside, is refused with a FairdualError."""
    for decode in (instance_from_json, allocation_from_json):
        try:
            decode(data)
        except FairdualError:
            pass
