import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from kernel_views import walk_bundles
from plan_reference import plan_bundles

from fairdual import search
from fairdual.criteria import (
    BASES,
    ComparisonCriterion,
    OrientationError,
    _bundles,
    criterion_eval,
    is_fair,
)
from fairdual.duality import dualize
from fairdual.fixtures import load_fixture
from fairdual.model import (
    Allocation,
    BudgetExceededError,
    Instance,
    ItemType,
    bundle,
    instance_to_json,
)
from fairdual.randgen import random_instance
from fairdual.search import (
    allocation_at,
    check_chores_characterization,
    count_fair,
    exists_fair,
    max_nash_welfare,
    plan_total,
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


def test_plan_total_four_doubled_types():
    assert plan_total(section_instance()) == 81


def test_plan_total_single_type():
    for n in (2, 3, 5):
        instance = Instance(
            agents=n,
            types=(ItemType("a", 1),),
            values=tuple((Fraction(1),) for _ in range(n)),
        )
        assert plan_total(instance) == n
        assert len(walk_bundles(instance)) == n


def test_stream_is_complete_and_duplicate_free():
    instance = section_instance()
    seen = walk_bundles(instance)
    assert len(seen) == 81
    assert len(set(seen)) == 81


def test_stream_order_matches_allocation_at():
    instance = section_instance()
    for index, bundles in enumerate(walk_bundles(instance)):
        assert allocation_at(instance, index).bundles == bundles
    for index in (81, -1, 1.5, True):
        with pytest.raises(IndexError, match=f"index {index!r} outside plan of size 81"):
            allocation_at(instance, index)


def test_stream_starts_with_lowest_agent_subsets():
    instance = section_instance()
    first = allocation_at(instance, 0)
    everything = bundle("t1", "t2", "t3", "t4")
    assert first.bundles == (everything, everything, frozenset())


def test_dual_stream_is_image_of_primal_stream():
    """Dualizing each allocation yields exactly the dual instance's stream."""
    rng = random.Random(5)
    for _ in range(40):
        instance = random_instance(rng, max_agents=3, max_types=3)
        dual_instance = dualize(instance).instance
        mapped = {
            dualize(instance, Allocation(bundles)).allocation.bundles
            for bundles in walk_bundles(instance)
        }
        direct = set(walk_bundles(dual_instance))
        assert mapped == direct
        assert len(mapped) == plan_total(instance)


def test_exists_refutation_sweeps_whole_plan():
    instance = section_instance()
    for base in ("efx", "efl"):
        certificate = exists_fair(instance, ComparisonCriterion(base, "goods"))
        assert not certificate.exists
        assert certificate.checked == 81
        assert certificate.plan_total == 81
        assert certificate.witness is None


def test_exists_witness_is_plan_first():
    instance = section_instance()
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    certificate = exists_fair(instance, criterion)
    assert certificate.exists
    assert allocation_at(instance, certificate.checked - 1) == certificate.witness
    assert is_fair(instance, certificate.witness, criterion).fair
    for index in range(certificate.checked - 1):
        earlier = allocation_at(instance, index)
        assert not is_fair(instance, earlier, criterion).fair


def test_exists_budget_semantics():
    instance = section_instance()
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)
    witness_index = exists_fair(instance, criterion).checked - 1
    # a budget that reaches the witness succeeds
    assert exists_fair(instance, criterion, budget=witness_index + 1).exists
    # one that stops short cannot certify either way
    with pytest.raises(BudgetExceededError):
        exists_fair(instance, criterion, budget=witness_index)
    with pytest.raises(BudgetExceededError):
        exists_fair(instance, ComparisonCriterion("efx", "goods"), budget=80)
    with pytest.raises(BudgetExceededError, match="no fair allocation within budget 0"):
        exists_fair(instance, criterion, budget=0)


def single_copy_pair(row):
    """Two agents with the same row over single-copy types: plan 2**len(row)."""
    return Instance(
        agents=2,
        types=tuple(ItemType(f"g{k}", 1) for k in range(len(row))),
        values=(tuple(map(Fraction, row)),) * 2,
    )


def test_whole_plan_consumers_refuse_before_walking(monkeypatch):
    """Neither the walk nor the Nash welfare program, which enumerates
    holder sets first, starts on a plan larger than the budget."""
    instance = section_instance()
    criterion = ComparisonCriterion("efx", "goods", without_commons=True)

    def no_walk(*args):
        raise AssertionError("walked a plan larger than the budget")

    def no_holder_sets(*args):
        raise AssertionError("holder sets enumerated before the budget check")

    monkeypatch.setattr(search, "_walk", no_walk)
    monkeypatch.setattr(search, "combinations", no_holder_sets)
    message = (
        r"enumeration budget 80 exhausted with allocations remaining \(plan size 81\)"
    )
    with pytest.raises(BudgetExceededError, match=message):
        count_fair(instance, criterion, budget=80)
    with pytest.raises(BudgetExceededError, match=message):
        max_nash_welfare(instance, budget=80)
    monkeypatch.undo()
    assert count_fair(instance, criterion, budget=81) == count_fair(instance, criterion)
    assert max_nash_welfare(instance, budget=81) == max_nash_welfare(instance)


@st.composite
def small_goods_instances(draw):
    """1-4 agents, 0-6 types, copies 1..n, small goods values."""
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(Fraction(draw(st.integers(0, 6))) for _ in copies) for _ in range(n)
        ),
    )
    assume(plan_total(instance) <= 3000)
    return instance


@settings(max_examples=150, deadline=None)
@given(small_goods_instances(), st.data())
def test_walk_matches_the_reference_plan(instance, data):
    reference = list(plan_bundles(instance))
    total = plan_total(instance)
    assert len(reference) == total
    assert walk_bundles(instance) == reference
    for index in {0, total - 1, data.draw(st.integers(0, total - 1))}:
        assert allocation_at(instance, index).bundles == reference[index]
    with pytest.raises(IndexError):
        allocation_at(instance, total)
    criterion = ComparisonCriterion(
        data.draw(st.sampled_from(BASES)), "goods", data.draw(st.booleans())
    )
    first = next(
        (
            index
            for index, bundles in enumerate(reference)
            if is_fair(instance, Allocation(bundles), criterion).fair
        ),
        None,
    )
    certificate = exists_fair(instance, criterion)
    if first is None:
        assert not certificate.exists and certificate.checked == total
    else:
        assert certificate.checked == first + 1
        assert certificate.witness.bundles == reference[first]


def subtree_size(instance, depth):
    """Allocations sharing one holder choice for types 0..depth."""
    n = instance.agents
    return math.prod(math.comb(n, t.copies) for t in instance.types[depth + 1:])


@settings(max_examples=150, deadline=None)
@given(small_goods_instances(), st.data())
def test_walk_send_skips_to_the_next_prefix(instance, data):
    """send(d) lands on the plan's next holder choice for types 0..d."""
    reference = list(plan_bundles(instance))
    total = len(reference)
    index = data.draw(st.integers(0, total - 1))
    depth = data.draw(st.integers(-1, len(instance.types) - 1))
    size = subtree_size(instance, depth)
    landing = (index // size + 1) * size
    scales = instance.kernel.scales
    walk = search._walk(instance)
    for _ in range(index + 1):
        next(walk)
    if landing >= total:
        with pytest.raises(StopIteration):
            walk.send(depth)
        return
    seen = []
    step = walk.send(depth)
    while step is not None:
        masks, own = step
        bundles = _bundles(instance, masks)
        seen.append(bundles)
        assert own == [instance.bundle_value(a, b) * scales[a] for a, b in enumerate(bundles)]
        step = next(walk, None)
    assert seen == reference[landing:]


@st.composite
def skip_instances(draw):
    """2-4 agents, 0-8 types (full-copy ones too), zeros, goods or chores; plan <= 2000."""
    n = draw(st.integers(2, 4))
    copies = [draw(st.integers(1, n)) for _ in range(draw(st.integers(0, 8)))]
    while math.prod(math.comb(n, c) for c in copies) > 2000:
        copies.pop()
    sign = draw(st.sampled_from([1, -1]))
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(Fraction(sign * draw(st.integers(0, 4))) for _ in copies) for _ in range(n)
        ),
    )


@settings(max_examples=120, deadline=None)
@given(skip_instances(), st.data())
def test_skipping_keeps_every_answer_of_the_full_sweep(instance, data):
    """Certificates and counts match a sweep that examines every allocation."""
    orientation = instance.orientation()
    criterion = ComparisonCriterion(
        data.draw(st.sampled_from(BASES)), orientation, data.draw(st.booleans())
    )
    plan = [Allocation(bundles) for bundles in plan_bundles(instance)]
    fair = [is_fair(instance, allocation, criterion).fair for allocation in plan]
    total = len(plan)
    first = fair.index(True) if any(fair) else None
    certificate = exists_fair(instance, criterion)
    assert certificate.checked == (total if first is None else first + 1)
    assert certificate.witness == (None if first is None else plan[first])
    assert count_fair(instance, criterion) == (sum(fair), certificate.witness)


@settings(max_examples=120, deadline=None)
@given(skip_instances(), st.data())
def test_no_refutation_covers_the_whole_plan(instance, data):
    """A failing pair passes its fully favourable completion, so every
    refutation climbs to a type's depth, never past the root."""
    criterion = ComparisonCriterion(
        data.draw(st.sampled_from(BASES)), instance.orientation(), data.draw(st.booleans())
    )
    depths = []
    refuted_depth = search._refuted_depth

    def recording(*args):
        depths.append(refuted_depth(*args))
        return depths[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_refuted_depth", recording)
        exists_fair(instance, criterion)
        count_fair(instance, criterion)
    assert all(depth >= 0 for depth in depths)


def test_a_failing_pair_skips_its_subtree(monkeypatch):
    """Whoever holds g0 is envied whatever else happens, so the first
    allocation of each half of the plan refutes that whole half."""
    instance = single_copy_pair([100] + [1] * 10)
    criterion = ComparisonCriterion("ef", "goods")
    calls = []
    original = search.criterion_eval

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search, "criterion_eval", counting)
    certificate = exists_fair(instance, criterion)
    assert not certificate.exists and certificate.checked == plan_total(instance) == 2048
    assert 0 < len(calls) < 2048
    calls.clear()
    assert count_fair(instance, criterion) == (0, None)
    assert 0 < len(calls) < 2048


def double_loop_first_unfair_pair(rows, criterion, masks):
    """The first failing ordered pair by a plain double loop, or None."""
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j and not criterion_eval(criterion, rows[i], masks[i], masks[j]):
                return i, j
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_all_pairs_scan_finds_the_double_loops_first_pair(data):
    """With `_all_pairs(n)`, the scan returns the first failing pair in
    lexicographic order, whatever the rows, masks and criterion."""
    n, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    base, without_commons = data.draw(st.sampled_from(BASES)), data.draw(st.booleans())
    criterion = ComparisonCriterion(base, "goods", without_commons)
    row = st.lists(st.integers(0, 9), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    masks = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=n, max_size=n))
    pairs = search._all_pairs(n)
    assert len(pairs) == n * (n - 1) and list(pairs) == sorted(pairs)
    expected = double_loop_first_unfair_pair(rows, criterion, masks)
    assert search._first_unfair_pair(rows, criterion, masks, pairs) == expected


def l20_instance():
    return load_fixture("eflwc-third-mms-l20").instance


def test_l20_walk_is_lazy():
    instance = l20_instance()
    assert plan_total(instance) > 10**11
    first = allocation_at(instance, 0)
    assert len(first.bundles) == instance.agents
    assert len(list(islice(search._walk(instance), 10))) == 10


def test_l20_exists_stays_within_600_mb(tmp_path):
    """The budget message, not a MemoryError, under a 600 MB address-space cap."""
    path = tmp_path / "l20.json"
    path.write_text(json.dumps(instance_to_json(l20_instance())))
    limit = 600 * 2**20

    def cap_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(search.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "fairdual.cli", "exists", "--instance", str(path),
         "--notion", "efx_wc", "--budget", "10"],
        env=env,
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 2
    assert "no fair allocation within budget 10" in run.stderr
    assert "MemoryError" not in run.stderr


def test_exists_checks_orientation():
    instance = section_instance()
    with pytest.raises(OrientationError):
        exists_fair(instance, ComparisonCriterion("efx", "chores"))


def test_count_fair_matches_stream_filter():
    rng = random.Random(13)
    for _ in range(25):
        instance = random_instance(rng, max_agents=3, max_types=3,
                                   orientation="goods")
        criterion = ComparisonCriterion("ef1", "goods")
        count, witness = count_fair(instance, criterion)
        manual = [
            allocation
            for allocation in map(Allocation, plan_bundles(instance))
            if is_fair(instance, allocation, criterion).fair
        ]
        assert count == len(manual)
        assert witness == (manual[0] if manual else None)


def test_count_fair_on_refuted_notion():
    instance = section_instance()
    count, witness = count_fair(instance, ComparisonCriterion("efx", "goods"))
    assert count == 0 and witness is None


@st.composite
def single_copy_chores(draw):
    """2-4 agents and single-copy chores (zeros too); plan n**types <= 5000."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 12))
    while n**count > 5000:
        count -= 1
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", 1) for k in range(count)),
        values=tuple(
            tuple(Fraction(-draw(st.integers(0, 9))) for _ in range(count)) for _ in range(n)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(single_copy_chores())
def test_chores_characterization_sweep(instance):
    assert check_chores_characterization(instance)


def test_chores_characterization_input_checks():
    goods = section_instance()
    with pytest.raises(OrientationError):
        check_chores_characterization(goods)
    multi_copy = Instance(
        agents=2,
        types=(ItemType("a", 2),),
        values=((Fraction(-1),), (Fraction(-1),)),
    )
    with pytest.raises(ValueError):
        check_chores_characterization(multi_copy)


def test_max_nash_welfare_single_agent():
    instance = Instance(
        agents=1,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(2), Fraction(3)),),
    )
    allocation, welfare = max_nash_welfare(instance)
    assert allocation.bundles == (bundle("a", "b"),)
    assert welfare == 5


def test_max_nash_welfare_prefers_balanced_split():
    instance = Instance(
        agents=2,
        types=(ItemType("a", 1), ItemType("b", 1)),
        values=((Fraction(3), Fraction(3)), (Fraction(3), Fraction(3))),
    )
    allocation, welfare = max_nash_welfare(instance)
    assert welfare == 9
    assert {len(b) for b in allocation.bundles} == {1}


@st.composite
def nash_instances(draw):
    """1-4 agents, 0-6 goods (full-copy ones too) with zeros and ties; values
    over denominators 1..7, so row scales differ; plan <= 3000."""
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=6))
    while math.prod(math.comb(n, c) for c in copies) > 3000:
        copies.pop()
    return Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(
                Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 7))) for _ in copies
            )
            for _ in range(n)
        ),
    )


def reference_max_nash_welfare(instance):
    """(plan index, welfare) of the first maximizer, by Fraction products over the plan."""
    best, best_welfare = None, Fraction(-1)
    for index, bundles in enumerate(plan_bundles(instance)):
        welfare = math.prod(
            (instance.bundle_value(a, b) for a, b in enumerate(bundles)), start=Fraction(1)
        )
        if welfare > best_welfare:
            best, best_welfare = index, welfare
    return best, best_welfare


@settings(max_examples=200, deadline=None)
@given(nash_instances())
@example(Instance(agents=3, types=(), values=((),) * 3))
@example(
    Instance(
        agents=3,
        types=(ItemType("a", 1), ItemType("b", 3), ItemType("c", 2)),
        values=((Fraction(0),) * 3,) * 3,
    )
)
def test_max_nash_welfare_matches_the_fraction_reference(instance):
    """The first maximizer in plan order and its welfare; where every
    product is zero, plan position 0 wins."""
    index, welfare = reference_max_nash_welfare(instance)
    if welfare == 0:
        assert index == 0
    assert max_nash_welfare(instance) == (allocation_at(instance, index), welfare)


def test_max_nash_welfare_rejects_chores():
    chores = Instance(
        agents=2,
        types=(ItemType("a", 1),),
        values=((Fraction(-1),), (Fraction(-1),)),
    )
    with pytest.raises(OrientationError):
        max_nash_welfare(chores)
