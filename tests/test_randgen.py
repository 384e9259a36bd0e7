import random

from fairdual.model import validate_allocation
from fairdual.randgen import (
    random_allocation,
    random_instance,
    random_leveled_instance,
)


def test_instances_are_reproducible():
    first = [random_instance(random.Random(99)) for _ in range(10)]
    second = [random_instance(random.Random(99)) for _ in range(10)]
    assert first == second


def test_instance_bounds_respected():
    rng = random.Random(1)
    for _ in range(200):
        instance = random_instance(rng, max_agents=4, max_types=5)
        assert 2 <= instance.agents <= 4
        assert 1 <= len(instance.types) <= 5
        assert all(1 <= t.copies <= instance.agents for t in instance.types)


def test_orientation_flags():
    rng = random.Random(2)
    for _ in range(50):
        goods = random_instance(rng, orientation="goods")
        assert goods.goods_pure
        chores = random_instance(rng, orientation="chores")
        assert chores.chores_pure


def test_random_allocations_are_valid():
    rng = random.Random(3)
    for _ in range(100):
        instance = random_instance(rng)
        allocation = random_allocation(rng, instance)
        assert validate_allocation(instance, allocation) == ()


def test_leveled_generator_values_stay_tight():
    rng = random.Random(4)
    for _ in range(100):
        instance = random_leveled_instance(rng)
        spread = 1 + len(instance.types)
        for row in instance.values:
            assert all(1 <= v < 2 for v in row)
            assert max(row) * len(instance.types) < min(row) * spread
