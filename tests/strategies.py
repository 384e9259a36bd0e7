"""Hypothesis strategies shared by several test modules.

Small instances and allocations, their JSON encodings, and malformed
variants of those encodings for the decoders and the command line.
"""

from fractions import Fraction

from hypothesis import strategies as st

from fairdual.model import Allocation, Instance, ItemType, allocation_to_json, instance_to_json


@st.composite
def allocated_instances(draw):
    """2-4 agents, 1-6 types with copies 1..n, goods or chores, and a valid allocation."""
    n = draw(st.integers(2, 4))
    copies = draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    sign = draw(st.sampled_from([1, -1]))
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(
            tuple(sign * Fraction(draw(st.integers(0, 4))) for _ in copies)
            for _ in range(n)
        ),
    )
    bundles = [set() for _ in range(n)]
    for t in instance.types:
        for agent in draw(st.permutations(range(n)))[: t.copies]:
            bundles[agent].add(t.name)
    return instance, Allocation.of(*bundles)


@st.composite
def signed_allocations(draw, pure=False):
    """1-4 agents, 0-5 goods or chores with copies 1..n, and a complete allocation.

    Copies reach n, so full-copy types, which the dual drops, turn up. With
    `pure`, every type has the same sign.
    """
    n = draw(st.integers(1, 4))
    copies = draw(st.lists(st.integers(1, n), max_size=5))
    if pure:
        signs = [draw(st.sampled_from((1, -1)))] * len(copies)
    else:
        signs = [draw(st.sampled_from((1, -1))) for _ in copies]
    value = st.builds(Fraction, st.integers(0, 12), st.integers(1, 5))
    instance = Instance(
        agents=n,
        types=tuple(ItemType(f"t{k}", c) for k, c in enumerate(copies)),
        values=tuple(tuple(s * draw(value) for s in signs) for _ in range(n)),
    )
    holders = [draw(st.permutations(range(n)))[:c] for c in copies]
    allocation = Allocation(
        tuple(
            frozenset(f"t{k}" for k, held in enumerate(holders) if i in held)
            for i in range(n)
        )
    )
    return instance, allocation


@st.composite
def json_instances(draw):
    """1-4 agents and 0-5 types in shuffled name order; shared or per-agent
    columns of one sign each, with zeros and fractions."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations("abcde"))[: draw(st.integers(0, 5))]
    columns = []
    for _ in names:
        sign = draw(st.sampled_from((1, -1)))
        values = [
            Fraction(sign * draw(st.integers(0, 12)), draw(st.integers(1, 5)))
            for _ in range(1 if draw(st.booleans()) else n)
        ]
        columns.append((values * n)[:n])
    return Instance(
        agents=n,
        types=tuple(ItemType(name, draw(st.integers(1, n))) for name in names),
        values=tuple(tuple(column[i] for column in columns) for i in range(n)),
    )


@st.composite
def json_allocations(draw):
    """An instance from `json_instances` and a complete allocation of it."""
    instance = draw(json_instances())
    n = instance.agents
    holders = [draw(st.permutations(range(n)))[: t.copies] for t in instance.types]
    allocation = Allocation(
        tuple(
            frozenset(t.name for t, held in zip(instance.types, holders) if i in held)
            for i in range(n)
        )
    )
    return instance, allocation


json_scalars = (
    st.sampled_from([None, True, False, "a", "b", "3/2", "-1", "2.5", "1/0"])
    | st.integers(-2, 5)
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def json_paths(node, path=()):
    """The key path of every value in a JSON tree, the root's included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, path + (key,))


@st.composite
def corrupted(draw, encodings):
    """A document drawn from `encodings` with one value, at any depth,
    replaced by an arbitrary JSON value."""
    root = [draw(encodings)]
    path = (0, *draw(st.sampled_from(list(json_paths(root[0])))))
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_scalars | json_values)
    return root[0]


def corrupted_encodings():
    """A valid instance or allocation encoding with one value replaced."""
    return corrupted(
        json_instances().map(instance_to_json)
        | json_allocations().map(lambda case: allocation_to_json(case[1], case[0]))
    )
