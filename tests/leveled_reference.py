"""Reference leveled swap walk, independent of the library.

This is the walk the library once ran: after every swap it looks for the
first envious pair from (0, 1) again, testing every pair, on Fraction values
and bundles of type names. Tests compare the library's walk, which tests
only pairs from a smaller bundle to a larger one, against it: the
allocation, the trace and every potential must be the same.
"""


def _round_robin(instance):
    bundles = [set() for _ in range(instance.agents)]
    pointer = 0
    for t in instance.types:
        for step in range(t.copies):
            bundles[(pointer + step) % instance.agents].add(t.name)
        pointer = (pointer + t.copies) % instance.agents
    return bundles


def _efx_wc_fails(row, position, mine, theirs):
    """Goods EFX without commons: i envies j's exclusive types past their least one."""
    own, other = mine - theirs, theirs - mine
    if not other:
        return False
    values = [row[position[name]] for name in other]
    return sum(row[position[name]] for name in own) < sum(values) - min(values)


def _potential(instance, bundles):
    position = {t.name: p for p, t in enumerate(instance.types)}
    low = min(len(b) for b in bundles)
    total = 0
    for i, b in enumerate(bundles):
        if len(b) == low:
            row = instance.values[i]
            order = sorted(range(len(row)), key=lambda p: (row[p], p))
            total += sum(order.index(position[name]) + 1 for name in b)
    return total


def reference_walk(instance):
    """(initial bundles, initial potential, trace, final bundles) of the restarting walk.

    Each trace entry is (envious, envied, gained, lost, potential).
    """
    position = {t.name: p for p, t in enumerate(instance.types)}
    bundles = _round_robin(instance)
    initial = [frozenset(b) for b in bundles]
    trace = []
    while True:
        pair = next(
            (
                (i, j)
                for i in range(instance.agents)
                for j in range(instance.agents)
                if i != j
                and _efx_wc_fails(instance.values[i], position, bundles[i], bundles[j])
            ),
            None,
        )
        if pair is None:
            break
        i, j = pair
        row = instance.values[i]
        gained = max(bundles[j] - bundles[i], key=lambda g: (row[position[g]], -position[g]))
        lost = min(bundles[i] - bundles[j], key=lambda g: (row[position[g]], position[g]))
        bundles[i] = bundles[i] - {lost} | {gained}
        bundles[j] = bundles[j] - {gained} | {lost}
        trace.append((i, j, gained, lost, _potential(instance, bundles)))
    return initial, _potential(instance, initial), trace, [frozenset(b) for b in bundles]
