"""The anyprice threshold search as it stood before its single bisection.

It probes the top threshold first and bisects below it only when that
probe is excludable, and it solves chores with their own exclusion LP
(subset-maximal frontier, rows p(m) + sigma <= 1 + b, and the rule that a
bundle is forceable iff it weighs at least b) rather than through the
duality step `aps_share` takes. `_excludable` and `_best_within_budget`
are frozen here as they were, so this module stays an independent
two-orientation reference: `aps_share` must match its value, its goods
certificate prices, and on chores its prices must pass the frozen chores
rule (`reference_price_value`).
"""

from fractions import Fraction

from fairdual.exactlp import maximize
from fairdual.shares import PriceVector, ShareValue, _subset_sums, forced_types


def _excludable(values, f, threshold, b, orientation):
    """Can prices make every bundle worth at least `threshold` miss the budget?

    Returns the slack-maximizing LP outcome: (excludable, prices or None).
    Goods: qualifying bundles must cost strictly more than b, so only
    subset-minimal qualifying bundles constrain. Chores: strictly less,
    so subset-maximal ones do.
    """
    qualifying = [m for m in range(1 << f) if values[m] >= threshold]
    marks = set(qualifying)
    frontier = []
    for m in qualifying:
        if orientation == "goods":
            boundary = all(
                (m ^ (1 << i)) not in marks for i in range(f) if m & (1 << i)
            )
        else:
            boundary = all(
                (m | (1 << i)) not in marks for i in range(f) if not m & (1 << i)
            )
        if boundary:
            frontier.append(m)
    # Maximize sigma = s + 1, where s is the least slack of a frontier
    # bundle under prices p on the simplex. Every p gives s >= -b (goods)
    # or s >= b - 1 (chores), so requiring sigma >= 0 loses no optimum, and
    # every inequality keeps a nonnegative right-hand side; only sum(p) = 1
    # needs an artificial. Excludable iff sigma > 1.
    #   goods   sigma - p(m) <= 1 - b      chores   p(m) + sigma <= 1 + b.
    objective = [0] * f + [1]
    eq = [([1] * f + [0], 1)]
    leq = []
    sign = -1 if orientation == "goods" else 1
    rhs = 1 - b if orientation == "goods" else 1 + b
    for m in frontier:
        member = [sign if m >> i & 1 else 0 for i in range(f)]
        leq.append((member + [1], rhs))
    result = maximize(objective, leq=leq, eq=eq)
    if result.optimum > 1:
        return True, result.solution[:f]
    return False, None


def _best_within_budget(values, weights, b, orientation):
    """Best affordable (goods) or forceable (chores) free-bundle value at these prices."""
    best = None
    for value, w in zip(values, _subset_sums(weights)):
        feasible = w <= b if orientation == "goods" else w >= b
        if feasible and (best is None or value > best):
            best = value
    return best


def _free_part(instance, agent):
    """(forced-type value, free positions, subset sums of the free row)."""
    forced = forced_types(instance)
    base = instance.bundle_value(agent, forced)
    free_positions = [
        pos for pos, t in enumerate(instance.types) if t.name not in forced
    ]
    row = instance.values[agent]
    return base, free_positions, _subset_sums([row[p] for p in free_positions])


def reference_price_value(instance, agent, vector):
    """The share these prices certify under the frozen rule.

    The best affordable (goods) or forceable (chores) free bundle at the
    vector's entitlement, plus the forced types.
    """
    base, free_positions, values = _free_part(instance, agent)
    if not free_positions:
        return base
    weights = [w for _, w in vector.prices]
    orientation = instance.orientation()
    return base + _best_within_budget(values, weights, vector.entitlement, orientation)


def reference_aps_share(instance, agent, entitlement=None):
    orientation = instance.orientation()
    b = Fraction(1, instance.agents) if entitlement is None else Fraction(entitlement)
    base, free_positions, values = _free_part(instance, agent)
    f = len(free_positions)
    if f == 0:
        return ShareValue(value=base, certificate=PriceVector((), b))
    thresholds = sorted(set(values))
    lo, hi = 0, len(thresholds) - 1
    prices_at_cut = None
    excl_hi, prices_hi = _excludable(values, f, thresholds[hi], b, orientation)
    if not excl_hi:
        lo = hi
    else:
        prices_at_cut = prices_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            excl, prices = _excludable(values, f, thresholds[mid], b, orientation)
            if excl:
                hi, prices_at_cut = mid, prices
            else:
                lo = mid
    free_value = thresholds[lo]
    names = [instance.types[p].name for p in free_positions]
    if prices_at_cut is None:
        weights = [Fraction(1, f)] * f
    else:
        weights = list(prices_at_cut)
    vector = PriceVector(tuple(zip(names, weights)), b)
    assert _best_within_budget(values, weights, b, orientation) == free_value
    return ShareValue(value=base + free_value, certificate=vector)
