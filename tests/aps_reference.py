"""The anyprice threshold search as it stood before its single bisection.

It probes the top threshold first and bisects below it only when that
probe is excludable. Kept as the reference the current `aps_share` must
match: the same value and the same certificate prices.
"""

from fractions import Fraction

from fairdual.shares import (
    PriceVector,
    ShareValue,
    _best_within_budget,
    _excludable,
    _subset_sums,
    forced_types,
)


def reference_aps_share(instance, agent, entitlement=None):
    orientation = instance.orientation()
    b = Fraction(1, instance.agents) if entitlement is None else Fraction(entitlement)
    forced = forced_types(instance)
    base = instance.bundle_value(agent, forced)
    free_positions = [
        pos for pos, t in enumerate(instance.types) if t.name not in forced
    ]
    f = len(free_positions)
    if f == 0:
        return ShareValue(value=base, certificate=PriceVector((), b))
    row = instance.values[agent]
    values = _subset_sums([row[p] for p in free_positions])
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
