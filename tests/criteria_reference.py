"""Reference pair criteria and leveledness check, independent of the library.

These are straightforward versions of the pair test, its offending item and
the leveledness check: the chores complement negates the agent's whole row,
and leveledness sums both sorted prefixes for every size. Tests compare the
library against them.
"""

from fractions import Fraction

from fairdual.model import InstanceError


def base_eval(base, valuation, inside, outside):
    """Evaluate a goods base criterion on already-prepared bundles."""
    own = sum((valuation[g] for g in inside), Fraction(0))
    other = sum((valuation[g] for g in outside), Fraction(0))
    if base == "ef":
        return own >= other
    if base == "ef1":
        if not outside:
            return True
        return own >= other - max(valuation[g] for g in outside)
    if base == "efx":
        if not outside:
            return True
        return own >= other - min(valuation[g] for g in outside)
    if base == "efl":
        if len(outside) <= 1:
            return True
        return any(
            own >= other - valuation[g] and own >= valuation[g] for g in outside
        )
    raise ValueError(f"unknown base criterion {base!r}")


def criterion_eval(criterion, valuation, bundle_i, bundle_u):
    """Whether the criterion accepts bundle_i against bundle_u."""
    inside = frozenset(bundle_i)
    outside = frozenset(bundle_u)
    if criterion.without_commons:
        inside, outside = inside - outside, outside - inside
    if criterion.orientation == "chores":
        negated = {name: -v for name, v in valuation.items()}
        return base_eval(criterion.base, negated, outside, inside)
    return base_eval(criterion.base, valuation, inside, outside)


def offending_item(criterion, instance, valuation, bundle_i, bundle_u):
    """For a failing EFX pair, the first type whose removal leaves envy."""
    if criterion.base not in ("ef", "efx"):
        return None
    inside = frozenset(bundle_i)
    outside = frozenset(bundle_u)
    if criterion.without_commons:
        inside, outside = inside - outside, outside - inside
    if criterion.orientation == "chores":
        valuation = {name: -v for name, v in valuation.items()}
        inside, outside = outside, inside
    own = sum((valuation[g] for g in inside), Fraction(0))
    other = sum((valuation[g] for g in outside), Fraction(0))
    if criterion.base == "ef":
        return None
    for name in sorted(outside, key=instance.position):
        if own < other - valuation[name]:
            return name
    return None


def witnesses(instance, allocation, criterion):
    """Every failing ordered pair as (envious, envied, item), lexicographic."""
    found = []
    bundles = allocation.bundles
    for i in range(instance.agents):
        valuation = {t.name: instance.values[i][p] for p, t in enumerate(instance.types)}
        for j in range(instance.agents):
            if i != j and not criterion_eval(criterion, valuation, bundles[i], bundles[j]):
                item = offending_item(criterion, instance, valuation, bundles[i], bundles[j])
                found.append((i, j, item))
    return found


def leveled_counterexample(instance, agent):
    """The first (m + 1, m) whose m+1 smallest values do not beat the m largest."""
    row = instance.values[agent]
    for v in row:
        if v < 0:
            raise InstanceError("leveledness is a goods notion")
    ascending = sorted(row)
    descending = sorted(row, reverse=True)
    for m in range(len(row)):
        smallest = sum(ascending[: m + 1], Fraction(0))
        largest = sum(descending[:m], Fraction(0))
        if not smallest > largest:
            return (m + 1, m)
    return None
