"""Share-based fairness: proportional, maximin, truncated proportional, anyprice.

All four shares are per-agent numbers an allocation can be measured
against. PROP is linear, MMS is an exact max-min over complete exclusive
allocations taken up to bundle permutation, TPS truncates large items
before averaging, and the anyprice share is the value an agent can
guarantee by buying a bundle within an entitlement budget at adversarial
prices.

Anyprice prices live on the simplex over free types: types held by every
agent are forced into each bundle, contribute their value as a constant,
and carry no price. A price vector lists one weight per free type, summing
to one. Each exclusion probe of the anyprice search is one exact linear
program over goods, solved by `exactlp.maximize`; a chores share is the
dual goods problem at entitlement 1 - b, certified by the same prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .duality import dualize
from .exactlp import maximize
from .model import (
    Allocation,
    BudgetExceededError,
    CertificateError,
    Instance,
    InstanceError,
    OrientationError,
    _integer_row,
    require_valid,
)
from .search import DEFAULT_ENUM_CAP, plan_total

SHARE_KINDS = ("prop", "mms", "tps", "aps")

# Free-type subsets are enumerated explicitly, so cap their count.
MAX_FREE_TYPES = 20


@dataclass(frozen=True)
class ShareSpec:
    """Which share to compute for which agent."""

    kind: str
    agent: int
    entitlement: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in SHARE_KINDS:
            raise ValueError(f"unknown share kind {self.kind!r}")
        if self.entitlement is not None and not 0 < self.entitlement < 1:
            raise ValueError("entitlement must lie strictly between 0 and 1")
        if self.entitlement is not None and self.kind != "aps":
            raise ValueError("entitlement applies to the anyprice share only")


@dataclass(frozen=True)
class ShareValue:
    """A share with whatever certifies it.

    The certificate is an Allocation for mms, a PriceVector for aps, the
    number of truncated copies for the goods tps, and None otherwise.
    """

    value: Fraction
    certificate: object = None


@dataclass(frozen=True)
class PriceVector:
    """Adversarial prices over the free types, summing to one."""

    prices: tuple  # (type name, weight) pairs
    entitlement: Fraction

    def __post_init__(self):
        total = sum(w for _, w in self.prices)
        if self.prices and total != 1:
            raise ValueError(f"prices sum to {total}, not 1")
        if any(w < 0 for _, w in self.prices):
            raise ValueError("negative price")

    def weight(self, bundle) -> Fraction:
        return sum((w for t, w in self.prices if t in bundle), Fraction(0))


def prop_share(instance: Instance, agent: int) -> Fraction:
    return instance.total_value(agent) / instance.agents


def mms_share(
    instance: Instance, agent: int, budget: Optional[int] = None
) -> ShareValue:
    """Exact maximin share by a dynamic program over bundle totals.

    Allocations that permute bundles are equivalent, so a state is the
    non-increasing tuple of bundle totals (the agent's row scaled to
    integers), grown type by type. No layer outgrows its prefix plan, so a
    plan over the budget raises BudgetExceededError before any work; large
    instances go through verify_mms_lower_bound with a witness instead. The
    maximizing allocation is re-verified; a mismatch is a CertificateError.
    """
    cap = DEFAULT_ENUM_CAP if budget is None else budget
    total = plan_total(instance)
    if total > cap:
        raise BudgetExceededError(
            f"maximin enumeration needs {total} allocations, budget {cap}; "
            "supply a witness to verify_mms_lower_bound instead"
        )
    n = instance.agents
    ints, scale = _integer_row(instance.values[agent])
    # layers[k] maps each state after k types to its (parent, holders).
    layers = [{(0,) * n: None}]
    for t, v in zip(instance.types, ints):
        grown = {}
        for state in layers[-1]:
            for holders in combinations(range(n), t.copies):
                totals = list(state)
                for a in holders:
                    totals[a] += v
                key = tuple(sorted(totals, reverse=True))
                if key not in grown:
                    grown[key] = (state, holders)
        layers.append(grown)
    state = max(layers[-1], key=lambda s: s[-1])
    value = Fraction(state[-1], scale)
    path = []
    for layer in reversed(layers[1:]):
        state, holders = layer[state]
        path.append(holders)
    # Replay forward, keeping each (total, bundle) at its state position.
    bundles = [(0, frozenset())] * n
    for t, v, holders in zip(instance.types, ints, reversed(path)):
        for a in holders:
            total, names = bundles[a]
            bundles[a] = (total + v, names | {t.name})
        bundles.sort(key=lambda b: -b[0])
    allocation = Allocation(tuple(names for _, names in bundles))
    worst = verify_mms_lower_bound(instance, agent, allocation)
    if worst != value:
        raise CertificateError(f"maximin certificate re-verifies to {worst}, not {value}")
    return ShareValue(value=value, certificate=allocation)


def verify_mms_lower_bound(
    instance: Instance, agent: int, witness: Allocation
) -> Fraction:
    """Certified maximin lower bound: the witness's minimum bundle value."""
    require_valid(instance, witness)
    return min(instance.bundle_value(agent, b) for b in witness.bundles)


@dataclass(frozen=True)
class AlphaMMSReport:
    """Per-agent comparison of own-bundle value against alpha * maximin."""

    fair: bool
    alpha: Fraction
    shares: tuple
    ratios: tuple  # value/share per agent, None where the share is zero
    failing: tuple


def check_alpha_mms(
    instance: Instance,
    allocation: Allocation,
    alpha: Fraction,
    mms_values: Optional[Sequence] = None,
    budget: Optional[int] = None,
) -> AlphaMMSReport:
    """Does every agent get at least alpha times their maximin share?

    Pass mms_values (one per agent) to skip the maximin computation,
    e.g. on fixtures whose shares are certified by witness partitions.
    """
    require_valid(instance, allocation)
    if mms_values is None:
        shares = tuple(
            mms_share(instance, i, budget=budget).value for i in range(instance.agents)
        )
    else:
        shares = tuple(Fraction(v) for v in mms_values)
        if len(shares) != instance.agents:
            raise ValueError("one maximin value per agent required")
    ratios = []
    failing = []
    for i in range(instance.agents):
        own = instance.bundle_value(i, allocation.bundles[i])
        ratios.append(own / shares[i] if shares[i] != 0 else None)
        if own < alpha * shares[i]:
            failing.append(i)
    return AlphaMMSReport(
        fair=not failing,
        alpha=Fraction(alpha),
        shares=shares,
        ratios=tuple(ratios),
        failing=tuple(failing),
    )


def tps_share(instance: Instance, agent: int) -> ShareValue:
    """Truncated proportional share.

    Goods: the largest z with (1/n) * sum over copies of min(value, z)
    equal to z, found by scanning how many copies get truncated. Chores:
    min of the proportional share and the single worst chore.
    """
    orientation = instance.orientation()
    if orientation is None:
        raise OrientationError("truncated proportional share needs a sign-pure instance")
    row = instance.values[agent]
    if orientation == "chores":
        worst = min(row) if row else Fraction(0)
        return ShareValue(value=min(prop_share(instance, agent), worst))
    per_copy = sorted(
        (row[pos] for pos, t in enumerate(instance.types) for _ in range(t.copies)),
        reverse=True,
    )
    n = instance.agents
    total = sum(per_copy, Fraction(0))
    best: Optional[Fraction] = None
    best_truncated = None
    prefix = Fraction(0)
    for j in range(min(len(per_copy), n - 1) + 1):
        z = (total - prefix) / (n - j)
        if (j == 0 or per_copy[j - 1] >= z) and (j == len(per_copy) or z >= per_copy[j]):
            if best is None or z > best:
                best, best_truncated = z, j
        if j < len(per_copy):
            prefix += per_copy[j]
    assert best is not None
    return ShareValue(value=best, certificate=best_truncated)


def forced_types(instance: Instance) -> frozenset:
    """Types every agent holds in every complete allocation."""
    return frozenset(t.name for t in instance.types if t.copies == instance.agents)


def _subset_sums(items):
    """Sum of every subset of the items, indexed by bitmask."""
    sums = [Fraction(0)] * (1 << len(items))
    for mask in range(1, len(sums)):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask ^ (1 << low)] + items[low]
    return sums


def _excludable(values, f, threshold, b):
    """Can prices make every bundle worth at least `threshold` cost more than b?

    Returns the slack-maximizing LP outcome: (excludable, prices or None).
    Only subset-minimal qualifying bundles constrain. Chores reach this
    goods form through `aps_share`'s duality step.
    """
    qualifying = [m for m in range(1 << f) if values[m] >= threshold]
    marks = set(qualifying)
    frontier = [
        m
        for m in qualifying
        if all((m ^ (1 << i)) not in marks for i in range(f) if m & (1 << i))
    ]
    # Maximize sigma = s + 1, where s is the least slack p(m) - b of a
    # frontier bundle under prices p on the simplex. Every p gives s >= -b,
    # so requiring sigma >= 0 loses no optimum, and every inequality keeps a
    # nonnegative right-hand side; only sum(p) = 1 needs an artificial.
    # Excludable iff sigma > 1. Row per frontier bundle: sigma - p(m) <= 1 - b.
    objective = [0] * f + [1]
    eq = [([1] * f + [0], 1)]
    rhs = 1 - b
    leq = [([-1 if m >> i & 1 else 0 for i in range(f)] + [1], rhs) for m in frontier]
    result = maximize(objective, leq=leq, eq=eq)
    if result.optimum > 1:
        return True, result.solution[:f]
    return False, None


def _best_within_budget(values, weights, b):
    """Best free-bundle value affordable at these prices within budget b."""
    best = None
    for value, w in zip(values, _subset_sums(weights)):
        if w <= b and (best is None or value > best):
            best = value
    return best


def aps_share(
    instance: Instance, agent: int, entitlement: Optional[Fraction] = None
) -> ShareValue:
    """Anyprice share at the given entitlement (default 1/n).

    Goods: the best bundle value the agent can afford no matter how the
    adversary prices the free types, i.e. the largest bundle-value
    threshold the adversary cannot exclude, found by binary search with an
    exact slack-maximizing feasibility program per probe. Chores: the least
    bad bundle the agent can be forced into among those weighing at least
    b; by the duality theorem that is v(free) plus the goods share of the
    negated row at budget 1 - b, since p(m) >= b iff p(free - m) <= 1 - b.
    The same prices certify the chores share at entitlement b.

    The certificate prices witness the value from above: under them no
    strictly better bundle fits the budget. They are re-verified by direct
    enumeration before returning; a failure raises CertificateError.
    """
    orientation = instance.orientation()
    if orientation is None:
        raise OrientationError("anyprice share needs a sign-pure instance")
    b = Fraction(1, instance.agents) if entitlement is None else Fraction(entitlement)
    if not 0 <= b <= 1:
        raise ValueError("entitlement must lie in [0, 1]")
    forced = forced_types(instance)
    base = instance.bundle_value(agent, forced)
    free_positions = [
        pos for pos, t in enumerate(instance.types) if t.name not in forced
    ]
    f = len(free_positions)
    if f > MAX_FREE_TYPES:
        raise BudgetExceededError(
            f"{f} free types exceed the {MAX_FREE_TYPES}-type bundle enumeration limit"
        )
    if f == 0:
        return ShareValue(value=base, certificate=PriceVector((), b))
    row = instance.values[agent]
    free_row = [row[p] for p in free_positions]
    budget = b
    if orientation == "chores":
        free_row, budget = [-v for v in free_row], 1 - b
    values = _subset_sums(free_row)
    # On chores values[-1] = -v(free), the shift back to the primal values.
    shift = -values[-1] if orientation == "chores" else 0
    thresholds = sorted(set(values))
    # Exclusion is monotone in the threshold: find the last non-excludable.
    # thresholds[0] never is (every bundle qualifies); hi starts past the end.
    lo, hi = 0, len(thresholds)
    prices_at_cut = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        excl, prices = _excludable(values, f, thresholds[mid], budget)
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

    value = base + shift + free_value
    best = _best_within_budget(values, weights, budget)
    if best != free_value:
        found = "no bundle" if best is None else base + shift + best
        raise CertificateError(
            f"anyprice certificate failed re-verification: its prices "
            f"certify {found}, not {value}"
        )
    return ShareValue(value=value, certificate=vector)


def check_aps_entitlement_duality(
    instance: Instance, allocation: Allocation, entitlement: Fraction
) -> bool:
    """Anyprice fairness at entitlement b mirrors the dual at 1 - b.

    Verifies, per agent, that the dual share equals the primal share minus
    the typeset value, and that own-bundle fairness agrees on both sides.
    """
    b = Fraction(entitlement)
    if not 0 < b < 1:
        raise ValueError("entitlement must lie strictly between 0 and 1")
    dual = dualize(instance, allocation)
    for i in range(instance.agents):
        primal = aps_share(instance, i, b).value
        mirrored = aps_share(dual.instance, i, 1 - b).value
        if mirrored != primal - instance.typeset_value(i):
            return False
        fair_here = instance.bundle_value(i, allocation.bundles[i]) >= primal
        fair_dual = (
            dual.instance.bundle_value(i, dual.allocation.bundles[i]) >= mirrored
        )
        if fair_here != fair_dual:
            return False
    return True


def share_value(
    instance: Instance, spec: ShareSpec, budget: Optional[int] = None
) -> ShareValue:
    """Dispatch a ShareSpec to the right computation."""
    if not 0 <= spec.agent < instance.agents:
        raise InstanceError(
            f"agent {spec.agent} out of range: the instance has agents "
            f"0..{instance.agents - 1}"
        )
    if spec.kind == "prop":
        return ShareValue(value=prop_share(instance, spec.agent))
    if spec.kind == "mms":
        return mms_share(instance, spec.agent, budget=budget)
    if spec.kind == "tps":
        return tps_share(instance, spec.agent)
    return aps_share(instance, spec.agent, spec.entitlement)
