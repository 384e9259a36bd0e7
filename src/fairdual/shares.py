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
`share_value` dispatches by kind; only the anyprice share takes an
entitlement b, any rational with 0 <= b <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Optional, Sequence

from .criteria import _least_items, _subset_sums
from .duality import dualize
from .exactlp import maximize
from .model import (
    Allocation,
    BudgetExceededError,
    CertificateError,
    Instance,
    OrientationError,
    _integer_row,
    _require_agent,
    require_valid,
)
from .search import _require_within_budget

SHARE_KINDS = ("prop", "mms", "tps", "aps")

# Free-type subsets are enumerated explicitly, so cap their count.
MAX_FREE_TYPES = 20


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
    plan over the budget is refused before any work, as in `count_fair`;
    large instances go through verify_mms_lower_bound with a witness instead.
    The maximizing allocation is re-verified; a mismatch is a CertificateError.
    """
    _require_agent(instance, agent)
    _require_within_budget(instance, budget)
    n = instance.agents
    ints, scale = instance.kernel.rows[agent], instance.kernel.scales[agent]
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
    _require_agent(instance, agent)
    require_valid(instance, witness)
    return min(instance.bundle_value(agent, b) for b in witness.bundles)


@dataclass(frozen=True)
class AlphaMMSReport:
    """Per-agent comparison of own-bundle value against alpha * share."""

    fair: bool
    alpha: Fraction
    shares: tuple
    ratios: tuple  # value/share per agent, None where the share is zero
    failing: tuple


def _rational(value, what: str) -> Fraction:
    """`value` read exactly as a Fraction; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a rational, got {value!r}")
    return Fraction(value)


def _entitlement(instance: Instance, entitlement) -> Fraction:
    """The anyprice entitlement b, 1/n by default, refused outside [0, 1]."""
    if entitlement is None:
        return Fraction(1, instance.agents)
    b = _rational(entitlement, "entitlement")
    if not 0 <= b <= 1:
        raise ValueError("entitlement must lie in [0, 1]")
    return b


def check_alpha_mms(
    instance: Instance,
    allocation: Allocation,
    alpha: Fraction,
    shares: Sequence,
) -> AlphaMMSReport:
    """Does every agent get at least alpha times their share?

    `shares` holds one value per agent: maximin values, or any share the
    caller has certified, such as witness-partition bounds or PROP. `alpha`
    is read once as an exact Fraction, the value that decides and is reported.
    """
    require_valid(instance, allocation)
    alpha = _rational(alpha, "alpha")
    shares = tuple(_rational(v, "share") for v in shares)
    if len(shares) != instance.agents:
        raise ValueError("one share value per agent required")
    ratios = []
    failing = []
    for i in range(instance.agents):
        own = instance.bundle_value(i, allocation.bundles[i])
        ratios.append(own / shares[i] if shares[i] != 0 else None)
        if own < alpha * shares[i]:
            failing.append(i)
    return AlphaMMSReport(
        fair=not failing,
        alpha=alpha,
        shares=shares,
        ratios=tuple(ratios),
        failing=tuple(failing),
    )


def tps_share(instance: Instance, agent: int) -> ShareValue:
    """Truncated proportional share.

    Goods: the largest z with (1/n) * sum over copies c of min(c, z) = z. It is
    the least bound (total - top j copies) / (n - j) over j = 0 .. min(#copies,
    n - 1), certified by the first j reaching it: every such z is at most each
    bound, as sum min(c, z) <= j * z + (total - top j), with equality when j
    counts the copies above z. Chores: min of the proportional share and the
    worst chore.
    """
    _require_agent(instance, agent)
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
    bounds = [
        (total - top) / (n - j)
        for j, top in enumerate(accumulate(per_copy[: n - 1], initial=0))
    ]
    value = min(bounds)
    return ShareValue(value=value, certificate=bounds.index(value))


def forced_types(instance: Instance) -> frozenset:
    """Types every agent holds in every complete allocation."""
    return frozenset(t.name for t in instance.types if t.copies == instance.agents)


def _frontier(values, least, threshold):
    """Subset-minimal bundles worth at least `threshold`, in ascending mask order."""
    return [m for m, v in enumerate(values) if threshold <= v < threshold + least[m]]


def _excludable(values, least, f, threshold, b):
    """Can prices make every bundle worth at least `threshold` cost more than b?

    Returns the slack-maximizing LP outcome: (excludable, Fraction prices or None).
    `values` and `least` are subset tables of a non-negative integer row (chores
    arrive negated); there a qualifying bundle is subset-minimal, and constrains,
    iff dropping its least item takes it below the threshold.
    """
    frontier = _frontier(values, least, threshold)
    # Maximize sigma = s + 1, where s is the least slack p(m) - b of a
    # frontier bundle under prices p on the simplex. Every p gives s >= -b,
    # so requiring sigma >= 0 loses no optimum, and every inequality keeps a
    # nonnegative right-hand side; only sum(p) = 1 needs an artificial.
    # Excludable iff sigma > 1. Row per frontier bundle: sigma - p(m) <= 1 - b.
    objective = [0] * f + [1]
    eq = [([1] * f + [0], 1)]
    leq = [([-1 if m >> i & 1 else 0 for i in range(f)] + [1], 1 - b) for m in frontier]
    result = maximize(objective, leq=leq, eq=eq)
    if result.optimum > 1:
        return True, result.solution[:f]
    return False, None


def _best_within_budget(values, weights, b):
    """Best free-bundle value affordable at these prices within budget b, in integers."""
    *prices, budget = _integer_row([*weights, b])[0]
    return max((v for v, w in zip(values, _subset_sums(prices)) if w <= budget), default=None)


def aps_share(
    instance: Instance, agent: int, entitlement: Optional[Fraction] = None
) -> ShareValue:
    """Anyprice share at entitlement b, 0 <= b <= 1 (default 1/n).

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
    Bundle values, thresholds and the re-check run in integers on the agent's
    kernel row, non-negative once chores are negated; the prices stay Fractions.
    """
    _require_agent(instance, agent)
    orientation = instance.orientation()
    if orientation is None:
        raise OrientationError("anyprice share needs a sign-pure instance")
    b = _entitlement(instance, entitlement)
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
    row, scale = instance.kernel.rows[agent], instance.kernel.scales[agent]
    free_row = [row[p] for p in free_positions]
    budget = b
    if orientation == "chores":
        free_row, budget = [-v for v in free_row], 1 - b
    values = _subset_sums(free_row)
    least = _least_items(free_row)
    # On chores values[-1] = -v(free) * scale, the shift back to the primal values.
    shift = -values[-1] if orientation == "chores" else 0
    thresholds = sorted(set(values))
    # Exclusion is monotone in the threshold: find the last non-excludable.
    # thresholds[0] never is (every bundle qualifies); hi starts past the end.
    lo, hi = 0, len(thresholds)
    prices_at_cut = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        excl, prices = _excludable(values, least, f, thresholds[mid], budget)
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

    value = base + Fraction(shift + free_value, scale)
    best = _best_within_budget(values, weights, budget)
    if best != free_value:
        found = "no bundle" if best is None else base + Fraction(shift + best, scale)
        raise CertificateError(
            f"anyprice certificate failed re-verification: its prices "
            f"certify {found}, not {value}"
        )
    return ShareValue(value=value, certificate=vector)


def share_value(
    instance: Instance,
    kind: str,
    agent: int,
    entitlement: Optional[Fraction] = None,
    budget: Optional[int] = None,
) -> ShareValue:
    """The `kind` share of one agent; an entitlement applies to aps only."""
    if kind not in SHARE_KINDS:
        raise ValueError(f"unknown share kind {kind!r}")
    if entitlement is not None and kind != "aps":
        raise ValueError("entitlement applies to the anyprice share only")
    if kind == "prop":
        return ShareValue(value=prop_share(instance, agent))
    if kind == "mms":
        return mms_share(instance, agent, budget=budget)
    if kind == "tps":
        return tps_share(instance, agent)
    return aps_share(instance, agent, entitlement)


def check_share_duality(
    instance: Instance, share: str, entitlement: Optional[Fraction] = None
) -> bool:
    """Proportional, maximin and anyprice shares shift by the typeset value under duality.

    For every agent i: share(instance, i) equals share(dual, i) plus i's
    typeset value. The anyprice share at entitlement b (default 1/n) is
    compared with the dual's at 1 - b. Other shares do not obey a linear
    shift and are rejected.
    """
    if share not in ("prop", "mms", "aps"):
        raise ValueError(f"no linear duality shift for share {share!r}")
    dual_entitlement = 1 - _entitlement(instance, entitlement) if share == "aps" else None
    dual = dualize(instance).instance
    for i in range(instance.agents):
        primal = share_value(instance, share, i, entitlement).value
        mirrored = share_value(dual, share, i, dual_entitlement).value
        if primal != mirrored + instance.typeset_value(i):
            return False
    return True
