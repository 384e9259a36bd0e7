"""Core data model: instances, allocations, exact values, JSON codecs.

An instance has n agents and a list of item types; type t comes in
1 <= k_t <= n identical copies and every agent assigns the same value to
every copy. Values are exact rationals. An allocation gives each agent a
bundle (a set of type names, so nobody holds two copies of the same type);
it is complete when each type appears in exactly k_t bundles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

# Fraction builds 10**exp for a decimal exponent, so a few bytes could ask
# for an integer of any size; refuse exponents past CPython's own limit on
# the digits of an integer read from a string.
MAX_DECIMAL_EXPONENT = sys.int_info.default_max_str_digits

# Agents times types (at least one) an instance file may declare. Columns are
# built per agent, so a small file could otherwise claim any amount of memory.
MAX_INSTANCE_CELLS = 10**6


class FairdualError(Exception):
    """Base class for errors raised by this package."""


class InstanceError(FairdualError):
    """Malformed instance or allocation data."""


class UnknownTypeError(InstanceError):
    """A bundle or argument references a type name the instance lacks."""


class OrientationError(FairdualError):
    """A goods criterion was applied to a chores instance or vice versa."""


class BudgetExceededError(FairdualError):
    """An enumeration exceeded its evaluation budget."""


class CertificateError(FairdualError):
    """A computed certificate failed its independent re-verification."""


class NotACycleError(FairdualError):
    """The given agent sequence is not a cycle of the current envy graph."""


class NotLeveledError(FairdualError):
    """An agent's valuation is not leveled.

    Carries the violating cardinality pair: some bundle of size `larger`
    is worth no more than some bundle of size `smaller`.
    """

    def __init__(self, agent: int, larger: int, smaller: int):
        self.agent = agent
        self.larger = larger
        self.smaller = smaller
        super().__init__(
            f"agent {agent} is not leveled: the worst size-{larger} bundle "
            f"does not beat the best size-{smaller} bundle"
        )


def _is_count(value) -> bool:
    """An int that is not a bool (True would count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value) -> Fraction:
    """Convert a JSON scalar to an exact Fraction.

    Accepts integers, "p/q" strings and decimal strings ("2.5" becomes 5/2
    exactly), with exponents up to MAX_DECIMAL_EXPONENT in magnitude. Floats
    are rejected: binary floats do not round-trip and this library promises
    exact arithmetic.
    """
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _, has_exponent, exponent = value.lower().partition("e")
        try:
            if has_exponent and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                raise InstanceError(
                    f"exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
                )
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise InstanceError(
            f"float {value!r} rejected; write it as a decimal string"
        )
    raise InstanceError(f"not a rational: {value!r}")


def _integer_row(values) -> tuple:
    """Rationals times the least common multiple of their denominators, and that multiple."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_rational(value: Fraction):
    """Render a Fraction for JSON: an int when integral, else "p/q"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


class Kernel(NamedTuple):
    """Integer rows: agent i's values times scales[i], the LCM of their denominators."""

    rows: tuple
    scales: tuple


@dataclass(frozen=True)
class ItemType:
    """One item type: a name and its copy count."""

    name: str
    copies: int


def bundle(*names: str) -> frozenset:
    """Convenience constructor for a bundle of type names."""
    return frozenset(names)


@dataclass(frozen=True)
class Instance:
    """A fair-allocation instance with exact rational valuations.

    `values[i][t]` is agent i's value for one copy of the type at position
    t of `types`. Agent and type order is significant: indices in reports
    and witnesses refer to these positions.
    """

    agents: int
    types: tuple
    values: tuple

    def __post_init__(self):
        if not _is_count(self.agents) or self.agents < 1:
            raise InstanceError(f"agent count must be a positive int, got {self.agents!r}")
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(
            self, "values", tuple(tuple(row) for row in self.values)
        )
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise InstanceError("duplicate type names")
        for t in self.types:
            if not _is_count(t.copies) or not 1 <= t.copies <= self.agents:
                raise InstanceError(
                    f"type {t.name!r} has {t.copies} copies; need 1..{self.agents}"
                )
        if len(self.values) != self.agents:
            raise InstanceError(
                f"expected {self.agents} valuation rows, got {len(self.values)}"
            )
        for i, row in enumerate(self.values):
            if len(row) != len(self.types):
                raise InstanceError(
                    f"agent {i} has {len(row)} values for {len(self.types)} types"
                )
            for v in row:
                if not isinstance(v, Fraction):
                    raise InstanceError(f"value {v!r} is not a Fraction")
        for t, tag in zip(self.types, self.type_tags):
            if tag == "mixed":
                raise InstanceError(
                    f"type {t.name!r} has both positive and negative values; "
                    "every type must be a good or a chore for all agents"
                )

    @classmethod
    def _unvalidated(cls, agents: int, types: tuple, values: tuple, **cached) -> "Instance":
        """An instance whose fields are known valid, skipping `__post_init__`.

        `types` and `values` must already be tuples (rows too). Each keyword
        presets the cached property of that name. Only `duality.dualize`
        calls this, on fields derived from a validated instance.
        """
        instance = object.__new__(cls)
        fields = {"agents": agents, "types": types, "values": values, **cached}
        for name, value in fields.items():
            object.__setattr__(instance, name, value)
        return instance

    @cached_property
    def index(self) -> dict:
        """Type name to position."""
        return {t.name: pos for pos, t in enumerate(self.types)}

    @cached_property
    def type_tags(self) -> tuple:
        """Per-type sign tag: "good", "chore", "zero" or "mixed".

        A type is a good when no agent values it negatively and someone
        values it positively, a chore symmetrically, and "zero" when every
        agent values it at 0 (compatible with both orientations). A
        Fraction's sign is its numerator's, which is cheaper to test.
        """
        tags = []
        for column in zip(*self.values):
            has_pos = any(v.numerator > 0 for v in column)
            has_neg = any(v.numerator < 0 for v in column)
            if has_pos and has_neg:
                tags.append("mixed")
            elif has_pos:
                tags.append("good")
            elif has_neg:
                tags.append("chore")
            else:
                tags.append("zero")
        return tuple(tags)

    @cached_property
    def kernel(self) -> Kernel:
        """The integer rows (signs kept) and their scales, compiled on first use."""
        compiled = [_integer_row(row) for row in self.values]
        return Kernel(tuple(tuple(r) for r, _ in compiled), tuple(s for _, s in compiled))

    @property
    def goods_pure(self) -> bool:
        return all(tag in ("good", "zero") for tag in self.type_tags)

    @property
    def chores_pure(self) -> bool:
        return all(tag in ("chore", "zero") for tag in self.type_tags)

    def orientation(self) -> Optional[str]:
        """The natural criterion orientation, or None for a mixed instance.

        An all-zero instance counts as goods by convention (either
        orientation would accept it).
        """
        if self.goods_pure:
            return "goods"
        if self.chores_pure:
            return "chores"
        return None

    def position(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {name!r}") from None

    def value(self, agent: int, name: str) -> Fraction:
        """Agent's value for one copy of the named type."""
        return self.values[agent][self.position(name)]

    def bundle_value(self, agent: int, items: Iterable) -> Fraction:
        """Additive value of a bundle (one copy per named type)."""
        row = self.values[agent]
        total = Fraction(0)
        for name in items:
            total += row[self.position(name)]
        return total

    def total_value(self, agent: int) -> Fraction:
        """Value of every copy of every type (copies counted)."""
        row = self.values[agent]
        return sum(
            (t.copies * row[pos] for pos, t in enumerate(self.types)),
            Fraction(0),
        )

    def typeset_value(self, agent: int) -> Fraction:
        """Value of one copy of each type (the duality shift constant)."""
        return sum(self.values[agent], Fraction(0))

    def type_names(self) -> tuple:
        return tuple(t.name for t in self.types)


@dataclass(frozen=True)
class Allocation:
    """One bundle per agent; bundles are frozensets of type names."""

    bundles: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "bundles", tuple(frozenset(b) for b in self.bundles)
        )

    @staticmethod
    def of(*bundles: Iterable) -> "Allocation":
        return Allocation(tuple(frozenset(b) for b in bundles))


@dataclass(frozen=True)
class Violation:
    """One validity defect of an allocation against an instance."""

    kind: str
    message: str


def validate_allocation(instance: Instance, allocation: Allocation) -> tuple:
    """Check completeness and exclusivity; return a tuple of Violations.

    An empty result means the allocation is valid: right number of bundles,
    only known type names, and each type held by exactly its copy count.
    Exclusivity within a bundle is structural (bundles are sets).
    """
    problems = []
    if len(allocation.bundles) != instance.agents:
        problems.append(
            Violation(
                "bundle-count",
                f"expected {instance.agents} bundles, got {len(allocation.bundles)}",
            )
        )
    held = {name: 0 for name in instance.index}
    for i, b in enumerate(allocation.bundles):
        for name in sorted(b):
            if name not in instance.index:
                problems.append(
                    Violation("unknown-type", f"bundle {i} holds unknown type {name!r}")
                )
            else:
                held[name] += 1
    for t in instance.types:
        if held[t.name] != t.copies:
            problems.append(
                Violation(
                    "copy-count",
                    f"type {t.name!r} held by {held[t.name]} agents, has {t.copies} copies",
                )
            )
    return tuple(problems)


def require_valid(instance: Instance, allocation: Allocation) -> None:
    """Raise InstanceError when the allocation is invalid."""
    problems = validate_allocation(instance, allocation)
    if problems:
        raise InstanceError(
            "; ".join(v.message for v in problems)
        )


def instance_from_json(data, on_notice: Optional[Callable] = None) -> Instance:
    """Build an Instance from the JSON object layout.

    Layout: {"agents": n, "types": [{"name", "copies", "values"}]} where
    "values" is either a list of n rationals (agent order) or
    {"shared": rational} for a value common to all agents. Types with zero
    copies are dropped with a notice. Rationals follow parse_rational.
    """
    if not isinstance(data, dict):
        raise InstanceError("instance JSON must be an object")
    try:
        agents = data["agents"]
        raw_types = data["types"]
    except (TypeError, KeyError) as exc:
        raise InstanceError(f"instance JSON missing key: {exc}") from exc
    if not _is_count(agents) or agents < 1:
        raise InstanceError(f"agents must be a positive int, got {agents!r}")
    if not isinstance(raw_types, list):
        raise InstanceError("types must be a list")
    if agents * max(1, len(raw_types)) > MAX_INSTANCE_CELLS:
        raise InstanceError(
            f"instance too large: {agents} agents and {len(raw_types)} types "
            f"exceed {MAX_INSTANCE_CELLS} values"
        )
    types = []
    columns = []
    for entry in raw_types:
        if not isinstance(entry, dict):
            raise InstanceError(f"type entry must be an object, got {entry!r}")
        try:
            name = entry["name"]
            copies = entry["copies"]
            raw_values = entry["values"]
        except KeyError as exc:
            raise InstanceError(f"type entry missing key: {exc}") from exc
        if not isinstance(name, str):
            raise InstanceError(f"type name must be a string, got {name!r}")
        if not _is_count(copies) or copies < 0:
            raise InstanceError(f"type {name!r}: copies must be an int >= 0")
        if copies == 0:
            if on_notice is not None:
                on_notice(f"dropping type {name!r}: zero copies")
            continue
        if isinstance(raw_values, dict):
            if set(raw_values) != {"shared"}:
                raise InstanceError(
                    f"type {name!r}: values object must be {{'shared': rational}}"
                )
            column = [parse_rational(raw_values["shared"])] * agents
        elif isinstance(raw_values, list):
            if len(raw_values) != agents:
                raise InstanceError(
                    f"type {name!r}: expected {agents} values, got {len(raw_values)}"
                )
            column = [parse_rational(v) for v in raw_values]
        else:
            raise InstanceError(f"type {name!r}: bad values field")
        types.append(ItemType(name, copies))
        columns.append(column)
    values = tuple(
        tuple(col[i] for col in columns) for i in range(agents)
    )
    return Instance(agents=agents, types=tuple(types), values=values)


def instance_to_json(instance: Instance) -> dict:
    """Serialize an Instance; instance_from_json inverts this exactly."""
    entries = []
    for pos, t in enumerate(instance.types):
        column = [row[pos] for row in instance.values]
        if len(set(column)) == 1:
            values = {"shared": format_rational(column[0])}
        else:
            values = [format_rational(v) for v in column]
        entries.append({"name": t.name, "copies": t.copies, "values": values})
    return {"agents": instance.agents, "types": entries}


def allocation_from_json(data) -> Allocation:
    """Build an Allocation from {"bundles": [[type-name, ...], ...]}."""
    if not isinstance(data, dict) or "bundles" not in data:
        raise InstanceError('allocation JSON must be {"bundles": [...]}')
    raw = data["bundles"]
    if not isinstance(raw, list):
        raise InstanceError("bundles must be a list")
    bundles = []
    for i, b in enumerate(raw):
        if not isinstance(b, list) or not all(isinstance(x, str) for x in b):
            raise InstanceError(f"bundle {i} must be a list of type names")
        if len(set(b)) != len(b):
            raise InstanceError(f"bundle {i} repeats a type name")
        bundles.append(frozenset(b))
    return Allocation(tuple(bundles))


def allocation_to_json(allocation: Allocation, instance: Instance) -> dict:
    """Serialize an Allocation, listing each bundle's names in the instance's type order."""
    return {"bundles": [sorted(b, key=instance.position) for b in allocation.bundles]}
