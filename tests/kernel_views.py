"""The integer kernel seen through type names and Fractions.

Pair tests and the plan walk work on integer rows and type masks. These
helpers let a test state a pair by a one-agent valuation dict and bundles
of names, and read the walk back as bundles.
"""

from fairdual import search
from fairdual.criteria import _bundles, _masks, _offending_item, _rows, criterion_eval
from fairdual.model import Instance, ItemType


def one_agent(valuation):
    """A one-agent instance with one single-copy type per valuation entry."""
    return Instance(
        agents=1,
        types=tuple(ItemType(name, 1) for name in valuation),
        values=(tuple(valuation.values()),),
    )


def _compiled(criterion, valuation, bundle_i, bundle_u):
    instance = one_agent(valuation)
    row = _rows(instance, criterion.orientation)[0]
    return instance, row, *_masks(instance, (bundle_i, bundle_u))


def pair_eval(criterion, valuation, bundle_i, bundle_u):
    """criterion_eval on the compiled row and masks of one agent's pair."""
    _, row, mask_i, mask_u = _compiled(criterion, valuation, bundle_i, bundle_u)
    return criterion_eval(criterion, row, mask_i, mask_u)


def pair_item(criterion, valuation, bundle_i, bundle_u):
    """The offending item of one agent's pair, from the compiled row and masks."""
    return _offending_item(criterion, *_compiled(criterion, valuation, bundle_i, bundle_u))


def walk_bundles(instance):
    """The plan walk, each step decoded to a tuple of bundles."""
    return [_bundles(instance, masks) for masks, _ in search._walk(instance)]
