"""Reference truncated proportional share for goods, independent of the library.

This is the bracket scan the library once used: for each count j of
truncated copies it takes z = (total - top j copies) / (n - j), keeps z
when it lies between the j-th and (j + 1)-th largest copies, and returns
the largest kept z with its first j. Tests compare the library's closed
form against it.
"""

from fractions import Fraction


def reference_tps(instance, agent):
    """(value, truncated copies) of the goods TPS by the bracket scan."""
    row = instance.values[agent]
    per_copy = sorted(
        (row[pos] for pos, t in enumerate(instance.types) for _ in range(t.copies)),
        reverse=True,
    )
    n = instance.agents
    total = sum(per_copy, Fraction(0))
    best = None
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
    return best, best_truncated
