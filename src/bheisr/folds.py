"""Explicit left folds for the float reductions that reach a result.

Python's `sum()` compensates its rounding from 3.12 on, so the same floats
can sum to different bits on 3.11 and on 3.12+. `fold_sum` adds strictly
left to right from 0.0, which is what `sum()` of floats did before 3.12, so
the bits of every result it feeds do not depend on the Python version.
"""


def fold_sum(values) -> float:
    """The left fold `((0.0 + v0) + v1) + ...` of the values."""
    total = 0.0
    for value in values:
        total += value
    return total
