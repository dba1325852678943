"""A model's coefficients looked up by time, for the tests' references.

The engine takes each grid step's piece by index; these find a piece by
time instead, so a reference built on them does not share that indexing.
"""

import bisect
import math


def value_at(model, name, t):
    """Coefficient ``name`` at time t: the value of the last piece that
    starts at or before t (right-continuous)."""
    return getattr(model, name)[bisect.bisect_right(model.starts, t) - 1]


def integral(model, name, a, b):
    """The exact integral of coefficient ``name`` over [a, b], piece by
    piece in time order."""
    total = 0.0
    for start, end, v in zip(model.starts, (*model.starts[1:], math.inf),
                             getattr(model, name)):
        lo, hi = max(a, start), min(b, end)
        if hi > lo:
            total += v * (hi - lo)
    return total
