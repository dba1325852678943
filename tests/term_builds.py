"""A spy on the builds of step_terms, for the tests of who builds a
model's step terms, how often, and how long they live."""

import weakref

from execlab import coefficients, cost, deviation
from execlab.coefficients import step_terms

# the modules whose functions call step_terms, each by its own name for it
READERS = (coefficients, cost, deviation)


def spy_builds(monkeypatch) -> list:
    """Route every call of step_terms through a spy, and return the list it
    fills: per build, the model and a weak reference to each built array."""
    builds = []

    def spy(model, grid):
        terms = step_terms(model, grid)
        builds.append((model, [weakref.ref(a) for a in terms
                               if a is not None]))
        return terms

    for module in READERS:
        monkeypatch.setattr(module, "step_terms", spy)
    return builds


def alive(builds: list) -> int:
    """The number of built arrays that something still holds."""
    return sum(ref() is not None for _, refs in builds for ref in refs)
