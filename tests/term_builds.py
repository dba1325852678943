"""Spies on the builds of step terms, for the tests of who builds a model's
step terms, which of them, how often, and how long they live."""

import weakref

from execlab import coefficients, cost, deviation
from execlab.coefficients import _impact_terms, _resilience, step_terms

# each builder, and the modules whose functions call it, each by its own
# name for it: a pass builds StepTerms, and step_terms and a single-path
# call build from the two private builders
BUILDERS = {
    "step_terms": (step_terms, (cost,)),
    "_impact_terms": (_impact_terms, (coefficients,)),
    "_resilience": (_resilience, (coefficients, deviation)),
}


def _spy(monkeypatch, names: list[str], key) -> list:
    """Route every call of the builders ``names`` through a spy, and return
    the list it fills: per build, ``key(name, model)`` and a weak
    reference to each built array."""
    builds = []
    for name in names:
        build, readers = BUILDERS[name]

        def spy(model, grid, name=name, build=build):
            built = build(model, grid)
            builds.append((key(name, model), [weakref.ref(a) for a in built
                                              if a is not None]))
            return built

        for module in readers:
            monkeypatch.setattr(module, name, spy)
    return builds


def spy_builds(monkeypatch) -> list:
    """Spy on step_terms: per build, the model and the refs."""
    return _spy(monkeypatch, ["step_terms"], lambda name, model: model)


def spy_builders(monkeypatch) -> list:
    """Spy on the two private builders, in one list: per build, the
    builder's name and the refs."""
    return _spy(monkeypatch, ["_impact_terms", "_resilience"],
                lambda name, model: name)


def alive(builds: list) -> int:
    """The number of built arrays that something still holds."""
    return sum(ref() is not None for _, refs in builds for ref in refs)
