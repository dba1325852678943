"""Spies on the two builders of step terms, the impact terms and the
resilience factors, for the tests of who builds them, for which model, how
often, and how long they live."""

import weakref
from typing import NamedTuple

from execlab import coefficients, cost, deviation
from execlab.coefficients import CoefficientModel, _impact_terms, _resilience

# each builder, and the modules whose functions call it by that name: a
# pass builds both, a single-path market the first, a deviation the second
BUILDERS = {
    "_impact_terms": (_impact_terms, (coefficients, cost)),
    "_resilience": (_resilience, (cost, deviation)),
}


class Build(NamedTuple):
    """One builder call: the builder's name, the model, and a weak
    reference to each array it built."""

    name: str
    model: CoefficientModel
    refs: list


def spy_builders(monkeypatch) -> list[Build]:
    """Route every call of the two builders through a spy, and return the
    list it fills, one :class:`Build` per call in call order."""
    builds = []
    for name, (build, readers) in BUILDERS.items():

        def spy(model, grid, name=name, build=build):
            built = build(model, grid)
            builds.append(Build(name, model, [weakref.ref(a) for a in built
                                              if a is not None]))
            return built

        for module in readers:
            monkeypatch.setattr(module, name, spy)
    return builds


def alive(builds: list[Build]) -> int:
    """The number of built arrays that something still holds."""
    return sum(ref() is not None for build in builds for ref in build.refs)
