"""Built-in fixtures and seeded random generators for tests and demos.

The "fix-a" fixture is the two-period binary tree with +-1 increments and
the member measures Q1 (all kernels 0.5/0.5) and Q2 (all kernels 0.6/0.4);
most hand-checked values in the test suite live on it.
"""

from __future__ import annotations

import numpy as np

from .lattice import ScenarioLattice, RandomVariable, build_lattice, uniform_tree
from .measures import Measure, MeasureFamily

__all__ = [
    "fix_a_lattice",
    "iid_binary_measure",
    "fix_a_family",
    "trinomial_tree",
    "random_lattice",
    "random_measure",
    "random_family",
    "random_rv",
]

_MIN_WEIGHT = 0.05  # random_measure's floor on the kernel weights, before renormalising


def fix_a_lattice() -> ScenarioLattice:
    """Times (0, 1, 2), binary +-1 increments everywhere."""
    return uniform_tree((0.0, 1.0, 2.0), [1.0, -1.0])


def iid_binary_measure(lattice: ScenarioLattice, up: float) -> Measure:
    """I.i.d. kernel (up, 1-up) at every node of a binary tree."""
    kernels = tuple(
        tuple(np.array([up, 1.0 - up]) for _ in range(lattice.n_nodes(k)))
        for k in range(lattice.n_times - 1)
    )
    return Measure(lattice, kernels)


def fix_a_family(p: float = 1.0):
    """(lattice, Q1, Q2, family) on the two-period binary fixture."""
    lat = fix_a_lattice()
    q1 = iid_binary_measure(lat, 0.5)
    q2 = iid_binary_measure(lat, 0.6)
    return lat, q1, q2, MeasureFamily((q1, q2), p=p)


def trinomial_tree(h: float, steps: int, dt: float = 1.0) -> ScenarioLattice:
    """Full trinomial tree with increments {+h, 0, -h} at every node."""
    times = tuple(dt * k for k in range(steps + 1))
    return uniform_tree(times, [h, 0.0, -h])


def random_lattice(rng: np.random.Generator, max_periods: int = 3,
                   max_branch: int = 3) -> ScenarioLattice:
    """Random one-dimensional tree: 2..max_periods periods, 2..max_branch
    children per node."""
    periods = int(rng.integers(2, max_periods + 1))
    incs, n = [], 1
    for _ in range(periods):
        incs.append([rng.normal(size=(int(rng.integers(2, max_branch + 1)), 1))
                     for _ in range(n)])
        n = sum(len(inc) for inc in incs[-1])
    return build_lattice(tuple(float(k) for k in range(periods + 1)), incs, dimension=1)


def random_measure(lattice: ScenarioLattice, rng: np.random.Generator) -> Measure:
    """Random measure with kernels bounded away from zero (charges all nodes):
    each weight is at least _MIN_WEIGHT / (1 + b _MIN_WEIGHT) for b children."""
    kernels = []
    for k in range(lattice.n_times - 1):
        level = []
        for b in np.diff(lattice.offsets[k]):
            w = rng.dirichlet(np.ones(b))
            w = (w + _MIN_WEIGHT) / (1.0 + b * _MIN_WEIGHT)
            level.append(w)
        kernels.append(tuple(level))
    return Measure(lattice, tuple(kernels))


def random_family(lattice: ScenarioLattice, rng: np.random.Generator,
                  n_members: int, p: float = 1.0) -> MeasureFamily:
    return MeasureFamily(tuple(random_measure(lattice, rng) for _ in range(n_members)), p=p)


def random_rv(lattice: ScenarioLattice, t: int, rng: np.random.Generator) -> RandomVariable:
    """Standard normal values at the nodes of date t."""
    return RandomVariable(lattice, t, rng.normal(size=lattice.n_nodes(t)))
