"""Probability measures on a lattice, conditional expectation and the capacity.

A measure is a collection of one-step kernels, one per non-terminal node,
stored per time index as one flat array over the child nodes; node
probabilities are a forward product along it and the conditional
expectation is a run of the one backward-induction helper, ``_backward``.
A finite ordered family of measures stands in for the (possibly non
dominated) uncertainty set and defines the capacity

    c(X) = max_n ( E_{Q_n} |X|^p )^{1/p}.

The reference measure is the family's equal-weight mixture.  It charges
exactly the nodes that some member charges, which is the desk-scale version
of the canonical class property: c(X - Y) = 0 iff X = Y at all
reference-charged nodes, at every family size (weights of 1/N cannot
underflow where the countable construction's 2^-(n+1) would).
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from math import isfinite
from typing import Sequence

import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, _check_time, _per_parent, lift

__all__ = [
    "Measure",
    "MeasureFamily",
    "DualWitness",
    "conditional_expectation",
    "charged_mask",
    "capacity",
    "reference_measure",
    "mix_measures",
    "dual_witness",
    "check_restriction",
    "measure_to_json",
    "measure_from_json",
]

_KERNEL_TOL = 1e-12
_RESTRICTION_TOL = 1e-12  # node-probability gap up to which restrictions are equal


def _flat_kernels(lattice: ScenarioLattice, k: int, kernels, node_of=None):
    """Time-k kernels, in node order, as one checked flat array; kernel e
    belongs to node ``node_of[e]`` (default: one per node).  Returns it with
    the start and the sum of every kernel."""
    sizes = np.diff(lattice.offsets[k])
    sizes = sizes if node_of is None else sizes[node_of]
    arrs = [np.asarray(w, dtype=float) for w in kernels]
    for e, (w, b) in enumerate(zip(arrs, sizes)):
        if w.shape != (b,):
            node = e if node_of is None else node_of[e]
            raise ValueError(f"kernel at node ({k},{node}) needs {b} weights, "
                             f"got shape {w.shape}")
    flat = np.concatenate(arrs)
    if not np.isfinite(flat).all():
        raise ValueError("kernel weights must be finite")
    if (flat < -_KERNEL_TOL).any():
        raise ValueError("kernel weights must be non-negative")
    flat = np.maximum(flat, 0.0)
    starts = np.cumsum(sizes) - sizes
    return flat, starts, np.add.reduceat(flat, starts)


def _menus(lattice: ScenarioLattice, k: int, menus):
    """Per-node menus of time-k kernels as one normalized (m, n_{k+1}) array,
    a shorter menu padded with its last kernel; also returns ``pick`` (row j
    at node i is kernel pick[j, i] in node order) and the menu sizes."""
    sizes = np.array([len(menu) for menu in menus], dtype=int)
    if not sizes.all():
        raise ValueError(f"empty menu at node ({k},{int(np.argmin(sizes))})")
    pick = np.cumsum(sizes) - sizes + np.minimum(np.arange(sizes.max())[:, None], sizes - 1)
    flat, starts, sums = _flat_kernels(lattice, k, [w for menu in menus for w in menu],
                                       np.repeat(np.arange(sizes.size), sizes))
    if not (sums > 0).all():
        raise ValueError("kernel weights must have a positive sum")
    par = lattice.parents[k + 1]
    row = pick[:, par]
    weights = flat[starts[row] + np.arange(par.size) - lattice.offsets[k][par]] / sums[row]
    return weights, pick, sizes


def _kernel_gap(lattice: ScenarioLattice, k, a, b) -> np.ndarray:
    """Per time-k node, the max |a - b| over its children; a and b are flat
    (..., n_{k+1}) kernel arrays (k = None: every level, as ``_per_parent``)."""
    gap = a - b
    return _per_parent(lattice, k, np.abs(gap, out=gap), np.maximum)


@dataclass(frozen=True, eq=False)
class Measure:
    """Probability measure given by one kernel per non-terminal node;
    ``kernels[k][i]`` weighs the children of node (k, i).  Only the
    normalized ``flat_kernels[k]`` over the time-(k+1) nodes is stored, and
    ``lattice.per_node(k, flat_kernels[k])`` splits it per node.  Kernels
    and node probabilities are read-only, so nothing derived from them, such
    as ``_kernel_buffer``, goes stale.  Measures compare by identity."""

    lattice: ScenarioLattice
    kernels: InitVar[tuple]  # per time index < T: tuple of weight arrays, one per node

    flat_kernels: tuple = field(init=False, repr=False)
    _node_probs: tuple = field(init=False, repr=False)

    def __post_init__(self, kernels):
        lat = self.lattice
        if len(kernels) != lat.n_times - 1:
            raise ValueError("one kernel level per non-terminal time index")
        flats = []
        for k, level in enumerate(kernels):
            if len(level) != lat.n_nodes(k):
                raise ValueError(f"time index {k}: one kernel per node required")
            flat, _, sums = _flat_kernels(lat, k, level)
            bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
            if bad.size:
                raise ValueError(f"kernel weights sum to {sums[bad[0]]}, expected 1")
            flats.append(flat / sums[lat.parents[k + 1]])
        self._store(flats)

    @classmethod
    def _from_flat(cls, lattice: ScenarioLattice, flats):
        """A measure from normalized flat kernels laid out as the stored ones."""
        Q = object.__new__(cls)
        object.__setattr__(Q, "lattice", lattice)
        Q._store(flats)
        return Q

    def _store(self, flats):
        probs = [np.ones(1)]
        for k, w in enumerate(flats):
            probs.append(probs[k][self.lattice.parents[k + 1]] * w)
        for a in (*flats, *probs):
            a.setflags(write=False)
        object.__setattr__(self, "flat_kernels", tuple(flats))
        object.__setattr__(self, "_node_probs", tuple(probs))

    @cached_property
    def _kernel_buffer(self) -> np.ndarray:
        """Every level's flat kernels in time order as one read-only array,
        joined on first use."""
        buffer = np.concatenate(self.flat_kernels)
        buffer.setflags(write=False)
        return buffer

    def node_probabilities(self, t: int) -> np.ndarray:
        _check_time(self.lattice, t)
        return self._node_probs[t]

    def subtree_laws(self, s: int, t: int) -> np.ndarray:
        """Per time-t node, the conditional path probability from its time-s
        ancestor, computed from the kernels (defined at null nodes too);
        ``descendant_slice(s, i, t)`` cuts out node (s, i)'s subtree law."""
        _check_time(self.lattice, s)
        _check_time(self.lattice, t)
        if s > t:
            raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
        probs = np.ones(self.lattice.n_nodes(s))
        for u in range(s, t):
            probs = probs[self.lattice.parents[u + 1]] * self.flat_kernels[u]
        return probs

    def expectation(self, X: RandomVariable) -> float:
        return float(np.sum(self.node_probabilities(X.t) * X.values))


def conditional_expectation(X: RandomVariable, Q: Measure, s: int) -> RandomVariable:
    """E_Q(X | B_s) as a time-s variable.

    Defined from the kernels by backward induction, so the value at Q-null
    nodes is the natural kernel-conditional value (the tower property holds
    exactly up to rounding).  Infinite values propagate for penalty
    variables: a node is +inf if a kernel-charged descendant is.
    """
    if Q.lattice is not X.lattice:
        raise ValueError("measure and variable live on different lattices")
    if s > X.t:
        raise ValueError(f"need s <= t, got s={s} > t={X.t}")
    vals = _backward(X.lattice, s, X.values, Q.flat_kernels[s:X.t])
    return RandomVariable(X.lattice, s, vals, allow_infinite=X.allow_infinite)


def charged_mask(Q: Measure, t: int) -> np.ndarray:
    """Boolean mask of time-t nodes with positive Q-probability."""
    return Q.node_probabilities(t) > 0.0


@dataclass(frozen=True, eq=False)
class MeasureFamily:
    """Finite family (Q_0, ..., Q_{N-1}) with exponent p >= 1.  The members
    weigh equally: their order changes no capacity, and the reference
    measure only in rounding."""

    members: tuple
    p: float = 1.0

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a family needs at least one member")
        lat = members[0].lattice
        if any(m.lattice is not lat for m in members):
            raise ValueError("all members must live on the same lattice")
        if not isfinite(self.p):
            raise ValueError(f"exponent p must be finite, got {self.p}")
        if self.p < 1:
            raise ValueError("exponent p must be >= 1")
        object.__setattr__(self, "members", members)

    @property
    def lattice(self) -> ScenarioLattice:
        return self.members[0].lattice

    @property
    def q(self) -> float:
        """Conjugate exponent (inf for p = 1)."""
        return np.inf if self.p == 1 else self.p / (self.p - 1)


def capacity(X: RandomVariable, family: MeasureFamily) -> float:
    """c(X) = max_n (E_{Q_n}|X|^p)^{1/p}; X is lifted to the terminal time."""
    if X.lattice is not family.lattice:
        raise ValueError("variable and family live on different lattices")
    T = family.lattice.terminal
    absp = np.abs(lift(X, T).values) ** family.p
    best = max(float(np.sum(Q.node_probabilities(T) * absp)) for Q in family.members)
    return best ** (1.0 / family.p)


def mix_measures(members: Sequence[Measure], weights) -> Measure:
    """Path-probability mixture of measures, re-expressed through kernels.

    At mixture-null nodes the kernel is the unweighted average of the member
    kernels (the value there never enters any expectation).
    """
    members = list(members)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(members),) or not np.all((w >= 0) & np.isfinite(w)):
        raise ValueError("need one finite non-negative weight per member")
    if not w.sum() > 0:
        raise ValueError("the mixture weights sum to 0")
    lat = members[0].lattice
    if any(m.lattice is not lat for m in members):
        raise ValueError("measures live on different lattices")
    w = w / w.sum()
    probs = [sum(wi * m.node_probabilities(t) for wi, m in zip(w, members))
             for t in range(lat.n_times)]
    levels = []
    for k in range(lat.n_times - 1):
        up = probs[k][lat.parents[k + 1]]
        mean = np.mean([m.flat_kernels[k] for m in members], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            levels.append(lat.per_node(k, np.where(up > 0, probs[k + 1] / up, mean)))
    return Measure(lat, tuple(levels))


def reference_measure(family: MeasureFamily) -> Measure:
    """The equal-weight mixture P = (1/N) sum Q_n of the family; any positive
    weights give the same null sets."""
    return mix_measures(family.members, np.ones(len(family.members)))


@dataclass(frozen=True, eq=False)
class DualWitness:
    g0: RandomVariable
    value: float
    degenerate: bool = False


def dual_witness(X: RandomVariable, family: MeasureFamily) -> DualWitness:
    """Closed-form dual-norm witness g0 = |X|^{p/q} / c(X)^{p-1}.

    Satisfies max_n E_{Q_n}(|X| g0) = c(X) with max_n E_{Q_n}(g0^q) <= 1.
    For p = 1 the conjugate is degenerate and g0 is identically 1.
    """
    c = capacity(X, family)
    if c == 0.0:
        raise ValueError("null element: c(X) = 0 admits no dual witness")
    degenerate = family.p == 1
    g0 = np.ones(X.values.size) if degenerate \
        else np.abs(X.values) ** (family.p / family.q) / c ** (family.p - 1.0)
    return DualWitness(RandomVariable(X.lattice, X.t, g0), c, degenerate=degenerate)


def check_restriction(Q: Measure, P: Measure, s: int) -> str:
    """Compare restrictions to B_s: 'equal', 'absolutely_continuous' or
    'neither'."""
    _check_time(Q.lattice, s)
    if Q.lattice is not P.lattice:
        raise ValueError("measures live on different lattices")
    q = np.concatenate([Q.node_probabilities(t) for t in range(s + 1)])
    p = np.concatenate([P.node_probabilities(t) for t in range(s + 1)])
    if not np.any(np.abs(q - p) > _RESTRICTION_TOL):
        return "equal"
    return "neither" if np.any((q > 0) & (p == 0)) else "absolutely_continuous"


def measure_to_json(Q: Measure) -> str:
    kernels = [{"node": [k, i], "weights": w.tolist()}
               for k, flat in enumerate(Q.flat_kernels)
               for i, w in enumerate(Q.lattice.per_node(k, flat))]
    return json.dumps({"kernels": kernels}, sort_keys=True)


def measure_from_json(text: str, lattice: ScenarioLattice) -> Measure:
    """The measure that :func:`measure_to_json` writes: one kernel per
    non-terminal node, renormalized on load.  An entry for a node that is
    not a non-terminal node of ``lattice``, a second entry for a node, and
    weights whose sum is not finite and positive raise ValueError naming
    the node."""
    doc = json.loads(text)
    levels = [[None] * lattice.n_nodes(k) for k in range(lattice.n_times - 1)]
    for entry in doc["kernels"]:
        k, i = entry["node"]
        if not (type(k) is int and type(i) is int
                and 0 <= k < len(levels) and 0 <= i < len(levels[k])):
            raise ValueError(f"kernel at node ({k},{i}): no such non-terminal node")
        if levels[k][i] is not None:
            raise ValueError(f"kernel at node ({k},{i}) given twice")
        w = np.asarray(entry["weights"], dtype=float)
        total = w.sum()
        if not 0.0 < total < np.inf:
            raise ValueError(f"kernel at node ({k},{i}): weights sum to {total}, "
                             f"need a finite positive sum")
        levels[k][i] = w / total
    for k, level in enumerate(levels):
        if any(w is None for w in level):
            raise ValueError(f"missing kernel at time index {k}")
    return Measure(lattice, tuple(tuple(level) for level in levels))
