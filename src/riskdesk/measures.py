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
from itertools import accumulate
from math import isfinite
from typing import Sequence

import numpy as np

from .lattice import (RandomVariable, ScenarioLattice, _backward, _check_span, _check_time,
                      _child_counts, _levels, _node_at, _per_child, _per_parent, lift)

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


def _joined(kernels, sizes: list):
    """The kernels as one float array by one ``concatenate``, when each is
    1-D and its length is the entry of ``sizes`` at its place; None
    otherwise, for the per-kernel path (``_kernel_rows``) to name one."""
    try:
        flat = np.concatenate(kernels, dtype=float)
    except (TypeError, ValueError):
        return None
    return flat if flat.ndim == 1 and [len(w) for w in kernels] == sizes else None


def _kernel_rows(lattice: ScenarioLattice, kernels, node_of) -> list:
    """The per-kernel path: kernels of the non-terminal nodes, each as a
    float array; kernel e belongs to the node at index ``node_of[e]`` of
    all nodes in time order.  Raises ValueError naming the first kernel
    that is not a 1-D array of its node's child count."""
    sizes = np.array(_child_counts(lattice))[node_of]
    arrs = [np.asarray(w, dtype=float) for w in kernels]
    for e, (w, b) in enumerate(zip(arrs, sizes)):
        if w.shape != (b,):
            k, i = _node_at(lattice, int(node_of[e]))
            raise ValueError(f"kernel at node ({k},{i}) needs {b} weights, "
                             f"got shape {w.shape}")
    return arrs


def _checked(flat: np.ndarray) -> np.ndarray:
    """Joined kernel weights, checked finite and non-negative once, with the
    negatives within ``_KERNEL_TOL`` of 0 raised to 0."""
    if not np.isfinite(flat).all():
        raise ValueError("kernel weights must be finite")
    if (flat < -_KERNEL_TOL).any():
        raise ValueError("kernel weights must be non-negative")
    return np.maximum(flat, 0.0)


def _normalized(lattice: ScenarioLattice, flat: np.ndarray) -> np.ndarray:
    """Every level's kernels, joined in time order as ``_per_parent`` reads
    them with k = None, checked and divided by their sums; a sum more than
    1e-9 from 1 raises ValueError."""
    flat = _checked(flat)
    sums = _per_parent(lattice, None, flat)
    bad = np.abs(sums - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"kernel weights sum to {sums[np.argmax(bad)]}, expected 1")
    return flat / _per_child(lattice, sums)


def _menus(lattice: ScenarioLattice, menus):
    """The menus of kernels of every non-terminal node, in time order, as
    one normalized (m, sum of n_{k+1}) array laid out as a measure's joined
    kernels, m the longest menu, a shorter menu padded with its last
    kernel; also returns ``pick``, the m * N kernel indices (N nodes) that
    fill it row by row (row j at node e is kernel pick[j * N + e]), and the
    (N,) menu sizes.  The padded rows are joined and checked at once, and
    each kernel's sum is its row's per-parent sum."""
    sizes = [len(menu) for menu in menus]
    if not min(sizes):
        k, i = _node_at(lattice, sizes.index(0))
        raise ValueError(f"empty menu at node ({k},{i})")
    m, first = max(sizes), list(accumulate(sizes, initial=0))
    pick = [f + min(j, n - 1) for j in range(m) for f, n in zip(first, sizes)]
    kernels = [w for menu in menus for w in menu]
    flat = _joined([kernels[e] for e in pick], _child_counts(lattice) * m)
    if flat is None:
        arrs = _kernel_rows(lattice, kernels, np.repeat(np.arange(len(sizes)), sizes))
        flat = np.concatenate([arrs[e] for e in pick])
    rows = _checked(flat).reshape(m, -1)
    sums = _per_parent(lattice, None, rows)
    if not (sums > 0).all():
        raise ValueError("kernel weights must have a positive sum")
    return rows / _per_child(lattice, sums), pick, np.array(sizes)


def _kernel_gap(lattice: ScenarioLattice, a, b) -> np.ndarray:
    """Per non-terminal node, in time order, the max |a - b| over its
    children; a and b are (..., sum of n_{k+1}) arrays laid out as a
    measure's joined kernels."""
    gap = a - b
    return _per_parent(lattice, None, np.abs(gap, out=gap), np.maximum)


@dataclass(frozen=True, eq=False)
class Measure:
    """Probability measure given by one kernel per non-terminal node;
    ``kernels[k][i]`` weighs the children of node (k, i).  Only the
    normalized kernels are stored: ``_kernel_buffer`` joins every level's
    in time order (as ``_per_parent`` reads them with k = None), and
    ``flat_kernels[k]``, its view over the time-(k+1) nodes, is split per
    node by ``lattice.per_node(k, flat_kernels[k])``.  Node probabilities
    are views of one joined array as well.  The kernels are joined by one
    ``concatenate`` and checked once; a kernel that does not fit its node
    is named by the per-kernel path (``_kernel_rows``).  Everything stored
    is read-only, so nothing derived from it goes stale.  Measures compare
    by identity."""

    lattice: ScenarioLattice
    kernels: InitVar[tuple]  # per time index < T: tuple of weight arrays, one per node

    flat_kernels: tuple = field(init=False, repr=False)
    _node_probs: tuple = field(init=False, repr=False)
    # every level's flat kernels, and every level's node probabilities, in
    # time order: the arrays that flat_kernels and _node_probs view
    _kernel_buffer: np.ndarray = field(init=False, repr=False)
    _prob_buffer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, kernels):
        lat = self.lattice
        if len(kernels) != lat.n_times - 1:
            raise ValueError("one kernel level per non-terminal time index")
        for k, level in enumerate(kernels):
            if len(level) != lat.n_nodes(k):
                raise ValueError(f"time index {k}: one kernel per node required")
        kernels = [w for level in kernels for w in level]
        flat = _joined(kernels, _child_counts(lat))
        if flat is None:
            flat = np.concatenate(_kernel_rows(lat, kernels, np.arange(len(kernels))))
        self._store(_normalized(lat, flat))

    @classmethod
    def _from_flat(cls, lattice: ScenarioLattice, buffer):
        """A measure from normalized kernels joined as ``_kernel_buffer``."""
        Q = object.__new__(cls)
        object.__setattr__(Q, "lattice", lattice)
        Q._store(buffer)
        return Q

    def _store(self, buffer):
        lat = self.lattice
        # views taken of a read-only buffer are read-only
        buffer.setflags(write=False)
        kernels = _levels(lat, buffer)
        # node probabilities level by level, a forward product along the
        # kernels, written through views taken before the buffer is frozen
        probs = np.ones(1 + buffer.size)
        levels = _levels(lat, probs)
        for k, w in enumerate(kernels):
            np.multiply(levels[k][lat.parents[k + 1]], w, out=levels[k + 1])
        probs.setflags(write=False)
        for name, value in (("flat_kernels", kernels), ("_node_probs", _levels(lat, probs)),
                            ("_kernel_buffer", buffer), ("_prob_buffer", probs)):
            object.__setattr__(self, name, value)

    def node_probabilities(self, t: int) -> np.ndarray:
        _check_time(self.lattice, t)
        return self._node_probs[t]

    def subtree_laws(self, s: int, t: int) -> np.ndarray:
        """Per time-t node, the conditional path probability from its time-s
        ancestor, computed from the kernels (defined at null nodes too);
        ``descendant_slice(s, i, t)`` cuts out node (s, i)'s subtree law."""
        _check_span(self.lattice, s, t)
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
    _check_span(X.lattice, s, X.t)
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
    kernels (the value there never enters any expectation).  Every level is
    mixed at once, on the members' joined node probabilities and kernels,
    and normalized as ``Measure`` normalizes its kernels.
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
    probs = sum(wi * m._prob_buffer for wi, m in zip(w, members))
    up = _per_child(lat, probs[:-lat.n_nodes(lat.terminal)])  # each non-root node's parent
    # the members' mean kernels, every level at once: axis 0 is summed member
    # by member, as a per-level mean sums it, except where a level holds one
    # weight, which is 1.0 in every member and so sums exactly in any order
    mean = np.mean([m._kernel_buffer for m in members], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = np.where(up > 0, probs[1:] / up, mean)
    return Measure._from_flat(lat, _normalized(lat, flat))


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
    n = sum(Q.lattice.n_nodes(t) for t in range(s + 1))  # the nodes up to time s
    q, p = Q._prob_buffer[:n], P._prob_buffer[:n]
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
