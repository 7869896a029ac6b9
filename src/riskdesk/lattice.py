"""Finite scenario trees, adapted random variables and stopping times.

A lattice is a finite tree discretizing the space of paths started at 0.
Nodes at a given time index partition the path space, so a value attached to
each node at time s is exactly an adapted (time-s measurable) variable.
Trees never recombine at the identity level: recombining dynamics are
represented as trees with equal node values, keeping the filtration exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NodeRef",
    "ScenarioLattice",
    "RandomVariable",
    "StoppingTime",
    "build_lattice",
    "uniform_tree",
    "lift",
    "coordinate_process",
    "validate_stopping_time",
    "lattice_to_json",
    "lattice_from_json",
]


# The widest fan-out whose strided sum has reduceat's bits: reduceat adds a
# segment's first entry to the sum of the rest, which numpy adds in order
# below 8 entries and pairwise from 8.  Older numpy starts that sum at +0.0,
# newer at -0.0, which differ only on a segment of -0.0 entries.
_STRIDED_MAX = 8
_SUM_FROM_PLUS_ZERO = not np.signbit(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0])


@dataclass(frozen=True)
class NodeRef:
    """Reference to a node as (time index, node index)."""

    t: int
    i: int


@dataclass(frozen=True, eq=False)
class ScenarioLattice:
    """Finite scenario tree.

    times        -- strictly increasing time points t0=0 < ... < tT
    dimension    -- d >= 1, the dimension of the increments
    parents      -- per time index, int array of parent node indices (root: -1)
    increments   -- per time index, finite float array (n_nodes, d) of
                    increments from the parent (root: zeros, as paths start
                    at 0)

    Derived: per time index the (n_nodes, d) path ``values`` and, for k < T,
    ``offsets[k]``: each node's first-child offset, then n_nodes(k + 1), and
    ``fanouts[k]``: the child count every time-k node shares, or 0 when the
    counts differ or exceed 8.  The children of node (k, i) are
    ``offsets[k][i]:offsets[k][i + 1]``, so a per-parent sum over a flat
    time-(k+1) array adds ``fanouts[k]`` strided slices, or is one
    ``np.add.reduceat`` over ``offsets[k][:-1]`` (``_per_parent``).
    Lattices compare by identity.
    """

    times: tuple
    dimension: int
    parents: tuple
    increments: tuple

    values: tuple = field(init=False)
    offsets: tuple = field(init=False, repr=False)
    fanouts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        times = tuple(float(u) for u in self.times)
        if len(times) < 2:
            raise ValueError("a lattice needs at least 2 time points")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time points must be strictly increasing (no duplicates)")
        if len(self.parents) != len(times) or len(self.increments) != len(times):
            raise ValueError("parents/increments must have one entry per time point")
        if len(self.parents[0]) != 1 or self.parents[0][0] != -1:
            raise ValueError("there must be a unique root at time index 0")
        object.__setattr__(self, "times", times)

        parents = tuple(np.asarray(p, dtype=int) for p in self.parents)
        object.__setattr__(self, "parents", parents)
        offsets, fanouts = [], []
        for k in range(len(times) - 1):
            n_k, par = parents[k].size, parents[k + 1]
            j = int(np.argmax((par < 0) | (par >= n_k)))
            if not 0 <= par[j] < n_k:
                raise ValueError(f"node ({k + 1},{j}) has invalid parent {par[j]}")
            counts = np.bincount(par, minlength=n_k)
            if not counts.all():
                raise ValueError(f"non-terminal node ({k},{int(np.argmin(counts))}) has no child")
            # children of consecutive parents must be contiguous and ordered
            if (par[1:] < par[:-1]).any():
                raise ValueError("children must be contiguous per parent")
            offsets.append(np.concatenate(([0], np.cumsum(counts))))
            b = int(counts[0])
            fanouts.append(b if b <= _STRIDED_MAX and (counts == b).all() else 0)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "fanouts", tuple(fanouts))

        incs = tuple(np.asarray(inc, dtype=float).reshape(-1, self.dimension)
                     for inc in self.increments)
        values = [np.zeros((1, self.dimension))]
        for k, (par, inc) in enumerate(zip(parents, incs)):
            if inc.shape[0] != par.size:
                raise ValueError(f"time index {k}: {inc.shape[0]} increment rows "
                                 f"for {par.size} nodes")
            if not np.isfinite(inc).all():
                raise ValueError(f"time index {k}: increments must be finite")
            if k:
                values.append(values[k - 1][par] + inc)
            elif inc.any():  # paths start at 0
                raise ValueError(f"the root increment must be zero, got {inc[0].tolist()}")
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "values", tuple(values))

    @cached_property
    def _chain(self) -> tuple:
        """The children of every non-terminal node, level after level, as
        ``_per_parent`` reads them with k = None: the fan-out every level
        shares (0 if none), and the first-child starts for ``reduceat``."""
        fanouts = set(self.fanouts)
        bases = np.cumsum([0] + [off[-1] for off in self.offsets[:-1]])
        starts = np.concatenate([off[:-1] + base for off, base in zip(self.offsets, bases)])
        return (fanouts.pop() if len(fanouts) == 1 else 0), starts

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def terminal(self) -> int:
        return len(self.times) - 1

    def n_nodes(self, t: int) -> int:
        return len(self.parents[t])

    def node_refs(self, t: int):
        return [NodeRef(t, i) for i in range(self.n_nodes(t))]

    def ancestors_of_slice(self, t: int, s: int) -> np.ndarray:
        """Array mapping every time-t node to its time-s ancestor index."""
        idx = np.arange(self.n_nodes(t))
        for u in range(t, s, -1):
            idx = self.parents[u][idx]
        return idx

    def descendant_slice(self, s: int, i: int, t: int) -> slice:
        """Contiguous index range of time-t descendants of node (s, i)."""
        lo, hi = i, i + 1
        for u in range(s, t):
            lo, hi = int(self.offsets[u][lo]), int(self.offsets[u][hi])
        return slice(lo, hi)

    def per_node(self, k: int, flat: np.ndarray) -> tuple:
        """Split a flat time-(k+1) array into one view per time-k parent."""
        bounds = self.offsets[k].tolist()
        return tuple(flat[..., a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def path_to_leaf(self, leaf: int):
        """Node indices along the root-to-leaf path, one per time index."""
        t = self.terminal
        idx = [leaf]
        for u in range(t, 0, -1):
            idx.append(int(self.parents[u][idx[-1]]))
        return list(reversed(idx))


def _check_time(lattice: ScenarioLattice, t: int) -> None:
    """Raise ValueError naming t unless it is one of the lattice's time
    indices; a negative index would otherwise read a level from the end."""
    if not 0 <= t <= lattice.terminal:
        raise ValueError(f"time index {t} outside [0, {lattice.terminal}]")


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Adapted variable: one real value per node at a given time index."""

    lattice: ScenarioLattice
    t: int
    values: np.ndarray
    allow_infinite: bool = False

    def __post_init__(self):
        _check_time(self.lattice, self.t)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.lattice.n_nodes(self.t),):
            raise ValueError(
                f"expected {self.lattice.n_nodes(self.t)} values at time index "
                f"{self.t}, got shape {v.shape}"
            )
        if not self.allow_infinite and not np.isfinite(v).all():
            raise ValueError("non-finite values are only allowed for penalties")
        object.__setattr__(self, "values", v)

    def _coerce(self, other):
        if isinstance(other, RandomVariable):
            if other.lattice is not self.lattice or other.t != self.t:
                raise ValueError("operands live on different lattices or times")
            return other.values
        return float(other)

    def _wrap(self, v):
        return RandomVariable(self.lattice, self.t, v,
                              allow_infinite=self.allow_infinite)

    def __add__(self, other):
        return self._wrap(self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self.values - self._coerce(other))

    def __rsub__(self, other):
        return self._wrap(self._coerce(other) - self.values)

    def __mul__(self, other):
        return self._wrap(self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.values)


@dataclass(frozen=True)
class StoppingTime:
    """Antichain of nodes covering every root-to-leaf path exactly once."""

    stops: frozenset  # of NodeRef

    @staticmethod
    def deterministic(lattice: ScenarioLattice, t: int) -> "StoppingTime":
        _check_time(lattice, t)
        return StoppingTime(frozenset(lattice.node_refs(t)))


def _per_parent(lattice: ScenarioLattice, k, a, op=np.add) -> np.ndarray:
    """``op`` (``np.add`` or ``np.maximum``) over each time-k node's children,
    along the last axis of a (..., n_{k+1}) array; with k = None over the
    children of every non-terminal node, a holding the levels' children in
    time order.  The same bits as ``op.reduceat`` over first-child offsets: a
    uniform fan-out b adds strided slices as reduceat does,
    a_0 + ((a_1 + a_2) + ...), into one fresh array; any order gives the same
    maximum."""
    b = lattice.fanouts[k] if k is not None else lattice._chain[0]
    if not b:
        starts = lattice.offsets[k][:-1] if k is not None else lattice._chain[1]
        return op.reduceat(a, starts, axis=-1)
    if b == 1:
        return a.copy()
    if op is np.add and _SUM_FROM_PLUS_ZERO:
        rest, j = 0.0 + a[..., 1::b], 2
    elif b == 2:
        return op(a[..., ::2], a[..., 1::2])
    else:
        rest, j = op(a[..., 1::b], a[..., 2::b]), 3
    for i in range(j, b):
        op(rest, a[..., i::b], out=rest)
    return op(a[..., ::b], rest, out=rest)


def _backward(lattice: ScenarioLattice, s: int, values, weights, penalties=None):
    """Backward induction from (..., n_t) ``values`` at t = s + len(weights)
    down to s: G_u = max_j (sum over children of w_j G_{u+1} - a_j), with
    per u in s..t-1 weights (..., m_u, n_{u+1}) of m_u choices and optional
    penalties (..., m_u, n_u), or 1-D weights of one choice and no
    penalties.  Zero-weight children never count, so an infinite value there
    gives no 0 * inf = NaN.

    The pass runs unguarded first and tests finiteness once, on its output.
    A finite output is exact: a non-finite value, given or made by 0 * inf,
    meets every choice's weights at its parent, as inf, -inf or a NaN, which
    no sum, difference or max drops, so it reaches the output.  A non-finite
    output reruns guarded."""
    g = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        out = _induct(lattice, s, g, weights, penalties, guard=False)
    if np.isfinite(out).all():
        return out
    return _induct(lattice, s, g, weights, penalties, guard=True)


def _induct(lattice, s, g, weights, penalties, guard):
    """The steps of ``_backward``; with ``guard``, a level holding a
    non-finite value takes zero-weight terms as 0 and a +inf-penalty choice's
    terms as -inf, so that choice never attains the max.  A level's penalties
    are subtracted in the array its per-parent sum made."""
    for u in range(s + len(weights) - 1, s - 1, -1):
        w = weights[u - s]
        v = g if w.ndim == 1 else g[..., None, :]
        if guard and not np.isfinite(g).all():
            with np.errstate(invalid="ignore"):
                terms = np.where(w > 0, w * v, 0.0)
            if penalties is not None:
                # a +inf-penalty choice sums to -inf: never +inf - +inf = NaN
                at_child = penalties[u - s][..., lattice.parents[u + 1]]
                terms = np.where(at_child < np.inf, terms, -np.inf)
        else:
            terms = w * v
        g = _per_parent(lattice, u, terms)
        if penalties is not None:
            g -= penalties[u - s]
        if w.ndim > 1:
            # the max over choices, pairwise in order, into a new array, so a
            # result that a caller keeps does not hold every choice's sums
            best = g[..., 0, :]
            for j in range(1, g.shape[-2]):
                best = np.maximum(best, g[..., j, :], out=None if j == 1 else best)
            g = best
    return g


def build_lattice(times: Sequence[float], increments, dimension: int = None) -> ScenarioLattice:
    """Build a lattice from time points and per-node branching increments.

    ``increments[k][i]`` is the list of child increment vectors of node
    (k, i); one entry per time index 0..T-1.  Path values accumulate from
    the root, so every path starts at 0.
    """
    times = tuple(float(u) for u in times)
    if len(times) < 2:
        raise ValueError("a lattice needs at least 2 time points")
    if dimension is None:
        first = np.atleast_2d(np.asarray(increments[0][0], dtype=float))
        dimension = first.shape[-1]

    parents = [np.array([-1], dtype=int)]
    incs = [np.zeros((1, dimension))]
    n_prev = 1
    for k in range(len(times) - 1):
        if len(increments[k]) != n_prev:
            raise ValueError(
                f"time index {k}: expected branching for {n_prev} nodes, "
                f"got {len(increments[k])}"
            )
        par, inc = [], []
        for i in range(n_prev):
            node_inc = np.asarray(increments[k][i], dtype=float).reshape(-1, dimension)
            if node_inc.shape[0] < 1:
                raise ValueError(f"node ({k},{i}) has empty branching")
            for row in node_inc:
                par.append(i)
                inc.append(row)
        parents.append(np.array(par, dtype=int))
        incs.append(np.array(inc, dtype=float))
        n_prev = len(par)
    return ScenarioLattice(times, dimension, tuple(parents), tuple(incs))


def uniform_tree(times: Sequence[float], step_increments) -> ScenarioLattice:
    """Tree with the same branching increments at every node (e.g. +-1)."""
    step = np.asarray(step_increments, dtype=float)
    if step.ndim == 1:  # scalar increments, one per child
        step = step.reshape(-1, 1)
    incs = []
    n = 1
    for _ in range(len(times) - 1):
        incs.append([step] * n)
        n *= step.shape[0]
    return build_lattice(times, incs, dimension=step.shape[1])


def lift(X: RandomVariable, t: int) -> RandomVariable:
    """Inclusion of time-s variables among time-t variables (s <= t)."""
    _check_time(X.lattice, t)
    if t < X.t:
        raise ValueError(f"cannot lift from time index {X.t} down to {t}")
    if t == X.t:
        return X
    anc = X.lattice.ancestors_of_slice(t, X.t)
    return RandomVariable(X.lattice, t, X.values[anc],
                          allow_infinite=X.allow_infinite)


def coordinate_process(lattice: ScenarioLattice, s: int, coord: int = 0) -> RandomVariable:
    """The coordinate process at time index s: accumulated increments."""
    if not 0 <= s < lattice.n_times:
        raise ValueError(f"time index {s} out of range")
    return RandomVariable(lattice, s, lattice.values[s][:, coord])


def validate_stopping_time(lattice: ScenarioLattice, stops: Iterable[NodeRef]):
    """Check the antichain-cover invariant.

    Returns (True, None) or (False, first violating root-to-leaf path).
    """
    masks = [np.zeros(lattice.n_nodes(t), dtype=int) for t in range(lattice.n_times)]
    for n in stops:
        if not (0 <= n.t < lattice.n_times and 0 <= n.i < lattice.n_nodes(n.t)):
            return False, [NodeRef(n.t, n.i)]
        masks[n.t][n.i] = 1
    hits = masks[0]  # per node: stops on its root path, itself included
    for t in range(1, lattice.n_times):
        hits = hits[lattice.parents[t]] + masks[t]
    if np.all(hits == 1):
        return True, None
    path = lattice.path_to_leaf(int(np.argmax(hits != 1)))
    return False, [NodeRef(u, path[u]) for u in range(lattice.n_times)]


def lattice_to_json(lattice: ScenarioLattice) -> str:
    nodes = []
    for k in range(lattice.n_times):
        nodes.append(
            [
                {"parent": int(lattice.parents[k][i]),
                 "increment": [float(v) for v in lattice.increments[k][i]]}
                for i in range(lattice.n_nodes(k))
            ]
        )
    return json.dumps(
        {"times": list(lattice.times), "dimension": lattice.dimension, "nodes": nodes},
        sort_keys=True,
    )


def lattice_from_json(text: str) -> ScenarioLattice:
    doc = json.loads(text)
    times = tuple(float(u) for u in doc["times"])
    d = int(doc["dimension"])
    parents, incs = [], []
    for level in doc["nodes"]:
        parents.append(np.array([n["parent"] for n in level], dtype=int))
        incs.append(np.array([n["increment"] for n in level], dtype=float).reshape(-1, d))
    return ScenarioLattice(times, d, tuple(parents), tuple(incs))
