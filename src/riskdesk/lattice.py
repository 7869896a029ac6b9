"""Finite scenario trees, adapted random variables and stopping times.

A lattice is a finite tree discretizing the space of paths started at 0.
Nodes at a given time index partition the path space, so a value attached to
each node at time s is exactly an adapted (time-s measurable) variable.
Trees never recombine at the identity level: recombining dynamics are
represented as trees with equal node values, keeping the filtration exact.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import isfinite
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

    times        -- finite, strictly increasing time points t0=0 < ... < tT
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
    ``np.add.reduceat`` over ``offsets[k][:-1]`` (``_per_parent``).  The
    dimension is an integer >= 1 and the parents integers (numpy ones too,
    not bools).  Every level's parents are checked at once, on the joined
    parents, and that pass lays out ``_chain``, the joined layout that only
    this module reads (``_per_parent``, ``_per_child``, ``_child_counts``,
    ``_levels``).
    Lattices compare by identity.
    """

    times: tuple
    dimension: int
    parents: tuple
    increments: tuple

    values: tuple = field(init=False)
    offsets: tuple = field(init=False, repr=False)
    fanouts: tuple = field(init=False, repr=False)
    # the children of every non-terminal node, level after level, as
    # _per_parent reads them with k = None: the fan-out every level shares
    # (0 if none), the first-child starts for reduceat and the child counts;
    # then each time index's slice of all nodes in time order, and of the
    # children of every non-terminal node (the nodes of times 1..T)
    _chain: tuple = field(init=False, repr=False)

    def __post_init__(self):
        times = tuple(float(u) for u in self.times)
        if len(times) < 2:
            raise ValueError("a lattice needs at least 2 time points")
        if not all(map(isfinite, times)):
            raise ValueError("time points must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("time points must be strictly increasing (no duplicates)")
        d = self.dimension
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
        if len(self.parents) != len(times) or len(self.increments) != len(times):
            raise ValueError("parents/increments must have one entry per time point")
        if len(self.parents[0]) != 1 or self.parents[0][0] != -1:
            raise ValueError("there must be a unique root at time index 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dimension", int(d))

        parents = tuple(map(np.asarray, self.parents))
        for k, (level, p) in enumerate(zip(self.parents, parents)):
            # numpy would read a bool among integers as an integer
            mixed = not isinstance(level, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in level)
            if mixed or p.size and p.dtype.kind not in "iu":
                raise ValueError(f"time index {k}: parents must be integers, "
                                 f"got {'bool' if mixed else p.dtype}")
        parents = tuple(p.astype(int, copy=False) for p in parents)
        object.__setattr__(self, "parents", parents)
        # every level at once: node i of level k is node starts[k] + i in time
        # order, and up holds each child's parent in that order; the children
        # of consecutive parents are contiguous and ordered in every level,
        # and every parent lies in its level, iff up is sorted and each
        # level's first and last parents lie in it.  A fault is named from
        # these joined arrays
        sizes = [p.size for p in parents]
        starts = list(accumulate(sizes, initial=0))
        base, par = np.array(starts[:-2]), np.concatenate(parents[1:])
        up = par + np.repeat(base, sizes[1:])
        ok = (all(p.size and p[0] >= 0 and p[-1] < n for p, n in zip(parents[1:], sizes))
              and (up[1:] >= up[:-1]).all())
        bad = None if ok else (par < 0) | (par >= np.repeat(sizes[:-1], sizes[1:]))
        if not ok and bad.any():
            j = int(np.argmax(bad))
            raise ValueError("node ({},{}) has invalid parent {}".format(
                *_node_at(self, 1 + j), par[j]))
        counts = np.bincount(up, minlength=starts[-2])
        if not counts.all():
            raise ValueError("non-terminal node ({},{}) has no child".format(
                *_node_at(self, int(np.argmin(counts)))))
        if not ok:
            k, _ = _node_at(self, 2 + int(np.argmax(up[1:] < up[:-1])))
            raise ValueError(f"time index {k}: children must be contiguous per parent")
        ends = np.concatenate(([0], np.cumsum(counts)))
        lo, hi = (op.reduceat(counts, base) for op in (np.minimum, np.maximum))
        fanouts = tuple(b if a == b <= _STRIDED_MAX else 0
                        for a, b in zip(lo.tolist(), hi.tolist()))
        object.__setattr__(self, "offsets", tuple(ends[a:a + n + 1] - ends[a]
                                                  for a, n in zip(starts, sizes[:-1])))
        object.__setattr__(self, "fanouts", fanouts)
        shared, child = set(fanouts), [n - 1 for n in starts[1:]]
        object.__setattr__(self, "_chain", (
            shared.pop() if len(shared) == 1 else 0, ends[:-1], counts,
            tuple(map(slice, starts[:-1], starts[1:])), tuple(map(slice, child[:-1], child[1:]))))

        incs = tuple(np.asarray(inc, dtype=float).reshape(-1, self.dimension)
                     for inc in self.increments)
        for k, (p, inc) in enumerate(zip(parents, incs)):
            if inc.shape[0] != p.size:
                raise ValueError(f"time index {k}: {inc.shape[0]} increment rows "
                                 f"for {p.size} nodes")
        if not np.isfinite(np.concatenate(incs)).all():
            k = next(k for k, inc in enumerate(incs) if not np.isfinite(inc).all())
            raise ValueError(f"time index {k}: increments must be finite")
        if incs[0].any():  # paths start at 0
            raise ValueError(f"the root increment must be zero, got {incs[0][0].tolist()}")
        values = [np.zeros((1, self.dimension))]
        for k in range(1, len(times)):
            values.append(values[k - 1][parents[k]] + incs[k])
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "values", tuple(values))

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
        _check_time(self, t)
        if not 0 <= s <= t:
            raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
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


def _node_at(lattice: ScenarioLattice, j: int) -> tuple:
    """(k, i) of the node at index j of all nodes in time order, the root
    being 0: the one rule by which messages name a node of a joined array."""
    starts = list(accumulate((p.size for p in lattice.parents), initial=0))
    k = bisect_right(starts, j) - 1
    return k, j - starts[k]


def _check_integer(t) -> None:
    """Raise ValueError naming t unless it is an integer (a numpy one too, not
    a bool), as a time index must be."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise ValueError(f"time index {t!r} is not an integer")


def _check_time(lattice: ScenarioLattice, t: int) -> None:
    """Raise ValueError naming t unless it is one of the lattice's time
    indices: an integer (``_check_integer``) in [0, T]; a negative index would
    otherwise read a level from the end."""
    _check_integer(t)
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


def _per_child(lattice: ScenarioLattice, a) -> np.ndarray:
    """Each entry of a (..., sum of n_k for k < T) per-parent array, every
    non-terminal node in time order, repeated over that node's children: the
    inverse of ``_per_parent(lattice, None, ·)``, child-aligned."""
    return np.repeat(a, lattice._chain[2], axis=-1)


def _child_counts(lattice: ScenarioLattice) -> list:
    """The child count of every non-terminal node, in time order."""
    return lattice._chain[2].tolist()


def _levels(lattice: ScenarioLattice, a) -> tuple:
    """A joined (..., n) array cut into one view per time index along its
    last axis, which holds in time order all nodes, the non-terminal nodes
    or their children (the nodes of times 1..T), as n says.  The last two
    have one length only on a lattice of one node per time index, whose
    cuts are then the same."""
    cuts, children = lattice._chain[3:]
    n, total = a.shape[-1], cuts[-1].stop
    return tuple(a[..., c] for c in (cuts if n == total else children if n == total - 1
                                     else cuts[:-1]))


def _backward(lattice: ScenarioLattice, s: int, values, weights, penalties=None, levels=None):
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
    output reruns guarded.  An optional ``levels`` list receives the arrays
    G_{t-1}, ..., G_s in that order, the last being the output, when the
    unguarded pass is exact (every level is then finite), and stays empty
    otherwise."""
    g = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        out = _induct(lattice, s, g, weights, penalties, guard=False, levels=levels)
    if np.isfinite(out).all():
        return out
    if levels is not None:
        levels.clear()
    return _induct(lattice, s, g, weights, penalties, guard=True)


def _induct(lattice, s, g, weights, penalties, guard, levels=None):
    """The steps of ``_backward``; with ``guard``, a level holding a
    non-finite value takes zero-weight terms as 0 and a +inf-penalty choice's
    terms as -inf, so that choice never attains the max.  A level's penalties
    are subtracted in the array its per-parent sum made; each finished level
    goes to ``levels`` when given, and no later step writes to it."""
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
        if levels is not None:
            levels.append(g)
    return g


def build_lattice(times: Sequence[float], increments, dimension: int = None) -> ScenarioLattice:
    """Build a lattice from time points and per-node branching increments.

    ``increments[k][i]`` holds the child increments of node (k, i), one
    (children, d) block per node and one level per time index 0..T-1; on a
    1-dimensional lattice a 1-D block holds one scalar per child (and a
    scalar one child), and on a d-dimensional one a 1-D block of d entries
    is one child.  Without ``dimension``, the width of the first block sets
    it.  Path values accumulate from the root, so every path starts at 0.
    A level is built by one ``concatenate`` and one ``repeat``; one whose
    blocks do not join as (children, d) rows is read node by node, which
    names a malformed block.
    """
    times = tuple(float(u) for u in times)
    if len(times) < 2:
        raise ValueError("a lattice needs at least 2 time points")
    T = len(times) - 1
    if len(increments) < T:
        raise ValueError(f"time index {len(increments)}: no branching given, "
                         f"need one level per time index 0..{T - 1}")
    if len(increments) > T:
        raise ValueError(f"time index {T} is terminal, but branching is given for it")

    parents, incs, n_prev = [np.array([-1], dtype=int)], [], 1
    for k, level in enumerate(increments):
        if len(level) != n_prev:
            raise ValueError(
                f"time index {k}: expected branching for {n_prev} nodes, got {len(level)}")
        if dimension is None:
            dimension = np.atleast_2d(np.asarray(level[0], dtype=float)).shape[-1]
        try:
            inc, counts = np.concatenate(level, dtype=float), [len(block) for block in level]
        except (TypeError, ValueError):
            inc = counts = None
        if inc is not None and inc.ndim == 1 and dimension == 1:
            inc = inc[:, None]
        if inc is None or inc.shape[1:] != (dimension,) or not min(counts):
            counts, inc = _node_blocks(k, level, dimension)
        parents.append(np.repeat(np.arange(n_prev), counts))
        incs.append(inc)
        n_prev = len(inc)
    return ScenarioLattice(times, dimension, tuple(parents),
                           (np.zeros((1, dimension)), *incs))


def _node_blocks(k: int, level, d: int):
    """Time-k increment blocks node by node, as ``build_lattice`` reads them:
    the child counts and the joined (children, d) rows; raise ValueError
    naming the first node whose block has no child or is not (children, d)."""
    counts, rows = [], []
    for i, block in enumerate(level):
        a = np.asarray(block, dtype=float)
        if a.ndim == 0 and d == 1 or a.ndim == 1 and (d == 1 or a.size == d):
            a = a.reshape(-1, d)
        if a.ndim != 2 or a.shape[1] != d:
            raise ValueError(f"node ({k},{i}): increments of shape {a.shape} "
                             f"do not fit a {d}-dimensional lattice")
        if not len(a):
            raise ValueError(f"node ({k},{i}) has empty branching")
        counts.append(len(a))
        rows.append(a)
    return counts, np.concatenate(rows)


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
    _check_time(lattice, s)
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
    """The lattice that :func:`lattice_to_json` writes; ``ScenarioLattice``
    checks the fields as read, so a dimension or a parent that is not an
    integer raises ValueError instead of being truncated."""
    doc = json.loads(text)
    times = tuple(float(u) for u in doc["times"])
    parents, incs = [], []
    for level in doc["nodes"]:
        parents.append([n["parent"] for n in level])
        incs.append(np.array([n["increment"] for n in level], dtype=float))
    return ScenarioLattice(times, doc["dimension"], tuple(parents), tuple(incs))
