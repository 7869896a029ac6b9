"""Pasting of measures at stopping times, stability checks and the
rectangular hull with its robust backward recursion.

Pasting glues one measure's kernels strictly before a stopping time to
another's at and after it (density freezing).  A family closed under all
such pastings is stable; the computable surrogate is the rectangular
(node-wise kernel set) hull, whose selections are exactly the measures
reachable by finitely many pastings on small lattices -- verified by
enumeration in the tests rather than assumed.  Kernel sets are stored per
time index as one flat (kernels, nodes) array, and the robust recursion is
the one backward-induction helper maximizing over its first axis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .lattice import (RandomVariable, ScenarioLattice, StoppingTime, _backward,
                      validate_stopping_time)
from .measures import Measure, _kernel_gap, _menus, charged_mask

__all__ = [
    "RectangularFamily",
    "paste",
    "is_stable",
    "rectangular_hull",
    "enumerate_selections",
    "robust_evaluate",
    "all_stopping_times",
    "rectangular_to_json",
    "rectangular_from_json",
]

_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class RectangularFamily:
    """Per non-terminal node: a finite, de-duplicated set of kernels.
    Also stored flat, padded with each node's last kernel: per time index k,
    (m_k, n_{k+1}) ``flat_kernels``; ``node_kernels`` holds views of its rows."""

    lattice: ScenarioLattice
    node_kernels: tuple  # per time index < T: tuple per node of kernel tuples

    flat_kernels: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        lat = self.lattice
        if len(self.node_kernels) != lat.n_times - 1:
            raise ValueError("one kernel-set level per non-terminal time index")
        flats, cleaned = [], []
        for k, level in enumerate(self.node_kernels):
            if len(level) != lat.n_nodes(k):
                raise ValueError(f"time index {k}: one kernel set per node required")
            w, sizes = _dedup(lat, k, _menus(lat, k, level, "kernel set")[0])
            flats.append(w)
            cleaned.append(tuple(tuple(rows[:n]) for rows, n
                                 in zip(lat.per_node(k, w), sizes.tolist())))
        object.__setattr__(self, "node_kernels", tuple(cleaned))
        object.__setattr__(self, "flat_kernels", tuple(flats))


def _dedup(lat: ScenarioLattice, k: int, w: np.ndarray):
    """Drop node-wise each kernel row within _DEDUP_TOL of an earlier kept
    row (so all padding); returns the re-padded kept rows and their counts."""
    keep = np.zeros((w.shape[0], lat.n_nodes(k)), dtype=bool)
    keep[0] = True
    for j in range(1, w.shape[0]):
        dup = _kernel_gap(lat, k, w[:j], w[j]) <= _DEDUP_TOL
        keep[j] = ~np.any(keep[:j] & dup, axis=0)
    counts = keep.sum(axis=0)
    first = np.argsort(~keep, axis=0, kind="stable")  # kept rows first, in order
    rows = np.take_along_axis(first, np.minimum(np.arange(counts.max())[:, None],
                                                counts - 1), axis=0)
    par = lat.parents[k + 1]
    return w[rows[:, par], np.arange(par.size)], counts


def _stopped_mask(lattice: ScenarioLattice, tau: StoppingTime):
    """Per node: True iff the node is at or after the stopping time."""
    masks = [np.zeros(lattice.n_nodes(t), dtype=bool) for t in range(lattice.n_times)]
    for n in tau.stops:
        masks[n.t][n.i] = True
    for t in range(1, lattice.n_times):
        masks[t] |= masks[t - 1][lattice.parents[t]]
    return masks


def _check_stopping_time(lattice: ScenarioLattice, tau: StoppingTime):
    ok, witness = validate_stopping_time(lattice, tau.stops)
    if not ok:
        raise ValueError(f"invalid stopping time, witness path {witness}")


def _not_dominated_at(Q: Measure, P: Measure):
    """First node (t, i) that Q charges and P does not, or None when Q << P."""
    for t in range(P.lattice.n_times):
        bad = np.flatnonzero((Q.node_probabilities(t) > 0)
                             & (P.node_probabilities(t) == 0))
        if bad.size:
            return (t, int(bad[0]))
    return None


def paste(P: Measure, Q: Measure, tau: StoppingTime) -> Measure:
    """Q's kernels strictly before tau, P's kernels at and after tau.

    Requires Q << P node-wise; equivalently the density process of the
    result w.r.t. P is that of Q frozen at tau.
    """
    lat = P.lattice
    if Q.lattice is not lat:
        raise ValueError("measures live on different lattices")
    _check_stopping_time(lat, tau)
    bad = _not_dominated_at(Q, P)
    if bad is not None:
        raise ValueError(
            f"Q is not absolutely continuous w.r.t. P at node ({bad[0]},{bad[1]})")
    masks = _stopped_mask(lat, tau)
    return Measure(lat, tuple(
        lat.per_node(k, np.where(masks[k][lat.parents[k + 1]],
                                 P.flat_kernels[k], Q.flat_kernels[k]))
        for k in range(lat.n_times - 1)))


def _same_at_charged(R: Measure, M: Measure, tol: float = 1e-12) -> bool:
    lat = R.lattice
    return not any(
        np.any(charged_mask(R, k) & (_kernel_gap(lat, k, R.flat_kernels[k],
                                                 M.flat_kernels[k]) > tol))
        for k in range(lat.n_times - 1))


def is_stable(measures: Sequence[Measure], taus: Sequence[StoppingTime]):
    """True iff every admissible pasting stays in the family.

    For every ordered pair (P, Q) with Q << P node-wise and every given
    stopping time, paste(P, Q, tau) must coincide kernel-wise at its charged
    nodes with some member; pairs without Q << P are not constrained.
    Returns (bool, missing pasted measure or None).  An invalid stopping time
    raises ValueError naming its witness path.
    """
    for tau in taus if measures else ():
        _check_stopping_time(measures[0].lattice, tau)
    for P, Q in itertools.product(measures, repeat=2):
        if _not_dominated_at(Q, P) is not None:
            continue
        for tau in taus:
            R = paste(P, Q, tau)
            if not any(_same_at_charged(R, M) for M in measures):
                return False, R
    return True, None


def rectangular_hull(measures: Sequence[Measure]) -> RectangularFamily:
    """Node-wise kernel sets {kernel of Q at n : Q charges n}.

    Falls back to all member kernels at a node no member charges (the value
    there never enters a charged expectation).
    """
    lat = measures[0].lattice

    def kernel_set(k, i):
        return ([Q.kernels[k][i] for Q in measures if Q.charges(k, i)]
                or [Q.kernels[k][i] for Q in measures])

    return RectangularFamily(lat, tuple(tuple(kernel_set(k, i) for i in range(lat.n_nodes(k)))
                                        for k in range(lat.n_times - 1)))


def enumerate_selections(rf: RectangularFamily, cap: int = 4096) -> List[Measure]:
    """All node-wise kernel choices as path-law measures (brute-force oracle)."""
    lat = rf.lattice
    sets = [kernels for level in rf.node_kernels for kernels in level]
    count = int(np.prod([len(kernels) for kernels in sets]))
    if count > cap:
        raise ValueError(f"selection count {count} exceeds cap {cap}")
    bounds = np.cumsum([0] + [lat.n_nodes(k) for k in range(lat.n_times - 1)])
    return [Measure(lat, tuple(combo[a:b] for a, b in zip(bounds[:-1], bounds[1:])))
            for combo in itertools.product(*sets)]


def robust_evaluate(rf: RectangularFamily, X: RandomVariable, s: int) -> RandomVariable:
    """sup over the rectangular family of E(-X | B_s), by backward recursion.

    V_t = -X and V_u(n) = max over node-n kernels of <kernel, V_{u+1}>; the
    maximum over selections is attained node-wise, so this equals the
    enumeration oracle exactly.
    """
    lat = rf.lattice
    t = X.t
    if s > t:
        raise ValueError("need s <= t")
    return RandomVariable(lat, s, _backward(lat, s, -X.values, rf.flat_kernels[s:t]))


def all_stopping_times(lattice: ScenarioLattice, cap: int = 10000) -> List[StoppingTime]:
    """Every stopping time of a (small) lattice, by stop-or-continue recursion."""
    from .lattice import NodeRef

    def expand(t: int, i: int):
        options = [[NodeRef(t, i)]]
        if t < lattice.terminal:
            child_sets = [expand(t + 1, int(j)) for j in lattice.children[t][i]]
            for combo in itertools.product(*child_sets):
                options.append([n for sub in combo for n in sub])
        if len(options) > cap:
            raise ValueError("too many stopping times to enumerate")
        return options

    return [StoppingTime(frozenset(nodes)) for nodes in expand(0, 0)]


def rectangular_to_json(rf: RectangularFamily) -> str:
    entries = [{"node": [k, i], "kernels": [w.tolist() for w in kernels]}
               for k, level in enumerate(rf.node_kernels) for i, kernels in enumerate(level)]
    return json.dumps({"node_kernels": entries}, sort_keys=True)


def rectangular_from_json(text: str, lattice: ScenarioLattice) -> RectangularFamily:
    doc = json.loads(text)
    levels = [[None] * lattice.n_nodes(k) for k in range(lattice.n_times - 1)]
    for entry in doc["node_kernels"]:
        k, i = entry["node"]
        levels[k][i] = tuple(np.asarray(w, dtype=float) for w in entry["kernels"])
    for k, level in enumerate(levels):
        if any(v is None for v in level):
            raise ValueError(f"missing kernel set at time index {k}")
    return RectangularFamily(lattice, tuple(tuple(level) for level in levels))
