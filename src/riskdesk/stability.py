"""Pasting of measures at stopping times, stability checks and the
rectangular hull with its robust backward recursion.

Pasting glues one measure's kernels strictly before a stopping time to
another's at and after it (density freezing).  A family closed under all
such pastings is stable, and pasting at one node at a time decides it.
The computable surrogate is the rectangular (node-wise kernel set) hull,
whose selections are exactly the measures reachable by finitely many
pastings on small lattices -- verified by enumeration in the tests rather
than assumed.  The hull is a one-step structure (``dynamics.OneStepStructure``)
whose menus are each node's member kernels at penalty 0, so its robust
recursion is the structure's own ``rho``: the sublinear, zero-penalty case
of the convex dynamic risk measures, run by the one backward-induction helper.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Sequence

import numpy as np

from .lattice import (RandomVariable, ScenarioLattice, StoppingTime, _per_parent,
                      validate_stopping_time)
from .dynamics import _EXPANSION_CAP, OneStepStructure, expand_dual
from .measures import Measure, _kernel_gap, charged_mask

__all__ = [
    "paste",
    "is_stable",
    "rectangular_hull",
    "enumerate_selections",
    "robust_evaluate",
]

_SAME_KERNEL_TOL = 1e-12  # the largest gap between two kernels that count as one


def _stopped_mask(lattice: ScenarioLattice, tau: StoppingTime):
    """Per node: True iff the node is at or after the stopping time."""
    masks = [np.zeros(lattice.n_nodes(t), dtype=bool) for t in range(lattice.n_times)]
    for n in tau.stops:
        masks[n.t][n.i] = True
    for t in range(1, lattice.n_times):
        masks[t] |= masks[t - 1][lattice.parents[t]]
    return masks


def paste(P: Measure, Q: Measure, tau: StoppingTime) -> Measure:
    """Q's kernels strictly before tau, P's kernels at and after tau.

    Requires Q << P node-wise; equivalently the density process of the
    result w.r.t. P is that of Q frozen at tau.
    """
    lat = P.lattice
    if Q.lattice is not lat:
        raise ValueError("measures live on different lattices")
    ok, witness = validate_stopping_time(lat, tau.stops)
    if not ok:
        raise ValueError(f"invalid stopping time, witness path {witness}")
    for t in range(lat.n_times):
        bad = np.flatnonzero((Q.node_probabilities(t) > 0) & (P.node_probabilities(t) == 0))
        if bad.size:
            raise ValueError(f"Q is not absolutely continuous w.r.t. P at node ({t},{bad[0]})")
    masks = _stopped_mask(lat, tau)
    return Measure(lat, tuple(
        lat.per_node(k, np.where(masks[k][lat.parents[k + 1]],
                                 P.flat_kernels[k], Q.flat_kernels[k]))
        for k in range(lat.n_times - 1)))


def _off_below(lat: ScenarioLattice, kernels, X: Measure) -> np.ndarray:
    """Per member (rows of the stacked ``kernels``) and node (columns, every
    time index in order): how many nodes of the node's subtree that X charges
    hold a member kernel more than _SAME_KERNEL_TOL off X's."""
    below = [np.zeros((kernels[0].shape[0], lat.n_nodes(lat.terminal)))]
    for k in range(lat.terminal - 1, -1, -1):
        off = _kernel_gap(lat, k, kernels[k], X.flat_kernels[k]) > _SAME_KERNEL_TOL
        below.insert(0, (off & charged_mask(X, k)) + _per_parent(lat, k, below[0]))
    return np.concatenate(below, axis=1)


def is_stable(measures: Sequence[Measure]):
    """True iff every admissible pasting stays in the family.

    Pasting at one node at a time decides it: a pasting at a stopping time
    is a chain of pastings at its stop nodes, each link dominated by P and
    so replaceable by the member it coincides with (m-stability, Delbaen
    2006; rectangularity, Epstein & Schneider 2003).  So for every ordered
    pair (P, Q) with Q << P node-wise and every node n, R_n = paste(P, Q,
    tau_n), tau_n stopping at n on the paths through n and at T elsewhere,
    must coincide at its charged nodes with a member M: M agrees with Q where
    Q charges outside n's subtree and, if Q charges n, with P where P charges
    inside it.  Pairs without Q << P are not constrained.  Returns (bool,
    the first missing R_n or None).
    """
    if not measures:
        return True, None
    lat = measures[0].lattice
    if any(M.lattice is not lat for M in measures):
        raise ValueError("measures live on different lattices")
    T = lat.terminal
    kernels = [np.stack([M.flat_kernels[k] for M in measures]) for k in range(T)]
    nodes = [n for t in range(lat.n_times) for n in lat.node_refs(t)]
    charged = np.stack([np.concatenate([charged_mask(M, t) for t in range(lat.n_times)])
                        for M in measures])
    off = [_off_below(lat, kernels, M) for M in measures]
    for Q, charged_q, off_q in zip(measures, charged, off):
        outside_q = off_q == off_q[:, :1]
        dominating = ~(charged_q & ~charged).any(axis=1)  # Q << P
        for P, off_p in compress(zip(measures, off), dominating):
            fits = outside_q & ((off_p == 0) | ~charged_q)
            missing = np.flatnonzero(~fits.any(axis=0))
            if missing.size:  # tau_n: n on the paths through n, T on the others
                n = nodes[missing[0]]
                below = range(lat.n_nodes(T))[lat.descendant_slice(n.t, n.i, T)]
                others = [m for m in lat.node_refs(T) if m.i not in below]
                return False, paste(P, Q, StoppingTime(frozenset([n] + others)))
    return True, None


def rectangular_hull(measures: Sequence[Measure]) -> OneStepStructure:
    """Node-wise kernel sets {kernel of Q at n : Q charges n}, less any kernel
    within 1e-12 of an earlier kept one, as a one-step structure at penalty 0.

    Falls back to all member kernels at a node no member charges (the value
    there never enters a charged expectation).
    """
    if not measures:
        raise ValueError("the rectangular hull needs at least one measure")
    lat = measures[0].lattice
    if any(Q.lattice is not lat for Q in measures):
        raise ValueError("measures live on different lattices")
    kernels, sizes = [], []
    for k in range(lat.n_times - 1):
        par = lat.parents[k + 1]
        w = np.stack([Q.flat_kernels[k] for Q in measures])
        w = w / _per_parent(lat, k, w)[:, par]
        keep = np.stack([charged_mask(Q, k) for Q in measures])
        keep |= ~keep.any(axis=0)
        for j in range(1, len(measures)):
            dup = _kernel_gap(lat, k, w[:j], w[j]) <= _SAME_KERNEL_TOL
            keep[j] &= ~np.any(keep[:j] & dup, axis=0)
        size = keep.sum(axis=0)
        # per node the kept members first, in order, padded with the last
        first = np.argsort(~keep, axis=0, kind="stable")
        rows = np.take_along_axis(first, np.minimum(np.arange(size.max())[:, None],
                                                    size - 1), axis=0)
        kernels.append(w[rows[:, par], np.arange(par.size)])
        sizes.append(size)
    penalties = [np.zeros((w.shape[0], lat.n_nodes(k))) for k, w in enumerate(kernels)]
    return OneStepStructure._from_flat(lat, kernels, penalties, sizes)


def enumerate_selections(structure: OneStepStructure, cap: int = _EXPANSION_CAP) -> List[Measure]:
    """All node-wise kernel choices as path-law measures (brute-force oracle)."""
    rep = expand_dual(structure, 0, structure.lattice.terminal, cap)
    return [Q for Q, _ in rep.components]


def robust_evaluate(structure: OneStepStructure, X: RandomVariable, s: int) -> RandomVariable:
    """``structure.rho(s, X.t, X)``: on a hull, where every penalty is 0, the
    sup over the node-wise kernel selections of E(-X | B_s), attained
    node-wise, so it equals the enumeration oracle exactly.  Kept only because
    the benchmark calls it; library code calls ``rho``."""
    return structure.rho(s, X.t, X)
