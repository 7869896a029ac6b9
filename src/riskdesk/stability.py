"""Pasting of measures at stopping times, stability checks and the
rectangular hull with its robust backward recursion.

Pasting glues one measure's kernels strictly before a stopping time to
another's at and after it (density freezing).  A family closed under all
such pastings is stable, and pasting at one node at a time decides it.
The computable surrogate is the rectangular (node-wise kernel set) hull,
whose selections are exactly the measures reachable by finitely many
pastings on small lattices -- verified by enumeration in the tests rather
than assumed.  ``is_stable`` reads each member as its selection of hull
menu rows, so the hull's rule for kernels that count as one (the first
kept kernel within 1e-12, in member order) is the only such rule, and it
compares interned selections per node instead of visiting member pairs.
The hull is a one-step structure (``dynamics.OneStepStructure``)
whose menus are each node's member kernels at penalty 0, so its robust
recursion is the structure's own ``rho``: the sublinear, zero-penalty case
of the convex dynamic risk measures, run by the one backward-induction helper.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .lattice import (NodeRef, RandomVariable, ScenarioLattice, StoppingTime, _levels, _node_at,
                      _per_child, _per_parent, validate_stopping_time)
from .dynamics import _EXPANSION_CAP, OneStepStructure, expand_dual
from .measures import Measure, _kernel_gap, _normalized

__all__ = [
    "paste",
    "is_stable",
    "rectangular_hull",
    "enumerate_selections",
    "robust_evaluate",
]

_SAME_KERNEL_TOL = 1e-12  # the largest gap between two kernels that count as one


def _stopped_mask(lattice: ScenarioLattice, tau: StoppingTime) -> np.ndarray:
    """Per node, every node in time order: True iff the node is at or after
    the stopping time."""
    mask = np.zeros(sum(p.size for p in lattice.parents), dtype=bool)
    levels = _levels(lattice, mask)
    for n in tau.stops:
        levels[n.t][n.i] = True
    for t, (above, level) in enumerate(zip(levels, levels[1:]), 1):
        level |= above[lattice.parents[t]]
    return mask


def paste(P: Measure, Q: Measure, tau: StoppingTime) -> Measure:
    """Q's kernels strictly before tau, P's kernels at and after tau.

    Requires Q << P node-wise; equivalently the density process of the
    result w.r.t. P is that of Q frozen at tau.  Every level at once: the
    absolute continuity on the joined node probabilities, the choice of
    kernel by one ``np.where`` over the joined kernels, normalized as
    ``Measure`` normalizes them.
    """
    lat = P.lattice
    if Q.lattice is not lat:
        raise ValueError("measures live on different lattices")
    ok, witness = validate_stopping_time(lat, tau.stops)
    if not ok:
        raise ValueError(f"invalid stopping time, witness path {witness}")
    bad = (Q._prob_buffer > 0) & (P._prob_buffer == 0)
    if bad.any():
        raise ValueError("Q is not absolutely continuous w.r.t. P at node ({},{})".format(
            *_node_at(lat, int(np.argmax(bad)))))
    stopped = _stopped_mask(lat, tau)[:-lat.n_nodes(lat.terminal)]  # the non-terminal nodes
    flat = np.where(_per_child(lat, stopped), P._kernel_buffer, Q._kernel_buffer)
    return Measure._from_flat(lat, _normalized(lat, flat))


def is_stable(measures: Sequence[Measure]):
    """True iff every admissible pasting stays in the family.

    Pasting at one node at a time decides it: a pasting at a stopping time
    is a chain of pastings at its stop nodes, each link dominated by P and
    so replaceable by the member it coincides with (m-stability, Delbaen
    2006; rectangularity, Epstein & Schneider 2003).  Kernels count as one
    by the hull's rule, which follows member order: each member is its
    selection of ``rectangular_hull(measures)`` menu rows, per non-terminal
    node the first row within 1e-12 of its kernel, or -1 where it leaves
    the node null; every member's picks come from one ``_kernel_gap`` of
    the members' joined kernels against the hull's joined menus.  For
    Q << P node-wise and Q charging node n, R_n = paste(P, Q, tau_n),
    tau_n stopping at n on the paths through n and at T elsewhere, selects
    Q's rows outside n's subtree and P's inside it, and some member must
    select both.  So per node, members are interned by their outside and
    inside selections, and every (outside of Q, inside of P) pair must be
    some member's.  Returns (bool, the first missing R_n or None).
    """
    if not measures:
        return True, None
    hull = rectangular_hull(measures)
    lat, T = hull.lattice, hull.lattice.terminal
    charged = np.stack([M._prob_buffer > 0.0 for M in measures])
    # per member and non-terminal node, in time order: its selection, every
    # level at once on the joined kernels
    near = _kernel_gap(lat, np.stack([M._kernel_buffer for M in measures])[:, None],
                       hull._kernel_buffer) <= _SAME_KERNEL_TOL
    picks = np.where(charged[:, :-lat.n_nodes(T)], np.argmax(near, axis=1), -1)
    patterns, pattern = np.unique(charged, axis=0, return_inverse=True)
    pattern = pattern.reshape(-1)  # numpy 2.0 changed the inverse's shape
    dominates = ~(patterns @ ~patterns.T)  # [a, b]: pattern a << pattern b
    # col: n's column in charged and picks; at the root, R_n is P
    for col, n in enumerate([n for k in range(T) for n in lat.node_refs(k)][1:], 1):
        inside = np.concatenate([lat.ancestors_of_slice(u, n.t) == n.i if u >= n.t
                                 else np.zeros(lat.n_nodes(u), dtype=bool) for u in range(T)])
        o_ids, i_ids = (np.unique(picks[:, side], axis=0, return_inverse=True)[1].reshape(-1)
                        for side in (~inside, inside))
        # has[o, i]: a member selects o outside and i inside; holds[a, i]: a
        # member of charge pattern a selects i inside
        has = np.zeros((o_ids.max() + 1, i_ids.max() + 1), dtype=bool)
        has[o_ids, i_ids] = True
        holds = np.zeros((len(patterns), has.shape[1]))
        holds[pattern, i_ids] = 1.0
        # per distinct (pattern, outside) of a Q charging n: the insides of
        # every P with Q << P that no member pairs with Q's outside
        keys, first = np.unique((pattern * len(has) + o_ids)[charged[:, col]], return_index=True)
        missing = (dominates @ holds > 0)[keys // len(has)] & ~has[keys % len(has)]
        if missing.any():  # tau_n: n on the paths through n, T on the others
            j, i = np.argwhere(missing)[0]
            q = np.flatnonzero(charged[:, col])[first[j]]
            p = np.flatnonzero(dominates[pattern[q], pattern] & (i_ids == i))[0]
            stops = [NodeRef(T, m) for m in np.flatnonzero(lat.ancestors_of_slice(T, n.t) != n.i)]
            return False, paste(measures[p], measures[q], StoppingTime(frozenset([n] + stops)))
    return True, None


def rectangular_hull(measures: Sequence[Measure]) -> OneStepStructure:
    """Node-wise kernel sets {kernel of Q at n : Q charges n}, less any kernel
    within 1e-12 of an earlier kept one, as a one-step structure at penalty 0.

    Falls back to all member kernels at a node no member charges (the value
    there never enters a charged expectation).  Every level is built at
    once, on the members' joined kernels and node probabilities, into the
    joined menus that the structure stores; duplicates are still dropped
    member by member, each against every earlier one.
    """
    if not measures:
        raise ValueError("the rectangular hull needs at least one measure")
    lat = measures[0].lattice
    if any(Q.lattice is not lat for Q in measures):
        raise ValueError("measures live on different lattices")
    # every level at once, on the members' joined kernels and node probabilities
    w = np.stack([Q._kernel_buffer for Q in measures])
    w = w / _per_child(lat, _per_parent(lat, None, w))
    keep = np.stack([Q._prob_buffer[:-lat.n_nodes(lat.terminal)] > 0.0 for Q in measures])
    keep |= ~keep.any(axis=0)
    for j in range(1, len(measures)):
        dup = _kernel_gap(lat, w[:j], w[j]) <= _SAME_KERNEL_TOL
        keep[j] &= ~np.any(keep[:j] & dup, axis=0)
    size = keep.sum(axis=0)
    # per node the kept members first, in order, padded with the last
    first = np.argsort(~keep, axis=0, kind="stable")
    rows = np.take_along_axis(first, np.minimum(np.arange(size.max())[:, None], size - 1), axis=0)
    kernels = w[_per_child(lat, rows), np.arange(w.shape[1])]
    return OneStepStructure._from_flat(lat, kernels, np.zeros(rows.shape), size)


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
