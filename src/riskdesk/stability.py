"""Pasting of measures at stopping times, stability checks and the
rectangular hull with its robust backward recursion.

Pasting glues one measure's kernels strictly before a stopping time to
another's at and after it (density freezing).  A family closed under all
such pastings is stable; the computable surrogate is the rectangular
(node-wise kernel set) hull, whose selections are exactly the measures
reachable by finitely many pastings on small lattices -- verified by
enumeration in the tests rather than assumed.  The hull is a one-step
structure (``dynamics.OneStepStructure``) whose menus are each node's member
kernels at penalty 0, so its robust recursion is the sublinear dynamic risk
measure that structure generates: the zero-penalty case of the convex ones,
run by the one backward-induction helper.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from .lattice import (RandomVariable, ScenarioLattice, StoppingTime,
                      validate_stopping_time)
from .dynamics import OneStepStructure, build_dynamic, expand_dual
from .measures import Measure, _kernel_gap, charged_mask

__all__ = [
    "paste",
    "is_stable",
    "rectangular_hull",
    "enumerate_selections",
    "robust_evaluate",
    "all_stopping_times",
]

_DEDUP_TOL = 1e-12


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


def rectangular_hull(measures: Sequence[Measure]) -> OneStepStructure:
    """Node-wise kernel sets {kernel of Q at n : Q charges n}, less any kernel
    within 1e-12 of an earlier kept one, as a one-step structure at penalty 0.

    Falls back to all member kernels at a node no member charges (the value
    there never enters a charged expectation).
    """
    lat = measures[0].lattice
    kernels, sizes = [], []
    for k in range(lat.n_times - 1):
        par = lat.parents[k + 1]
        w = np.stack([Q.flat_kernels[k] for Q in measures])
        w = w / np.add.reduceat(w, lat.offsets[k][:-1], axis=-1)[:, par]
        keep = np.stack([charged_mask(Q, k) for Q in measures])
        keep |= ~keep.any(axis=0)
        for j in range(1, len(measures)):
            dup = _kernel_gap(lat, k, w[:j], w[j]) <= _DEDUP_TOL
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


def enumerate_selections(structure: OneStepStructure, cap: int = 4096) -> List[Measure]:
    """All node-wise kernel choices as path-law measures (brute-force oracle)."""
    rep = expand_dual(build_dynamic(structure), 0, structure.lattice.terminal, cap)
    return [Q for Q, _ in rep.components]


def robust_evaluate(structure: OneStepStructure, X: RandomVariable, s: int) -> RandomVariable:
    """The dynamic risk measure the structure generates, rho_{s,t}(X) for X at
    t: on a hull, where every penalty is 0, the sup over the node-wise kernel
    selections of E(-X | B_s).  The maximum over selections is attained
    node-wise, so this equals the enumeration oracle exactly."""
    return build_dynamic(structure).rho(s, X.t, X)


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
