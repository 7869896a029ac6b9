"""Conditional convex risk measures in dual form.

A conditional risk measure between times s and t is a finite set of
(measure, penalty) components, stored as stacked per-level kernel and
penalty arrays, and evaluated node-wise as

    rho(X)(n) = max_k ( E_{Q_k}(-X | n) - alpha_k(n) ),

a maximum of affine functions of X.  The minimal penalty of an arbitrary
measure Q is the convex conjugate of that evaluator: at each time-s node it
is the cheapest convex-combination cost of writing Q's conditional subtree
law as a mixture of the components' laws (+inf when no mixture reaches it).
That linear program is solved exactly by a two-phase tableau simplex under
Bland's pivot rule, batched over the nodes of one shape; the tests check it
against a brute-force oracle over a growing box and against HiGHS.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import json
import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, lift
from .measures import (Measure, charged_mask, check_restriction, measure_from_json,
                       measure_to_json)

__all__ = [
    "DualRep",
    "rm_evaluate",
    "minimal_penalty",
    "partition_combine",
    "acceptance_check",
    "strong_convexity_check",
    "dualrep_to_json",
    "dualrep_from_json",
]


@dataclass(frozen=True, eq=False)
class DualRep:
    """Conditional risk measure rho_{s,t} as (measure, penalty) components,
    stored stacked: per time index u in [s, t) the (K, n_{u+1}) ``kernels``,
    and the (K, n_s) ``penalties``, real or +inf, one finite per time-s node.
    ``components[k]`` is the k-th (Measure, penalty) pair, built on first
    read when ``expand_dual`` passes stacked arrays.  An optional reference
    measure carries the restriction discipline for minimal penalties."""

    s: int
    t: int
    components: Sequence  # of (Measure, RandomVariable at s)
    reference: Optional[Measure] = None

    lattice: ScenarioLattice = field(default=None, init=False, repr=False)
    kernels: tuple = field(default=None, init=False, repr=False)
    penalties: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        comps = self.components
        if isinstance(comps, _Stacked):
            lat, pen, kernels = comps.lattice, comps.penalties, comps.kernels[self.s:self.t]
        else:
            comps = tuple(comps)
            if not comps:
                raise ValueError("a dual representation needs at least one component")
            lat = comps[0][0].lattice
            for Q, a in comps:
                if Q.lattice is not lat or a.lattice is not lat or a.t != self.s:
                    raise ValueError("components must share the lattice; penalties at time s")
            pen = np.stack([a.values for _, a in comps])
            kernels = map(np.stack, zip(*(Q.flat_kernels[self.s:self.t] for Q, _ in comps)))
        if not 0 <= self.s <= self.t:
            raise ValueError("need 0 <= s <= t")
        if self.t > lat.terminal:
            raise ValueError(f"time index t={self.t} beyond the terminal index {lat.terminal}")
        if not np.all(pen > -np.inf):
            raise ValueError("penalties must be real or +inf")
        if np.any(np.all(np.isinf(pen), axis=0)):
            raise ValueError("every time-s node needs a finite-penalty component")
        for name, value in (("components", comps), ("lattice", lat),
                            ("kernels", tuple(kernels)), ("penalties", pen)):
            object.__setattr__(self, name, value)


class _Stacked(Sequence):
    """Components as (K, n_{u+1}) normalized kernels at every time index u and
    (K, n_s) penalties; the k-th (Measure, penalty) pair is built on first read."""

    def __init__(self, lattice: ScenarioLattice, s: int, kernels, penalties):
        self.lattice, self.s, self.kernels, self.penalties = lattice, s, kernels, penalties
        self._built = {}  # k -> (Measure, penalty)

    def __len__(self):
        return len(self.penalties)

    def __getitem__(self, k):
        k = range(len(self))[k]
        if k not in self._built:
            self._built[k] = (Measure._from_flat(self.lattice, [w[k] for w in self.kernels]),
                              RandomVariable(self.lattice, self.s, self.penalties[k],
                                             allow_infinite=True))
        return self._built[k]


def rm_evaluate(rep: DualRep, X: RandomVariable, return_argmax: bool = False):
    """Node-wise max over components of E_{Q_k}(-X | node) - alpha_k(node).

    Infinite-penalty components are skipped; ties resolve to the lowest
    component index (deterministic golden tests).
    """
    if X.t != rep.t:
        raise ValueError(f"X must live at time index {rep.t}, got {X.t}")
    if X.lattice is not rep.lattice:
        raise ValueError("X lives on a different lattice")
    table = _component_values(rep, -X.values)
    arg = np.argmax(table, axis=0)  # first max wins
    out = RandomVariable(rep.lattice, rep.s, table[arg, np.arange(table.shape[1])])
    return (out, arg) if return_argmax else out


def _component_values(rep: DualRep, g) -> np.ndarray:
    """E_{Q_k}(g | B_s) - alpha_k of (..., n_t) values g at t, per component k
    and time-s node, in one recursion: (..., K, n_s), -inf at infinite alpha_k."""
    ce = _backward(rep.lattice, rep.s, g[..., None, :], [w[:, None, :] for w in rep.kernels])
    return np.where(np.isinf(rep.penalties), -np.inf, ce - rep.penalties)


# One tolerance decides rank, reach, non-negativity and optimality in a node's
# mixture problem; its entries are probabilities, so it is absolute.  The tests
# give it to HiGHS as primal feasibility tolerance: both draw one +inf boundary.
_TOL = 1e-10
_ACCEPT_TOL = 1e-9  # how far above 0 a risk still counts as accepted


def minimal_penalty(rep: DualRep, Q: Measure) -> RandomVariable:
    """Convex conjugate of the evaluator at Q, node-wise.

    At time-s node n, solves  min sum_k lam_k alpha_k(n)  subject to
    lam in the simplex and  sum_k lam_k q_k(n, .) = q(n, .)  on the time-t
    descendants; +inf when no such lam exists.  Components with infinite
    penalty at n are excluded.  Nodes with the same subtree width and the
    same finite components are solved together (see ``_node_penalties``).
    """
    if rep.reference is not None:
        status = check_restriction(Q, rep.reference, rep.s)
        if status != "equal":
            raise ValueError(f"restriction of Q to B_{rep.s} is {status}, "
                             "expected equal to the reference")
    lat, s = rep.lattice, rep.s
    # every component's subtree laws; node n's time-t leaves are edge[n]:edge[n + 1]
    laws, edge = np.ones(rep.penalties.shape), np.arange(lat.n_nodes(s) + 1)
    for u, w in enumerate(rep.kernels, s):
        laws, edge = laws[:, lat.parents[u + 1]] * w, lat.offsets[u][edge]
    laws = np.hstack([laws, np.ones((len(laws), 1))])  # column -1: the simplex row
    target = np.append(Q.subtree_laws(s, rep.t), 1.0)
    finite = np.isfinite(rep.penalties)
    groups = {}
    for n in range(lat.n_nodes(s)):
        groups.setdefault((int(edge[n + 1] - edge[n]), finite[:, n].tobytes()), []).append(n)
    out = np.empty(lat.n_nodes(s))
    for (width, _), nodes in groups.items():
        rows = np.c_[edge[nodes, None] + np.arange(width), np.full(len(nodes), -1)]
        fin = finite[:, nodes[0]]
        out[nodes] = _node_penalties(laws[fin][:, rows].transpose(1, 2, 0), target[rows],
                                     rep.penalties[fin][:, nodes].T, [(s, n) for n in nodes])
    return RandomVariable(lat, s, out, allow_infinite=True)


def _node_penalties(M: np.ndarray, b: np.ndarray, c: np.ndarray, nodes) -> np.ndarray:
    """Per node i, min c_i.lam subject to lam >= 0 and M_i lam = b_i (last row:
    the simplex), +inf when infeasible.  With r the numerical rank of M_i, b_i
    must lie in M_i's span; the problem is then restated on r independent rows
    and solved by a two-phase tableau simplex, for all nodes of one rank at once."""
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    rank = np.sum(sv > _TOL, axis=1)
    out, k = np.full(len(M), np.inf), c.shape[1]
    for r in np.unique(rank).tolist():
        i = np.flatnonzero(rank == r)
        Ut = U[i, :, :r].transpose(0, 2, 1)
        b_r = np.matmul(Ut, b[i, :, None])
        reach = np.abs(np.matmul(U[i, :, :r], b_r)[..., 0] - b[i]).max(axis=1) <= _TOL
        i, b_r, sign = i[reach], b_r[reach], np.where(b_r[reach] < 0, -1.0, 1.0)
        # rows: r constraints, signed so that b >= 0, then the reduced costs of phase 2
        # (the penalty) and phase 1 (the artificials); columns: k components, r artificials, b
        A = sign * np.concatenate([np.matmul(Ut[reach], M[i]), sign * np.eye(r), b_r], axis=2)
        cost = np.concatenate([c[i], np.zeros((i.size, r + 1))], axis=1)
        T = np.concatenate([A, cost[:, None], -A.sum(axis=1, keepdims=True)], axis=1)
        basis, cap = np.arange(k, k + r)[None].repeat(i.size, axis=0), comb(k + r, r)
        _simplex(T, basis, k, cap, [nodes[n] for n in i])  # phase 1
        keep = np.sum(T[:, :r, -1], axis=1, where=basis >= k) <= _TOL
        i, T, basis = i[keep], T[keep], basis[keep]
        # pivot out the artificials left at 0: independent rows give each a non-zero entry
        for row in np.flatnonzero((basis >= k).any(axis=0)):
            at = np.flatnonzero(basis[:, row] >= k)
            _pivot(T, basis, at, row, np.argmax(np.abs(T[at, row, :k]), axis=1))
        _simplex(T[:, :-1], basis, k, cap, [nodes[n] for n in i])  # phase 2
        # the cost of the basic solution, as the objective row would price a
        # zero-penalty member at rounding error rather than 0.0
        lam = np.where(T[:, :r, -1] <= _TOL, 0.0, T[:, :r, -1])
        out[i] = np.sum(lam * c[i[:, None], basis], axis=1)
    return out


def _simplex(T: np.ndarray, basis: np.ndarray, k: int, cap: int, names) -> None:
    """Pivot the stacked tableaux T (last row: reduced costs, last column: b) in place
    until no column below k prices below -_TOL.  Bland's rule (the lowest such column
    enters; a ratio tie leaves by the lowest basic index) visits at most ``cap`` bases."""
    r = basis.shape[1]
    for pivots in range(cap + 1):
        enter = T[:, -1, :k] < -_TOL
        at = np.flatnonzero(enter.any(axis=1))
        if not at.size:
            return
        col = np.argmax(enter[at], axis=1)
        d = T[at, :r, col]
        ratio = np.divide(T[at, :r, -1], d, out=np.full(d.shape, np.inf), where=d > _TOL)
        best = ratio.min(axis=1, keepdims=True)
        stuck = at[np.isinf(best[:, 0]) | (pivots == cap)]
        if stuck.size:
            raise RuntimeError(f"penalty LP at node {names[stuck[0]]}: no optimum in {cap} pivots")
        row = np.argmin(np.where(ratio == best, basis[at], T.shape[2]), axis=1)
        _pivot(T, basis, at, row, col)


def _pivot(T: np.ndarray, basis: np.ndarray, at, row, col) -> None:
    """Pivot tableaux ``at`` on their (row, col) entries: col enters the basis."""
    piv = T[at, row] / T[at, row, col][:, None]
    T[at] -= T[at, :, col][:, :, None] * piv[:, None, :]
    T[at, row] = piv
    basis[at, row] = col


def partition_combine(lattice: ScenarioLattice, s: int,
                      pieces: Sequence) -> RandomVariable:
    """Glue time-t variables along a partition of the time-s nodes.

    ``pieces`` is a list of (X_i, iterable of time-s node indices); the sets
    must partition the time-s slice.  The result takes X_i's value at every
    leaf whose time-s ancestor lies in A_i.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    t = pieces[0][0].t
    seen = np.full(lattice.n_nodes(s), -1, dtype=int)
    for idx, (X, nodes) in enumerate(pieces):
        if X.t != t or X.lattice is not lattice:
            raise ValueError("pieces must share the lattice and time index")
        for n in nodes:
            if not 0 <= n < seen.size:
                raise ValueError(f"time-{s} node {n} outside [0, {seen.size})")
            if seen[n] != -1:
                raise ValueError(f"time-{s} node {n} covered twice")
            seen[n] = idx
    if np.any(seen == -1):
        raise ValueError("partition does not cover all time-s nodes")
    leaves = np.arange(lattice.n_nodes(t))
    vals = np.stack([X.values for X, _ in pieces])[seen[lattice.ancestors_of_slice(t, s)], leaves]
    return RandomVariable(lattice, t, vals)


def acceptance_check(rep: DualRep, X: RandomVariable, Q: Optional[Measure] = None):
    """Membership in the acceptance set: rho(X) <= 0 node-wise.

    Without Q, checks every node charged by the representation's reference
    (every node when no reference is attached).  With Q, checks only the
    Q-charged time-s nodes.  Returns (overall, per-node booleans).
    """
    ok = rm_evaluate(rep, X).values <= _ACCEPT_TOL
    P = rep.reference if Q is None else Q
    return bool(np.all(ok if P is None else ok[charged_mask(P, rep.s)])), ok


def strong_convexity_check(rep: DualRep, X: RandomVariable, Y: RandomVariable,
                           f: RandomVariable) -> float:
    """Max node-wise violation of rho(fX + (1-f)Y) <= f rho(X) + (1-f) rho(Y)
    for a time-s weight 0 <= f <= 1; non-positive up to rounding for any
    dual representation."""
    if f.t != rep.s:
        raise ValueError("the weight f must live at time s")
    if np.any(f.values < 0) or np.any(f.values > 1):
        raise ValueError("the weight f must take values in [0, 1]")
    w = lift(f, rep.t).values
    lhs = rm_evaluate(rep, RandomVariable(rep.lattice, rep.t, w * X.values + (1.0 - w) * Y.values))
    rhs = f.values * rm_evaluate(rep, X).values + (1.0 - f.values) * rm_evaluate(rep, Y).values
    return float(np.max(lhs.values - rhs))


def dualrep_to_json(rep: DualRep) -> str:
    comps = [{"measure": json.loads(measure_to_json(Q)),
              "penalty": ["inf" if np.isinf(v) else float(v) for v in alpha.values]}
             for Q, alpha in rep.components]
    return json.dumps({"s": rep.s, "t": rep.t, "components": comps}, sort_keys=True)


def dualrep_from_json(text: str, lattice: ScenarioLattice) -> DualRep:
    doc = json.loads(text)
    s, t = int(doc["s"]), int(doc["t"])
    return DualRep(s, t, tuple(
        (measure_from_json(json.dumps(c["measure"]), lattice),
         RandomVariable(lattice, s, [np.inf if v == "inf" else float(v) for v in c["penalty"]],
                        allow_infinite=True))
        for c in doc["components"]))
