"""Conditional convex risk measures in dual form.

A conditional risk measure between times s and t is a finite set of
(measure, penalty) components, stored as stacked per-level kernel and
penalty arrays, and evaluated node-wise as

    rho(X)(n) = max_k ( E_{Q_k}(-X | n) - alpha_k(n) ),

a maximum of affine functions of X.  The minimal penalty of an arbitrary
measure Q is the convex conjugate of that evaluator: at each time-s node it
is the cheapest convex-combination cost of writing Q's conditional subtree
law as a mixture of the components' laws (+inf when no mixture reaches it).
The part of that linear program that Q does not enter, the constraint
matrices restated on their singular vectors, is factored once per
representation.  A node whose components are linearly independent has at
most one feasible point, found by one linear solve; the others are solved
exactly by a two-phase tableau simplex under Bland's pivot rule.  The SVD and
the linear solve are batched over the nodes of one shape; the simplex sets up
their tableaux together and pivots each node's own in Python floats, which
at these sizes costs less than numpy's per-call overhead.  The tests check
them against a brute-force oracle over a growing box, a basis enumeration and
HiGHS, and the simplex bit for bit against the batched one it replaced.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, inf
from typing import NamedTuple, Optional

import json
import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, _check_integer, _levels, lift
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
    """Conditional risk measure rho_{s,t} as (measure, penalty) components, for
    integer time indices 0 <= s <= t <= T (numpy integers too, not bools),
    stored stacked: per time index u in [s, t) the (K, n_{u+1}) ``kernels``,
    and the (K, n_s) ``penalties``, real or +inf, one finite per time-s node.
    ``components[k]`` is the k-th (Measure, penalty) pair, built on first
    read when ``expand_dual`` passes stacked arrays.  Given components, the
    members' joined kernels are stacked once and each level is a view of
    its columns.  An optional reference measure carries the restriction
    discipline for minimal penalties.  The stacked arrays are read-only:
    the factored penalty LPs are built from them once."""

    s: int
    t: int
    components: Sequence  # of (Measure, RandomVariable at s)
    reference: Optional[Measure] = None

    lattice: ScenarioLattice = field(default=None, init=False, repr=False)
    kernels: tuple = field(default=None, init=False, repr=False)
    penalties: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_integer(self.s)
        _check_integer(self.t)
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
            pen = np.array([a.values for _, a in comps])
            # every level at once: each level's (K, n_{u+1}) columns of the
            # members' joined kernels
            kernels = _levels(lat, np.array([Q._kernel_buffer for Q, _ in comps]))[self.s:self.t]
        if not 0 <= self.s <= self.t:
            raise ValueError("need 0 <= s <= t")
        if self.t > lat.terminal:
            raise ValueError(f"time index t={self.t} beyond the terminal index {lat.terminal}")
        if not np.all(pen > -np.inf):
            raise ValueError("penalties must be real or +inf")
        if np.any(np.all(np.isinf(pen), axis=0)):
            raise ValueError("every time-s node needs a finite-penalty component")
        kernels = tuple(kernels)
        for w in (pen, *kernels):
            w.flags.writeable = False
        for name, value in (("components", comps), ("lattice", lat),
                            ("kernels", kernels), ("penalties", pen)):
            object.__setattr__(self, name, value)

    @cached_property
    def _node_lps(self) -> tuple:
        """The part of ``minimal_penalty`` that Q does not enter, built on first
        use: the time-s nodes grouped by subtree width and finite components,
        each group's constraint matrices factored by one batched SVD, as one
        ``_NodeLPs`` per group and rank."""
        lat, s = self.lattice, self.s
        # every component's subtree laws; node n's time-t leaves are edge[n]:edge[n + 1]
        laws, edge = np.ones(self.penalties.shape), np.arange(lat.n_nodes(s) + 1)
        for u, w in enumerate(self.kernels, s):
            laws, edge = laws[:, lat.parents[u + 1]] * w, lat.offsets[u][edge]
        laws = np.hstack([laws, np.ones((len(laws), 1))])  # column -1: the simplex row
        finite = np.isfinite(self.penalties)
        groups = {}
        for n in range(lat.n_nodes(s)):
            groups.setdefault((int(edge[n + 1] - edge[n]), finite[:, n].tobytes()), []).append(n)
        out = []
        for (width, _), nodes in groups.items():
            nodes = np.array(nodes)
            rows = edge[nodes, None] + np.arange(width + 1)
            rows[:, -1] = -1
            fin = finite[:, nodes[0]]
            M = laws[fin][:, rows].transpose(1, 2, 0)
            U, sv, _ = np.linalg.svd(M, full_matrices=False)
            rank = np.sum(sv > _TOL, axis=1)
            c = self.penalties[fin][:, nodes].T
            for r in np.unique(rank).tolist():
                i = np.flatnonzero(rank == r)
                Ur = U[i, :, :r]
                out.append(_NodeLPs(nodes[i], rows[i], Ur,
                                    np.matmul(Ur.transpose(0, 2, 1), M[i]), c[i]))
        return tuple(out)


class _Stacked(Sequence):
    """Components as (K, n_{u+1}) normalized kernels at every time index u,
    or one (1, n_{u+1}) row that every component shares, and (K, n_s)
    penalties; the k-th (Measure, penalty) pair is built on first read."""

    def __init__(self, lattice: ScenarioLattice, s: int, kernels, penalties):
        self.lattice, self.s, self.kernels, self.penalties = lattice, s, kernels, penalties
        self._built = {}  # k -> (Measure, penalty)

    def __len__(self):
        return len(self.penalties)

    def __getitem__(self, k):
        k = range(len(self))[k]
        if k not in self._built:
            joined = np.concatenate([w[min(k, len(w) - 1)] for w in self.kernels])
            self._built[k] = (Measure._from_flat(self.lattice, joined),
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
    penalty at n are excluded.  The part of these problems that does not
    depend on Q is factored once per representation (``DualRep._node_lps``);
    a call restates Q's subtree laws on it and solves (see ``_node_penalties``).
    """
    if Q.lattice is not rep.lattice:
        raise ValueError("measure and representation live on different lattices")
    if rep.reference is not None:
        status = check_restriction(Q, rep.reference, rep.s)
        if status != "equal":
            raise ValueError(f"restriction of Q to B_{rep.s} is {status}, "
                             "expected equal to the reference")
    target = np.append(Q.subtree_laws(rep.s, rep.t), 1.0)  # entry -1: the simplex row
    out = np.full(rep.lattice.n_nodes(rep.s), np.inf)
    for lp in rep._node_lps:
        out[lp.nodes] = _node_penalties(lp, target[lp.rows], rep.s)
    return RandomVariable(rep.lattice, rep.s, out, allow_infinite=True)


class _NodeLPs(NamedTuple):
    """The time-s nodes that share a subtree width w, a set of k finite
    components and the rank r of their (w + 1, k) constraint matrices M (last
    row: the simplex), with M's r leading left singular vectors U and M
    restated on them."""

    nodes: np.ndarray  # (G,) time-s nodes
    rows: np.ndarray   # (G, w + 1) the target entries of each node's rows
    U: np.ndarray      # (G, w + 1, r)
    A: np.ndarray      # (G, r, k): U^T M
    c: np.ndarray      # (G, k) the finite penalties


def _node_penalties(lp: _NodeLPs, b: np.ndarray, s: int) -> np.ndarray:
    """Per node i, min c_i.lam subject to lam >= 0 and M_i lam = b_i, +inf when
    infeasible.  b_i must lie in M_i's span; the problem is then restated on
    U_i's r independent rows.  At full column rank (r = k) its one solution is
    solved for, batched over the nodes; otherwise their tableaux are set up
    together and each node's is solved on its own (``_two_phase``)."""
    Ut = lp.U.transpose(0, 2, 1)
    b_r = np.matmul(Ut, b[..., None])
    reach = np.abs(np.matmul(lp.U, b_r)[..., 0] - b).max(axis=1) <= _TOL
    out = np.full(len(b), np.inf)
    if not reach.any():
        return out
    i = np.flatnonzero(reach)
    A, b_r, c = lp.A[i], b_r[i], lp.c[i]
    r, k = A.shape[1:]
    if r == k:
        # the one point M lam = b; snapped as the simplex reads a basic solution
        lam = np.linalg.solve(A, b_r)[..., 0]
        ok = (lam >= -_TOL).all(axis=1)
        out[i[ok]] = np.sum(np.where(lam[ok] <= _TOL, 0.0, lam[ok]) * c[ok], axis=1)
        return out
    sign = np.where(b_r < 0, -1.0, 1.0)
    # rows: r constraints, signed so that b >= 0, then the reduced costs of phase 2
    # (the penalty) and phase 1 (the artificials); columns: k components and b.
    # No pivot reads an artificial's column, so the tableau leaves them out
    A = sign * np.concatenate([A, b_r], axis=2)
    cost = np.concatenate([c, np.zeros((i.size, 1))], axis=1)
    T = np.concatenate([A, cost[:, None], -A.sum(axis=1, keepdims=True)], axis=1)
    cap = comb(k + r, r)
    solved = [_two_phase(tableau, k, cap, (s, n))
              for n, tableau in zip(lp.nodes[i].tolist(), T.tolist())]
    keep = [j for j, sol in enumerate(solved) if sol]
    if not keep:
        return out
    i, basis = i[keep], np.array([solved[j][0] for j in keep])
    x = np.array([solved[j][1] for j in keep])
    # the cost of the basic solution, as the objective row would price a
    # zero-penalty member at rounding error rather than 0.0
    lam = np.where(x <= _TOL, 0.0, x)
    out[i] = np.sum(lam * lp.c[i[:, None], basis], axis=1)
    return out


def _two_phase(T: list, k: int, cap: int, node: tuple):
    """Solve one node's tableau T, rows of Python floats (r constraints, then the
    reduced costs of phases 2 and 1; columns: k components, then b), from the
    basis of artificials k, ..., k + r - 1.  Returns the optimal basis and its b
    column, or None when no lam >= 0 solves the constraints."""
    r = len(T) - 2
    basis = list(range(k, k + r))
    _simplex(T, basis, k, cap, node)  # phase 1
    left = 0.0  # the artificials still basic, summed in row order
    for row, j in zip(T, basis):
        if j >= k:
            left += row[-1]
    if left > _TOL:
        return None
    # pivot out the artificials left at 0: independent rows give each a non-zero entry
    for row, j in enumerate(basis):
        if j >= k:
            a = [abs(v) for v in T[row][:k]]
            _pivot(T, basis, row, a.index(max(a)))
    del T[-1]  # phase 2 prices by the penalty's reduced costs alone
    _simplex(T, basis, k, cap, node)  # phase 2
    return basis, [row[-1] for row in T[:r]]


def _simplex(T: list, basis: list, k: int, cap: int, node: tuple) -> None:
    """Pivot one node's tableau T (last row: reduced costs, last column: b) in
    place until no column below k prices below -_TOL.  Bland's rule (the lowest
    such column enters; a ratio tie leaves by the lowest basic index) visits at
    most ``cap`` bases."""
    for pivots in range(cap + 1):
        cost = T[-1]
        for col in range(k):
            if cost[col] < -_TOL:
                break
        else:
            return
        row, best = None, inf
        for i, j in enumerate(basis):
            d = T[i][col]
            if d > _TOL:
                ratio = T[i][-1] / d
                if ratio < best or ratio == best and (row is None or j < basis[row]):
                    row, best = i, ratio
        if best == inf or pivots == cap:
            raise RuntimeError(f"penalty LP at node {node}: no optimum in {cap} pivots")
        _pivot(T, basis, row, col)


def _pivot(T: list, basis: list, row: int, col: int) -> None:
    """Pivot T on its (row, col) entry: col enters the basis."""
    d = T[row][col]
    piv = [v / d for v in T[row]]
    for i, t in enumerate(T):
        if i != row:
            f = t[col]
            T[i] = [v - f * p for v, p in zip(t, piv)]
    T[row] = piv
    basis[row] = col


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
