"""Conditional convex risk measures in dual form.

A conditional risk measure between times s and t is a finite set of
(measure, penalty) components, stored as stacked per-level kernel and
penalty arrays, and evaluated node-wise as

    rho(X)(n) = max_k ( E_{Q_k}(-X | n) - alpha_k(n) ),

a maximum of affine functions of X.  The minimal penalty of an arbitrary
measure Q is the convex conjugate of that evaluator: at each time-s node it
is the cheapest convex-combination cost of writing Q's conditional subtree
law as a mixture of the components' laws (+inf when no mixture reaches it).
That linear program is solved exactly without a solver: its optimum lies at
a vertex of a bounded polytope, and every vertex is the basic solution of
some basis of independent columns, so the nodes enumerate their bases in
batched solves.  Only a node with more than ``_MAX_BASES`` bases goes to a
HiGHS linear program.  A brute-force oracle over a growing box validates
this in the tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
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


# One tolerance decides rank, reach, non-negativity and residual of a node's
# mixture problem; its entries are probabilities, so it is absolute.  HiGHS
# takes it as its primal feasibility tolerance, so both paths draw the same
# +inf boundary.
_TOL = 1e-10
# Above this many bases a node goes to HiGHS: near 1,000 the batched
# enumeration takes as long as one HiGHS call, about 2.5 ms.
_MAX_BASES = 1000
_BATCH = 1 << 20  # entries of the basis matrices solved in one batch: 8 MB
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


@lru_cache(maxsize=128)
def _bases(k: int, r: int) -> np.ndarray:
    """All r-subsets of k columns, one per row, in lexicographic order."""
    out = np.array(list(combinations(range(k), r)), dtype=np.intp).reshape(-1, r)
    out.setflags(write=False)
    return out


def _node_penalties(M: np.ndarray, b: np.ndarray, c: np.ndarray, nodes) -> np.ndarray:
    """Per node i, min c_i.lam subject to lam >= 0 and M_i lam = b_i (last
    row: the simplex), +inf when infeasible.  With r the numerical rank of
    M_i, b_i must lie in M_i's span; the optimum is then the cheapest
    non-negative basic solution over all r-column bases, solved in the span
    for all nodes of one rank at once.  Above ``_MAX_BASES`` bases: HiGHS."""
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    rank = np.sum(sv > _TOL, axis=1)
    out = np.full(len(M), np.inf)
    for r in np.unique(rank).tolist():
        at = np.flatnonzero(rank == r)
        if comb(c.shape[1], r) > _MAX_BASES:
            out[at] = [_highs_penalty(M[i], b[i], c[i], nodes[i]) for i in at]
            continue
        bases = _bases(c.shape[1], r)
        for i in np.array_split(at, -(-at.size * bases.size * r // _BATCH)):
            Ut = U[i, :, :r].transpose(0, 2, 1)
            # (..., r, 1) right-hand sides: numpy 1 and 2 broadcast 2-D ones differently
            b_r = np.matmul(Ut, b[i, :, None])
            reach = np.abs(np.matmul(U[i, :, :r], b_r)[..., 0] - b[i]).max(axis=1) <= _TOL
            B = np.matmul(Ut, M[i])[:, :, bases].transpose(0, 2, 1, 3)  # (i, bases, r, r)
            # drop the singular bases, judged against M's own scale: by Cauchy-
            # Binet the squared determinants of all bases sum to the product of
            # the r squared singular values, so the best-conditioned one stays
            regular = np.abs(np.linalg.det(B)) > _TOL * np.prod(sv[i, :r], axis=1)[:, None]
            node, basis = np.nonzero(regular & reach[:, None])
            lam = np.linalg.solve(B[node, basis], b_r[node])[..., 0]
            cols, node = bases[basis], i[node]
            resid = np.matmul(np.take_along_axis(M[node], cols[:, None, :], axis=2),
                              lam[..., None])[..., 0] - b[node]
            keep = (lam >= -_TOL).all(axis=1) & (np.abs(resid) <= _TOL).all(axis=1)
            lam = np.where(lam[keep] <= _TOL, 0.0, lam[keep])
            cost = np.sum(lam * np.take_along_axis(c[node[keep]], cols[keep], axis=1), axis=1)
            np.minimum.at(out, node[keep], cost)
    return out


def _highs_penalty(M: np.ndarray, b: np.ndarray, c: np.ndarray, node) -> float:
    """The node's problem as one HiGHS linear program: +inf when it is
    infeasible (status 2); any other failure raises."""
    from scipy.optimize import linprog  # on first use: the heaviest import here

    res = linprog(c, A_eq=M, b_eq=b, bounds=[(0, None)] * c.size, method="highs",
                  options={"primal_feasibility_tolerance": _TOL})
    if res.status == 2:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"penalty LP at node {node} failed with status "
                           f"{res.status}: {res.message}")
    return res.fun


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
