"""Conditional convex risk measures in dual form.

A conditional risk measure between times s and t is stored as a finite list
of (measure, penalty) components and evaluated node-wise as

    rho(X)(n) = max_k ( E_{Q_k}(-X | n) - alpha_k(n) ),

a maximum of affine functions of X.  The minimal penalty of an arbitrary
measure Q is the convex conjugate of that evaluator: at each time-s node it
is the cheapest convex-combination cost of writing Q's conditional subtree
law as a mixture of the components' laws (+inf when no mixture reaches it).
That linear program is solved exactly without a solver: its optimum lies at
a vertex of a bounded polytope, and every vertex is the basic solution of
some basis of independent columns, so the node enumerates its bases in one
batched solve.  Only a node with more than ``_MAX_BASES`` bases goes to a
HiGHS linear program.  A brute-force oracle over a growing box validates
this in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence

import json
import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, lift
from .measures import (
    Measure,
    charged_mask,
    check_restriction,
    measure_from_json,
    measure_to_json,
)

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


@dataclass(frozen=True)
class DualRep:
    """Conditional risk measure rho_{s,t} as (measure, penalty) components.

    Penalties are time-s variables with values in R union {+inf}; at every
    time-s node at least one component must be finite.  An optional
    reference measure carries the restriction discipline for minimal
    penalties (components themselves are only read through their kernels on
    [s, t), so their law before s never enters an evaluation).
    """

    s: int
    t: int
    components: tuple  # of (Measure, RandomVariable at s, allow_infinite)
    reference: Optional[Measure] = None

    def __post_init__(self):
        if not 0 <= self.s <= self.t:
            raise ValueError("need 0 <= s <= t")
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a dual representation needs at least one component")
        lat = comps[0][0].lattice
        if self.t > lat.terminal:
            raise ValueError(f"time index t={self.t} beyond the terminal index {lat.terminal}")
        pen = np.stack([a.values for _, a in comps])
        for Q, a in comps:
            if Q.lattice is not lat or a.lattice is not lat or a.t != self.s:
                raise ValueError("components must share the lattice; penalties at time s")
        if not np.all(pen > -np.inf):
            raise ValueError("penalties must be real or +inf")
        if np.any(np.all(np.isinf(pen), axis=0)):
            raise ValueError("every time-s node needs a finite-penalty component")
        object.__setattr__(self, "components", comps)

    @property
    def lattice(self) -> ScenarioLattice:
        return self.components[0][0].lattice


def rm_evaluate(rep: DualRep, X: RandomVariable, return_argmax: bool = False):
    """Node-wise max over components of E_{Q_k}(-X | node) - alpha_k(node).

    Infinite-penalty components are skipped; ties resolve to the lowest
    component index (deterministic golden tests).
    """
    if X.t != rep.t:
        raise ValueError(f"X must live at time index {rep.t}, got {X.t}")
    if X.lattice is not rep.lattice:
        raise ValueError("X lives on a different lattice")
    # every E_{Q_k}(-X | B_s) in one recursion: (K, 1, n) kernels broadcast -X
    ce = _backward(rep.lattice, rep.s, -X.values,
                   [np.stack([Q.flat_kernels[u] for Q, _ in rep.components])[:, None, :]
                    for u in range(rep.s, rep.t)])
    pen = np.stack([alpha.values for _, alpha in rep.components])
    table = np.where(np.isinf(pen), -np.inf, ce - pen)
    arg = np.argmax(table, axis=0)  # first max wins
    out = RandomVariable(rep.lattice, rep.s, table[arg, np.arange(table.shape[1])])
    if return_argmax:
        return out, arg
    return out


# One tolerance decides rank, reach, non-negativity and residual of a node's
# mixture problem; its entries are probabilities, so it is absolute.  HiGHS
# takes it as its primal feasibility tolerance, so both paths draw the same
# +inf boundary.
_TOL = 1e-10
# Above this many bases a node goes to HiGHS: near 1,000 the batched
# enumeration takes as long as one HiGHS call, about 2.5 ms.
_MAX_BASES = 1000


def minimal_penalty(rep: DualRep, Q: Measure,
                    reference: Optional[Measure] = None) -> RandomVariable:
    """Convex conjugate of the evaluator at Q, node-wise.

    At time-s node n, solves  min sum_k lam_k alpha_k(n)  subject to
    lam in the simplex and  sum_k lam_k q_k(n, .) = q(n, .)  on the time-t
    descendants; +inf when no such lam exists.  Components with infinite
    penalty at n are excluded.  The program is solved exactly by basis
    enumeration (see ``_node_penalty``), or by HiGHS at a node with more
    than ``_MAX_BASES`` bases; a HiGHS failure other than infeasibility
    raises ``RuntimeError``.
    """
    ref = reference if reference is not None else rep.reference
    if ref is not None:
        status = check_restriction(Q, ref, rep.s)
        if status != "equal":
            raise ValueError(
                f"restriction of Q to B_{rep.s} is {status}, expected equal to the reference"
            )
    lat = rep.lattice
    s, t = rep.s, rep.t
    laws = np.stack([Qk.subtree_laws(s, t) for Qk, _ in rep.components])
    pen = np.stack([alpha.values for _, alpha in rep.components])
    target = Q.subtree_laws(s, t)
    out = np.empty(lat.n_nodes(s))
    for n in range(lat.n_nodes(s)):
        sl = lat.descendant_slice(s, n, t)
        finite = np.isfinite(pen[:, n])
        cols = laws[finite, sl]
        M = np.vstack([cols.T, np.ones((1, cols.shape[0]))])
        out[n] = _node_penalty(M, np.append(target[sl], 1.0), pen[finite, n], (s, n))
    return RandomVariable(lat, s, out, allow_infinite=True)


@lru_cache(maxsize=128)
def _bases(k: int, r: int) -> np.ndarray:
    """All r-subsets of k columns, one per row, in lexicographic order."""
    out = np.array(list(combinations(range(k), r)), dtype=np.intp).reshape(-1, r)
    out.setflags(write=False)
    return out


def _node_penalty(M: np.ndarray, b: np.ndarray, c: np.ndarray, node) -> float:
    """min c.lam subject to lam >= 0 and M lam = b, whose last row is the
    simplex constraint; +inf when infeasible.

    With r the numerical rank of M, b must lie in M's column span, and then
    the optimum is the cheapest non-negative basic solution over all r-column
    bases.  Each is solved in the r-dimensional span, in one batched solve.
    """
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(sv > _TOL))
    if comb(c.size, r) > _MAX_BASES:
        return _highs_penalty(M, b, c, node)
    U = U[:, :r]
    b_r = U.T @ b
    if np.max(np.abs(U @ b_r - b)) > _TOL:
        return np.inf
    bases = _bases(c.size, r)
    B = (U.T @ M)[:, bases].transpose(1, 0, 2)  # (bases, r, r)
    # drop the singular bases, judged against M's own scale: by Cauchy-Binet
    # the squared determinants of all bases sum to the product of the r
    # squared singular values, so the best-conditioned basis always stays
    regular = np.abs(np.linalg.det(B)) > _TOL * np.prod(sv[:r])
    B, bases = B[regular], bases[regular]
    # an explicit (..., r, 1) right-hand side: numpy 1 and 2 broadcast a
    # stacked 2-D one differently
    lam = np.linalg.solve(B, np.broadcast_to(b_r, (len(B), r))[..., None])[..., 0]
    resid = np.einsum("icj,cj->ci", M[:, bases], lam) - b
    keep = (lam >= -_TOL).all(axis=1) & (np.abs(resid) <= _TOL).all(axis=1)
    if not keep.any():
        return np.inf
    lam = np.where(lam[keep] <= _TOL, 0.0, lam[keep])
    return float(np.min(np.sum(lam * c[bases[keep]], axis=1)))


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
    anc = lattice.ancestors_of_slice(t, s)
    vals = np.empty(lattice.n_nodes(t))
    for idx, (X, _) in enumerate(pieces):
        mask = seen[anc] == idx
        vals[mask] = X.values[mask]
    return RandomVariable(lattice, t, vals)


def acceptance_check(rep: DualRep, X: RandomVariable,
                     Q: Optional[Measure] = None, tol: float = 1e-9):
    """Membership in the acceptance set: rho(X) <= 0 node-wise.

    Without Q, checks every node charged by the representation's reference
    (every node when no reference is attached).  With Q, checks only the
    Q-charged time-s nodes.  Returns (overall, per-node booleans).
    """
    rho = rm_evaluate(rep, X)
    ok = rho.values <= tol
    if Q is not None:
        mask = charged_mask(Q, rep.s)
    elif rep.reference is not None:
        mask = charged_mask(rep.reference, rep.s)
    else:
        mask = np.ones_like(ok, dtype=bool)
    return bool(np.all(ok | ~mask)), ok


def strong_convexity_check(rep: DualRep, X: RandomVariable, Y: RandomVariable,
                           f: RandomVariable) -> float:
    """Max node-wise violation of rho(fX + (1-f)Y) <= f rho(X) + (1-f) rho(Y)
    for a time-s weight 0 <= f <= 1; non-positive up to rounding for any
    dual representation."""
    if f.t != rep.s:
        raise ValueError("the weight f must live at time s")
    if np.any(f.values < 0) or np.any(f.values > 1):
        raise ValueError("the weight f must take values in [0, 1]")
    fl = lift(f, rep.t)
    mixed = RandomVariable(rep.lattice, rep.t,
                           fl.values * X.values + (1.0 - fl.values) * Y.values)
    lhs = rm_evaluate(rep, mixed).values
    rhs = f.values * rm_evaluate(rep, X).values \
        + (1.0 - f.values) * rm_evaluate(rep, Y).values
    return float(np.max(lhs - rhs))


def dualrep_to_json(rep: DualRep) -> str:
    comps = []
    for Q, alpha in rep.components:
        pen = ["inf" if np.isinf(v) else float(v) for v in alpha.values]
        comps.append({"measure": json.loads(measure_to_json(Q)), "penalty": pen})
    return json.dumps({"s": rep.s, "t": rep.t, "components": comps}, sort_keys=True)


def dualrep_from_json(text: str, lattice: ScenarioLattice,
                      reference: Optional[Measure] = None) -> DualRep:
    doc = json.loads(text)
    s, t = int(doc["s"]), int(doc["t"])
    comps = []
    for c in doc["components"]:
        Q = measure_from_json(json.dumps(c["measure"]), lattice)
        pen = np.array([np.inf if v == "inf" else float(v) for v in c["penalty"]])
        comps.append((Q, RandomVariable(lattice, s, pen, allow_infinite=True)))
    return DualRep(s, t, tuple(comps), reference=reference)
