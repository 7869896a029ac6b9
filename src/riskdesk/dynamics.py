"""Time-consistent dynamics built from one-step data, and the checks that
certify (or refute) consistency for externally supplied representations.

A dynamic risk measure is generated by per-node menus of (kernel, penalty)
choices, stored per time index as flat (choices, nodes) arrays; with all
penalties 0, as in a rectangular hull, it is sublinear.  The dual-form check
compares the node-wise recursion with a different code path, the max over
all expanded selections of E_Q(-X) less the accumulated penalty; with the
penalty cocycle check, and the recursion check on external representations,
it is the executable equivalence between the two characterizations, and the
supermartingale check covers the zero-penalty reference case.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from math import prod
from typing import Optional, Sequence

import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, lift
from .measures import Measure, _kernel_gap, _menus, charged_mask, conditional_expectation
from .risk import DualRep, _component_values, _Stacked, minimal_penalty, rm_evaluate

__all__ = [
    "OneStepStructure",
    "DynamicRM",
    "build_dynamic",
    "expand_dual",
    "check_cocycle",
    "dual_form_violation",
    "recursion_violation",
    "acceptance_decompose",
    "supermartingale_check",
    "onestep_to_json",
    "onestep_from_json",
]


@dataclass(frozen=True, eq=False)
class OneStepStructure:
    """Per non-terminal node: a finite menu of (kernel weights, penalty),
    stored flat, padded with each node's last choice: per time index k,
    (m_k, n_{k+1}) ``flat_kernels``, (m_k, n_k) ``flat_penalties`` and (n_k,)
    menu ``sizes``.  ``normalized`` is True iff every node's least penalty is 0."""

    lattice: ScenarioLattice
    choices: InitVar[tuple]  # per time index < T: tuple per node of ((weights, penalty), ...)

    flat_kernels: tuple = field(default=None, init=False, repr=False)
    flat_penalties: tuple = field(default=None, init=False, repr=False)
    sizes: tuple = field(default=None, init=False, repr=False)
    normalized: bool = field(default=None, init=False, repr=False)

    def __post_init__(self, choices):
        lat = self.lattice
        if len(choices) != lat.n_times - 1:
            raise ValueError("one choice level per non-terminal time index")
        kernels, penalties, sizes = [], [], []
        for k, level in enumerate(choices):
            if len(level) != lat.n_nodes(k):
                raise ValueError(f"time index {k}: one menu per node required")
            w, pick, size = _menus(lat, k, [[w for w, _ in menu] for menu in level])
            kernels.append(w)
            penalties.append(np.array([a for menu in level for _, a in menu], dtype=float)[pick])
            sizes.append(size)
        self._store(kernels, penalties, sizes)

    @classmethod
    def _from_flat(cls, lattice: ScenarioLattice, kernels, penalties, sizes):
        """A structure from normalized flat arrays laid out as the stored ones."""
        st = object.__new__(cls)
        object.__setattr__(st, "lattice", lattice)
        st._store(kernels, penalties, sizes)
        return st

    def _store(self, kernels, penalties, sizes):
        for k, a in enumerate(penalties):
            if not (a >= 0).all():
                raise ValueError("one-step penalties must be >= 0 (or +inf)")
            free = np.isinf(a).all(axis=0)
            if free.any():
                raise ValueError(
                    f"node ({k},{int(np.argmax(free))}) has no finite-penalty choice")
        object.__setattr__(self, "flat_kernels", tuple(kernels))
        object.__setattr__(self, "flat_penalties", tuple(penalties))
        object.__setattr__(self, "sizes", tuple(sizes))
        object.__setattr__(self, "normalized",
                           all(bool(np.all(a.min(axis=0) == 0.0)) for a in penalties))


@dataclass(frozen=True, eq=False)
class DynamicRM:
    """Dynamic risk measure generated by a one-step structure, which is all
    it stores; its lattice is the structure's.  Compares by identity."""

    structure: OneStepStructure

    @property
    def lattice(self) -> ScenarioLattice:
        return self.structure.lattice

    def rho(self, s: int, t: int, X: RandomVariable) -> RandomVariable:
        """Backward recursion: G_t = -X, G_u(n) = max_j (<k_j, G_{u+1}> - a_j)."""
        if not 0 <= s <= t <= self.lattice.terminal:
            raise ValueError("need 0 <= s <= t <= terminal")
        if X.t != t:
            raise ValueError(f"X must live at time index {t}")
        return RandomVariable(self.lattice, s, self._rho(s, t, -X.values))

    def _rho(self, s: int, t: int, g) -> np.ndarray:
        """The recursion from (..., n_t) values G_t = -X down to G_s."""
        st = self.structure
        return _backward(st.lattice, s, g, st.flat_kernels[s:t], st.flat_penalties[s:t])


def build_dynamic(structure: OneStepStructure) -> DynamicRM:
    return DynamicRM(structure)


def expand_dual(dyn: DynamicRM, r: int, t: int, cap: int = 4096) -> DualRep:
    """Enumerate all node-wise kernel selections between r and t as a DualRep.

    Each selection induces a path-law measure (nodes outside [r, t) default
    to choice 0) and a penalty variable at time r: the selection-expected sum
    of the chosen one-step penalties along [r, t).  The representation holds
    the selections' kernels and penalties stacked; a selection's Measure is
    built when its component is read.  Evaluating it reproduces the recursion.
    """
    lat, st = dyn.lattice, dyn.structure
    sizes = [int(n) for u in range(r, t) for n in st.sizes[u]]
    count = prod(sizes)  # exact: an int64 product wraps to 0 past 63 binary nodes
    if count > cap:
        raise ValueError(f"selection count {count} exceeds cap {cap}")

    # picks[c, n]: the choice of selection c at the n-th node of [r, t), in
    # the order of itertools.product; nodes outside [r, t) take choice 0
    picks = np.stack(np.unravel_index(np.arange(count), sizes), axis=-1) if sizes \
        else np.zeros((1, 0), dtype=int)
    splits = np.cumsum([lat.n_nodes(u) for u in range(r, t)])[:-1]
    picks = dict(zip(range(r, t), np.split(picks, splits, axis=1)))
    chosen, kernels = [], []
    for u in range(lat.n_times - 1):
        par, w = lat.parents[u + 1], st.flat_kernels[u]
        w = w[picks[u][:, par], np.arange(par.size)] if u in picks else w[0]
        chosen.append(w)
        # divided by its sums once more, as building a Measure would
        sums = np.add.reduceat(w, lat.offsets[u][:-1], axis=-1)
        kernels.append(np.broadcast_to(w / sums[..., par], (count, par.size)))
    penalties = [st.flat_penalties[u][picks[u], np.arange(lat.n_nodes(u))][:, None, :]
                 for u in range(r, t)]
    # expected accumulated penalty along [r, t) under each selection,
    # all selections at once: acc_u = a + E(acc_{u+1}) is -G_u of the helper
    # (0.0 - G rather than -G keeps zero penalties free of a negative sign)
    acc = 0.0 - _backward(lat, r, np.zeros((count, lat.n_nodes(t))),
                          [w[:, None, :] for w in chosen[r:t]], penalties)
    return DualRep(r, t, _Stacked(lat, r, kernels, acc))


def check_cocycle(rep_rt: DualRep, rep_rs: DualRep, rep_st: DualRep, Q: Measure):
    """Residual of alpha_{r,t}(Q) = alpha_{r,s}(Q) + E_Q(alpha_{s,t}(Q) | B_r).

    Returns (residual at r, indeterminate mask); a node is indeterminate when
    the combination involves inf - inf.
    """
    r, s, t = rep_rt.s, rep_st.s, rep_st.t
    if not (rep_rs.s == r and rep_rs.t == s and rep_rt.t == t):
        raise ValueError("representation indices do not chain as r <= s <= t")
    a_rt = minimal_penalty(rep_rt, Q).values
    a_rs = minimal_penalty(rep_rs, Q).values
    e_st = conditional_expectation(minimal_penalty(rep_st, Q), Q, r).values
    with np.errstate(invalid="ignore"):
        res = a_rt - a_rs - e_st
    bad = np.isnan(res)
    return RandomVariable(rep_rt.lattice, r, np.where(bad, 0.0, res), allow_infinite=True), bad


def recursion_violation(rep_rt: DualRep, rep_rs: DualRep, rep_st: DualRep,
                        Xs: Sequence[RandomVariable]) -> float:
    """Max node-wise |rho_{r,t}(X) - rho_{r,s}(-rho_{s,t}(X))| over a test set,
    each rho evaluated from its dual representation."""
    worst = 0.0
    for X in Xs:
        composed = rm_evaluate(rep_rs, -rm_evaluate(rep_st, X)).values
        worst = max(worst, float(np.max(np.abs(rm_evaluate(rep_rt, X).values - composed))))
    return worst


def dual_form_violation(dyn: DynamicRM, Xs: Sequence[RandomVariable]):
    """Max over the positions X at t and all r <= t of the node-wise gap
    |rho_{r,t}(X) - rm_evaluate(expand_dual(dyn, r, t), X)|, and its witness
    (position index, r, node): the first in that order to attain it (None
    without positions).  Expands once per (r, t) pair at the default cap,
    whose ValueError a larger expansion raises, and runs its positions at once."""
    if any(X.lattice is not dyn.lattice for X in Xs):
        raise ValueError("a position lives on a different lattice")
    peak, where = np.zeros(len(Xs)), [None] * len(Xs)
    for t in sorted({X.t for X in Xs}):
        idx = [i for i, X in enumerate(Xs) if X.t == t]
        minus_x = -np.stack([Xs[i].values for i in idx])
        gaps, cols = [], []
        for r in range(t + 1):
            dual = _component_values(expand_dual(dyn, r, t), minus_x).max(axis=-2)
            gaps.append(np.abs(dyn._rho(r, t, minus_x) - dual))
            cols += [(r, node) for node in range(dual.shape[1])]
        gap = np.concatenate(gaps, axis=1)
        col = np.argmax(gap, axis=1)
        peak[idx] = gap[np.arange(len(idx)), col]
        for i, c in zip(idx, col):
            where[i] = cols[c]
    if not Xs:
        return 0.0, None
    i = int(np.argmax(peak))
    return float(peak[i]), (i, *where[i])


def acceptance_decompose(X: RandomVariable, dyn: DynamicRM, r: int, s: int,
                         t: int, Q: Measure, tol: float = 1e-9):
    """Split an accepted X in A_{r,t}(Q) as Z + Y with Z in A_{r,s}(Q) and
    Y in A_{s,t}; Y = X + lift(rho_{s,t}(X)), Z = -lift(rho_{s,t}(X))."""
    q_mask = charged_mask(Q, r)
    if np.any(dyn.rho(r, t, X).values[q_mask] > tol):
        raise ValueError("X is not accepted between r and t under Q")
    w = lift(dyn.rho(s, t, X), t)
    Y, Z = X + w, -w
    if np.any(dyn.rho(s, t, Y).values > tol):
        raise AssertionError("decomposition failed: Y not in the (s,t) acceptance set")
    # rho_{r,t}(Z) equals rho_{r,s}(-rho_{s,t}(X)) by the recursion
    if np.any(dyn.rho(r, t, Z).values[q_mask] > tol):
        raise AssertionError("decomposition failed: Z not Q-accepted between r and s")
    return Z, Y


def supermartingale_check(dyn: DynamicRM, X: RandomVariable, P: Measure,
                          s_grid: Optional[Sequence[int]] = None,
                          kernel_tol: float = 1e-9) -> float:
    """Max over s < s' of node-wise E_P(rho_{s',T}(X) | B_s) - rho_{s,T}(X).

    Requires a normalized structure in which P is a zero-penalty selection at
    every node, the discrete version of a zero total penalty for P.
    """
    if not dyn.structure.normalized:
        raise ValueError("the dynamic risk measure must be normalized")
    lat, st = dyn.lattice, dyn.structure
    for u in range(lat.n_times - 1):
        gap = _kernel_gap(lat, u, st.flat_kernels[u], P.flat_kernels[u])
        ok = np.any((st.flat_penalties[u] == 0.0) & (gap <= kernel_tol), axis=0)
        if not np.all(ok):
            raise ValueError(f"P is not a zero-penalty selection at node "
                             f"({u},{int(np.argmin(ok))})")
    T = X.t
    grid = list(s_grid) if s_grid is not None else list(range(T + 1))
    for a, s in enumerate(grid):
        if not (grid[a - 1] if a else -1) < s <= T:
            raise ValueError(f"grid date {s} is not strictly increasing inside [0, {T}]")
    # one walk down the grid: rho_{s,T} = rho_{s,s_next}(-rho_{s_next,T}), and
    # E_P(rho_{s',T} | B_s) for every later grid date s' as one stacked array
    t = grid[-1] if grid else T
    g = dyn._rho(t, T, -X.values)
    later = np.empty((0, g.size))
    worst = -np.inf
    for s in reversed(grid[:-1]):
        later = _backward(lat, s, np.vstack([later, g]), P.flat_kernels[s:t])
        g = dyn._rho(s, t, g)
        worst = max(worst, float(np.max(later - g)))
        t = s
    return worst


def onestep_to_json(structure: OneStepStructure) -> str:
    lat, st = structure.lattice, structure
    levels = [[[{"weights": w.tolist(), "penalty": "inf" if np.isinf(a) else float(a)}
                for w, a in zip(rows[:n], pen[:n])] for rows, pen, n
               in zip(lat.per_node(k, st.flat_kernels[k]), st.flat_penalties[k].T, st.sizes[k])]
              for k in range(lat.n_times - 1)]
    return json.dumps({"choices": levels}, sort_keys=True)


def onestep_from_json(text: str, lattice: ScenarioLattice) -> OneStepStructure:
    levels = tuple(
        tuple(tuple((np.asarray(e["weights"], dtype=float),
                     np.inf if e["penalty"] == "inf" else float(e["penalty"])) for e in menu)
              for menu in level)
        for level in json.loads(text)["choices"])
    return OneStepStructure(lattice, levels)
