"""Time-consistent dynamics built from one-step data, and the checks that
certify (or refute) consistency for externally supplied representations.

A dynamic risk measure is determined by its one-step data: per-node menus
of (kernel, penalty) choices, stored per time index as flat, read-only
(choices, nodes) arrays in a ``OneStepStructure``, whose ``rho`` runs the
backward recursion; with all penalties 0, as in a rectangular hull, it is
sublinear, and the recursion subtracts no penalty.  The dual-form check
compares that recursion with a different code path, the max over all
expanded selections of E_Q(-X) less the accumulated penalty; with the
penalty cocycle check, and the recursion check on external representations,
it is the executable equivalence between the two characterizations, and the
supermartingale check covers the zero-penalty reference case.  Its scan
reads every level's menus side by side, a layout that a structure builds on
first use and keeps, as a measure keeps its kernels joined in one array.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from math import prod
from typing import Optional, Sequence

import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _backward, _check_time, _per_parent, lift
from .measures import Measure, _kernel_gap, _menus, charged_mask, conditional_expectation
from .risk import (_ACCEPT_TOL, DualRep, _component_values, _Stacked, minimal_penalty,
                   rm_evaluate)

__all__ = [
    "OneStepStructure",
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

_EXPANSION_CAP = 4096  # the most selections expand_dual enumerates unless told otherwise
# how far a kernel of the supermartingale check's P may stray from a
# zero-penalty choice of the menu at its node
_ZERO_PENALTY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OneStepStructure:
    """Per non-terminal node: a finite menu of (kernel weights, penalty),
    stored flat, padded with each node's last choice: per time index k,
    (m_k, n_{k+1}) ``flat_kernels``, (m_k, n_k) ``flat_penalties`` and (n_k,)
    menu ``sizes``, all read-only, so nothing derived from them goes stale.
    It is the dynamic risk measure these menus generate: ``rho`` runs its
    recursion.  Compares by identity."""

    lattice: ScenarioLattice
    choices: InitVar[tuple]  # per time index < T: tuple per node of ((weights, penalty), ...)

    flat_kernels: tuple = field(default=None, init=False, repr=False)
    flat_penalties: tuple = field(default=None, init=False, repr=False)
    sizes: tuple = field(default=None, init=False, repr=False)

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
        # row-major, so the recursion's strided per-parent slices stay cheap
        kernels = tuple(np.ascontiguousarray(w) for w in kernels)
        for a in (*kernels, *penalties, *sizes):
            a.setflags(write=False)
        object.__setattr__(self, "flat_kernels", kernels)
        object.__setattr__(self, "flat_penalties", tuple(penalties))
        object.__setattr__(self, "sizes", tuple(sizes))

    @cached_property
    def _recursion_penalties(self) -> Optional[tuple]:
        """The penalties the recursion subtracts: ``flat_penalties``, or None
        when every penalty is +0.0, as on a hull (x - 0.0 is x, bit for bit)."""
        if any(a.any() or np.signbit(a).any() for a in self.flat_penalties):
            return self.flat_penalties
        return None

    @cached_property
    def _side_by_side(self) -> tuple:
        """Every level's menus side by side, built on first use: the
        (m, sum of n_{k+1}) kernels and the (m, sum of n_k) mask of zero
        penalties, each level's rows padded to the longest menu m with its
        last row, a copy of a choice already on the menu.  Read-only."""
        m = max(len(w) for w in self.flat_kernels)
        kernels, free = (np.concatenate([np.pad(a, ((0, m - len(a)), (0, 0)), "edge")
                                         for a in levels], axis=1)
                         for levels in (self.flat_kernels, self.flat_penalties))
        free = free == 0.0
        kernels.setflags(write=False)
        free.setflags(write=False)
        return kernels, free

    def rho(self, s: int, t: int, X: RandomVariable) -> RandomVariable:
        """Backward recursion: G_t = -X, G_u(n) = max_j (<k_j, G_{u+1}> - a_j)."""
        if not 0 <= s <= t <= self.lattice.terminal:
            raise ValueError("need 0 <= s <= t <= terminal")
        if X.lattice is not self.lattice:
            raise ValueError("structure and variable live on different lattices")
        if X.t != t:
            raise ValueError(f"X must live at time index {t}")
        return RandomVariable(self.lattice, s, self._rho(s, t, -X.values))

    def _rho(self, s: int, t: int, g) -> np.ndarray:
        """The recursion from (..., n_t) values G_t = -X down to G_s."""
        if s == t:
            return np.asarray(g, dtype=float)
        penalties = self._recursion_penalties
        return _backward(self.lattice, s, g, self.flat_kernels[s:t],
                         None if penalties is None else penalties[s:t])


def build_dynamic(structure: OneStepStructure) -> OneStepStructure:
    """The structure itself, which is its dynamic risk measure.  Kept only
    because the benchmark calls it; library code uses the structure."""
    return structure


def _selection_sizes(st: OneStepStructure, r: int, t: int, cap: int):
    """The menu sizes of the nodes of [r, t) in order, and their product, the
    number of selections; a count above ``cap`` raises ValueError."""
    sizes = [int(n) for u in range(r, t) for n in st.sizes[u]]
    count = prod(sizes)  # exact: an int64 product wraps to 0 past 63 binary nodes
    if count > cap:
        raise ValueError(f"selection count {count} exceeds cap {cap}")
    return sizes, count


def expand_dual(st: OneStepStructure, r: int, t: int, cap: int = _EXPANSION_CAP) -> DualRep:
    """Enumerate all node-wise kernel selections between r and t as a DualRep.

    Each selection induces a path-law measure (nodes outside [r, t) default
    to choice 0) and a penalty variable at time r: the selection-expected sum
    of the chosen one-step penalties along [r, t).  The representation holds
    the selections' kernels and penalties stacked; a selection's Measure is
    built when its component is read.  Evaluating it reproduces the recursion.
    """
    lat = st.lattice
    _check_time(lat, r)
    _check_time(lat, t)
    sizes, count = _selection_sizes(st, r, t, cap)

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
        sums = _per_parent(lat, u, w)
        kernels.append(np.broadcast_to(w / sums[..., par], (count, par.size)))
    penalties = [st.flat_penalties[u][picks[u], np.arange(lat.n_nodes(u))][:, None, :]
                 for u in range(r, t)]
    # expected accumulated penalty along [r, t) under each selection,
    # all selections at once: acc_u = a + E(acc_{u+1}) is -G_u of the helper
    # (0.0 - G rather than -G keeps zero penalties free of a negative sign)
    acc = 0.0 - _backward(lat, r, np.zeros((count, lat.n_nodes(t))),
                          [w[:, None, :] for w in chosen[r:t]], penalties)
    return DualRep(r, t, _Stacked(lat, r, kernels, acc))


def _check_chain(rep_rt: DualRep, rep_rs: DualRep, rep_st: DualRep) -> None:
    if not (rep_rs.s == rep_rt.s and rep_rs.t == rep_st.s and rep_st.t == rep_rt.t):
        raise ValueError("representation indices do not chain as r <= s <= t")


def check_cocycle(rep_rt: DualRep, rep_rs: DualRep, rep_st: DualRep, Q: Measure):
    """Residual of alpha_{r,t}(Q) = alpha_{r,s}(Q) + E_Q(alpha_{s,t}(Q) | B_r).

    Returns (residual at r, indeterminate mask); a node is indeterminate when
    the combination involves inf - inf.
    """
    _check_chain(rep_rt, rep_rs, rep_st)
    r = rep_rt.s
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
    _check_chain(rep_rt, rep_rs, rep_st)
    worst = 0.0
    for X in Xs:
        composed = rm_evaluate(rep_rs, -rm_evaluate(rep_st, X)).values
        worst = max(worst, float(np.max(np.abs(rm_evaluate(rep_rt, X).values - composed))))
    return worst


def dual_form_violation(st: OneStepStructure, Xs: Sequence[RandomVariable]):
    """Max over the positions X at t and all r <= t of the node-wise gap
    |rho_{r,t}(X) - rm_evaluate(expand_dual(st, r, t), X)|, and its witness
    (position index, r, node): the first in that order to attain it (None
    without positions).  Expands once per (r, t) pair at the default cap,
    whose ValueError a larger expansion raises, and runs its positions at once."""
    if any(X.lattice is not st.lattice for X in Xs):
        raise ValueError("a position lives on a different lattice")
    peak, where = np.zeros(len(Xs)), [None] * len(Xs)
    for t in sorted({X.t for X in Xs}):
        idx = [i for i, X in enumerate(Xs) if X.t == t]
        minus_x = -np.stack([Xs[i].values for i in idx])
        gaps, cols = [], []
        for r in range(t + 1):
            dual = _component_values(expand_dual(st, r, t), minus_x).max(axis=-2)
            gaps.append(np.abs(st._rho(r, t, minus_x) - dual))
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


def acceptance_decompose(X: RandomVariable, st: OneStepStructure, r: int, s: int,
                         t: int, Q: Measure):
    """Split an accepted X in A_{r,t}(Q) as Z + Y with Z in A_{r,s}(Q) and
    Y in A_{s,t}; Y = X + lift(rho_{s,t}(X)), Z = -lift(rho_{s,t}(X))."""
    if Q.lattice is not st.lattice:
        raise ValueError("structure and measure live on different lattices")
    q_mask = charged_mask(Q, r)
    if np.any(st.rho(r, t, X).values[q_mask] > _ACCEPT_TOL):
        raise ValueError("X is not accepted between r and t under Q")
    w = lift(st.rho(s, t, X), t)
    Y, Z = X + w, -w
    if np.any(st.rho(s, t, Y).values > _ACCEPT_TOL):
        raise RuntimeError("decomposition failed: Y not in the (s,t) acceptance set")
    # rho_{r,t}(Z) equals rho_{r,s}(-rho_{s,t}(X)) by the recursion
    if np.any(st.rho(r, t, Z).values[q_mask] > _ACCEPT_TOL):
        raise RuntimeError("decomposition failed: Z not Q-accepted between r and s")
    return Z, Y


def supermartingale_check(st: OneStepStructure, X: RandomVariable, P: Measure,
                          s_grid: Optional[Sequence[int]] = None) -> float:
    """Max over s < s' of node-wise E_P(rho_{s',T}(X) | B_s) - rho_{s,T}(X).

    Requires P to be a zero-penalty selection at every node, within
    ``_ZERO_PENALTY_TOL`` of a zero-penalty kernel: the discrete version of
    a zero total penalty for P; penalties are >= 0, so the
    structure is then normalized.  Every call scans all levels at once: P's
    joined kernels (``Measure._kernel_buffer``) against the structure's
    menus side by side (``OneStepStructure._side_by_side``), at the
    tolerance as it reads at call time.  Both layouts are built once per
    object and read-only, so no call joins or pads them again.
    """
    lat = st.lattice
    if P.lattice is not lat or X.lattice is not lat:
        raise ValueError("structure, variable and measure live on different lattices")
    # the zero-penalty scan, every level at once, on the stored layouts
    kernels, free = st._side_by_side
    ok = (free & (_kernel_gap(lat, None, kernels, P._kernel_buffer) <= _ZERO_PENALTY_TOL)).any(0)
    if not ok.all():
        node = int(np.argmin(ok))
        first = np.cumsum([0] + [lat.n_nodes(u) for u in range(lat.terminal)])
        u = int(np.searchsorted(first, node, side="right")) - 1
        raise ValueError(f"P is not a zero-penalty selection at node ({u},{node - first[u]})")
    T = X.t
    grid = list(s_grid) if s_grid is not None else list(range(T + 1))
    for a, s in enumerate(grid):
        if not (grid[a - 1] if a else -1) < s <= T:
            raise ValueError(f"grid date {s} is not strictly increasing inside [0, {T}]")
    # one walk down the grid: rho_{s,T} = rho_{s,s_next}(-rho_{s_next,T}), and
    # E_P(rho_{s',T} | B_s) for every later grid date s' as one stacked array
    t = grid[-1] if grid else T
    g = st._rho(t, T, -X.values)
    later = None
    worst = -np.inf
    for s in reversed(grid[:-1]):
        rows = g[None] if later is None else np.concatenate((later, g[None]))
        later = _backward(lat, s, rows, P.flat_kernels[s:t])
        g = st._rho(s, t, g)
        worst = max(worst, float((later - g).max()))
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
