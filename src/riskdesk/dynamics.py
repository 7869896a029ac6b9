"""Time-consistent dynamics built from one-step data, and the checks that
certify (or refute) consistency for externally supplied representations.

A dynamic risk measure is determined by its one-step data: per-node menus
of (kernel, penalty) choices, stored in a ``OneStepStructure`` as one joined,
read-only (choices, nodes) array each for the kernels and the penalties,
every node in time order as a measure joins its kernels, and cut from them
per time index; its ``rho`` runs the backward recursion on the per-level
arrays.  With all penalties 0, as in a rectangular hull, it is sublinear,
and the recursion subtracts no penalty.  The dual-form check compares that
recursion with a different code path, the max over all expanded selections
of E_Q(-X) less the accumulated penalty; with the penalty cocycle check, and
the recursion check on external representations, it is the executable
equivalence between the two characterizations, and the supermartingale
check covers the zero-penalty reference case.  Its scan reads the joined
arrays stored at build against the measure's joined kernels.

By time consistency, rho_{s,T}(X) = rho_{s,u}(-rho_{u,T}(X)), so one backward
pass from T gives rho_{u,T}(X) at every date u.  A structure keeps the process
of its last single-position pass, and a later call inside it on the same
values at its end date (``rho`` at a later date, the supermartingale walk's
steps) reads the kept level instead of running the recursion again.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from math import prod
from typing import Optional, Sequence

import numpy as np

from .lattice import (RandomVariable, ScenarioLattice, _backward, _check_integer, _check_span,
                      _levels, _node_at, _per_child, _per_parent, lift)
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
    """Per non-terminal node: a finite menu of (kernel weights, penalty).
    Every node's menu is stored at once, in time order, padded to the
    longest menu m with the node's last choice: the (m, sum of n_{k+1})
    ``_kernel_buffer``, laid out as a measure's joined kernels, the
    (m, sum of n_k) ``_penalty_buffer`` and its zero mask ``_zero_penalty``.
    The menus are joined and checked at once (``_menus``), the penalties
    checked once; a kernel that does not fit its node is named kernel by
    kernel.  Per time index k, (m_k, n_{k+1}) ``flat_kernels``, (m_k, n_k)
    ``flat_penalties`` and (n_k,) menu ``sizes``, m_k the level's longest
    menu, are row-major copies cut from them, which the recursion reads
    faster than views.  Everything stored is read-only, so nothing derived
    from it goes stale.
    It is the dynamic risk measure these menus generate: ``rho`` runs its
    recursion.  It keeps one process, every level G_s, ..., G_t of its last
    1-D recursion with a finite output (``_process``): a 1-D call inside
    [s, t] whose input is the kept level at its end date bit for bit returns
    a copy of the kept level at its start date, and any other call runs the
    recursion and replaces what is kept.  Batches, s = t and non-finite
    outputs neither read nor replace it.  Compares by identity."""

    lattice: ScenarioLattice
    choices: InitVar[tuple]  # per time index < T: tuple per node of ((weights, penalty), ...)

    flat_kernels: tuple = field(default=None, init=False, repr=False)
    flat_penalties: tuple = field(default=None, init=False, repr=False)
    sizes: tuple = field(default=None, init=False, repr=False)
    _kernel_buffer: np.ndarray = field(default=None, init=False, repr=False)
    _penalty_buffer: np.ndarray = field(default=None, init=False, repr=False)
    _zero_penalty: np.ndarray = field(default=None, init=False, repr=False)
    # (s, t, (G_s, ..., G_{t-1}), bytes of G_t) of the last kept 1-D
    # recursion, or None
    _process: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self, choices):
        lat = self.lattice
        if len(choices) != lat.n_times - 1:
            raise ValueError("one choice level per non-terminal time index")
        for k, level in enumerate(choices):
            if len(level) != lat.n_nodes(k):
                raise ValueError(f"time index {k}: one menu per node required")
        menus = [menu for level in choices for menu in level]
        kernels, pick, sizes = _menus(lat, [[w for w, _ in menu] for menu in menus])
        alphas = [a for menu in menus for _, a in menu]
        penalties = np.array([alphas[e] for e in pick], dtype=float).reshape(len(kernels), -1)
        self._store(kernels, penalties, sizes)

    @classmethod
    def _from_flat(cls, lattice: ScenarioLattice, kernels, penalties, sizes):
        """A structure from normalized menus joined and padded as the stored
        ones: (m, sum of n_{k+1}) kernels, (m, sum of n_k) penalties and the
        (sum of n_k,) menu sizes."""
        st = object.__new__(cls)
        object.__setattr__(st, "lattice", lattice)
        st._store(kernels, penalties, sizes)
        return st

    def _store(self, kernels, penalties, sizes):
        if not (penalties >= 0).all():
            raise ValueError("one-step penalties must be >= 0 (or +inf)")
        free = np.isinf(penalties).all(axis=0)
        if free.any():
            k, i = _node_at(self.lattice, int(np.argmax(free)))
            raise ValueError(f"node ({k},{i}) has no finite-penalty choice")
        object.__setattr__(self, "sizes", tuple(n.copy() for n in _levels(self.lattice, sizes)))
        for name, value in (("_kernel_buffer", kernels), ("_penalty_buffer", penalties),
                            ("_zero_penalty", penalties == 0.0),
                            ("flat_kernels", self._cut(kernels)),
                            ("flat_penalties", self._cut(penalties))):
            object.__setattr__(self, name, value)
        for a in (kernels, penalties, self._zero_penalty, *self.sizes):
            a.setflags(write=False)

    def _cut(self, a) -> tuple:
        """A joined array cut into time indices (``lattice._levels``), each
        level's rows up to its longest menu, as read-only row-major copies."""
        out = tuple(x[:n.max()].copy() for x, n in zip(_levels(self.lattice, a), self.sizes))
        for x in out:
            x.setflags(write=False)
        return out

    @cached_property
    def _recursion_penalties(self) -> Optional[tuple]:
        """The penalties the recursion subtracts: ``flat_penalties``, or None
        when every penalty is +0.0, as on a hull (x - 0.0 is x, bit for bit)."""
        a = self._penalty_buffer
        return self.flat_penalties if a.any() or np.signbit(a).any() else None

    @cached_property
    def _renormalized(self) -> tuple:
        """Per level, every choice's kernels divided by their sums once more,
        as building a ``Measure`` from them would divide them: the kernels
        that ``expand_dual`` picks, built on first use by one division over
        the joined kernels.  Read-only."""
        lat, w = self.lattice, self._kernel_buffer
        return self._cut(w / _per_child(lat, _per_parent(lat, None, w)))

    def rho(self, s: int, t: int, X: RandomVariable) -> RandomVariable:
        """Backward recursion: G_t = -X, G_u(n) = max_j (<k_j, G_{u+1}> - a_j)."""
        _check_span(self.lattice, s, t)
        if X.lattice is not self.lattice:
            raise ValueError("structure and variable live on different lattices")
        if X.t != t:
            raise ValueError(f"X must live at time index {t}")
        return RandomVariable(self.lattice, s, self._rho(s, t, -X.values))

    def _rho(self, s: int, t: int, g) -> np.ndarray:
        """The recursion from (..., n_t) values G_t = -X down to G_s.

        A 1-D call with s < t and a finite output keeps its process in
        ``_process``, replacing the one kept before: copies of G_s, ...,
        G_{t-1} and the bytes of G_t.  A 1-D call inside the kept [s, t]
        whose g is the kept level at its t bit for bit (compared as bytes, so
        -0.0 is not +0.0) returns a copy of the kept level at its s: the bits
        that the same steps produce."""
        g = np.asarray(g, dtype=float)
        if s == t:
            return g
        penalties = self._recursion_penalties
        args = (self.lattice, s, g, self.flat_kernels[s:t],
                None if penalties is None else penalties[s:t])
        if g.ndim > 1:
            return _backward(*args)
        top, kept = g.tobytes(), self._process
        if kept is not None:
            s0, t0, levels, top0 = kept
            if s0 <= s and t <= t0 and top == (top0 if t == t0 else levels[t - s0].tobytes()):
                return levels[s - s0].copy()
        sink = []
        out = _backward(*args, sink)
        if sink:
            # the pass's own levels; the output is a copy, as the caller gets it
            object.__setattr__(self, "_process", (s, t, (out.copy(), *sink[-2::-1]), top))
        return out


def build_dynamic(structure: OneStepStructure) -> OneStepStructure:
    """The structure itself, which is its dynamic risk measure.  Kept only
    because the benchmark calls it; library code uses the structure."""
    return structure


def _selection_sizes(st: OneStepStructure, r: int, t: int, cap: int):
    """The menu sizes of the nodes of [r, t) in order, and their product, the
    number of selections; a count above ``cap`` raises ValueError."""
    sizes = [n for u in range(r, t) for n in st.sizes[u].tolist()]
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
    The kernels are picked from the structure's renormalized choices
    (``OneStepStructure._renormalized``), which every expansion shares, and a
    level outside [r, t) is its one (1, n) row of choice 0.
    """
    lat = st.lattice
    _check_span(lat, r, t)
    sizes, count = _selection_sizes(st, r, t, cap)

    # picks[c, n]: the choice of selection c at the n-th node of [r, t), in
    # the order of itertools.product; nodes with a one-choice menu take
    # choice 0, so only the others are unravelled (an array has at most 64
    # dimensions, 32 on numpy 1.x)
    picks = np.zeros((count, len(sizes)), dtype=np.intp)
    many = [n for n, size in enumerate(sizes) if size > 1]
    if many:
        for n, col in zip(many, np.unravel_index(np.arange(count), [sizes[n] for n in many])):
            picks[:, n] = col
    kernels, chosen, penalties, at = [], [], [], 0
    for u, w in enumerate(st._renormalized):
        if not r <= u < t:
            kernels.append(w[:1])
            continue
        n, par = lat.n_nodes(u), lat.parents[u + 1]
        pick, at = picks[:, at:at + n], at + n
        rows, cols = pick[:, par], np.arange(par.size)
        kernels.append(w[rows, cols])
        chosen.append(st.flat_kernels[u][rows, cols][:, None, :])
        penalties.append(st.flat_penalties[u][pick, np.arange(n)][:, None, :])
    # expected accumulated penalty along [r, t) under each selection,
    # all selections at once: acc_u = a + E(acc_{u+1}) is -G_u of the helper
    # (0.0 - G rather than -G keeps zero penalties free of a negative sign)
    acc = 0.0 - _backward(lat, r, np.zeros((count, lat.n_nodes(t))), chosen, penalties)
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
    _check_span(st.lattice, r, s)
    _check_span(st.lattice, s, t)
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
    joined menus (``OneStepStructure._kernel_buffer`` and
    ``_zero_penalty``), at the tolerance as it reads at call time.  Both
    layouts are stored at build and read-only, so no call joins or pads
    them.  The scan runs on every call; the walk's ``rho`` steps read the
    structure's kept process, so after ``st.rho(s, T, X)`` with s at or
    before the grid's first date they run no recursion of the structure,
    only P's passes.  Grid dates must be integers (``_check_integer``), strictly
    increasing inside [0, X.t].
    """
    lat = st.lattice
    if P.lattice is not lat or X.lattice is not lat:
        raise ValueError("structure, variable and measure live on different lattices")
    # the zero-penalty scan, every level at once, on the stored layouts
    gap = _kernel_gap(lat, st._kernel_buffer, P._kernel_buffer)
    ok = (st._zero_penalty & (gap <= _ZERO_PENALTY_TOL)).any(0)
    if not ok.all():
        k, i = _node_at(lat, int(np.argmin(ok)))
        raise ValueError(f"P is not a zero-penalty selection at node ({k},{i})")
    T = X.t
    grid = list(s_grid) if s_grid is not None else list(range(T + 1))
    for a, s in enumerate(grid):
        _check_integer(s, "grid date")
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
