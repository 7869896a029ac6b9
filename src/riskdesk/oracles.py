"""Independent oracles used by the test suite.

Each oracle recomputes a quantity from its raw definition, avoiding the code
path under test: the convex conjugate by optimizing over test positions
directly (growing box), literal grid search on tiny fixtures, dense-sampled
Skorokhod costs over candidate time changes, Skorokhod distances by
evaluating every monotone jump matching as one whole time change, band
prices by the robust recursion on a trinomial scenario tree, and closed
forms for the band prices of standard payoffs.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .fixtures import trinomial_tree
from .gexp import GridSpec, PayoffSpec, VolatilityBand, _on_grid
from .risk import DualRep, rm_evaluate
from .lattice import RandomVariable
from .measures import Measure
from .skorokhod import _PAIR_WINDOW, StepPath, TimeChange, g_damping
from .dynamics import OneStepStructure

__all__ = [
    "conjugate_box_oracle",
    "conjugate_grid_oracle",
    "dense_timechange_cost",
    "dm_grid_oracle",
    "dm_enumeration_oracle",
    "j1_enumeration_oracle",
    "witness_enumeration_oracle",
    "trinomial_band_oracle",
    "call_upper_value",
    "square_band_values",
]

# growing boxes of the conjugate box oracle, and the growth between the last
# two box values above which the conjugate counts as +inf
_BOXES = (1e5, 1e7)
_GROW_TOL = 1.0
# sample points of the dense time-change cost
_N_SAMPLES = 4001


def conjugate_box_oracle(rep: DualRep, Q: Measure) -> np.ndarray:
    """Minimal penalty from its definition: per time-s node n,

        sup over positions X of  E_Q(-X | n) - rho(X)(n),

    with X confined to a box [-M, M] on the time-t descendants of n.  The
    objective is concave piecewise linear, so each box value is an LP
    (variables Y = -X and the hypograph variable u); the true conjugate is
    the limit over growing boxes, reported as +inf when the value keeps
    growing.
    """
    from scipy.optimize import linprog  # on first use: the heaviest import here

    lat = rep.lattice
    s, t = rep.s, rep.t
    out = np.empty(lat.n_nodes(s))
    laws = [Qk.subtree_laws(s, t) for Qk, _ in rep.components]
    target = Q.subtree_laws(s, t)
    for n in range(lat.n_nodes(s)):
        sl = lat.descendant_slice(s, n, t)
        q = target[sl]
        cols, costs = [], []
        for law, (_, alpha) in zip(laws, rep.components):
            if np.isinf(alpha.values[n]):
                continue
            cols.append(law[sl])
            costs.append(float(alpha.values[n]))
        D = q.size
        # maximize u subject to u <= <q - q_k, Y> + alpha_k, |Y| <= M
        A_ub = np.column_stack([np.ones(len(cols)),
                                np.stack(cols) - q[None, :]])
        c = np.zeros(D + 1)
        c[0] = -1.0
        vals = []
        for M in _BOXES:
            bounds = [(None, None)] + [(-M, M)] * D
            res = linprog(c, A_ub=A_ub, b_ub=np.asarray(costs),
                          bounds=bounds, method="highs")
            if res.status != 0:
                raise RuntimeError(f"box oracle LP failed at node ({s},{n})")
            vals.append(-res.fun)
        out[n] = np.inf if vals[-1] > vals[-2] + _GROW_TOL else vals[-1]
    return out


def conjugate_grid_oracle(rep: DualRep, Q: Measure, node: int,
                          grid: Sequence[float]) -> float:
    """Literal grid search for the conjugate at one time-s node: enumerate
    positions taking grid values on the node's descendants.  Exponential;
    tiny fixtures only."""
    lat = rep.lattice
    s, t = rep.s, rep.t
    sl = lat.descendant_slice(s, node, t)
    width = sl.stop - sl.start
    best = -np.inf
    base = np.zeros(lat.n_nodes(t))
    q = Q.subtree_laws(s, t)[sl]
    for combo in itertools.product(grid, repeat=width):
        base[sl] = combo
        X = RandomVariable(lat, t, base)
        ce = float(np.dot(q, -np.asarray(combo)))
        best = max(best, ce - float(rm_evaluate(rep, X).values[node]))
    return best


def _values_at(p: StepPath, ts: np.ndarray) -> np.ndarray:
    table = np.vstack([np.zeros((1, p.dimension)), p.values])
    return table[np.searchsorted(p.times, ts, side="right")]


def dense_timechange_cost(x: StepPath, y: StepPath, lam: TimeChange, m: int) -> float:
    """Numeric cost of a candidate time change by dense sampling of both
    suprema (a lower bound on the true sup, used to validate exact values)."""
    end = max(float(m), lam.inverse(float(m))) + 1.0
    us = np.linspace(0.0, end, _N_SAMPLES)
    ku = np.array([k[0] for k in lam.knots])
    kv = np.array([k[1] for k in lam.knots])
    lus = np.where(us >= ku[-1], kv[-1] + (us - ku[-1]), np.interp(us, ku, kv))
    inside = us <= m
    dev = float(np.max(np.abs(lus[inside] - us[inside])))
    diff = np.asarray(g_damping(lus, m))[:, None] * _values_at(x, lus) \
        - np.asarray(g_damping(us, m))[:, None] * _values_at(y, us)
    return max(dev, float(np.max(np.abs(diff))))


def dm_grid_oracle(x: StepPath, y: StepPath, m: int) -> float:
    """Grid search over single-knot and two-knot piecewise-linear time
    changes, each evaluated by dense sampling.  Returns the best cost found,
    an independent upper bound on d_m."""
    jumps = sorted(set(list(x.times) + list(y.times)))
    jumps = [u for u in jumps if u < m + 2]
    knot_grid = np.array(sorted(set(np.linspace(0.05, float(m) + 1.0, 40)) | set(jumps)))
    best = dense_timechange_cost(x, y, TimeChange(((0.0, 0.0),)), m)
    for u in jumps:
        for v in knot_grid:
            if v <= 0:
                continue
            lam = TimeChange(((0.0, 0.0), (float(u), float(v))))
            best = min(best, dense_timechange_cost(x, y, lam, m))
    for u1, u2 in itertools.combinations(jumps, 2):
        for v1 in knot_grid:
            for v2 in knot_grid:
                if not 0 < v1 < v2:
                    continue
                lam = TimeChange(((0.0, 0.0), (float(u1), float(v1)),
                                  (float(u2), float(v2))))
                best = min(best, dense_timechange_cost(x, y, lam, m))
    return best


def _monotone_matchings(p: int, q: int, allowed):
    """All monotone matchings between index sets of sizes p and q whose pairs
    are all in ``allowed`` (a set of (i, j)), fewest pairs first, then in
    lexicographic order of the i and then the j indices."""
    out = [()]
    for k in range(1, min(p, q) + 1):
        for xi in itertools.combinations(range(p), k):
            for yj in itertools.combinations(range(q), k):
                pairs = tuple(zip(xi, yj))
                if all(pr in allowed for pr in pairs):
                    out.append(pairs)
    return out


def _time_change(x: StepPath, y: StepPath, pairs, end=()) -> TimeChange:
    """Piecewise-linear time change mapping y's matched jump times onto x's."""
    return TimeChange(((0.0, 0.0),)
                      + tuple((float(y.times[j]), float(x.times[i])) for i, j in pairs)
                      + tuple(end))


def _sup_damped_gap(x: StepPath, y: StepPath, lam: TimeChange, m: int) -> float:
    """Exact sup over u of | g_m(lam(u)) x(lam(u)) - g_m(u) y(u) |.

    Both terms are affine between breakpoints (path values constant, damping
    and lam piecewise linear), so the sup is attained at interval endpoints.
    """
    end = max(float(m), lam.inverse(float(m)))
    pts = {0.0, end, float(m - 1), float(m),
           lam.inverse(float(m - 1)), lam.inverse(float(m))}
    pts.update(float(u) for u in y.times)
    pts.update(lam.inverse(float(u)) for u in x.times)
    pts.update(u for u, _ in lam.knots)
    pts = sorted(u for u in pts if 0.0 <= u <= end + 1e-12)
    best = 0.0
    for b1, b2 in zip(pts, pts[1:]):
        mid = 0.5 * (b1 + b2)
        xv = x.value(lam(mid))
        yv = y.value(mid)
        for b in (b1, b2):
            gap = g_damping(lam(b), m) * xv - g_damping(b, m) * yv
            best = max(best, float(np.max(np.abs(gap))))
    return best


def _sup_plain_gap(x: StepPath, y: StepPath, lam: TimeChange, upto: float,
                   closed: bool) -> float:
    """sup over u < upto (u <= upto when ``closed``) of | x(lam(u)) - y(u) |."""
    pts = {0.0, upto}
    pts.update(float(u) for u in y.times if u < upto)
    pts.update(v for v in (lam.inverse(float(u)) for u in x.times) if v < upto)
    pts.update(u for u, _ in lam.knots if u < upto)
    pts = sorted(pts)
    gap = 0.0
    for b1, b2 in zip(pts, pts[1:]):
        mid = 0.5 * (b1 + b2)
        gap = max(gap, float(np.max(np.abs(x.value(lam(mid)) - y.value(mid)))))
    if closed:
        gap = max(gap, float(np.max(np.abs(x.value(lam(upto)) - y.value(upto)))))
    return gap


def _first_best(candidates):
    """The first (cost, item) whose cost beats every earlier one by more
    than 1e-12, in the given order."""
    best_cost, best = np.inf, None
    for cost, item in candidates:
        if cost < best_cost - 1e-12:
            best_cost, best = cost, item
    return best_cost, best


def dm_enumeration_oracle(x: StepPath, y: StepPath, m: int):
    """d_m and its witness by evaluating every monotone matching of the jumps
    (see ``skorokhod.dm_distance``) as one whole time change.  Exponential
    in the jump count: up to about 5 jumps per path."""
    if y.sort_key() < x.sort_key():
        x, y = y, x
    window = float(m) + _PAIR_WINDOW
    xi = [i for i, u in enumerate(x.times) if u < window]
    yj = [j for j, u in enumerate(y.times) if u < window]
    allowed = {(a, b) for a in range(len(xi)) for b in range(len(yj))
               if abs(x.times[xi[a]] - y.times[yj[b]]) <= _PAIR_WINDOW}

    def candidates():
        for pairs in _monotone_matchings(len(xi), len(yj), allowed):
            lam = _time_change(x, y, [(xi[a], yj[b]) for a, b in pairs])
            yield max(lam.sup_deviation(float(m)), _sup_damped_gap(x, y, lam, m)), lam

    return _first_best(candidates())


def j1_enumeration_oracle(x: StepPath, y: StepPath, horizon: float) -> float:
    """The undamped distance of ``skorokhod.j1_distance`` by evaluating
    every monotone matching of the jumps before the horizon."""
    if y.sort_key() < x.sort_key():
        x, y = y, x
    p = int(np.sum(x.times < horizon))
    q = int(np.sum(y.times < horizon))
    allowed = {(a, b) for a in range(p) for b in range(q)}

    def candidates():
        for pairs in _monotone_matchings(p, q, allowed):
            lam = _time_change(x, y, pairs)
            yield max(lam.sup_deviation(horizon),
                      _sup_plain_gap(x, y, lam, horizon, False)), lam

    return _first_best(candidates())[0]


def witness_enumeration_oracle(x_n: StepPath, x: StepPath, t: float, m_max: int):
    """The report of ``skorokhod.convergence_witness`` with gamma found by
    evaluating every monotone matching of the jumps before t."""
    p = int(np.sum(x_n.times < t))
    q = int(np.sum(x.times < t))
    allowed = {(a, b) for a in range(p) for b in range(q)}
    big = t * (1.0 - 1.0 / (1.0 + m_max))

    def candidates():
        for pairs in _monotone_matchings(p, q, allowed):
            lam = _time_change(x_n, x, pairs, end=[(t, t)])
            yield max(lam.sup_deviation(big),
                      _sup_plain_gap(x_n, x, lam, big, True)), lam

    _, gamma = _first_best(candidates())
    return {
        "gamma_sup": gamma.sup_deviation(t * (1 - 1e-12)),
        "deviations": {m: _sup_plain_gap(x_n, x, gamma, t * (1.0 - 1.0 / (1.0 + m)), True)
                       for m in range(1, m_max + 1)},
        "gamma": gamma,
    }


def trinomial_band_oracle(payoff: PayoffSpec, band: VolatilityBand, grid: GridSpec) -> float:
    """Upper band price at time 0 of a terminal or cylinder payoff by the
    robust recursion on the full trinomial tree of the grid (3^n_steps
    leaves), each node offering the two band-endpoint kernels
    p_+- = sigma^2 dt / (2 h^2), p_0 = 1 - sigma^2 dt / h^2.  Each leaf's
    path is read at the payoff's monitoring steps through its ancestors,
    and its values are shaped as on the grid (``gexp._on_grid``): a scalar
    is broadcast to every leaf.
    The tree has no boundary, so the grid must have radius >= n_steps."""
    if grid.radius < grid.n_steps:
        raise ValueError(f"radius {grid.radius} < {grid.n_steps} steps")
    grid.check_cfl(band)
    lat = trinomial_tree(grid.h, grid.n_steps, grid.dt)

    def kernel(sigma):
        var = sigma ** 2 * grid.dt / grid.h ** 2
        return np.array([var / 2.0, 1.0 - var, var / 2.0])

    levels = tuple((tuple((kernel(sigma), 0.0) for sigma in band.at_step(k)),) * lat.n_nodes(k)
                   for k in range(grid.n_steps))
    T = lat.terminal
    path = [lat.values[k][lat.ancestors_of_slice(T, k), 0] for k in payoff.steps_on(grid)]
    X = RandomVariable(lat, T, -_on_grid(payoff.fn(*path), (lat.n_nodes(T),)))
    return float(OneStepStructure(lat, levels).rho(0, T, X).values[0])


def call_upper_value(sigma_high: float, horizon: float) -> float:
    """Closed form for the upper band value of (B_T)+: the payoff is convex,
    so the sup sits at the upper volatility and equals sigma sqrt(T)/sqrt(2 pi)."""
    return sigma_high * np.sqrt(horizon) / np.sqrt(2.0 * np.pi)


def square_band_values(sigma_low: float, sigma_high: float, horizon: float):
    """(lower, upper) band values of B_T^2: convex payoff, so the variance
    bounds are attained: (sigma_low^2 T, sigma_high^2 T)."""
    return sigma_low ** 2 * horizon, sigma_high ** 2 * horizon
