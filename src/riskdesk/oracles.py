"""Independent oracles used by the test suite.

Each oracle recomputes a quantity from its raw definition, avoiding the code
path under test: the convex conjugate by optimizing over test positions
directly (growing box), literal grid search on tiny fixtures, dense-sampled
Skorokhod costs over candidate time changes, and closed forms / quadrature
for the band prices of standard payoffs.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .risk import DualRep, rm_evaluate
from .lattice import RandomVariable
from .measures import Measure
from .skorokhod import StepPath, TimeChange, g_damping

__all__ = [
    "conjugate_box_oracle",
    "conjugate_grid_oracle",
    "dense_timechange_cost",
    "dm_grid_oracle",
    "gauss_hermite_expectation",
    "call_upper_value",
    "square_band_values",
]


def conjugate_box_oracle(rep: DualRep, Q: Measure,
                         boxes: Sequence[float] = (1e3, 1e5, 1e7),
                         grow_tol: float = 1.0) -> np.ndarray:
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
    for n in range(lat.n_nodes(s)):
        q = Q.conditional_subtree_probs(s, n, t)
        cols, costs = [], []
        for Qk, alpha in rep.components:
            if np.isinf(alpha.values[n]):
                continue
            cols.append(Qk.conditional_subtree_probs(s, n, t))
            costs.append(float(alpha.values[n]))
        D = q.size
        # maximize u subject to u <= <q - q_k, Y> + alpha_k, |Y| <= M
        A_ub = np.column_stack([np.ones(len(cols)),
                                np.stack(cols) - q[None, :]])
        c = np.zeros(D + 1)
        c[0] = -1.0
        vals = []
        for M in boxes:
            bounds = [(None, None)] + [(-M, M)] * D
            res = linprog(c, A_ub=A_ub, b_ub=np.asarray(costs),
                          bounds=bounds, method="highs")
            if res.status != 0:
                raise RuntimeError(f"box oracle LP failed at node ({s},{n})")
            vals.append(-res.fun)
        out[n] = np.inf if vals[-1] > vals[-2] + grow_tol else vals[-1]
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
    for combo in itertools.product(grid, repeat=width):
        base[sl] = combo
        X = RandomVariable(lat, t, base)
        ce = float(np.dot(Q.conditional_subtree_probs(s, node, t), -np.asarray(combo)))
        best = max(best, ce - float(rm_evaluate(rep, X).values[node]))
    return best


def _values_at(p: StepPath, ts: np.ndarray) -> np.ndarray:
    d = p.values.shape[1] if p.values.size else 1
    table = np.vstack([np.zeros((1, d)),
                       p.values if p.values.size else np.zeros((0, d))])
    idx = np.searchsorted(p.times, ts, side="right")
    return table[idx]


def dense_timechange_cost(x: StepPath, y: StepPath, lam: TimeChange, m: int,
                          n_samples: int = 4001) -> float:
    """Numeric cost of a candidate time change by dense sampling of both
    suprema (a lower bound on the true sup, used to validate exact values)."""
    end = max(float(m), lam.inverse(float(m))) + 1.0
    us = np.linspace(0.0, end, n_samples)
    ku = np.array([k[0] for k in lam.knots])
    kv = np.array([k[1] for k in lam.knots])
    lus = np.where(us >= ku[-1], kv[-1] + (us - ku[-1]), np.interp(us, ku, kv))
    inside = us <= m
    dev = float(np.max(np.abs(lus[inside] - us[inside])))
    diff = np.asarray(g_damping(lus, m))[:, None] * _values_at(x, lus) \
        - np.asarray(g_damping(us, m))[:, None] * _values_at(y, us)
    return max(dev, float(np.max(np.abs(diff))))


def dm_grid_oracle(x: StepPath, y: StepPath, m: int,
                   knot_grid: Optional[np.ndarray] = None,
                   n_samples: int = 4001) -> float:
    """Grid search over single-knot and two-knot piecewise-linear time
    changes, each evaluated by dense sampling.  Returns the best cost found,
    an independent upper bound on d_m."""
    jumps = sorted(set(list(x.times) + list(y.times)))
    jumps = [u for u in jumps if u < m + 2]
    if knot_grid is None:
        knot_grid = np.array(sorted(set(np.linspace(0.05, float(m) + 1.0, 40))
                                    | set(jumps)))
    best = dense_timechange_cost(x, y, TimeChange(((0.0, 0.0),)), m, n_samples)
    for u in jumps:
        for v in knot_grid:
            if v <= 0:
                continue
            lam = TimeChange(((0.0, 0.0), (float(u), float(v))))
            best = min(best, dense_timechange_cost(x, y, lam, m, n_samples))
    for u1, u2 in itertools.combinations(jumps, 2):
        for v1 in knot_grid:
            for v2 in knot_grid:
                if not 0 < v1 < v2:
                    continue
                lam = TimeChange(((0.0, 0.0), (float(u1), float(v1)),
                                  (float(u2), float(v2))))
                best = min(best, dense_timechange_cost(x, y, lam, m, n_samples))
    return best


def gauss_hermite_expectation(payoff, sigma: float, horizon: float,
                              n_points: int = 200) -> float:
    """E f(sigma sqrt(T) Z), Z standard normal, by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
    vals = np.asarray(payoff(sigma * np.sqrt(horizon) * nodes), dtype=float)
    return float(np.dot(weights, vals) / np.sqrt(2.0 * np.pi))


def call_upper_value(sigma_high: float, horizon: float) -> float:
    """Closed form for the upper band value of (B_T)+: the payoff is convex,
    so the sup sits at the upper volatility and equals sigma sqrt(T)/sqrt(2 pi)."""
    return sigma_high * np.sqrt(horizon) / np.sqrt(2.0 * np.pi)


def square_band_values(sigma_low: float, sigma_high: float, horizon: float):
    """(lower, upper) band values of B_T^2: convex payoff, so the variance
    bounds are attained: (sigma_low^2 T, sigma_high^2 T)."""
    return sigma_low ** 2 * horizon, sigma_high ** 2 * horizon
