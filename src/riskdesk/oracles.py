"""Independent oracles that the acceptance battery, the benchmark's checks,
demo 04 and the tests call.

Each oracle recomputes a quantity from its raw definition, avoiding the code
path under test: the convex conjugate by optimizing over test positions
directly (growing box), dense-sampled Skorokhod costs over candidate time
changes and a grid search over them, band prices by the robust recursion on
a trinomial scenario tree, and closed forms for the band prices of standard
payoffs.  The oracles that only the tests use live in the tests: the literal
conjugate grid search in ``tests/test_risk.py`` and the Skorokhod distances
by enumerating every monotone jump matching in ``tests/test_skorokhod.py``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fixtures import trinomial_tree
from .gexp import GridSpec, PayoffSpec, VolatilityBand, _on_grid
from .risk import DualRep
from .lattice import RandomVariable
from .measures import Measure
from .skorokhod import StepPath, TimeChange, g_damping
from .dynamics import OneStepStructure

__all__ = [
    "conjugate_box_oracle",
    "dense_timechange_cost",
    "dm_grid_oracle",
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
        for v in knot_grid:  # every knot lies above 0
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
