"""Step-path metrics: the time change alpha_t, damped Skorokhod distances
d_m, the compact-uniform metric on half-open domains, and split/concat for
continuous piecewise-linear paths.

Paths on [0, t) are transported to [0, inf) through alpha_t(u) = u / (t - u)
and compared there with the damped distances

    d_m(x, y) = inf_lam max( sup_{[0,m]} |lam(u) - u|,
                             sup_u | g_m(lam(u)) x(lam(u)) - g_m(u) y(u) | )

where g_m is 1 up to m-1, decays linearly to 0 at m, and vanishes after.
The infimum is taken over piecewise-linear time changes with knots at
monotone matchings of the two jump sequences, of unit slope after the last
knot; the result is an exact value whenever the optimum aligns jumps and a
certified upper bound otherwise.  Such a time change is linear between
knots, so its cost is a max over pieces that each depend on two knots only,
and the best matching is a minimax path through the DAG of jump pairs:
polynomial in the jump counts, where enumerating matchings is exponential.
The weighted sum over m yields the half-open-domain metric that makes the
projection from [0, inf) continuous, in contrast with the undamped J1
distance (also provided, for the contrast).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "StepPath",
    "TimeChange",
    "PLContinuousPath",
    "alpha_map",
    "alpha_inv",
    "transform_path",
    "project_path",
    "g_damping",
    "dm_distance",
    "dhat_distance",
    "j1_distance",
    "split_concat",
    "concat",
    "convergence_witness",
    "path_to_json",
    "path_from_json",
]

_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class StepPath:
    """Cadlag step function: x(0) = 0, jumps at strictly increasing times.

    ``values[i]`` is the (vector) value on [times[i], times[i+1]); the value
    before the first jump is 0.  ``horizon`` is t for domain [0, t) and None
    for [0, inf).
    """

    times: np.ndarray
    values: np.ndarray
    horizon: Optional[float] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.shape[0] != times.size:
            raise ValueError("one value per jump time required")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("jump times and values must be finite")
        if times.size and (times[0] <= 0 or np.any(np.diff(times) <= 0)):
            raise ValueError("jump times must be strictly increasing and > 0")
        if self.horizon is not None and times.size and times[-1] >= self.horizon:
            raise ValueError("jump times must lie inside the domain [0, t)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.shape[1] if self.values.size else 1

    def value(self, u: float) -> np.ndarray:
        """Right-continuous evaluation; 0 before the first jump."""
        d = self.values.shape[1] if self.values.size else 1
        k = int(np.searchsorted(self.times, u, side="right")) - 1
        if k < 0:
            return np.zeros(d)
        return self.values[k]

    def sort_key(self):
        return (tuple(self.times), tuple(self.values.reshape(-1)))


@dataclass(frozen=True)
class TimeChange:
    """Strictly increasing piecewise-linear bijection of unit slope after
    its last knot."""

    knots: tuple  # of (u, lam(u)) pairs, starting at (0, 0)

    def __post_init__(self):
        knots = tuple((float(u), float(v)) for u, v in self.knots)
        if not knots or knots[0] != (0.0, 0.0):
            raise ValueError("a time change must fix the origin")
        us = [k[0] for k in knots]
        vs = [k[1] for k in knots]
        if np.any(np.diff(us) <= 0) or np.any(np.diff(vs) <= 0):
            raise ValueError("time-change knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    def __call__(self, u: float) -> float:
        us = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if u >= us[-1]:
            return vs[-1] + (u - us[-1])
        return float(np.interp(u, us, vs))

    def inverse(self, v: float) -> float:
        us = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if v >= vs[-1]:
            return us[-1] + (v - vs[-1])
        return float(np.interp(v, vs, us))

    def sup_deviation(self, upto: float) -> float:
        """sup over [0, upto] of |lam(u) - u|."""
        best = 0.0
        for u, v in self.knots:
            if u <= upto:
                best = max(best, abs(v - u))
        best = max(best, abs(self(upto) - upto))
        return best


def alpha_map(u: float, t: float) -> float:
    """alpha_t(u) = u / (t - u), mapping [0, t) onto [0, inf)."""
    if not 0 <= u < t:
        raise ValueError(f"need 0 <= u < t, got u={u}, t={t}")
    return u / (t - u)


def alpha_inv(v: float, t: float) -> float:
    """alpha_t^{-1}(v) = v t / (1 + v)."""
    if v < 0:
        raise ValueError("need v >= 0")
    return v * t / (1.0 + v)


def transform_path(x: StepPath, t: float) -> StepPath:
    """Transport a path on [0, t) to [0, inf) through alpha_t."""
    if x.horizon != t:
        raise ValueError("the path must live on [0, t)")
    new_times = np.array([alpha_map(u, t) for u in x.times])
    return StepPath(new_times, x.values, horizon=None)


def project_path(x: StepPath, t: float) -> StepPath:
    """Restriction to [0, t): jumps at times >= t are dropped."""
    keep = x.times < t
    return StepPath(x.times[keep], x.values[keep], horizon=t)


def g_damping(u, m: int):
    """g_m: 1 on [0, m-1], linear down to 0 on [m-1, m], 0 after."""
    u = np.asarray(u, dtype=float)
    out = np.clip(m - u, 0.0, 1.0)
    return out if out.ndim else float(out)


def _prepared(x: StepPath, y: StepPath):
    """Each path as (jump times, value rows) in Python floats; row 0 is the
    value before the first jump.  A one-dimensional path broadcasts against
    a d-dimensional one, as numpy would."""
    dx, dy = x.values.shape[1], y.values.shape[1]
    if dx != dy and min(dx, dy) != 1:
        raise ValueError(f"cannot compare paths of dimensions {dx} and {dy}")
    d = max(dx, dy)

    def rows(p: StepPath):
        out = [(0.0,) * d] + [tuple(r) for r in p.values.tolist()]
        return [r * d if len(r) == 1 else r for r in out]

    return (x.times.tolist(), rows(x)), (y.times.tolist(), rows(y))


def _piece(k0, k1):
    """The linear piece of a time change between knots k0 = (u0, v0) and
    k1, or its unit-slope tail after k0 when k1 is None, as
    (u0, v0, u1, v1, slope, inverse slope)."""
    u0, v0 = k0
    if k1 is None:
        return (u0, v0, np.inf, np.inf, 1.0, 1.0)
    u1, v1 = k1
    return (u0, v0, u1, v1, (v1 - v0) / (u1 - u0), (u1 - u0) / (v1 - v0))


# Both maps repeat np.interp's arithmetic and are exact at the knots, so a
# cost taken piece by piece is, bit for bit, the cost of the whole TimeChange.
def _lam(pc, u: float) -> float:
    return pc[3] if u == pc[2] else pc[4] * (u - pc[0]) + pc[1]


def _lam_inv(pc, v: float) -> float:
    return pc[2] if v == pc[3] else pc[5] * (v - pc[1]) + pc[0]


def _deviation(pc, upto: float) -> float:
    """The piece's share of sup_{[0, upto]} |lam(u) - u|: its end knot and,
    if it holds upto, the point upto."""
    u0, _, u1, v1 = pc[:4]
    dev = abs(v1 - u1) if u1 <= upto else 0.0
    if u0 <= upto < u1:
        dev = max(dev, abs(_lam(pc, upto) - upto))
    return dev


def _sup_abs(xv, yv, a: float = 1.0, b: float = 1.0) -> float:
    return max(abs(a * p - b * q) for p, q in zip(xv, yv))


def _damped_gap(X, Y, pc, m: int) -> float:
    """sup over u in the piece of | g_m(lam(u)) X(lam(u)) - g_m(u) Y(u) |.

    Between breakpoints (jumps of either path, knots, and where either
    damping bends) the path values are constant and the damping terms
    affine, so the sup sits at interval ends, taken with the values inside.
    Past max(m, lam^-1(m)) both damping terms vanish.
    """
    (xt, xrows), (yt, yrows) = X, Y
    u0, v0, u1, v1 = pc[:4]
    fm = float(m)
    pts = {u0, u1}  # u1 = inf for the tail, which the cut below drops
    pts.update(yt[bisect_left(yt, u0):bisect_right(yt, u1)])
    pts.update(_lam_inv(pc, v) for v in xt[bisect_left(xt, v0):bisect_left(xt, v1)])
    for c in (fm - 1.0, fm):
        if u0 <= c <= u1:
            pts.add(c)
        if v0 <= c < v1:
            pts.add(_lam_inv(pc, c))
    if v1 <= fm:
        cut = np.inf
    elif v0 <= fm:
        cut = max(fm, _lam_inv(pc, fm)) + _MATCH_TOL
    else:
        cut = fm + _MATCH_TOL
    marks = [(b, min(max(fm - _lam(pc, b), 0.0), 1.0), min(max(fm - b, 0.0), 1.0))
             for b in sorted(b for b in pts if b <= cut)]
    best = 0.0
    for (b1, a1, c1), (b2, a2, c2) in zip(marks, marks[1:]):
        mid = 0.5 * (b1 + b2)
        xv = xrows[bisect_right(xt, _lam(pc, mid))]
        yv = yrows[bisect_right(yt, mid)]
        best = max(best, _sup_abs(xv, yv, a1, c1), _sup_abs(xv, yv, a2, c2))
    return best


def _plain_gap(X, Y, pc, upto: float, closed: bool) -> float:
    """sup over u in the piece with u < upto (u <= upto when ``closed``) of
    | X(lam(u)) - Y(u) |: both paths are constant between breakpoints."""
    (xt, xrows), (yt, yrows) = X, Y
    u0, v0, u1, v1 = pc[:4]
    if u0 > upto:
        return 0.0
    end = min(u1, upto)
    pts = {u0, end}
    pts.update(yt[bisect_left(yt, u0):bisect_right(yt, end)])
    pts.update(b for b in (_lam_inv(pc, v) for v in
                           xt[bisect_left(xt, v0):bisect_left(xt, v1)]) if b <= end)
    pts = sorted(pts)
    best = 0.0
    for b1, b2 in zip(pts, pts[1:]):
        mid = 0.5 * (b1 + b2)
        best = max(best, _sup_abs(xrows[bisect_right(xt, _lam(pc, mid))],
                                  yrows[bisect_right(yt, mid)]))
    if closed and u0 <= upto < u1:
        best = max(best, _sup_abs(xrows[bisect_right(xt, _lam(pc, upto))],
                                  yrows[bisect_right(yt, upto)]))
    return best


def _best_matching(X, Y, pairs, cost, end=None):
    """Least-cost monotone matching of X's and Y's jumps, as a minimax path
    through the DAG of allowed jump pairs.

    ``pairs`` lists the allowed (i, j) in lexicographic order.  A matching
    gives the time change with knots (0, 0) and (Y time j, X time i) per
    pair: linear between knots, then linear to the knot ``end`` or, when
    ``end`` is None, of unit slope.  Its cost is the max of ``cost(piece)``
    over its pieces, and each piece depends on its two end knots only, so
    best(b) = min over predecessors a of max(best(a), cost(a -> b)).  Among
    the matchings within _MATCH_TOL of the least cost, the one returned is
    the first in enumeration order: fewest pairs, then lexicographically
    least X indices, then Y indices.  Returns (its cost, its knots).
    """
    xt, yt = X[0], Y[0]
    nodes = [(-1, -1)] + list(pairs)
    knots = [(0.0, 0.0)] + [(yt[j], xt[i]) for i, j in pairs]
    edges = {}  # (a, b) -> cost, in increasing a: a topological order
    for a, (ia, ja) in enumerate(nodes):
        for b in range(a + 1, len(nodes)):
            if nodes[b][0] > ia and nodes[b][1] > ja:
                edges[a, b] = cost(_piece(knots[a], knots[b]))
    close = [cost(_piece(k, end)) for k in knots]
    best = [0.0] + [np.inf] * len(pairs)
    for (a, b), c in edges.items():
        best[b] = min(best[b], max(best[a], c))
    theta = min(map(max, best, close)) + _MATCH_TOL
    # least (X indices, Y indices) of a completion within theta from each
    # node, by exactly r more pairs, for r = 0, 1, ... until the origin has one
    tails = [((), ()) if c <= theta else None for c in close]
    while tails[0] is None:
        longer = [None] * len(nodes)
        for (a, b), c in edges.items():
            if c <= theta and tails[b] is not None:
                cand = ((nodes[b][0],) + tails[b][0], (nodes[b][1],) + tails[b][1])
                if longer[a] is None or cand < longer[a]:
                    longer[a] = cand
        tails = longer
    index = {pair: a for a, pair in enumerate(nodes)}
    chain = [0] + [index[pair] for pair in zip(*tails[0])]
    value = max([edges[a, b] for a, b in zip(chain, chain[1:])] + [close[chain[-1]]])
    return value, [knots[a] for a in chain] + ([end] if end else [])


def dm_distance(x: StepPath, y: StepPath, m: int, pair_window: float = 2.0):
    """Damped distance d_m between paths on [0, inf).

    Minimizes over piecewise-linear time changes with knots at monotone
    matchings of the jumps before m + pair_window, pairing jumps at most
    pair_window apart; returns (value, witness TimeChange).  The minimum is
    a minimax path over jump pairs (:func:`_best_matching`), polynomial in
    the jump counts.  Symmetric by construction (canonical argument order).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if x.horizon is not None or y.horizon is not None:
        raise ValueError("d_m compares paths on [0, inf); transform first")
    if y.sort_key() < x.sort_key():
        x, y = y, x
    X, Y = _prepared(x, y)
    window = float(m) + pair_window
    pairs = [(i, j) for i, xu in enumerate(X[0]) if xu < window
             for j, yu in enumerate(Y[0]) if yu < window and abs(xu - yu) <= pair_window]
    value, knots = _best_matching(
        X, Y, pairs, lambda pc: max(_deviation(pc, float(m)), _damped_gap(X, Y, pc, m)))
    return value, TimeChange(tuple(knots))


def dhat_distance(x: StepPath, y: StepPath, t: float, M: int = 20):
    """Compact-uniform metric on [0, t): weighted damped distances after the
    alpha_t transport.  Returns (value, tail bound 2^-M)."""
    if M < 1:
        raise ValueError("need a truncation level M >= 1")
    xr = transform_path(x, t)
    yr = transform_path(y, t)
    total = 0.0
    for m in range(1, M + 1):
        dm, _ = dm_distance(xr, yr, m)
        total += 2.0 ** (-m) * min(1.0, dm)
    return total, 2.0 ** (-M)


def j1_distance(x: StepPath, y: StepPath, horizon: float) -> float:
    """Undamped J1-style distance on [0, horizon): jump mismatches cannot be
    damped away.  Used for the projection-discontinuity contrast."""
    if y.sort_key() < x.sort_key():
        x, y = y, x
    X, Y = _prepared(x, y)
    h = float(horizon)
    pairs = [(i, j) for i, xu in enumerate(X[0]) if xu < h
             for j, yu in enumerate(Y[0]) if yu < h]
    value, _ = _best_matching(
        X, Y, pairs, lambda pc: max(_deviation(pc, h), _plain_gap(X, Y, pc, h, False)))
    return value


@dataclass(frozen=True)
class PLContinuousPath:
    """Continuous piecewise-linear path given by knots; constant-slope tail.

    ``offset`` shifts all values (kept separate so split/concat round trips
    are bit-exact); the path must vanish at its first knot.
    """

    times: np.ndarray
    values: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if times.size != values.size or times.size < 1:
            raise ValueError("need matching, non-empty knot arrays")
        if np.any(np.diff(times) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if values[0] + self.offset != 0.0:
            raise ValueError("the path must vanish at its starting time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def start(self) -> float:
        return float(self.times[0])

    def value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        base = np.interp(u, self.times, self.values)
        if self.times.size >= 2:  # constant-slope extrapolation beyond last knot
            slope = (self.values[-1] - self.values[-2]) / (self.times[-1] - self.times[-2])
            tail = u > self.times[-1]
            base = np.where(tail, self.values[-1] + slope * (u - self.times[-1]), base)
        return base + self.offset


def split_concat(x: PLContinuousPath, t: float):
    """Split a continuous path at t into (head on [0, t], shifted tail with
    tail(t) = 0).  The inverse is :func:`concat`."""
    if x.start != 0.0:
        raise ValueError("split expects a path started at 0")
    xt = float(x.value(t))
    head_mask = x.times <= t
    head_t = list(x.times[head_mask])
    head_v = list(x.values[head_mask])
    if not head_t or head_t[-1] < t:
        head_t.append(t)
        head_v.append(xt - x.offset)
    head = PLContinuousPath(np.array(head_t), np.array(head_v), offset=x.offset)
    tail_mask = x.times >= t
    tail_t = list(x.times[tail_mask])
    tail_v = list(x.values[tail_mask])
    if not tail_t or tail_t[0] > t:
        tail_t.insert(0, t)
        tail_v.insert(0, xt - x.offset)
    tail = PLContinuousPath(np.array(tail_t), np.array(tail_v),
                            offset=x.offset - xt)
    return head, tail


def concat(head: PLContinuousPath, tail: PLContinuousPath) -> PLContinuousPath:
    """Rejoin a (head, shifted tail) pair: inverse of :func:`split_concat`."""
    t = tail.start
    ht = float(head.value(t))
    if abs(float(tail.value(t))) > 0:
        raise ValueError("the tail must vanish at its starting time")
    times = np.concatenate([head.times[head.times < t], tail.times])
    values = np.concatenate(
        [head.values[head.times < t] + head.offset,
         tail.values + (tail.offset + ht)]
    )
    return PLContinuousPath(times, values, offset=0.0)


def convergence_witness(x_n: StepPath, x: StepPath, t: float, m_max: int):
    """Best jump-matching time change of [0, t) and the two quantities of the
    convergence criterion: sup |gamma - id| and, per m <= m_max, the sup
    deviation of x_n(gamma(u)) from x(u) on [0, t (1 - 1/(1+m))]."""
    X, Y = _prepared(x_n, x)
    t = float(t)
    pairs = [(i, j) for i, v in enumerate(X[0]) if v < t
             for j, u in enumerate(Y[0]) if u < t]

    def deviation(pieces, m):
        upto = t * (1.0 - 1.0 / (1.0 + m))
        return max(_plain_gap(X, Y, pc, upto, True) for pc in pieces)

    # gamma maps x's timeline onto x_n's; it must be a bijection of [0, t),
    # so it is pinned at (t, t) past the matched knots
    big = t * (1.0 - 1.0 / (1.0 + m_max))
    _, knots = _best_matching(
        X, Y, pairs, lambda pc: max(_deviation(pc, big), deviation([pc], m_max)),
        end=(t, t))
    gamma = TimeChange(tuple(knots))
    pieces = [_piece(a, b) for a, b in zip(knots, knots[1:])]
    return {
        "gamma_sup": gamma.sup_deviation(t * (1 - 1e-12)),
        "deviations": {m: deviation(pieces, m) for m in range(1, m_max + 1)},
        "gamma": gamma,
    }


def path_to_json(x: StepPath) -> str:
    domain = {"kind": "ray"} if x.horizon is None else \
        {"kind": "half_open", "t": x.horizon}
    jumps = [{"time": float(u), "value": [float(v) for v in x.values[i]]}
             for i, u in enumerate(x.times)]
    return json.dumps({"domain": domain, "jumps": jumps}, sort_keys=True)


def path_from_json(text: str) -> StepPath:
    doc = json.loads(text)
    horizon = None if doc["domain"]["kind"] == "ray" else float(doc["domain"]["t"])
    times = np.array([j["time"] for j in doc["jumps"]], dtype=float)
    values = np.array([j["value"] for j in doc["jumps"]], dtype=float)
    if values.size == 0:
        values = values.reshape(0, 1)
    return StepPath(times, values, horizon=horizon)
