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
certified upper bound otherwise.  A piece so steep that floating point
cannot place an X jump inside it is left out (:func:`_inner`): its scan
would skip rows of X and read less than the witness costs.  Such a time
change is linear between knots, so its cost is a max over pieces that each
depend on two knots only, and the best matching is a minimax path through
the DAG of jump pairs: polynomial in the jump counts, where enumerating
matchings is exponential.  A piece's cost is one pass over its breakpoints
(:func:`_cost`, :func:`_gap`, :func:`_scan`): lam, its inverse and both
damping factors are written out inline, each breakpoint's factors serve the
two intervals that meet there, and at m = inf, where g = 1, none are taken.
The search is bounded, as in early-abandoning DTW search: a piece is priced
only as far as the best cost so far can still be met (:func:`_best_matching`).
The weighted sum over m yields the half-open-domain metric that makes the
projection from [0, inf) continuous, in contrast with the undamped J1
distance (also provided, for the contrast).  As in Billingsley (1999, §16),
d_m is the J1 distance of the g_m-damped paths, so the undamped gap is the
damped gap at m = inf: one evaluator (:func:`_gap`) serves both.  The
weighted sum reads d_m only through min(1, d_m), a bound known before the
search starts, so each level's search is capped just above 1: below the cap
every piece that counts is priced at a stop of at least the final bound, so
the value keeps its bits, and past it any value returned is above 1, as d_m
is.  A piece that ends before the ramp [m-1, m] costs at m what it costs at
m = inf, and no level prices past the cap, so the M distances of the
weighted sum come from one pass that prices such a piece, and the part of a
unit-slope tail before the ramp, once, at the cap.  Past the last ramp
crossing every level has the same jump pairs and edge costs, so one pair
search serves them all, and each runs only its closing phase
(:func:`_dm_matchings`).  Before its search, each level takes a floor that
no matching can beat, as DTW search checks a cheap lower bound (LB_Kim)
before the costly alignment.  A time change only reparametrizes a damped
path, which keeps its sup and inf, and sup and inf are 1-Lipschitz, so d_m
is at least the gap between the damped paths' sups and between their infs,
per coordinate (less a slack for rounding); far enough past the last jump
it is also at least the gap between their end values.  A level whose floor
reaches 1 needs no search (:func:`_floors`).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isfinite
from numbers import Real
from operator import sub
from typing import Optional

import numpy as np

from .lattice import _is_integer

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
_PAIR_WINDOW = 2.0  # how far apart d_m may pair jumps (see dm_distance)
# relative slack on "before the ramp": just before a piece's end knot u1,
# lam can round a few ulps past v1
_ROUNDING = 1e-12
_LAST_LEVEL = 1074  # 2.0 ** -m is 0.0 past it, so d-hat's later levels add 0.0
_INF = float("inf")  # one global read in the pricing loops, where np.inf is two lookups


@dataclass(frozen=True, eq=False)
class StepPath:
    """Cadlag step function: x(0) = 0, jumps at strictly increasing times.

    ``values[i]`` is the (vector) value on [times[i], times[i+1]); the value
    before the first jump is 0.  ``times`` is one-dimensional, and
    ``values`` holds one number or one row of at least one coordinate per
    jump.  ``horizon`` is t for domain [0, t), finite and > 0, and None for
    [0, inf).
    """

    times: np.ndarray
    values: np.ndarray
    horizon: Optional[float] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1:
            if times.ndim:
                raise ValueError(f"jump times must be one-dimensional, got shape {times.shape}")
            times = times.reshape(1)
        if values.ndim != 2:
            if values.ndim != 1:
                raise ValueError("values must be one number or one row per jump time, "
                                 f"got shape {values.shape}")
            values = values.reshape(-1, 1)
        n, d = values.shape
        if n != times.size:
            raise ValueError("one value per jump time required")
        if not d:
            raise ValueError(f"values must have at least one coordinate, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("jump times and values must be finite")
        # one shifted comparison: times that pass it are finite, and a NaN fails it
        if n and not (times[0] > 0.0 and times[-1] < _INF
                      and (n == 1 or (times[1:] > times[:-1]).all())):
            if not np.isfinite(times).all():
                raise ValueError("jump times and values must be finite")
            raise ValueError("jump times must be strictly increasing and > 0")
        if self.horizon is not None:
            horizon = _positive(self.horizon, "the horizon")
            if n and times[-1] >= horizon:
                raise ValueError("jump times must lie inside the domain [0, t)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def value(self, u: float) -> np.ndarray:
        """Right-continuous evaluation; 0 before the first jump."""
        k = int(np.searchsorted(self.times, u, side="right")) - 1
        if k < 0:
            return np.zeros(self.dimension)
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
        # knots that rise from (0, 0) and stay below inf are finite; a NaN fails it
        if not (all(u0 < u1 and v0 < v1 for (u0, v0), (u1, v1) in zip(knots, knots[1:]))
                and knots[-1][0] < _INF and knots[-1][1] < _INF):
            raise ValueError(f"time-change knots must be finite and strictly increasing: {knots}")
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


def _positive(t, name: str) -> float:
    try:
        ok = isfinite(t) and t > 0
    except TypeError:  # not a real number: a string, None, a complex
        raise ValueError(f"{name} must be a real number, got {t!r}") from None
    if not ok:
        raise ValueError(f"{name} must be finite and > 0, got {t}")
    return float(t)


def _level(m, name: str) -> int:
    """m itself when it is an integer (not a bool) >= 1."""
    if not _is_integer(m) or m < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {m!r}")
    return int(m)


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
    return StepPath([alpha_map(u, t) for u in x.times.tolist()], x.values, horizon=None)


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
        return (u0, v0, _INF, _INF, 1.0, 1.0)
    u1, v1 = k1
    return (u0, v0, u1, v1, (v1 - v0) / (u1 - u0), (u1 - u0) / (v1 - v0))


# The pricing below takes lam(u) = v1 if u == u1 else slope (u - u0) + v0 and
# lam^-1(v) = u1 if v == v1 else inverse slope (v - v0) + u0.  Both repeat
# np.interp's arithmetic and are exact at the knots, so a cost taken piece by
# piece is, bit for bit, the cost of the whole TimeChange.  Each function
# writes out only the branch that its argument can take, and the damping
# factor g_m(w) = min(max(m - w, 0.0), 1.0) as comparisons, without calls.
def _inner(xt, pc):
    """The breakpoints lam^-1(t) of X's jump times t inside the piece, or None
    when floating point cannot place them: unless they rise strictly from u0
    to u1, an X row between two jumps whose breakpoints coincide lies on no
    interval of the scan, and unless lam maps each back to within
    _ROUNDING t of t, X is damped far from its jump.  Only a steep piece,
    one that crosses whole X rows within a few ulps of u, fails either."""
    u0, v0, u1, v1, slope, inv = pc
    out = []
    last = u0
    for t in xt[bisect_right(xt, v0):bisect_left(xt, v1)]:
        b = inv * (t - v0) + u0  # lam^-1(t), as t < v1
        if not last < b < u1 or abs(slope * (b - u0) + v0 - t) > _ROUNDING * t:
            return None
        out.append(b)
        last = b
    return out


def _gap(X, Y, pc, m: float, upto: float, closed: bool, stop: float) -> float:
    """sup over u in the piece with u < upto (u <= upto when ``closed``) of
    | g_m(lam(u)) X(lam(u)) - g_m(u) Y(u) |, exact when at most ``stop``;
    past ``stop`` the scan ends and returns a lower bound > stop.

    Between breakpoints (jumps of either path, knots, and where either
    damping bends) the path values are constant and the damping terms
    affine, so the sup sits at interval ends, taken with the values inside
    (:func:`_scan`).  Past max(m, lam^-1(m)) both damping terms vanish, and
    the piece is cut there.  At m = inf nothing bends and nothing is cut.

    A piece whose X jumps floating point cannot place (:func:`_inner`) is
    not priced: its gap reads inf.
    """
    u0, v0, u1, v1, _, inv = pc
    if u0 > upto:
        return 0.0
    inner = _inner(X[0], pc)
    if inner is None:
        return _INF
    yt = Y[0]
    fm = float(m)
    end = upto if upto < u1 else u1
    pts = {u0, end}  # end = inf for the tail of d_m, which the cut below drops
    pts.update(yt[bisect_left(yt, u0):bisect_right(yt, end)])
    pts.update(inner)
    cut = end
    if fm != _INF:
        for c in (fm - 1.0, fm):
            if u0 <= c <= u1:
                pts.add(c)
            if v0 <= c < v1:
                pts.add(inv * (c - v0) + u0)
        if fm < v1:  # cut at max(m, lam^-1(m)) + _MATCH_TOL, if before end
            c = inv * (fm - v0) + u0 if v0 <= fm else fm
            c = (c if c > fm else fm) + _MATCH_TOL
            if c < end:
                cut = c
    bs = sorted(pts)
    del bs[bisect_right(bs, cut):]
    if closed and upto < u1:
        bs.append(upto)  # the point upto, as an interval of length 0
    return _scan(X, Y, pc, fm, bs, inner, 0.0, stop)


def _scan(X, Y, pc, fm: float, bs, inner, best: float, stop: float) -> float:
    """max(best, the gap's sup over the intervals between consecutive
    breakpoints ``bs``), exact when at most ``stop``; past ``stop`` the scan
    ends and returns a lower bound > stop.  ``inner`` holds the breakpoints
    of X's jumps inside the piece, strictly increasing.

    Each breakpoint's damping factors are computed once, as the end factors
    of one interval and the start factors of the next, and none at m = inf,
    where g = 1 and 1.0 * p - 1.0 * q is p - q bit for bit; an interval
    whose ends share them is evaluated once.

    The paths' values inside an interval are read by counting jumps, not by
    evaluating the paths at a point inside: no jump of either path lies
    inside an interval, so Y holds its value at the start, and X the value
    after the X jumps up to v0 and those whose breakpoints lie at or before
    the start.  A point inside could round onto an end, or lam of it past
    an X jump, when the ends lie a few ulps apart.
    """
    (xt, xrows), (yt, yrows) = X, Y
    u0, v0, u1, v1, slope, _ = pc
    base = bisect_right(xt, v0)
    if fm == _INF:
        for b1 in bs[:-1]:
            for p, q in zip(xrows[base + bisect_right(inner, b1)], yrows[bisect_right(yt, b1)]):
                d = abs(p - q)
                if d > best:
                    best = d
            if best > stop:
                return best
        return best
    if len(bs) < 2:
        return best
    b1 = bs[0]
    w = fm - (v1 if b1 == u1 else slope * (b1 - u0) + v0)
    gx = 1.0 if w >= 1.0 else w if w > 0.0 else 0.0
    w = fm - b1
    gy = 1.0 if w >= 1.0 else w if w > 0.0 else 0.0
    for b1, b2 in zip(bs, bs[1:]):
        xv = xrows[base + bisect_right(inner, b1)]
        yv = yrows[bisect_right(yt, b1)]
        w = fm - (v1 if b2 == u1 else slope * (b2 - u0) + v0)
        hx = 1.0 if w >= 1.0 else w if w > 0.0 else 0.0
        w = fm - b2
        hy = 1.0 if w >= 1.0 else w if w > 0.0 else 0.0
        for p, q in zip(xv, yv):
            d = abs(gx * p - gy * q)
            if d > best:
                best = d
        if hx != gx or hy != gy:
            for p, q in zip(xv, yv):
                d = abs(hx * p - hy * q)
                if d > best:
                    best = d
        if best > stop:
            return best
        gx, gy = hx, hy
    return best


def _cost(X, Y, pc, m: float, reach: float, upto: float, closed: bool, stop: float):
    """max(the piece's share of sup_{[0, reach]} |lam(u) - u| (its end knot
    and, if it holds reach, the point reach), _gap(...)); a deviation past
    ``stop`` skips the gap."""
    u0, v0, u1, v1, slope, _ = pc
    dev = abs(v1 - u1) if u1 <= reach else 0.0
    if u0 <= reach < u1:
        d = abs(slope * (reach - u0) + v0 - reach)
        if d > dev:
            dev = d
    if dev > stop:
        return dev
    gap = _gap(X, Y, pc, m, upto, closed, stop)
    return gap if gap > dev else dev


def _pairs(X, Y, before: float, apart: float):
    """The jump pairs (i, j), in lexicographic order, whose X time and Y time
    both lie before ``before`` and at most ``apart`` apart."""
    return [(i, j) for i, xu in enumerate(X[0]) if xu < before
            for j, yu in enumerate(Y[0]) if yu < before and abs(xu - yu) <= apart]


def _best_matching(X, Y, pairs, cost, end=None, cap=_INF):
    """Least-cost monotone matching of X's and Y's jumps, as a minimax path
    through the DAG of allowed jump pairs.

    ``pairs`` lists the allowed (i, j) in lexicographic order.  A matching
    gives the time change with knots (0, 0) and (Y time j, X time i) per
    pair: linear between knots, then linear to the knot ``end`` or, when
    ``end`` is None, of unit slope.  Its cost is the max of its pieces'
    costs, and each piece depends on its two end knots only, so
    best(b) = min over predecessors a of max(best(a), cost(a -> b)).  Among
    the matchings within _MATCH_TOL of the least cost, the one returned is
    the first in enumeration order: fewest pairs, then lexicographically
    least X indices, then Y indices.  Returns (its cost, its knots).

    The search is bounded: ``cost(piece, stop)`` is exact up to ``stop``,
    else any lower bound above it.  theta = least cost + _MATCH_TOL starts
    at the empty matching's cost + _MATCH_TOL and is every piece's stop.
    Edges are priced in increasing a, once best(a) is final, and none from
    an a with best(a) > theta.  Closing pieces go in increasing best(k),
    lowering theta, until best(k) > theta; the rest read inf.  A piece
    dearer than theta lies on no matching within theta, so value, tie-break
    and knots are those of the unbounded search, bit for bit.

    A finite ``cap`` bounds the search further: the empty matching's
    closing piece is priced at stop ``cap`` and theta starts at
    min(its cost + _MATCH_TOL, cap), so no piece is priced past ``cap``.
    Value and knots keep their bits whenever the least cost is within
    cap - _MATCH_TOL; otherwise the value is above cap - _MATCH_TOL, with
    knots None when no matching lies within theta (:func:`_close`).
    """
    nodes, knots = _dag(X, Y, pairs)
    close0 = cost(_piece(knots[0], end), cap)
    theta = min(close0 + _MATCH_TOL, cap)
    best, edges = _chains(nodes, knots, cost, theta)
    return _close(nodes, knots, best, edges, close0, theta, cost, end)


def _dag(X, Y, pairs):
    """The nodes of the matching DAG, the origin (-1, -1) and then ``pairs``,
    and their knots (Y time, X time)."""
    xt, yt = X[0], Y[0]
    return [(-1, -1)] + list(pairs), [(0.0, 0.0)] + [(yt[j], xt[i]) for i, j in pairs]


def _chains(nodes, knots, cost, stop: float):
    """best(b), the least max of piece costs over chains of knots from the
    origin to node b, and the priced edges {(a, b): cost}, with every piece
    priced at ``stop``: edges go in increasing a, once best(a) is final, and
    none from an a with best(a) > stop.  best(b) is exact when at most
    ``stop`` and above ``stop`` otherwise, and so is each edge's cost."""
    best = [0.0] + [_INF] * (len(nodes) - 1)
    edges = {}  # (a, b) -> cost, in increasing a: a topological order
    for a, (ia, ja) in enumerate(nodes):
        if best[a] > stop:
            continue
        for b in range(a + 1, len(nodes)):
            if nodes[b][0] > ia and nodes[b][1] > ja:
                c = edges[a, b] = cost(_piece(knots[a], knots[b]), stop)
                best[b] = min(best[b], max(best[a], c))
    return best, edges


def _close(nodes, knots, best, edges, close0: float, theta: float, cost, end):
    """The closing phase and tie-break of :func:`_best_matching`, from the
    output of :func:`_chains` priced at a stop of at least ``theta``, the
    empty matching's cost close0 (exact when at most ``theta``, above it
    otherwise) and the starting theta.

    A theta below close0 + _MATCH_TOL caps the search: the value and knots
    are those of the uncapped search whenever its final theta is within the
    cap, because until then the two thetas agree, and every piece that
    counts is priced at a stop of at least the final theta.  Past the cap,
    the value is the cost of a matching dearer than theta - _MATCH_TOL or,
    when no matching lies within theta, theta itself with knots None.
    """
    close = [close0] + [_INF] * (len(nodes) - 1)
    for k in sorted(range(1, len(nodes)), key=best.__getitem__):
        if best[k] > theta:
            break
        close[k] = cost(_piece(knots[k], end), theta)
        theta = min(theta, max(best[k], close[k]) + _MATCH_TOL)  # least so far + _MATCH_TOL
    # least (X indices, Y indices) of a completion within theta from each
    # node, by exactly r more pairs, for r = 0, 1, ... until the origin has
    # one; no completion has more than len(pairs), so all run out by len(nodes)
    tails = [((), ()) if c <= theta else None for c in close]
    while tails[0] is None and any(tails):
        longer = [None] * len(nodes)
        for (a, b), c in edges.items():
            if c <= theta and tails[b] is not None:
                cand = ((nodes[b][0],) + tails[b][0], (nodes[b][1],) + tails[b][1])
                if longer[a] is None or cand < longer[a]:
                    longer[a] = cand
        tails = longer
    if tails[0] is None:
        if not close0 > theta:  # uncapped, only NaN costs leave no matching within theta
            raise RuntimeError(f"no matching costs at most theta = {theta}")
        return theta, None
    index = {pair: a for a, pair in enumerate(nodes)}
    chain = [0] + [index[pair] for pair in zip(*tails[0])]
    value = max([edges[a, b] for a, b in zip(chain, chain[1:])] + [close[chain[-1]]])
    return value, [knots[a] for a in chain] + ([end] if end else [])


def _canonical(x: StepPath, y: StepPath):
    """The two paths prepared (:func:`_prepared`), in canonical order."""
    return _prepared(x, y) if x.sort_key() <= y.sort_key() else _prepared(y, x)


def _extrema(P):
    """Per coordinate, (max, min) of the 0 and the values of a prepared
    path's first n jumps, for n = 0, 1, ..."""
    hi = lo = P[1][0]  # the 0 at the origin
    out = [(hi, lo)]
    for row in P[1][1:]:
        hi, lo = tuple(map(max, hi, row)), tuple(map(min, lo, row))
        out.append((hi, lo))
    return out


def _unit(w: float) -> float:
    return 1.0 if w >= 1.0 else w if w > 0.0 else 0.0  # min(max(w, 0.0), 1.0), without calls


def _damped_range(P, extrema, fm: float):
    """Per coordinate, (sup, inf) over [0, inf) of g_m times a prepared
    path, with g_m evaluated as :func:`_scan` evaluates it.

    The rows that start by m - 1 hold their value undamped at their start
    (``extrema``).  At each jump inside the ramp (m - 1, m) the row that
    ends there and the row that starts there are visited damped.  From m on
    the path is damped to the 0 that ``extrema`` holds.
    """
    times, rows = P
    n, e = bisect_right(times, fm - 1.0), bisect_left(times, fm)
    if n == e:
        return extrema[n]
    hi, lo = extrema[n]
    for r in range(n, e):
        g = _unit(fm - times[r])  # at the end of row r, the start of row r + 1
        for row in (rows[r], rows[r + 1]):
            damped = [g * v for v in row]
            hi, lo = tuple(map(max, hi, damped)), tuple(map(min, lo, damped))
    return hi, lo


def _floors(X, Y):
    """fm -> a lower bound on d_m of the canonical prepared paths X and Y,
    as :func:`dm_distance` computes d_m: the floor of the level.

    The range gap.  Every time change is a bijection of [0, inf), so
    g_m X(lam(.)) takes the values that g_m X takes, and sup and inf are
    1-Lipschitz in the sup norm: the sup over u of
    |g_m X(lam(u)) - g_m Y(u)| is at least, per coordinate, the gap between
    the damped sups of the two paths and the gap between their damped infs
    (:func:`_damped_range`).  The scan takes the sup at the ends of the
    intervals between breakpoints, with the values inside, and every jump
    of either path is a breakpoint.  It damps Y at Y's jump times as
    :func:`_damped_range` does, and X at lam of the breakpoint of an X jump
    t, which lam maps to within _ROUNDING t of t on every piece it prices
    (:func:`_inner`), as "before the ramp" assumes.  Damping is 0 from m on,
    so a factor that counts is off by at most _ROUNDING m and an ulp, and
    the scan's max falls short of the range gap by less than 2 _ROUNDING m
    times the largest |value|: the slack taken off the range gap.

    The terminal gap.  A settled level, with m - 1 >= (latest jump +
    _PAIR_WINDOW) (1 + _ROUNDING) + 1, has a second bound, the terminal
    gap max_d |x_end - y_end|.  Paired knots lie at most _PAIR_WINDOW apart,
    so every closing piece's last jump J has J and lam(J) at least 1 before
    m: its scan has an interval that starts at J, where both damping
    factors are exactly 1.0 and the paths hold their end values, so d_m is
    at least that gap bit for bit.
    """
    xt, yt = X[0], Y[0]
    settled = (max(xt[-1:] + yt[-1:], default=0.0) + _PAIR_WINDOW) * (1.0 + _ROUNDING) + 1.0
    terminal = max(abs(p - q) for p, q in zip(X[1][-1], Y[1][-1]))
    xext, yext = _extrema(X), _extrema(Y)
    slack = 2.0 * _ROUNDING * max(abs(v) for P in (X, Y) for row in P[1] for v in row)

    def floor(fm: float) -> float:
        xhi, xlo = _damped_range(X, xext, fm)
        yhi, ylo = _damped_range(Y, yext, fm)
        bound = max(map(abs, map(sub, xhi + xlo, yhi + ylo))) - slack * fm
        return max(bound, terminal) if fm - 1.0 >= settled else bound

    return floor


def _dm_matchings(x: StepPath, y: StepPath, ms, clip: float):
    """(value, knots) of the best matching of d_m(x, y), for each m of the
    increasing sequence ``ms`` in turn, with the work that does not depend
    on m done once.  min(clip, value) is bit for bit min(clip, d_m) of
    :func:`dm_distance`, and wherever d_m < clip so are value and knots;
    ``clip`` = inf pins every level to :func:`dm_distance`.

    The clip caps each level's search at C = clip + 2 _MATCH_TOL
    (:func:`_best_matching`).  If the least cost is at most
    clip + _MATCH_TOL, value, tie-break and knots keep their bits;
    otherwise every value returned, a matching's cost or C itself (knots
    None), is above clip, as d_m is.  Before its search, each level takes
    its floor (:func:`_floors`): the larger of the range gap, less a slack
    for rounding, and, on a level settled past the last jump, the terminal
    gap.  Both are at most d_m, so a level whose floor is at least ``clip``
    yields the floor, with knots None, without a search:
    min(clip, floor) = clip = min(clip, d_m).

    No level prices a piece at a stop above C, so a cost kept across levels
    is priced once, at stop C: exact when at most C, and above every later
    stop otherwise.  Two costs are kept:

    - A piece whose end knot lies before the ramp [m-1, m] on both time axes
      (up to _ROUNDING) sees damping exactly 1.0, so its cost at m is its
      cost at m = inf, kept under its four knot coordinates.
    - A closing piece (the unit-slope tail after knot (u0, v0)) is constant
      past its last start-or-jump breakpoint J, the greatest of u0 and the
      jumps of either path on it.  When J sees damping exactly 1.0
      (m - J >= 1 and m - lam(J) >= 1), so does every breakpoint below it,
      as lam is monotone under rounding, and the intervals up to J are
      those of the m = inf scan up to J, with the same factors 1.0.  That
      scan is kept under (u0, v0); each m scans only the intervals from J
      through the ramp (:func:`_scan`).  A ramp point that rounds below J
      only splits an interval on which both paths and both factors are
      constant, so it adds no new term.

    The levels fall in two regimes, split at the last ramp crossing, the
    first m with m - 1 >= (latest jump) (1 + _ROUNDING).  Before it, each
    level is one search capped at C.  From it on, every jump lies before
    m + _PAIR_WINDOW, so the pair set is every pair at most _PAIR_WINDOW
    apart, and every piece between two knots sees damping 1.0: the pair DP
    (:func:`_chains`) is the same at every such level.  It is priced once,
    at stop C, and each level runs only the closing phase (:func:`_close`).
    That is exact: priced at C, at least theta, each best(a) <= theta and
    each edge within theta is exact, and a node with best(a) > theta lies
    on no chain within theta, so the closing phase visits the nodes of a DP
    priced at theta, in the same order, and the tie-break reads the same
    edges within theta.
    """
    X, Y = _canonical(x, y)
    xt, yt = X[0], Y[0]
    cap = clip + 2.0 * _MATCH_TOL
    floor = _floors(X, Y)
    crossed = max(xt[-1:] + yt[-1:], default=0.0) * (1.0 + _ROUNDING)
    flat = {}  # (u0, v0, u1, v1) -> cost at m = inf
    heads = {}  # (u0, v0) -> [J, X's inner breakpoints, m = inf scan up to J or None]
    dp = None  # (nodes, knots, best, edges) from the last ramp crossing on

    # both price a piece at the current level fm
    def tail_cost(pc, stop):
        u0, v0 = key = pc[:2]
        if key not in heads:
            inner = _inner(xt, pc)
            J = max([u0] + [u for u in yt[-1:] if u >= u0] + inner[-1:]) \
                if inner is not None else _INF  # unplaceable: _cost reads inf at every m
            heads[key] = [J, inner, None]
        J, inner, head = heads[key]
        # lam(u) = u - u0 + v0 on the tail, J finite once the first test fails
        if fm - J < 1.0 or fm - (J - u0 + v0) < 1.0:
            return _cost(X, Y, pc, fm, fm, _INF, False, stop)
        if head is None:
            head = heads[key][2] = _gap(X, Y, pc, _INF, J, False, cap)
        dev = abs(fm - u0 + v0 - fm)  # u0 <= J < fm, as in _cost
        if head > stop:
            return head if head > dev else dev
        # where the damping bends, as in _gap with u1 = v1 = inf
        ramp = [c for c in (fm - 1.0, fm) if u0 <= c] \
            + [c - v0 + u0 for c in (fm - 1.0, fm) if v0 <= c]
        gap = _scan(X, Y, pc, fm, sorted({J, *ramp}), inner, head, stop)
        return gap if gap > dev else dev

    def cost(pc, stop):
        if pc[2] == _INF:
            return tail_cost(pc, stop)
        if max(pc[2], pc[3]) * (1.0 + _ROUNDING) > fm - 1.0:
            return _cost(X, Y, pc, fm, fm, _INF, False, stop)
        key = pc[:4]
        if key not in flat:
            flat[key] = _cost(X, Y, pc, _INF, _INF, _INF, False, cap)
        return flat[key]

    for m in ms:
        fm = float(m)
        bound = floor(fm)
        if bound >= clip:
            yield bound, None
            continue
        if fm - 1.0 < crossed:
            pairs = _pairs(X, Y, fm + _PAIR_WINDOW, _PAIR_WINDOW)
            yield _best_matching(X, Y, pairs, cost, cap=cap)
            continue
        if dp is None:
            nodes, knots = _dag(X, Y, _pairs(X, Y, _INF, _PAIR_WINDOW))
            dp = (nodes, knots, *_chains(nodes, knots, cost, cap))
        close0 = cost(_piece((0.0, 0.0), None), cap)
        yield _close(*dp, close0, min(close0 + _MATCH_TOL, cap), cost, None)


def dm_distance(x: StepPath, y: StepPath, m: int):
    """Damped distance d_m between paths on [0, inf).

    Minimizes over piecewise-linear time changes with knots at monotone
    matchings of the jumps before m + _PAIR_WINDOW, pairing jumps at most
    _PAIR_WINDOW apart; returns (value, witness TimeChange).  The minimum is
    a minimax path over jump pairs (:func:`_best_matching`), polynomial in
    the jump counts.  Symmetric by construction (canonical argument order).
    """
    if isinstance(m, bool) or not isinstance(m, Real) or not (np.isfinite(m) and m >= 1):
        raise ValueError(f"need a finite m >= 1, got {m}")
    if x.horizon is not None or y.horizon is not None:
        raise ValueError("d_m compares paths on [0, inf); transform first")
    X, Y = _canonical(x, y)
    fm = float(m)
    value, knots = _best_matching(X, Y, _pairs(X, Y, fm + _PAIR_WINDOW, _PAIR_WINDOW),
                                  lambda pc, stop: _cost(X, Y, pc, fm, fm, _INF, False, stop))
    return value, TimeChange(tuple(knots))


def dhat_distance(x: StepPath, y: StepPath, t: float, M: int = 20):
    """Compact-uniform metric on [0, t): sum over m = 1..M of
    2^-m min(1, d_m) after the alpha_t transport.  Returns (value, tail
    bound 2^-M).

    All M distances come from one pass (:func:`_dm_matchings`), each
    min(1, d_m) bit for bit that of :func:`dm_distance`.  A piece that ends
    before the ramp [m-1, m] is priced once, at m = inf, and reused for
    every later m.  So is the part of a unit-slope tail up to its last jump
    while that part sees no damping (the jump at least 1 before m on both
    time axes).  From the last ramp crossing on (m - 1 at or past the
    latest jump) the jump-pair search is the same at every level: it runs
    once, and each level prices only its tails.  Only pieces that reach a
    ramp are priced per m.

    d_m is read only through min(1, d_m), so each level's search stops at
    1 + 2 _MATCH_TOL: below that its value keeps its bits, and above it any
    value returned is above 1.  A level whose floor reaches 1 is not
    searched at all.  The floor is the larger of the gap between the ranges
    of the two damped paths, which every time change keeps, less a slack
    for rounding, and, on a level far enough past the last jump, the gap
    between the paths' end values (:func:`_floors`).  2^-m is 0.0 past
    m = 1074, so the levels stop there.
    """
    M = _level(M, "the truncation level M")
    total = 0.0
    dms = _dm_matchings(transform_path(x, t), transform_path(y, t),
                        range(1, min(M, _LAST_LEVEL) + 1), 1.0)
    for m, (dm, _) in enumerate(dms, start=1):
        total += 2.0 ** (-m) * min(1.0, dm)
    return total, 2.0 ** (-M)


def j1_distance(x: StepPath, y: StepPath, horizon: float) -> float:
    """Undamped J1-style distance on [0, horizon): jump mismatches cannot be
    damped away.  Used for the projection-discontinuity contrast."""
    h = _positive(horizon, "horizon")
    X, Y = _canonical(x, y)
    value, _ = _best_matching(X, Y, _pairs(X, Y, h, _INF),
                              lambda pc, stop: _cost(X, Y, pc, _INF, h, h, False, stop))
    return value


@dataclass(frozen=True, eq=False)
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
    """Rejoin a (head, shifted tail) pair: inverse of :func:`split_concat`.
    The tail vanishes at its start, as every ``PLContinuousPath`` does."""
    t = tail.start
    ht = float(head.value(t))
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
    t = _positive(t, "t")
    m_max = _level(m_max, "m_max")
    X, Y = _prepared(x_n, x)
    pairs = _pairs(X, Y, t, _INF)

    def deviation(pieces, m):
        upto = t * (1.0 - 1.0 / (1.0 + m))
        return max(_gap(X, Y, pc, _INF, upto, True, _INF) for pc in pieces)

    # gamma maps x's timeline onto x_n's; it must be a bijection of [0, t),
    # so it is pinned at (t, t) past the matched knots
    big = t * (1.0 - 1.0 / (1.0 + m_max))
    _, knots = _best_matching(
        X, Y, pairs, lambda pc, stop: _cost(X, Y, pc, _INF, big, big, True, stop),
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
