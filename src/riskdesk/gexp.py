"""Uncertain-volatility pricing and conditional G-expectations on grids.

The upper price of a terminal payoff over all zero-mean trinomial kernels
with one-step variance in a band [lo, hi] reduces, step by step, to

    V <- V + dt * g(second difference),   g(a) = (hi * a+  -  lo * a-) / 2,

because the one-step expectation is linear in the variance choice and the
sup is attained at a band endpoint.  This is also the explicit
finite-difference scheme for the nonlinear PDE.  One evolution, ``_evolve``,
runs it for every price here.  It works in place on one flat buffer that
holds every row of its input: the second difference runs across the whole
buffer, and one strided fill re-zeroes the seam cells where rows meet
(``_stencil``, which ``expectation_under_field`` shares).  So ``bid_ask``
evolves -X and X in one pass, and a two-date cylinder payoff evolves its
whole state grid at once.  ``oracles.trinomial_band_oracle`` recomputes the
evolution on a scenario tree.  Bid = -ask(-X), so convex payoffs price at
the upper volatility and concave ones at the lower (closed-form oracles in
the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _per_parent, coordinate_process

__all__ = [
    "VolatilityBand",
    "GridSpec",
    "PayoffSpec",
    "CFLError",
    "g_function",
    "robust_lattice_price",
    "bid_ask",
    "conditional_gexp",
    "quadratic_variation",
    "integration_by_parts_residual",
    "band_membership",
    "random_inband_field",
    "expectation_under_field",
]


_MAX_COORDS = 2  # monitoring dates a cylinder payoff may have
# how far a kernel's one-step mean and variance may stray from 0 and the band
_MEAN_TOL, _VAR_TOL = 1e-10, 1e-12


class CFLError(ValueError):
    """Explicit-scheme stability bound dt * sigma_high^2 <= h^2 violated."""


@dataclass(frozen=True, eq=False)
class VolatilityBand:
    """Lower/upper volatility, constant or sampled once per step of the grid
    it runs on (``GridSpec.check_cfl`` checks the length)."""

    sigma_low: np.ndarray
    sigma_high: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.sigma_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.sigma_high, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("sigma_low and sigma_high must have the same shape")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("volatilities must be finite")
        if np.any(lo < 0) or np.any(hi < lo):
            raise ValueError("need 0 <= sigma_low <= sigma_high")
        object.__setattr__(self, "sigma_low", lo)
        object.__setattr__(self, "sigma_high", hi)

    def at_step(self, k: int):
        i = k if self.sigma_low.size > 1 else 0
        return float(self.sigma_low[i]), float(self.sigma_high[i])

    @property
    def max_high(self) -> float:
        return float(np.max(self.sigma_high))


@dataclass(frozen=True)
class GridSpec:
    """Uniform time/space grid for the band recursions; the horizon must be a
    whole number of time steps."""

    dt: float
    h: float
    radius: int  # number of space levels on each side of 0
    horizon: float

    def __post_init__(self):
        if isinstance(self.radius, bool) or not isinstance(self.radius, (int, np.integer)):
            raise ValueError(f"radius must be an integer, got {self.radius!r}")
        if not np.isfinite([self.dt, self.h, self.horizon]).all():
            raise ValueError(f"grid dt={self.dt}, h={self.h} and horizon={self.horizon} "
                             "must be finite")
        if self.dt <= 0 or self.h <= 0 or self.radius < 1 or self.horizon <= 0:
            raise ValueError("grid parameters must be positive")
        if abs(self.horizon - self.n_steps * self.dt) > 1e-9:
            raise ValueError(f"horizon={self.horizon} is not a multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def x(self) -> np.ndarray:
        return np.arange(-self.radius, self.radius + 1) * self.h

    def check_cfl(self, band: VolatilityBand):
        if band.sigma_high.size not in (1, self.n_steps):
            raise ValueError(f"a per-step band needs {self.n_steps} entries, "
                             f"got {band.sigma_high.size}")
        bound = self.h ** 2 / band.max_high ** 2
        if self.dt > bound * (1 + 1e-12):
            raise CFLError(
                f"dt={self.dt} violates the stability bound dt <= h^2/sigma_high^2 "
                f"= {bound:.6g}; reduce dt or enlarge h"
            )


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal payoff f(B_T) or cylinder payoff phi(B_t1, ..., B_tk)."""

    kind: str  # "terminal" | "cylinder"
    fn: Callable
    monitoring_times: tuple = ()

    def __post_init__(self):
        if self.kind not in ("terminal", "cylinder"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.kind == "cylinder":
            if not self.monitoring_times:
                raise ValueError("cylinder payoffs need monitoring times")
            if len(self.monitoring_times) > _MAX_COORDS:
                raise ValueError(f"{len(self.monitoring_times)} monitoring dates exceed the "
                                 f"limit: at most {_MAX_COORDS} are supported")
            if any(b <= a for a, b in zip(self.monitoring_times,
                                          self.monitoring_times[1:])):
                raise ValueError("monitoring times must be strictly increasing")


def g_function(a: float, sigma_low: float, sigma_high: float):
    """Band generator g(a) = (sigma_high^2 a+ - sigma_low^2 a-) / 2.

    Monotone and positively homogeneous in a; g(0) = 0.
    """
    a = np.asarray(a, dtype=float)
    out = 0.5 * (sigma_high ** 2 * np.maximum(a, 0.0)
                 - sigma_low ** 2 * np.maximum(-a, 0.0))
    return out if out.ndim else float(out)


def _stencil(values, h: float):
    """Set-up of the second difference (v[j+1] + v[j-1] - 2 v[j]) / h^2
    along the last axis of ``values``, shape (..., n): returns (v, d2,
    scratch, curvature).  ``v`` is a copy of ``values`` in one flat buffer,
    ``d2`` and ``scratch`` are buffers of its size, and ``curvature()``
    writes the second difference of the current ``v`` into ``d2``, using
    ``scratch`` as workspace.  It runs on the whole flat buffer through
    views built here once, then zeroes the seam cells -- the first and last
    cell of every row, where one row meets the next -- with one strided
    fill: zero curvature at the edges is the linear extrapolation
    boundary."""
    n = np.shape(values)[-1]
    v = np.array(values, dtype=float).reshape(-1)
    d2 = np.zeros_like(v)
    scratch = np.empty_like(v)
    inner, twice = d2[1:-1], scratch[1:-1]
    left, mid, right = v[:-2], v[1:-1], v[2:]
    seams = d2.reshape(-1, n)[:, ::n - 1]
    two, h2 = np.array(2.0), np.array(h ** 2)
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide

    def curvature():
        multiply(mid, two, out=twice)
        add(right, left, out=inner)
        subtract(inner, twice, out=inner)
        divide(inner, h2, out=inner)
        seams.fill(0.0)

    return v, d2, scratch, curvature


def _coefficients(sigma: np.ndarray, dt: float, steps: range) -> list:
    """sigma^2 dt / 2 at each step of ``steps``, as 0-d arrays: a ufunc
    takes these faster than Python floats."""
    c = [np.array(0.5 * s ** 2 * dt) for s in sigma.tolist()]
    return c * len(steps) if len(c) == 1 else [c[k] for k in steps]


def _evolve(values: np.ndarray, band: VolatilityBand, grid: GridSpec,
            k_from: int, k_to: int, surface=None) -> np.ndarray:
    """Backward band evolution of a (..., n_space) array from step k_from
    down to k_to along the last axis; ``values`` is not modified.  The
    step-k array goes into ``surface[k]`` when ``surface`` is an array of
    shape (n_steps + 1,) + values.shape, and row r of it into
    ``surface[r][k]`` when ``surface`` is a sequence of arrays, one per row
    of ``values``.

    One step takes, per state, the better of the two band-endpoint kernels
    p_+- = v/(2 h^2), p_0 = 1 - v/h^2 -- the sup over the band is attained
    there because the expectation is linear in v -- which is the update
    v + dt g(D2 v) = v + max(c_lo D2 v, c_hi D2 v), c = sigma^2 dt / 2.
    Rounding is monotone, so this equals max(v + c_lo D2 v, v + c_hi D2 v)
    bit for bit.  Every row is evolved at once, in place on the flat buffer
    of ``_stencil``.  Its views and the coefficient lists are built once per
    call, so a step is the curvature (four ufunc calls and the seam fill),
    four more ufunc calls and one copy per surface.
    """
    v, d2, scratch, curvature = _stencil(values, grid.h)
    steps = range(k_from - 1, k_to - 1, -1)
    c_lo = _coefficients(band.sigma_low, grid.dt, steps)
    c_hi = _coefficients(band.sigma_high, grid.dt, steps)
    rows = v.reshape(np.shape(values))
    if surface is None:
        sinks = ()
    elif isinstance(surface, np.ndarray):
        sinks = ((surface, rows),)
    else:
        sinks = tuple(zip(surface, rows))
    multiply, maximum, add = np.multiply, np.maximum, np.add
    for k, lo, hi in zip(steps, c_lo, c_hi):
        curvature()
        multiply(d2, lo, out=scratch)
        multiply(d2, hi, out=d2)
        maximum(scratch, d2, out=d2)
        add(v, d2, out=v)
        for sink, row in sinks:
            sink[k] = row
    return rows


def robust_lattice_price(payoff, band: VolatilityBand, grid: GridSpec):
    """Upper band price of a terminal payoff: (value at (0, 0), full surface
    of shape (n_steps + 1, n_space)).  The lower price is -price(-payoff)."""
    grid.check_cfl(band)
    v = np.asarray(payoff(grid.x), dtype=float)
    surface = np.empty((grid.n_steps + 1, v.size))
    surface[grid.n_steps] = v
    v = _evolve(v, band, grid, grid.n_steps, 0, surface)
    return float(v[grid.radius]), surface


def bid_ask(payoff, band: VolatilityBand, grid: GridSpec, method: str = "lattice"):
    """(bid, ask) values and surfaces; bid = -ask(-X), bid <= ask node-wise.

    ``method`` is "lattice" or "pde", two names of the same evolution.  The
    payoff is evaluated once; -X and X are evolved as the two rows of one
    array, each into its own surface, so a caller that keeps one surface
    does not keep the other alive."""
    if method not in ("lattice", "pde"):
        raise ValueError(f"method must be 'lattice' or 'pde', got {method!r}")
    grid.check_cfl(band)
    f = np.asarray(payoff(grid.x))
    values = np.array([-f, f], dtype=float)
    # ask first: a caller that keeps only the ask surface frees the bid's,
    # which then lies above it on the heap, where the allocator can reuse or
    # trim it whole; in the other order band-grid's peak RSS rose by 9 %
    ask_surface = np.empty((grid.n_steps + 1, f.size))
    neg_surface = np.empty_like(ask_surface)
    neg_surface[grid.n_steps], ask_surface[grid.n_steps] = values
    neg, ask = _evolve(values, band, grid, grid.n_steps, 0,
                       (neg_surface, ask_surface))[:, grid.radius].tolist()
    return -neg, ask, np.negative(neg_surface, out=neg_surface), ask_surface


def conditional_gexp(payoff: PayoffSpec, band: VolatilityBand, grid: GridSpec,
                     s: float, observed: Sequence[float] = ()):
    """Conditional band expectation of a cylinder payoff at time s.

    Peels monitoring dates backward: between dates the running coordinate is
    evolved with the band generator; at a date the observed (or frozen)
    coordinate is substituted.  ``observed`` carries the values of the
    monitoring coordinates with t_i <= s.  Returns (surface over the space
    grid as a function of B_s, interpolating callable); the callable raises
    for a B_s off the grid instead of reading the edge value.
    """
    grid.check_cfl(band)
    times = (grid.horizon,) if payoff.kind == "terminal" else payoff.monitoring_times
    fn = payoff.fn
    steps = [int(round(u / grid.dt)) for u in times]
    if any(abs(u - k * grid.dt) > 1e-9 for u, k in zip(times, steps)):
        raise ValueError("monitoring times must lie on the time grid")
    s_step = int(round(s / grid.dt))
    if abs(s - s_step * grid.dt) > 1e-9:
        raise ValueError("the conditioning time must lie on the time grid")
    if not 0 <= s_step <= grid.n_steps:
        raise ValueError(f"the conditioning time {s} lies outside [0, {grid.horizon}]")

    x = grid.x
    n_obs = sum(1 for u in times if u <= s + 1e-12)
    if len(observed) != n_obs:
        raise ValueError(f"expected {n_obs} observed coordinates, got {len(observed)}")
    fixed = list(observed)
    free = list(times[n_obs:])
    free_steps = steps[n_obs:]

    if not free:
        # fully observed: a deterministic value, constant in B_s
        val = float(fn(*fixed))
        surf = np.full(x.size, val)
    elif len(free) == 1:
        terminal = np.asarray(fn(*fixed, x), dtype=float)
        surf = _evolve(terminal, band, grid, free_steps[0], s_step)
    else:  # two free dates, the most a PayoffSpec has
        k1, k2 = free_steps
        # state augmentation: rows index the frozen first coordinate
        yy, xx = np.meshgrid(x, x, indexing="ij")
        w = np.asarray(fn(*fixed, yy, xx), dtype=float)
        w = _evolve(w, band, grid, k2, k1)
        # at t1 the running value is the coordinate
        surf = _evolve(np.diagonal(w), band, grid, k1, s_step)

    def value(b_s: float) -> float:
        if not x[0] <= b_s <= x[-1]:  # False for NaN
            raise ValueError(f"B_s must be finite and within the space grid "
                             f"[{x[0]}, {x[-1]}], got {b_s}")
        return float(np.interp(b_s, x, surf))

    return surf, value


def quadratic_variation(lattice: ScenarioLattice, t: int, coord: int = 0) -> RandomVariable:
    """Accumulated squared increments sum (Delta B)^2 along the ancestry."""
    vals = np.zeros(1)
    for u in range(1, t + 1):
        vals = vals[lattice.parents[u]] + lattice.increments[u][:, coord] ** 2
    return RandomVariable(lattice, t, vals)


def integration_by_parts_residual(lattice: ScenarioLattice, t: int,
                                  coord: int = 0) -> RandomVariable:
    """Node-wise residual of B_t^2 - 2 sum B_u Delta B_{u+1} = sum (Delta B)^2,
    which vanishes identically (discrete integration by parts)."""
    b = coordinate_process(lattice, t, coord).values
    stoch_int = np.zeros(1)
    level = np.zeros(1)
    for u in range(1, t + 1):
        par = lattice.parents[u]
        stoch_int = stoch_int[par] + level[par] * lattice.increments[u][:, coord]
        level = level[par] + lattice.increments[u][:, coord]
    qv = quadratic_variation(lattice, t, coord).values
    return RandomVariable(lattice, t, b ** 2 - 2.0 * stoch_int - qv)


def band_membership(Q, band: VolatilityBand, dt: float) -> bool:
    """True iff every kernel of Q has zero mean and one-step variance inside
    [sigma_low^2 dt, sigma_high^2 dt] (martingale measure within the band)."""
    lat = Q.lattice
    for k in range(lat.n_times - 1):
        lo, hi = band.at_step(k)
        inc = lat.increments[k + 1][:, 0]
        mean = _per_parent(lat, k, Q.flat_kernels[k] * inc)
        var = _per_parent(lat, k, Q.flat_kernels[k] * inc ** 2)
        if np.any((np.abs(mean) > _MEAN_TOL) | (var < lo ** 2 * dt - _VAR_TOL)
                  | (var > hi ** 2 * dt + _VAR_TOL)):
            return False
    return True


def random_inband_field(grid: GridSpec, band: VolatilityBand,
                        rng: np.random.Generator) -> np.ndarray:
    """Random one-step variance field v(step, state) inside the band."""
    lo = np.empty(grid.n_steps)
    hi = np.empty(grid.n_steps)
    for k in range(grid.n_steps):
        lo[k], hi[k] = band.at_step(k)
    u = rng.uniform(size=(grid.n_steps, grid.x.size))
    return (lo[:, None] ** 2 + u * (hi[:, None] ** 2 - lo[:, None] ** 2)) * grid.dt


def expectation_under_field(payoff, vfield: np.ndarray, grid: GridSpec) -> float:
    """E_Q of a terminal payoff under the martingale measure with one-step
    variances ``vfield`` (linear backward recursion, no sup)."""
    if vfield.shape != (grid.n_steps, grid.x.size):
        raise ValueError("variance field shape mismatch")
    if not np.isfinite(vfield).all():
        raise ValueError("variance field must be finite")
    if np.min(vfield) < 0:
        raise ValueError("variance field must be non-negative")
    if np.max(vfield) > grid.h ** 2 * (1 + 1e-12):
        raise CFLError("variance field violates the kernel positivity bound")
    v, d2, scratch, curvature = _stencil(payoff(grid.x), grid.h)
    multiply, add = np.multiply, np.add
    for half_var in 0.5 * vfield[::-1]:
        curvature()
        multiply(half_var, d2, out=scratch)
        add(v, scratch, out=v)
    return float(v[grid.radius])
