"""Uncertain-volatility pricing and conditional G-expectations on grids.

The upper price of a terminal payoff over all zero-mean trinomial kernels
with one-step variance in a band [lo, hi] reduces, step by step, to

    V <- V + dt * g(second difference),   g(a) = (hi * a+  -  lo * a-) / 2,

because the one-step expectation is linear in the variance choice and the
sup is attained at a band endpoint.  This is also the explicit
finite-difference scheme for the nonlinear PDE.  One evolution, ``_evolve``,
is the only loop over grid steps here: it runs every price, and the linear
recursion of ``expectation_under_field`` under one in-band variance field,
whose step has one per-cell coefficient where the band's has two.  It works
in place on one flat buffer that holds every row of its input: the second
difference runs across the whole buffer, and one strided fill re-zeroes the
seam cells where rows meet.  So ``bid_ask``
evolves -X and X in one pass, and a cylinder payoff phi(B_t1, ..., B_tk)
evolves the mesh of its dates at once, one date at a time from the last
(Peng 2007).  The rows of a mesh are independent, so a large one (at least
2^14 cells per block and 8 steps) is split into blocks of rows, one thread
per CPU of the process's affinity set, each in place on its part of one
output buffer; small calls, such as the two rows of ``bid_ask``, stay on
the calling thread.  Every output is bit-identical to the serial evolution.
A payoff may return a scalar, which is broadcast to the grid, or an array
that broadcasts to it; any other shape is rejected.  ``_on_grid`` is that
one rule, for every payoff evaluation of the package.
``oracles.trinomial_band_oracle`` recomputes the evolution on
a scenario tree.  Bid = -ask(-X), so convex payoffs price at the upper
volatility and concave ones at the lower (closed-form oracles in the tests).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import RandomVariable, ScenarioLattice, _check_time, _per_parent, coordinate_process

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


_MAX_CELLS = 2 ** 24  # mesh cells of a cylinder payoff: n^k for k free dates, n space cells
# an evolution is split into blocks of rows, one per thread, only with at
# least this many cells per block and steps: on two CPUs, two blocks lost
# below about 10^4 cells per block, or below 4 to 8 steps.  The split was
# measured on at most two CPUs; more blocks are bit-identical but untimed
_BLOCK_CELLS, _BLOCK_STEPS = 2 ** 14, 8
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
        if self.step_of(self.horizon, "horizon") == 0:
            raise ValueError(f"horizon={self.horizon} spans no step of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def step_of(self, t: float, name: str) -> int:
        """The step of the time ``name`` = t; raises off the grid or outside [0, horizon]."""
        k = np.rint(t / self.dt)
        if not abs(t - k * self.dt) <= 1e-9 * self.dt:  # also catches NaN and inf
            raise ValueError(f"{name}={t} is not a multiple of dt={self.dt}")
        if not 0 <= k <= self.n_steps:
            raise ValueError(f"{name}={t} lies outside [0, {self.horizon}]")
        return int(k)

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
    """Terminal payoff f(B_T) or cylinder payoff phi(B_t1, ..., B_tk), element-wise."""

    kind: str  # "terminal" | "cylinder"
    fn: Callable
    monitoring_times: tuple = ()

    def __post_init__(self):
        times = self.monitoring_times
        if self.kind not in ("terminal", "cylinder"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if bool(times) != (self.kind == "cylinder"):
            raise ValueError(f"cylinder payoffs need monitoring times and terminal payoffs "
                             f"take none, got a {self.kind} payoff with {times}")
        if not all(0 <= u < np.inf for u in times):  # False for NaN
            raise ValueError(f"monitoring times must be finite and non-negative, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("monitoring times must be strictly increasing")

    def steps_on(self, grid: GridSpec) -> list:
        """The grid step of each monitoring date; a terminal payoff's is the horizon."""
        return [grid.step_of(u, f"monitoring time t_{i}")
                for i, u in enumerate(self.monitoring_times or (grid.horizon,), 1)]


def _on_grid(values, shape: tuple) -> np.ndarray:
    """A payoff's ``values`` as a float array of the grid shape ``shape``: a
    scalar, or any array that broadcasts to ``shape``, is broadcast to it (a
    read-only view); any other shape raises ``ValueError``."""
    v = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(v, shape)
    except ValueError:
        raise ValueError(f"the payoff returned shape {v.shape}, which does not "
                         f"broadcast to the grid shape {shape}") from None


def g_function(a: float, sigma_low: float, sigma_high: float):
    """Band generator g(a) = (sigma_high^2 a+ - sigma_low^2 a-) / 2.

    Monotone and positively homogeneous in a; g(0) = 0.
    """
    a = np.asarray(a, dtype=float)
    out = 0.5 * (sigma_high ** 2 * np.maximum(a, 0.0)
                 - sigma_low ** 2 * np.maximum(-a, 0.0))
    return out if out.ndim else float(out)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _evolve(values: np.ndarray, band: VolatilityBand, grid: GridSpec,
            k_from: int, k_to: int, surface=None) -> np.ndarray:
    """Backward band evolution of a (..., n_space) array from step k_from
    down to k_to along the last axis; ``values`` is not modified.  With a
    ``surface``, a sequence of arrays, one per row of ``values`` along its
    first axis, the step-k array of row r goes into ``surface[r][k]``; a
    single row is evolved as ``values[None]`` with ``(surface,)``.

    Step k is v <- v + max_j c_j D2 v over that step's curvature
    coefficients c_j.  A ``VolatilityBand`` has two 0-d entries,
    c = sigma^2 dt / 2 at the band's ends: one step takes, per state, the
    better of the two band-endpoint kernels p_+- = v/(2 h^2),
    p_0 = 1 - v/h^2 -- the sup over the band is attained there because the
    expectation is linear in the variance -- which is v + dt g(D2 v).
    Rounding is monotone, so this equals max(v + c_lo D2 v, v + c_hi D2 v)
    bit for bit.  ``band`` may instead be a variance field, an
    (n_steps, n_space) array of one-step variances, for a single row: its
    one entry per step is the per-cell v(k, .)/2, the linear recursion of
    that one kernel per state (``expectation_under_field``).

    D2 v = (v[j+1] + v[j-1] - 2 v[j]) / h^2 runs across a block's whole
    flat buffer, in place, through views built once per call; one strided
    fill then zeroes the seam cells -- the first and last cell of every
    row, where one row meets the next -- since zero curvature at the edges
    is the linear extrapolation boundary.  A band step is four ufunc calls
    and the seam fill for D2 v, four more ufunc calls and one copy per
    surface; a field step takes two ufunc calls fewer.

    Rows do not interact, so a call of at least ``_BLOCK_STEPS`` steps
    splits a multi-row array along its first axis into contiguous blocks of
    rows, one per CPU in the process's affinity set, capped by the row count
    and by ``_BLOCK_CELLS`` cells per block.  Each block evolves its own row
    range of the one output buffer, with its own curvature buffers and its
    own part of ``surface``.  The calling thread takes the first block and
    one thread each takes the others; they run in parallel because numpy
    releases the GIL inside every ufunc call of this size.  Every thread is
    joined before the call returns, and an exception raised in a block is
    raised here.  A row sees the same operations in any split, so the output
    is bit-identical for every CPU count, and all blocks together hold the
    buffers of the serial path."""
    # C order whatever the input's layout, so that every block's flat view
    # is its rows of ``out`` and not a copy
    out = np.array(values, dtype=float, order="C")
    if surface is not None and len(surface) != len(out):
        raise ValueError(f"{len(surface)} surfaces for {len(out)} rows of values: "
                         f"one surface per row along the first axis")
    steps = range(k_from - 1, k_to - 1, -1)
    if isinstance(band, VolatilityBand):
        # 0-d arrays: a ufunc takes these faster than Python floats
        c_lo, c_hi = ([np.array(0.5 * s ** 2 * grid.dt) for s in sigma.tolist()]
                      for sigma in (band.sigma_low, band.sigma_high))
        c_lo, c_hi = (c * len(steps) if len(c) == 1 else [c[k] for k in steps]
                      for c in (c_lo, c_hi))
    else:  # a variance field: one entry per step, v/2 per cell
        half = 0.5 * band
        c_lo, c_hi = [None] * len(steps), [half[k] for k in steps]
    n = out.shape[-1]
    rows = len(out) if out.ndim > 1 else 1
    blocks = 1
    if len(steps) >= _BLOCK_STEPS:
        blocks = min(_cpu_count(), rows, out.size // _BLOCK_CELLS)
    parts = ([slice(rows * b // blocks, rows * (b + 1) // blocks) for b in range(blocks)]
             if blocks > 1 else [slice(None)])
    two, h2 = np.array(2.0), np.array(grid.h ** 2)
    multiply, maximum, add, subtract, divide = (np.multiply, np.maximum, np.add,
                                                np.subtract, np.divide)
    errors = []

    def run(part: slice):
        v = out[part]
        flat = v.reshape(-1)
        d2, scratch = np.zeros_like(flat), np.empty_like(flat)
        inner, twice = d2[1:-1], scratch[1:-1]
        left, mid, right = flat[:-2], flat[1:-1], flat[2:]
        seams = d2.reshape(-1, n)[:, ::n - 1]
        sinks = () if surface is None else tuple(zip(surface[part], v))
        for k, lo, hi in zip(steps, c_lo, c_hi):
            multiply(mid, two, out=twice)
            add(right, left, out=inner)
            subtract(inner, twice, out=inner)
            divide(inner, h2, out=inner)
            seams.fill(0.0)
            if lo is None:
                multiply(d2, hi, out=d2)
            else:
                multiply(d2, lo, out=scratch)
                multiply(d2, hi, out=d2)
                maximum(scratch, d2, out=d2)
            add(flat, d2, out=flat)
            for sink, row in sinks:
                sink[k] = row

    def run_thread(part: slice):
        try:
            run(part)
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)

    started = []
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=run_thread, args=(part,))
            thread.start()
            started.append(thread)
        run(parts[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return out


def robust_lattice_price(payoff, band: VolatilityBand, grid: GridSpec):
    """Upper band price of a terminal payoff: (value at (0, 0), full surface
    of shape (n_steps + 1, n_space)).  The lower price is -price(-payoff)."""
    grid.check_cfl(band)
    v = _on_grid(payoff(grid.x), grid.x.shape)
    surface = np.empty((grid.n_steps + 1, v.size))
    surface[grid.n_steps] = v
    v = _evolve(v[None], band, grid, grid.n_steps, 0, (surface,))[0]
    return float(v[grid.radius]), surface


def bid_ask(payoff, band: VolatilityBand, grid: GridSpec, method: str = "lattice"):
    """(bid, ask) values and surfaces; bid = -ask(-X), bid <= ask node-wise.

    ``method`` is "lattice" or "pde", two names of the same evolution, kept
    only because perfbench passes it.  The payoff is evaluated once; -X and
    X are evolved as the two rows of one array, each into its own surface,
    so a caller that keeps one surface does not keep the other alive."""
    if method not in ("lattice", "pde"):
        raise ValueError(f"method must be 'lattice' or 'pde', got {method!r}")
    grid.check_cfl(band)
    f = _on_grid(payoff(grid.x), grid.x.shape)
    values = np.array([-f, f])
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
    """Conditional band expectation at time s, given the coordinates ``observed``
    at the dates t_i <= s.  phi is evaluated on the mesh of the k later dates
    (n^k cells); from the last back, the last axis is evolved to the date
    before, where it is that date's coordinate: the diagonal of the last two
    axes.  Returns (surface in B_s, interpolating callable that raises off the grid)."""
    grid.check_cfl(band)
    steps = payoff.steps_on(grid)
    s_step = grid.step_of(s, "conditioning time s")
    n_obs = sum(k <= s_step for k in steps)
    if len(observed) != n_obs:
        raise ValueError(f"expected {n_obs} observed coordinates, got {len(observed)}")
    fixed = []
    for i, b in enumerate(observed, 1):
        try:
            fixed.append(float(b))
        except (TypeError, ValueError, OverflowError):
            fixed.append(np.nan)
        if not np.isfinite(fixed[-1]):
            raise ValueError(f"observed coordinate B(t_{i}) must be a finite number, got {b!r}")
    free = steps[n_obs:]
    x = grid.x
    if x.size ** len(free) > _MAX_CELLS:
        raise ValueError(f"{len(free)} free dates on {x.size} space cells need "
                         f"{x.size ** len(free)} cells, above the limit of {_MAX_CELLS}")

    mesh = np.meshgrid(*[x] * len(free), indexing="ij", sparse=True)
    w = _on_grid(payoff.fn(*fixed, *mesh), (x.size,) * len(free))
    for late, early in zip(free[:0:-1], free[-2::-1]):
        w = np.diagonal(_evolve(w, band, grid, late, early), axis1=-2, axis2=-1)
    # from the first free date, or from s itself when every date is observed
    surf = _evolve(np.broadcast_to(w, x.shape), band, grid, (free + [s_step])[0], s_step)

    def value(b_s: float) -> float:
        if not x[0] <= b_s <= x[-1]:  # False for NaN
            raise ValueError(f"B_s must be finite and within the space grid "
                             f"[{x[0]}, {x[-1]}], got {b_s}")
        return float(np.interp(b_s, x, surf))

    return surf, value


def quadratic_variation(lattice: ScenarioLattice, t: int, coord: int = 0) -> RandomVariable:
    """Accumulated squared increments sum (Delta B)^2 along the ancestry."""
    _check_time(lattice, t)
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
    for u in range(1, t + 1):
        par = lattice.parents[u]
        stoch_int = (stoch_int[par]
                     + lattice.values[u - 1][par, coord] * lattice.increments[u][:, coord])
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
    lo, hi = (np.broadcast_to(sigma, grid.n_steps)[:, None]
              for sigma in (band.sigma_low, band.sigma_high))
    u = rng.uniform(size=(grid.n_steps, grid.x.size))
    return (lo ** 2 + u * (hi ** 2 - lo ** 2)) * grid.dt


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
    v = _on_grid(payoff(grid.x), grid.x.shape)
    return float(_evolve(v[None], vfield, grid, grid.n_steps, 0)[0, grid.radius])
