import os
import sys
import threading
import types

import numpy as np
import pytest

from riskdesk import gexp
from riskdesk.fixtures import fix_a_lattice, random_lattice, trinomial_tree
from riskdesk.gexp import (
    CFLError,
    GridSpec,
    PayoffSpec,
    VolatilityBand,
    bid_ask,
    conditional_gexp,
    expectation_under_field,
    _evolve,
    quadratic_variation,
    random_inband_field,
    robust_lattice_price,
)
from riskdesk.lattice import RandomVariable, ScenarioLattice, _per_parent, coordinate_process
from riskdesk.measures import Measure
from riskdesk.oracles import call_upper_value, square_band_values, trinomial_band_oracle

BAND = VolatilityBand(0.1, 0.2)
FINE = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=1.0)
COARSE = GridSpec(dt=0.005, h=0.05, radius=40, horizon=1.0)


def g_function(a: float, sigma_low: float, sigma_high: float):
    """Band generator g(a) = (sigma_high^2 a+ - sigma_low^2 a-) / 2.

    Monotone and positively homogeneous in a; g(0) = 0.
    """
    a = np.asarray(a, dtype=float)
    out = 0.5 * (sigma_high ** 2 * np.maximum(a, 0.0)
                 - sigma_low ** 2 * np.maximum(-a, 0.0))
    return out if out.ndim else float(out)


def test_g_function_hand_values():
    assert g_function(0.0, 0.1, 0.2) == 0.0
    assert g_function(2.0, 0.1, 0.2) == pytest.approx(0.04, abs=1e-15)
    assert g_function(-2.0, 0.1, 0.2) == pytest.approx(-0.01, abs=1e-15)
    a = np.array([-1.0, 0.0, 3.0])
    assert np.allclose(g_function(a, 0.1, 0.2), [-0.005, 0.0, 0.06])


def test_square_payoff_prices():
    lo_sq, hi_sq = square_band_values(0.1, 0.2, 1.0)
    bid, ask, _, _ = bid_ask(lambda x: x ** 2, BAND, FINE, method="lattice")
    assert ask == pytest.approx(hi_sq, abs=2e-3)
    assert bid == pytest.approx(lo_sq, abs=1e-3)


def test_call_payoff_prices():
    target = call_upper_value(0.2, 1.0)
    bid, ask, _, _ = bid_ask(lambda x: np.maximum(x, 0.0), BAND, FINE)
    assert ask == pytest.approx(target, abs=1e-3)
    assert bid == pytest.approx(call_upper_value(0.1, 1.0), abs=1e-3)


def test_band_prices_match_the_trinomial_tree_oracle():
    tree_grid = GridSpec(dt=0.05, h=0.05, radius=10, horizon=0.35)  # 7 steps
    stepped = VolatilityBand(np.linspace(0.05, 0.15, 7), np.linspace(0.2, 0.22, 7))
    for band in (BAND, stepped):
        for payoff in (lambda x: x ** 2, lambda x: np.maximum(x, 0.0),
                       lambda x: x ** 3, lambda x: np.abs(x - 0.07)):
            bid, ask, _, _ = bid_ask(payoff, band, tree_grid)
            assert abs(ask - trinomial_band_oracle(PayoffSpec("terminal", payoff), band,
                                                   tree_grid)) <= 1e-12
            negated = PayoffSpec("terminal", lambda x: -payoff(x))
            assert abs(bid + trinomial_band_oracle(negated, band, tree_grid)) <= 1e-12


def test_the_tree_oracle_shapes_a_payoff_as_the_grid_does():
    # a scalar payoff is broadcast to every leaf of the tree, as to the grid:
    # a constant claim prices at its value, bid and ask; a payoff of the
    # wrong shape is rejected with the grid's message
    tree_grid = GridSpec(dt=0.05, h=0.05, radius=10, horizon=0.35)  # 7 steps, 3^7 leaves
    for spec in (PayoffSpec("terminal", lambda x: 1.0),
                 PayoffSpec("cylinder", lambda a, b: 1.0, monitoring_times=(0.1, 0.35))):
        for sign in (1.0, -1.0):  # the ask, and the bid as -ask(-X)
            signed = PayoffSpec(spec.kind, lambda *b: sign * spec.fn(*b), spec.monitoring_times)
            assert trinomial_band_oracle(signed, BAND, tree_grid) == sign
            assert conditional_gexp(signed, BAND, tree_grid, 0.0)[1](0.0) == sign
    assert bid_ask(lambda x: 1.0, BAND, tree_grid)[:2] == (1.0, 1.0)
    with pytest.raises(ValueError, match=r"payoff returned shape \(5,\), which does not "
                                         r"broadcast to the grid shape \(2187,\)"):
        trinomial_band_oracle(PayoffSpec("terminal", lambda x: np.asarray(x)[:5]), BAND,
                              tree_grid)


@pytest.mark.parametrize("fn, times", [
    (lambda a, b, c: np.maximum(c - a, 0.0) * np.cos(4.0 * b) + np.sin(7.0 * b) * c,
     (0.1, 0.2, 0.35)),
    (lambda a, b, c: np.abs(a - b) - c ** 2, (0.05, 0.15, 0.3)),
    (lambda a, b, c, d: np.maximum(np.maximum(a, b), np.maximum(c, d)), (0.0, 0.1, 0.25, 0.35)),
    (lambda a, b, c, d: np.sin(3.0 * a + b) * (d - c) ** 2 + np.abs(d - a), (0.05, 0.1, 0.2, 0.3)),
    (lambda a, b, c: np.maximum(c - a, 0.0), (0.1, 0.2, 0.35)),
    (lambda a, b: np.asfortranarray(np.abs(a - 0.5 * b) + b ** 2), (0.1, 0.35)),
], ids=["3-dates", "3-dates-before-the-horizon", "4-dates-from-0", "4-dates",
        "3-dates-one-left-out", "2-dates-fortran-ordered"])
def test_cylinder_payoffs_match_the_tree_oracle(fn, times, blocks):
    # the tree reads each leaf's path at the dates; the grid peels the dates
    # off its mesh one at a time.  A payoff that leaves out a date broadcasts
    # with a zero stride, and one may return a Fortran-ordered array: the
    # evolution must not depend on the layout of its input
    tree_grid = GridSpec(dt=0.05, h=0.05, radius=10, horizon=0.35)  # 7 steps
    stepped = VolatilityBand(np.linspace(0.05, 0.15, 7), np.linspace(0.2, 0.22, 7))
    for band in (BAND, stepped):
        for sign in (1.0, -1.0):
            spec = PayoffSpec("cylinder", lambda *b: sign * fn(*b), monitoring_times=times)
            # a date at 0 is observed at s = 0, where B_0 = 0
            _, value = conditional_gexp(spec, band, tree_grid, s=0.0,
                                        observed=(0.0,) * (times[0] == 0.0))
            assert abs(value(0.0) - trinomial_band_oracle(spec, band, tree_grid)) <= 1e-12


def test_trinomial_band_oracle_needs_the_grid_to_reach_every_leaf():
    short = GridSpec(dt=0.05, h=0.05, radius=6, horizon=0.35)
    with pytest.raises(ValueError, match="radius 6 < 7 steps"):
        trinomial_band_oracle(PayoffSpec("terminal", lambda x: x ** 2), BAND, short)


def test_affine_payoff_exact():
    # zero curvature everywhere, so every band choice gives the same value
    val, surf = robust_lattice_price(lambda x: 2.0 * x + 3.0, BAND, COARSE)
    assert val == 3.0
    neg_val, _ = robust_lattice_price(lambda x: -2.0 * x - 3.0, BAND, COARSE)
    assert -neg_val == 3.0
    assert np.max(np.abs(surf[0] - surf[-1])) <= 1e-10


def test_bid_never_exceeds_ask():
    rng = np.random.default_rng(3)
    knots = rng.normal(size=9)
    payoff = lambda x: np.interp(x, np.linspace(-2, 2, 9), knots)
    bid, ask, bid_surf, ask_surf = bid_ask(payoff, BAND, COARSE)
    assert bid <= ask + 1e-12
    assert np.all(bid_surf <= ask_surf + 1e-12)


def test_cfl_guard():
    bad = GridSpec(dt=0.01, h=0.01, radius=10, horizon=1.0)
    with pytest.raises(CFLError, match="stability bound"):
        robust_lattice_price(lambda x: x ** 2, BAND, bad)
    with pytest.raises(CFLError):
        bid_ask(lambda x: x ** 2, BAND, bad)


def test_bid_ask_methods_are_one_evolution_and_a_typo_is_rejected():
    payoff = lambda x: np.abs(x)
    lattice = bid_ask(payoff, BAND, COARSE, method="lattice")
    pde = bid_ask(payoff, BAND, COARSE, method="pde")
    ask, ask_surf = robust_lattice_price(payoff, BAND, COARSE)
    assert lattice[1] == pde[1] == ask
    assert np.array_equal(lattice[3], ask_surf) and np.array_equal(pde[2], lattice[2])
    with pytest.raises(ValueError, match="method must be 'lattice' or 'pde'"):
        bid_ask(payoff, BAND, COARSE, method="typo")


def test_grid_rejects_a_horizon_off_the_time_grid():
    # dt = 0.3 on horizon 1 would silently price maturity 0.9
    with pytest.raises(ValueError, match="not a multiple of dt"):
        GridSpec(dt=0.3, h=1.0, radius=4, horizon=1.0)


def test_grid_rejects_a_non_integral_radius():
    # a radius of 40.5 would build an 82-point grid with no cell at x = 0
    with pytest.raises(ValueError, match="radius must be an integer, got 40.5"):
        GridSpec(dt=0.005, h=0.05, radius=40.5, horizon=1.0)
    # True is an int to Python: it would build a 3-cell grid
    with pytest.raises(ValueError, match="radius must be an integer, got True"):
        GridSpec(dt=0.005, h=0.05, radius=True, horizon=1.0)


@pytest.mark.parametrize("dt, h, horizon", [
    (0.005, np.nan, 1.0), (0.005, np.inf, 1.0), (np.nan, 0.05, 1.0),
    (np.inf, 0.05, 1.0), (0.005, 0.05, np.nan), (0.005, 0.05, np.inf),
])
def test_grid_rejects_non_finite_parameters(dt, h, horizon):
    # nan <= 0 is False: an h of NaN used to price bid = ask = nan
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(dt=dt, h=h, radius=40, horizon=horizon)


def test_grid_rejects_a_horizon_of_no_step():
    # a horizon within the on-grid tolerance of 0 used to give n_steps == 0,
    # and bid_ask of x^2 priced (0.0, 0.0) without one step
    with pytest.raises(ValueError, match="horizon=5e-10 spans no step of dt=1.0"):
        GridSpec(dt=1.0, h=1.0, radius=2, horizon=5e-10)
    assert GridSpec(dt=1.0, h=1.0, radius=2, horizon=1.0).n_steps == 1


def test_on_grid_tolerance_is_relative_to_the_step():
    # an absolute tolerance of 1e-9 took t = 3.304e-7 as step 330 of dt = 1e-9
    grid = GridSpec(dt=1e-9, h=1.0, radius=2, horizon=1e-6)
    assert grid.n_steps == 1000
    assert grid.step_of(3.3e-7, "t") == 330
    with pytest.raises(ValueError, match="t=3.304e-07 is not a multiple of dt=1e-09"):
        grid.step_of(3.304e-7, "t")
    # the tolerance scales with dt: on dt = 1e3 an offset of 1e-7 is rounding
    assert GridSpec(dt=1e3, h=1.0, radius=2, horizon=1e3 + 1e-7).n_steps == 1


def test_check_cfl_rejects_a_band_of_the_wrong_length():
    grid = GridSpec(dt=0.25, h=1.0, radius=4, horizon=1.0)
    grid.check_cfl(VolatilityBand([0.1] * 4, [0.2] * 4))
    with pytest.raises(ValueError, match="per-step band needs 4 entries, got 3"):
        grid.check_cfl(VolatilityBand([0.1] * 3, [0.2] * 3))


def test_conditional_gexp_terminal_at_zero():
    payoff = PayoffSpec("terminal", lambda x: x ** 2)
    surf, value = conditional_gexp(payoff, BAND, COARSE, s=0.0)
    assert value(0.0) == pytest.approx(0.04, abs=2e-3)


def test_conditional_gexp_degenerate_cylinder():
    cyl = PayoffSpec("cylinder", lambda x: x ** 2, monitoring_times=(1.0,))
    surf_c, _ = conditional_gexp(cyl, BAND, COARSE, s=0.0)
    surf_t, _ = conditional_gexp(PayoffSpec("terminal", lambda x: x ** 2),
                                 BAND, COARSE, s=0.0)
    assert np.max(np.abs(surf_c - surf_t)) <= 1e-9


def test_conditional_gexp_fully_observed():
    cyl = PayoffSpec("cylinder", lambda a, b: a + b ** 2,
                     monitoring_times=(0.25, 0.5))
    surf, value = conditional_gexp(cyl, BAND, COARSE, s=0.5,
                                   observed=(0.3, -0.1))
    assert np.all(surf == surf[0])
    assert value(1.7) == pytest.approx(0.3 + 0.01, abs=1e-12)
    with pytest.raises(ValueError, match="observed"):
        conditional_gexp(cyl, BAND, COARSE, s=0.5, observed=(0.3,))


def test_conditional_gexp_two_dates():
    cyl = PayoffSpec("cylinder", lambda a, b: a ** 2 + b ** 2,
                     monitoring_times=(0.5, 1.0))
    surf, value = conditional_gexp(cyl, BAND, COARSE, s=0.0)
    assert value(0.0) == pytest.approx(0.04 * 0.5 + 0.04, abs=3e-3)


def test_conditional_gexp_staged_consistency():
    # evaluating at s = 0.5 and then evolving to 0 matches direct evaluation
    cyl = PayoffSpec("cylinder", lambda b: b ** 2, monitoring_times=(1.0,))
    mid, _ = conditional_gexp(cyl, BAND, COARSE, s=0.5)
    direct, _ = conditional_gexp(cyl, BAND, COARSE, s=0.0)
    k_mid = int(round(0.5 / COARSE.dt))
    assert np.max(np.abs(_evolve(mid, BAND, COARSE, k_mid, 0) - direct)) <= 1e-12


def test_conditional_gexp_value_rejects_a_state_off_the_grid():
    # x^2 with 0.5 left is about 25.02 at B_s = 5; the grid ends at 1.0,
    # and interpolation read the edge value 1.0 there
    grid = GridSpec(dt=0.005, h=0.05, radius=20, horizon=1.0)
    surf, value = conditional_gexp(PayoffSpec("terminal", lambda x: x ** 2), BAND, grid, s=0.5)
    assert value(-1.0) == surf[0] and value(1.0) == surf[-1]
    for b_s in (5.0, -1.0001, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"B_s must be finite and within the space "
                                             rf"grid \[-1.0, 1.0\], got {b_s}"):
            value(b_s)


def test_conditional_gexp_states_its_cell_limit():
    # five free dates on 41 cells need 41^5 cells: rejected before phi runs
    grid = GridSpec(dt=0.25, h=1.0, radius=20, horizon=1.25)
    calls = []
    spec = PayoffSpec("cylinder", lambda *b: calls.append(b) or sum(b),
                      monitoring_times=(0.25, 0.5, 0.75, 1.0, 1.25))
    with pytest.raises(ValueError, match="5 free dates on 41 space cells need 115856201 "
                                         "cells, above the limit of 16777216"):
        conditional_gexp(spec, BAND, grid, s=0.0)
    assert not calls
    # the limit counts free dates: with the first observed, 41^4 cells run
    surf, _ = conditional_gexp(spec, BAND, grid, s=0.25, observed=(0.5,))
    assert len(calls) == 1 and np.allclose(surf, 0.5 + 4.0 * grid.x)


def test_conditional_gexp_off_grid_times_rejected():
    cyl = PayoffSpec("cylinder", lambda b: b, monitoring_times=(0.5001,))
    with pytest.raises(ValueError, match="monitoring time t_1=0.5001 is not a multiple of dt"):
        conditional_gexp(cyl, BAND, COARSE, s=0.0)
    term = PayoffSpec("terminal", lambda x: x)
    with pytest.raises(ValueError, match="conditioning time"):
        conditional_gexp(term, BAND, COARSE, s=0.1234)
    # on the grid but outside [0, horizon]
    for s in (-0.5, 1.005):
        with pytest.raises(ValueError, match=r"conditioning time .* outside \[0, 1.0\]"):
            conditional_gexp(term, BAND, COARSE, s=s)


def test_payoff_spec_validation():
    with pytest.raises(ValueError, match="unknown payoff kind"):
        PayoffSpec("asian", lambda x: x)
    with pytest.raises(ValueError, match="monitoring times"):
        PayoffSpec("cylinder", lambda x: x)
    with pytest.raises(ValueError, match="strictly increasing"):
        PayoffSpec("cylinder", lambda a, b: a, monitoring_times=(0.5, 0.5))


@pytest.mark.parametrize("kind, times, message", [
    ("terminal", (0.5,), "terminal payoffs take none, got a terminal payoff with"),
    ("cylinder", (-0.25, 0.5), r"finite and non-negative, got \(-0.25, 0.5\)"),
    ("cylinder", (np.nan, 0.5), r"finite and non-negative, got \(nan, 0.5\)"),
], ids=["terminal-with-dates", "negative-date", "nan-date"])
def test_payoff_spec_rejects_bad_monitoring_dates(kind, times, message):
    # a terminal payoff ignored its dates; a negative or NaN date was accepted
    with pytest.raises(ValueError, match=message):
        PayoffSpec(kind, lambda *b: b[0], monitoring_times=times)


@pytest.mark.parametrize("band", [BAND, "per-step"], ids=["constant", "per-step"])
def test_conditional_gexp_rejects_a_date_past_the_horizon(band):
    # a constant band priced t = 1.5 past the grid, a per-step one raised IndexError
    band = STEPPED if band == "per-step" else band
    cyl = PayoffSpec("cylinder", lambda b: b ** 2, monitoring_times=(1.5,))
    with pytest.raises(ValueError, match=r"monitoring time t_1=1.5 lies outside \[0, 1.0\]"):
        conditional_gexp(cyl, band, COARSE, s=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "x", None])
def test_conditional_gexp_rejects_a_non_finite_observed_coordinate(bad):
    cyl = PayoffSpec("cylinder", lambda a, b: a + b, monitoring_times=(0.25, 0.5))
    with pytest.raises(ValueError, match=r"observed coordinate B\(t_2\) must be a finite "
                                         rf"number, got {bad!r}"):
        conditional_gexp(cyl, BAND, COARSE, s=0.5, observed=(0.3, bad))


def test_quadratic_variation_fix_a():
    lat = fix_a_lattice()
    assert np.array_equal(quadratic_variation(lat, 2).values, np.full(4, 2.0))
    assert np.array_equal(quadratic_variation(lat, 0).values, [0.0])


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


def test_integration_by_parts_exact():
    lat = fix_a_lattice()
    assert np.all(integration_by_parts_residual(lat, 2).values == 0.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        rand = random_lattice(rng)
        res = integration_by_parts_residual(rand, rand.terminal)
        assert np.max(np.abs(res.values)) <= 1e-12


def band_kernel(inc, v, h):
    return np.where(inc == 0.0, 1.0 - v / h ** 2, v / (2.0 * h ** 2))


# how far a kernel's one-step mean and variance may stray from 0 and the band
_MEAN_TOL, _VAR_TOL = 1e-10, 1e-12


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


def test_band_membership():
    h = 0.1
    lat = trinomial_tree(h=h, steps=2)
    dt = 0.1  # kernel positivity needs v <= h^2 = 0.01
    band = VolatilityBand(0.1, 0.2)

    def kernels_for(v):
        out = []
        for k in range(lat.n_times - 1):
            level = []
            for i in range(lat.n_nodes(k)):
                inc = lat.increments[k + 1][lat.offsets[k][i]:lat.offsets[k][i + 1], 0]
                level.append(band_kernel(inc, v, h))
            out.append(tuple(level))
        return tuple(out)

    inside = Measure(lat, kernels_for(0.15 ** 2 * dt))
    assert band_membership(inside, band, dt)
    too_hot = Measure(lat, kernels_for(0.3 ** 2 * dt))
    assert not band_membership(too_hot, band, dt)
    skewed_kernels = list(list(level) for level in kernels_for(0.15 ** 2 * dt))
    inc0 = lat.increments[1][:, 0]
    drift = np.where(inc0 > 0, 0.02, np.where(inc0 < 0, -0.02, 0.0))
    skewed_kernels[0][0] = skewed_kernels[0][0] + drift
    skewed = Measure(lat, tuple(tuple(level) for level in skewed_kernels))
    assert not band_membership(skewed, band, dt)


def test_a_scalar_payoff_is_broadcast_to_the_grid():
    # a constant claim prices at its value everywhere, as conditional_gexp did
    one = lambda *coords: 1.0
    bid, ask, bid_surf, ask_surf = bid_ask(one, BAND, COARSE)
    assert bid == ask == 1.0 and np.all(bid_surf == 1.0) and np.all(ask_surf == 1.0)
    price, surface = robust_lattice_price(one, BAND, COARSE)
    assert price == 1.0 and surface.shape == (COARSE.n_steps + 1, COARSE.x.size)
    vfield = random_inband_field(COARSE, BAND, np.random.default_rng(2))
    assert expectation_under_field(one, vfield, COARSE) == 1.0
    assert conditional_gexp(PayoffSpec("terminal", one), BAND, COARSE, 0.0)[1](0.0) == 1.0
    assert conditional_gexp(PayoffSpec("cylinder", one, monitoring_times=(0.5, 1.0)),
                            BAND, COARSE, 0.0)[1](0.0) == 1.0


def test_a_payoff_of_the_wrong_shape_is_rejected():
    short = lambda x: np.asarray(x)[:5]
    vfield = random_inband_field(COARSE, BAND, np.random.default_rng(2))
    message = r"payoff returned shape \(5,\), which does not broadcast to the grid shape \(81,\)"
    for price in (lambda f: bid_ask(f, BAND, COARSE),
                  lambda f: robust_lattice_price(f, BAND, COARSE),
                  lambda f: expectation_under_field(f, vfield, COARSE)):
        with pytest.raises(ValueError, match=message):
            price(short)
    with pytest.raises(ValueError, match=r"shape \(81, 5\), which does not broadcast to the "
                                         r"grid shape \(81, 81\)"):
        conditional_gexp(PayoffSpec("cylinder", lambda a, b: (a + b)[:, :5],
                                    monitoring_times=(0.5, 1.0)), BAND, COARSE, 0.0)


def test_field_expectations_dominated():
    rng = np.random.default_rng(29)
    payoff = lambda x: np.abs(x)
    bid, ask, _, _ = bid_ask(payoff, BAND, COARSE)
    for _ in range(20):
        vfield = random_inband_field(COARSE, BAND, rng)
        val = expectation_under_field(payoff, vfield, COARSE)
        assert bid - 1e-9 <= val <= ask + 1e-9
    with pytest.raises(ValueError, match="shape"):
        expectation_under_field(payoff, vfield[:-1], COARSE)


def test_field_rejects_non_finite_and_negative_variances():
    payoff = lambda x: np.abs(x)
    shape = (COARSE.n_steps, COARSE.x.size)
    all_nan = np.full(shape, np.nan)  # passes a max-based bound, prices at nan
    one_inf = np.full(shape, 1e-4)
    one_inf[3, 7] = np.inf
    for bad in (all_nan, one_inf):
        with pytest.raises(ValueError, match="variance field must be finite"):
            expectation_under_field(payoff, bad, COARSE)
    negative = np.full(shape, 1e-4)
    negative[0, 40] = -1e-6  # would make a kernel weight negative
    with pytest.raises(ValueError, match="variance field must be non-negative"):
        expectation_under_field(payoff, negative, COARSE)


def test_band_validation():
    with pytest.raises(ValueError):
        VolatilityBand(0.3, 0.2)
    with pytest.raises(ValueError):
        VolatilityBand(-0.1, 0.2)
    for low, high in ((np.nan, 0.2), (0.1, np.inf), ([0.1, np.nan], [0.2, 0.2])):
        with pytest.raises(ValueError, match="finite"):
            VolatilityBand(low, high)
    stepped = VolatilityBand([0.1, 0.15], [0.2, 0.25])
    assert stepped.at_step(0) == (0.1, 0.2)
    assert stepped.at_step(1) == (0.15, 0.25)
    assert stepped.max_high == 0.25


@pytest.mark.parametrize("build, message", [
    (lambda: VolatilityBand([0.1, 0.1], [0.2, 0.2, 0.2]), "must have the same shape"),
    # a 2-D array built, and bid_ask died with a bare TypeError in _evolve
    (lambda: VolatilityBand(np.full((4, 1), 0.1), np.full((4, 1), 0.2)),
     r"must be numbers or 1-D arrays, got shapes \(4, 1\) and \(4, 1\)"),
    (lambda: VolatilityBand([[0.1]], [[0.2]]),
     r"must be numbers or 1-D arrays, got shapes \(1, 1\) and \(1, 1\)"),
    (lambda: VolatilityBand(0.1, np.full((2, 2), 0.2)),
     r"must be numbers or 1-D arrays, got shapes \(\) and \(2, 2\)"),
    (lambda: GridSpec(dt=0.0, h=0.05, radius=40, horizon=1.0), "must be positive"),
    (lambda: GridSpec(dt=0.005, h=-0.05, radius=40, horizon=1.0), "must be positive"),
    (lambda: GridSpec(dt=0.005, h=0.05, radius=0, horizon=1.0), "must be positive"),
    (lambda: GridSpec(dt=0.005, h=0.05, radius=40, horizon=-1.0), "must be positive"),
    (lambda: expectation_under_field(np.abs, np.full((COARSE.n_steps, COARSE.x.size),
                                                     1.01 * COARSE.h ** 2), COARSE),
     "kernel positivity bound"),
], ids=["band-shapes", "band-column", "band-1x1", "band-2x2", "dt", "h", "radius", "horizon",
        "field-above-h2"])
def test_malformed_bands_grids_and_fields_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# The band step as a fresh array per operation: the reference that the
# in-place step must reproduce bit for bit.

def reference_second_difference(v, h):
    d = np.zeros_like(v)
    d[..., 1:-1] = (v[..., 2:] + v[..., :-2] - 2.0 * v[..., 1:-1]) / h ** 2
    return d


def reference_evolve(values, band, grid, k_from, k_to, surface=None):
    v = values
    for k in range(k_from - 1, k_to - 1, -1):
        lo, hi = band.at_step(k)
        d2 = reference_second_difference(v, grid.h)
        v = np.maximum(v + 0.5 * lo ** 2 * grid.dt * d2,
                       v + 0.5 * hi ** 2 * grid.dt * d2)
        if surface is not None:
            surface[k] = v
    return v


def reference_price(payoff, band, grid):
    v = np.asarray(payoff(grid.x), dtype=float)
    surface = np.empty((grid.n_steps + 1, v.size))
    surface[grid.n_steps] = v
    v = reference_evolve(v, band, grid, grid.n_steps, 0, surface)
    return float(v[grid.radius]), surface


def reference_bid_ask(payoff, band, grid):
    ask, ask_surface = reference_price(payoff, band, grid)
    neg, neg_surface = reference_price(lambda x: -np.asarray(payoff(x)), band, grid)
    return -neg, ask, -neg_surface, ask_surface


def reference_field(payoff, vfield, grid):
    v = np.asarray(payoff(grid.x), dtype=float)
    for k in range(grid.n_steps - 1, -1, -1):
        v = v + 0.5 * vfield[k] * reference_second_difference(v, grid.h)
    return float(v[grid.radius])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))  # signed zeros too


STEPPED = VolatilityBand(np.linspace(0.05, 0.15, COARSE.n_steps),
                         np.linspace(0.2, 0.25, COARSE.n_steps))
PAYOFFS = {
    "square": lambda x: np.asarray(x) ** 2,
    "call": lambda x: np.maximum(np.asarray(x), 0.0),
    "-call": lambda x: -np.maximum(np.asarray(x), 0.0),  # -0.0 left of the strike
    "sin": lambda x: np.sin(7.0 * np.asarray(x)),
}


# An evolution splits a multi-row array into blocks of rows, one thread
# each.  The fixture forces a split into up to 2 or 3 blocks whatever the
# size (1 is the serial path), by faking the CPU count and lowering the gate.

@pytest.fixture(params=[1, 2, 3], ids=["1-block", "2-blocks", "3-blocks"])
def blocks(request, monkeypatch):
    monkeypatch.setattr(gexp, "_cpu_count", lambda: request.param)
    monkeypatch.setattr(gexp, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(gexp, "_BLOCK_STEPS", 1)
    return request.param


def record_threads(monkeypatch) -> list:
    """The threads that ``_evolve`` starts from now on, in a list."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(gexp, "threading", types.SimpleNamespace(Thread=Recorded))
    return started


@pytest.mark.parametrize("band", [BAND, STEPPED], ids=["constant", "per-step"])
@pytest.mark.parametrize("name", PAYOFFS)
def test_band_step_is_bit_identical_to_the_reference(band, name, blocks):
    payoff = PAYOFFS[name]
    x, k = COARSE.x, COARSE.n_steps
    # 1-D, 2-D and 3-D grids, all with odd row counts, without a surface
    # and with one surface per row (a 1-D grid as one row); a
    # Fortran-ordered and a transposed 2-D mesh as well; the input stays
    # untouched
    mesh = np.asarray(payoff(x[:, None] - 0.5 * x[None, :]), dtype=float)
    for values in (np.asarray(payoff(x), dtype=float), mesh,
                   np.asfortranarray(mesh[::3]), mesh[:, ::5].T,
                   np.asarray(payoff(x[::8, None, None] - 0.5 * x[None, ::10, None]
                                     + 0.25 * x), dtype=float)):
        given = values.copy()
        rows = np.atleast_2d(values)
        expected_surface = np.empty((k + 1,) + rows.shape)
        expected = reference_evolve(rows, band, COARSE, k, 3, expected_surface)
        per_row = [np.empty((k + 1,) + row.shape) for row in rows]
        assert_same_bits(_evolve(rows, band, COARSE, k, 3, per_row), expected)
        assert_same_bits(np.array(per_row)[:, 3:-1], expected_surface[3:-1].swapaxes(0, 1))
        assert_same_bits(_evolve(values, band, COARSE, 150, 20),
                         reference_evolve(values, band, COARSE, 150, 20))
        assert_same_bits(values, given)

    for got, expected in zip(bid_ask(payoff, band, COARSE),
                             reference_bid_ask(payoff, band, COARSE)):
        assert_same_bits(got, expected)

    rng = np.random.default_rng(5)
    for _ in range(3):
        vfield = random_inband_field(COARSE, band, rng)
        assert_same_bits(expectation_under_field(payoff, vfield, COARSE),
                         reference_field(payoff, vfield, COARSE))


@pytest.mark.parametrize("band", [BAND, STEPPED], ids=["constant", "per-step"])
def test_conditional_gexp_is_bit_identical_to_the_reference(band, monkeypatch):
    specs = [
        (PayoffSpec("terminal", PAYOFFS["sin"]), 0.25, ()),
        (PayoffSpec("cylinder", lambda a, b: np.sin(3.0 * a) * (b - a) ** 2,
                    monitoring_times=(0.4, 1.0)), 0.0, ()),
        (PayoffSpec("cylinder", lambda a, b: -np.maximum(b - a, 0.0),
                    monitoring_times=(0.4, 1.0)), 0.5, (0.1,)),
        (PayoffSpec("cylinder", lambda a, b, c: np.cos(2.0 * a) * np.maximum(c - b, 0.0) + a * b,
                    monitoring_times=(0.2, 0.5, 0.6)), 0.0, ()),
        (PayoffSpec("cylinder", lambda a, b, c: np.sin(a + c) - b ** 2,
                    monitoring_times=(0.2, 0.5, 0.6)), 0.3, (0.1,)),
    ]
    got = [conditional_gexp(spec, band, COARSE, s, obs)[0] for spec, s, obs in specs]
    monkeypatch.setattr(gexp, "_evolve", reference_evolve)
    for surf, (spec, s, obs) in zip(got, specs):
        assert_same_bits(surf, conditional_gexp(spec, band, COARSE, s, obs)[0])


# Rows stacked along the leading axes share one flat buffer, in which the
# second difference runs across the seams where rows meet; the seam cells
# are re-zeroed each step.  Any leak across a seam shows up here.
TINY = GridSpec(dt=0.01, h=0.1, radius=1, horizon=0.5)  # 3 cells: 2 of them seams


def stepped(grid):
    return VolatilityBand(np.linspace(0.05, 0.15, grid.n_steps),
                          np.linspace(0.2, 0.3, grid.n_steps))


@pytest.mark.parametrize("grid, band", [(TINY, BAND), (TINY, stepped(TINY)),
                                        (COARSE, BAND), (COARSE, STEPPED)],
                         ids=["3-cell-constant", "3-cell-per-step",
                              "coarse-constant", "coarse-per-step"])
def test_stacked_rows_evolve_bit_for_bit_as_single_rows(grid, band, blocks):
    x, k = grid.x, grid.n_steps
    rows = np.array([np.asarray(f(x), dtype=float) for f in PAYOFFS.values()]
                    + [np.full(x.size, -0.0), np.where(np.arange(x.size) % 2, 1.0, -1.0),
                       np.cos(3.0 * x)])  # 7 rows: no split is even
    given = rows.copy()
    surfaces = []
    for row in rows:
        surfaces.append(np.empty((k + 1, x.size)))
        surfaces[-1][k] = row
    singles = np.array([_evolve(row[None], band, grid, k, 0, (s,))[0]
                        for row, s in zip(rows, surfaces)])
    surfaces = np.array(surfaces)
    assert_same_bits(singles, reference_evolve(rows, band, grid, k, 0))
    assert_same_bits(_evolve(rows, band, grid, k, 0), singles)
    assert_same_bits(_evolve(rows, band, grid, k, k // 2), [_evolve(row, band, grid, k, k // 2)
                                                            for row in rows])

    per_row = [np.empty((k + 1, x.size)) for _ in rows]
    for s, row in zip(per_row, rows):
        s[k] = row
    assert_same_bits(_evolve(rows, band, grid, k, 0, per_row), singles)
    assert_same_bits(per_row, surfaces)

    cube = np.stack((rows, -rows[::-1], 0.5 * rows))  # (3, R, n): blocks of planes
    expected = np.stack((singles, [_evolve(-row, band, grid, k, 0) for row in rows[::-1]],
                         [_evolve(0.5 * row, band, grid, k, 0) for row in rows]))
    assert_same_bits(expected, reference_evolve(cube, band, grid, k, 0))
    assert_same_bits(_evolve(cube, band, grid, k, 0), expected)
    planes = [np.empty((k + 1,) + rows.shape) for _ in cube]
    for s, plane in zip(planes, cube):
        s[k] = plane
    assert_same_bits(_evolve(cube, band, grid, k, 0, planes), expected)
    assert_same_bits(planes[0], surfaces.swapaxes(0, 1))
    assert_same_bits(rows, given)


def test_a_large_mesh_is_split_per_cpu_and_small_calls_stay_serial(monkeypatch):
    started = record_threads(monkeypatch)
    monkeypatch.setattr(gexp, "_cpu_count", lambda: 2)
    grid = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=0.05)  # 201 cells, 50 steps
    mesh = np.subtract.outer(grid.x, grid.x) ** 2
    split = _evolve(mesh, BAND, grid, grid.n_steps, 0)
    assert len(started) == 1  # two blocks: the caller's and one thread
    monkeypatch.setattr(gexp, "_cpu_count", lambda: 1)
    assert_same_bits(_evolve(mesh, BAND, grid, grid.n_steps, 0), split)
    monkeypatch.setattr(gexp, "_cpu_count", lambda: 2)
    # too few steps, too few cells per block, a single row, the band prices
    _evolve(mesh, BAND, grid, grid.n_steps, grid.n_steps - gexp._BLOCK_STEPS + 1)
    _evolve(mesh[:(2 * gexp._BLOCK_CELLS - 1) // grid.x.size], BAND, grid, grid.n_steps, 0)
    _evolve(np.tile(grid.x, 200), BAND, grid, grid.n_steps, 0)
    wide = GridSpec(dt=1e-3, h=0.01, radius=200, horizon=0.05)
    bid_ask(PAYOFFS["call"], BAND, wide)
    robust_lattice_price(PAYOFFS["call"], BAND, wide)
    vfield = random_inband_field(wide, BAND, np.random.default_rng(1))
    expectation_under_field(PAYOFFS["call"], vfield, wide)
    assert len(started) == 1
    assert not started[0].is_alive()


def test_a_one_cpu_affinity_takes_the_serial_path(monkeypatch):
    started = record_threads(monkeypatch)
    monkeypatch.setattr(gexp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert gexp._cpu_count() == 1
    grid = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=0.05)
    _evolve(np.subtract.outer(grid.x, grid.x) ** 2, BAND, grid, grid.n_steps, 0)
    assert started == []
    monkeypatch.setattr(gexp.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert gexp._cpu_count() == 3
    monkeypatch.delattr(gexp.os, "sched_getaffinity")  # as on platforms without it
    assert gexp._cpu_count() == (os.cpu_count() or 1)


def test_blocks_stay_bit_identical_under_frequent_thread_switches(monkeypatch):
    # three blocks, more than this machine may have CPUs, switching threads
    # every microsecond: a block that wrote outside its rows would show
    monkeypatch.setattr(gexp, "_cpu_count", lambda: 3)
    monkeypatch.setattr(gexp, "_BLOCK_CELLS", 1)
    x, k = COARSE.x, COARSE.n_steps
    mesh = np.sin(7.0 * np.add.outer(x[::4], 0.5 * x))  # 21 rows
    expected = reference_evolve(mesh, STEPPED, COARSE, k, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_same_bits(_evolve(mesh, STEPPED, COARSE, k, 0), expected)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bad_row", [0, 4], ids=["caller's-block", "thread's-block"])
def test_an_error_in_a_block_reaches_the_caller_and_no_thread_outlives_it(monkeypatch,
                                                                          bad_row):
    monkeypatch.setattr(gexp, "_cpu_count", lambda: 3)
    monkeypatch.setattr(gexp, "_BLOCK_CELLS", 1)
    started = record_threads(monkeypatch)
    rows = np.array([PAYOFFS["sin"](COARSE.x)] * 5)  # blocks of rows 0, 1-2 and 3-4
    per_row = [np.empty((COARSE.n_steps + 1, COARSE.x.size)) for _ in rows]
    per_row[bad_row] = np.empty((COARSE.n_steps + 1, 3))
    before = threading.active_count()
    with pytest.raises(ValueError, match="could not broadcast"):
        _evolve(rows, BAND, COARSE, COARSE.n_steps, 0, per_row)
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_a_surface_count_other_than_the_row_count_is_rejected():
    # a 1-D payoff is n_space rows of one cell: one surface for it was zipped
    # with its cells and filled every step with the first cell's value, and
    # two surfaces for one row were zipped down to one
    x, k = COARSE.x, COARSE.n_steps
    s, t = np.zeros((k + 1, x.size)), np.zeros((k + 1, x.size))
    with pytest.raises(ValueError, match=f"1 surfaces for {x.size} rows of values"):
        _evolve(x ** 2, BAND, COARSE, k, 0, (s,))
    with pytest.raises(ValueError, match="2 surfaces for 1 rows of values"):
        _evolve((x ** 2)[None], BAND, COARSE, k, 0, (s, t))
    assert not s.any() and not t.any()


def test_bid_and_ask_surfaces_are_separate_arrays():
    # a caller that keeps only the ask surface must not keep the bid's memory
    # alive: each surface owns its buffer, and the two do not overlap
    _, _, bid_surface, ask_surface = bid_ask(PAYOFFS["call"], BAND, COARSE)
    assert not np.shares_memory(bid_surface, ask_surface)
    assert bid_surface.base is None and ask_surface.base is None
    assert bid_surface.shape == ask_surface.shape == (COARSE.n_steps + 1, COARSE.x.size)
