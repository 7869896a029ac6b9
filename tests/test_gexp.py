import numpy as np
import pytest

from riskdesk.fixtures import fix_a_lattice, random_lattice, trinomial_tree
from riskdesk.gexp import (
    CFLError,
    GridSpec,
    PayoffSpec,
    VolatilityBand,
    band_membership,
    bid_ask,
    conditional_gexp,
    expectation_under_field,
    g_function,
    integration_by_parts_residual,
    quadratic_variation,
    random_inband_field,
    robust_lattice_price,
)
from riskdesk.measures import Measure
from riskdesk.oracles import call_upper_value, square_band_values, trinomial_band_oracle

BAND = VolatilityBand(0.1, 0.2)
FINE = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=1.0)
COARSE = GridSpec(dt=0.005, h=0.05, radius=40, horizon=1.0)


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
            assert abs(ask - trinomial_band_oracle(payoff, band, tree_grid)) <= 1e-12
            assert abs(bid + trinomial_band_oracle(lambda x: -payoff(x), band,
                                                   tree_grid)) <= 1e-12


def test_trinomial_band_oracle_needs_the_grid_to_reach_every_leaf():
    short = GridSpec(dt=0.05, h=0.05, radius=6, horizon=0.35)
    with pytest.raises(ValueError, match="radius 6 < 7 steps"):
        trinomial_band_oracle(lambda x: x ** 2, BAND, short)


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
    from riskdesk.gexp import _evolve

    cyl = PayoffSpec("cylinder", lambda b: b ** 2, monitoring_times=(1.0,))
    mid, _ = conditional_gexp(cyl, BAND, COARSE, s=0.5)
    direct, _ = conditional_gexp(cyl, BAND, COARSE, s=0.0)
    k_mid = int(round(0.5 / COARSE.dt))
    assert np.max(np.abs(_evolve(mid, BAND, COARSE, k_mid, 0) - direct)) <= 1e-12


def test_conditional_gexp_states_its_date_limit():
    # the limit of conditional_gexp is the one PayoffSpec enforces
    with pytest.raises(ValueError, match="3 monitoring dates .* at most 2 are supported"):
        PayoffSpec("cylinder", lambda a, b, c: a + b + c, monitoring_times=(0.25, 0.5, 1.0))


def test_conditional_gexp_off_grid_times_rejected():
    cyl = PayoffSpec("cylinder", lambda b: b, monitoring_times=(0.5001,))
    with pytest.raises(ValueError, match="time grid"):
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
    with pytest.raises(ValueError, match="exceed the"):
        PayoffSpec("cylinder", lambda a, b, c: a, monitoring_times=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="strictly increasing"):
        PayoffSpec("cylinder", lambda a, b: a, monitoring_times=(0.5, 0.5))


def test_quadratic_variation_fix_a():
    lat = fix_a_lattice()
    assert np.array_equal(quadratic_variation(lat, 2).values, np.full(4, 2.0))
    assert np.array_equal(quadratic_variation(lat, 0).values, [0.0])


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
                inc = lat.increments[k + 1][lat.children[k][i], 0]
                level.append(band_kernel(inc, v, h))
            out.append(tuple(level))
        return tuple(out)

    inside = Measure(lat, kernels_for(0.15 ** 2 * dt))
    assert band_membership(inside, band, dt)
    too_hot = Measure(lat, kernels_for(0.3 ** 2 * dt))
    assert not band_membership(too_hot, band, dt)
    skewed_kernels = list(list(level) for level in kernels_for(0.15 ** 2 * dt))
    inc0 = lat.increments[1][lat.children[0][0], 0]
    drift = np.where(inc0 > 0, 0.02, np.where(inc0 < 0, -0.02, 0.0))
    skewed_kernels[0][0] = skewed_kernels[0][0] + drift
    skewed = Measure(lat, tuple(tuple(level) for level in skewed_kernels))
    assert not band_membership(skewed, band, dt)


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
