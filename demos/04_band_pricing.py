"""Uncertain-volatility pricing: the band evolution on a grid, checked
against closed forms and against the robust recursion on a trinomial tree.

The upper price of a convex payoff over all martingale laws with one-step
volatility in [0.1, 0.2] is the Black-Scholes price at the high volatility;
concave payoffs price at the low one.  The grid evolution
v <- v + dt g(D2 v), g(a) = (hi^2 a+ - lo^2 a-) / 2, is the same sup taken
node by node on the full trinomial scenario tree.
"""

import numpy as np

from riskdesk import (
    GridSpec,
    PayoffSpec,
    VolatilityBand,
    bid_ask,
    conditional_gexp,
    expectation_under_field,
    random_inband_field,
    robust_lattice_price,
)
from riskdesk.oracles import call_upper_value, square_band_values, trinomial_band_oracle

band = VolatilityBand(0.1, 0.2)
grid = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=1.0)

# Square payoff: ask = hi^2 T, bid = lo^2 T.
lo_sq, hi_sq = square_band_values(0.1, 0.2, 1.0)
bid, ask, _, _ = bid_ask(lambda x: x ** 2, band, grid)
print(f"square payoff: bid {bid:.5f} (target {lo_sq}), ask {ask:.5f} (target {hi_sq})")

# Call payoff: ask = sigma_hi sqrt(T / 2 pi) for a strike at the money.
target = call_upper_value(0.2, 1.0)
bid, ask, _, _ = bid_ask(lambda x: np.maximum(x, 0.0), band, grid)
print(f"call payoff:   bid {bid:.5f}, ask {ask:.5f} (target {target:.5f})")

# The grid evolution and the robust recursion on the 7-step trinomial tree.
tree_grid = GridSpec(dt=0.05, h=0.05, radius=10, horizon=0.35)
grid_val, _ = robust_lattice_price(lambda x: np.abs(x), band, tree_grid)
tree_val = trinomial_band_oracle(PayoffSpec("terminal", lambda x: np.abs(x)), band, tree_grid)
print(f"|x| payoff, 7 steps: grid {grid_val:.12f}, tree {tree_val:.12f}")

# Conditional values of a two-date cylinder payoff.
coarse = GridSpec(dt=0.005, h=0.05, radius=40, horizon=1.0)
cyl = PayoffSpec("cylinder", lambda a, b: a ** 2 + b ** 2,
                 monitoring_times=(0.5, 1.0))
surf, value = conditional_gexp(cyl, band, coarse, s=0.0)
print(f"cylinder B_0.5^2 + B_1^2 at the origin: {value(0.0):.5f} (target 0.06)")

# A three-date cylinder payoff on the 7-step tree grid, and the tree oracle.
cyl3 = PayoffSpec("cylinder", lambda a, b, c: np.maximum(c - a, 0.0) + np.sin(5.0 * b),
                  monitoring_times=(0.1, 0.2, 0.35))
_, value3 = conditional_gexp(cyl3, band, tree_grid, s=0.0)
tree3 = trinomial_band_oracle(cyl3, band, tree_grid)
print(f"cylinder (B_0.35 - B_0.1)+ + sin(5 B_0.2), 7 steps: grid {value3(0.0):.12f}, "
      f"tree {tree3:.12f}")

# Every in-band martingale law prices between bid and ask.
rng = np.random.default_rng(0)
bid, ask, _, _ = bid_ask(lambda x: np.abs(x), band, coarse)
vals = [expectation_under_field(lambda x: np.abs(x),
                                random_inband_field(coarse, band, rng), coarse)
        for _ in range(5)]
print("sampled in-band expectations:",
      [round(v, 5) for v in vals], "within", (round(bid, 5), round(ask, 5)))
