import hashlib
import re

import numpy as np
import pytest

from riskdesk import skorokhod
from riskdesk.skorokhod import (
    PLContinuousPath,
    StepPath,
    TimeChange,
    alpha_inv,
    alpha_map,
    concat,
    convergence_witness,
    dhat_distance,
    dm_distance,
    g_damping,
    j1_distance,
    path_from_json,
    path_to_json,
    project_path,
    split_concat,
    transform_path,
)
from riskdesk.oracles import (
    _values_at,
    dense_timechange_cost,
    dm_enumeration_oracle,
    j1_enumeration_oracle,
    witness_enumeration_oracle,
)


def jump_path(times, values, horizon=None):
    return StepPath(np.asarray(times, dtype=float),
                    np.asarray(values, dtype=float), horizon=horizon)


def test_alpha_map_hand_values():
    assert alpha_map(1.0, 2.0) == 1.0
    assert alpha_map(0.0, 1.0) == 0.0
    assert alpha_inv(1.0, 1.0) == 0.5
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = float(rng.uniform(0.5, 3.0))
        u = float(rng.uniform(0.0, t * 0.999))
        assert abs(alpha_inv(alpha_map(u, t), t) - u) <= 1e-12
    with pytest.raises(ValueError):
        alpha_map(2.0, 2.0)
    with pytest.raises(ValueError):
        alpha_inv(-0.1, 1.0)


def test_transform_path_sends_late_jumps_far():
    n = 5
    x = jump_path([1.0 - 1.0 / n], [1.0], horizon=1.0)
    xr = transform_path(x, 1.0)
    assert xr.horizon is None
    assert xr.times[0] == pytest.approx(n - 1.0, abs=1e-12)
    with pytest.raises(ValueError, match=r"\[0, t\)"):
        transform_path(jump_path([0.5], [1.0]), 1.0)


def test_project_path_drops_late_jumps():
    x = jump_path([0.3, 0.8, 1.4], [1.0, 2.0, 3.0])
    p = project_path(x, 1.0)
    assert p.horizon == 1.0
    assert np.array_equal(p.times, [0.3, 0.8])
    assert np.array_equal(p.values.reshape(-1), [1.0, 2.0])


def test_g_damping_shape():
    assert g_damping(0.0, 3) == 1.0
    assert g_damping(2.0, 3) == 1.0
    assert g_damping(2.5, 3) == 0.5
    assert g_damping(3.0, 3) == 0.0
    assert g_damping(7.0, 3) == 0.0


def test_dm_distance_matched_jump():
    x = jump_path([0.3], [1.0])
    y = jump_path([0.4], [1.0])
    val, lam = dm_distance(x, y, m=2)
    assert val == pytest.approx(0.1, abs=1e-6)
    # the witness aligns the two jumps
    assert lam is not None
    assert abs(lam(0.4) - 0.3) <= 1e-12 or abs(lam(0.3) - 0.4) <= 1e-12


def test_dm_distance_identity_and_damped_tail():
    x = jump_path([0.3, 1.7], [1.0, -2.0])
    val, lam = dm_distance(x, x, m=3)
    assert val == 0.0
    assert lam.sup_deviation(10.0) == 0.0
    # a jump past the damping cut-off is invisible to d_m
    late = jump_path([2.5], [5.0])
    empty = jump_path([], np.zeros((0, 1)))
    val, _ = dm_distance(late, empty, m=1)
    assert val == 0.0
    # but not to the undamped comparison on a long window
    assert j1_distance(late, empty, horizon=4.0) == pytest.approx(5.0, abs=1e-12)


def test_dm_requires_ray_domain():
    x = jump_path([0.3], [1.0], horizon=1.0)
    with pytest.raises(ValueError, match="transform first"):
        dm_distance(x, jump_path([], np.zeros((0, 1))), m=1)
    with pytest.raises(ValueError, match="m >= 1"):
        dm_distance(jump_path([], np.zeros((0, 1))),
                    jump_path([], np.zeros((0, 1))), m=0)


def test_dhat_identity_symmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(0, 4))
        times = np.sort(rng.uniform(0.05, 0.95, size=k))
        times = np.unique(times)
        x = jump_path(times, rng.normal(size=times.size), horizon=1.0)
        k2 = int(rng.integers(0, 4))
        t2 = np.unique(np.sort(rng.uniform(0.05, 0.95, size=k2)))
        y = jump_path(t2, rng.normal(size=t2.size), horizon=1.0)
        dxx, _ = dhat_distance(x, x, 1.0, M=8)
        assert dxx == 0.0
        dxy, _ = dhat_distance(x, y, 1.0, M=8)
        dyx, _ = dhat_distance(y, x, 1.0, M=8)
        assert dxy == dyx  # canonical ordering makes this bit-exact


def test_dhat_envelope_for_jump_near_horizon():
    empty = jump_path([], np.zeros((0, 1)), horizon=1.0)
    for n in range(4, 21):
        x = jump_path([1.0 - 1.0 / n], [1.0], horizon=1.0)
        val, tail = dhat_distance(x, empty, 1.0, M=24)
        assert val <= 2.0 ** (-(n - 2)) + tail
    # the undamped distance stays bounded away from 0
    x = jump_path([1.0 - 1.0 / 20], [1.0])
    assert j1_distance(x, jump_path([], np.zeros((0, 1))), horizon=1.0) >= 0.5


def test_dhat_triangle_on_aligned_fixture():
    a = jump_path([0.3], [1.0], horizon=1.0)
    b = jump_path([0.4], [1.0], horizon=1.0)
    c = jump_path([0.5], [1.0], horizon=1.0)
    dab, _ = dhat_distance(a, b, 1.0, M=12)
    dbc, _ = dhat_distance(b, c, 1.0, M=12)
    dac, _ = dhat_distance(a, c, 1.0, M=12)
    assert dac <= dab + dbc + 1e-9


def test_time_change_basics():
    lam = TimeChange(((0.0, 0.0), (1.0, 2.0), (3.0, 4.0)))
    assert lam(0.5) == 1.0
    assert lam(5.0) == 6.0  # identity tail
    for v in (0.3, 1.7, 2.4, 9.0):
        assert abs(lam(lam.inverse(v)) - v) <= 1e-12
    assert lam.sup_deviation(3.0) == 1.0
    with pytest.raises(ValueError, match="origin"):
        TimeChange(((0.5, 0.5), (1.0, 1.0)))
    with pytest.raises(ValueError, match="increasing"):
        TimeChange(((0.0, 0.0), (1.0, 2.0), (1.0, 3.0)))
    # np.diff(...) <= 0 is False for NaN, so a NaN knot passed as increasing
    for knot in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TimeChange(((0.0, 0.0), knot))


def test_split_concat_linear_example():
    x = PLContinuousPath(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, -1.0]))
    head, tail = split_concat(x, 2.0)
    assert float(head.value(2.0)) == 0.5
    assert float(tail.value(2.0)) == 0.0
    assert float(tail.value(3.0)) == -1.5
    back = concat(head, tail)
    for u in np.linspace(0.0, 4.0, 41):
        assert float(back.value(u)) == pytest.approx(float(x.value(u)), abs=1e-12)


def test_split_concat_round_trip_exact_at_knots():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(3, 7))
        times = np.arange(k, dtype=float)
        values = np.concatenate([[0.0], rng.normal(size=k - 1)])
        x = PLContinuousPath(times, values)
        t = float(rng.integers(1, k - 1))
        head, tail = split_concat(x, t)
        assert float(tail.value(t)) == 0.0
        back = concat(head, tail)
        assert np.array_equal(back.times, x.times)
        assert np.array_equal(back.value(x.times), x.value(x.times))


def test_paths_must_vanish_at_their_start():
    with pytest.raises(ValueError, match="vanish"):
        PLContinuousPath(np.array([1.0, 2.0]), np.array([0.0, 1.0]), offset=0.5)
    with pytest.raises(ValueError, match="split expects"):
        split_concat(PLContinuousPath(np.array([1.0, 2.0]),
                                      np.array([0.0, 1.0])), 1.5)


def test_convergence_witness_shifted_jump():
    t = 1.0
    x = jump_path([0.5], [1.0], horizon=t)
    for n in (4, 10, 50):
        x_n = jump_path([0.5 + 1.0 / n], [1.0], horizon=t)
        report = convergence_witness(x_n, x, t, m_max=5)
        assert report["gamma_sup"] == pytest.approx(1.0 / n, abs=1e-9)
        assert all(v == 0.0 for v in report["deviations"].values())


def test_convergence_witness_identical():
    x = jump_path([0.25, 0.75], [1.0, -1.0], horizon=1.0)
    report = convergence_witness(x, x, 1.0, m_max=4)
    assert report["gamma_sup"] == 0.0
    assert all(v == 0.0 for v in report["deviations"].values())


def test_convergence_witness_localizes_late_jump():
    t, M = 1.0, 2
    x = jump_path([0.3], [1.0], horizon=t)
    extra = t * (1.0 - 1.0 / (1.0 + 2 * M))
    x_n = jump_path([0.3, extra], [1.0, 3.0], horizon=t)
    report = convergence_witness(x_n, x, t, m_max=3 * M)
    for m, v in report["deviations"].items():
        if m < 2 * M:
            assert v == 0.0
        else:
            assert v == pytest.approx(2.0, abs=1e-12)


def test_step_path_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        jump_path([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError, match="inside the domain"):
        jump_path([1.5], [1.0], horizon=1.0)
    with pytest.raises(ValueError, match="one value per jump"):
        StepPath(np.array([0.5]), np.zeros((2, 1)))
    for times, values in (([0.5, 0.8], [1.0, np.nan]), ([np.nan], [1.0])):
        with pytest.raises(ValueError, match="finite"):
            StepPath(np.array(times), np.array(values))
    for horizon in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            jump_path([], np.zeros((0, 1)), horizon=horizon)
    x = jump_path([0.5], [2.0])
    assert np.array_equal(x.value(0.2), [0.0])
    assert np.array_equal(x.value(0.5), [2.0])


def test_path_json_round_trip():
    x = jump_path([0.3, 0.8], [1.0, -2.0], horizon=1.0)
    back = path_from_json(path_to_json(x))
    assert back.horizon == 1.0
    assert np.array_equal(back.times, x.times)
    assert np.array_equal(back.values, x.values)
    ray = jump_path([2.5], [5.0])
    back_ray = path_from_json(path_to_json(ray))
    assert back_ray.horizon is None
    empty = jump_path([], np.zeros((0, 1)), horizon=2.0)
    back_empty = path_from_json(path_to_json(empty))
    assert back_empty.times.size == 0 and back_empty.horizon == 2.0


# (jumps in x, jumps in y): empty paths, and up to 5 jumps for the oracle
SIZES = [(0, 0), (0, 4), (1, 5), (2, 3), (3, 3), (4, 2), (5, 5), (4, 4), (5, 3)]


def random_path(rng, k, lo, hi, dim, horizon=None):
    times = np.unique(rng.uniform(lo, hi, k))
    values = rng.normal(size=(times.size, dim))
    if rng.uniform() < 0.5:  # whole levels make cost ties common
        values = np.round(2.0 * values)
    return StepPath(times, values, horizon=horizon)


def canonical(x, y):
    return (x, y) if x.sort_key() <= y.sort_key() else (y, x)


def test_dm_distance_matches_the_enumeration_oracle():
    rng = np.random.default_rng(17)
    for case in range(72):
        k1, k2 = SIZES[case % len(SIZES)]
        dim = 2 if case % 4 == 0 else 1
        m = case % 6 + 1
        # jumps up to time 8 leave some past m + _PAIR_WINDOW and some pairs
        # further apart than _PAIR_WINDOW; jumps near m meet the damping ramp
        lo, hi = (0.05, 8.0) if case % 2 else (max(0.05, m - 1.5), m + 1.0)
        x = random_path(rng, k1, lo, hi, dim)
        y = random_path(rng, k2, lo, hi, dim)
        value, witness = dm_distance(x, y, m)
        expected, _ = dm_enumeration_oracle(x, y, m)
        assert abs(value - expected) <= 1e-12
        assert dm_distance(y, x, m)[0] == value
        assert dense_timechange_cost(*canonical(x, y), witness, m) <= value + 1e-9


def test_j1_distance_matches_the_enumeration_oracle():
    rng = np.random.default_rng(18)
    for case in range(36):
        k1, k2 = SIZES[case % len(SIZES)]
        dim = 2 if case % 4 == 0 else 1
        x = random_path(rng, k1, 0.05, 0.95, dim, horizon=1.0)
        y = random_path(rng, k2, 0.05, 0.95, dim, horizon=1.0)
        horizon = (0.5, 0.8, 1.0)[case % 3]
        value = j1_distance(x, y, horizon)
        assert abs(value - j1_enumeration_oracle(x, y, horizon)) <= 1e-12
        assert j1_distance(y, x, horizon) == value


def test_convergence_witness_matches_the_enumeration_oracle():
    rng = np.random.default_rng(19)
    for case in range(36):
        k1, k2 = SIZES[case % len(SIZES)]
        dim = 2 if case % 4 == 0 else 1
        x_n = random_path(rng, k1, 0.05, 0.95, dim, horizon=1.0)
        x = random_path(rng, k2, 0.05, 0.95, dim, horizon=1.0)
        m_max = case % 6 + 1
        report = convergence_witness(x_n, x, 1.0, m_max)
        expected = witness_enumeration_oracle(x_n, x, 1.0, m_max)
        assert abs(report["gamma_sup"] - expected["gamma_sup"]) <= 1e-12
        for m, dev in expected["deviations"].items():
            assert abs(report["deviations"][m] - dev) <= 1e-12


def dhat_by_enumeration(x, y, t, M):
    xr, yr = transform_path(x, t), transform_path(y, t)
    total = 0.0
    for m in range(1, M + 1):
        total += 2.0 ** (-m) * min(1.0, dm_enumeration_oracle(xr, yr, m)[0])
    return total


# jumps at u = 0.5 and 0.75 are transported to 1.0 and 3.0 exactly, and one
# at u = 0.8 to 4.000000000000001: the last jump J of a closing piece then
# sits on the ramp's start m - 1 = J, or a few ulps past it
RAMP_CASES = [(([0.3, 0.75], [1.0, -1.0]), ([0.5, 0.8], [2.0, 1.0])),
              (([0.75], [1.0]), ([0.8], [1.0])),
              (([0.2, 0.5, 0.8], [1.0, 2.0, 0.0]), ([0.75], [2.0])),
              (([0.5], [1.0]), ([0.75, 0.8], [1.0, 0.5])),
              (([0.5, 0.75], [[1.0, 0.0], [0.0, 1.0]]), ([0.75], [[1.0, 1.0]]))]


def test_dhat_matches_the_enumeration_oracle():
    """d-hat shares piece costs across m; the oracle prices every matching
    of every m from scratch.  A third of the random cases put jumps in
    [0.7, 0.95], at transformed times 2.3-19, so the pair set changes with m
    and ramps cross knots.  Then jumps in [0.9, 0.95], at 9-19, change the
    pair set up to m = 17, past levels where the pair DP was kept; and jumps
    at whole transformed times put a closing piece's last jump on a ramp."""
    rng = np.random.default_rng(23)
    for case in range(198):
        lo, hi = (0.7, 0.95) if case % 3 == 0 else (0.05, 0.95)
        dim = 2 if case % 4 == 0 else 1
        x = random_path(rng, int(rng.integers(0, 5)), lo, hi, dim, horizon=1.0)
        y = random_path(rng, int(rng.integers(0, 5)), lo, hi, dim, horizon=1.0)
        M = (1, 5, 20)[case // 3 % 3]
        assert dhat_distance(x, y, 1.0, M)[0] == dhat_by_enumeration(x, y, 1.0, M)
    for case in range(30):
        dim = 2 if case % 4 == 0 else 1
        x = random_path(rng, int(rng.integers(1, 5)), 0.9, 0.95, dim, horizon=1.0)
        y = random_path(rng, int(rng.integers(0, 5)), 0.9, 0.95, dim, horizon=1.0)
        assert dhat_distance(x, y, 1.0, 20)[0] == dhat_by_enumeration(x, y, 1.0, 20)
    for x, y in RAMP_CASES:
        x, y = jump_path(*x, horizon=1.0), jump_path(*y, horizon=1.0)
        for M in (4, 5, 20):
            assert dhat_distance(x, y, 1.0, M)[0] == dhat_by_enumeration(x, y, 1.0, M)


def test_dhat_prices_pieces_before_the_ramp_once(monkeypatch):
    rng = np.random.default_rng(31)
    x = random_path(rng, 3, 0.05, 0.6, 1, horizon=1.0)
    y = random_path(rng, 4, 0.05, 0.6, 1, horizon=1.0)
    calls = []
    gap = skorokhod._gap
    monkeypatch.setattr(skorokhod, "_gap", lambda *args: calls.append(1) or gap(*args))
    value, _ = dhat_distance(x, y, 1.0, M=20)
    shared = len(calls)
    xr, yr = transform_path(x, 1.0), transform_path(y, 1.0)
    total = 0.0
    for m in range(1, 21):
        total += 2.0 ** (-m) * min(1.0, dm_distance(xr, yr, m)[0])
    assert value == total
    assert shared < 0.5 * (len(calls) - shared)


LEVEL_CASES = [(x, y, 1.0) for x, y in RAMP_CASES] + [
    (([0.91, 0.93, 0.945], [1.0, 3.0, -2.0]),
     ([0.9, 0.92, 0.94, 0.95], [1.0, 2.0, 1.0, 0.0]), 1.0),
    (([0.1, 0.3, 0.92], [2.0, 0.0, 1.0]), ([0.2, 0.4, 0.6], [2.0, 1.0, 1.0]), 1.0),
    # on [0, inf): closing pieces whose sup on the ramp sits where lam(u)
    # is m - 1 or m, the first at m = 7 ...
    (([2.33, 5.07], [-0.24, -0.6]), ([5.25], [-0.16]), None),
    (([2.3], [2.0]), ([2.71], [1.0]), None),
    # ... and, with d_m above the 1 at which d-hat clips it, a closing piece
    # whose last jump lies past m - 1 while lam maps it before m - 1, and
    # closing pieces cut short at one level and priced again at a later one
    (([4.19], [1.0]), ([1.92, 2.43, 3.18], [1.0, 4.0, 0.0]), None),
    (([0.34, 3.7, 4.9], [0.47, -1.86, -0.45]), ([1.83, 2.07, 2.29], [0.36, 0.64, 0.97]), None),
    (([1.98, 2.65], [0.48, 1.95]), ([0.52, 4.55, 5.35, 5.98], [0.94, -0.22, -1.22, -0.14]), None),
    # jumps a few ulps off whole times: at m = 11 the ramp point
    # lam^-1(m - 1) of the closing piece after knot (1.000000000000008, 3.0)
    # rounds below its last jump J = 8.000000000000009
    (([1.000000000000002, 3.0], [2.0, -1.0]),
     ([1.000000000000008, 8.000000000000009], [-2.0, -1.0]), None),
    # on [0, 1): 5 x 5 late jumps, at transformed times 2.4-16, so every
    # level up to the last ramp crossing at m = 17 is searched, and half of
    # them lie below 1
    (([0.702, 0.769, 0.861, 0.88, 0.909], [0.25, 1.22, -0.3, -0.81, 0.75]),
     ([0.754, 0.77, 0.86, 0.901, 0.941], [0.25, 0.9, -0.35, -1.48, -0.11]), 1.0)]


def level_paths(x, y, t):
    xr, yr = jump_path(*x, horizon=t), jump_path(*y, horizon=t)
    if t is not None:
        xr, yr = transform_path(xr, t), transform_path(yr, t)
    return xr, yr


@pytest.mark.parametrize("x, y, t", LEVEL_CASES)
def test_each_level_of_a_dhat_is_the_dm_distance_of_that_level(x, y, t):
    """Values unclipped by min(1, d_m), and witness knots: jumps on a ramp,
    a pair set that grows up to m = 17, one jump far past the others, and
    the reuses' guards."""
    xr, yr = level_paths(x, y, t)
    for m, (value, knots) in enumerate(skorokhod._dm_matchings(xr, yr, range(1, 21), np.inf),
                                       start=1):
        expected, witness = dm_distance(xr, yr, m)
        assert value == expected
        assert tuple(knots) == witness.knots


@pytest.mark.parametrize("x, y, t", LEVEL_CASES)
def test_each_clipped_level_of_a_dhat_is_the_dm_distance_up_to_the_clip(x, y, t):
    """Clipped at 1, as d-hat reads d_m: min(1, value) is min(1, d_m) bit
    for bit, and below 1 the value and the knots are those of d_m."""
    xr, yr = level_paths(x, y, t)
    for m, (value, knots) in enumerate(skorokhod._dm_matchings(xr, yr, range(1, 21), 1.0),
                                       start=1):
        expected, witness = dm_distance(xr, yr, m)
        assert min(1.0, value) == min(1.0, expected)
        if expected < 1.0:
            assert value == expected
            assert tuple(knots) == witness.knots


def test_a_clipped_level_with_no_matching_within_the_cap_returns_the_cap():
    """On [0, inf), the same bump of height 1.5 at [1.0, 1.1) and at
    [3.0, 3.1): the damped ranges agree from m = 4 on, so the floor stays
    below the clip, yet aligning the bumps moves time by 2 and leaving them
    apart costs 1.5.  Every matching costs more than 1 + 2 _MATCH_TOL, so
    the search finds none within its cap and returns the cap itself,
    without knots."""
    xr, yr = level_paths(([1.0, 1.1], [1.5, 0.0]), ([3.0, 3.1], [1.5, 0.0]), None)
    cap = 1.0 + 2.0 * skorokhod._MATCH_TOL
    floor = skorokhod._floors(*skorokhod._canonical(xr, yr))
    levels = list(skorokhod._dm_matchings(xr, yr, range(1, 21), 1.0))
    for m in range(4, 21):
        assert floor(float(m)) < 1.0
        assert levels[m - 1] == (cap, None)
        assert dm_distance(xr, yr, m)[0] > cap


def test_a_level_whose_terminal_gap_reaches_the_clip_prices_no_piece(monkeypatch):
    """On [0, inf), the last jump at 4.19 and end values 1 apart, while the
    damped ranges stay less than 1 apart: from the first m with
    m - 1 >= (4.19 + _PAIR_WINDOW) (1 + _ROUNDING) + 1, m = 9, each level
    yields the terminal gap 1.0 and prices no piece."""
    xr, yr = level_paths(([4.19], [1.0]), ([1.92, 2.43, 3.18], [1.0, 0.5, 0.0]), None)
    pieces, per_level = [], []
    piece = skorokhod._piece
    monkeypatch.setattr(skorokhod, "_piece", lambda *a: pieces.append(1) or piece(*a))
    for value, knots in skorokhod._dm_matchings(xr, yr, range(1, 21), 1.0):
        per_level.append((len(pieces), value, knots))
        pieces.clear()
    assert all(count > 0 for count, _, _ in per_level[:8])
    assert per_level[8:] == [(0, 1.0, None)] * 12
    assert dm_distance(xr, yr, 9)[0] >= 1.0


def test_the_floor_of_a_level_is_never_above_its_dm_distance():
    """Seeded pairs on [0, inf) with 0-5 jumps, 1-D, 2-D and 1-D against
    2-D, a third of them with jumps on whole times, so at m - 1 and at m,
    and values up to about 1e8.  Without its slack the range gap exceeds
    d_m at some of these levels, by the rounding of the damping factors."""
    rng = np.random.default_rng(47)
    unslacked = 0
    for case in range(160):
        lo = rng.uniform(0.0, 17.0)
        paths = []
        for dim in ((1, 1), (2, 2), (1, 2), (2, 1))[case % 4]:
            times = lo + rng.uniform(0.05, 4.0, int(rng.integers(0, 6)))
            if case % 3 == 0:
                times = np.round(times)
            times = np.unique(times[times > 0.0])
            values = rng.normal(size=(times.size, dim)) * 10.0 ** rng.integers(0, 9)
            paths.append(StepPath(times, np.round(values) if case % 5 == 0 else values))
        X, Y = skorokhod._canonical(*paths)
        floor = skorokhod._floors(X, Y)
        for m in range(1, 21):
            expected = dm_distance(*paths, m)[0]
            assert floor(float(m)) <= expected
            (xhi, xlo), (yhi, ylo) = (skorokhod._damped_range(P, skorokhod._extrema(P), float(m))
                                      for P in (X, Y))
            unslacked += max(abs(p - q) for p, q in zip(xhi + xlo, yhi + ylo)) > expected
    assert unslacked > 0


def test_a_level_whose_range_gap_reaches_the_clip_prices_no_piece(monkeypatch):
    """On [0, inf), jumps at 2.3 to 2.5 and at 2.71 to 1: at m = 3 the
    damped sups are 1.75 and 0.29, and from m = 4 on 2.5 and 1.  Levels
    3-6 lie before the terminal gap applies, and each yields its floor, at
    least 1, without pricing a piece."""
    xr, yr = level_paths(([2.3], [2.5]), ([2.71], [1.0]), None)
    floor = skorokhod._floors(*skorokhod._canonical(xr, yr))
    pieces, per_level = [], []
    piece = skorokhod._piece
    monkeypatch.setattr(skorokhod, "_piece", lambda *a: pieces.append(1) or piece(*a))
    for value, knots in skorokhod._dm_matchings(xr, yr, range(1, 7), 1.0):
        per_level.append((len(pieces), value, knots))
        pieces.clear()
    assert all(count > 0 for count, _, _ in per_level[:2])
    assert per_level[2:] == [(0, floor(float(m)), None) for m in range(3, 7)]
    assert all(1.0 <= value <= dm_distance(xr, yr, m)[0]
               for m, (_, value, _) in enumerate(per_level, start=1) if m >= 3)


def test_dhat_stops_at_the_last_level_whose_weight_is_not_zero(monkeypatch):
    """2^-m is 0.0 past m = 1074: M = 10**9 prices 1,074 levels, and its
    value is that of M = 1,074 bit for bit."""
    x = jump_path([0.5], [1.0], horizon=1.0)
    y = jump_path([0.6], [0.5], horizon=1.0)
    expected, last_weight = dhat_distance(x, y, 1.0, M=1074)
    assert last_weight == 2.0 ** -1074
    levels = [0]
    dm_matchings = skorokhod._dm_matchings

    def counted(*args):
        for level in dm_matchings(*args):
            levels[0] += 1
            assert levels[0] <= 1074, "a level of weight 0.0 was priced"  # fail fast
            yield level

    monkeypatch.setattr(skorokhod, "_dm_matchings", counted)
    value, bound = dhat_distance(x, y, 1.0, M=10**9)
    assert levels == [1074] and bound == 0.0
    assert value == expected


def test_dhat_prices_no_edge_after_the_last_ramp_crossing(monkeypatch):
    """The fixture of test_dhat_prices_pieces_before_the_ramp_once with its
    values scaled by 1/4, so that d_m = 0.5 from m = 2 on and no level's
    floor reaches 1.  From the first level m at which every jump pair's
    knot lies before the ramp [m-1, m], the pair DP is kept: no piece
    between two knots is priced, cached or not, at a later level."""
    rng = np.random.default_rng(31)
    x, y = (random_path(rng, k, 0.05, 0.6, 1, horizon=1.0) for k in (3, 4))
    x, y = (StepPath(p.times, 0.25 * p.values, horizon=1.0) for p in (x, y))
    xr, yr = transform_path(x, 1.0), transform_path(y, 1.0)
    last = max(xr.times.max(), yr.times.max())
    assert last - min(xr.times.min(), yr.times.min()) <= skorokhod._PAIR_WINDOW  # all paired
    first = next(m for m in range(1, 21) if last * (1.0 + skorokhod._ROUNDING) <= m - 1.0)
    levels, edges = [], []  # edges built by the end of each level; their end knots
    dm_matchings, piece = skorokhod._dm_matchings, skorokhod._piece

    def counted(*args):
        for level in dm_matchings(*args):
            levels.append(len(edges))
            yield level

    monkeypatch.setattr(skorokhod, "_dm_matchings", counted)
    monkeypatch.setattr(skorokhod, "_piece",
                        lambda k0, k1: (k1 is not None and edges.append(k1)) or piece(k0, k1))
    dhat_distance(x, y, 1.0, M=20)
    assert len(levels) == 20 and 3 <= first < 20
    assert levels[first - 1] > levels[first - 2]  # level `first` priced the DP
    assert len(edges) == levels[first - 1]


def test_dhat_keeps_no_pair_dp_priced_on_the_start_of_a_ramp(monkeypatch):
    """Jumps at u = 0.75 and 0.5 are transported to 3.0 and 1.0 exactly, so
    the last jump sits on the start m - 1 of level 4's ramp, where _lam can
    round a few ulps past it: level 4 prices its edges at m = 4, and the
    pair DP is kept only from level 5 on, which prices its edges afresh."""
    x = jump_path([0.3, 0.75], [0.25, -0.25], horizon=1.0)
    y = jump_path([0.5, 0.7], [0.5, -0.25], horizon=1.0)
    levels, edges = [], []  # edges built by the end of each level
    dm_matchings, piece = skorokhod._dm_matchings, skorokhod._piece

    def counted(*args):
        for level in dm_matchings(*args):
            levels.append(len(edges))
            yield level

    monkeypatch.setattr(skorokhod, "_dm_matchings", counted)
    monkeypatch.setattr(skorokhod, "_piece",
                        lambda k0, k1: (k1 is not None and edges.append(k1)) or piece(k0, k1))
    value, _ = dhat_distance(x, y, 1.0, M=8)
    assert value == dhat_by_enumeration(x, y, 1.0, 8)
    assert 3.0 in (k[1] for k in edges)  # an edge ends at the jump at 3.0
    assert levels[4] > levels[3] > levels[2]  # levels 4 and 5 price edges
    assert levels[4:] == [len(edges)] * 4


def _digest(values):
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()


def test_skorokhod_outputs_match_golden_digests():
    """Bit-exact outputs on a seeded set: d_m values and witness knots (jumps
    near m and far from it), j1 at three horizons, convergence-witness
    reports and d-hat at several M.  The digests were recorded with separate
    damped and undamped gap evaluators, so they pin the bits that the
    enumeration oracles check only to 1e-12."""
    rng = np.random.default_rng(29)
    dm, j1, witness, dhat = [], [], [], []
    for case in range(36):
        k1, k2 = SIZES[case % len(SIZES)]
        dim = 2 if case % 4 == 0 else 1
        m = case % 6 + 1
        lo, hi = (0.05, 8.0) if case % 2 else (max(0.05, m - 1.5), m + 1.0)
        value, lam = dm_distance(random_path(rng, k1, lo, hi, dim),
                                 random_path(rng, k2, lo, hi, dim), m)
        dm += [value] + [c for knot in lam.knots for c in knot]
        x = random_path(rng, k1, 0.05, 0.95, dim, horizon=1.0)
        y = random_path(rng, k2, 0.05, 0.95, dim, horizon=1.0)
        j1 += [j1_distance(x, y, h) for h in (0.5, 0.8, 1.0)]
        report = convergence_witness(x, y, 1.0, m)
        witness += [report["gamma_sup"], *report["deviations"].values()]
        witness += [c for knot in report["gamma"].knots for c in knot]
        dhat += [dhat_distance(x, y, 1.0, M)[0] for M in (1, 4, 12)]
    assert _digest(dm) == "e92ade0c93b2ee0c6e7bf48328a318b910b168153e0d900f049deeda99f37e67"
    assert _digest(j1) == "a69269f73b1237eafac33f021d7ca6c7a91a179a8c41af5c2edba26b21a7b2d6"
    assert _digest(witness) == "6197e6cbb266fda212794a3287cca13e62fbcb6391e4d5bd5d3a449ee84135aa"
    assert _digest(dhat) == "b811e28c076ade5703f62555372c8fd448d332101b471762a7198a53c61a1cad"


def test_dhat_matches_its_golden_digest_on_benchmark_like_pairs():
    """Bit-exact d-hat on 312 seeded pairs drawn as perfbench's path-metric
    draws its d-hat jobs: 0-5 jumps in [0.05, 0.6), N(0, 1) values and
    M = 8..20.  Recorded before the per-level floor skipped any search."""
    rng = np.random.default_rng(41)
    values = []
    for case in range(312):
        paths = []
        for k in rng.integers(0, 6, size=2):
            times = np.sort(rng.uniform(0.05, 0.6, k))
            paths.append(StepPath(times, rng.normal(size=k), horizon=1.0))
        values.append(dhat_distance(*paths, 1.0, M=8 + case % 13)[0])
    assert _digest(values) == "dfac3b5cb0ec94bb25844982d4f5b3ca8976c82f8f19e474b15ac204e163f950"


def test_dm_distance_nine_jumps():
    rng = np.random.default_rng(9)
    x = random_path(rng, 9, 0.1, 1.9, 1)
    y = random_path(rng, 9, 0.1, 1.9, 1)
    value, witness = dm_distance(x, y, 3)
    assert dm_distance(y, x, 3)[0] == value
    assert dense_timechange_cost(*canonical(x, y), witness, 3) <= value + 1e-9


def test_dm_distance_matches_all_twelve_jumps():
    # every jump must be aligned, as the levels step by 5; leaving the 11th
    # and 12th unmatched would misalign them at a cost >= 5.  The last shift
    # is 0 because the tail after the last knot has unit slope.
    times = 0.5 * np.arange(1, 13)
    shifts = np.array([0.01, -0.03, 0.05, -0.02, 0.04, -0.06,
                       0.07, -0.01, 0.02, -0.05, 0.03, 0.0])
    levels = 5.0 * np.arange(1, 13)
    x, y = StepPath(times, levels), StepPath(times + shifts, levels)
    value, witness = dm_distance(x, y, 8)
    assert value == pytest.approx(np.max(np.abs(shifts)), abs=1e-12)
    assert len(witness.knots) == 13
    assert dense_timechange_cost(*canonical(x, y), witness, 8) <= value + 1e-9


def test_empty_step_path_keeps_its_dimension():
    x = StepPath(np.zeros(0), np.zeros((0, 3)))
    assert x.dimension == 3
    assert np.array_equal(x.value(1.0), np.zeros(3))
    assert np.array_equal(_values_at(x, np.array([0.0, 2.0])), np.zeros((2, 3)))


# m = nan or inf, and a horizon or t of inf, made theta NaN (inf - inf in
# _deviation), and the tie-break loop of _best_matching then never ended;
# a negative horizon read 0.0 and a NaN one 1.0.
# m = True was taken as 1, and m = "3" or None raised numpy's TypeError
@pytest.mark.parametrize("m", [np.nan, np.inf, 0.5, True, "3", None])
def test_dm_distance_rejects_an_m_that_is_not_finite_or_below_one(m):
    x = jump_path([0.5], [1.0])
    with pytest.raises(ValueError, match=f"m >= 1, got {m}"):
        dm_distance(x, x, m)


def test_dm_distance_takes_a_real_m_of_at_least_one():
    x, y = jump_path([0.5], [1.0]), jump_path([1.8], [2.0])
    assert dm_distance(x, y, 2.5)[0] == dm_distance(x, y, np.float32(2.5))[0] > 0.0


@pytest.mark.parametrize("horizon", [np.nan, np.inf, -1.0, 0.0])
def test_j1_distance_rejects_a_horizon_that_is_not_finite_and_positive(horizon):
    x = jump_path([0.5], [1.0], horizon=1.0)
    with pytest.raises(ValueError, match=f"horizon must be finite and > 0, got {horizon}"):
        j1_distance(x, x, horizon)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0, 0.0])
def test_convergence_witness_rejects_a_t_that_is_not_finite_and_positive(t):
    x = jump_path([0.5], [1.0], horizon=1.0)
    with pytest.raises(ValueError, match=f"t must be finite and > 0, got {t}"):
        convergence_witness(x, x, t, 3)


# M = 2.5 or nan raised TypeError from range, M = True was taken as 1;
# m_max = -1 raised ZeroDivisionError and m_max = 0 gave no deviations.
BAD_LEVELS = [2.5, np.nan, True, 0, -1, "3"]


@pytest.mark.parametrize("M", BAD_LEVELS)
def test_dhat_distance_rejects_a_truncation_level_that_is_not_an_integer_of_at_least_one(M):
    x = jump_path([0.5], [1.0], horizon=1.0)
    with pytest.raises(ValueError, match=re.escape(f"M must be an integer >= 1, got {M!r}")):
        dhat_distance(x, x, 1.0, M=M)


@pytest.mark.parametrize("m_max", BAD_LEVELS)
def test_convergence_witness_rejects_an_m_max_that_is_not_an_integer_of_at_least_one(m_max):
    x = jump_path([0.5], [1.0], horizon=1.0)
    with pytest.raises(ValueError,
                       match=re.escape(f"m_max must be an integer >= 1, got {m_max!r}")):
        convergence_witness(x, x, 1.0, m_max)


def test_numpy_integer_levels_are_accepted():
    x = jump_path([0.5], [1.0], horizon=1.0)
    y = jump_path([0.6], [1.0], horizon=1.0)
    assert dhat_distance(x, y, 1.0, M=np.int64(6)) == dhat_distance(x, y, 1.0, M=6)
    assert convergence_witness(x, y, 1.0, np.int64(3))["deviations"].keys() == {1, 2, 3}


def test_matching_search_raises_when_no_matching_is_within_theta():
    # NaN costs compare false with everything, so no completion is ever
    # within theta: the tie-break must give up instead of looping
    X, Y = skorokhod._prepared(jump_path([0.3, 0.6], [1.0, 2.0]), jump_path([0.4], [1.0]))
    pairs = skorokhod._pairs(X, Y, np.inf, np.inf)
    with pytest.raises(RuntimeError, match="no matching"):
        skorokhod._best_matching(X, Y, pairs, lambda pc, stop: np.nan)


def test_gap_is_exact_up_to_stop_and_a_lower_bound_past_it():
    """The stop contract on random pieces between jump-pair knots and on
    unit-slope tails, damped (m = 1..6) and undamped, on [0, inf) and up to
    a point upto: exact when the gap is at most stop, otherwise in
    (stop, gap]."""
    rng = np.random.default_rng(37)
    cut_short = 0
    for case in range(200):
        dim = 2 if case % 4 == 0 else 1
        x = random_path(rng, int(rng.integers(1, 6)), 0.05, 7.0, dim)
        y = random_path(rng, int(rng.integers(1, 6)), 0.05, 7.0, dim)
        X, Y = skorokhod._prepared(x, y)
        knots = [(0.0, 0.0)] + [(yu, xu) for xu in X[0] for yu in Y[0]]
        k0 = knots[int(rng.integers(len(knots)))]
        later = [k for k in knots if k[0] > k0[0] and k[1] > k0[1]]
        k1 = later[int(rng.integers(len(later)))] if later and case % 4 else None
        pc = skorokhod._piece(k0, k1)
        if case % 3:  # as d_m prices it
            m, upto, closed = float(case % 6 + 1), np.inf, False
        else:  # as j1_distance and convergence_witness price it
            m, upto, closed = np.inf, float(rng.uniform(0.0, 8.0)), case % 2 == 0
        exact = skorokhod._gap(X, Y, pc, m, upto, closed, np.inf)
        for stop in (0.0, exact, 0.5 * exact, float(rng.uniform(0.0, 1.2)) * exact):
            got = skorokhod._gap(X, Y, pc, m, upto, closed, stop)
            if exact <= stop:
                assert got == exact
            else:
                assert stop < got <= exact
                cut_short += 1
    assert cut_short > 200


def test_dhat_search_prunes_pieces_past_the_bound(monkeypatch):
    """The fixture of test_dhat_prices_pieces_before_the_ramp_once: the
    unbounded search made 341 _gap calls for this d-hat."""
    rng = np.random.default_rng(31)
    x = random_path(rng, 3, 0.05, 0.6, 1, horizon=1.0)
    y = random_path(rng, 4, 0.05, 0.6, 1, horizon=1.0)
    calls = []
    gap = skorokhod._gap
    monkeypatch.setattr(skorokhod, "_gap", lambda *args: calls.append(1) or gap(*args))
    dhat_distance(x, y, 1.0, M=20)
    assert len(calls) < 0.85 * 341


def test_dhat_prices_a_piece_again_once_its_cut_short_cost_is_within_the_stop():
    """A piece before the ramp is cut short at an early m and is needed
    again at a later m whose bound lies above that lower bound.  Reusing
    the lower bound reads 0.41133 here, below the 0.41212 of the oracle."""
    x = jump_path([0.34, 0.51, 0.89], [1.0, 1.0, 1.0], horizon=1.0)
    y = jump_path([0.11, 0.81], [0.75, -0.13], horizon=1.0)
    assert dhat_distance(x, y, 1.0, 20)[0] == dhat_by_enumeration(x, y, 1.0, 20)


def test_dhat_prices_no_piece_at_m_inf_twice(monkeypatch):
    """Each cost that d-hat keeps across levels, a piece before the ramp or
    the head of a closing piece up to its last jump, is priced at m = inf
    once, at the cap: the fixture of
    test_dhat_prices_a_piece_again_once_its_cut_short_cost_is_within_the_stop,
    where a later level needs a piece past the bound of the level that
    first priced it, and seeded pairs with jumps early and late."""
    priced = []  # per pricing at m = inf, the piece and how far it is scanned
    cost, gap = skorokhod._cost, skorokhod._gap

    # a piece before the ramp goes to _cost, which may skip _gap, and a head,
    # scanned up to a finite upto, to _gap alone
    def counted_cost(X, Y, pc, m, reach, upto, *rest):
        if m == np.inf:
            priced.append((pc, upto))
        return cost(X, Y, pc, m, reach, upto, *rest)

    def counted_gap(X, Y, pc, m, upto, *rest):
        if m == np.inf and upto < np.inf:
            priced.append((pc, upto))
        return gap(X, Y, pc, m, upto, *rest)

    monkeypatch.setattr(skorokhod, "_cost", counted_cost)
    monkeypatch.setattr(skorokhod, "_gap", counted_gap)
    pairs = [(jump_path([0.34, 0.51, 0.89], [1.0, 1.0, 1.0], horizon=1.0),
              jump_path([0.11, 0.81], [0.75, -0.13], horizon=1.0))]
    rng = np.random.default_rng(53)
    for lo, hi in ((0.05, 0.6), (0.05, 0.95), (0.7, 0.95)) * 4:
        pairs.append(tuple(random_path(rng, k, lo, hi, 1, horizon=1.0) for k in (3, 4)))
    total = 0
    for x, y in pairs:
        priced.clear()
        dhat_distance(x, y, 1.0, M=20)
        assert len(set(priced)) == len(priced)
        total += len(priced)
    assert total > 100


@pytest.mark.parametrize("build, message", [
    (lambda: PLContinuousPath(np.array([0.0, 1.0]), np.array([0.0])),
     "need matching, non-empty knot arrays"),
    (lambda: PLContinuousPath(np.zeros(0), np.zeros(0)), "need matching, non-empty knot arrays"),
    (lambda: PLContinuousPath(np.array([0.0, 0.0]), np.array([0.0, 1.0])),
     "knot times must be strictly increasing"),
    # the tail that concat takes cannot fail to vanish where it starts
    (lambda: concat(PLContinuousPath(np.array([0.0, 2.0]), np.array([0.0, 1.0])),
                    PLContinuousPath(np.array([2.0, 3.0]), np.array([0.0, 1.0]), offset=1.0)),
     "the path must vanish at its starting time"),
    (lambda: dm_distance(jump_path([0.5], [[1.0, 2.0]]), jump_path([0.5], [[1.0, 2.0, 3.0]]), 2),
     "cannot compare paths of dimensions 2 and 3"),
], ids=["knot-counts", "no-knots", "repeated-knot", "concat-tail", "dimensions"])
def test_malformed_continuous_paths_and_path_pairs_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
