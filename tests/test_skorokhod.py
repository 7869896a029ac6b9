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


def test_dhat_matches_the_enumeration_oracle():
    """d-hat shares piece costs across m; the oracle prices every matching
    of every m from scratch.  A third of the cases put jumps in [0.7, 0.95],
    at transformed times 2.3-19, so the pair set changes with m and ramps
    cross knots."""
    rng = np.random.default_rng(23)
    for case in range(198):
        lo, hi = (0.7, 0.95) if case % 3 == 0 else (0.05, 0.95)
        dim = 2 if case % 4 == 0 else 1
        x = random_path(rng, int(rng.integers(0, 5)), lo, hi, dim, horizon=1.0)
        y = random_path(rng, int(rng.integers(0, 5)), lo, hi, dim, horizon=1.0)
        M = (1, 5, 20)[case // 3 % 3]
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
@pytest.mark.parametrize("m", [np.nan, np.inf, 0.5])
def test_dm_distance_rejects_an_m_that_is_not_finite_or_below_one(m):
    x = jump_path([0.5], [1.0])
    with pytest.raises(ValueError, match=f"m >= 1, got {m}"):
        dm_distance(x, x, m)


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
