import numpy as np
import pytest

from riskdesk.fixtures import (
    fix_a_family,
    fix_a_lattice,
    iid_binary_measure,
    random_family,
    random_lattice,
    random_rv,
)
from riskdesk.lattice import NodeRef, StoppingTime, coordinate_process
from riskdesk.dynamics import (
    OneStepStructure,
    build_dynamic,
    onestep_from_json,
    onestep_to_json,
)
from riskdesk.measures import Measure, conditional_expectation
from riskdesk.stability import (
    all_stopping_times,
    enumerate_selections,
    is_stable,
    paste,
    rectangular_hull,
    robust_evaluate,
)


def test_paste_hand_kernels():
    lat, q1, q2, _ = fix_a_family()
    tau = StoppingTime.deterministic(lat, 1)
    R = paste(q1, q2, tau)
    # Q2's biased kernel before tau, Q1's fair kernels from tau on
    assert np.allclose(R.kernels[0][0], [0.6, 0.4])
    for i in range(2):
        assert np.allclose(R.kernels[1][i], [0.5, 0.5])


def test_paste_identity_and_immediate_stop():
    lat, q1, q2, _ = fix_a_family()
    for tau in all_stopping_times(lat):
        same = paste(q1, q1, tau)
        for k in range(2):
            for i in range(lat.n_nodes(k)):
                assert np.allclose(same.kernels[k][i], q1.kernels[k][i])
    at_zero = StoppingTime.deterministic(lat, 0)
    R = paste(q1, q2, at_zero)
    assert np.allclose(R.kernels[0][0], q1.kernels[0][0])


def test_paste_requires_absolute_continuity():
    lat, q1, _, _ = fix_a_family()
    degenerate = Measure(lat, ((np.array([1.0, 0.0]),),
                               tuple(np.array([0.5, 0.5]) for _ in range(2))))
    tau = StoppingTime.deterministic(lat, 1)
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        paste(degenerate, q1, tau)
    with pytest.raises(ValueError, match="invalid stopping time"):
        paste(q1, q1, StoppingTime(frozenset({NodeRef(1, 0)})))


def test_singleton_family_is_stable():
    lat, q1, _, _ = fix_a_family()
    ok, missing = is_stable([q1], all_stopping_times(lat))
    assert ok and missing is None


def test_two_member_family_is_not_stable():
    lat, q1, q2, _ = fix_a_family()
    ok, missing = is_stable([q1, q2], all_stopping_times(lat))
    assert not ok
    assert missing is not None
    # the escaping measure mixes the two one-step kernels across time
    assert any(
        not np.allclose(missing.kernels[0][0], Q.kernels[0][0])
        or not np.allclose(missing.kernels[1][0], Q.kernels[1][0])
        for Q in (q1, q2)
    )


def test_is_stable_rejects_an_invalid_stopping_time():
    lat, q1, q2, _ = fix_a_family()
    bad = StoppingTime(frozenset({NodeRef(1, 0)}))  # misses the path through (1, 1)
    for taus in ([bad] + all_stopping_times(lat), all_stopping_times(lat) + [bad]):
        with pytest.raises(ValueError, match="invalid stopping time, witness path"):
            is_stable([q1, q2], taus)


def test_is_stable_skips_pairs_without_absolute_continuity():
    lat, q1, _, _ = fix_a_family()
    sure_up = iid_binary_measure(lat, 1.0)  # q1 is not << sure_up
    ok, missing = is_stable([sure_up, q1], [StoppingTime.deterministic(lat, 0)])
    assert ok and missing is None
    # pasting sure_up into q1 is constrained, and escapes the pair
    ok, missing = is_stable([sure_up, q1], all_stopping_times(lat))
    assert not ok
    assert np.array_equal(missing.kernels[0][0], [1.0, 0.0])


def test_hull_selections_are_stable():
    lat, q1, q2, _ = fix_a_family()
    selections = enumerate_selections(rectangular_hull([q1, q2]))
    assert len(selections) == 8
    ok, missing = is_stable(selections, all_stopping_times(lat))
    assert ok, missing


def test_hull_selections_are_stable_random():
    rng = np.random.default_rng(41)
    for _ in range(3):
        lat = random_lattice(rng, max_periods=2, max_branch=2)
        fam = random_family(lat, rng, 2)
        selections = enumerate_selections(rectangular_hull(list(fam.members)))
        ok, missing = is_stable(selections, all_stopping_times(lat))
        assert ok, missing


def test_hull_uncharged_node_fallback():
    lat, q1, _, _ = fix_a_family()
    skew = Measure(lat, ((np.array([1.0, 0.0]),),
                         (np.array([0.9, 0.1]), np.array([0.2, 0.8]))))
    rf = rectangular_hull([skew])
    # node (1,1) is skew-null, so the hull falls back to the member kernel
    assert np.allclose(lat.per_node(1, rf.flat_kernels[1])[1][0], [0.2, 0.8])
    both = rectangular_hull([skew, q1])
    assert both.sizes[1][1] == 1  # only q1 charges it
    assert np.allclose(lat.per_node(1, both.flat_kernels[1])[1][0], [0.5, 0.5])
    assert np.array_equal(both.flat_penalties[1], np.zeros((2, 2)))
    # no member charges node (1,1): every member's kernel stays, in order
    other = Measure(lat, ((np.array([1.0, 0.0]),),
                          (np.array([0.7, 0.3]), np.array([0.4, 0.6]))))
    uncharged = rectangular_hull([skew, other])
    assert uncharged.sizes[1].tolist() == [2, 2]
    assert np.allclose(lat.per_node(1, uncharged.flat_kernels[1])[1], [[0.2, 0.8], [0.4, 0.6]])


def test_hull_is_the_structure_of_its_member_kernels():
    # the flat hull against the menu constructor fed every member kernel at
    # 0.0: random members charge every node and never coincide
    rng = np.random.default_rng(59)
    for _ in range(10):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        members = random_family(lat, rng, int(rng.integers(1, 4))).members
        hull = rectangular_hull(list(members))
        menus = OneStepStructure(lat, tuple(
            tuple(tuple((Q.kernels[k][i], 0.0) for Q in members) for i in range(lat.n_nodes(k)))
            for k in range(lat.n_times - 1)))
        for k in range(lat.n_times - 1):
            assert np.array_equal(hull.flat_kernels[k], menus.flat_kernels[k])
            assert np.array_equal(hull.sizes[k], menus.sizes[k])


def test_enumeration_cap():
    lat, q1, q2, _ = fix_a_family()
    rf = rectangular_hull([q1, q2])
    with pytest.raises(ValueError, match="8 exceeds cap 4"):
        enumerate_selections(rf, cap=4)


def test_robust_evaluate_hand_values():
    lat, q1, q2, _ = fix_a_family()
    rf = rectangular_hull([q1, q2])
    B2 = coordinate_process(lat, 2)
    assert robust_evaluate(rf, -B2, 0).values[0] == pytest.approx(0.4, abs=1e-12)
    assert robust_evaluate(rf, B2, 0).values[0] == 0.0
    assert np.array_equal(robust_evaluate(rf, B2, 2).values, -B2.values)
    with pytest.raises(ValueError):
        robust_evaluate(rf, coordinate_process(lat, 1), 2)


def test_robust_evaluate_matches_enumeration_exactly():
    rng = np.random.default_rng(43)
    for _ in range(10):
        lat = random_lattice(rng, max_periods=2, max_branch=2)
        fam = random_family(lat, rng, 2)
        rf = rectangular_hull(list(fam.members))
        selections = enumerate_selections(rf)
        X = random_rv(lat, lat.terminal, rng)
        got = robust_evaluate(rf, X, 0).values
        brute = np.max(
            [conditional_expectation(-X, Q, 0).values for Q in selections], axis=0)
        assert np.array_equal(got, brute)


def test_bid_below_ask():
    lat, q1, q2, _ = fix_a_family()
    rf = rectangular_hull([q1, q2])
    rng = np.random.default_rng(47)
    for _ in range(20):
        X = random_rv(lat, 2, rng)
        bid = -robust_evaluate(rf, X, 0).values[0]
        ask = robust_evaluate(rf, -X, 0).values[0]
        assert bid <= ask + 1e-12


def test_all_stopping_times_fix_a():
    lat = fix_a_lattice()
    taus = all_stopping_times(lat)
    assert len(taus) == 5
    stop_sets = {frozenset((n.t, n.i) for n in tau.stops) for tau in taus}
    assert frozenset({(0, 0)}) in stop_sets
    assert frozenset({(1, 0), (1, 1)}) in stop_sets
    assert frozenset({(2, 0), (2, 1), (2, 2), (2, 3)}) in stop_sets
    assert frozenset({(1, 0), (2, 2), (2, 3)}) in stop_sets
    assert frozenset({(2, 0), (2, 1), (1, 1)}) in stop_sets
    with pytest.raises(ValueError, match="too many"):
        all_stopping_times(lat, cap=3)


def test_robust_evaluate_is_the_zero_penalty_dynamic():
    rng = np.random.default_rng(53)
    for _ in range(20):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        hull = rectangular_hull(list(random_family(lat, rng, int(rng.integers(1, 4))).members))
        assert hull.normalized
        dyn = build_dynamic(hull)
        for t in range(lat.n_times):
            X = random_rv(lat, t, rng)
            for s in range(t + 1):
                assert np.array_equal(robust_evaluate(hull, X, s).values,
                                      dyn.rho(s, t, X).values)


def test_robust_evaluate_reads_penalties():
    # the menu {(0.5, 0.5) at 0, (0.6, 0.4) at 0.1}: its zero-penalty hull
    # would price -B2 at 0.4, the penalties bring it down to 0.2
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    structure = OneStepStructure(lat, ((menu,), (menu, menu)))
    B2 = coordinate_process(lat, 2)
    got = robust_evaluate(structure, -B2, 0)
    assert got.values[0] == pytest.approx(0.2, abs=1e-12)
    assert np.array_equal(got.values, build_dynamic(structure).rho(0, 2, -B2).values)


def test_hull_json_round_trip():
    lat, q1, q2, _ = fix_a_family()
    rf = rectangular_hull([q1, q2])
    back = onestep_from_json(onestep_to_json(rf), lat)
    for k in range(2):
        assert np.array_equal(back.sizes[k], rf.sizes[k])
        assert np.allclose(back.flat_kernels[k], rf.flat_kernels[k])
        assert np.array_equal(back.flat_penalties[k], rf.flat_penalties[k])
    B2 = coordinate_process(lat, 2)
    assert robust_evaluate(back, -B2, 0).values[0] == pytest.approx(0.4, abs=1e-12)


def test_rectangular_family_validation():
    lat = fix_a_lattice()
    fair = ((np.array([0.5, 0.5]), 0.0),)
    with pytest.raises(ValueError, match="empty menu"):
        OneStepStructure(lat, (((),), (fair, fair)))
    # near-duplicate member kernels collapse
    near = Measure(lat, ((np.array([0.5, 0.5 + 1e-15]),),
                         (np.array([0.5, 0.5]), np.array([0.5, 0.5]))))
    rf = rectangular_hull([iid_binary_measure(lat, 0.5), near])
    assert [size.tolist() for size in rf.sizes] == [[1], [1, 1]]


def test_rectangular_family_rejects_negative_kernels():
    lat = fix_a_lattice()
    fair = ((np.array([0.5, 0.5]), 0.0),)
    with pytest.raises(ValueError, match="non-negative"):
        OneStepStructure(lat, ((((np.array([0.5, 0.5]), 0.0),
                                 (np.array([1.5, -0.5]), 0.0)),), (fair, fair)))
