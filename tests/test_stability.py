import itertools

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
from riskdesk.lattice import NodeRef, StoppingTime, coordinate_process, uniform_tree
from riskdesk.dynamics import OneStepStructure, build_dynamic, onestep_from_json, onestep_to_json
from riskdesk.measures import Measure, conditional_expectation
from riskdesk.stability import (
    enumerate_selections,
    is_stable,
    paste,
    rectangular_hull,
    robust_evaluate,
)


def all_stopping_times(lattice, cap=10000):
    """Every stopping time of a (small) lattice, by stop-or-continue recursion."""

    def expand(t, i):
        options = [[NodeRef(t, i)]]
        if t < lattice.terminal:
            child_sets = [expand(t + 1, j) for j in range(*lattice.offsets[t][i:i + 2])]
            for combo in itertools.product(*child_sets):
                options.append([n for sub in combo for n in sub])
        if len(options) > cap:
            raise ValueError("too many stopping times to enumerate")
        return options

    return [StoppingTime(frozenset(nodes)) for nodes in expand(0, 0)]


def coincide_at_charged(R, M):
    """R's and M's kernels agree within 1e-12 at every node R charges."""
    lat = R.lattice
    return all(R.node_probabilities(k)[i] == 0 or np.max(np.abs(r - m)) <= 1e-12
               for k in range(lat.terminal)
               for i, (r, m) in enumerate(zip(lat.per_node(k, R.flat_kernels[k]),
                                              lat.per_node(k, M.flat_kernels[k]))))


def oracle_is_stable(measures):
    """Reference loop: paste every pair with Q << P at every stopping time and
    look for a member that coincides with the pasting where it charges."""
    if not measures:
        return True
    lat = measures[0].lattice
    taus = all_stopping_times(lat)
    for P, Q in itertools.product(measures, repeat=2):
        if any(np.any((Q.node_probabilities(t) > 0) & (P.node_probabilities(t) == 0))
               for t in range(lat.n_times)):
            continue
        for tau in taus:
            R = paste(P, Q, tau)
            if not any(coincide_at_charged(R, M) for M in measures):
                return False
    return True


def test_paste_hand_kernels():
    lat, q1, q2, _ = fix_a_family()
    tau = StoppingTime.deterministic(lat, 1)
    R = paste(q1, q2, tau)
    # Q2's biased kernel before tau, Q1's fair kernels from tau on
    assert np.allclose(R.flat_kernels[0], [0.6, 0.4])
    assert np.allclose(R.flat_kernels[1], [0.5, 0.5, 0.5, 0.5])


def test_paste_identity_and_immediate_stop():
    lat, q1, q2, _ = fix_a_family()
    for tau in all_stopping_times(lat):
        same = paste(q1, q1, tau)
        for k in range(2):
            assert np.allclose(same.flat_kernels[k], q1.flat_kernels[k])
    at_zero = StoppingTime.deterministic(lat, 0)
    R = paste(q1, q2, at_zero)
    assert np.allclose(R.flat_kernels[0], q1.flat_kernels[0])


def test_paste_requires_absolute_continuity():
    lat, q1, _, _ = fix_a_family()
    degenerate = Measure(lat, ((np.array([1.0, 0.0]),),
                               tuple(np.array([0.5, 0.5]) for _ in range(2))))
    tau = StoppingTime.deterministic(lat, 1)
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        paste(degenerate, q1, tau)
    with pytest.raises(ValueError, match="invalid stopping time"):
        paste(q1, q1, StoppingTime(frozenset({NodeRef(1, 0)})))


def test_paste_rejects_measures_from_another_lattice():
    lat, q1, _, _ = fix_a_family()
    other = iid_binary_measure(fix_a_lattice(), 0.5)
    with pytest.raises(ValueError, match="measures live on different lattices"):
        paste(q1, other, StoppingTime.deterministic(lat, 1))


def test_singleton_family_is_stable():
    lat, q1, _, _ = fix_a_family()
    ok, missing = is_stable([q1])
    assert ok and missing is None
    assert is_stable([]) == (True, None)  # vacuously


def test_two_member_family_is_not_stable():
    lat, q1, q2, _ = fix_a_family()
    ok, missing = is_stable([q1, q2])
    assert not ok
    assert missing is not None
    # the escaping measure mixes the two one-step kernels across time
    assert any(
        not np.allclose(missing.flat_kernels[0], Q.flat_kernels[0])
        or not np.allclose(missing.flat_kernels[1][:2], Q.flat_kernels[1][:2])
        for Q in (q1, q2)
    )


def test_is_stable_skips_pairs_without_absolute_continuity():
    lat, q1, _, _ = fix_a_family()
    sure_up, sure_down = iid_binary_measure(lat, 1.0), iid_binary_measure(lat, 0.0)
    # disjoint supports: no pair is constrained
    ok, missing = is_stable([sure_up, sure_down])
    assert ok and missing is None
    assert oracle_is_stable([sure_up, sure_down])
    # Q leaves node (1,1) null, so P's other kernel below it is no constraint
    P = Measure(lat, ((np.array([0.5, 0.5]),), (np.array([0.5, 0.5]), np.array([0.5, 0.5]))))
    Q = Measure(lat, ((np.array([1.0, 0.0]),), (np.array([0.5, 0.5]), np.array([0.9, 0.1]))))
    assert is_stable([P, Q]) == (True, None)
    assert oracle_is_stable([P, Q])
    # pasting sure_up into q1 is constrained, and escapes the pair
    ok, missing = is_stable([sure_up, q1])
    assert not ok
    assert np.array_equal(missing.flat_kernels[0], [1.0, 0.0])


def test_hull_selections_are_stable():
    lat, q1, q2, _ = fix_a_family()
    selections = enumerate_selections(rectangular_hull([q1, q2]))
    assert len(selections) == 8
    ok, missing = is_stable(selections)
    assert ok, missing


def random_kernels(lat, rng, zeros):
    """Random kernels per node; with zeros, each weight is 0 with chance 0.3."""
    levels = []
    for k in range(lat.terminal):
        level = []
        for b in np.diff(lat.offsets[k]):
            w = rng.dirichlet(np.ones(b))
            if zeros:
                w[rng.random(b) < 0.3] = 0.0
                if not w.any():
                    w[rng.integers(b)] = 1.0
            level.append(w / w.sum())
        levels.append(level)
    return levels


def moved_at(P, rng, n_nodes, zeros):
    """P with fresh random kernels at n_nodes random non-terminal nodes."""
    lat = P.lattice
    levels = [list(lat.per_node(k, P.flat_kernels[k])) for k in range(lat.terminal)]
    fresh = random_kernels(lat, rng, zeros)
    where = [(k, i) for k in range(lat.terminal) for i in range(lat.n_nodes(k))]
    for j in rng.choice(len(where), size=n_nodes, replace=False):
        k, i = where[j]
        levels[k][i] = fresh[k][i]
    return Measure(lat, tuple(tuple(level) for level in levels))


def test_is_stable_agrees_with_the_all_stopping_times_oracle():
    # random pairs, hull selections and hull selections less one, with and
    # without zero kernel weights, on binary trees of 2 or 3 periods and
    # trees of 2 periods with up to 3 children per node
    rng = np.random.default_rng(61)
    verdicts = []
    for case in range(24):
        lat = random_lattice(rng, *((3, 2), (2, 3))[case % 2])
        zeros = case % 4 >= 2
        P = Measure(lat, tuple(map(tuple, random_kernels(lat, rng, zeros))))
        pair = [P, Measure(lat, tuple(map(tuple, random_kernels(lat, rng, zeros))))]
        selections = enumerate_selections(rectangular_hull(
            [P, moved_at(P, rng, int(rng.integers(1, 3)), zeros)]))
        drop = int(rng.integers(len(selections)))
        less_one = selections[:drop] + selections[drop + 1:]
        for family in (pair, selections, less_one):
            ok, missing = is_stable(family)
            assert ok == oracle_is_stable(family)
            # a witness is a pasting that no member matches
            assert ok if missing is None else not any(
                coincide_at_charged(missing, M) for M in family)
            verdicts.append(ok)
        assert is_stable(selections)[0]
    assert 0 < sum(verdicts) < len(verdicts)


def test_dropping_a_hull_selection_is_flagged():
    # members that charge every node and differ at two or more nodes: each
    # selection is a one-node pasting of two others
    rng = np.random.default_rng(67)
    for case in range(6):
        lat = random_lattice(rng, 3, 2)
        P = random_family(lat, rng, 1).members[0]
        moved = moved_at(P, rng, 2 + case % 2, False)
        selections = enumerate_selections(rectangular_hull([P, moved]))
        assert is_stable(selections)[0]
        for j in range(len(selections)):
            less_one = selections[:j] + selections[j + 1:]
            ok, missing = is_stable(less_one)
            assert not ok and coincide_at_charged(missing, selections[j])
        assert not oracle_is_stable(less_one)


def test_is_stable_decides_a_128_member_hull():
    lat = uniform_tree(range(4), [1.0, -1.0])
    rng = np.random.default_rng(71)
    selections = enumerate_selections(rectangular_hull(list(random_family(lat, rng, 2).members)))
    assert len(selections) == 128
    assert is_stable(selections) == (True, None)
    ok, missing = is_stable(selections[1:])
    assert not ok and coincide_at_charged(missing, selections[0])


def test_is_stable_rejects_members_from_another_lattice():
    # a second lattice of the same shape, on which every array would broadcast
    # and the two equal members would pass as stable
    members = [iid_binary_measure(fix_a_lattice(), 0.5) for _ in range(2)]
    with pytest.raises(ValueError, match="different lattices"):
        is_stable(members)


def test_hull_selections_are_stable_random():
    rng = np.random.default_rng(41)
    for _ in range(3):
        lat = random_lattice(rng, max_periods=2, max_branch=2)
        fam = random_family(lat, rng, 2)
        selections = enumerate_selections(rectangular_hull(list(fam.members)))
        ok, missing = is_stable(selections)
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



def test_hull_rejects_members_from_another_lattice():
    # a second lattice of the same shape, on which every array would broadcast
    members = [iid_binary_measure(fix_a_lattice(), 0.5), iid_binary_measure(fix_a_lattice(), 0.7)]
    with pytest.raises(ValueError, match="different lattices"):
        rectangular_hull(members)


def test_hull_needs_a_measure():
    with pytest.raises(ValueError, match="at least one measure"):
        rectangular_hull([])


def test_hull_is_the_structure_of_its_member_kernels():
    # the flat hull against the menu constructor fed every member kernel at
    # 0.0: random members charge every node and never coincide
    rng = np.random.default_rng(59)
    for _ in range(10):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        members = random_family(lat, rng, int(rng.integers(1, 4))).members
        hull = rectangular_hull(list(members))
        menus = OneStepStructure(lat, tuple(
            tuple(tuple((w, 0.0) for w in ws)
                  for ws in zip(*(lat.per_node(k, Q.flat_kernels[k]) for Q in members)))
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


def test_stop_set_probabilities_sum_to_one():
    lat, q1, q2, _ = fix_a_family()
    for tau in all_stopping_times(lat):
        for Q in (q1, q2):
            total = sum(Q.node_probabilities(n.t)[n.i] for n in tau.stops)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_robust_evaluate_is_the_zero_penalty_dynamic():
    rng = np.random.default_rng(53)
    for _ in range(20):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        hull = rectangular_hull(list(random_family(lat, rng, int(rng.integers(1, 4))).members))
        assert all(np.all(a == 0.0) for a in hull.flat_penalties)
        assert build_dynamic(hull) is hull
        for t in range(lat.n_times):
            X = random_rv(lat, t, rng)
            for s in range(t + 1):
                assert np.array_equal(robust_evaluate(hull, X, s).values,
                                      hull.rho(s, t, X).values)


def test_robust_evaluate_reads_penalties():
    # the menu {(0.5, 0.5) at 0, (0.6, 0.4) at 0.1}: its zero-penalty hull
    # would price -B2 at 0.4, the penalties bring it down to 0.2
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    structure = OneStepStructure(lat, ((menu,), (menu, menu)))
    B2 = coordinate_process(lat, 2)
    got = robust_evaluate(structure, -B2, 0)
    assert got.values[0] == pytest.approx(0.2, abs=1e-12)
    assert np.array_equal(got.values, structure.rho(0, 2, -B2).values)


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
