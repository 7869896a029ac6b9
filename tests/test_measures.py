import json

import numpy as np
import pytest

from riskdesk.fixtures import (
    fix_a_family,
    fix_a_lattice,
    iid_binary_measure,
    random_family,
    random_lattice,
    random_measure,
    random_rv,
)
from riskdesk.lattice import RandomVariable, build_lattice, coordinate_process, uniform_tree
from riskdesk.measures import (
    Measure,
    MeasureFamily,
    capacity,
    charged_mask,
    check_restriction,
    conditional_expectation,
    dual_witness,
    measure_from_json,
    measure_to_json,
    mix_measures,
    reference_measure,
)
from riskdesk.stability import enumerate_selections, rectangular_hull


def sparse_kernel(rng, b):
    """Random kernel on b children with some zero weights, never all zero."""
    w = rng.dirichlet(np.ones(b))
    w[rng.random(b) < 0.4] = 0.0
    if not w.any():
        w[rng.integers(b)] = 1.0
    return w / w.sum()


def sparse_measure(lat, rng):
    return Measure(lat, tuple(tuple(sparse_kernel(rng, b) for b in np.diff(lat.offsets[k]))
                              for k in range(lat.terminal)))


def test_conditional_expectation_martingale():
    lat, q1, _, _ = fix_a_family()
    B2 = coordinate_process(lat, 2)
    assert np.allclose(conditional_expectation(B2, q1, 1).values, [1.0, -1.0])


def test_conditional_expectation_biased_mean():
    # E_{Q2} B_2 = 2 * (0.6 - 0.4), enumerated over the 4 paths
    lat, _, q2, _ = fix_a_family()
    B2 = coordinate_process(lat, 2)
    assert np.allclose(conditional_expectation(B2, q2, 0).values, [0.4])


def test_conditional_expectation_constant():
    lat, q1, _, _ = fix_a_family()
    k = RandomVariable(lat, 2, np.full(4, 3.25))
    assert np.allclose(conditional_expectation(k, q1, 0).values, [3.25])


def test_tower_property_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lat = random_lattice(rng)
        Q = random_measure(lat, rng)
        X = random_rv(lat, lat.terminal, rng)
        mid = conditional_expectation(X, Q, 1)
        direct = conditional_expectation(X, Q, 0)
        towered = conditional_expectation(mid, Q, 0)
        assert np.max(np.abs(direct.values - towered.values)) <= 1e-12


def test_conditional_expectation_matches_forward_definition_on_ragged_trees():
    # E_Q(X | n) = sum over time-T descendants of P(leaf) / P(n) * X(leaf) at
    # charged n, from the forward node probabilities; X is +inf on every
    # Q-null leaf, as a penalty may be, and must not leak into charged nodes
    rng = np.random.default_rng(53)
    for _ in range(20):
        lat = random_lattice(rng, max_periods=4, max_branch=4)
        Q = sparse_measure(lat, rng)
        T = lat.terminal
        p_T = Q.node_probabilities(T)
        live = p_T > 0
        x = np.where(live, rng.normal(size=p_T.size), np.inf)
        X = RandomVariable(lat, T, x, allow_infinite=True)
        for s in range(T + 1):
            p_s = Q.node_probabilities(s)
            charged = p_s > 0
            anc = lat.ancestors_of_slice(T, s)
            forward = np.bincount(anc[live], weights=p_T[live] * x[live],
                                  minlength=p_s.size)[charged] / p_s[charged]
            got = conditional_expectation(X, Q, s).values[charged]
            assert np.max(np.abs(got - forward)) <= 1e-12


def test_capacity_fix_a():
    lat, _, _, fam = fix_a_family(p=1.0)
    B2 = coordinate_process(lat, 2)
    assert capacity(B2, fam) == pytest.approx(1.04, abs=1e-12)
    zero = RandomVariable(lat, 2, np.zeros(4))
    assert capacity(zero, fam) == 0.0
    single = MeasureFamily((fam.members[0],), p=1.0)
    assert capacity(B2, single) == pytest.approx(1.0, abs=1e-12)


def test_capacity_rejects_a_variable_off_the_familys_lattice():
    lat, q1, q2, _ = fix_a_family()
    other = fix_a_lattice()
    family = MeasureFamily((q1, q2), p=2.0)
    with pytest.raises(ValueError, match="different lattices"):
        capacity(RandomVariable(other, 2, np.array([1.0, 2.0, 3.0, 4.0])), family)


def test_reference_measure_weights_and_root_kernel():
    _, q1, q2, fam = fix_a_family()
    ref = reference_measure(fam)
    assert type(ref) is Measure
    assert ref.flat_kernels[0][0] == pytest.approx(0.5 * 0.5 + 0.5 * 0.6, abs=1e-12)


def test_reference_measure_degenerate_and_three_members():
    lat, q1, q2, _ = fix_a_family()
    single = reference_measure(MeasureFamily((q1,), p=1.0))
    assert np.allclose(single.flat_kernels[0], q1.flat_kernels[0])
    q3 = iid_binary_measure(lat, 0.3)
    members = (q1, q2, q3)
    three = reference_measure(MeasureFamily(members, p=1.0))
    mixed = mix_measures(members, np.ones(3))
    for a, b in zip(three.flat_kernels, mixed.flat_kernels):
        assert a.tobytes() == b.tobytes()
    assert three.flat_kernels[0][0] == pytest.approx((0.5 + 0.6 + 0.3) / 3, abs=1e-12)


def test_reference_charges_all_member_charged_nodes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lat = random_lattice(rng)
        fam = random_family(lat, rng, 3)
        ref = reference_measure(fam)
        for t in range(lat.n_times):
            member_charged = np.any(
                [charged_mask(Q, t) for Q in fam.members], axis=0)
            assert np.all(charged_mask(ref, t) | ~member_charged)


def _underflow_family(n):
    """n - 1 copies of the up-only law, then the fair coin: weights of
    2^-(n+1) lose the fair coin's nodes from about 1,070 members on."""
    lat = fix_a_lattice()
    up = iid_binary_measure(lat, 1.0)
    return MeasureFamily((up,) * (n - 1) + (iid_binary_measure(lat, 0.5),))


def _hull_selections():
    """The 3^7 = 2,187 selections of a 3-member hull on a depth-3 binary
    tree; at each last-level node the members take one each of three
    kernels, two of them with a zero weight."""
    rng = np.random.default_rng(11)
    lat = uniform_tree((0.0, 1.0, 2.0, 3.0), [1.0, -1.0])
    last = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    picks = [rng.permutation(3) for _ in range(lat.n_nodes(2))]
    members = []
    for j in range(3):
        early = [tuple(rng.dirichlet(np.ones(2)) for _ in range(lat.n_nodes(k)))
                 for k in range(2)]
        members.append(Measure(lat, (*early, tuple(last[p[j]] for p in picks))))
    selections = enumerate_selections(rectangular_hull(members))
    assert len(selections) == 2187
    return MeasureFamily(tuple(selections))


@pytest.mark.parametrize("family", [
    lambda: _underflow_family(1072),
    lambda: _underflow_family(1073),
    lambda: _underflow_family(4096),
    _hull_selections,
], ids=["1072-members", "1073-members", "4096-members", "hull-selections"])
def test_reference_charges_exactly_the_members_nodes_at_every_size(family):
    fam = family()
    ref = reference_measure(fam)
    for t in range(fam.lattice.n_times):
        union = np.any([charged_mask(Q, t) for Q in fam.members], axis=0)
        assert np.array_equal(charged_mask(ref, t), union)


def test_dual_witness_p2():
    lat, _, _, fam = fix_a_family(p=2.0)
    B2 = coordinate_process(lat, 2)
    w = dual_witness(B2, fam)
    c = capacity(B2, fam)
    paired = RandomVariable(lat, 2, np.abs(B2.values) * w.g0.values)
    attained = max(Q.expectation(paired) for Q in fam.members)
    assert attained == pytest.approx(c, abs=1e-9)
    gq = RandomVariable(lat, 2, w.g0.values ** fam.q)
    assert max(Q.expectation(gq) for Q in fam.members) <= 1.0 + 1e-9


def test_dual_witness_degenerate_and_null():
    lat, _, _, fam = fix_a_family(p=1.0)
    B2 = coordinate_process(lat, 2)
    w = dual_witness(B2, fam)
    assert w.degenerate and np.all(w.g0.values == 1.0)
    assert w.value == pytest.approx(capacity(B2, fam))
    with pytest.raises(ValueError, match="null element"):
        dual_witness(RandomVariable(lat, 2, np.zeros(4)), fam)


def test_check_restriction_cases():
    lat, q1, q2, fam = fix_a_family()
    assert check_restriction(q1, q1, 2) == "equal"
    ref = reference_measure(fam)
    assert check_restriction(q2, ref, 1) == "absolutely_continuous"
    degenerate = Measure(lat, ((np.array([1.0, 0.0]),),
                               tuple(np.array([0.5, 0.5]) for _ in range(2))))
    assert check_restriction(q1, degenerate, 1) == "neither"


def test_capacity_norm_axioms_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        lat = random_lattice(rng)
        fam = random_family(lat, rng, 2, p=float(rng.choice([1.0, 2.0])))
        T = lat.terminal
        X, Y = random_rv(lat, T, rng), random_rv(lat, T, rng)
        assert capacity(X + Y, fam) <= capacity(X, fam) + capacity(Y, fam) + 1e-9
        a = float(rng.uniform(-3, 3))
        assert capacity(a * X, fam) == pytest.approx(abs(a) * capacity(X, fam), abs=1e-9)
        assert capacity(X, fam) >= 0.0


def test_convex_combination_dominated_by_capacity():
    # p = 1: any mixture R of the members satisfies E_R|X| <= c(X)
    rng = np.random.default_rng(8)
    for _ in range(20):
        lat = random_lattice(rng)
        fam = random_family(lat, rng, 3, p=1.0)
        R = mix_measures(fam.members, rng.dirichlet(np.ones(3)))
        X = random_rv(lat, lat.terminal, rng)
        absX = RandomVariable(lat, lat.terminal, np.abs(X.values))
        assert R.expectation(absX) <= capacity(X, fam) + 1e-12


def test_mix_measures_rejects_bad_weights():
    _, q1, q2, _ = fix_a_family()
    with pytest.raises(ValueError, match="sum to 0"):
        mix_measures([q1, q2], [0.0, 0.0])
    for w in ([0.5, np.nan], [-0.5, 1.5], [1.0, np.inf], [1.0]):
        with pytest.raises(ValueError, match="finite non-negative weight"):
            mix_measures([q1, q2], w)



def test_mix_measures_rejects_members_from_another_lattice():
    # a second lattice of the same shape, on which every array would broadcast
    lat = fix_a_lattice()
    members = [iid_binary_measure(lat, 0.5), iid_binary_measure(fix_a_lattice(), 0.7)]
    with pytest.raises(ValueError, match="different lattices"):
        mix_measures(members, [0.5, 0.5])


def test_measure_json_round_trip():
    lat, _, q2, _ = fix_a_family()
    back = measure_from_json(measure_to_json(q2), lat)
    for k in range(2):
        assert np.allclose(back.flat_kernels[k], q2.flat_kernels[k])


# an index past the end raised IndexError, a negative one and a second
# entry for a node were taken silently, a row of zeros divided 0 by 0 and
# an infinite weight inf by inf
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entries, message", [
    ([([0, 1], [1, 1])], r"node \(0,1\): no such non-terminal node"),
    ([([2, 0], [1, 1])], r"node \(2,0\): no such non-terminal node"),
    ([([1, -1], [1, 1])], r"node \(1,-1\): no such non-terminal node"),
    ([([1, True], [1, 1])], r"node \(1,True\): no such non-terminal node"),
    ([([1, 0], [1, 3])], r"node \(1,0\) given twice"),
    ([([1, 1], [0, 0])], r"node \(1,1\): weights sum to 0.0"),
    ([([1, 1], [float("inf"), 1.0])], r"node \(1,1\): weights sum to inf"),
], ids=["past-the-end", "terminal", "negative", "bool", "twice", "zero-row", "infinite-sum"])
def test_measure_from_json_rejects_a_bad_node_entry(entries, message):
    kernels = [{"node": node, "weights": w} for node, w in [([0, 0], [1, 1]), ([1, 0], [1, 1])]
               + entries]
    with pytest.raises(ValueError, match=message):
        measure_from_json(json.dumps({"kernels": kernels}), fix_a_lattice())


def test_kernel_validation():
    lat = fix_a_lattice()
    bad = ((np.array([0.7, 0.7]),), tuple(np.array([0.5, 0.5]) for _ in range(2)))
    with pytest.raises(ValueError):
        Measure(lat, bad)
    negative = ((np.array([1.5, -0.5]),), tuple(np.array([0.5, 0.5]) for _ in range(2)))
    with pytest.raises(ValueError):
        Measure(lat, negative)


def test_non_finite_kernel_rejected():
    lat = fix_a_lattice()
    nan = ((np.array([0.5, 0.5]),), (np.array([np.nan, np.nan]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="finite"):
        Measure(lat, nan)


def test_measure_stores_only_its_flat_kernels():
    lat = fix_a_lattice()
    levels = ((np.array([0.5, 0.5]),), (np.array([0.6, 0.4]),) * 2)
    with pytest.raises(TypeError):
        Measure(lat, levels, _node_probs=None)
    Q = Measure(lat, levels)
    assert not hasattr(Q, "kernels")
    assert np.array_equal(Q.flat_kernels[1], [0.6, 0.4, 0.6, 0.4])


def test_measure_arrays_are_read_only():
    # an edit in place would leave the node probabilities, which capacity
    # reads, and the kernels, which conditional_expectation reads, apart
    lat, q1, _, family = fix_a_family()
    X = coordinate_process(lat, 2)
    cap, mean = capacity(X, family), conditional_expectation(X, q1, 0).values
    stored = (*q1.flat_kernels, *(q1.node_probabilities(t) for t in range(3)),
              q1._kernel_buffer)
    for a in stored:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.9
    with pytest.raises(ValueError, match="read-only"):
        q1.flat_kernels[0][:] = [0.9, 0.1]
    assert np.array_equal(q1.node_probabilities(1), [0.5, 0.5])
    assert capacity(X, family) == cap
    assert np.array_equal(conditional_expectation(X, q1, 0).values, mean)
    assert np.array_equal(q1._kernel_buffer, np.concatenate(q1.flat_kernels))


def test_measure_json_golden_on_a_ragged_lattice():
    lat = build_lattice((0.0, 1.0, 2.0), [[[1.0, 0.0, -1.0]],
                                          [[2.0], [0.5, -0.5], [1.0, 0.0, -1.0]]],
                        dimension=1)
    Q = Measure(lat, (([0.2, 0.3, 0.5],), ([1.0], [0.7, 0.3], [0.1, 0.6, 0.3])))
    assert measure_to_json(Q) == (
        '{"kernels": [{"node": [0, 0], "weights": [0.2, 0.3, 0.5]}, '
        '{"node": [1, 0], "weights": [1.0]}, {"node": [1, 1], "weights": [0.7, 0.3]}, '
        '{"node": [1, 2], "weights": [0.10000000000000002, 0.6000000000000001, '
        '0.30000000000000004]}]}')


def _fix_a_rv(t=2):
    return coordinate_process(fix_a_lattice(), t)


def _condition_after_the_variable():
    X = _fix_a_rv(1)
    return conditional_expectation(X, iid_binary_measure(X.lattice, 0.5), 2)


@pytest.mark.parametrize("build, message", [
    (lambda: Measure(fix_a_lattice(), ((np.array([0.5, 0.5]),),)),
     "one kernel level per non-terminal time index"),
    (lambda: Measure(fix_a_lattice(), ((np.array([0.5, 0.5]),), (np.array([0.5, 0.5]),))),
     "time index 1: one kernel per node required"),
    (lambda: MeasureFamily(()), "at least one member"),
    (lambda: MeasureFamily((iid_binary_measure(fix_a_lattice(), 0.5),
                            iid_binary_measure(fix_a_lattice(), 0.5))),
     "all members must live on the same lattice"),
    (lambda: MeasureFamily(fix_a_family()[3].members, p=0.5), "exponent p must be >= 1"),
    (lambda: MeasureFamily(fix_a_family()[3].members, p=np.inf),
     "exponent p must be finite, got inf"),
    (lambda: MeasureFamily(fix_a_family()[3].members, p=np.nan),
     "exponent p must be finite, got nan"),
    (lambda: MeasureFamily(fix_a_family()[3].members, p=-np.inf),
     "exponent p must be finite, got -inf"),
    (lambda: measure_from_json('{"kernels": [{"node": [0, 0], "weights": [1, 1]}]}',
                               fix_a_lattice()),
     "missing kernel at time index 1"),
    (lambda: conditional_expectation(_fix_a_rv(), fix_a_family()[1], 0),
     "measure and variable live on different lattices"),
    (_condition_after_the_variable, "need 0 <= s <= t, got s=2, t=1"),
    (lambda: check_restriction(fix_a_family()[1], fix_a_family()[2], 1),
     "measures live on different lattices"),
], ids=["kernel-levels", "kernels-per-node", "empty-family", "mixed-family", "p-below-1",
        "p-inf", "p-nan", "p-minus-inf", "missing-kernel", "foreign-variable", "s-after-t",
        "restriction-across-lattices"])
def test_malformed_measures_and_families_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
