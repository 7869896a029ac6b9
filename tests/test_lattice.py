import json
import re

import numpy as np
import pytest

from riskdesk.dynamics import expand_dual
from riskdesk.fixtures import fix_a_family, fix_a_lattice, random_lattice, trinomial_tree
from riskdesk.gexp import quadratic_variation
from riskdesk.lattice import (
    NodeRef,
    RandomVariable,
    StoppingTime,
    build_lattice,
    coordinate_process,
    lattice_from_json,
    lattice_to_json,
    ScenarioLattice,
    _per_parent,
    lift,
    uniform_tree,
    validate_stopping_time,
)
from riskdesk.measures import charged_mask, check_restriction, conditional_expectation
from riskdesk.stability import rectangular_hull


def test_fix_a_node_counts():
    lat = fix_a_lattice()
    assert [lat.n_nodes(t) for t in range(3)] == [1, 2, 4]
    assert lat.times == (0.0, 1.0, 2.0)


def test_trinomial_node_counts():
    lat = trinomial_tree(h=0.1, steps=3)
    assert [lat.n_nodes(t) for t in range(4)] == [1, 3, 9, 27]


def test_single_time_point_rejected():
    with pytest.raises(ValueError):
        build_lattice([0.0], [])


def test_duplicate_time_points_rejected():
    with pytest.raises(ValueError):
        uniform_tree((0.0, 1.0, 1.0), [1.0, -1.0])


def test_empty_branching_rejected():
    with pytest.raises(ValueError):
        build_lattice([0.0, 1.0], [[np.zeros((0, 1))]])


def test_children_out_of_parent_order_rejected():
    # each parent's children are contiguous, but parent 1's come first
    parents = (np.array([-1]), np.array([0, 0]), np.array([1, 1, 0, 0]))
    incs = (np.zeros((1, 1)), np.ones((2, 1)), np.ones((4, 1)))
    with pytest.raises(ValueError, match="contiguous"):
        ScenarioLattice((0.0, 1.0, 2.0), 1, parents, incs)


def test_one_increment_row_per_node():
    # a single row must not be broadcast to every node of the level
    parents = (np.array([-1]), np.array([0, 0]))
    with pytest.raises(ValueError, match="1 increment rows for 2 nodes"):
        ScenarioLattice((0.0, 1.0), 1, parents, (np.zeros((1, 1)), np.ones((1, 1))))


def test_root_increment_must_be_zero():
    # paths start at 0: a root increment would be stored and never used
    with pytest.raises(ValueError, match=r"root increment must be zero, got \[5.0\]"):
        ScenarioLattice((0.0, 1.0), 1, ([-1], [0, 0]), ([5.0], [1.0, -1.0]))
    doc = lattice_to_json(ScenarioLattice((0.0, 1.0), 1, ([-1], [0, 0]),
                                          ([0.0], [1.0, -1.0])))
    with pytest.raises(ValueError, match="root increment must be zero"):
        lattice_from_json(doc.replace('"increment": [0.0]', '"increment": [5.0]', 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_increments_must_be_finite(bad):
    with pytest.raises(ValueError, match="time index 1: increments must be finite"):
        ScenarioLattice((0.0, 1.0), 1, ([-1], [0, 0]), ([0.0], [1.0, bad]))
    with pytest.raises(ValueError, match="time index 0: increments must be finite"):
        ScenarioLattice((0.0, 1.0), 1, ([-1], [0, 0]), ([bad], [1.0, -1.0]))


def test_offsets_and_children_follow_parents():
    lat = random_lattice(np.random.default_rng(3), max_periods=3, max_branch=4)
    for k in range(lat.terminal):
        off = lat.offsets[k]
        assert off[-1] == lat.n_nodes(k + 1)
        for i in range(lat.n_nodes(k)):
            expected = np.flatnonzero(lat.parents[k + 1] == i)
            assert np.array_equal(np.arange(off[i], off[i + 1]), expected)


def test_lift_ancestor_copy():
    lat = fix_a_lattice()
    X = RandomVariable(lat, 1, np.array([1.0, -1.0]))
    assert np.array_equal(lift(X, 2).values, [1.0, 1.0, -1.0, -1.0])


def test_lift_identity_and_constant():
    lat = fix_a_lattice()
    X = RandomVariable(lat, 1, np.array([3.0, 7.0]))
    assert lift(X, 1) is X
    five = RandomVariable(lat, 0, np.array([5.0]))
    assert np.array_equal(lift(five, 2).values, np.full(4, 5.0))


def test_lift_composes_and_is_linear():
    rng = np.random.default_rng(3)
    lat = random_lattice(rng)
    T = lat.terminal
    X = RandomVariable(lat, 0, rng.normal(size=1))
    Y = RandomVariable(lat, 0, rng.normal(size=1))
    assert np.array_equal(lift(lift(X, 1), T).values, lift(X, T).values)
    assert np.array_equal(lift(X + Y, T).values, (lift(X, T) + lift(Y, T)).values)
    with pytest.raises(ValueError):
        lift(RandomVariable(lat, T, np.zeros(lat.n_nodes(T))), 0)


def test_coordinate_process_values():
    lat = fix_a_lattice()
    assert np.array_equal(coordinate_process(lat, 0).values, [0.0])
    assert np.array_equal(coordinate_process(lat, 1).values, [1.0, -1.0])
    assert np.array_equal(coordinate_process(lat, 2).values, [2.0, 0.0, 0.0, -2.0])


def test_numpy_integer_time_indices_are_accepted():
    lat, Q, _, _ = fix_a_family()
    X = RandomVariable(lat, np.int64(2), coordinate_process(lat, 2).values)
    assert np.array_equal(lift(_fix_a_rv(1), np.int32(2)).values, lift(_fix_a_rv(1), 2).values)
    assert Q.node_probabilities(np.int64(1)) is Q.node_probabilities(1)
    assert conditional_expectation(X, Q, np.int64(0)).values[0] == 0.0


def test_random_variable_rejects_time_index_out_of_range():
    lat = fix_a_lattice()
    with pytest.raises(ValueError, match="time index -1 outside"):
        RandomVariable(lat, -1, np.zeros(4))
    with pytest.raises(ValueError, match="time index 3 outside"):
        RandomVariable(lat, 3, np.zeros(4))


def _fix_a_members():
    return fix_a_family()[1:3]


def _fix_a_conditional(s):
    lat, q1, _, _ = fix_a_family()
    return conditional_expectation(coordinate_process(lat, 2), q1, s)


def _fix_a_hull():
    return rectangular_hull(list(_fix_a_members()))


@pytest.mark.parametrize("call, message", [
    (lambda: charged_mask(_fix_a_members()[0], -1), "time index -1 outside [0, 2]"),
    (lambda: charged_mask(_fix_a_members()[0], 3), "time index 3 outside [0, 2]"),
    (lambda: _fix_a_members()[0].node_probabilities(-1), "time index -1 outside [0, 2]"),
    (lambda: _fix_a_members()[0].subtree_laws(-1, 2), "time index -1 outside [0, 2]"),
    (lambda: _fix_a_members()[0].subtree_laws(0, 3), "time index 3 outside [0, 2]"),
    (lambda: check_restriction(*_fix_a_members(), 5), "time index 5 outside [0, 2]"),
    (lambda: check_restriction(*_fix_a_members(), -1), "time index -1 outside [0, 2]"),
    (lambda: lift(_fix_a_rv(), 5), "time index 5 outside [0, 2]"),
    (lambda: lift(_fix_a_rv(1), -1), "time index -1 outside [0, 2]"),
    (lambda: expand_dual(_fix_a_hull(), -1, 2), "time index -1 outside [0, 2]"),
    (lambda: expand_dual(_fix_a_hull(), 0, 3), "time index 3 outside [0, 2]"),
    (lambda: quadratic_variation(fix_a_lattice(), 5), "time index 5 outside [0, 2]"),
    (lambda: quadratic_variation(fix_a_lattice(), -1), "time index -1 outside [0, 2]"),
    (lambda: StoppingTime.deterministic(fix_a_lattice(), 5), "time index 5 outside [0, 2]"),
    (lambda: StoppingTime.deterministic(fix_a_lattice(), -1), "time index -1 outside [0, 2]"),
    (lambda: _fix_a_members()[0].subtree_laws(2, 1), "need 0 <= s <= t, got s=2, t=1"),
    (lambda: fix_a_lattice().ancestors_of_slice(1, 2), "need 0 <= s <= t, got s=2, t=1"),
    (lambda: fix_a_lattice().ancestors_of_slice(3, 0), "time index 3 outside [0, 2]"),
    # a bool is no time index, nor is a float (numpy integers are)
    (lambda: _fix_a_members()[0].node_probabilities(True), "time index True is not an integer"),
    (lambda: _fix_a_conditional(True),
     "time index True is not an integer"),
    (lambda: RandomVariable(fix_a_lattice(), True, [1.0, -1.0]),
     "time index True is not an integer"),
    (lambda: lift(_fix_a_rv(1), 2.0), "time index 2.0 is not an integer"),
    (lambda: _fix_a_members()[0].subtree_laws(0, 1.0),
     "time index 1.0 is not an integer"),
], ids=["charged-mask-neg", "charged-mask-past", "node-probabilities-neg", "subtree-laws-s",
        "subtree-laws-t", "restriction-past", "restriction-neg", "lift-past", "lift-neg",
        "expand-dual-r", "expand-dual-t", "quadratic-variation-past",
        "quadratic-variation-neg", "stopping-time-past", "stopping-time-neg",
        "subtree-laws-order", "ancestors-order", "ancestors-past", "probabilities-bool",
        "conditional-bool", "variable-bool", "lift-float", "subtree-laws-float"])
def test_time_indices_outside_the_lattice_are_rejected(call, message):
    # a negative index must not read a level from the end, nor one past the
    # terminal index raise IndexError; a later time before an earlier one
    # must not read a law or an ancestor map of the wrong size
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_stopping_time_validation():
    lat = fix_a_lattice()
    ok, _ = validate_stopping_time(lat, StoppingTime.deterministic(lat, 1).stops)
    assert ok
    # first-hit style: stop at u, else at the two descendants of d
    first_hit = {NodeRef(1, 0), NodeRef(2, 2), NodeRef(2, 3)}
    assert validate_stopping_time(lat, first_hit)[0]
    # the path through u would be stopped twice
    double = {NodeRef(1, 0), NodeRef(2, 0), NodeRef(2, 2), NodeRef(2, 3)}
    ok, witness = validate_stopping_time(lat, double)
    assert not ok and witness is not None
    # a node outside the lattice is its own witness
    for node in (NodeRef(3, 0), NodeRef(-1, 0), NodeRef(1, 2), NodeRef(2, -1)):
        assert validate_stopping_time(lat, {NodeRef(1, 0), node}) == (False, [node])


def test_lattice_json_round_trip():
    lat = fix_a_lattice()
    text = lattice_to_json(lat)
    back = lattice_from_json(text)
    assert back.times == lat.times
    assert back.n_nodes(2) == 4
    doc = json.loads(text)
    assert set(doc) == {"times", "dimension", "nodes"}
    for t in range(3):
        assert np.array_equal(back.values[t], lat.values[t])


def test_derived_lattice_fields_are_not_parameters():
    parents = (np.array([-1]), np.array([0, 0]))
    incs = (np.zeros((1, 1)), np.ones((2, 1)))
    for derived in ("children", "values", "offsets", "fanouts"):
        with pytest.raises(TypeError):
            ScenarioLattice((0.0, 1.0), 1, parents, incs, **{derived: None})


def test_lattice_stores_the_increments_it_validated():
    from riskdesk.gexp import quadratic_variation

    # plain lists, and flat rows of a two-dimensional lattice
    lat = ScenarioLattice([0, 1, 2], 1, ([-1], [0, 0], [0, 1]),
                          ([0.0], [1.0, -1.0], [0.5, -2.0]))
    assert lat.times == (0.0, 1.0, 2.0)
    for k, n in enumerate((1, 2, 2)):
        assert lat.increments[k].shape == (n, 1) and lat.increments[k].dtype == float
    assert np.array_equal(quadratic_variation(lat, 2).values, [1.25, 5.0])
    flat = ScenarioLattice((0.0, 1.0), 2, ([-1], [0, 0]),
                           (np.zeros(2), np.array([1.0, 2.0, 3.0, -4.0])))
    assert flat.increments[1].shape == (2, 2)
    assert np.array_equal(quadratic_variation(flat, 1, coord=1).values, [4.0, 16.0])


def _identity_builders():
    import riskdesk as rd

    lat, q1, q2, fam = rd.fix_a_family(p=2.0)
    B2 = coordinate_process(lat, 2)
    zeros = RandomVariable(lat, 0, np.zeros(1))
    return {
        "ScenarioLattice": rd.fix_a_lattice,
        "RandomVariable": lambda: RandomVariable(lat, 1, [1.0, -1.0]),
        "Measure": lambda: rd.iid_binary_measure(lat, 0.5),
        "MeasureFamily": lambda: rd.MeasureFamily((q1, q2), p=2.0),
        "DualWitness": lambda: rd.dual_witness(B2, fam),
        "DualRep": lambda: rd.DualRep(0, 2, ((q1, zeros), (q2, zeros))),
        "OneStepStructure": lambda: rd.rectangular_hull([q1, q2]),
        "VolatilityBand": lambda: rd.VolatilityBand(0.1, 0.2),
        "StepPath": lambda: rd.StepPath([0.5], [1.0]),
        "PLContinuousPath": lambda: rd.PLContinuousPath([0.0, 1.0], [0.0, 1.0]),
    }


@pytest.mark.parametrize("name", sorted(_identity_builders()))
def test_array_holding_objects_compare_by_identity(name):
    make = _identity_builders()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_value_objects_keep_value_equality():
    from riskdesk.gexp import GridSpec, PayoffSpec
    from riskdesk.skorokhod import TimeChange

    lat = fix_a_lattice()
    assert NodeRef(1, 0) == NodeRef(1, 0) and hash(NodeRef(1, 0)) == hash(NodeRef(1, 0))
    assert StoppingTime.deterministic(lat, 1) == StoppingTime.deterministic(lat, 1)
    assert GridSpec(0.1, 0.5, 4, 1.0) == GridSpec(0.1, 0.5, 4, 1.0)
    assert PayoffSpec("terminal", abs) == PayoffSpec("terminal", abs)
    assert TimeChange(((0, 0), (1, 2))) == TimeChange(((0.0, 0.0), (1.0, 2.0)))


def spread_values(rng, shape, b):
    """Signed values over six decades, with some zeros of either sign and
    one per-parent segment of -0.0 per row."""
    a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    a[..., :b] = -0.0
    return a


@pytest.mark.parametrize("b", range(1, 9))
def test_per_parent_sums_and_maxima_are_reduceats_bits(b):
    lat = uniform_tree((0.0, 1.0, 2.0, 3.0), np.linspace(1.0, -1.0, b))
    rng = np.random.default_rng(b)
    for k in range(lat.terminal):
        assert lat.fanouts[k] == b
        n, starts = lat.n_nodes(k + 1), lat.offsets[k][:-1]
        for shape in ((n,), (3, n), (4, 3, n)):
            a = spread_values(rng, shape, b)
            got = _per_parent(lat, k, a)
            assert got.shape == shape[:-1] + (lat.n_nodes(k),)
            assert got.tobytes() == np.add.reduceat(a, starts, axis=-1).tobytes()
            # the maximum on the absolute differences it serves: no -0.0
            got = _per_parent(lat, k, np.abs(a), np.maximum)
            assert got.tobytes() == np.maximum.reduceat(np.abs(a), starts, axis=-1).tobytes()


@pytest.mark.parametrize("b", range(2, 9))
def test_per_parent_sums_from_plus_zero_as_on_numpy_1(b, monkeypatch):
    # the branch that numpy < 2 takes, run on any numpy: it differs from this
    # numpy's reduceat only in the sign of zero, on segments of -0.0 alone
    monkeypatch.setattr("riskdesk.lattice._SUM_FROM_PLUS_ZERO", True)
    lat = uniform_tree((0.0, 1.0, 2.0, 3.0), np.linspace(1.0, -1.0, b))
    rng = np.random.default_rng(100 + b)
    for k in range(lat.terminal):
        starts = lat.offsets[k][:-1]
        for shape in ((lat.n_nodes(k + 1),), (3, lat.n_nodes(k + 1))):
            a = spread_values(rng, shape, b)
            got = _per_parent(lat, k, a)
            minus_zero = np.logical_and.reduceat(np.signbit(a) & (a == 0.0), starts, axis=-1)
            assert minus_zero.any()
            want = np.add.reduceat(a, starts, axis=-1)
            assert got[~minus_zero].tobytes() == want[~minus_zero].tobytes()
            assert np.array_equal(want[minus_zero], got[minus_zero])
            assert not np.signbit(got[minus_zero]).any()


def test_per_parent_takes_reduceat_past_eight_children_and_on_ragged_levels():
    # a level of nine children per node, where numpy sums pairwise, then a
    # ragged level; both take reduceat, and so does every level at once
    lat = build_lattice((0.0, 1.0, 2.0), [[np.linspace(1.0, -1.0, 9)],
                                          [np.arange(b, dtype=float) for b in range(1, 10)]],
                        dimension=1)
    assert lat.fanouts == (0, 0)
    rng = np.random.default_rng(9)
    for k in (0, 1, None):
        n = 54 if k is None else lat.n_nodes(k + 1)
        starts = lat.offsets[k][:-1] if k is not None else \
            np.concatenate((lat.offsets[0][:-1], 9 + lat.offsets[1][:-1]))
        for shape in ((n,), (2, n), (3, 2, n)):
            a = spread_values(rng, shape, 9)
            assert _per_parent(lat, k, a).tobytes() == \
                np.add.reduceat(a, starts, axis=-1).tobytes()
            assert _per_parent(lat, k, np.abs(a), np.maximum).tobytes() == \
                np.maximum.reduceat(np.abs(a), starts, axis=-1).tobytes()


def test_per_parent_over_every_level_of_a_uniform_tree():
    lat = uniform_tree((0.0, 1.0, 2.0, 3.0), [1.0, 0.0, -1.0])
    a = spread_values(np.random.default_rng(3), (2, 3 + 9 + 27), 3)
    starts = np.arange(0, a.shape[-1], 3)
    assert _per_parent(lat, None, a).tobytes() == np.add.reduceat(a, starts, axis=-1).tobytes()


def fix_a_json(dimension=None, parent=None):
    """fix-a as ``lattice_to_json`` writes it, with the dimension, or the
    parent of node (2, 3), replaced when given."""
    doc = json.loads(lattice_to_json(fix_a_lattice()))
    if dimension is not None:
        doc["dimension"] = dimension
    if parent is not None:
        doc["nodes"][2][3]["parent"] = parent
    return json.dumps(doc)


def test_lattice_shapes_may_be_numpy_integers():
    lat = ScenarioLattice((0.0, 1.0), np.int64(1), ([-1], np.array([0, 0], dtype=np.uint8)),
                          ([0.0], [1.0, -1.0]))
    assert lat.dimension == 1 and type(lat.dimension) is int
    assert lat.parents[1].tolist() == [0, 0]
    assert lattice_from_json(fix_a_json()).parents[2].tolist() == [0, 0, 1, 1]


def _fix_a_rv(t=2):
    return coordinate_process(fix_a_lattice(), t)


@pytest.mark.parametrize("build, message", [
    (lambda: ScenarioLattice((0.0,), 1, ([-1],), ([0.0],)), "at least 2 time points"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1],), ([0.0], [1.0])),
     "one entry per time point"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1, -1], [0, 1]), ([0.0, 0.0], [1.0, -1.0])),
     "unique root"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1], [0, 1]), ([0.0], [1.0, -1.0])),
     r"node \(1,1\) has invalid parent 1"),
    (lambda: ScenarioLattice((0.0, 1.0, 2.0), 1, ([-1], [0, 0], [0, 0]),
                             ([0.0], [1.0, -1.0], [1.0, -1.0])),
     r"non-terminal node \(1,1\) has no child"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1], []), ([0.0], np.zeros((0, 1)))),
     r"non-terminal node \(0,0\) has no child"),
    (lambda: ScenarioLattice((0.0, 1.0, 2.0), 1, ([-1], [0, 0], [1, 0, 1]),
                             ([0.0], [1.0, -1.0], [1.0, 0.0, -1.0])),
     "time index 2: children must be contiguous per parent"),
    (lambda: ScenarioLattice((0.0, 1.0), 0, ([-1], [0, 0]), ([0.0], [1.0, -1.0])),
     "dimension must be an integer >= 1, got 0"),
    (lambda: ScenarioLattice((0.0, 1.0), True, ([-1], [0, 0]), ([0.0], [1.0, -1.0])),
     "dimension must be an integer >= 1, got True"),
    (lambda: ScenarioLattice((0.0, 1.0), 1.0, ([-1], [0, 0]), ([0.0], [1.0, -1.0])),
     "dimension must be an integer >= 1, got 1.0"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1], [0.7, 0.2]), ([0.0], [1.0, -1.0])),
     "time index 1: parents must be integers, got float64"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1], [False, False]), ([0.0], [1.0, -1.0])),
     "time index 1: parents must be integers, got bool"),
    (lambda: ScenarioLattice((0.0, 1.0), 1, ([-1], [0, False]), ([0.0], [1.0, -1.0])),
     "time index 1: parents must be integers, got bool"),
    (lambda: lattice_from_json(fix_a_json(dimension=1.5)),
     "dimension must be an integer >= 1, got 1.5"),
    (lambda: lattice_from_json(fix_a_json(parent=1.5)),
     "time index 2: parents must be integers, got float64"),
    (lambda: lattice_from_json(fix_a_json(parent=True)),
     "time index 2: parents must be integers, got bool"),
    (lambda: build_lattice([0.0, 1.0, 2.0], [[[1.0, -1.0]], [[1.0, -1.0]]], dimension=1),
     "time index 1: expected branching for 2 nodes, got 1"),
    (lambda: ScenarioLattice((0.0, np.nan), 1, ([-1], [0]), ([0.0], [1.0])),
     "time points must be finite"),
    (lambda: uniform_tree((0.0, 1.0, np.inf), [1.0, -1.0]), "time points must be finite"),
    (lambda: coordinate_process(fix_a_lattice(), 3), re.escape("time index 3 outside [0, 2]")),
    (lambda: RandomVariable(fix_a_lattice(), 2, [1.0, np.nan, 0.0, 0.0]),
     "non-finite values are only allowed for penalties"),
    (lambda: _fix_a_rv() + _fix_a_rv(), "operands live on different lattices or times"),
    (lambda: _fix_a_rv() - RandomVariable(fix_a_lattice(), 1, [0.0, 0.0]),
     "operands live on different lattices or times"),
], ids=["one-time", "parents-per-time", "two-roots", "invalid-parent", "childless-node",
        "empty-level", "non-contiguous-children", "dimension-zero", "dimension-bool",
        "dimension-float", "float-parents", "bool-parents", "mixed-bool-parents",
        "json-fractional-dimension",
        "json-fractional-parent", "json-bool-parent", "branching-count", "nan-time", "inf-time",
        "coordinate-range", "non-finite-values", "other-lattice", "other-time"])
def test_malformed_lattices_and_variables_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("times, increments, message", [
    ((0.0, 1.0), [[[1.0]], [[1.0], [1.0]]],
     "time index 1 is terminal, but branching is given for it"),
    ((0.0, 1.0, 2.0), [[[1.0, -1.0]]], "time index 1: no branching given"),
    ((0.0, 1.0, 2.0), [[[1.0, -1.0]], [np.ones((2, 2)), [1.0, -1.0]]],
     r"node \(1,0\): increments of shape \(2, 2\) do not fit a 1-dimensional lattice"),
    ((0.0, 1.0, 2.0), [[[1.0, -1.0]], [[1.0, -1.0], np.ones((1, 2, 1))]],
     r"node \(1,1\): increments of shape \(1, 2, 1\) do not fit"),
    ((0.0, 1.0), [[np.zeros((0, 1))]], r"node \(0,0\) has empty branching"),
    ((0.0, np.nan), [[[1.0, -1.0]]], "time points must be finite"),
    ((0.0, 1.0, np.inf), [[[1.0, -1.0]], [[1.0], [1.0]]], "time points must be finite"),
], ids=["extra-level", "missing-level", "block-width", "block-ndim", "empty-block",
        "nan-time", "inf-time"])
def test_malformed_increments_are_named(times, increments, message):
    with pytest.raises(ValueError, match=message):
        build_lattice(times, increments, dimension=1)


def test_increment_blocks_of_one_level_may_differ_in_form():
    # 1-D blocks are one scalar per child on a 1-dimensional lattice, as (b, 1)
    # blocks and scalars are; a block of width d is read as its rows
    rows = build_lattice((0.0, 1.0, 2.0), [[[[1.0], [-1.0]]], [[[2.0]], [[0.5], [-0.5]]]])
    mixed = build_lattice((0.0, 1.0, 2.0), [[[1.0, -1.0]], [2.0, np.array([0.5, -0.5])]],
                          dimension=1)
    assert all(np.array_equal(p, q) for p, q in zip(rows.parents, mixed.parents))
    assert all(np.array_equal(p, q) for p, q in zip(rows.values, mixed.values))
    assert [v.ravel().tolist() for v in mixed.values] == [[0.0], [1.0, -1.0], [3.0, -0.5, -1.5]]
    plane = build_lattice((0.0, 1.0), [[np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])]])
    assert plane.dimension == 2 and plane.n_nodes(1) == 3


def test_a_number_minus_a_variable():
    X = _fix_a_rv()
    assert np.array_equal((5 - X).values, 5.0 - X.values)
    assert np.array_equal((5 - X).values, (-X + 5).values)
