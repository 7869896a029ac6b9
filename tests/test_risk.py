import itertools
import os
import subprocess
import sys
from collections.abc import Sequence
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np
import pytest

from riskdesk import risk
from riskdesk.dynamics import OneStepStructure, check_cocycle, expand_dual
from riskdesk.fixtures import (
    fix_a_family,
    fix_a_lattice,
    iid_binary_measure,
    random_lattice,
    random_measure,
    random_rv,
)
from riskdesk.lattice import (RandomVariable, ScenarioLattice, _check_integer, _check_span,
                              coordinate_process, lattice_to_json, lift, uniform_tree)
from riskdesk.measures import (
    Measure,
    charged_mask,
    conditional_expectation,
    mix_measures,
    reference_measure,
)
from riskdesk.oracles import conjugate_box_oracle
from riskdesk.risk import (
    _ACCEPT_TOL,
    DualRep,
    dualrep_from_json,
    dualrep_to_json,
    minimal_penalty,
    rm_evaluate,
)


def sublinear_rep(s=0, t=2):
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, s, np.zeros(lat.n_nodes(s)))
    return lat, DualRep(s, t, ((q1, zeros), (q2, zeros)))


def test_rm_evaluate_fix_a():
    lat, rep = sublinear_rep(s=1)
    B2 = coordinate_process(lat, 2)
    assert np.allclose(rm_evaluate(rep, B2).values, [-1.0, 1.0])
    lat0, rep0 = sublinear_rep(s=0)
    assert np.allclose(rm_evaluate(rep0, coordinate_process(lat0, 2)).values, [0.0])


def test_rm_evaluate_zero_and_translation():
    lat, rep = sublinear_rep(s=1)
    zero = RandomVariable(lat, 2, np.zeros(4))
    assert np.array_equal(rm_evaluate(rep, zero).values, [0.0, 0.0])
    rng = np.random.default_rng(2)
    X = random_rv(lat, 2, rng)
    Y = RandomVariable(lat, 1, rng.normal(size=2))
    shifted = X + lift(Y, 2)
    gap = rm_evaluate(rep, shifted).values - (rm_evaluate(rep, X).values - Y.values)
    assert np.max(np.abs(gap)) <= 1e-12


def test_rm_evaluate_argmax_lowest_index_on_ties():
    lat, rep = sublinear_rep(s=0)
    zero = RandomVariable(lat, 2, np.zeros(4))
    _, arg = rm_evaluate(rep, zero, return_argmax=True)
    assert np.array_equal(arg, [0])


def test_minimal_penalty_members_and_mixture():
    lat, rep = sublinear_rep(s=0)
    (q1, _), (q2, _) = rep.components
    assert np.all(minimal_penalty(rep, q1).values == 0.0)
    assert np.all(minimal_penalty(rep, q2).values == 0.0)
    mixed = mix_measures([q1, q2], [0.5, 0.5])
    assert np.max(np.abs(minimal_penalty(rep, mixed).values)) <= 1e-9


def test_minimal_penalty_unreachable_is_inf():
    # i.i.d. up-prob 0.9 puts mass 0.81 on uu, beyond any member mixture
    lat, rep = sublinear_rep(s=0)
    assert np.all(np.isinf(minimal_penalty(rep, iid_binary_measure(lat, 0.9)).values))



def test_minimal_penalty_rejects_a_measure_off_the_reps_lattice():
    # a second lattice of the same shape, on which every array would broadcast
    lat = fix_a_lattice()
    members = [iid_binary_measure(lat, 0.5), iid_binary_measure(lat, 0.6)]

    def rep(s, t):
        zeros = RandomVariable(lat, s, np.zeros(lat.n_nodes(s)))
        return DualRep(s, t, tuple((Q, zeros) for Q in members))

    foreign = iid_binary_measure(fix_a_lattice(), 0.5)
    with pytest.raises(ValueError, match="different lattices"):
        minimal_penalty(rep(0, 2), foreign)
    with pytest.raises(ValueError, match="different lattices"):
        check_cocycle(rep(0, 2), rep(0, 1), rep(1, 2), foreign)
    assert np.array_equal(minimal_penalty(rep(0, 2), members[0]).values, [0.0])

def test_minimal_penalty_restriction_discipline():
    lat, q1, q2, fam = fix_a_family()
    ref = reference_measure(fam)
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, zeros)), reference=ref)
    with pytest.raises(ValueError, match="restriction"):
        minimal_penalty(rep, q2)
    assert np.all(minimal_penalty(rep, ref).values <= 1e-9)


def conjugate_grid_oracle(rep: DualRep, Q: Measure, node: int,
                          grid: Sequence[float]) -> float:
    """Literal grid search for the conjugate at one time-s node: enumerate
    positions taking grid values on the node's descendants.  Exponential;
    tiny fixtures only."""
    lat = rep.lattice
    s, t = rep.s, rep.t
    sl = lat.descendant_slice(s, node, t)
    width = sl.stop - sl.start
    best = -np.inf
    base = np.zeros(lat.n_nodes(t))
    q = Q.subtree_laws(s, t)[sl]
    for combo in itertools.product(grid, repeat=width):
        base[sl] = combo
        X = RandomVariable(lat, t, base)
        ce = float(np.dot(q, -np.asarray(combo)))
        best = max(best, ce - float(rm_evaluate(rep, X).values[node]))
    return best


def test_minimal_penalty_against_oracles():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lat = random_lattice(rng, max_periods=2, max_branch=2)
        comps = []
        for _ in range(3):
            Q = random_measure(lat, rng)
            pen = RandomVariable(lat, 0, rng.uniform(0.0, 1.0, 1))
            comps.append((Q, pen))
        rep = DualRep(0, lat.terminal, tuple(comps))
        for Q in (comps[0][0], mix_measures([c[0] for c in comps],
                                            rng.dirichlet(np.ones(3)))):
            lp = minimal_penalty(rep, Q).values
            box = conjugate_box_oracle(rep, Q)
            assert np.max(np.abs(lp - box)) <= 1e-6
            # a literal grid search can only find feasible lower bounds
            grid = conjugate_grid_oracle(rep, Q, 0, np.linspace(-2, 2, 5))
            assert grid <= lp[0] + 1e-9


def _random_rep(rng, n_comp):
    """Random ragged lattice and n_comp components, component 0 free
    everywhere; the others are +inf at random time-s nodes, and component 2
    repeats component 1's law at another price (dependent columns)."""
    lat = random_lattice(rng, max_periods=3, max_branch=3)
    s = int(rng.integers(0, lat.terminal))
    comps = [(random_measure(lat, rng), RandomVariable(lat, s, np.zeros(lat.n_nodes(s))))]
    for k in range(1, n_comp):
        Q = comps[1][0] if k == 2 else random_measure(lat, rng)
        pen = rng.uniform(0.0, 1.0, lat.n_nodes(s))
        pen[rng.uniform(size=pen.size) < 0.25] = np.inf
        comps.append((Q, RandomVariable(lat, s, pen, allow_infinite=True)))
    return lat, DualRep(s, lat.terminal, tuple(comps))


def test_rm_evaluate_matches_per_component_expectations():
    # reference: one conditional expectation per component, as a loop
    rng = np.random.default_rng(31)
    for _ in range(30):
        lat, rep = _random_rep(rng, int(rng.integers(1, 6)))
        X = random_rv(lat, rep.t, rng)
        table = np.stack([np.where(np.isinf(a.values), -np.inf,
                                   conditional_expectation(-X, Q, rep.s).values - a.values)
                          for Q, a in rep.components])
        got, arg = rm_evaluate(rep, X, return_argmax=True)
        assert np.array_equal(arg, np.argmax(table, axis=0))
        assert np.array_equal(got.values, np.max(table, axis=0))


def _assert_same_penalties(got, ref, tol):
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    fin = np.isfinite(ref)
    assert np.max(np.abs(got[fin] - ref[fin]), initial=0.0) <= tol


def test_enumeration_matches_highs():
    rng = np.random.default_rng(29)
    for trial in range(60):
        lat, rep = _random_rep(rng, n_comp=2 + trial % 7)
        members = [Q for Q, _ in rep.components]
        weights = rng.dirichlet(np.ones(len(members)))
        weights[-1] = 0.0  # a face of the simplex
        queries = [members[0], mix_measures(members, weights / weights.sum()),
                   mix_measures(members, rng.dirichlet(np.ones(len(members)))),
                   random_measure(lat, rng)]
        for Q in queries:
            got = minimal_penalty(rep, Q).values
            _assert_same_penalties(got, _per_node_penalty(rep, Q), 1e-12)
            _assert_same_penalties(got, _per_node_penalty(rep, Q, _highs_node_penalty), 1e-12)
        assert np.all(minimal_penalty(rep, members[0]).values == 0.0)


def test_face_of_the_simplex_is_finite():
    rng = np.random.default_rng(31)
    for _ in range(20):
        lat = random_lattice(rng, max_periods=2, max_branch=3)
        members = [random_measure(lat, rng) for _ in range(4)]
        pens = rng.uniform(0.0, 1.0, 4)
        rep = DualRep(0, lat.terminal, tuple(
            (Q, RandomVariable(lat, 0, np.array([a]))) for Q, a in zip(members, pens)))
        for zero in range(4):
            w = rng.dirichlet(np.ones(4))
            w[zero] = 0.0
            w /= w.sum()
            alpha = minimal_penalty(rep, mix_measures(members, w)).values[0]
            assert np.isfinite(alpha) and alpha <= w @ pens + 1e-12


@pytest.mark.parametrize("nudge", [1e-8, 1e-6])
@pytest.mark.parametrize("offset", [1000, 0])
def test_query_just_off_the_span_is_inf(nudge, offset):
    # between the pinned tolerance and HiGHS's default feasibility tolerance
    # of 1e-7 too: the simplex, the enumeration and HiGHS at the pinned
    # tolerance draw the same +inf boundary, whatever the penalties' size
    lat, q1, q2, _ = fix_a_family()
    rep = DualRep(0, 2, ((q1, RandomVariable(lat, 0, np.zeros(1))),
                         (q2, RandomVariable(lat, 0, np.full(1, float(offset))))))
    mixed = mix_measures([q1, q2], [0.5, 0.5])
    root, (up, down) = (lat.per_node(k, w) for k, w in enumerate(mixed.flat_kernels))
    nudged = Measure(lat, (root, (up + np.array([nudge, -nudge]), down)))
    # in the span but past the face lam_2 = 0 of the simplex: the root has
    # full column rank, so the one solution of M lam = b decides, and a
    # -1e-12 weight within the tolerance is read as 0
    assert [lp.A.shape[1:] for lp in rep._node_lps] == [(2, 2)]
    for Q, finite in ((mixed, True), (nudged, False), (_beyond(q1, q2, nudge), False),
                      (_beyond(q1, q2, 1e-12), True)):
        for alpha in (minimal_penalty(rep, Q).values, _per_node_penalty(rep, Q),
                      _per_node_penalty(rep, Q, _highs_node_penalty)):
            assert np.all(np.isfinite(alpha) == finite)
            if finite:
                assert np.all(alpha <= 0.5 * offset + 1e-9)



def _beyond(q1, q2, eps):
    """The path law (1 + eps) q1 - eps q2 of a two-period binary tree, as a
    measure: a mixture weight of -eps on q2."""
    lat = q1.lattice
    p = (1 + eps) * q1.node_probabilities(2) - eps * q2.node_probabilities(2)
    up = p.reshape(2, 2).sum(axis=1)
    return Measure(lat, ((up,), tuple(p.reshape(2, 2) / up[:, None])))

def test_near_duplicate_components_match_highs():
    # clusters of three laws about 1e-5 apart: the product of the singular
    # values falls below the tolerance while each of them stays above it
    rng = np.random.default_rng(41)
    for _ in range(20):
        lat = random_lattice(rng, max_periods=2, max_branch=3)
        s = int(rng.integers(0, lat.terminal))
        members = []
        for _ in range(2):
            Q = random_measure(lat, rng)
            members += [Q] + [mix_measures([Q, random_measure(lat, rng)], [1 - 1e-5, 1e-5])
                              for _ in range(2)]
        pens = [np.zeros(lat.n_nodes(s))] + [rng.uniform(0.0, 1.0, lat.n_nodes(s))
                                             for _ in members[1:]]
        rep = DualRep(s, lat.terminal, tuple(
            (Q, RandomVariable(lat, s, a)) for Q, a in zip(members, pens)))
        queries = [members[0], members[2],
                   mix_measures(members, rng.dirichlet(np.ones(len(members))))]
        for Q in queries:
            got = minimal_penalty(rep, Q).values
            for ref in (_per_node_penalty(rep, Q), _per_node_penalty(rep, Q, _highs_node_penalty)):
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
                # the clusters' conditioning, about 1e5, amplifies the rounding
                # of every solver
                assert np.max(np.abs(got - ref)) <= 1e-8
        assert np.all(minimal_penalty(rep, members[0]).values == 0.0)


def test_many_bases_match_highs():
    # 16 random laws on the 4 leaves of a binary two-period tree have rank
    # 4, so the root has C(16, 4) bases
    rng = np.random.default_rng(37)
    lat = fix_a_family()[0]
    members = [random_measure(lat, rng) for _ in range(16)]
    pens = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 15)])
    rep = DualRep(0, 2, tuple((Q, RandomVariable(lat, 0, np.array([a])))
                              for Q, a in zip(members, pens)))
    queries = [members[3], mix_measures(members, rng.dirichlet(np.ones(16))),
               random_measure(lat, rng), iid_binary_measure(lat, 0.999)]
    for Q in queries:
        got = minimal_penalty(rep, Q).values
        _assert_same_penalties(got, _per_node_penalty(rep, Q), 1e-12)
        _assert_same_penalties(got, _per_node_penalty(rep, Q, _highs_node_penalty), 1e-12)
    assert np.isinf(got[0])


def test_identical_zero_penalty_components_price_exactly_zero():
    # degenerate pivots: three copies of the query's own law at penalty 0
    rng = np.random.default_rng(43)
    lat, q1, q2, _ = fix_a_family()
    fixtures = [(lat, [q2, q1, q1, q1])]
    for _ in range(10):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        Q = random_measure(lat, rng)
        fixtures.append((lat, [random_measure(lat, rng), Q, Q, Q, random_measure(lat, rng)]))
    for lat, members in fixtures:
        for s in range(lat.terminal):
            pens = [rng.uniform(0.1, 1.0, lat.n_nodes(s)) if Qk is not members[1]
                    else np.zeros(lat.n_nodes(s)) for Qk in members]
            rep = DualRep(s, lat.terminal, tuple(
                (Qk, RandomVariable(lat, s, a)) for Qk, a in zip(members, pens)))
            assert np.all(minimal_penalty(rep, members[1]).values == 0.0)
            assert np.all(_per_node_penalty(rep, members[1]) == 0.0)


def test_pivot_bound_raises_naming_the_node(monkeypatch):
    # a simplex stopped by its pivot bound fails; it never reads as +inf.  The
    # third component mixes the other two, so no node has full column rank and
    # every node goes to the simplex
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, zeros), (mix_measures([q1, q2], [0.5, 0.5]), zeros)))
    assert all(lp.A.shape[1] < lp.A.shape[2] for lp in rep._node_lps)
    monkeypatch.setattr(risk, "comb", lambda *a: 0)
    with pytest.raises(RuntimeError, match=r"node \(1, 0\).*no optimum in 0 pivots"):
        minimal_penalty(rep, q1)


def test_minimal_penalty_never_loads_scipy_optimize(tmp_path):
    # the root of _capped_rep has C(16, 4) bases
    lat, rep = _capped_rep(np.random.default_rng(37))
    (tmp_path / "lattice.json").write_text(lattice_to_json(lat))
    (tmp_path / "rep.json").write_text(dualrep_to_json(rep))
    code = ("import sys, riskdesk\n"
            "from pathlib import Path\n"
            "from riskdesk.lattice import lattice_from_json\n"
            "from riskdesk.risk import dualrep_from_json\n"
            "lat = lattice_from_json(Path('lattice.json').read_text())\n"
            "rep = dualrep_from_json(Path('rep.json').read_text(), lat)\n"
            "members = [Q for Q, _ in rep.components]\n"
            "assert riskdesk.minimal_penalty(rep, members[0]).values[0] == 0.0\n"
            "mixed = riskdesk.mix_measures(members, [1 / 16] * 16)\n"
            "assert 0.0 < riskdesk.minimal_penalty(rep, mixed).values[0] < 1.0\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(risk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path)
    assert out.stdout.strip() == "False"


def partition_combine(lattice: ScenarioLattice, s: int,
                      pieces: Sequence) -> RandomVariable:
    """Glue time-t variables along a partition of the time-s nodes.

    ``pieces`` is a list of (X_i, iterable of time-s node indices); the sets
    must partition the time-s slice.  The result takes X_i's value at every
    leaf whose time-s ancestor lies in A_i.
    """
    if not pieces:
        raise ValueError("need at least one piece")
    t = pieces[0][0].t
    _check_span(lattice, s, t)
    seen = np.full(lattice.n_nodes(s), -1, dtype=int)
    for idx, (X, nodes) in enumerate(pieces):
        if X.t != t or X.lattice is not lattice:
            raise ValueError("pieces must share the lattice and time index")
        for n in nodes:
            _check_integer(n, "node index")
            if not 0 <= n < seen.size:
                raise ValueError(f"time-{s} node {n} outside [0, {seen.size})")
            if seen[n] != -1:
                raise ValueError(f"time-{s} node {n} covered twice")
            seen[n] = idx
    if np.any(seen == -1):
        raise ValueError("partition does not cover all time-s nodes")
    leaves = np.arange(lattice.n_nodes(t))
    vals = np.stack([X.values for X, _ in pieces])[seen[lattice.ancestors_of_slice(t, s)], leaves]
    return RandomVariable(lattice, t, vals)


def acceptance_check(rep: DualRep, X: RandomVariable, Q: Optional[Measure] = None):
    """Membership in the acceptance set: rho(X) <= 0 node-wise.

    Without Q, checks every node charged by the representation's reference
    (every node when no reference is attached).  With Q, checks only the
    Q-charged time-s nodes.  Returns (overall, per-node booleans).
    """
    ok = rm_evaluate(rep, X).values <= _ACCEPT_TOL
    P = rep.reference if Q is None else Q
    return bool(np.all(ok if P is None else ok[charged_mask(P, rep.s)])), ok


def strong_convexity_check(rep: DualRep, X: RandomVariable, Y: RandomVariable,
                           f: RandomVariable) -> float:
    """Max node-wise violation of rho(fX + (1-f)Y) <= f rho(X) + (1-f) rho(Y)
    for a time-s weight 0 <= f <= 1; non-positive up to rounding for any
    dual representation."""
    if f.t != rep.s:
        raise ValueError("the weight f must live at time s")
    if np.any(f.values < 0) or np.any(f.values > 1):
        raise ValueError("the weight f must take values in [0, 1]")
    w = lift(f, rep.t).values
    lhs = rm_evaluate(rep, RandomVariable(rep.lattice, rep.t, w * X.values + (1.0 - w) * Y.values))
    rhs = f.values * rm_evaluate(rep, X).values + (1.0 - f.values) * rm_evaluate(rep, Y).values
    return float(np.max(lhs.values - rhs))


def test_partition_combine_gluing():
    lat, rep = sublinear_rep(s=1)
    X = RandomVariable(lat, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    Y = RandomVariable(lat, 2, np.array([5.0, 6.0, 7.0, 8.0]))
    glued = partition_combine(lat, 1, [(X, [0]), (Y, [1])])
    assert np.array_equal(glued.values, [1.0, 2.0, 7.0, 8.0])
    assert np.array_equal(partition_combine(lat, 1, [(X, [0, 1])]).values, X.values)
    with pytest.raises(ValueError):
        partition_combine(lat, 1, [(X, [0]), (Y, [0, 1])])
    with pytest.raises(ValueError):
        partition_combine(lat, 1, [(X, [0])])


def test_partition_combine_rejects_node_out_of_range():
    lat, rep = sublinear_rep(s=1)
    X = RandomVariable(lat, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match="node -1 outside"):
        partition_combine(lat, 1, [(X, [0, -1])])
    with pytest.raises(ValueError, match="node 7 outside"):
        partition_combine(lat, 1, [(X, [0, 1, 7])])


def test_partition_combine_preserves_acceptance():
    lat, rep = sublinear_rep(s=1)
    rng = np.random.default_rng(4)
    X0, Y0 = random_rv(lat, 2, rng), random_rv(lat, 2, rng)
    X = X0 + lift(rm_evaluate(rep, X0), 2)
    Y = Y0 + lift(rm_evaluate(rep, Y0), 2)
    glued = partition_combine(lat, 1, [(X, [0]), (Y, [1])])
    ok, _ = acceptance_check(rep, glued)
    assert ok


def test_acceptance_check():
    lat, rep = sublinear_rep(s=1)
    B2 = coordinate_process(lat, 2)
    ok, per_node = acceptance_check(rep, B2)
    assert not ok and per_node.tolist() == [True, False]
    assert acceptance_check(rep, RandomVariable(lat, 2, np.full(4, 10.0)))[0]
    rng = np.random.default_rng(9)
    X = random_rv(lat, 2, rng)
    assert acceptance_check(rep, X + lift(rm_evaluate(rep, X), 2))[0]


def test_acceptance_check_with_measure_mask():
    lat, rep = sublinear_rep(s=1)
    from riskdesk.measures import Measure

    up_only = Measure(lat, ((np.array([1.0, 0.0]),),
                            tuple(np.array([0.5, 0.5]) for _ in range(2))))
    # accepted only at the up node; the down node is up_only-null
    X = RandomVariable(lat, 2, np.array([1.0, 1.0, -5.0, -5.0]))
    assert acceptance_check(rep, X, Q=up_only)[0]
    assert not acceptance_check(rep, X)[0]


def test_strong_convexity():
    lat, rep = sublinear_rep(s=1)
    rng = np.random.default_rng(13)
    X, Y = random_rv(lat, 2, rng), random_rv(lat, 2, rng)
    one = RandomVariable(lat, 1, np.ones(2))
    assert strong_convexity_check(rep, X, Y, one) <= 1e-12
    indicator = RandomVariable(lat, 1, np.array([1.0, 0.0]))
    assert strong_convexity_check(rep, X, Y, indicator) <= 1e-9
    half = RandomVariable(lat, 1, np.full(2, 0.5))
    assert strong_convexity_check(rep, X, Y, half) <= 1e-9
    with pytest.raises(ValueError):
        strong_convexity_check(rep, X, Y, RandomVariable(lat, 1, np.array([1.5, 0.0])))


def test_normalized_and_lipschitz_bounds():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lat = random_lattice(rng)
        T = lat.terminal
        comps = tuple(
            (random_measure(lat, rng), RandomVariable(lat, 0, np.zeros(1)))
            for _ in range(2)
        )
        rep = DualRep(0, T, comps)
        X, Y = random_rv(lat, T, rng), random_rv(lat, T, rng)
        neg_abs = RandomVariable(lat, T, -np.abs(X.values))
        assert np.all(np.abs(rm_evaluate(rep, X).values)
                      <= rm_evaluate(rep, neg_abs).values + 1e-12)
        neg_gap = RandomVariable(lat, T, -np.abs(X.values - Y.values))
        lhs = np.abs(rm_evaluate(rep, X).values - rm_evaluate(rep, Y).values)
        assert np.all(lhs <= rm_evaluate(rep, neg_gap).values + 1e-12)


def test_upward_directed_lattice_property():
    rng = np.random.default_rng(23)
    lat, rep = sublinear_rep(s=1)
    Q = rep.components[0][0]
    X, Y = random_rv(lat, 2, rng), random_rv(lat, 2, rng)
    ex = conditional_expectation(-X, Q, 1).values
    ey = conditional_expectation(-Y, Q, 1).values
    A = [i for i in range(2) if ex[i] >= ey[i]]
    B = [i for i in range(2) if i not in A]
    pieces = [(X, A)] + ([(Y, B)] if B else [])
    glued = partition_combine(lat, 1, pieces)
    got = conditional_expectation(-glued, Q, 1).values
    assert np.array_equal(got, np.maximum(ex, ey))


def test_dualrep_json_round_trip_with_inf():
    lat, q1, q2, _ = fix_a_family()
    pen = RandomVariable(lat, 1, np.array([0.25, np.inf]), allow_infinite=True)
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, pen)))
    back = dualrep_from_json(dualrep_to_json(rep), lat)
    assert back.s == 1 and back.t == 2
    assert np.array_equal(back.components[1][1].values, [0.25, np.inf])
    B2 = coordinate_process(lat, 2)
    assert np.array_equal(rm_evaluate(back, B2).values, rm_evaluate(rep, B2).values)


def test_box_oracle_skips_a_component_priced_at_inf():
    # at the second time-1 node only q1 is on offer, so q2 is unreachable
    # there; the oracle must leave the +inf component out of its LP
    lat, q1, q2, _ = fix_a_family()
    pen = RandomVariable(lat, 1, np.array([0.25, np.inf]), allow_infinite=True)
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, pen)))
    for Q, expected in ((q1, [0.0, 0.0]), (q2, [0.25, np.inf])):
        np.testing.assert_allclose(conjugate_box_oracle(rep, Q), expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(minimal_penalty(rep, Q).values, expected, rtol=0, atol=1e-9)


def test_dualrep_requires_finite_component_per_node():
    lat, q1, q2, _ = fix_a_family()
    inf1 = RandomVariable(lat, 1, np.array([np.inf, 0.0]), allow_infinite=True)
    inf2 = RandomVariable(lat, 1, np.array([np.inf, 1.0]), allow_infinite=True)
    with pytest.raises(ValueError):
        DualRep(1, 2, ((q1, inf1), (q2, inf2)))


def test_dualrep_rejects_nan_and_minus_inf_penalties():
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, 1, np.zeros(2))
    for bad in (np.nan, -np.inf):
        pen = RandomVariable(lat, 1, np.array([0.25, bad]), allow_infinite=True)
        with pytest.raises(ValueError, match="real or \\+inf"):
            DualRep(1, 2, ((q1, zeros), (q2, pen)))
    # json.loads reads NaN, so the file format needs the same check
    text = dualrep_to_json(DualRep(1, 2, ((q1, zeros), (q2, zeros))))
    with pytest.raises(ValueError, match="real or \\+inf"):
        dualrep_from_json(text.replace("[0.0, 0.0]", "[0.0, NaN]", 1), lat)


def test_dualrep_rejects_t_beyond_terminal():
    lat, q1, _, _ = fix_a_family()
    with pytest.raises(ValueError, match=r"time index 5 outside \[0, 2\]"):
        DualRep(0, 5, ((q1, RandomVariable(lat, 0, np.zeros(1))),))


def test_dualrep_checks_penalty_dates_before_stacking():
    lat, q1, q2, _ = fix_a_family()
    at_0 = RandomVariable(lat, 0, np.zeros(1))
    at_1 = RandomVariable(lat, 1, np.zeros(2))
    with pytest.raises(ValueError, match="penalties at time s"):
        DualRep(0, 2, ((q1, at_0), (q2, at_1)))


def test_box_oracle_solves_two_lps_per_node(monkeypatch):
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, zeros)))
    assert np.array_equal(conjugate_box_oracle(rep, q1), [0.0, 0.0])
    assert len(calls) == 2 * lat.n_nodes(1)


def test_box_oracle_raises_when_an_lp_fails(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **kw: scipy.optimize.OptimizeResult(status=2, fun=np.nan))
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, zeros)))
    with pytest.raises(RuntimeError, match=r"box oracle LP failed at node \(1,0\)"):
        conjugate_box_oracle(rep, q1)


def _per_node_penalty(rep, Q, solve=None):
    """minimal_penalty node by node, one problem per node, solved by
    ``solve(M, b, c, node)``; by default one SVD and one basis enumeration:
    the references for the batched simplex."""
    lat, s, t = rep.lattice, rep.s, rep.t
    laws = np.stack([Qk.subtree_laws(s, t) for Qk, _ in rep.components])
    pen = np.stack([alpha.values for _, alpha in rep.components])
    target = Q.subtree_laws(s, t)
    out = np.empty(lat.n_nodes(s))
    for n in range(lat.n_nodes(s)):
        sl = lat.descendant_slice(s, n, t)
        finite = np.isfinite(pen[:, n])
        cols = laws[finite, sl]
        M = np.vstack([cols.T, np.ones((1, cols.shape[0]))])
        out[n] = (solve or _one_node_penalty)(M, np.append(target[sl], 1.0), pen[finite, n],
                                              (s, n))
    return out


def _one_node_penalty(M, b, c, node):
    """The cheapest non-negative basic solution over all bases of r = rank(M)
    independent columns, solved in M's span; +inf when b lies off it."""
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(sv > risk._TOL))
    U = U[:, :r]
    b_r = U.T @ b
    if np.max(np.abs(U @ b_r - b)) > risk._TOL:
        return np.inf
    bases = np.array(list(combinations(range(c.size), r))).reshape(-1, r)
    B = (U.T @ M)[:, bases].transpose(1, 0, 2)
    # drop the singular bases, judged against M's own scale: by Cauchy-Binet
    # the squared determinants of all bases sum to the product of the r
    # squared singular values, so the best-conditioned one stays
    regular = np.abs(np.linalg.det(B)) > risk._TOL * np.prod(sv[:r])
    B, bases = B[regular], bases[regular]
    lam = np.linalg.solve(B, np.broadcast_to(b_r, (len(B), r))[..., None])[..., 0]
    resid = np.einsum("icj,cj->ci", M[:, bases], lam) - b
    keep = (lam >= -risk._TOL).all(axis=1) & (np.abs(resid) <= risk._TOL).all(axis=1)
    if not keep.any():
        return np.inf
    lam = np.where(lam[keep] <= risk._TOL, 0.0, lam[keep])
    return float(np.min(np.sum(lam * c[bases[keep]], axis=1)))


def _highs_node_penalty(M, b, c, node):
    """The node's problem as one HiGHS linear program at the pinned primal
    feasibility tolerance: +inf when it is infeasible (status 2)."""
    from scipy.optimize import linprog

    res = linprog(c, A_eq=M, b_eq=b, bounds=[(0, None)] * c.size, method="highs",
                  options={"primal_feasibility_tolerance": risk._TOL})
    assert res.status in (0, 2), f"HiGHS failed at node {node}: {res.message}"
    return np.inf if res.status == 2 else res.fun


def _point_mass(lat):
    """All mass on the first child everywhere: outside the span of laws
    that charge every leaf, at every node with more than one leaf."""
    return Measure(lat, tuple(tuple(np.eye(w.size)[0] for w in lat.per_node(k, np.ones(
        lat.n_nodes(k + 1)))) for k in range(lat.n_times - 1)))


def _capped_rep(rng):
    """Binary three-period tree at s = 1 with 16 components: node 0 has all
    16 finite, rank 4 and C(16, 4) bases, above the cap; node 1 keeps 6
    finite components, C(6, 4) bases, under it."""
    lat = uniform_tree(np.arange(4) / 3, [1.0, -1.0])
    members = [random_measure(lat, rng) for _ in range(16)]
    pens = rng.uniform(0.0, 1.0, (16, 2))
    pens[0] = 0.0
    pens[6:, 1] = np.inf
    return lat, DualRep(1, 3, tuple((Q, RandomVariable(lat, 1, a, allow_infinite=True))
                                    for Q, a in zip(members, pens)))


def _batched_fixtures(rng):
    return [_random_rep(rng, n_comp=1 + trial % 8) for trial in range(40)] + [
        sublinear_rep(s=0), sublinear_rep(s=1), _capped_rep(rng)]


def _queries(lat, rep, rng):
    """A member, a mixture of the members, a random law and a point mass."""
    members = [Q for Q, _ in rep.components]
    return [members[0], mix_measures(members, rng.dirichlet(np.ones(len(members)))),
            random_measure(lat, rng), _point_mass(lat)]


def test_batched_penalty_matches_the_per_node_reference():
    rng = np.random.default_rng(53)
    infinite, seen = 0, set()
    for lat, rep in _batched_fixtures(rng):
        full = np.zeros(lat.n_nodes(rep.s), dtype=bool)
        for lp in rep._node_lps:
            full[lp.nodes] = lp.A.shape[1] == lp.A.shape[2]
        for Q in _queries(lat, rep, rng):
            got = minimal_penalty(rep, Q).values
            ref = _per_node_penalty(rep, Q)
            _assert_same_penalties(got, ref, 1e-12)
            _assert_same_penalties(got, _per_node_penalty(rep, Q, _highs_node_penalty), 1e-12)
            infinite += int(np.sum(np.isinf(ref)))
            seen.update(zip(full.tolist(), np.isinf(ref).tolist()))
    assert infinite > 0
    # finite and +inf nodes both of full column rank (one linear solve) and
    # rank deficient (the simplex)
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def _expanded_rep():
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    return lat, expand_dual(OneStepStructure(lat, ((menu,), (menu, menu))), 0, 2)


def _repeated_fixtures(rng):
    return [_random_rep(rng, n_comp=1 + trial % 8) for trial in range(12)] + [
        _capped_rep(rng), _expanded_rep()]


def test_repeated_queries_match_a_fresh_rep_bit_for_bit():
    rng = np.random.default_rng(59)
    for lat, rep in _repeated_fixtures(rng):
        queries = _queries(lat, rep, rng)
        lps = rep._node_lps
        for Q in queries + queries[::-1]:
            fresh = DualRep(rep.s, rep.t, rep.components)
            assert np.array_equal(minimal_penalty(rep, Q).values,
                                  minimal_penalty(fresh, Q).values)
        assert rep._node_lps is lps


def batched_tableau_penalties(rep, Q):
    """``minimal_penalty(rep, Q).values`` with each rank-deficient group's nodes
    solved together, on stacked tableaux pivoted in place by fancy indexing:
    the batched simplex that the library ran before it pivoted each node's own
    tableau, kept as an oracle for the same pivots and bits.  A group of full
    column rank takes the library's linear solve."""
    target = np.append(Q.subtree_laws(rep.s, rep.t), 1.0)
    out = np.full(rep.lattice.n_nodes(rep.s), np.inf)
    for lp in rep._node_lps:
        r, k = lp.A.shape[1:]
        solve = risk._node_penalties if r == k else _batched_rank_deficient
        out[lp.nodes] = solve(lp, target[lp.rows], rep.s)
    return out


def _batched_rank_deficient(lp, b, s):
    Ut = lp.U.transpose(0, 2, 1)
    b_r = np.matmul(Ut, b[..., None])
    reach = np.abs(np.matmul(lp.U, b_r)[..., 0] - b).max(axis=1) <= risk._TOL
    out = np.full(len(b), np.inf)
    if not reach.any():
        return out
    i = np.flatnonzero(reach)
    A, b_r, c = lp.A[i], b_r[i], lp.c[i]
    r, k = A.shape[1:]
    sign = np.where(b_r < 0, -1.0, 1.0)
    # rows: r constraints, signed so that b >= 0, then the reduced costs of phase 2
    # (the penalty) and phase 1 (the artificials); columns: k components, r artificials, b
    A = sign * np.concatenate([A, sign * np.eye(r), b_r], axis=2)
    cost = np.concatenate([c, np.zeros((i.size, r + 1))], axis=1)
    T = np.concatenate([A, cost[:, None], -A.sum(axis=1, keepdims=True)], axis=1)
    basis, cap = np.arange(k, k + r)[None].repeat(i.size, axis=0), comb(k + r, r)
    nodes = lp.nodes[i]
    _batched_simplex(T, basis, k, cap, nodes, s)  # phase 1
    keep = np.sum(T[:, :r, -1], axis=1, where=basis >= k) <= risk._TOL
    if not keep.any():
        return out
    i, T, basis, nodes = i[keep], T[keep], basis[keep], nodes[keep]
    # pivot out the artificials left at 0: independent rows give each a non-zero entry
    for row in np.flatnonzero((basis >= k).any(axis=0)):
        at = np.flatnonzero(basis[:, row] >= k)
        _batched_pivot(T, basis, at, row, np.argmax(np.abs(T[at, row, :k]), axis=1))
    _batched_simplex(T[:, :-1], basis, k, cap, nodes, s)  # phase 2
    lam = np.where(T[:, :r, -1] <= risk._TOL, 0.0, T[:, :r, -1])
    out[i] = np.sum(lam * lp.c[i[:, None], basis], axis=1)
    return out


def _batched_simplex(T, basis, k, cap, nodes, s):
    """Pivot the stacked tableaux T (last row: reduced costs, last column: b) in
    place until no column below k prices below -_TOL, by Bland's rule."""
    r = basis.shape[1]
    for pivots in range(cap + 1):
        enter = T[:, -1, :k] < -risk._TOL
        at = np.flatnonzero(enter.any(axis=1))
        if not at.size:
            return
        col = np.argmax(enter[at], axis=1)
        d = T[at, :r, col]
        ratio = np.divide(T[at, :r, -1], d, out=np.full(d.shape, np.inf), where=d > risk._TOL)
        best = ratio.min(axis=1, keepdims=True)
        stuck = at[np.isinf(best[:, 0]) | (pivots == cap)]
        if stuck.size:
            raise RuntimeError(f"penalty LP at node {(s, int(nodes[stuck[0]]))}: "
                               f"no optimum in {cap} pivots")
        row = np.argmin(np.where(ratio == best, basis[at], T.shape[2]), axis=1)
        _batched_pivot(T, basis, at, row, col)


def _batched_pivot(T, basis, at, row, col):
    """Pivot tableaux ``at`` on their (row, col) entries: col enters the basis."""
    piv = T[at, row] / T[at, row, col][:, None]
    T[at] -= T[at, :, col][:, :, None] * piv[:, None, :]
    T[at, row] = piv
    basis[at, row] = col


def _cocycle_reps(rng):
    """(lattice, the three expansions (0, T), (0, u), (u, T) that check_cocycle
    reads) for each 0 < u < T of seeded one-step structures on uniform trees of
    2-3 periods and 2-3 children: one kernel per node, two at four nodes spread
    over the tree (up to 16 selections), penalties in [0, 0.5)."""
    out = []
    for T in (2, 3):
        for b in (2, 3):
            lat = uniform_tree(np.arange(T + 1) / T, np.linspace(1.0, -1.0, b))
            inner = [lat.n_nodes(u) for u in range(T)]
            split = set(np.linspace(0, sum(inner) - 1, 4).round().astype(int).tolist())
            menus = [tuple((rng.dirichlet(np.ones(b)), float(rng.uniform(0.0, 0.5)))
                           for _ in range(2 if n in split else 1))
                     for n in range(sum(inner))]
            levels = tuple(tuple(menus[sum(inner[:u]):sum(inner[:u + 1])]) for u in range(T))
            st = OneStepStructure(lat, levels)
            for u in range(1, T):
                out.append((lat, [expand_dual(st, r, t) for r, t in ((0, T), (0, u), (u, T))]))
    return out


def _degenerate_lps(rng):
    """Batches of 8 node LPs on U = I with r = 4 or 5 rows of small integers,
    of full row rank, and k in r + 1 .. r + 9 components, costs in thirds, the
    targets integer mixtures with many zero weights: degenerate pivots and
    ratio ties, also between rows whose basic indices are out of row order."""
    out = []
    for _ in range(60):
        r = int(rng.integers(4, 6))
        k = int(rng.integers(r + 1, r + 10))
        A = rng.integers(0, 4, (8, r, k)).astype(float)
        while (np.linalg.matrix_rank(A) < r).any():
            A = rng.integers(0, 4, (8, r, k)).astype(float)
        b = np.einsum("grk,gk->gr", A, rng.integers(0, 2, (8, k)).astype(float))
        U = np.broadcast_to(np.eye(r), (8, r, r))
        out.append((risk._NodeLPs(np.arange(8), np.broadcast_to(np.arange(r), (8, r)), U, A,
                                  rng.integers(0, 3, (8, k)) / 3.0), b))
    return out


def test_minimal_penalty_matches_the_batched_tableau_oracle_bit_for_bit():
    rng = np.random.default_rng(61)
    cases = [(rep, _queries(lat, rep, rng))
             for lat, rep in (_batched_fixtures(np.random.default_rng(53))
                              + _repeated_fixtures(np.random.default_rng(59)))]
    for lat, reps in _cocycle_reps(rng):
        # and the query that check_cocycle prices on all three
        cases += [(rep, [reps[0].components[0][0], *_queries(lat, rep, rng)]) for rep in reps]
    deficient = 0
    for rep, queries in cases:
        deficient += sum(lp.A.shape[1] < lp.A.shape[2] for lp in rep._node_lps)
        for Q in queries:
            got, ref = minimal_penalty(rep, Q).values, batched_tableau_penalties(rep, Q)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert got.tobytes() == ref.tobytes()
    assert deficient > 0
    for lp, b in _degenerate_lps(rng):
        got, ref = risk._node_penalties(lp, b, 0), _batched_rank_deficient(lp, b, 0)
        assert np.isfinite(got).all() and got.tobytes() == ref.tobytes()


def test_stacked_arrays_are_read_only():
    for lat, rep in (sublinear_rep(s=1), _expanded_rep()):
        with pytest.raises(ValueError, match="read-only"):
            rep.penalties[0, 0] = 1.0
        for w in rep.kernels:
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 0.5


def test_reading_one_expanded_component_builds_one_measure(monkeypatch):
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    dyn = OneStepStructure(lat, ((menu,), (menu, menu)))
    built = []
    from_flat, post_init = Measure._from_flat, Measure.__post_init__
    monkeypatch.setattr(Measure, "_from_flat",
                        classmethod(lambda cls, *a: built.append(a) or from_flat(*a)))
    monkeypatch.setattr(Measure, "__post_init__",
                        lambda self, k: built.append(k) or post_init(self, k))
    rep = expand_dual(dyn, 0, 2)
    assert len(rep.components) == 8 and not built
    Q, alpha = rep.components[0]
    assert len(built) == 1
    assert rep.components[0][0] is Q and rep.components[-8][0] is Q and len(built) == 1
    assert all(np.array_equal(w, k[0]) for w, k in zip(Q.flat_kernels, rep.kernels))
    assert np.array_equal(alpha.values, rep.penalties[0])
    with pytest.raises(IndexError):
        rep.components[8]


# dualrep_to_json of an expanded representation with a +inf penalty, as
# written when expand_dual built and validated one Measure per selection.
# The kernel (0.7, 0.4), at the root outside [s, t) and at node (1, 1)
# inside it, normalizes to weights that sum to 1 - 2**-53, so it pins the
# second division by the kernel sums that building a Measure applies.
EXPANDED_JSON = (
    '{"components": [{"measure": {"kernels": [{"node": [0, 0], "weights": '
    '[0.6363636363636364, 0.3636363636363637]}, {"node": [1, 0], "weights": [0.5, 0.5]}, '
    '{"node": [1, 1], "weights": [0.6363636363636364, 0.3636363636363637]}]}, '
    '"penalty": [0.0, 0.25]}, {"measure": {"kernels": [{"node": [0, 0], "weights": '
    '[0.6363636363636364, 0.3636363636363637]}, {"node": [1, 0], "weights": [0.6, 0.4]}, '
    '{"node": [1, 1], "weights": [0.6363636363636364, 0.3636363636363637]}]}, '
    '"penalty": ["inf", 0.25]}], "s": 1, "t": 2}')


def test_expanded_dualrep_json_golden():
    lat = fix_a_lattice()
    menus = ((((np.array([0.7, 0.4]), 0.0),),),
             (((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), np.inf)),
              ((np.array([0.7, 0.4]), 0.25),)))
    rep = expand_dual(OneStepStructure(lat, menus), 1, 2)
    assert dualrep_to_json(rep) == EXPANDED_JSON
    assert dualrep_to_json(dualrep_from_json(EXPANDED_JSON, lat)) == EXPANDED_JSON


def _fix_a_rep():
    lat, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat, 0, np.zeros(1))
    return lat, DualRep(0, 2, ((q1, zeros), (q2, zeros)))


@pytest.mark.parametrize("build, message", [
    (lambda lat, rep: DualRep(0, 2, ()), "needs at least one component"),
    (lambda lat, rep: DualRep(2, 1, ((rep.components[0][0],
                                      RandomVariable(lat, 2, np.zeros(4))),)),
     "need 0 <= s <= t"),
    (lambda lat, rep: rm_evaluate(rep, coordinate_process(lat, 1)),
     "X must live at time index 2, got 1"),
    (lambda lat, rep: rm_evaluate(rep, coordinate_process(fix_a_lattice(), 2)),
     "X lives on a different lattice"),
    (lambda lat, rep: partition_combine(lat, 1, []), "need at least one piece"),
    (lambda lat, rep: partition_combine(lat, 1, [(coordinate_process(lat, 2), [0]),
                                                 (coordinate_process(lat, 1), [1])]),
     "pieces must share the lattice and time index"),
    (lambda lat, rep: strong_convexity_check(rep, coordinate_process(lat, 2),
                                             coordinate_process(lat, 2),
                                             RandomVariable(lat, 1, np.zeros(2))),
     "the weight f must live at time s"),
    (lambda lat, rep: DualRep(0, True, rep.components), "time index True is not an integer"),
    (lambda lat, rep: DualRep(True, 2, sublinear_rep(s=1)[1].components),
     "time index True is not an integer"),
    (lambda lat, rep: DualRep(0, 2.0, rep.components), "time index 2.0 is not an integer"),
    (lambda lat, rep: DualRep(1.0, 2, sublinear_rep(s=1)[1].components),
     "time index 1.0 is not an integer"),
    (lambda lat, rep: partition_combine(lat, 1.0, [(coordinate_process(lat, 2), [0, 1])]),
     "time index 1.0 is not an integer"),
    (lambda lat, rep: partition_combine(lat, 1, [(coordinate_process(lat, 2), [0, True])]),
     "node index True is not an integer"),
    (lambda lat, rep: partition_combine(lat, 1, [(coordinate_process(lat, 2), [0, 1.0])]),
     "node index 1.0 is not an integer"),
], ids=["no-components", "s-after-t", "wrong-time", "foreign-variable", "no-pieces",
        "mixed-pieces", "weight-off-s", "bool-t", "bool-s", "float-t", "float-s",
        "partition-float", "partition-bool-node", "partition-float-node"])
def test_malformed_representations_and_queries_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(*_fix_a_rep())
