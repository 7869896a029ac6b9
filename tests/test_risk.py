import os
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from riskdesk import risk
from riskdesk.fixtures import (
    fix_a_family,
    iid_binary_measure,
    random_lattice,
    random_measure,
    random_rv,
)
from riskdesk.lattice import RandomVariable, coordinate_process, lift
from riskdesk.measures import (
    Measure,
    conditional_expectation,
    mix_measures,
    reference_measure,
)
from riskdesk.oracles import conjugate_box_oracle, conjugate_grid_oracle
from riskdesk.risk import (
    DualRep,
    acceptance_check,
    dualrep_from_json,
    dualrep_to_json,
    minimal_penalty,
    partition_combine,
    rm_evaluate,
    strong_convexity_check,
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
    _, q1, q2, _ = fix_a_family()
    assert np.all(minimal_penalty(rep, q1).values == 0.0)
    assert np.all(minimal_penalty(rep, q2).values == 0.0)
    mixed = mix_measures([q1, q2], [0.5, 0.5])
    assert np.max(np.abs(minimal_penalty(rep, mixed).values)) <= 1e-9


def test_minimal_penalty_unreachable_is_inf():
    # i.i.d. up-prob 0.9 puts mass 0.81 on uu, beyond any member mixture
    lat, rep = sublinear_rep(s=0)
    assert np.all(np.isinf(minimal_penalty(rep, iid_binary_measure(lat, 0.9)).values))


def test_minimal_penalty_restriction_discipline():
    lat, q1, q2, fam = fix_a_family()
    ref = reference_measure(fam)
    zeros = RandomVariable(lat, 1, np.zeros(2))
    rep = DualRep(1, 2, ((q1, zeros), (q2, zeros)), reference=ref.measure)
    with pytest.raises(ValueError, match="restriction"):
        minimal_penalty(rep, q2)
    assert np.all(minimal_penalty(rep, ref.measure).values <= 1e-9)


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


def _no_highs(*args):
    raise AssertionError("a node under the basis cap went to HiGHS")


def test_enumeration_matches_highs(monkeypatch):
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
            with monkeypatch.context() as m:
                m.setattr(risk, "_highs_penalty", _no_highs)
                got = minimal_penalty(rep, Q).values
            with monkeypatch.context() as m:
                m.setattr(risk, "_MAX_BASES", 0)
                ref = minimal_penalty(rep, Q).values
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            fin = np.isfinite(ref)
            assert np.max(np.abs(got[fin] - ref[fin]), initial=0.0) <= 1e-12
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
@pytest.mark.parametrize("max_bases", [risk._MAX_BASES, 0])
def test_query_just_off_the_span_is_inf(monkeypatch, nudge, max_bases):
    # between the pinned tolerance and HiGHS's default feasibility tolerance
    # of 1e-7 too: enumeration and HiGHS draw the same +inf boundary
    monkeypatch.setattr(risk, "_MAX_BASES", max_bases)
    lat, q1, q2, _ = fix_a_family()
    _, rep = sublinear_rep(s=0)
    mixed = mix_measures([q1, q2], [0.5, 0.5])
    assert np.all(np.isfinite(minimal_penalty(rep, mixed).values))
    root, (up, down) = mixed.kernels
    nudged = Measure(lat, (root, (up + np.array([nudge, -nudge]), down)))
    assert np.all(np.isinf(minimal_penalty(rep, nudged).values))


def test_near_duplicate_components_match_highs(monkeypatch):
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
            with monkeypatch.context() as m:
                m.setattr(risk, "_highs_penalty", _no_highs)
                got = minimal_penalty(rep, Q).values
            with monkeypatch.context() as m:
                m.setattr(risk, "_MAX_BASES", 0)
                ref = minimal_penalty(rep, Q).values
            assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
            # the clusters' conditioning, about 1e5, amplifies the rounding
            # of both paths
            assert np.max(np.abs(got - ref)) <= 1e-8
        assert np.all(minimal_penalty(rep, members[0]).values == 0.0)


def test_above_the_basis_cap_falls_back_to_highs(monkeypatch):
    # 16 random laws on the 4 leaves of a binary two-period tree have rank
    # 4, so the root has C(16, 4) bases
    rng = np.random.default_rng(37)
    lat = fix_a_family()[0]
    members = [random_measure(lat, rng) for _ in range(16)]
    pens = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 15)])
    rep = DualRep(0, 2, tuple((Q, RandomVariable(lat, 0, np.array([a])))
                              for Q, a in zip(members, pens)))
    assert comb(16, 4) > risk._MAX_BASES
    calls = []
    highs = risk._highs_penalty
    monkeypatch.setattr(risk, "_highs_penalty", lambda *a: calls.append(a) or highs(*a))
    queries = [members[3], mix_measures(members, rng.dirichlet(np.ones(16))),
               random_measure(lat, rng), iid_binary_measure(lat, 0.999)]
    fallback = [minimal_penalty(rep, Q).values for Q in queries]
    assert len(calls) == len(queries)
    monkeypatch.setattr(risk, "_MAX_BASES", comb(16, 4))
    enumerated = [minimal_penalty(rep, Q).values for Q in queries]
    assert len(calls) == len(queries)
    for got, ref in zip(enumerated, fallback):
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        fin = np.isfinite(ref)
        assert np.max(np.abs(got[fin] - ref[fin]), initial=0.0) <= 1e-12
    assert np.isinf(fallback[-1][0])


def test_highs_failure_is_not_infeasibility(monkeypatch):
    import scipy.optimize

    class Failed:
        status, message, fun = 4, "numerical difficulties", None

    _, rep = sublinear_rep(s=1)
    _, q1, _, _ = fix_a_family()
    monkeypatch.setattr(risk, "_MAX_BASES", 0)
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: Failed())
    with pytest.raises(RuntimeError, match=r"node \(1, 0\).*status 4"):
        minimal_penalty(rep, q1)


def test_penalty_under_the_cap_leaves_scipy_optimize_unloaded():
    code = ("import sys, riskdesk\n"
            "from riskdesk.fixtures import fix_a_family\n"
            "from riskdesk.lattice import RandomVariable\n"
            "lat, q1, q2, _ = fix_a_family()\n"
            "zero = RandomVariable(lat, 0, [0.0])\n"
            "rep = riskdesk.DualRep(0, 2, ((q1, zero), (q2, zero)))\n"
            "assert riskdesk.minimal_penalty(rep, q1).values[0] == 0.0\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(risk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


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
    with pytest.raises(ValueError, match="t=5 beyond"):
        DualRep(0, 5, ((q1, RandomVariable(lat, 0, np.zeros(1))),))


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
