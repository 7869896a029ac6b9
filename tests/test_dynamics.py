import hashlib
from math import prod

import numpy as np
import pytest

from riskdesk import dynamics
from riskdesk.acceptance import _random_dynamic
from riskdesk.dynamics import (
    OneStepStructure,
    acceptance_decompose,
    check_cocycle,
    dual_form_violation,
    expand_dual,
    onestep_from_json,
    onestep_to_json,
    recursion_violation,
    supermartingale_check,
)
from riskdesk.fixtures import (
    fix_a_family,
    fix_a_lattice,
    iid_binary_measure,
    random_lattice,
    random_measure,
    random_rv,
)
from riskdesk.lattice import (RandomVariable, _backward, _induct, coordinate_process, lift,
                              uniform_tree)
from riskdesk.measures import Measure, conditional_expectation
from riskdesk.risk import DualRep, minimal_penalty, rm_evaluate
from riskdesk.stability import rectangular_hull, robust_evaluate


def menu_dynamic(root_shift=0.0, lat=None):
    """Two-period binary lattice with the same two-entry menu at every node."""
    if lat is None:
        lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    shifted = tuple((w, a + root_shift) for w, a in menu)
    choices = ((shifted,), (menu, menu))
    return lat, OneStepStructure(lat, choices)


def sparse_kernel(rng, b):
    """Random kernel on b children with some zero weights, never all zero."""
    w = rng.dirichlet(np.ones(b))
    w[rng.random(b) < 0.4] = 0.0
    if not w.any():
        w[rng.integers(b)] = 1.0
    return w / w.sum()


def zero_penalty_member(lat, p_up):
    kernel = np.array([p_up, 1.0 - p_up])
    return Measure(lat, ((kernel,), (kernel, kernel)))


def test_rho_hand_recursion():
    lat, dyn = menu_dynamic()
    B2 = coordinate_process(lat, 2)
    # u node: max(-1, -1.3); d node: max(1, 0.7); root: max(0, -0.3)
    assert np.array_equal(dyn.rho(1, 2, B2).values, [-1.0, 1.0])
    assert dyn.rho(0, 2, B2).values[0] == 0.0
    assert dyn.rho(2, 2, B2).values.tolist() == [-2.0, 0.0, 0.0, 2.0]


def test_rho_normalized_at_zero():
    lat, dyn = menu_dynamic()
    zero = RandomVariable(lat, 2, np.zeros(4))
    for s in range(3):
        assert np.all(dyn.rho(s, 2, zero).values == 0.0)


def test_lifted_variables_collapse():
    lat, dyn = menu_dynamic()
    Y = RandomVariable(lat, 1, np.array([0.7, -0.2]))
    got = dyn.rho(1, 2, lift(Y, 2))
    assert np.max(np.abs(got.values + Y.values)) <= 1e-12


def test_expand_dual_enumerates_selections():
    lat, dyn = menu_dynamic()
    rep = expand_dual(dyn, 0, 2)
    assert len(rep.components) == 8
    rng = np.random.default_rng(14)
    for _ in range(20):
        X = random_rv(lat, 2, rng)
        assert np.max(np.abs(rm_evaluate(rep, X).values
                             - dyn.rho(0, 2, X).values)) <= 1e-12
    with pytest.raises(ValueError, match="cap"):
        expand_dual(dyn, 0, 2, cap=4)
    # 2**127 selections, which an int64 product wraps to 0, under any cap
    deep = uniform_tree(np.arange(8) / 7, [1.0, -1.0])
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    structure = OneStepStructure(deep, tuple((menu,) * deep.n_nodes(k) for k in range(7)))
    with pytest.raises(ValueError, match=f"count {2 ** 127} exceeds cap 4096"):
        expand_dual(structure, 0, 7)


def test_expand_dual_penalties():
    lat, dyn = menu_dynamic()
    rep = expand_dual(dyn, 0, 2)
    # the all-choice-0 selection is the iid 0.5 measure at zero penalty
    fair = zero_penalty_member(lat, 0.5)
    assert np.all(minimal_penalty(rep, fair).values == 0.0)
    # the all-choice-1 selection pays 0.1 at the root plus 0.1 one step later
    biased = zero_penalty_member(lat, 0.6)
    assert minimal_penalty(rep, biased).values[0] == pytest.approx(0.2, abs=1e-9)


def test_expand_dual_infinite_penalty_behind_null_branch():
    # the root never moves up, so node (1,0) is null; its +inf choice must
    # not turn the root penalty into 0 * inf = NaN
    lat = uniform_tree([0, 1, 2], [1, -1])
    fair = np.array([0.5, 0.5])
    choices = (((((np.array([0.0, 1.0]), 0.0),),),
               (((fair, 0.0), (np.array([0.75, 0.25]), np.inf)),
                ((fair, 0.0), (np.array([0.25, 0.75]), 0.25)))))
    dyn = OneStepStructure(lat, choices)
    rep = expand_dual(dyn, 0, 2)
    assert all(np.isfinite(alpha.values[0]) for _, alpha in rep.components)
    X = RandomVariable(lat, 2, np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.array_equal(rm_evaluate(rep, X).values, dyn.rho(0, 2, X).values)


def test_rho_matches_expanded_dual_on_ragged_trees():
    # mixed branching, zero kernel weights and +inf menu choices
    rng = np.random.default_rng(59)
    for _ in range(6):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        n_inner = sum(lat.n_nodes(k) for k in range(lat.terminal))
        split = set(rng.choice(n_inner, size=min(5, n_inner), replace=False).tolist())
        levels, at = [], 0
        for k in range(lat.terminal):
            level = []
            for b in np.diff(lat.offsets[k]):
                menu = [(sparse_kernel(rng, b), float(rng.uniform(0.0, 0.5)))
                        for _ in range(1 + (at in split) * int(rng.integers(1, 3)))]
                if len(menu) > 1:
                    menu.insert(int(rng.integers(len(menu))),
                                (sparse_kernel(rng, b), np.inf))
                level.append(tuple(menu))
                at += 1
            levels.append(tuple(level))
        dyn = OneStepStructure(lat, tuple(levels))
        for t in range(lat.n_times):
            X = random_rv(lat, t, rng)
            for s in range(t + 1):
                via_dual = rm_evaluate(expand_dual(dyn, s, t), X).values
                assert np.max(np.abs(via_dual - dyn.rho(s, t, X).values)) <= 1e-12


def test_cocycle_identity_and_degenerate_split():
    lat, dyn = menu_dynamic()
    rep02, rep01, rep12 = (expand_dual(dyn, r, t) for r, t in ((0, 2), (0, 1), (1, 2)))
    for Q in (zero_penalty_member(lat, 0.5), zero_penalty_member(lat, 0.6),
              iid_binary_measure(lat, 0.55)):
        res, bad = check_cocycle(rep02, rep01, rep12, Q)
        assert not np.any(bad)
        assert np.max(np.abs(res.values)) <= 1e-9
    # s = t collapses the conditional term to the trivial zero penalty
    rep22 = expand_dual(dyn, 2, 2)
    res, bad = check_cocycle(rep02, rep02, rep22, zero_penalty_member(lat, 0.5))
    assert not np.any(bad) and np.max(np.abs(res.values)) <= 1e-12


def test_cocycle_indeterminate_mask():
    lat, dyn = menu_dynamic()
    rep02, rep01, rep12 = (expand_dual(dyn, r, t) for r, t in ((0, 2), (0, 1), (1, 2)))
    res, bad = check_cocycle(rep02, rep01, rep12, iid_binary_measure(lat, 0.9))
    assert bool(bad[0])
    assert res.values[0] == 0.0


def test_cocycle_detects_root_penalty_shift():
    lat = fix_a_lattice()
    delta = 0.05
    _, shifted = menu_dynamic(root_shift=delta, lat=lat)
    _, clean = menu_dynamic(lat=lat)
    rep02 = expand_dual(shifted, 0, 2)
    rep01, rep12 = expand_dual(clean, 0, 1), expand_dual(clean, 1, 2)
    res, bad = check_cocycle(rep02, rep01, rep12, zero_penalty_member(lat, 0.6))
    assert not np.any(bad)
    assert abs(res.values[0]) == pytest.approx(delta, abs=1e-9)


def random_menu_dynamic(rng, normalized=False):
    """Ragged random tree with 1-3 sparse kernel choices per node; when
    normalized, choice 0 is free.  Returns the law of choice 0 as well."""
    lat = random_lattice(rng, max_periods=4, max_branch=4)
    levels = []
    for k in range(lat.terminal):
        level = []
        for b in np.diff(lat.offsets[k]):
            menu = [(sparse_kernel(rng, b), float(rng.uniform(0.0, 0.5)))
                    for _ in range(int(rng.integers(1, 4)))]
            if normalized:
                menu[0] = (menu[0][0], 0.0)
            level.append(tuple(menu))
        levels.append(tuple(level))
    structure = OneStepStructure(lat, tuple(levels))
    P = Measure(lat, tuple(lat.per_node(k, w[0]) for k, w in enumerate(structure.flat_kernels)))
    return lat, structure, P


class BentDynamic(OneStepStructure):
    """Not time consistent: every evaluation is bent by (t - s)^2 * 1e-3 * G^2."""

    def _rho(self, s, t, g):
        out = super()._rho(s, t, g)
        return out + 1e-3 * (t - s) ** 2 * out * out


class RaisedPenaltyDynamic(OneStepStructure):
    """The recursion with the root's first menu penalty raised by 0.05; the
    stored penalties, which expand_dual reads, keep the original one."""

    def _rho(self, s, t, g):
        penalties = list(self.flat_penalties)
        penalties[0] = penalties[0] + np.eye(*penalties[0].shape)[:, :1] * 0.05
        return _backward(self.lattice, s, g, self.flat_kernels[s:t], penalties[s:t])


def expandable_dates(dyn, cap=256):
    """The dates t whose expansion from r = 0, the largest, has at most
    ``cap`` selections, which keeps the reference loop fast."""
    sizes = dyn.sizes
    return [t for t in range(dyn.lattice.n_times)
            if prod(int(n) for u in range(t) for n in sizes[u]) <= cap]


def per_position_dual_form(dyn, Xs):
    """Reference: one expansion and one rho per position and date r; the
    witness (position index, r, node) is the first to attain the max."""
    worst, witness = 0.0, None
    for i, X in enumerate(Xs):
        for r in range(X.t + 1):
            gap = np.abs(dyn.rho(r, X.t, X).values
                         - rm_evaluate(expand_dual(dyn, r, X.t), X).values)
            node = int(np.argmax(gap))
            if gap[node] > worst or witness is None:
                worst, witness = float(gap[node]), (i, r, node)
    return worst, witness


def test_dual_form_violation_matches_the_per_position_loop():
    rng = np.random.default_rng(83)
    gaps = []
    for _ in range(40):
        lat, dyn, _ = random_menu_dynamic(rng)
        dates = expandable_dates(dyn)
        Xs = [random_rv(lat, int(rng.choice(dates)), rng)
              for _ in range(int(rng.integers(1, 9)))]
        Xs += Xs[:2]  # repeated positions tie; the first one is the witness
        worst, witness = dual_form_violation(dyn, Xs)
        assert (worst, witness) == per_position_dual_form(dyn, Xs)
        gaps.append(worst)
    assert max(gaps) <= 1e-12
    assert max(gaps) > 0.0  # two code paths, not one run twice
    assert dual_form_violation(dyn, []) == (0.0, None)
    with pytest.raises(ValueError, match="different lattice"):
        dual_form_violation(dyn, [random_rv(fix_a_lattice(), 2, rng)])


@pytest.mark.parametrize("kind", [BentDynamic, RaisedPenaltyDynamic])
def test_dual_form_violation_flags_an_inconsistent_recursion(kind):
    lat, dyn = menu_dynamic()
    rng = np.random.default_rng(19)
    Xs = [random_rv(lat, t, rng) for t in (0, 1, 2) for _ in range(5)]
    assert dual_form_violation(dyn, Xs)[0] <= 1e-12
    bent = kind._from_flat(lat, dyn.flat_kernels, dyn.flat_penalties, dyn.sizes)
    worst, (i, r, node) = dual_form_violation(bent, Xs)
    assert worst > 1e-3
    if kind is RaisedPenaltyDynamic:
        assert worst == pytest.approx(0.05, abs=1e-12)
        assert (r, node) == (0, 0)


def pairwise_supermartingale(dyn, X, P, grid):
    """Reference: one rho per grid date and one conditional expectation per
    pair of dates."""
    rhos = {s: dyn.rho(s, X.t, X) for s in grid}
    worst = -np.inf
    for a, s in enumerate(grid):
        for sp in grid[a + 1:]:
            gap = conditional_expectation(rhos[sp], P, s).values - rhos[s].values
            worst = max(worst, float(np.max(gap)))
    return worst


def test_supermartingale_check_matches_the_pairwise_passes(monkeypatch):
    rng = np.random.default_rng(89)
    for _ in range(30):
        lat, dyn, P = random_menu_dynamic(rng, normalized=True)
        T = lat.terminal
        for t in (T, T - 1):
            X = random_rv(lat, t, rng)
            grids = [sorted(set(g)) for g in
                     (range(t + 1), [0, t], [1, t], [0, 1], [t - 1], [])]
            assert supermartingale_check(dyn, X, P) == \
                pairwise_supermartingale(dyn, X, P, grids[0])
            # a tolerance of 1 admits any law, under which a gap over
            # distant dates can exceed the gaps between neighbouring ones
            Q = random_measure(lat, rng)
            for grid in grids:
                assert supermartingale_check(dyn, X, P, grid) == \
                    pairwise_supermartingale(dyn, X, P, grid)
                with monkeypatch.context() as m:
                    m.setattr(dynamics, "_ZERO_PENALTY_TOL", 1.0)
                    assert supermartingale_check(dyn, X, Q, grid) == \
                        pairwise_supermartingale(dyn, X, Q, grid)


@pytest.mark.parametrize("grid, date", [([0, 2, 1], 1), ([0, 1, 1], 1),
                                        ([0, 3], 3), ([-1, 2], -1)])
def test_supermartingale_check_rejects_bad_grids(grid, date):
    lat, dyn = menu_dynamic()
    X = coordinate_process(lat, 2)
    with pytest.raises(ValueError, match=f"grid date {date} is not strictly increasing"):
        supermartingale_check(dyn, X, zero_penalty_member(lat, 0.5), grid)


def test_recursion_violation_for_unstable_family():
    # sup over {iid 0.5, iid 0.6} without pasting is not time consistent
    lat, q1, q2, _ = fix_a_family()
    zeros = {s: RandomVariable(lat, s, np.zeros(lat.n_nodes(s))) for s in (0, 1)}
    reps = {
        (s, t): DualRep(s, t, ((q1, zeros[s]), (q2, zeros[s])))
        for s, t in ((0, 2), (0, 1), (1, 2))
    }
    X = RandomVariable(lat, 2, np.array([0.0, 1.0, 1.0, 0.0]))
    viol = recursion_violation(reps[(0, 2)], reps[(0, 1)], reps[(1, 2)], [X])
    assert viol == pytest.approx(0.04, abs=1e-12)
    assert viol > 0.01


@pytest.mark.parametrize("rt, rs, st", [((0, 2), (1, 2), (2, 2)), ((0, 2), (0, 1), (0, 2)),
                                       ((0, 1), (0, 1), (1, 2))],
                         ids=["rs-starts-after-r", "st-starts-off-s", "st-ends-off-t"])
def test_representations_that_do_not_chain_are_rejected(rt, rs, st):
    # recursion_violation used to broadcast a (1,)-array against a (2,)-array
    lat, q1, q2, _ = fix_a_family()
    reps = [DualRep(s, t, tuple((Q, RandomVariable(lat, s, np.zeros(lat.n_nodes(s))))
                                for Q in (q1, q2))) for s, t in (rt, rs, st)]
    X = RandomVariable(lat, rt[1], np.arange(lat.n_nodes(rt[1]), dtype=float))
    with pytest.raises(ValueError, match="do not chain"):
        recursion_violation(*reps, [X])
    with pytest.raises(ValueError, match="do not chain"):
        check_cocycle(*reps, q1)


def test_acceptance_decompose():
    lat, dyn = menu_dynamic()
    rng = np.random.default_rng(25)
    Q = zero_penalty_member(lat, 0.5)
    for _ in range(20):
        X0 = random_rv(lat, 2, rng)
        X = X0 + lift(dyn.rho(0, 2, X0), 2)
        Z, Y = acceptance_decompose(X, dyn, 0, 1, 2, Q)
        assert np.max(np.abs((Z + Y).values - X.values)) <= 1e-12
        assert np.all(dyn.rho(1, 2, Y).values <= 1e-9)
        assert np.all(dyn.rho(0, 2, Z).values <= 1e-9)
    bad = RandomVariable(lat, 2, np.full(4, -1.0))
    with pytest.raises(ValueError, match="not accepted"):
        acceptance_decompose(bad, dyn, 0, 1, 2, Q)


@pytest.mark.parametrize("bent_call, message", [
    (2, r"decomposition failed: Y not in the \(s,t\) acceptance set"),
    (3, "decomposition failed: Z not Q-accepted between r and s"),
], ids=["Y", "Z"])
def test_acceptance_decompose_raises_when_rho_breaks_the_decomposition(monkeypatch, bent_call,
                                                                      message):
    # rho is evaluated on X between r and t, on X between s and t, on Y and
    # on Z, in that order; a rho that reads 1.0 high on one of the last two
    # evaluations breaks the recursion the decomposition rests on
    lat, dyn = menu_dynamic()
    Q = zero_penalty_member(lat, 0.5)
    X0 = random_rv(lat, 2, np.random.default_rng(25))
    X = X0 + lift(dyn.rho(0, 2, X0), 2)
    rho, calls = OneStepStructure.rho, []

    def bent(self, s, t, V):
        calls.append((s, t))
        return rho(self, s, t, V) + (1.0 if len(calls) == bent_call + 1 else 0.0)

    monkeypatch.setattr(OneStepStructure, "rho", bent)
    with pytest.raises(RuntimeError, match=message):
        acceptance_decompose(X, dyn, 0, 1, 2, Q)
    assert calls == [(0, 2), (1, 2), (1, 2), (0, 2)][:bent_call + 1]


def test_supermartingale_under_reference():
    lat, dyn = menu_dynamic()
    P = zero_penalty_member(lat, 0.5)
    rng = np.random.default_rng(31)
    for _ in range(20):
        X = random_rv(lat, 2, rng)
        assert supermartingale_check(dyn, X, P) <= 1e-9


def test_supermartingale_rejects_non_selection():
    lat, dyn = menu_dynamic()
    not_a_choice = zero_penalty_member(lat, 0.7)
    X = coordinate_process(lat, 2)
    with pytest.raises(ValueError, match=r"\(0,0\)"):
        supermartingale_check(dyn, X, not_a_choice)
    # penalty 0.1 selection exists but is not free, so it does not qualify
    biased = zero_penalty_member(lat, 0.6)
    with pytest.raises(ValueError):
        supermartingale_check(dyn, X, biased)


def per_node_backward(lat, s, values, weights, penalties):
    """``_backward`` node by node on 1-D values: per choice, the sum over
    positive-weight children of weight times value, less the penalty."""
    g = list(values)
    for u in range(s + len(weights) - 1, s - 1, -1):
        w, a, off = weights[u - s], penalties[u - s], lat.offsets[u]
        g = [max(sum(w[j, c] * g[c] for c in range(off[i], off[i + 1]) if w[j, c] > 0)
                 - a[j, i] for j in range(len(w))) for i in range(lat.n_nodes(u))]
    return np.array(g, dtype=float)


def test_backward_reruns_guarded_when_an_infinite_penalty_meets_a_zero_weight():
    # dyadic weights and integer values, so both sums are exact: node (1,1)
    # has only +inf penalties, and the root's choice 0 gives it weight 0
    lat = uniform_tree([0, 1, 2], [1, -1])
    weights = [np.array([[1.0, 0.0], [0.5, 0.5]]),
               np.array([[0.5, 0.5, 0.25, 0.75], [0.75, 0.25, 0.5, 0.5]])]
    penalties = [np.array([[0.0], [1.0]]), np.array([[0.0, np.inf], [0.5, np.inf]])]
    values = np.array([[4.0, -2.0, 8.0, 1.0], [-3.0, 5.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"):  # the unguarded pass makes 0 * -inf = NaN
        assert np.isnan(_induct(lat, 0, values, weights, penalties, guard=False)).all()
    got = _backward(lat, 0, values, weights, penalties)
    assert np.isfinite(got).all()
    for row, g in zip(values, got):
        assert g.tobytes() == per_node_backward(lat, 0, row, weights, penalties).tobytes()
    # infinite inputs behind zero and positive weights: the guarded pass only
    inf_values = np.array([[1.0, np.inf, -np.inf, 2.0], [3.0, 1.0, -np.inf, 2.0]])
    weights[1] = np.array([[1.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5]])
    penalties[1] = np.array([[0.0, 0.0], [0.25, 1.0]])
    for u in (0, 1):
        got = _backward(lat, u, inf_values, weights[u:], penalties[u:])
        for row, g in zip(inf_values, got):
            assert g.tobytes() == per_node_backward(lat, u, row, weights[u:],
                                                    penalties[u:]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_infinite_value_never_meets_a_plus_inf_penalty_as_nan():
    # +inf - +inf would be NaN and win the max over choices; a +inf-penalty
    # choice never attains it, so node (1,0) keeps choice 0's +inf
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), np.inf))
    st = OneStepStructure(lat, ((menu,), (menu, menu)))
    assert np.array_equal(st._rho(1, 2, np.array([np.inf, 1.0, 2.0, 3.0])), [np.inf, 2.5])
    assert np.array_equal(st._rho(0, 2, np.array([np.inf, 1.0, 2.0, 3.0])), [np.inf])
    assert np.array_equal(st._rho(0, 2, np.array([-np.inf, 1.0, 2.0, 3.0])), [-np.inf])


def test_supermartingale_check_names_a_deep_failing_node():
    # menus of 1, 3 and 2 choices by level; P is fair wherever it is free
    lat = uniform_tree([0, 1, 2, 3], [1, -1])
    fair, up, down = np.array([0.5, 0.5]), np.array([0.75, 0.25]), np.array([0.25, 0.75])
    menus = (((fair, 0.0),), ((fair, 0.0), (up, 0.1), (down, 0.0)), ((fair, 0.0), (up, 0.2)))
    dyn = OneStepStructure(lat, tuple((menus[k],) * lat.n_nodes(k) for k in range(3)))
    X = coordinate_process(lat, 3)

    def law(**at):
        return Measure(lat, tuple(tuple(at.get(f"n{k}{i}", fair) for i in range(lat.n_nodes(k)))
                                  for k in range(3)))

    assert supermartingale_check(dyn, X, law(n11=down)) <= 1e-9
    with pytest.raises(ValueError, match=r"node \(2,3\)"):
        supermartingale_check(dyn, X, law(n11=down, n23=up))
    with pytest.raises(ValueError, match=r"node \(1,0\)"):
        supermartingale_check(dyn, X, law(n10=up, n23=up))


FOREIGN_CALLS = {
    "rho": lambda dyn, X, Q: dyn.rho(0, 2, X),
    "robust_evaluate": lambda dyn, X, Q: robust_evaluate(dyn, X, 0),
    "supermartingale_check": lambda dyn, X, Q: supermartingale_check(dyn, X, Q),
    "acceptance_decompose": lambda dyn, X, Q: acceptance_decompose(X, dyn, 0, 1, 2, Q),
}


@pytest.mark.parametrize("call, foreign", [("rho", "X"), ("robust_evaluate", "X"),
                                           ("supermartingale_check", "X"),
                                           ("supermartingale_check", "Q"),
                                           ("acceptance_decompose", "Q")])
def test_structure_inputs_from_another_lattice_are_rejected(call, foreign):
    # a second lattice of the same shape, on which every array would broadcast
    lat, dyn = menu_dynamic()
    other = fix_a_lattice()
    X = coordinate_process(other if foreign == "X" else lat, 2)
    Q = zero_penalty_member(other if foreign == "Q" else lat, 0.5)
    with pytest.raises(ValueError, match="different lattices"):
        FOREIGN_CALLS[call](dyn, X, Q)


def test_structure_validation():
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0),)
    with pytest.raises(ValueError, match="finite-penalty"):
        OneStepStructure(lat, ((((np.array([0.5, 0.5]), np.inf),),), (menu, menu)))
    with pytest.raises(ValueError, match=">= 0"):
        OneStepStructure(lat, ((((np.array([0.5, 0.5]), -0.1),),), (menu, menu)))
    with pytest.raises(ValueError, match="shape"):
        OneStepStructure(lat, ((((np.array([0.5, 0.3, 0.2]), 0.0),),), (menu, menu)))
    # a root whose least penalty is 0.2: no law is a zero-penalty selection
    unnormalized = OneStepStructure(lat, ((((np.array([0.5, 0.5]), 0.2),),), (menu, menu)))
    with pytest.raises(ValueError, match=r"zero-penalty selection at node \(0,0\)"):
        supermartingale_check(unnormalized, coordinate_process(lat, 2),
                              iid_binary_measure(lat, 0.5))


def test_structure_rejects_negative_weights_and_nan_penalties():
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0),)
    with pytest.raises(ValueError, match="non-negative"):
        OneStepStructure(lat, ((((np.array([1.5, -0.5]), 0.0),),), (menu, menu)))
    with pytest.raises(ValueError, match=">= 0"):
        OneStepStructure(lat, ((((np.array([0.5, 0.5]), np.nan),),), (menu, menu)))
    with_inf = ((np.array([0.5, 0.5]), 0.0), (np.array([1.0, 0.0]), np.inf))
    assert np.isinf(OneStepStructure(lat, ((with_inf,), (menu, menu))).flat_penalties[0][1, 0])


def test_structure_arrays_are_read_only():
    # the scan's side-by-side layouts are built once from the stored menus,
    # so an edit in place would leave them apart
    lat, dyn = menu_dynamic()
    hull = rectangular_hull([zero_penalty_member(lat, 0.5), zero_penalty_member(lat, 0.6)])
    X, P = coordinate_process(lat, 2), zero_penalty_member(lat, 0.5)
    for st in (dyn, hull):
        gap = supermartingale_check(st, X, P)
        for a in (*st.flat_kernels, *st.flat_penalties, *st.sizes, *st._side_by_side):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
        assert supermartingale_check(st, X, P) == gap
    assert hull._recursion_penalties is None and dyn._recursion_penalties is dyn.flat_penalties
    # -0.0 - (-0.0) is +0.0, so a -0.0 penalty is still subtracted
    signed = ((np.array([0.5, 0.5]), -0.0),)
    assert OneStepStructure(lat, ((signed,), (signed, signed)))._recursion_penalties is not None


MENU = ((np.array([0.5, 0.5]), 0.0),)


@pytest.mark.parametrize("build, message", [
    (lambda lat: OneStepStructure(lat, ((MENU,),)),
     "one choice level per non-terminal time index"),
    (lambda lat: OneStepStructure(lat, ((MENU,), (MENU,))),
     "time index 1: one menu per node required"),
    (lambda lat: OneStepStructure(lat, ((((np.zeros(2), 0.0),),), (MENU, MENU))),
     "kernel weights must have a positive sum"),
    (lambda lat: menu_dynamic(lat=lat)[1].rho(0, 2, coordinate_process(lat, 1)),
     "X must live at time index 2"),
], ids=["level-count", "menu-count", "zero-kernel", "X-time"])
def test_malformed_structures_and_queries_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(fix_a_lattice())


def test_onestep_json_round_trip():
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    inf_menu = ((np.array([0.5, 0.5]), 0.0), (np.array([1.0, 0.0]), np.inf))
    structure = OneStepStructure(lat, ((inf_menu,), (menu, menu)))
    back = onestep_from_json(onestep_to_json(structure), lat)
    assert np.isinf(back.flat_penalties[0][1, 0])
    B2 = coordinate_process(lat, 2)
    assert np.array_equal(back.rho(0, 2, B2).values, structure.rho(0, 2, B2).values)


def test_onestep_json_golden():
    lat = fix_a_lattice()
    menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
    entries = ('{"penalty": 0.0, "weights": [0.5, 0.5]}, '
               '{"penalty": 0.1, "weights": [0.6, 0.4]}')
    assert onestep_to_json(OneStepStructure(lat, ((menu,), (menu, menu)))) == (
        '{"choices": [[[%s]], [[%s], [%s]]]}' % (entries, entries, entries))
    # a +inf penalty, and a ragged one-choice menu at node (1,1)
    inf_menu = ((np.array([0.5, 0.5]), 0.0), (np.array([1.0, 0.0]), np.inf))
    ragged = OneStepStructure(lat, ((inf_menu,), (menu, (menu[1],))))
    assert onestep_to_json(ragged) == (
        '{"choices": [[[{"penalty": 0.0, "weights": [0.5, 0.5]}, '
        '{"penalty": "inf", "weights": [1.0, 0.0]}]], [[%s], '
        '[{"penalty": 0.1, "weights": [0.6, 0.4]}]]]}' % entries)
    assert [size.tolist() for size in ragged.sizes] == [[2], [2, 1]]


# sha256 over every component of expand_dual(dyn, r, t), all r <= t, of its
# kernels, node probabilities and penalties, at acceptance._random_dynamic
# seeds 0-2: the digests of the expansion that built and validated one
# Measure per selection
EXPANSION_DIGESTS = {
    0: "8be1a68b962f3bb0ed887a7486e171cd89848ac98c29a670f236d1dd91e6758b",
    1: "556692f2c21956957376eacc66bf110156443cb42660e1e18d84078d872b502b",
    2: "d295396e5313863b8b6001f8051cd423a9814e3db4c34efab61c02b46405b1f6",
}


@pytest.mark.parametrize("seed", sorted(EXPANSION_DIGESTS))
def test_expand_dual_matches_its_golden_digest(seed):
    lat, dyn = _random_dynamic(np.random.default_rng(seed))
    digest = hashlib.sha256()
    for t in range(lat.terminal + 1):
        for r in range(t + 1):
            rep = expand_dual(dyn, r, t)
            for k, (Q, alpha) in enumerate(rep.components):
                for a in (*Q.flat_kernels,
                          *(Q.node_probabilities(u) for u in range(lat.n_times)),
                          alpha.values):
                    digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
                # the stacked arrays the evaluators read are the same bits
                assert all(np.array_equal(w[k], Q.flat_kernels[u])
                           for u, w in enumerate(rep.kernels, r))
                assert np.array_equal(rep.penalties[k], alpha.values)
    assert digest.hexdigest() == EXPANSION_DIGESTS[seed]
