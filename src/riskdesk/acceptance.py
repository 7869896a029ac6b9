"""Acceptance battery: eight seeded end-to-end checks, one per capability.

Each criterion function returns a report dict {name, passed, max_violation,
tolerance, details}; ``run_all`` executes the battery.  The same reports are
asserted by the test suite and emitted by the command-line runner, so there
is a single source of truth for what "working" means.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .dynamics import (
    OneStepStructure,
    acceptance_decompose,
    check_cocycle,
    dual_form_violation,
    expand_dual,
    recursion_violation,
    supermartingale_check,
)
from .fixtures import (
    fix_a_family,
    iid_binary_measure,
    random_family,
    random_lattice,
    random_measure,
    random_rv,
)
from .gexp import (
    GridSpec,
    PayoffSpec,
    VolatilityBand,
    _evolve,
    bid_ask,
    expectation_under_field,
    random_inband_field,
    robust_lattice_price,
)
from .lattice import RandomVariable, StoppingTime, lift
from .measures import (
    Measure,
    MeasureFamily,
    capacity,
    charged_mask,
    dual_witness,
    mix_measures,
    reference_measure,
)
from .oracles import (
    call_upper_value,
    conjugate_box_oracle,
    dm_grid_oracle,
    square_band_values,
    trinomial_band_oracle,
)
from .risk import DualRep, minimal_penalty
from .skorokhod import StepPath, dhat_distance, dm_distance, j1_distance
from .stability import (
    enumerate_selections,
    is_stable,
    paste,
    rectangular_hull,
)

__all__ = ["run_all", "CRITERIA"]


def _report(name: str, tolerance: float, max_violation: float, **details):
    return {
        "name": name,
        "passed": bool(max_violation <= tolerance),
        "max_violation": float(max_violation),
        "tolerance": float(tolerance),
        "details": details,
    }


def _random_dualrep(rng: np.random.Generator, zero_component: bool = False):
    """Random lattice, random components with finite non-negative penalties."""
    lat = random_lattice(rng, max_periods=3, max_branch=3)
    t = lat.terminal
    s = int(rng.integers(0, t))
    n_comp = int(rng.integers(2, 5))
    comps = []
    for k in range(n_comp):
        Q = random_measure(lat, rng)
        pen = rng.uniform(0.0, 1.0, size=lat.n_nodes(s))
        if zero_component and k == 0:
            pen = np.zeros(lat.n_nodes(s))
        comps.append((Q, RandomVariable(lat, s, pen, allow_infinite=True)))
    return lat, DualRep(s, t, tuple(comps))


def criterion_minimal_penalty(seed: int) -> Dict:
    """LP conjugate vs the definition-level box oracle on random fixtures;
    zero-penalty members price at exactly 0; an unreachable query is +inf."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact_zero_ok = True
    for trial in range(50):
        lat, rep = _random_dualrep(rng, zero_component=(trial % 2 == 0))
        queries = [rep.components[0][0],
                   mix_measures([Q for Q, _ in rep.components],
                                rng.dirichlet(np.ones(len(rep.components)))),
                   random_measure(lat, rng)]
        for Q in queries:
            lp = minimal_penalty(rep, Q).values
            oracle = conjugate_box_oracle(rep, Q)
            both_inf = np.isinf(lp) & np.isinf(oracle)
            with np.errstate(invalid="ignore"):
                gap = np.where(both_inf, 0.0, np.abs(lp - oracle))
            if np.any(np.isinf(gap)):
                worst = np.inf
            else:
                worst = max(worst, float(np.max(gap)))
        if trial % 2 == 0:
            zero_pen = minimal_penalty(rep, rep.components[0][0]).values
            exact_zero_ok &= bool(np.all(zero_pen == 0.0))
    lat_a, q1, q2, _ = fix_a_family()
    zeros = RandomVariable(lat_a, 0, np.zeros(1))
    rep_a = DualRep(0, 2, ((q1, zeros), (q2, zeros)))
    unreachable = minimal_penalty(rep_a, iid_binary_measure(lat_a, 0.9)).values
    inf_ok = bool(np.all(np.isinf(unreachable)))
    if not (exact_zero_ok and inf_ok):
        worst = np.inf
    return _report("minimal-penalty-conjugacy", 1e-6, worst,
                   zero_penalty_exact=exact_zero_ok, unreachable_is_inf=inf_ok)


def _random_dynamic(rng: np.random.Generator, normalized: bool = False):
    lat = random_lattice(rng, max_periods=3, max_branch=2)
    levels = []
    for k in range(lat.n_times - 1):
        level = []
        for b in np.diff(lat.offsets[k]):
            menu = []
            for j in range(int(rng.integers(1, 3))):
                w = rng.dirichlet(np.ones(b))
                w = (w + 0.05) / (1.0 + b * 0.05)
                a = 0.0 if (normalized and j == 0) else float(rng.uniform(0.0, 0.5))
                menu.append((w, a))
            level.append(tuple(menu))
        levels.append(tuple(level))
    return lat, OneStepStructure(lat, tuple(levels))


def criterion_time_consistency(seed: int) -> Dict:
    """Generated dynamics equal their dual form and satisfy the penalty
    cocycle, the recursion and cocycle checks flag deliberate penalty
    perturbations of the expanded representation, and accepted positions
    decompose across an intermediate date.

    Mixed tolerances (1e-9 dual form, 1e-6 cocycle), so the reported
    violation is the worst ratio to its own tolerance, checked against 1.
    """
    rng = np.random.default_rng(seed)
    dual_worst = 0.0
    coc_worst = 0.0
    flagged = True
    decomposed = 0
    for trial in range(20):
        lat, dyn = _random_dynamic(rng)
        T = lat.terminal
        s = int(rng.integers(1, T))
        Xs = [random_rv(lat, t, rng) for t in range(T + 1) for _ in range(100 // (T + 1) + 1)]
        dual_worst = max(dual_worst, dual_form_violation(dyn, Xs)[0])
        rep_rt = expand_dual(dyn, 0, T)
        rep_rs = expand_dual(dyn, 0, s)
        rep_st = expand_dual(dyn, s, T)
        for Q, _ in rep_rt.components:
            res, bad = check_cocycle(rep_rt, rep_rs, rep_st, Q)
            if not np.all(bad):
                coc_worst = max(coc_worst, float(np.max(np.abs(res.values[~bad]))))
        # deliberate perturbation: shift every component's root penalty by delta
        delta = float(rng.uniform(0.01, 0.1))
        comps = tuple(
            (Q, RandomVariable(lat, 0, a.values + delta, allow_infinite=True))
            for Q, a in rep_rt.components
        )
        rep_bad = DualRep(0, T, comps)
        Xt = [random_rv(lat, T, rng) for _ in range(5)]
        rec_vio = recursion_violation(rep_bad, rep_rs, rep_st, Xt)
        Q0 = rep_rt.components[0][0]
        res_bad, bad = check_cocycle(rep_bad, rep_rs, rep_st, Q0)
        coc_vio = float(np.max(np.abs(res_bad.values[~bad]))) if not np.all(bad) else 0.0
        flagged &= rec_vio > 1e-3 and coc_vio > 1e-3
        # accepted positions split as Z + Y across the intermediate date
        for _ in range(3):
            X0 = random_rv(lat, T, rng)
            X = X0 + lift(dyn.rho(0, T, X0), T)
            Z, Y = acceptance_decompose(X, dyn, 0, s, T, Q0)
            recomposed = Z.values + Y.values
            if np.max(np.abs(recomposed - X.values)) <= 1e-12:
                decomposed += 1
    ratio = max(dual_worst / 1e-9, coc_worst / 1e-6)
    if not flagged or decomposed < 50:
        ratio = np.inf
    return _report("time-consistency-equivalence", 1.0, ratio,
                   dual_form_violation=dual_worst, dual_form_tolerance=1e-9,
                   cocycle_violation=coc_worst, cocycle_tolerance=1e-6,
                   perturbations_flagged=flagged, decompositions=decomposed)


def criterion_robust_dp(seed: int) -> Dict:
    """Backward robust recursion equals the selection-enumeration oracle;
    factorization across an intermediate date and conditional positive
    homogeneity are exact."""
    from .measures import conditional_expectation

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        lat = random_lattice(rng, max_periods=3, max_branch=2)
        T = lat.terminal
        rf = rectangular_hull([random_measure(lat, rng)
                               for _ in range(int(rng.integers(1, 3)))])
        X = random_rv(lat, T, rng)
        direct = rf.rho(0, T, X).values
        sels = enumerate_selections(rf, cap=256)
        oracle = np.max(np.stack(
            [conditional_expectation(-X, Q, 0).values for Q in sels]), axis=0)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
        if T > 1:
            inner = rf.rho(1, T, X)
            two_stage = rf.rho(0, 1, -inner).values
            worst = max(worst, float(np.max(np.abs(direct - two_stage))))
            w = RandomVariable(lat, 1, rng.uniform(0.0, 2.0, lat.n_nodes(1)))
            scaled = rf.rho(1, T, lift(w, T) * X).values
            worst = max(worst, float(np.max(np.abs(scaled - w.values * inner.values))))
    return _report("robust-dp-oracle", 1e-12, worst)


def criterion_pasting(seed: int) -> Dict:
    """Hand-checked pasting kernels; the two-member family is not stable but
    the selections of its rectangular hull are, on every 2-period fixture."""
    rng = np.random.default_rng(seed)
    lat, q1, q2, _ = fix_a_family()
    tau = StoppingTime.deterministic(lat, 1)
    pasted = paste(q1, q2, tau)
    worst = max(
        float(np.max(np.abs(pasted.flat_kernels[0] - np.array([0.6, 0.4])))),
        float(np.max(np.abs(pasted.flat_kernels[1] - 0.5))),
    )
    pair_stable, _ = is_stable([q1, q2])
    ok = not pair_stable
    fixtures = [[q1, q2]]
    for _ in range(3):
        lat2 = random_lattice(rng, max_periods=2, max_branch=2)
        fixtures.append([random_measure(lat2, rng), random_measure(lat2, rng)])
    for members in fixtures:
        hull = rectangular_hull(members)
        sels = enumerate_selections(hull, cap=256)
        hull_stable, witness = is_stable(sels)
        ok &= hull_stable
    if not ok:
        worst = np.inf
    return _report("pasting-stability", 1e-12, worst,
                   two_member_family_stable=bool(pair_stable))


def criterion_band_pricing(seed: int) -> Dict:
    """Quantitative band prices on the reference grid, bid and ask against
    the trinomial-tree oracle, structural invariants on random payoffs, and
    domination of every in-band martingale law between bid and ask."""
    rng = np.random.default_rng(seed)
    band = VolatilityBand(0.1, 0.2)
    grid = GridSpec(dt=1e-3, h=0.01, radius=100, horizon=1.0)
    lo_sq, hi_sq = square_band_values(0.1, 0.2, 1.0)
    call_target = call_upper_value(0.2, 1.0)

    sq = lambda x: np.asarray(x) ** 2
    call = lambda x: np.maximum(np.asarray(x), 0.0)
    cube = lambda x: np.asarray(x) ** 3
    bid_sq, ask_sq, _, _ = bid_ask(sq, band, grid)
    ask_call, _ = robust_lattice_price(call, band, grid)
    # (violation, tolerance) pairs; the report checks the worst ratio <= 1
    checks = [(abs(ask_sq - hi_sq), 2e-3), (abs(ask_call - call_target), 1e-3),
              (abs(bid_sq - lo_sq), 1e-3)]

    tree_grid = GridSpec(dt=0.05, h=0.05, radius=10, horizon=0.35)  # 7 steps
    for payoff in (sq, call, cube):
        bid, ask, _, _ = bid_ask(payoff, band, tree_grid)
        oracle_bid = -trinomial_band_oracle(PayoffSpec("terminal", lambda x: -payoff(x)),
                                            band, tree_grid)
        oracle_ask = trinomial_band_oracle(PayoffSpec("terminal", payoff), band, tree_grid)
        checks += [(abs(bid - oracle_bid), 1e-12), (abs(ask - oracle_ask), 1e-12)]

    coarse = GridSpec(dt=0.01, h=0.05, radius=40, horizon=1.0)
    xs = coarse.x
    inv_worst = 0.0

    def upper(v):
        return _evolve(np.asarray(v, dtype=float), band, coarse, coarse.n_steps, 0)

    for _ in range(100):
        vx = rng.uniform(-1.0, 1.0, xs.size)
        vy = rng.uniform(-1.0, 1.0, xs.size)
        ux, uy, uxy = upper(vx), upper(vy), upper(vx + vy)
        inv_worst = max(inv_worst, float(np.max(uxy - ux - uy)))  # sublinearity
        c = float(rng.uniform(0.0, 3.0))
        inv_worst = max(inv_worst, float(np.max(np.abs(upper(c * vx) - c * ux))))
        shift = vx + np.abs(vy)  # vx <= shift pointwise
        inv_worst = max(inv_worst, float(np.max(ux - upper(shift))))
        k = int(rng.integers(1, coarse.n_steps))
        staged = _evolve(_evolve(np.asarray(vx, dtype=float), band, coarse,
                                 coarse.n_steps, k), band, coarse, k, 0)
        inv_worst = max(inv_worst, float(np.max(np.abs(staged - ux))))

    dom_worst = 0.0
    bid_c, ask_c, _, _ = bid_ask(call, band, coarse)
    for _ in range(20):
        field = random_inband_field(coarse, band, rng)
        ev = expectation_under_field(call, field, coarse)
        dom_worst = max(dom_worst, bid_c - ev, ev - ask_c)
    checks += [(inv_worst, 1e-9), (dom_worst, 1e-9)]
    ratio = max(v / tol for v, tol in checks)
    return _report("band-pricing", 1.0, ratio,
                   square_upper=hi_sq, square_lower=lo_sq,
                   call_upper=call_target, invariant_violation=inv_worst,
                   invariant_tolerance=1e-9, domination_violation=dom_worst)


def criterion_supermartingale(seed: int) -> Dict:
    """Under any zero-penalty selection law, conditional expectations of the
    running risk never increase when evaluated earlier."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(20):
        lat, dyn = _random_dynamic(rng, normalized=True)
        # choice 0 of every menu, a zero-penalty one in a normalized structure
        P = Measure(lat, tuple(lat.per_node(k, w[0]) for k, w in enumerate(dyn.flat_kernels)))
        for _ in range(50):
            X = random_rv(lat, lat.terminal, rng)
            worst = max(worst, supermartingale_check(dyn, X, P))
    return _report("supermartingale", 1e-9, max(worst, 0.0))


def criterion_capacity(seed: int) -> Dict:
    """Norm axioms of the capacity, the closed-form dual witness at p = 2 and
    the exact null characterization at reference-charged nodes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        lat = random_lattice(rng, max_periods=3, max_branch=3)
        fam = random_family(lat, rng, int(rng.integers(1, 4)),
                            p=float(rng.choice([1.0, 2.0])))
        T = lat.terminal
        X, Y = random_rv(lat, T, rng), random_rv(lat, T, rng)
        cx, cy = capacity(X, fam), capacity(Y, fam)
        worst = max(worst, capacity(X + Y, fam) - cx - cy)  # triangle
        a = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, abs(capacity(a * X, fam) - abs(a) * cx))
        absX = RandomVariable(lat, T, np.abs(X.values))
        bigger = RandomVariable(lat, T, np.abs(X.values) + np.abs(Y.values))
        worst = max(worst, capacity(absX, fam) - capacity(bigger, fam))
        if fam.p == 2.0 and cx > 0:
            w = dual_witness(X, fam)
            paired = RandomVariable(lat, T, np.abs(X.values) * w.g0.values)
            attained = max(Q.expectation(paired) for Q in fam.members)
            worst = max(worst, abs(cx - attained))

    # family whose members all skip the second child of the root
    lat, q1, q2, _ = fix_a_family()
    skew = Measure(lat, ((np.array([1.0, 0.0]),),
                         tuple(np.array([0.5, 0.5]) for _ in range(2))))
    skew2 = Measure(lat, ((np.array([1.0, 0.0]),),
                          tuple(np.array([0.7, 0.3]) for _ in range(2))))
    fam0 = MeasureFamily((skew, skew2), p=1.0)
    P = reference_measure(fam0)
    mask = charged_mask(P.measure, 2)
    X = RandomVariable(lat, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    null_bump = RandomVariable(lat, 2, np.where(mask, 0.0, 5.0))
    charged_bump = RandomVariable(lat, 2, np.where(mask, 5.0, 0.0))
    null_ok = capacity(null_bump, fam0) == 0.0 \
        and capacity((X + null_bump) - X, fam0) == 0.0
    charged_ok = capacity(charged_bump, fam0) > 0.0
    if not (null_ok and charged_ok):
        worst = np.inf
    return _report("capacity-duality", 1e-9, worst,
                   null_characterization=bool(null_ok and charged_ok))


def criterion_path_metric(seed: int) -> Dict:
    """Aligned-jump distance against the dense grid oracle, the damped
    projection envelope versus the undamped jump gap, and exact identity and
    symmetry of the half-open-domain metric."""
    rng = np.random.default_rng(seed)
    x = StepPath(np.array([0.3]), np.array([1.0]))
    y = StepPath(np.array([0.4]), np.array([1.0]))
    val, witness = dm_distance(x, y, 2)
    oracle = dm_grid_oracle(x, y, 2)
    checks = [(abs(val - 0.1), 1e-6), (abs(oracle - 0.1), 1e-3)]

    zero = StepPath(np.zeros(0), np.zeros((0, 1)), horizon=1.0)
    envelope_ok, j1_ok = True, True
    for n in range(4, 21):
        xn = StepPath(np.array([1.0 - 1.0 / n]), np.array([1.0]), horizon=1.0)
        dhat, _ = dhat_distance(xn, zero, 1.0, M=20)
        envelope_ok &= dhat <= 2.0 ** (-(n - 2))
        j1_ok &= j1_distance(xn, zero, horizon=1.0) >= 0.5

    metric_ok = True
    for _ in range(50):
        k1, k2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        a = StepPath(np.sort(rng.uniform(0.05, 0.95, k1)), rng.normal(size=k1),
                     horizon=1.0)
        b = StepPath(np.sort(rng.uniform(0.05, 0.95, k2)), rng.normal(size=k2),
                     horizon=1.0)
        d_aa, _ = dhat_distance(a, a, 1.0, M=8)
        d_ab, _ = dhat_distance(a, b, 1.0, M=8)
        d_ba, _ = dhat_distance(b, a, 1.0, M=8)
        metric_ok &= d_aa == 0.0 and d_ab == d_ba
    ratio = max(v / tol for v, tol in checks)
    if not (envelope_ok and j1_ok and metric_ok):
        ratio = np.inf
    return _report("path-metric", 1.0, ratio, aligned_value=float(val),
                   grid_oracle=float(oracle), projection_envelope=envelope_ok,
                   undamped_gap_persists=j1_ok, identity_and_symmetry=metric_ok)


CRITERIA: List[Callable[[int], Dict]] = [
    criterion_minimal_penalty,
    criterion_time_consistency,
    criterion_robust_dp,
    criterion_pasting,
    criterion_band_pricing,
    criterion_supermartingale,
    criterion_capacity,
    criterion_path_metric,
]


def run_all(seed: int = 0) -> List[Dict]:
    """Run the whole battery; each report records its wall-clock runtime."""
    reports = []
    for k, crit in enumerate(CRITERIA):
        start = time.perf_counter()
        rep = crit(seed + k)
        rep["runtime_seconds"] = time.perf_counter() - start
        reports.append(rep)
    return reports
