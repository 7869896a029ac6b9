"""Acceptance gate: runs the full battery once and asserts every criterion.

Each test prints a single PASS/FAIL line with the measured violation and the
pinned tolerance, so the gate's verdict is visible in plain test output.
"""

import numpy as np
import pytest

from riskdesk import acceptance
from riskdesk.acceptance import run_all
from riskdesk.lattice import RandomVariable
from riskdesk.risk import minimal_penalty

SEED = 0

BUDGETS = {
    "minimal-penalty-conjugacy": 30.0,
    "time-consistency-equivalence": 60.0,
    "robust-dp-oracle": 10.0,
    "pasting-stability": 10.0,
    "band-pricing": None,
    "supermartingale": None,
    "capacity-duality": None,
    "path-metric": 10.0,
}


@pytest.fixture(scope="module")
def reports():
    return {rep["name"]: rep for rep in run_all(SEED)}


def check(reports, name):
    rep = reports[name]
    status = "PASS" if rep["passed"] else "FAIL"
    print(f"{status} {name}: max_violation={rep['max_violation']:.3g} "
          f"tolerance={rep['tolerance']:.3g}")
    assert rep["passed"], (
        f"{name}: max_violation={rep['max_violation']} "
        f"exceeds tolerance={rep['tolerance']}; details={rep['details']}"
    )
    budget = BUDGETS[name]
    if budget is not None:
        assert rep["runtime_seconds"] <= budget, (
            f"{name} took {rep['runtime_seconds']:.1f}s, budget {budget}s"
        )


def test_criterion_minimal_penalty(reports):
    check(reports, "minimal-penalty-conjugacy")


def test_criterion_time_consistency(reports):
    check(reports, "time-consistency-equivalence")


def test_criterion_robust_dp(reports):
    check(reports, "robust-dp-oracle")


def test_criterion_pasting(reports):
    check(reports, "pasting-stability")


def test_criterion_band_pricing(reports):
    check(reports, "band-pricing")


def test_criterion_supermartingale(reports):
    check(reports, "supermartingale")


def test_criterion_capacity(reports):
    check(reports, "capacity-duality")


def test_criterion_path_metric(reports):
    check(reports, "path-metric")


# A criterion whose boolean guard fails reports an infinite violation.  Each
# case plants one defect in a name the battery imports and checks that the
# guard catches it: a gate that cannot fail shows nothing.

def _shifted_penalty(rep, Q):
    alpha = minimal_penalty(rep, Q)  # off by 1e-12: within the LP tolerance, not exact
    return RandomVariable(alpha.lattice, alpha.t, alpha.values + 1e-12, allow_infinite=True)


@pytest.mark.parametrize("criterion, name, defect, flag", [
    (acceptance.criterion_minimal_penalty, "minimal_penalty", _shifted_penalty,
     {"zero_penalty_exact": False}),
    (acceptance.criterion_time_consistency, "recursion_violation", lambda *args: 0.0,
     {"perturbations_flagged": False}),
    (acceptance.criterion_pasting, "is_stable", lambda members: (True, None),
     {"two_member_family_stable": True}),
    (acceptance.criterion_capacity, "charged_mask",
     lambda Q, t: np.zeros(Q.lattice.n_nodes(t), dtype=bool),
     {"null_characterization": False}),
    (acceptance.criterion_path_metric, "j1_distance", lambda *args, **kwargs: 0.0,
     {"undamped_gap_persists": False}),
], ids=["minimal-penalty", "time-consistency", "pasting", "capacity", "path-metric"])
def test_a_planted_defect_fails_its_criterion(criterion, name, defect, flag, monkeypatch):
    monkeypatch.setattr(acceptance, name, defect)
    rep = criterion(SEED)
    assert rep["passed"] is False and rep["max_violation"] == np.inf
    # the guard fired, and its flag in the details shows why
    (key, value), = flag.items()
    assert rep["details"][key] is value
