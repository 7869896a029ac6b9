"""Dynamic risk measures from one-step menus: dual form, penalty cocycle,
and the acceptance-set decomposition.

A per-node menu of (kernel, penalty) choices generates a time-consistent
dynamic risk measure by backward recursion.  Expanding all node-wise
selections reproduces the same values through a dual representation whose
penalties satisfy the cocycle identity.
"""

import numpy as np

from riskdesk import (
    DynamicRM,
    OneStepStructure,
    acceptance_decompose,
    check_cocycle,
    coordinate_process,
    dual_form_violation,
    expand_dual,
    fix_a_lattice,
    iid_binary_measure,
    lift,
    random_rv,
    rm_evaluate,
    supermartingale_check,
)

lat = fix_a_lattice()
menu = ((np.array([0.5, 0.5]), 0.0), (np.array([0.6, 0.4]), 0.1))
structure = OneStepStructure(lat, ((menu,), (menu, menu)))
dyn = DynamicRM(lat, structure)

B2 = coordinate_process(lat, 2)
print("rho_{1,2}(B2):", dyn.rho(1, 2, B2).values)
print("rho_{0,2}(B2):", dyn.rho(0, 2, B2).values)

# The recursion equals its dual form: the max over all expanded kernel
# selections Q of E_Q(-X) less the accumulated penalty, at every r <= t.
rng = np.random.default_rng(0)
Xs = [random_rv(lat, t, rng) for t in (1, 2) for _ in range(10)]
worst, _ = dual_form_violation(dyn, Xs)
print("max dual-form violation:", worst)

# Expanding all selections gives an equivalent dual representation ...
rep02 = expand_dual(dyn, 0, 2)
print("selections in the expanded representation:", len(rep02.components))
print("expanded vs recursive at B2:",
      rm_evaluate(rep02, B2).values, dyn.rho(0, 2, B2).values)

# ... whose minimal penalties chain across dates (the cocycle identity).
rep01, rep12 = expand_dual(dyn, 0, 1), expand_dual(dyn, 1, 2)
Q = iid_binary_measure(lat, 0.55)
res, indeterminate = check_cocycle(rep02, rep01, rep12, Q)
print("cocycle residual at the root:", res.values, "indeterminate:", indeterminate)

# Accepted positions split across an intermediate date.
X0 = random_rv(lat, 2, rng)
X = X0 + lift(dyn.rho(0, 2, X0), 2)
Z, Y = acceptance_decompose(X, dyn, 0, 1, 2, iid_binary_measure(lat, 0.5))
print("decomposition residual:", np.max(np.abs((Z + Y).values - X.values)))

# Under the free (zero-penalty) selection, running risk is a supermartingale.
P = iid_binary_measure(lat, 0.5)
print("supermartingale gap:", supermartingale_check(dyn, B2, P))
