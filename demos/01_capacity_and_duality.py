"""Capacity norms and dual representations on a two-period binary lattice.

Walks through the basic objects: a scenario lattice, a family of measures,
the capacity seminorm it induces, and the minimal penalty of a sublinear
risk evaluator recovered by convex conjugacy.
"""

import numpy as np

from riskdesk import (
    DualRep,
    RandomVariable,
    capacity,
    coordinate_process,
    dual_witness,
    fix_a_family,
    iid_binary_measure,
    minimal_penalty,
    mix_measures,
    reference_measure,
    rm_evaluate,
)

# Two periods, +-1 increments, members Q1 (fair coin) and Q2 (up-prob 0.6).
lat, q1, q2, fam = fix_a_family(p=1.0)
B2 = coordinate_process(lat, 2)
print("terminal values of the coordinate process:", B2.values)

# The capacity is the worst-case L^p norm over the family.
print("capacity of B2 (p = 1):", capacity(B2, fam))

# A single reference measure that charges every node any member charges.
ref = reference_measure(fam)
print("reference mixture weights:", ref.weights)
print("reference root kernel:", lat.per_node(0, ref.measure.flat_kernels[0])[0])

# At p = 2 the duality is attained by a closed-form witness.
lat2, _, _, fam2 = fix_a_family(p=2.0)
w = dual_witness(coordinate_process(lat2, 2), fam2)
print("p = 2 dual witness attains:", w.value,
      "=", capacity(coordinate_process(lat2, 2), fam2))

# Worst-case expected loss as a max-of-affine evaluator over the family.
zeros = RandomVariable(lat, 0, np.zeros(1))
rep = DualRep(0, 2, ((q1, zeros), (q2, zeros)))
print("rho(B2) at time 0:", rm_evaluate(rep, B2).values)

# Minimal penalties by linear programming: members and their mixtures are
# free, anything outside the closed convex hull is infeasible (+inf).
print("penalty of the member Q2:", minimal_penalty(rep, q2).values)
mixed = mix_measures([q1, q2], [0.5, 0.5])
print("penalty of the 50/50 mixture:", minimal_penalty(rep, mixed).values)
hot = iid_binary_measure(lat, 0.9)
print("penalty of an unreachable iid 0.9 law:", minimal_penalty(rep, hot).values)
