"""Pasting measures at stopping times, stability, and the rectangular hull.

A family that is not closed under pasting prices inconsistently across
dates; its rectangular hull is the smallest node-wise enlargement that is,
and it supports an exact backward robust recursion.
"""

from riskdesk import (
    StoppingTime,
    coordinate_process,
    enumerate_selections,
    fix_a_family,
    is_stable,
    paste,
    rectangular_hull,
    robust_evaluate,
)

lat, q1, q2, _ = fix_a_family()
B2 = coordinate_process(lat, 2)

# Pasting: Q2's kernels strictly before the stopping time, Q1's after.
tau = StoppingTime.deterministic(lat, 1)
R = paste(q1, q2, tau)
print("pasted root kernel:", lat.per_node(0, R.flat_kernels[0])[0])
print("pasted time-1 kernels:", [k.tolist() for k in lat.per_node(1, R.flat_kernels[1])])

# The two-member family escapes under pasting ...
stable, missing = is_stable([q1, q2])
print("is {Q1, Q2} stable under pasting?", stable)

# ... but the selections of its rectangular hull do not.
hull = rectangular_hull([q1, q2])
selections = enumerate_selections(hull)
print("hull selections:", len(selections))
print("are the selections stable?", is_stable(selections)[0])

# Robust pricing over the hull by backward recursion.
ask = robust_evaluate(hull, -B2, 0).values[0]
bid = -robust_evaluate(hull, B2, 0).values[0]
print("bid/ask for B2 over the hull:", bid, ask)

# The recursion is exact: compare against brute-force enumeration.
from riskdesk import conditional_expectation

brute = max(conditional_expectation(B2, Q, 0).values[0] for Q in selections)
print("enumeration cross-check (ask):", brute)
