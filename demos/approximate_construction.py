"""Trade fidelity for cheaper blocks: truncate, rebuild, and bound the damage.

Splits an error budget across the edges of a chain, projects a few copies
of the target onto the heavy part of each cut spectrum, runs the exact
construction on the truncated block, and compares the achieved trace
distance with its additivity bound.
"""

from math import sqrt

import numpy as np

from treecost import (
    approx_state,
    construct_approx,
    make_named_state,
    normalized_state,
    optimize_thresholds,
    root_and_relabel,
)


def chain(dims):
    n = len(dims)
    return root_and_relabel(
        [(i, i + 1) for i in range(1, n)],
        {i: d for i, d in enumerate(dims, start=1)},
        1,
    )


# --- budget splitting on W4: balanced cuts keep everything at small eps

tree = chain((2, 2, 2, 2))
w = make_named_state("w", 4)
eps = 0.4

print(f"W4, two copies, error budget eps = {eps}")
for label, thresholds in [
    ("uniform  ", {e.label: eps / sqrt(3) for e in tree.edges}),
    ("optimized", optimize_thresholds(w, tree, eps)),
]:
    shares = {k: round(v, 6) for k, v in thresholds.items()}
    ap = approx_state(w, tree, 2, thresholds)
    print(f"  {label} shares {shares}")
    print(f"    distance {ap.achieved_distance:.6f} <= "
          f"bound {ap.bound:.6f}: {ap.holds}")
print("  nothing is dropped here: these cut spectra carry no light tail")

# --- a skewed target where truncation actually bites

amps = np.zeros(8)
amps[0] = sqrt(0.9)
amps[7] = sqrt(0.1)
skew = normalized_state(amps, (2, 2, 2))
tree3 = chain((2, 2, 2))
n = 3
thresholds = {1: 0.6, 2: 0.6}

print()
print(f"skewed three-party target, {n} copies, thresholds {thresholds}")
branches, report = construct_approx(skew, tree3, n, thresholds,
                                    enumerate_all=True)
for row in report.rows:
    print(f"  edge {row.edge}: rank {row.rank} -> block rank "
          f"{row.reduced_rank}, {row.achieved_bits:.4f} of "
          f"{row.budget_bits:.4f} bits per copy")
print(f"  within budget   {report.within_budget}")
print(f"  branches        {len(branches)}")
print(f"  min fidelity    {min(b.fidelity for b in branches):.12f}")
print(f"  block distance  {report.distance:.6f} <= {report.bound:.6f}")

print()
print("union bound on the sequential projections")
rep = approx_state(skew, tree3, n, thresholds).union_bound
print(f"  lhs {rep.lhs:.6f} <= rhs {rep.rhs:.6f}: {rep.holds}")
