"""Two roads to the same protocol on a line: generic split or canonical MPS.

For chain topologies the vertex tensors can come either from the generic
tree decomposition or from a left-to-right sequence of Schmidt splits.
Both yield the same ranks and a deterministic construction.
"""

import numpy as np

from treecost import (
    PureState,
    build_program,
    contract_mps,
    decompose,
    decomposition_from_mps,
    mps_canonical_form,
    root_and_relabel,
    simulate,
    trace_distance_pure,
)

rng = np.random.default_rng(11)
dims = (2, 3, 2, 2)
n = len(dims)
tree = root_and_relabel(
    [(i, i + 1) for i in range(1, n)],
    {i: d for i, d in enumerate(dims, start=1)},
    1,
)

amps = rng.normal(size=int(np.prod(dims))) + \
    1j * rng.normal(size=int(np.prod(dims)))
amps /= np.linalg.norm(amps)
state = PureState(amps, dims)

mps = mps_canonical_form(state, tree)
print(f"random state on dims {dims}")
print(f"  bond dimensions {mps.bond_dims}")
for i, lam in enumerate(mps.lambdas, start=1):
    print(f"  cut {i}: schmidt coefficients {np.round(lam, 4)}")

rebuilt = contract_mps(mps)
print(f"  contraction error {trace_distance_pure(rebuilt, state):.3e}")

dec_mps = decomposition_from_mps(mps)
dec_gen = decompose(state, tree)
print(f"  ranks from mps     {dec_mps.ranks}")
print(f"  ranks from generic {dec_gen.ranks}")

print()
for name, dec in [("mps", dec_mps), ("generic", dec_gen)]:
    program = build_program(dec)
    branches = simulate(program, mode="enumerate")
    fid = min(b.fidelity for b in branches)
    print(f"  {name:7s} pathway: {len(branches)} branches, "
          f"min fidelity {fid:.12f}")

print()
print("both pathways construct the state on every branch")
