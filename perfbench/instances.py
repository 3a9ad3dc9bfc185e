"""Benchmark inputs: named states on lines, random states on random trees
admitted by a size rule, and the fixed pools behind the recorded reference
values.

Only the tree and states layers of treecost run here, during set-up.
"""

from __future__ import annotations

from math import prod

import numpy as np

from treecost import PureState, Spectrum, make_named_state, root_and_relabel

# Pools of skewed states and spectra are fixed, so their outputs can be
# recorded once in reference.json; the workload seed only picks among them.
POOL_SEED = 20170430
POOL_SIZE = 8
# random instances drawn per rung; a run cycles through them
RANDOM_POOL_SIZE = 16


def line_tree(n: int):
    """Qubit line 1 - 2 - ... - n rooted at 1; edge e joins e and e + 1."""
    return root_and_relabel(
        [(i, i + 1) for i in range(1, n)], {i: 2 for i in range(1, n + 1)}, root=1
    )


def dicke_line_ranks(n: int, k: int) -> dict[int, int]:
    """Closed-form cut ranks of the Dicke state D(n, k) on a line: edge e
    splits off the first e parties, and each feasible excitation count on
    that side is one Schmidt term."""
    return {
        e: min(e, k) - max(0, k - (n - e)) + 1 for e in range(1, n)
    }


def named_line_ranks(name: str, n: int, k: int | None) -> dict[int, int]:
    """GHZ and W states have rank 2 across every cut."""
    if name == "dicke":
        return dicke_line_ranks(n, k)
    return {e: 2 for e in range(1, n)}


def generic_ranks(tree) -> dict[int, int]:
    """Closed-form cut ranks of a generic (random) state: full Schmidt rank
    min(d_subtree, d_complement) across every edge."""
    total = prod(tree.dims)
    out = {}
    for e in tree.edges:
        sub = prod(tree.dims[v - 1] for v in tree.subtree(e.child))
        out[e.label] = min(sub, total // sub)
    return out


def profile(edges, dims: dict[int, int], root: int) -> dict[str, int]:
    """Size-rule quantities of a generic state on a tree rooted at root:
    amplitudes, register amplitudes prod r_e^2 (also the branch count), the
    largest per-vertex outcome count K_v = prod over children r_c^2, and
    the largest number of children of one vertex."""
    adj: dict[int, list[int]] = {v: [] for v in dims}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {root: None}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    sub = dict(dims)
    for u in reversed(order[1:]):
        sub[parent[u]] *= sub[u]
    total = prod(dims.values())
    ranks = [min(sub[u], total // sub[u]) for u in order[1:]]
    branching: dict[int, int] = {}
    children: dict[int, int] = {}
    for u, r in zip(order[1:], ranks):
        branching[parent[u]] = branching.get(parent[u], 1) * r * r
        children[parent[u]] = children.get(parent[u], 0) + 1
    return {
        "amplitudes": total,
        "register_amplitudes": prod(r * r for r in ranks),
        "max_branching": max(branching.values()),
        "max_children": max(children.values()),
    }


def admits(rule: dict[str, list[int]], prof: dict[str, int]) -> bool:
    return all(lo <= prof[key] <= hi for key, (lo, hi) in rule.items())


def random_instance(rng, n: int, dim_choices, rule, max_draws: int = 20000):
    """First random tree from the stream whose generic profile the rule
    admits, with a random complex Gaussian state on it."""
    for _ in range(max_draws):
        edges = [(i, int(rng.integers(1, i))) for i in range(2, n + 1)]
        dims = {i: int(rng.choice(dim_choices)) for i in range(1, n + 1)}
        root = int(rng.integers(1, n + 1))
        if admits(rule, profile(edges, dims, root)):
            tree = root_and_relabel(edges, dims, root=root)
            state = make_named_state(
                "random", n, tree.dims, seed=int(rng.integers(2**62))
            )
            return state, tree
    raise RuntimeError(f"no random tree on {n} parties meets rule {rule}")


def skewed_state(index: int, dims=(2, 2, 2, 2), decay: float = 3.0) -> PureState:
    """Pool member: random amplitudes under a decaying envelope, so cut
    spectra are far from flat and truncation bites."""
    rng = np.random.default_rng([POOL_SEED, index])
    total = prod(dims)
    envelope = np.exp(-decay * np.arange(total) / total)
    amps = envelope * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    return PureState(amps / np.linalg.norm(amps), tuple(dims))


def pool_spectrum(index: int, levels: int) -> Spectrum:
    """Pool member: a random distribution over distinct levels."""
    rng = np.random.default_rng([POOL_SEED, 1000 * levels + index])
    return Spectrum.from_eigenvalues(rng.dirichlet(np.ones(levels)))
