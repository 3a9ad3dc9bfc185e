"""Tree tensor decomposition, canonical line form, and reconstruction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecost import (
    CanonicalMPS,
    DimensionMismatch,
    MalformedTensors,
    NotALine,
    TreeDecomposition,
    contract_mps,
    decompose,
    decomposition_from_mps,
    config,
    fidelity_pure,
    make_named_state,
    mps_canonical_form,
    normalized_state,
    recompose,
    root_and_relabel,
    schmidt_wrt_edge,
    vertex_gram_defect,
)

from helpers import (
    cut_rank,
    dense_tree_decomposition,
    line_tree,
    random_pure_state,
    random_tree,
    star_tree,
)


def _roundtrip_error(s, t):
    dec = decompose(s, t)
    back = recompose(dec)
    return dec, float(np.max(np.abs(back.amplitudes - s.amplitudes)))


def test_roundtrip_on_random_trees():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        t = random_tree(rng, n, dim_choices=(2, 2, 3))
        s = random_pure_state(rng, t.dims)
        dec, err = _roundtrip_error(s, t)
        assert err < 1e-10
        for v in t.vertices:
            if not t.is_leaf(v) or v == t.root:
                assert vertex_gram_defect(dec, v) < 1e-9


def test_roundtrip_on_named_shapes():
    cases = [
        (make_named_state("ghz", 5), line_tree(5)),
        (make_named_state("w", 5), line_tree(5, root=3)),
        (make_named_state("dicke", 4, k=2), star_tree(4)),
        (make_named_state("product", 4), line_tree(4)),
    ]
    for s, t in cases:
        _, err = _roundtrip_error(s, t)
        assert err < 1e-10


def test_ranks_match_independent_cut_svd():
    rng = np.random.default_rng(103)
    for _ in range(12):
        t = random_tree(rng, int(rng.integers(3, 6)), dim_choices=(2, 3))
        s = random_pure_state(rng, t.dims)
        dec = decompose(s, t)
        for e in t.edges:
            assert dec.ranks[e.label] == cut_rank(
                s.amplitudes, t.dims, t.subtree(e.child)
            )


def test_known_rank_profiles():
    t = line_tree(4)
    ghz = decompose(make_named_state("ghz", 4), t)
    assert all(r == 2 for r in ghz.ranks.values())
    prod = decompose(make_named_state("product", 4), t)
    assert all(r == 1 for r in prod.ranks.values())
    w = decompose(make_named_state("w", 4), t)
    assert all(r == 2 for r in w.ranks.values())


def test_schmidt_coeffs_stored_per_edge():
    rng = np.random.default_rng(107)
    t = line_tree(4, dims=(2, 3, 2, 2), root=2)
    s = random_pure_state(rng, t.dims)
    dec = decompose(s, t)
    for e in t.edges:
        sd = schmidt_wrt_edge(s, t, e)
        assert np.allclose(dec.schmidt_coeffs[e.label], sd.coefficients)


def test_tensor_shapes_follow_contract():
    rng = np.random.default_rng(109)
    t = random_tree(rng, 6, dim_choices=(2, 3))
    s = random_pure_state(rng, t.dims)
    dec = decompose(s, t)
    for v, g in dec.tensors.items():
        want = [t.dim_of(v)]
        want += [dec.ranks[t.edge_above(c).label] for c in t.children(v)]
        if v != t.root:
            want.append(dec.ranks[t.edge_above(v).label])
        assert g.shape == tuple(want)


def test_leaves_have_no_tensor_entry():
    t = line_tree(4)
    dec = decompose(make_named_state("w", 4), t)
    assert set(dec.tensors) == {1, 2, 3}
    assert set(dec.edge_bases) == {2, 3, 4}  # every non-root vertex


def test_edge_bases_are_orthonormal_columns():
    rng = np.random.default_rng(113)
    t = random_tree(rng, 5, dim_choices=(2, 3))
    s = random_pure_state(rng, t.dims)
    dec = decompose(s, t)
    for v, basis in dec.edge_bases.items():
        lab = t.edge_above(v).label
        assert basis.shape == (dec.subtree_dim(v), dec.ranks[lab])
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(dec.ranks[lab]), atol=1e-10)


@st.composite
def _tree_states(draw):
    """A random tree of 2..6 parties with a random root, and a random,
    random product, nearly product, GHZ, W or Dicke state on it (the last
    three on qubits).  A nearly product state has Schmidt coefficients near
    1e-5, which rank_tol=1e-4 truncates and 1e-9 keeps."""
    kind = draw(st.sampled_from(
        ["random", "product", "nearly product", "ghz", "w", "dicke"]
    ))
    n = draw(st.integers(2, 6))
    if kind in ("ghz", "w", "dicke"):
        dims = [2] * n
    else:
        dims = draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    root = draw(st.integers(1, n))
    tree = root_and_relabel(edges, dict(enumerate(dims, start=1)), root)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        state = random_pure_state(rng, tree.dims)
    elif kind in ("product", "nearly product"):
        amps = np.ones(1)
        for d in tree.dims:
            amps = np.kron(amps, random_pure_state(rng, (d,)).amplitudes)
        if kind == "nearly product":
            amps = amps + 1e-5 * random_pure_state(rng, tree.dims).amplitudes
        state = normalized_state(amps, tree.dims)
    else:
        k = draw(st.integers(1, n - 1)) if kind == "dicke" else None
        state = make_named_state(kind, n, k=k)
    return state, tree


def _nondegenerate(coeffs):
    return bool(np.all(-np.diff(coeffs) > 1e-6))


@settings(max_examples=200)
@given(_tree_states(), st.sampled_from([1e-9, 1e-4]))
def test_sweep_matches_the_per_edge_dense_oracle(case, rank_tol):
    state, t = case
    dec = decompose(state, t, rank_tol)
    ranks, coeffs, bases, tensors = dense_tree_decomposition(
        state.amplitudes, t, rank_tol
    )
    assert dec.ranks == ranks
    for lab, want in coeffs.items():
        assert np.abs(dec.schmidt_coeffs[lab] - want).max() <= 1e-12
    for c, want in bases.items():
        got = dec.edge_bases[c]
        proj = got @ got.conj().T - want @ want.conj().T
        assert np.abs(proj).max() <= 1e-10
    for v, want in tensors.items():
        around = [t.edge_above(c).label for c in t.children(v)]
        if v != t.root:
            around.append(t.edge_above(v).label)
        if all(_nondegenerate(coeffs[lab]) for lab in around):
            assert np.abs(dec.tensors[v] - want).max() <= 1e-9
    if rank_tol == config.RANK_TOL:
        assert fidelity_pure(recompose(dec), state) >= 1.0 - 1e-12


@pytest.mark.parametrize("name,k", [("ghz", None), ("w", None), ("dicke", 2)])
def test_decompose_memory_stays_near_the_state_size(name, k):
    # the dense edge bases it returns take about r times the state's bytes
    # on a line; the sweep's working tensor shrinks from the state's size
    s = make_named_state(name, 16, k=k)
    t = line_tree(16)
    tracemalloc.start()
    try:
        decompose(s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * s.amplitudes.nbytes


def test_decompose_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        decompose(make_named_state("ghz", 3), line_tree(4))


def test_recompose_rejects_corrupted_tensors():
    t = line_tree(3)
    dec = decompose(make_named_state("ghz", 3), t)
    bad_tensors = dict(dec.tensors)
    bad_tensors[2] = bad_tensors[2][:, :1, :]
    bad = dataclasses.replace(dec, tensors=bad_tensors)
    with pytest.raises(MalformedTensors):
        recompose(bad)


def test_single_vertex_decomposition():
    from treecost import root_and_relabel

    t = root_and_relabel([], {1: 3}, 1)
    amps = np.array([0.6, 0.8j, 0.0])
    s = decompose(
        type(make_named_state("product", 1))(amps, (3,)), t
    )
    back = recompose(s)
    assert np.allclose(back.amplitudes, amps)


def test_mps_shapes_and_contraction():
    rng = np.random.default_rng(127)
    for dims in [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 4)]:
        t = line_tree(len(dims), dims=dims)
        s = random_pure_state(rng, dims)
        m = mps_canonical_form(s, t)
        n = len(dims)
        bonds = m.bond_dims
        assert m.gammas[0].shape == (dims[0], bonds[0])
        for k in range(1, n - 1):
            assert m.gammas[k].shape == (bonds[k - 1], dims[k], bonds[k])
        assert m.gammas[-1].shape == (bonds[-1], dims[-1])
        back = contract_mps(m)
        assert abs(abs(back.overlap(s)) - 1.0) < 1e-10
        assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-10)


def test_mps_bond_dims_are_cut_ranks():
    rng = np.random.default_rng(131)
    dims = (2, 2, 2, 2, 2)
    t = line_tree(5)
    s = random_pure_state(rng, dims)
    m = mps_canonical_form(s, t)
    for k, r in enumerate(m.bond_dims, start=1):
        assert r == cut_rank(s.amplitudes, dims, list(range(1, k + 1)))
    # middle cut of a generic 5-qubit state saturates at rank 4
    assert m.bond_dims[1] == 4


def test_mps_lambdas_are_cut_schmidt_coefficients():
    rng = np.random.default_rng(137)
    t = line_tree(4)
    s = random_pure_state(rng, t.dims)
    m = mps_canonical_form(s, t)
    for e, lam in zip(t.edges, m.lambdas):
        sd = schmidt_wrt_edge(s, t, e)
        assert np.allclose(lam, sd.coefficients, atol=1e-12)


def test_decomposition_from_mps_matches_direct_decompose():
    rng = np.random.default_rng(139)
    for dims in [(2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 2, 2)]:
        t = line_tree(len(dims), dims=dims)
        s = random_pure_state(rng, dims)
        via_mps = decomposition_from_mps(mps_canonical_form(s, t))
        direct = decompose(s, t)
        assert via_mps.ranks == direct.ranks
        for v in via_mps.tensors:
            assert np.allclose(
                via_mps.tensors[v], direct.tensors[v], atol=1e-9
            )
        back = recompose(via_mps)
        assert abs(abs(back.overlap(s)) - 1.0) < 1e-10


def test_mps_requires_a_line_rooted_at_an_end():
    s = make_named_state("ghz", 4)
    with pytest.raises(NotALine):
        mps_canonical_form(s, star_tree(4))
    with pytest.raises(NotALine):
        mps_canonical_form(s, line_tree(4, root=2))
    with pytest.raises(DimensionMismatch):
        mps_canonical_form(make_named_state("ghz", 3), line_tree(4))


def test_decomposition_from_mps_rejects_inconsistent_tensors():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    m = mps_canonical_form(s, t)
    clipped = dataclasses.replace(m, gammas=m.gammas[:2])
    with pytest.raises(MalformedTensors):
        decomposition_from_mps(clipped)
    wrong_first = dataclasses.replace(
        m, gammas=(np.zeros((2, 3)),) + m.gammas[1:]
    )
    with pytest.raises(MalformedTensors):
        decomposition_from_mps(wrong_first)
