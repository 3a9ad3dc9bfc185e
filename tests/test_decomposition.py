"""Tree tensor decomposition, canonical line form, and reconstruction."""

import dataclasses

import numpy as np
import pytest

from treecost import (
    CanonicalMPS,
    DimensionMismatch,
    MalformedTensors,
    NotALine,
    TreeDecomposition,
    contract_mps,
    decompose,
    decomposition_from_mps,
    make_named_state,
    mps_canonical_form,
    recompose,
    schmidt_wrt_edge,
    vertex_gram_defect,
)

from helpers import (
    cut_rank,
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
