"""Tree tensor decomposition, canonical line form, and reconstruction."""

import dataclasses
import json
import tracemalloc
from math import prod

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
    approx_bounds,
    contract_mps,
    decompose,
    decomposition_from_mps,
    config,
    exact_edge_cost,
    fidelity_pure,
    make_named_state,
    mps_canonical_form,
    normalized_state,
    optimize_thresholds,
    recompose,
    root_and_relabel,
    schmidt_wrt_edge,
    vertex_gram_defect,
)
from treecost import decomposition
from treecost.cli import main

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


def _assert_matches_the_dense_oracle(state, t, rank_tol):
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


@settings(max_examples=200)
@given(_tree_states(), st.sampled_from([1e-9, 1e-4]))
def test_sweep_matches_the_per_edge_dense_oracle(case, rank_tol):
    _assert_matches_the_dense_oracle(*case, rank_tol)


def _nearly_product(rng, dims):
    amps = np.ones(1)
    for d in dims:
        amps = np.kron(amps, random_pure_state(rng, (d,)).amplitudes)
    amps = amps + 1e-5 * random_pure_state(rng, dims).amplitudes
    return normalized_state(amps, dims)


def _large_cut_cases():
    """14-qubit and 12-14-party qubit/qutrit instances of 2^14 to 9 * 2^12
    amplitudes, whose leaf cuts take the sweep's R-SVD route.  Roots sit
    near the middle, so no subtree spans more than 2^10 levels and the
    oracle's projectors stay small.  The qutrit-ended line's leaf cuts have
    3 * 2^12 rows, more than four blocks of the blocked R (2730 rows at 3
    columns) and a ragged fifth."""
    rng = np.random.default_rng(151)

    def draw(n, dims):
        while True:
            t = random_tree(rng, n, dim_choices=dims)
            big = max(prod(t.dims[u - 1] for u in t.subtree(v))
                      for v in t.vertices[1:])
            if 2**14 <= prod(t.dims) <= 2**15 and big <= 2**10:
                return t

    trees = {
        "random-line-root7": line_tree(14, root=7),
        "random-line-root8": line_tree(14, root=8),
        "random-tree14": draw(14, (2,)),
        "random-tree13-mixed": draw(13, (2, 2, 3)),
        "random-tree12-mixed": draw(12, (2, 3)),
        "random-line-qutrit-ends": line_tree(14, dims=(3,) + (2,) * 12 + (3,),
                                             root=7),
    }
    cases = [
        pytest.param(random_pure_state(rng, t.dims), t, 1e-9, id=name)
        for name, t in trees.items()
    ]
    for name, k in [("ghz", None), ("w", None), ("dicke", 3)]:
        state = make_named_state(name, 14, k=k)
        cases.append(pytest.param(state, line_tree(14, root=6), 1e-9, id=name))
    for name, t in [("line", line_tree(14, root=8)), ("tree", draw(14, (2,)))]:
        state = _nearly_product(rng, t.dims)
        cases.append(pytest.param(state, t, 1e-4, id=f"nearly-product-{name}"))
    return cases


@pytest.mark.parametrize("state,t,rank_tol", _large_cut_cases())
def test_large_cuts_match_the_per_edge_dense_oracle(
    state, t, rank_tol, monkeypatch
):
    # hypothesis draws at most 6 parties, whose cuts never reach the
    # R-SVD route; these instances take it at least once each, on a cut of
    # more than one row block
    calls = []  # QR calls per cut of the sweep
    qr, compress = np.linalg.qr, decomposition._compress

    def counted_qr(*args, **kwargs):
        calls[-1] += 1
        return qr(*args, **kwargs)

    def counted_compress(*args):
        calls.append(0)
        return compress(*args)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(decomposition, "_compress", counted_compress)
    _assert_matches_the_dense_oracle(state, t, rank_tol)
    # one QR per block and one of the stacked factors
    assert max(calls) > 2


@pytest.mark.parametrize("name,k", [("ghz", None), ("w", None), ("dicke", 2)])
def test_decompose_memory_stays_near_the_state_size(name, k):
    # the dense edge bases it returns take about r times the state's bytes
    # on a line; the sweep's working tensor shrinks from the state's size
    s = make_named_state(name, 16, k=k)
    t = line_tree(16)
    tracemalloc.start()
    try:
        dec = decompose(s, t)
        dec.tensors[t.root], dec.edge_bases[t.n]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * s.amplitudes.nbytes


@st.composite
def _tall_matrices(draw):
    """A complex matrix of 1 to 64 columns whose rows fill part of one row
    block of the blocked R, one or two whole blocks, or many, the last
    block ragged or not: dense, of lower rank, GHZ-like (a few nonzero
    entries, the rest exact zeros), or with singular values graded from 1
    down to 1e-11."""
    n = draw(st.integers(1, 64))
    step = max(decomposition._QR_BLOCK_ENTRIES // n, 4 * n)
    blocks = draw(st.sampled_from([0, 1, 2, 5, 9]))
    rows = blocks * step + draw(st.integers(0 if blocks else 1, step - 1))
    kind = draw(st.sampled_from(["dense", "low rank", "ghz-like", "graded"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "dense":
        return gaussian(rows, n)
    if kind == "low rank":
        r = draw(st.integers(1, n))
        return gaussian(rows, r) @ gaussian(r, n)
    if kind == "ghz-like":
        mat = np.zeros((rows, n), dtype=complex)
        spots = draw(st.integers(1, 4))
        mat[rng.integers(rows, size=spots), rng.integers(n, size=spots)] = (
            gaussian(spots)
        )
        return mat
    k = min(rows, n)
    left = np.linalg.qr(gaussian(rows, k))[0]
    right = np.linalg.qr(gaussian(n, k))[0].conj().T
    return (left * np.logspace(0, -11, k)) @ right


@settings(max_examples=100, deadline=None)
@given(_tall_matrices())
def test_blocked_r_has_the_singular_values_of_the_whole(mat):
    # squared singular values of the graded matrices fall below double
    # precision, so an R taken from the Gram matrix mat^H mat fails here
    r = decomposition._blocked_r(mat)
    want = np.linalg.svd(mat, compute_uv=False)
    assert r.shape == (want.size, mat.shape[1])
    assert np.array_equal(np.triu(r), r)
    got = np.linalg.svd(r, compute_uv=False)
    assert np.abs(got - want).max() <= 1e-13 * want[0]
    gram = r.conj().T @ r - mat.conj().T @ mat
    assert np.abs(gram).max() <= 1e-13 * want[0] ** 2


def test_compress_allocates_nothing_of_full_size_but_the_bond():
    # the blocked R copies one block of the cut at a time, so the bond, the
    # compressed rest of rank 2, is the only tall array made
    rng = np.random.default_rng(167)
    mat = rng.standard_normal((2**16, 2)) + 1j * rng.standard_normal((2**16, 2))
    mat = mat @ rng.standard_normal((2, 4))
    tracemalloc.start()
    try:
        _, sing, bond = decomposition._compress(mat, config.RANK_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sing.size == 2 and bond.shape == (2**16, 2)
    assert peak - bond.nbytes < mat.nbytes / 4


@pytest.mark.parametrize("name,k", [("ghz", None), ("w", None), ("dicke", 2)])
def test_ranks_alone_stay_under_1_9_states(name, k):
    # the sweep's leaf-side cuts take the R-SVD route, which copies no cut
    # whole and forms neither tall factor, and no dense basis is built
    # until tensors is read; the peak holds the first two bonds, 1.5 states
    # on GHZ and W and 1.75 on Dicke(2), whose second bond has rank 3
    s = make_named_state(name, 16, k=k)
    t = line_tree(16)
    tracemalloc.start()
    try:
        decompose(s, t).ranks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * s.amplitudes.nbytes


@pytest.fixture
def pass_calls(monkeypatch):
    """Calls of the canonical pass's two steps, counted by name."""
    calls = {"_contract_vertex": 0, "_canonical_frame": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(decomposition, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(decomposition, name, counted)
    return calls


def test_rank_and_spectrum_readers_never_run_the_canonical_pass(
    pass_calls, tmp_path, capsys
):
    rng = np.random.default_rng(157)
    t = random_tree(rng, 6, dim_choices=(2, 3))
    s = random_pure_state(rng, t.dims)
    dec = decompose(s, t)
    exact_edge_cost(dec)
    approx_bounds(s, t, 3, 0.3)
    approx_bounds(s, t, 2, 0.3, thresholds=optimize_thresholds(s, t, 0.3, 1e-4))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({
        "parties": [{"id": str(i)} for i in range(1, 7)],
        "edges": [[str(i), str(i + 1)] for i in range(1, 6)],
        "root": "1",
    }))
    assert main(["cost", "exact", "--tree", str(tree), "--state", "w6"]) == 0
    assert json.loads(capsys.readouterr().out)["total_bits"] == 5.0
    assert pass_calls == {"_contract_vertex": 0, "_canonical_frame": 0}


@pytest.mark.parametrize("first", ["tensors", "edge_bases"])
def test_first_read_runs_the_canonical_pass_once_for_both(pass_calls, first):
    rng = np.random.default_rng(163)
    t = random_tree(rng, 7, dim_choices=(2, 3))
    dec = decompose(random_pure_state(rng, t.dims), t)
    # keys, lengths and membership are known without the pass
    assert set(dec.edge_bases) == set(t.vertices) - {t.root}
    assert t.root in dec.tensors and len(dec.tensors) == sum(
        1 for v in t.vertices if v == t.root or t.children(v)
    )
    assert pass_calls == {"_contract_vertex": 0, "_canonical_frame": 0}
    view = getattr(dec, first)
    view[next(iter(view))]
    once = {"_contract_vertex": t.n - 1, "_canonical_frame": t.n - 1}
    assert pass_calls == once
    for v in dec.tensors:
        dec.tensors[v]
    for c in dec.edge_bases:
        dec.edge_bases[c]
    assert pass_calls == once
    with pytest.raises(TypeError):
        dec.tensors[t.root] = None


@pytest.mark.parametrize("rank_tol", [-1.0, -1e-300, 1.0, 2.0, float("nan"),
                                      float("inf")])
def test_decompose_refuses_rank_tol_outside_zero_one(rank_tol):
    s = make_named_state("w", 4)
    with pytest.raises(ValueError, match=f"rank tolerance {rank_tol!r}"):
        decompose(s, line_tree(4), rank_tol)


def test_decompose_accepts_rank_tol_in_zero_one():
    # W4's cut spectra are (sqrt 3, 1)/2, (1, 1)/sqrt 2 and (sqrt 3, 1)/2;
    # at 0 every nonzero singular value counts, round-off included
    s = make_named_state("w", 4)
    assert decompose(s, line_tree(4), 0.5).ranks == {1: 2, 2: 2, 3: 2}
    assert decompose(s, line_tree(4), 0.99).ranks == {1: 1, 2: 2, 3: 1}
    assert all(r >= 2 for r in decompose(s, line_tree(4), 0.0).ranks.values())


def test_rank_tol_zero_counts_no_round_off():
    # W4's edge 2 has singular values (1, 1)/sqrt 2 and a third of 3.9e-17
    # left by round-off; at rank_tol 0 the floor of _numerical_rank keeps
    # it out of the rank, on the sweep and on the per-edge route alike
    s = make_named_state("w", 4)
    t = line_tree(4)
    assert decompose(s, t, 0.0).ranks == {1: 2, 2: 2, 3: 2}
    for e in t.edges:
        assert schmidt_wrt_edge(s, t, e, 0.0).rank == 2


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
