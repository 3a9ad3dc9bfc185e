"""Tree tensor decomposition, canonical line form, and reconstruction."""

import dataclasses
import json
import time
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecost import (
    CanonicalMPS,
    DimensionCapExceeded,
    DimensionMismatch,
    MalformedTensors,
    NotALine,
    Spectrum,
    TreeDecomposition,
    approx_bounds,
    build_program,
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
    canonical_factors,
    cut_rank,
    dense_tree_decomposition,
    line_tree,
    random_pure_state,
    random_tree,
    star_tree,
    subtree_bases,
    traced_peak,
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
    for v, g in decomposition._trimmed_factors(dec).items():
        want = [t.dim_of(v)]
        want += [dec.ranks[t.edge_above(c).label] for c in t.children(v)]
        if v != t.root:
            want.append(dec.ranks[t.edge_above(v).label])
        assert g.shape == tuple(want)


def test_leaves_have_no_tensor_entry():
    # a leaf's factor is its edge basis, with no child axes
    t = line_tree(4)
    dec = decompose(make_named_state("w", 4), t)
    trimmed = decomposition._trimmed_factors(dec)
    assert set(trimmed) == set(dec.factors) == {1, 2, 3, 4}
    assert [trimmed[v].ndim for v in t.vertices] == [2, 3, 3, 2]
    assert set(subtree_bases(t, trimmed)) == {2, 3, 4}  # every non-root vertex


def test_edge_bases_are_orthonormal_columns():
    rng = np.random.default_rng(113)
    t = random_tree(rng, 5, dim_choices=(2, 3))
    s = random_pure_state(rng, t.dims)
    dec = decompose(s, t)
    bases = subtree_bases(t, decomposition._trimmed_factors(dec))
    for v, basis in bases.items():
        lab = t.edge_above(v).label
        sub = prod(t.dims[u - 1] for u in t.subtree(v))
        assert basis.shape == (sub, dec.ranks[lab])
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
    # the factors at their compressed widths span each cut's Schmidt
    # vectors down to config.RANK_TOL, of which the first rank are kept
    got_bases = subtree_bases(t, dec.factors)
    for c, want in bases.items():
        got = got_bases[c][:, : dec.ranks[t.edge_above(c).label]]
        proj = got @ got.conj().T - want @ want.conj().T
        assert np.abs(proj).max() <= 1e-10
    got_tensors = canonical_factors(dec)
    for v, want in tensors.items():
        around = [t.edge_above(c).label for c in t.children(v)]
        if v != t.root:
            around.append(t.edge_above(v).label)
        if all(_nondegenerate(coeffs[lab]) for lab in around):
            assert np.abs(got_tensors[v] - want).max() <= 1e-9
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
    (_, sing, bond), peak = traced_peak(
        lambda: decomposition._compress(mat, config.RANK_TOL)
    )
    assert sing.size == 2 and bond.shape == (2**16, 2)
    assert peak - bond.nbytes < mat.nbytes / 4


@pytest.mark.parametrize("dims", [(64, 64), (16, 64), (1024, 16)])
def test_no_factor_keeps_a_larger_buffer_alive(dims):
    # a cut of rank 4 keeps 4 of its singular vectors; on every route (one
    # gesdd either way round, the R-SVD) the factor holds those columns,
    # not a view that keeps the SVD's whole singular-vector matrix alive
    rng = np.random.default_rng(173)
    m, n = dims
    a = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
    b = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    t = line_tree(2, dims=dims)
    dec = decompose(normalized_state(a @ b, dims), t)
    assert dec.ranks == {1: 4}
    for v, factor in dec.factors.items():
        owner = factor
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.nbytes <= factor.nbytes, v


_MEMORY_LINES = [("ghz", None), ("w", None), ("dicke", 2)]


@pytest.mark.parametrize("name,k,n", [
    *[pytest.param(name, k, 16, id=f"{name}-{k}") for name, k in _MEMORY_LINES],
    *[pytest.param(name, k, 18, id=f"{name}-{k}-18")
      for name, k in _MEMORY_LINES],
])
def test_ranks_alone_stay_under_1_9_states(name, k, n):
    # the sweep's leaf-side cuts take the R-SVD route, which copies no cut
    # whole and forms neither tall factor, and no dense basis is built; the
    # peak holds the first two bonds, 1.5 states on GHZ and W and 1.75 on
    # Dicke(2), whose second bond has rank 3
    s = make_named_state(name, n, k=k)
    t = line_tree(n)
    _, peak = traced_peak(lambda: decompose(s, t).ranks)
    assert peak < 1.9 * s.amplitudes.nbytes


@pytest.fixture
def contract_calls(monkeypatch):
    """Calls of _contract_vertex, the step every dense contraction of the
    factors takes, counted."""
    calls = [0]
    real = decomposition._contract_vertex

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(decomposition, "_contract_vertex", counted)
    return calls


def test_rank_and_spectrum_readers_never_run_the_canonical_pass(
    contract_calls, tmp_path, capsys
):
    # no dense basis of any cut is built: nothing is contracted
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
    assert contract_calls == [0]
    recompose(dec)
    assert contract_calls == [t.n]


@pytest.mark.parametrize("rank_tol", [-1.0, -1e-300, 1.0, 2.0, float("nan"),
                                      float("inf")])
def test_decompose_refuses_rank_tol_outside_zero_one(rank_tol):
    # the per-edge readers used to take NaN and 1.5 as "rank 0" (and the
    # spectrum then failed on "no positive eigenvalues")
    s = make_named_state("w", 4)
    t = line_tree(4)
    e = t.edges[0]
    for call in (
        lambda: decompose(s, t, rank_tol),
        lambda: schmidt_wrt_edge(s, t, e, rank_tol),
        lambda: Spectrum.from_edge(s, t, e, rank_tol),
    ):
        with pytest.raises(ValueError, match=f"rank tolerance {rank_tol!r}"):
            call()


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


@pytest.mark.parametrize("read", [recompose, build_program])
@pytest.mark.parametrize("v,clip", [
    pytest.param(2, (slice(None), slice(1)), id="inner"),
    pytest.param(3, (slice(None), slice(1)), id="leaf"),
    pytest.param(2, (slice(None),) * 2 + (slice(1),), id="inner-own"),
])
def test_recompose_rejects_corrupted_tensors(read, v, clip):
    # GHZ3 has rank 2 on both edges: a factor clipped to width 1 on a bond
    # cannot hold it, whether a child's axis or its own
    t = line_tree(3)
    dec = decompose(make_named_state("ghz", 3), t)
    factors = dict(dec.factors)
    factors[v] = factors[v][clip]
    bad = dataclasses.replace(dec, factors=factors)
    with pytest.raises(MalformedTensors, match=f"^vertex {v} factor shape"):
        read(bad)
    del factors[v]
    with pytest.raises(MalformedTensors, match=f"^missing factor at vertex {v}"):
        read(dataclasses.replace(dec, factors=factors))


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
        got = decomposition._trimmed_factors(via_mps)
        want = decomposition._trimmed_factors(direct)
        for v in want:
            assert np.allclose(got[v], want[v], atol=1e-9)
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
    # a GHZ4 form whose tree is swapped for a star is refused as input too,
    # before any factor is read
    star = dataclasses.replace(mps_canonical_form(s, line_tree(4)),
                               tree=star_tree(4))
    with pytest.raises(NotALine):
        decomposition_from_mps(star)
    with pytest.raises(NotALine):
        contract_mps(star)


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


def _ghz_form(n, inner=np.sqrt(2.0)):
    """A canonical form of the n-qubit GHZ state made by hand, bond 2 on
    every cut: the inner site tensors are inner times delta_(a, i, b)."""
    delta = np.zeros((2, 2, 2))
    delta[0, 0, 0] = delta[1, 1, 1] = 1.0
    return CanonicalMPS(
        gammas=(np.eye(2),) + (inner * delta,) * (n - 2) + (np.eye(2),),
        lambdas=(np.full(2, np.sqrt(0.5)),) * (n - 1),
        dims=(2,) * n,
        tree=line_tree(n),
    )


def test_hand_made_ghz_form_is_the_ghz_state():
    m = _ghz_form(5)
    ghz = make_named_state("ghz", 5)
    assert np.abs(contract_mps(m).amplitudes - ghz.amplitudes).max() < 1e-15
    assert fidelity_pure(recompose(decomposition_from_mps(m)), ghz) > 1 - 1e-15


def test_decomposition_from_mps_refuses_a_non_canonical_form():
    # without the sqrt 2 the inner factor is delta / sqrt 2, whose columns
    # have norm 1/2: still the GHZ state up to norm, but not canonical
    with pytest.raises(MalformedTensors, match=r"cut 1 .*defect 5\.00e-01"):
        decomposition_from_mps(_ghz_form(3, inner=1.0))
    with pytest.raises(MalformedTensors, match="not in canonical form"):
        decomposition_from_mps(_ghz_form(6, inner=1.0))


def test_a_1000_site_form_costs_its_ranks_without_dense_arrays():
    m = _ghz_form(1000)
    start = time.perf_counter()
    costs = exact_edge_cost(decomposition_from_mps(m))
    elapsed = time.perf_counter() - start
    assert sum(costs.values()) == 999.0
    assert elapsed < 0.1


def test_a_1000_site_form_refuses_its_dense_views():
    # 2^1000 amplitudes: every dense view is refused before it allocates
    m = _ghz_form(1000)
    dec = decomposition_from_mps(m)
    reads = [
        lambda: recompose(dec),
        lambda: contract_mps(m),
        lambda: build_program(dec),
    ]
    for read in reads:
        with pytest.raises(DimensionCapExceeded):
            read()


def _named_lines():
    for n in range(4, 9):
        yield "w", n, None
        yield "ghz", n, None
        for k in range(1, n):
            yield "dicke", n, k


@pytest.mark.parametrize("name,n,k", _named_lines())
def test_decomposition_from_mps_keeps_decompose_s_tensors_and_bases(
    name, n, k
):
    # degenerate spectra everywhere: re-canonicalizing the site tensors
    # could reorder or rephase a degenerate group, reading them as given
    # cannot
    s = make_named_state(name, n, k=k)
    t = line_tree(n)
    direct = decomposition._trimmed_factors(decompose(s, t))
    via_mps = decomposition._trimmed_factors(
        decomposition_from_mps(mps_canonical_form(s, t))
    )
    assert set(via_mps) == set(direct)
    for v in direct:
        assert np.abs(via_mps[v] - direct[v]).max() <= 1e-12
    got, want = subtree_bases(t, via_mps), subtree_bases(t, direct)
    assert set(got) == set(want)
    for c in want:
        assert np.abs(got[c] - want[c]).max() <= 1e-12

