"""State construction, partial trace, Schmidt data, and distance measures."""

import time

import numpy as np
import pytest

from treecost import (
    DimensionCapExceeded,
    DimensionMismatch,
    IncompatibleDims,
    PureState,
    UnknownParty,
    ZeroNorm,
    dump_state_json,
    fidelity_pure,
    load_state_json,
    make_named_state,
    normalized_state,
    schmidt_reconstruct,
    schmidt_wrt_edge,
    trace_distance_pure,
)

from helpers import (
    DensityOperator,
    EmptyKeepSet,
    build_projection,
    cut_matrix,
    cut_rank,
    line_tree,
    partial_trace_walk,
    random_pure_state,
    reduced_state,
    trace_distance,
)


def test_pure_state_validation():
    good = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (2, 2))
    assert good.n_parties == 2
    assert good.tensor.shape == (2, 2)
    with pytest.raises(DimensionMismatch):
        PureState(np.zeros(3, dtype=complex), (2, 2))
    with pytest.raises(ValueError):
        PureState(np.array([0.5, 0.0], dtype=complex), (2,))
    with pytest.raises(DimensionMismatch):
        PureState(np.array([1.0, 0.0], dtype=complex), (2, 1, 0))


def test_pure_states_compare_by_dims_and_amplitudes():
    a = make_named_state("w", 3)
    assert a == make_named_state("w", 3)
    assert not a != make_named_state("w", 3)
    assert a != make_named_state("ghz", 3)
    assert a != make_named_state("random", 3, seed=1)
    # the same amplitudes over different dims are a different state
    flat = make_named_state("random", 2, dims=(2, 3), seed=4)
    swapped = PureState(flat.amplitudes, (3, 2))
    assert flat != swapped
    assert a.__eq__(a.amplitudes) is NotImplemented


def _array_holders():
    """Builders of each object that holds arrays, in the library and in
    the test oracles: two calls build two distinct objects with equal
    contents."""
    from treecost import approx_state, build_program, decompose, mps_canonical_form

    t = line_tree(4)
    w4 = make_named_state("w", 4)
    return {
        "TreeDecomposition": lambda: decompose(w4, t),
        "CanonicalMPS": lambda: mps_canonical_form(w4, t),
        "MeasurementProgram": lambda: build_program(decompose(w4, t)),
        "DensityOperator": lambda: reduced_state(w4, [1, 2]),
        "SchmidtData": lambda: schmidt_wrt_edge(w4, t, t.edge_by_label(1)),
        "EdgeProjection": lambda: build_projection(
            w4, t, t.edge_by_label(1), 2, 0.5
        ),
        "ApproxState": lambda: approx_state(w4, t, 2, {1: 0.5}),
    }


@pytest.mark.parametrize("kind", sorted(_array_holders()))
def test_array_holders_compare_by_identity(kind):
    build = _array_holders()[kind]
    x = build()
    assert type(x).__name__ == kind
    assert x == x
    # the generated __eq__ would compare the arrays with == and raise
    assert (x == build()) is False
    assert x != build()


def test_normalized_state_scales_and_rejects_zero():
    s = normalized_state(np.array([3.0, 4.0], dtype=complex), (2,))
    assert np.allclose(np.abs(s.amplitudes), [0.6, 0.8])
    with pytest.raises(ZeroNorm):
        normalized_state(np.zeros(4), (2, 2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("amps", [
    np.full(4, np.nan), np.full(4, np.inf), np.array([1.0, 0.0, 0.0, np.nan]),
])
def test_a_norm_that_is_not_finite_is_refused(amps):
    # a nan norm compares false with everything, so only a norm within the
    # tolerance of 1 may pass, and a vector with nothing finite to
    # normalize is refused by normalized_state too
    with pytest.raises(ValueError, match=r"^state norm (nan|inf) is not 1$"):
        PureState(amps.astype(complex), (2, 2))
    with pytest.raises(ValueError, match=r"^state norm nan is not 1$"):
        normalized_state(amps, (2, 2))


def test_named_w_state_amplitudes():
    s = make_named_state("w", 4)
    # single excitation at each site, uniform weight
    want = np.zeros(16)
    for idx in (8, 4, 2, 1):
        want[idx] = 0.5
    assert np.allclose(s.amplitudes, want)


def test_named_ghz_dicke_bell_product():
    g = make_named_state("ghz", 4)
    assert abs(g.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(g.amplitudes[15] - 1 / np.sqrt(2)) < 1e-15
    assert np.count_nonzero(g.amplitudes) == 2

    d = make_named_state("dicke", 4, k=2)
    hot = {3, 5, 6, 9, 10, 12}  # all two-excitation basis labels
    assert np.allclose(
        d.amplitudes[sorted(hot)], np.full(6, 1 / np.sqrt(6))
    )
    assert np.count_nonzero(d.amplitudes) == 6

    b = make_named_state("bell", 2)
    assert np.allclose(b.amplitudes, make_named_state("ghz", 2).amplitudes)

    p = make_named_state("product", 3)
    assert p.amplitudes[0] == 1.0 and np.count_nonzero(p.amplitudes) == 1


def test_named_dicke_matches_the_index_loop():
    # the amplitudes come from a vectorized popcount; the oracle is the
    # loop over every basis index that counts its ones
    from math import comb, sqrt

    for n in range(1, 13):
        for k in range(n + 1):
            want = np.zeros(2**n, dtype=np.complex128)
            for idx in range(2**n):
                if bin(idx).count("1") == k:
                    want[idx] = 1.0
            want /= sqrt(comb(n, k))
            got = make_named_state("dicke", n, k=k).amplitudes
            assert np.array_equal(got, want), (n, k)


def test_named_random_is_seeded_and_normalized():
    a = make_named_state("random", 3, seed=5)
    b = make_named_state("random", 3, seed=5)
    c = make_named_state("random", 3, seed=6)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    q = make_named_state("random", 2, dims=(3, 4), seed=0)
    assert q.dims == (3, 4)


def test_named_state_rejections():
    with pytest.raises(IncompatibleDims):
        make_named_state("w", 3, dims=(2, 3, 2))  # qubit family
    with pytest.raises(IncompatibleDims):
        make_named_state("dicke", 3, k=4)
    with pytest.raises(IncompatibleDims):
        make_named_state("dicke", 3)
    with pytest.raises(IncompatibleDims):
        make_named_state("bell", 3)
    with pytest.raises(IncompatibleDims):
        make_named_state("nope", 3)
    with pytest.raises(IncompatibleDims):
        make_named_state("w", 2, dims=(2,))
    with pytest.raises(IncompatibleDims, match="party count must be >= 1"):
        make_named_state("product", 0)
    with pytest.raises(IncompatibleDims, match="ghz needs at least 2 parties"):
        make_named_state("ghz", 1)


def test_named_states_respect_the_dimension_cap(monkeypatch):
    # 12 qubits are 4096 amplitudes: every family is refused under a cap of
    # 1024, and 10 qubits (exactly the cap) are still built
    monkeypatch.setenv("TREECOST_DIM_CAP", "1024")
    for name, kwargs in [("random", {"seed": 0}), ("ghz", {}), ("w", {}),
                         ("dicke", {"k": 2}), ("product", {})]:
        with pytest.raises(
            DimensionCapExceeded, match="^state spans 4096 amplitudes, cap 1024$"
        ):
            make_named_state(name, 12, **kwargs)
        assert make_named_state(name, 10, **kwargs).amplitudes.size == 1024
    with pytest.raises(DimensionCapExceeded):
        make_named_state("random", 2, dims=(33, 32), seed=0)


def test_states_far_past_the_cap_are_refused_without_their_size():
    # 2^20000 amplitudes: the refusal reads a bound where the count has
    # 6,021 digits, past Python's limit for printing an integer
    with pytest.raises(DimensionCapExceeded) as named:
        make_named_state("ghz", 20000)
    with pytest.raises(DimensionCapExceeded) as document:
        load_state_json({"dims": [2] * 20000, "amplitudes": []})
    for exc in (named, document):
        assert str(exc.value).startswith("state spans at least 2^20000 ")
        assert len(str(exc.value)) < 200


def test_long_dims_are_refused_without_their_product():
    # the product of 400,000 dims alone took over 4 s to build
    calls = [
        lambda: make_named_state("ghz", 400000),
        lambda: load_state_json({"dims": [2] * 400000, "amplitudes": []}),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(DimensionCapExceeded, match=r"at least 2\^400000 "):
            call()
        assert time.perf_counter() - start < 1.0


def test_reduced_state_respects_the_dimension_cap(monkeypatch):
    # keeping parties 1 and 2 of W4 forms a 4 x 4 matrix: 16 amplitudes
    s = make_named_state("w", 4)
    monkeypatch.setenv("TREECOST_DIM_CAP", "15")
    with pytest.raises(DimensionCapExceeded, match="spans 16 amplitudes, cap 15"):
        reduced_state(s, [1, 2])
    assert reduced_state(s, [3]).dim == 2
    monkeypatch.setenv("TREECOST_DIM_CAP", "16")
    assert reduced_state(s, [1, 2]).dim == 4


def test_reduced_state_matches_index_walk_oracle():
    rng = np.random.default_rng(21)
    for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 4)]:
        s = random_pure_state(rng, dims)
        for keep in [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]]:
            rho = reduced_state(s, keep)
            want = partial_trace_walk(s.amplitudes, dims, keep)
            assert np.allclose(rho.matrix, want, atol=1e-12)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_reduced_state_rejects_bad_subsets():
    s = make_named_state("ghz", 3)
    with pytest.raises(EmptyKeepSet):
        reduced_state(s, [])
    with pytest.raises(UnknownParty):
        reduced_state(s, [0])
    with pytest.raises(UnknownParty):
        reduced_state(s, [4])


def test_density_operator_validation():
    eye = np.eye(2) / 2
    rho = DensityOperator(eye.astype(complex), (2,))
    assert rho.dim == 2
    assert np.allclose(rho.eigenvalues(), [0.5, 0.5])
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex), (2,))
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2, dtype=complex), (2,))  # trace 2
    bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityOperator(bad, (2,))
    with pytest.raises(DimensionMismatch):
        DensityOperator(eye.astype(complex), (3,))


def test_schmidt_reconstruct_round_trip():
    rng = np.random.default_rng(23)
    for root in (1, 2, 4):
        t = line_tree(4, dims=(2, 3, 2, 2), root=root)
        s = random_pure_state(rng, t.dims)
        for e in t.edges:
            sd = schmidt_wrt_edge(s, t, e)
            back = schmidt_reconstruct(sd, t.dims)
            assert abs(abs(s.overlap(back)) - 1.0) < 1e-10
            assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-10)


def test_schmidt_coefficients_descend_and_square_to_one():
    rng = np.random.default_rng(29)
    t = line_tree(5)
    s = random_pure_state(rng, t.dims)
    for e in t.edges:
        sd = schmidt_wrt_edge(s, t, e)
        c = sd.coefficients
        assert np.all(c > 0)
        assert np.all(np.diff(c) <= 1e-15)
        assert abs(np.sum(c**2) - 1.0) < 1e-12
        assert sd.rank == len(c)


def test_schmidt_rank_matches_cut_matrix_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = line_tree(4, dims=(2, 3, 3, 2), root=int(rng.integers(1, 5)))
        s = random_pure_state(rng, t.dims)
        for e in t.edges:
            sd = schmidt_wrt_edge(s, t, e)
            assert sd.rank == cut_rank(
                s.amplitudes, t.dims, sd.subtree_parties
            )


def test_schmidt_sides_and_phases():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    e = t.edge_by_label(2)
    sd = schmidt_wrt_edge(s, t, e)
    assert sd.subtree_parties == (3,)
    assert sd.complement_parties == (1, 2)
    assert np.allclose(sd.coefficients, [np.sqrt(0.5)] * 2)
    # canonical phase: dominant entry of each subtree vector is real positive
    for col in sd.left_basis.T:
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_schmidt_basis_columns_are_orthonormal():
    rng = np.random.default_rng(37)
    t = line_tree(4, dims=(3, 2, 2, 3), root=2)
    s = random_pure_state(rng, t.dims)
    for e in t.edges:
        sd = schmidt_wrt_edge(s, t, e)
        for basis in (sd.left_basis, sd.right_basis):
            gram = basis.conj().T @ basis
            assert np.allclose(gram, np.eye(sd.rank), atol=1e-12)


def test_rank_tol_controls_truncation():
    # two-party state with one tiny Schmidt weight
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = 1e-7
    s = normalized_state(amps, (2, 2))
    t = line_tree(2)
    e = t.edge_by_label(1)
    assert schmidt_wrt_edge(s, t, e).rank == 2
    assert schmidt_wrt_edge(s, t, e, rank_tol=1e-4).rank == 1


def test_schmidt_rejects_mismatched_dims():
    t = line_tree(3)
    s = make_named_state("ghz", 4)
    with pytest.raises(DimensionMismatch):
        schmidt_wrt_edge(s, t, t.edge_by_label(1))


def test_trace_distance_pure_matches_density_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = random_pure_state(rng, (2, 3))
        b = random_pure_state(rng, (2, 3))
        direct = trace_distance_pure(a, b)
        rho = np.outer(a.amplitudes, a.amplitudes.conj())
        sig = np.outer(b.amplitudes, b.amplitudes.conj())
        eigs = np.linalg.eigvalsh(rho - sig)
        assert abs(direct - np.sum(np.abs(eigs))) < 1e-10


def test_trace_distance_on_density_operators():
    rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex), (2,))
    sig = DensityOperator(np.diag([0.4, 0.6]).astype(complex), (2,))
    assert abs(trace_distance(rho, sig) - 0.6) < 1e-12
    with pytest.raises(DimensionMismatch):
        trace_distance(rho, DensityOperator(np.eye(3, dtype=complex) / 3, (3,)))


def test_fidelity_and_overlap_basics():
    a = make_named_state("ghz", 2)
    b = make_named_state("product", 2)
    assert abs(fidelity_pure(a, a) - 1.0) < 1e-12
    assert abs(fidelity_pure(a, b) - 0.5) < 1e-12
    assert abs(a.overlap(b) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(DimensionMismatch, match=r"dims \(2, 2\) vs \(4,\)"):
        a.overlap(make_named_state("product", 1, dims=(4,)))
    # distance and fidelity tie together for pure states
    assert abs(
        trace_distance_pure(a, b) - 2 * np.sqrt(1 - fidelity_pure(a, b))
    ) < 1e-12


def test_state_json_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    s = random_pure_state(rng, (2, 3))
    doc = dump_state_json(s)
    back = load_state_json(doc)
    assert back.dims == s.dims
    assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-15)

    path = tmp_path / "state.json"
    import json

    path.write_text(json.dumps(doc))
    again = load_state_json(path)
    assert np.allclose(again.amplitudes, s.amplitudes, atol=1e-15)


def test_state_json_refuses_an_amplitude_entry_that_is_not_a_pair():
    doc = {"dims": [2], "amplitudes": [[1.0], [0.0, 0.0]]}
    with pytest.raises(DimensionMismatch, match="^malformed state document: "):
        load_state_json(doc)


def test_state_json_named_form_uses_tree_dims():
    t = line_tree(3)
    s = load_state_json({"named": "w"}, tree=t)
    assert np.allclose(s.amplitudes, make_named_state("w", 3).amplitudes)
    with pytest.raises(IncompatibleDims):
        load_state_json({"named": "w"})


def test_cut_matrix_oracle_agrees_with_tensor_reshape():
    # sanity check of the test helper itself on a product state
    rng = np.random.default_rng(47)
    s = random_pure_state(rng, (2, 2, 3))
    mat = cut_matrix(s.amplitudes, (2, 2, 3), [1, 3])
    # row (i1, i3), column (i2)
    want = np.transpose(s.tensor, (0, 2, 1)).reshape(6, 2)
    assert np.allclose(mat, want)
