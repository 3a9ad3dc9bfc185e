"""Per-cut spectral truncation of block states and the projected protocol."""

from functools import reduce

import numpy as np
import pytest

from treecost import (
    DegenerateDenominator,
    DimensionCapExceeded,
    InvalidEpsilon,
    PureState,
    Spectrum,
    ZeroNorm,
    approx_state,
    build_projection,
    construct_approx,
    decompose,
    make_named_state,
    normalized_state,
    schmidt_wrt_edge,
    spectrum_entropy,
    union_bound_check,
)

from helpers import (
    dense_union_deficits,
    line_tree,
    product_block_amps,
    random_pure_state,
    random_tree,
    skewed_pure_state,
)


def skewed_ghz(p0=0.9, n=3):
    amps = np.zeros(2**n)
    amps[0] = np.sqrt(p0)
    amps[-1] = np.sqrt(1.0 - p0)
    return PureState(amps, (2,) * n)


# -------------------------------------------------------------- projection


def test_projection_gamma_is_the_waterline_exponent():
    t = line_tree(3)
    s = skewed_ghz()
    e = t.edge_by_label(1)
    for n, th in [(1, 0.3), (2, 0.5), (3, 0.6)]:
        proj = build_projection(s, t, e, n, th)
        spectrum = Spectrum.from_edge(s, t, e)
        assert proj.gamma == pytest.approx(
            spectrum_entropy(spectrum, n, th * th / 4.0), abs=1e-12
        )
        assert proj.edge == 1
        assert proj.keep_mask.shape == (2,) * n


def test_projection_mask_keeps_exactly_the_heavy_products():
    t = line_tree(3)
    s = skewed_ghz()
    e = t.edge_by_label(2)
    n, th = 3, 0.6
    proj = build_projection(s, t, e, n, th)
    probs = schmidt_wrt_edge(s, t, e).coefficients ** 2
    cut = 2.0 ** (-proj.gamma)
    for idx in np.ndindex(*proj.keep_mask.shape):
        weight = np.prod([probs[i] for i in idx])
        assert proj.keep_mask[idx] == (weight >= cut * (1 - 1e-6))
    # the heaviest level always survives
    assert proj.keep_mask[(0,) * n]
    assert 0 < proj.kept < proj.keep_mask.size


def test_zero_share_projection_is_trivial():
    t = line_tree(3)
    s = skewed_ghz()
    proj = build_projection(s, t, t.edge_by_label(1), 2, 0.0)
    assert proj.trivial
    assert proj.gamma == np.inf
    assert proj.kept == proj.keep_mask.size == 4


def test_projection_matrix_is_an_orthogonal_projector():
    t = line_tree(3)
    s = skewed_ghz()
    proj = build_projection(s, t, t.edge_by_label(2), 2, 0.5)
    P = proj.matrix()
    assert np.allclose(P, P.conj().T)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.linalg.matrix_rank(P) == proj.kept


def test_projection_rejects_bad_shares():
    t = line_tree(3)
    s = skewed_ghz()
    e = t.edge_by_label(1)
    with pytest.raises(InvalidEpsilon):
        build_projection(s, t, e, 2, 1.0)
    with pytest.raises(InvalidEpsilon):
        build_projection(s, t, e, 2, -0.1)
    with pytest.raises(ValueError):
        build_projection(s, t, e, 0, 0.5)


# ------------------------------------------------------------- block state


def test_zero_thresholds_reproduce_the_block_state_exactly():
    t = line_tree(4)
    s = make_named_state("w", 4)
    ap = approx_state(s, t, 2, {})
    assert ap.achieved_distance == 0.0
    assert ap.bound == 0.0
    assert ap.holds
    assert ap.state.dims == (4, 4, 4, 4)
    want = product_block_amps(s.amplitudes, s.dims, 2)
    assert np.allclose(ap.state.amplitudes, want, atol=1e-12)


def test_block_register_layout_groups_copies_within_parties():
    rng = np.random.default_rng(401)
    s = random_pure_state(rng, (2, 3))
    t = line_tree(2, dims=(2, 3))
    ap = approx_state(s, t, 3, {})
    want = product_block_amps(s.amplitudes, s.dims, 3)
    assert np.allclose(ap.state.amplitudes, want, atol=1e-12)


def test_truncation_distance_matches_the_explicit_projector():
    # two parties: the cut projector acts on the second block register;
    # amplitudes chosen so the light product level really gets cut
    raw = np.array([0.9, 0.3, 0.03, 0.32]) + 0.0j
    s = normalized_state(raw, (2, 2))
    t = line_tree(2)
    n, th = 2, 0.6
    ap = approx_state(s, t, n, {1: th})
    proj = ap.projections[0]
    assert not proj.trivial
    block = product_block_amps(s.amplitudes, s.dims, n)
    P = np.kron(np.eye(2**n), proj.matrix())
    cut_amps = P @ block
    cut_amps /= np.linalg.norm(cut_amps)
    assert np.allclose(ap.state.amplitudes, cut_amps, atol=1e-10)
    ov = np.vdot(block, cut_amps)
    want = 2 * np.sqrt(1 - abs(ov) ** 2)
    assert ap.achieved_distance == pytest.approx(want, abs=1e-10)
    assert ap.achieved_distance <= ap.bound + 1e-9


def test_approx_state_respects_the_dimension_cap(monkeypatch):
    monkeypatch.setenv("TREECOST_DIM_CAP", "64")
    t = line_tree(4)
    s = make_named_state("w", 4)
    with pytest.raises(DimensionCapExceeded):
        approx_state(s, t, 2, {})


def test_approx_state_raises_when_projections_remove_everything(monkeypatch):
    import treecost.approx as approx_mod

    t = line_tree(2)
    s = make_named_state("bell", 2)
    real = approx_mod.build_projection

    def starved(*args, **kwargs):
        proj = real(*args, **kwargs)
        import dataclasses

        return dataclasses.replace(
            proj, keep_mask=np.zeros_like(proj.keep_mask)
        )

    monkeypatch.setattr(approx_mod, "build_projection", starved)
    with pytest.raises(ZeroNorm):
        approx_mod.approx_state(s, t, 2, {1: 0.5})


# ------------------------------------------------------------ construction


def test_construct_approx_on_a_skewed_state():
    t = line_tree(3)
    s = skewed_ghz()
    th = {1: 0.6, 2: 0.6}
    branches, rep = construct_approx(s, t, 3, th, enumerate_all=True)
    assert rep.within_budget
    assert rep.distance <= rep.bound + 1e-9
    assert rep.distance > 0.0
    by_edge = {r.edge: r for r in rep.rows}
    for lab in (1, 2):
        assert by_edge[lab].reduced_rank < 2**3  # truncation really bit
        assert by_edge[lab].reduced_rank <= 2 ** (by_edge[lab].budget_bits * 3) + 1e-9
        assert by_edge[lab].achieved_bits <= by_edge[lab].budget_bits + 1e-9
    assert len(branches) == np.prod(
        [by_edge[lab].reduced_rank ** 2 for lab in (1, 2)]
    )
    assert min(tr.fidelity for tr in branches) >= 1 - 1e-9
    assert abs(sum(tr.probability for tr in branches) - 1.0) < 1e-9


def test_construct_approx_sampled_branch_hits_the_projected_state():
    t = line_tree(3)
    s = skewed_ghz()
    tr, rep = construct_approx(s, t, 2, {1: 0.4, 2: 0.4}, seed=11)
    assert tr.fidelity >= 1 - 1e-9
    ap = approx_state(s, t, 2, {1: 0.4, 2: 0.4})
    assert abs(abs(tr.final_state.overlap(ap.state)) - 1.0) < 1e-9
    assert rep.n == 2


def test_construct_approx_zero_budget_reduces_to_exact_blocks():
    t = line_tree(3)
    s = skewed_ghz()
    tr, rep = construct_approx(s, t, 2, {}, seed=2)
    assert rep.distance == 0.0
    assert tr.fidelity >= 1 - 1e-9
    for row in rep.rows:
        # exact support of the doubled state: squared single-copy rank
        assert row.reduced_rank == row.rank**2
        assert row.budget_bits == pytest.approx(np.log2(row.rank))
        assert row.achieved_bits == pytest.approx(np.log2(row.rank))


# ------------------------------------------------------------- union bound


def test_union_bound_holds_and_is_nontrivial_when_cutting():
    t = line_tree(3)
    s = skewed_ghz()
    rep = union_bound_check(s, t, 3, {1: 0.6, 2: 0.6})
    assert rep.holds
    assert rep.lhs > 0.0
    assert rep.lhs <= rep.rhs + 1e-9
    assert set(rep.deficits) == {1, 2}
    assert all(d >= 0.0 for d in rep.deficits.values())


def test_union_bound_right_side_matches_kept_weights():
    # rhs recomputed from the projector weights on the untouched block
    t = line_tree(2)
    raw = np.array([0.9, 0.3, 0.03, 0.32]) + 0.0j
    s = normalized_state(raw, (2, 2))
    n, th = 2, 0.6
    rep = union_bound_check(s, t, n, {1: th})
    proj = build_projection(s, t, t.edge_by_label(1), n, th)
    assert not proj.trivial
    block = product_block_amps(s.amplitudes, s.dims, n)
    P = np.kron(np.eye(2**n), proj.matrix())
    kept_weight = float(np.real(np.vdot(block, P @ block)))
    want_rhs = 2 * np.sqrt(max(0.0, 1.0 - kept_weight))
    assert rep.rhs == pytest.approx(want_rhs, abs=1e-9)
    assert rep.deficits[1] == pytest.approx(1.0 - kept_weight, abs=1e-9)
    assert rep.rhs > 0.05


def test_union_bound_lhs_matches_density_matrix_distance():
    t = line_tree(2)
    raw = np.array([0.85, 0.35, 0.04, 0.4]) + 0.0j
    s = normalized_state(raw, (2, 2))
    n, th = 2, 0.6
    rep = union_bound_check(s, t, n, {1: th})
    proj = build_projection(s, t, t.edge_by_label(1), n, th)
    assert not proj.trivial
    block = product_block_amps(s.amplitudes, s.dims, n)
    block /= np.linalg.norm(block)
    P = np.kron(np.eye(2**n), proj.matrix())
    cut = P @ block
    cut /= np.linalg.norm(cut)
    rho = np.outer(block, block.conj())
    sig = np.outer(cut, cut.conj())
    lhs = float(np.sum(np.abs(np.linalg.eigvalsh(rho - sig))))
    assert rep.lhs == pytest.approx(lhs, abs=1e-9)
    assert rep.lhs > 0.05


def test_union_bound_is_zero_without_truncation():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    rep = union_bound_check(s, t, 2, {1: 0.3, 2: 0.3})
    # flat spectra keep the whole support at these shares, and trivial
    # projections must not leave float dust on either side
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.holds


UNION_SHAPES = [
    ((2, 2, 2, 2), 1),
    ((2, 2, 2), 1),
    ((2, 2), 2),
    ((3, 3), 1),
    ((4, 4), 1),
    ((2, 3), 1),
    ((2, 2, 2), 2),
    ((2, 2), 3),
]


def _union_trials(count, seed):
    """(state, tree, n, thresholds) like the union-bound acceptance trials:
    skewed states, random shares up to 0.9."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        dims, n = UNION_SHAPES[trial % len(UNION_SHAPES)]
        if len(dims) > 2:
            tree = random_tree(rng, len(dims), dim_choices=(2,))
        else:
            tree = line_tree(2, dims=dims)
        state = skewed_pure_state(rng, tree.dims)
        th = {e.label: float(rng.uniform(0.0, 0.9)) for e in tree.edges}
        yield state, tree, n, th


def _truncating_pair():
    """(4,4) state whose smallest Schmidt coefficient falls below a rank
    tolerance of 1e-4, so the stored rank drops block weight."""
    coeffs = np.array([0.8, 0.5, 0.3, 3e-6])
    s = normalized_state(np.diag(coeffs).reshape(-1).astype(complex), (4, 4))
    return s, line_tree(2, dims=(4, 4))


def test_closed_form_deficits_match_the_dense_route():
    checked = 0
    for state, tree, n, th in _union_trials(120, 1234):
        rep = union_bound_check(state, tree, n, th)
        dense = dense_union_deficits(state, tree, n, th)
        assert set(rep.deficits) == set(dense)
        for lab, want in dense.items():
            assert abs(rep.deficits[lab] - want) <= 1e-13
            checked += want > 0.0
    assert checked > 100


def test_closed_form_deficits_keep_the_weight_beyond_the_stored_rank():
    s, t = _truncating_pair()
    rep = union_bound_check(s, t, 2, {1: 0.6}, rank_tol=1e-4)
    dense = dense_union_deficits(s, t, 2, {1: 0.6}, rank_tol=1e-4)
    assert abs(rep.deficits[1] - dense[1]) <= 1e-13
    proj = build_projection(s, t, t.edge_by_label(1), 2, 0.6, rank_tol=1e-4)
    assert proj.rank == 3
    assert proj.dropped_weight > 0.0
    # the clipped products inside the stored rank fall short by the dropped
    # weight on either copy, about 1.8e-11
    products = np.multiply.outer(proj.weights, proj.weights)
    inside = products[~proj.keep_mask].sum() / (
        proj.weights.sum() + proj.dropped_weight
    ) ** 2
    assert rep.deficits[1] - inside > 1e-11


def test_closed_form_deficits_are_at_least_as_accurate_as_the_dense_route():
    # reference: the clipped products summed in extended precision, over the
    # whole cut spectrum (nothing lies beyond the rank on these states)
    compared = better = 0
    for state, tree, n, th in _union_trials(48, 4321):
        rep = union_bound_check(state, tree, n, th)
        dense = dense_union_deficits(state, tree, n, th)
        for e in tree.edges:
            proj = build_projection(state, tree, e, n, th[e.label])
            if proj.trivial:
                continue
            assert proj.dropped_weight < 1e-30
            w = proj.weights.astype(np.longdouble)
            products = reduce(np.multiply.outer, [w] * n)
            want = products[~proj.keep_mask].sum() / w.sum() ** n
            closed = abs(np.longdouble(rep.deficits[e.label]) - want)
            dense_err = abs(np.longdouble(dense[e.label]) - want)
            assert closed <= dense_err
            compared += 1
            better += closed < dense_err
    assert compared > 30
    # the dense route's cancellation in 1 - kept costs it about one ulp of 1
    assert better > compared // 2


def test_union_bound_degenerate_projection(monkeypatch):
    import dataclasses

    import treecost.approx as approx_mod

    t = line_tree(2)
    s = make_named_state("bell", 2)
    real = approx_mod.build_projection

    def starved(*args, **kwargs):
        proj = real(*args, **kwargs)
        return dataclasses.replace(
            proj, keep_mask=np.zeros_like(proj.keep_mask)
        )

    monkeypatch.setattr(approx_mod, "build_projection", starved)
    with pytest.raises(DegenerateDenominator):
        approx_mod.union_bound_check(s, t, 2, {1: 0.5})
