"""Per-cut spectral truncation of block states and the projected protocol."""

import re
import time
from functools import reduce
from math import log, prod, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecost import (
    DegenerateDenominator,
    DimensionCapExceeded,
    InvalidEpsilon,
    PureState,
    Spectrum,
    ThresholdBudgetExceeded,
    ZeroNorm,
    approx_bounds,
    approx_state,
    construct_approx,
    decompose,
    make_named_state,
    normalized_state,
    root_and_relabel,
    schmidt_wrt_edge,
    spectrum_entropy,
    union_bound_check,
)

from helpers import (
    build_projection,
    dense_block_overlaps,
    dense_union_deficits,
    line_tree,
    product_block_amps,
    projection_matrix,
    random_pure_state,
    random_tree,
    skewed_pure_state,
    traced_peak,
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
        assert proj.keep_mask.shape == (2**n,)


def test_projection_mask_keeps_exactly_the_heavy_products():
    t = line_tree(3)
    s = skewed_ghz()
    e = t.edge_by_label(2)
    n, th = 3, 0.6
    proj = build_projection(s, t, e, n, th)
    probs = schmidt_wrt_edge(s, t, e).coefficients ** 2
    cut = 2.0 ** (-proj.gamma)
    for idx in np.ndindex((2,) * n):
        weight = np.prod([probs[i] for i in idx])
        assert proj.keep_mask.reshape((2,) * n)[idx] == (weight >= cut * (1 - 1e-6))
    # the heaviest level always survives
    assert proj.keep_mask[0]
    assert 0 < proj.keep_mask.sum() < proj.keep_mask.size


def test_zero_share_projection_is_trivial():
    t = line_tree(3)
    s = skewed_ghz()
    proj = build_projection(s, t, t.edge_by_label(1), 2, 0.0)
    assert proj.trivial
    assert proj.gamma == np.inf
    assert proj.keep_mask.sum() == proj.keep_mask.size == 4


def test_projection_matrix_is_an_orthogonal_projector():
    t = line_tree(3)
    s = skewed_ghz()
    proj = build_projection(s, t, t.edge_by_label(2), 2, 0.5)
    P = projection_matrix(decompose(s, t), proj)
    assert np.allclose(P, P.conj().T)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.linalg.matrix_rank(P) == proj.keep_mask.sum()


def test_approx_state_far_past_the_cap_is_refused_without_its_size():
    # W4's first cut has rank 2, so its keep mask at n=20000 spans 2^20000
    # levels, a count with more digits than Python prints
    t = line_tree(4)
    with pytest.raises(DimensionCapExceeded) as exc:
        approx_state(make_named_state("w", 4), t, 20000, {1: 0.1})
    assert str(exc.value).startswith(
        "keep mask of edge 1 spans at least 2^20000 levels, cap "
    )
    assert len(str(exc.value)) < 200


def test_a_qutrit_block_far_past_the_cap_is_refused_before_its_dims():
    # a qutrit product line: every projection is trivial, so only the dense
    # block is capped, and 3^(10^7) per party is never computed
    t = line_tree(4, dims=(3,) * 4)
    amps = np.zeros(3**4)
    amps[0] = 1.0
    ap = approx_state(PureState(amps, t.dims), t, 10**7, {})
    start = time.perf_counter()
    with pytest.raises(DimensionCapExceeded) as exc:
        ap.state
    assert time.perf_counter() - start < 0.1
    assert str(exc.value).startswith(
        "state spans at least 2^40000000 amplitudes, cap "
    )


def _loop_mask(proj):
    """A projection's keep mask by summing the log of every level sequence
    copy by copy, n - 1 outer sums."""
    log_p = total = np.log(proj.weights)
    for _ in range(proj.n - 1):
        total = np.add.outer(total, log_p).reshape(-1)
    return total >= -proj.gamma * log(2.0) - 1e-9


def test_a_rank_one_mask_equals_the_loop_without_running_it():
    # product4's cuts have rank 1; the second state's norm is 1 - 5e-10,
    # so its one level has a log weight of -1e-9, which the loop would sum
    # below the waterline of a 0.1 share near n = 10^10
    t = line_tree(4)
    short = np.zeros(16)
    short[0] = 1.0 - 5e-10
    states = [make_named_state("product", 4), PureState(short, (2,) * 4)]
    for s in states:
        for n in (1, 2, 3, 10, 1000, 5000):
            for e in t.edges:
                proj = build_projection(s, t, e, n, 0.1)
                assert proj.rank == 1
                assert np.array_equal(proj.keep_mask, _loop_mask(proj))
                assert proj.keep_mask.tolist() == [True]
    # the loop's n - 1 steps would run for hours at n = 10^10
    shares = {e.label: 0.1 / sqrt(3) for e in t.edges}
    start = time.perf_counter()
    ap = approx_state(states[1], t, 10**10, shares)
    rep = union_bound_check(states[1], t, 10**10, shares)
    assert time.perf_counter() - start < 1.0
    assert all(p.trivial for p in ap.projections)
    assert ap.achieved_distance == rep.lhs == rep.rhs == 0.0


@pytest.mark.parametrize("n", [0, -2, 1.5, "2"])
def test_every_block_size_reader_refuses_the_same_bad_size(n):
    t = line_tree(4)
    s = make_named_state("w", 4)
    spectrum = Spectrum(values=(0.75, 0.25), multiplicities=(1, 1))
    readers = [
        lambda: spectrum_entropy(spectrum, n, 0.01),
        lambda: approx_bounds(s, t, n, 0.1),
        lambda: approx_state(s, t, n, {}),
        lambda: union_bound_check(s, t, n, {}),
        lambda: construct_approx(s, t, n, {}),
    ]
    message = f"^block size {re.escape(str(n))} must be a positive integer$"
    for read in readers:
        with pytest.raises(ValueError, match=message):
            read()


def test_projection_matrix_respects_the_dimension_cap(monkeypatch):
    # edge 1 of W4 splits off an 8-dimensional subtree: at n=3 its
    # projector has 8^6 = 262,144 entries, refused under a cap of 1024
    # before any Kronecker product is taken; at n=1 it has 64
    t = line_tree(4)
    s = make_named_state("w", 4)
    monkeypatch.setenv("TREECOST_DIM_CAP", "1024")
    dec = decompose(s, t)
    proj = build_projection(s, t, t.edge_by_label(1), 3, 0.1)
    with pytest.raises(DimensionCapExceeded, match="262144 amplitudes, cap 1024"):
        projection_matrix(dec, proj)
    proj = build_projection(s, t, t.edge_by_label(1), 1, 0.1)
    assert projection_matrix(dec, proj).shape == (8, 8)


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


def test_every_share_reader_refuses_the_same_bad_shares():
    # approx_bounds, approx_state, union_bound_check and construct_approx
    # read shares through one check: an unknown edge and a negative share
    # are refused alike, never dropped or clipped
    t = line_tree(4)
    s = make_named_state("w", 4)
    readers = [
        lambda th: approx_bounds(s, t, 2, 0.9, thresholds=th),
        lambda th: approx_state(s, t, 2, th),
        lambda th: union_bound_check(s, t, 2, th),
        lambda th: construct_approx(s, t, 2, th),
    ]
    for read in readers:
        with pytest.raises(ThresholdBudgetExceeded, match="unknown edge 7"):
            read({1: 0.3, 7: 0.5})
        with pytest.raises(InvalidEpsilon, match="at edge 2 negative"):
            read({1: 0.3, 2: -0.1})
        # NaN passes a "negative" test, so it is refused by name
        for share in (float("nan"), float("inf")):
            with pytest.raises(InvalidEpsilon, match="at edge 1 not finite"):
                read({1: share, 2: 0.01})


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
    P = np.kron(np.eye(2**n), projection_matrix(ap.decomposition, proj))
    cut_amps = P @ block
    cut_amps /= np.linalg.norm(cut_amps)
    assert np.allclose(ap.state.amplitudes, cut_amps, atol=1e-10)
    ov = np.vdot(block, cut_amps)
    want = 2 * np.sqrt(1 - abs(ov) ** 2)
    assert ap.achieved_distance == pytest.approx(want, abs=1e-10)
    assert ap.achieved_distance <= ap.bound + 1e-9


def test_approx_state_respects_the_dimension_cap(monkeypatch):
    # the dense block is built only when the state is read
    monkeypatch.setenv("TREECOST_DIM_CAP", "64")
    t = line_tree(4)
    s = make_named_state("w", 4)
    ap = approx_state(s, t, 2, {})
    with pytest.raises(DimensionCapExceeded):
        ap.state


def test_approx_state_raises_when_projections_remove_everything(monkeypatch):
    import treecost.approx as approx_mod

    t = line_tree(2)
    s = make_named_state("bell", 2)
    real = approx_mod._edge_projection

    def starved(*args, **kwargs):
        proj = real(*args, **kwargs)
        import dataclasses

        return dataclasses.replace(
            proj, keep_mask=np.zeros_like(proj.keep_mask)
        )

    monkeypatch.setattr(approx_mod, "_edge_projection", starved)
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


def test_budgets_equal_the_cost_upper_bounds():
    # the projections and approx_bounds read the same decompose sweep, so
    # the same share gives the same spectrum and the same waterline, bit
    # for bit
    rng = np.random.default_rng(909)
    eps = 0.3
    compared = 0
    for trial in range(40):
        t = random_tree(rng, 3 + trial % 2)
        s = random_pure_state(rng, t.dims)
        n = 2 + trial % 2
        th = {e.label: eps / sqrt(len(t.edges)) for e in t.edges}
        _, rep = construct_approx(s, t, n, th, seed=trial)
        bounds = approx_bounds(s, t, n, eps, thresholds=th)
        for row, bound in zip(rep.rows, bounds.rows):
            assert row.edge == bound.edge
            assert row.budget_bits == bound.upper
            compared += 1
    assert compared == 100


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
    P = np.kron(np.eye(2**n), projection_matrix(decompose(s, t), proj))
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
    P = np.kron(np.eye(2**n), projection_matrix(decompose(s, t), proj))
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
    inside = products.reshape(-1)[~proj.keep_mask].sum() / (
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
            want = products.reshape(-1)[~proj.keep_mask].sum() / w.sum() ** n
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
    real = approx_mod._edge_projection

    def starved(*args, **kwargs):
        proj = real(*args, **kwargs)
        return dataclasses.replace(
            proj, keep_mask=np.zeros_like(proj.keep_mask)
        )

    monkeypatch.setattr(approx_mod, "_edge_projection", starved)
    with pytest.raises(DegenerateDenominator):
        approx_mod.union_bound_check(s, t, 2, {1: 0.5})
    # one refusal serves both entry points
    with pytest.raises(DegenerateDenominator):
        approx_mod.approx_state(s, t, 2, {1: 0.5})
    assert issubclass(DegenerateDenominator, ZeroNorm)


def test_union_bound_is_read_from_the_approx_state(monkeypatch):
    # reading the union bound off an ApproxState runs no second truncation
    import treecost.approx as approx_mod

    calls = []
    real = approx_mod._removed_weights

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(approx_mod, "_removed_weights", counted)
    skewed = skewed_pure_state(np.random.default_rng(3), (2,) * 4)
    cases = [
        (make_named_state("product", 4), line_tree(4), 2, {1: 0.3, 2: 0.3}),
        (skewed_ghz(), line_tree(3), 3, {1: 0.6, 2: 0.6}),
        (make_named_state("w", 4), line_tree(4), 8, {1: 0.5}),
        # last, so its report is checked below: every edge cuts
        (skewed, line_tree(4), 3, {1: 0.3, 2: 0.3, 3: 0.3}),
    ]
    for s, t, n, shares in cases:
        ap = approx_state(s, t, n, shares)
        before = len(calls)
        view = ap.union_bound
        assert len(calls) == before
        assert view is ap.union_bound
        assert view == union_bound_check(s, t, n, shares)
        assert view.lhs == ap.achieved_distance
    assert all(d > 0.0 for d in view.deficits.values())


# ---------------------------------------------------------- masked network


def _oracle(state, ap):
    """The distance and the normalized projected block of the ApproxState
    ap by the dense oracle."""
    ov, weight, ref, block = dense_block_overlaps(state, ap)
    gap = 1 - abs(ov) ** 2 / (weight * ref)
    return float(2 * np.sqrt(max(gap, 0))), block / np.sqrt(weight)


def _product(rng, dims):
    amps = np.ones(1)
    for d in dims:
        amps = np.kron(amps, random_pure_state(rng, (d,)).amplitudes)
    return amps


@st.composite
def _block_cases(draw):
    """(state, tree, n, shares): up to 4 vertices of dimension 2 or 3 on a
    random tree, at most 4096 block amplitudes.  A near sum of two products
    has Schmidt rank 2 across every cut plus coefficients near 1e-5, which
    rank_tol=1e-4 drops."""
    n = draw(st.sampled_from([2, 3, 1]))
    size = draw(st.integers(2, 4))
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=size, max_size=size))
    if prod(dims) ** n > 4096:
        dims = [2] * size
        n = min(n, 12 // size)
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, size + 1)]
    root = draw(st.integers(1, size))
    tree = root_and_relabel(edges, dict(enumerate(dims, start=1)), root)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["skewed", "random", "two products"]))
    if kind == "skewed":
        state = skewed_pure_state(rng, tree.dims)
    elif kind == "random":
        state = random_pure_state(rng, tree.dims)
    else:
        amps = _product(rng, tree.dims) + 0.6 * _product(rng, tree.dims)
        amps = amps + 1e-5 * random_pure_state(rng, tree.dims).amplitudes
        state = normalized_state(amps, tree.dims)
    # shares below about 3e-162 square to a zero deficit
    share = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-162),
        st.floats(0.01, 0.9, exclude_max=True),
    )
    shares = {e.label: draw(share) for e in tree.edges}
    return state, tree, n, shares


@settings(max_examples=100)
@given(_block_cases(), st.sampled_from([None, 1e-4]))
@example((*_truncating_pair(), 2, {1: 0.6}), 1e-4)
def test_network_distances_match_the_dense_block(case, rank_tol):
    state, tree, n, shares = case
    ap = approx_state(state, tree, n, shares, rank_tol)
    ub = union_bound_check(state, tree, n, shares, rank_tol)
    want, block = _oracle(state, ap)
    # every drawn block fits the default cap, so the dense block is built
    assert np.abs(ap.state.amplitudes - block).max() <= 1e-10
    if all(p.trivial for p in ap.projections):
        assert ap.achieved_distance == 0.0
        assert ub.lhs == 0.0
        return
    assert abs(ap.achieved_distance - want) <= 1e-10
    assert abs(ub.lhs - want) <= 1e-10


def test_network_carries_the_weight_below_the_rank_cutoff():
    # 2-2-4-2 line: edge 2 keeps 3 of its 4 Schmidt vectors at rank_tol
    # 1e-4 and is left whole while edge 3 cuts, so bond 2 must carry the
    # dropped vector (1.4e-11 off the dense block without it)
    rng = np.random.default_rng(77)
    coeffs = np.array([0.8, 0.5, 0.3, 3e-6])
    near = np.linalg.qr(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )[0]
    far = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    far[1::2] *= 0.3  # skews the cut of the last qubit
    far = np.linalg.qr(far)[0]
    amps = np.einsum("ak,k,bk->ab", near, coeffs, far).reshape(-1)
    s = normalized_state(amps, (2, 2, 4, 2))
    t = line_tree(4, dims=(2, 2, 4, 2))
    shares = {1: 0.6, 2: 0.0, 3: 0.6}
    ap = approx_state(s, t, 2, shares, rank_tol=1e-4)
    assert [p.trivial for p in ap.projections] == [True, True, False]
    assert ap.projections[1].rank == 3
    assert ap.projections[1].dropped_weight > 1e-12
    want, _ = _oracle(s, ap)
    assert abs(ap.achieved_distance - want) <= 1e-13
    ub = union_bound_check(s, t, 2, shares, rank_tol=1e-4)
    assert abs(ub.lhs - want) <= 1e-13


def test_masks_nested_three_deep_under_a_branching_root():
    # edges 3 and 4 hang below edge 1, every edge cuts, and the root has
    # two children, so the root reads the off-diagonal entries of the
    # environments that two masks have already split apart
    t = root_and_relabel(
        [(1, 2), (2, 3), (3, 4), (1, 5)], {v: 2 for v in range(1, 6)}, 1
    )
    s = skewed_pure_state(np.random.default_rng(1), t.dims, decay=6.0)
    shares = {e.label: 0.6 for e in t.edges}
    ap = approx_state(s, t, 2, shares)
    assert not any(p.trivial for p in ap.projections)
    want, _ = _oracle(s, ap)
    assert abs(ap.achieved_distance - want) <= 1e-10
    assert abs(union_bound_check(s, t, 2, shares).lhs - want) <= 1e-10


def test_small_cuts_keep_their_relative_precision():
    # a near-product state: each cut removes about 1e-10 of the weight, so
    # 1 - |<a|b>|^2 is about 1e-9 and a float64 difference of overlaps
    # near 1 would lose four to five of its digits
    rng = np.random.default_rng(2024)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    amps += 1e-5 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    s = normalized_state(amps, (2, 2, 2, 2))
    t = line_tree(4)
    shares = {e.label: 0.1 / sqrt(3) for e in t.edges}
    for n in (1, 2, 3):
        ap = approx_state(s, t, n, shares)
        assert all(not p.trivial for p in ap.projections)
        want, _ = _oracle(s, ap)
        assert 1e-5 < want < 1e-3
        assert abs(ap.achieved_distance - want) <= 1e-9 * want


def test_one_cut_at_n8_matches_its_deficit_without_a_block():
    # the W4 block at n=8 would hold 2^32 amplitudes; with one projector P,
    # <psi|P psi> = ||P psi||^2, so the left side is 2 sqrt(deficit)
    t = line_tree(4)
    s = make_named_state("w", 4)
    shares = {1: 0.5, 2: 0.0, 3: 0.0}
    rep = union_bound_check(s, t, 8, shares)
    assert rep.deficits[1] > 0.0
    assert abs(rep.lhs - 2.0 * sqrt(rep.deficits[1])) <= 1e-10
    ap = approx_state(s, t, 8, shares)
    assert not ap.projections[0].trivial
    assert ap.achieved_distance == rep.lhs
    assert ap.holds


def test_network_environments_respect_the_dimension_cap(monkeypatch):
    # W4 at n=4 cut on edges 1 and 3: bond 2's environment spans
    # (2 x 2)^4 = 256 amplitudes
    t = line_tree(4)
    s = make_named_state("w", 4)
    shares = {1: 0.7, 2: 0.0, 3: 0.7}
    monkeypatch.setenv("TREECOST_DIM_CAP", "255")
    with pytest.raises(DimensionCapExceeded):
        approx_state(s, t, 4, shares)
    with pytest.raises(DimensionCapExceeded):
        union_bound_check(s, t, 4, shares)
    monkeypatch.setenv("TREECOST_DIM_CAP", "256")
    ap = approx_state(s, t, 4, shares)
    assert ap.achieved_distance > 0.0
    assert union_bound_check(s, t, 4, shares).lhs == ap.achieved_distance


def test_trivial_projections_build_no_block():
    # W4 at n=5 keeps every level at these shares; its block would take
    # 2^20 amplitudes (16 MiB)
    t = line_tree(4)
    s = make_named_state("w", 4)
    shares = {e.label: 0.1 / sqrt(3) for e in t.edges}
    (ap, rep), peak = traced_peak(lambda: (
        approx_state(s, t, 5, shares), union_bound_check(s, t, 5, shares)
    ))
    assert all(p.trivial for p in ap.projections)
    assert ap.achieved_distance == rep.lhs == 0.0
    assert peak < 2**20


def test_every_cutting_bond_holds_one_environment_buffer():
    # all three projections cut a skewed 4-qubit line at n=5; the middle
    # bond's environment spans 16^5 complex entries (16 MiB), which its
    # mask and both transfers of its parent share: a second copy for the
    # ket side would take the peak past 32 MiB
    t = line_tree(4)
    s = skewed_pure_state(np.random.default_rng(3), t.dims)
    shares = {e.label: 0.1 / sqrt(3) for e in t.edges}
    (ap, rep), peak = traced_peak(lambda: (
        approx_state(s, t, 5, shares), union_bound_check(s, t, 5, shares)
    ))
    assert not any(p.trivial for p in ap.projections)
    assert rep.lhs == ap.achieved_distance > 0.0
    assert peak < 24 * 2**20
