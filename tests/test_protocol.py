"""Measurement program compilation and branch-exact protocol simulation."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from treecost import (
    DimensionCapExceeded,
    InsufficientResource,
    MalformedProgram,
    NotALine,
    OutOfRangeIndex,
    ResourceConfig,
    ZeroProbabilityBranch,
    build_program,
    check_completeness,
    correction_unitary,
    decompose,
    enumerate_branches,
    generalized_pauli_x,
    generalized_pauli_z,
    make_named_state,
    naive_distribution_cost,
    root_and_relabel,
    simulate,
)
from treecost.config import FIDELITY_TOL

from helpers import (
    all_transcript_outcomes,
    line_tree,
    random_pure_state,
    random_tree,
    star_tree,
)


def _program(state, tree, resources=None):
    return build_program(decompose(state, tree), resources)


def w4_program(root=1):
    t = line_tree(4, root=root)
    return _program(make_named_state("w", 4), t)


# ---------------------------------------------------------------- operators


def test_shift_operator_is_the_cyclic_permutation():
    for d in (2, 3, 5):
        for x in range(d):
            X = generalized_pauli_x(d, x)
            for col in range(d):
                want = np.zeros(d)
                want[(col + x) % d] = 1.0
                assert np.array_equal(X[:, col], want)


def test_phase_operator_is_diagonal_roots_of_unity():
    for d in (2, 3, 4):
        for z in range(d):
            Z = generalized_pauli_z(d, z)
            w = np.exp(2j * np.pi * z / d)
            assert np.allclose(Z, np.diag([w**k for k in range(d)]))


def test_weyl_commutation_phase():
    for d in (2, 3, 5):
        X = generalized_pauli_x(d, 1)
        Z = generalized_pauli_z(d, 1)
        w = np.exp(2j * np.pi / d)
        assert np.allclose(Z @ X, w * (X @ Z))


def test_displacement_index_bounds():
    with pytest.raises(OutOfRangeIndex):
        generalized_pauli_x(2, 2)
    with pytest.raises(OutOfRangeIndex):
        generalized_pauli_z(3, -1)
    with pytest.raises(OutOfRangeIndex):
        correction_unitary(2, 0, 5)


def test_correction_inverts_the_transposed_displacement():
    # the reverse-side displacement acts transposed; its correction must
    # cancel it exactly, not just up to phase
    for d in (2, 3, 4):
        for x in range(d):
            for z in range(d):
                disp = generalized_pauli_z(d, z) @ generalized_pauli_x(d, x)
                corr = correction_unitary(d, x, z)
                assert np.allclose(corr @ disp.T, np.eye(d), atol=1e-12)


def test_correction_tables_reproduce_the_correction_unitaries():
    # the walker applies corrections as a gather plus a phase
    from treecost.protocol import _correction_tables

    for d in (2, 3, 4, 5):
        sources, phases = _correction_tables(d)
        for x in range(d):
            for z in range(d):
                m = np.zeros((d, d), dtype=complex)
                m[np.arange(d), sources[x]] = phases[z]
                assert np.allclose(m, correction_unitary(d, x, z), atol=1e-15)


# ------------------------------------------------------------- compilation


def test_program_operator_shapes_and_outcome_order():
    prog = w4_program()
    t = prog.tree
    for v in (1, 2, 3):
        ops = prog.vertex_ops[v]
        child_ranks = [prog.ranks[t.edge_above(c).label] for c in t.children(v)]
        own = 1 if v == t.root else prog.ranks[t.edge_above(v).label]
        k = int(np.prod([r * r for r in child_ranks]))
        assert ops.shape == (k, t.dim_of(v), own * int(np.prod(child_ranks)))
        # outcome tuples enumerate shift-major, phase-minor per child
        per_child = [
            [(x, z) for x in range(r) for z in range(r)] for r in child_ranks
        ]
        assert prog.outcomes[v] == tuple(itertools.product(*per_child))
    assert prog.branch_count == 64
    assert set(prog.leaf_isometries) == {4}


def test_program_resources_default_to_exact_ranks():
    prog = w4_program()
    assert prog.resources == prog.ranks == {1: 2, 2: 2, 3: 2}


def test_insufficient_resource_reports_edge_and_ranks():
    t = line_tree(4)
    dec = decompose(make_named_state("w", 4), t)
    with pytest.raises(InsufficientResource) as err:
        build_program(dec, {1: 2, 2: 1, 3: 2})
    assert err.value.edge_label == 2
    assert err.value.required == 2
    assert err.value.supplied == 1
    with pytest.raises(MalformedProgram):
        build_program(dec, {1: 2, 2: 2})  # edge 3 missing


def test_resource_config_helpers():
    t = line_tree(3)
    dec = decompose(make_named_state("ghz", 3), t)
    assert ResourceConfig.optimal(dec).supplies == {1: 2, 2: 2}
    assert ResourceConfig.uniform(t, 5).supplies == {1: 5, 2: 5}
    prog = build_program(dec, ResourceConfig.uniform(t, 3))
    assert prog.resources == {1: 3, 2: 3}


def test_operator_stacks_respect_the_dimension_cap(monkeypatch):
    # on a W4 line vertices 2 and 3 stack 4 outcomes x 2 levels x 4 inputs
    # = 32 amplitudes; the root's stack is smaller
    dec = decompose(make_named_state("w", 4), line_tree(4))
    monkeypatch.setenv("TREECOST_DIM_CAP", "31")
    with pytest.raises(DimensionCapExceeded):
        build_program(dec)
    monkeypatch.setenv("TREECOST_DIM_CAP", "32")
    assert build_program(dec).branch_count == 64


# ------------------------------------------------------------ completeness


def test_completeness_on_random_programs():
    rng = np.random.default_rng(211)
    for _ in range(8):
        t = random_tree(rng, int(rng.integers(2, 6)), dim_choices=(2, 3))
        s = random_pure_state(rng, t.dims)
        rep = check_completeness(_program(s, t))
        assert rep.ok
        assert rep.max_defect < 1e-10
        assert set(rep.vertex_defects) == {
            v for v in t.vertices if not t.is_leaf(v) or v == t.root
        }
        assert set(rep.isometry_defects) == set(t.leaves) - {t.root}


def test_completeness_catches_a_scaled_operator_family():
    prog = w4_program()
    bad_ops = dict(prog.vertex_ops)
    bad_ops[2] = 1.05 * bad_ops[2]
    bad = dataclasses.replace(prog, vertex_ops=bad_ops)
    rep = check_completeness(bad)
    assert not rep.ok
    assert rep.vertex_defects[2] > 0.05


def test_completeness_catches_a_broken_isometry():
    prog = w4_program()
    bad_iso = dict(prog.leaf_isometries)
    bad_iso[4] = bad_iso[4] * 0.5
    bad = dataclasses.replace(prog, leaf_isometries=bad_iso)
    rep = check_completeness(bad)
    assert not rep.ok
    assert rep.isometry_defects[4] > 0.5


# -------------------------------------------------------------- simulation


def test_every_branch_reaches_the_target_with_uniform_probability():
    prog = w4_program()
    branches = enumerate_branches(prog)
    assert len(branches) == 64
    probs = [tr.probability for tr in branches]
    assert abs(sum(probs) - 1.0) < 1e-9
    assert np.allclose(probs, 1 / 64)
    assert min(tr.fidelity for tr in branches) >= 1 - 1e-9
    # outcome tuples cover the full product range exactly once
    combos = all_transcript_outcomes(branches)
    assert len(combos) == 64


def test_sampling_is_seed_deterministic():
    prog = w4_program(root=2)
    a = simulate(prog, mode="sample", seed=9)
    b = simulate(prog, mode="sample", seed=9)
    assert a.outcomes == b.outcomes
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    seen = {
        tuple(sorted(simulate(prog, mode="sample", seed=s).outcomes.items()))
        for s in range(20)
    }
    assert len(seen) > 1  # different seeds explore different branches
    assert all(
        simulate(prog, mode="sample", seed=s).fidelity >= 1 - 1e-9
        for s in range(5)
    )


def _mixed_program(seed):
    rng = np.random.default_rng(seed)
    mixed = root_and_relabel(
        [(1, 2), (1, 3), (3, 4)], {1: 2, 2: 3, 3: 2, 4: 2}, 1
    )
    return _program(random_pure_state(rng, mixed.dims), mixed)


def test_forced_branch_matches_enumeration():
    # one walker serves both modes, so a forced branch repeats the
    # enumerated one bit for bit; the mixed tree labels leaf 2 before the
    # nonleaf 3, which catches a walk that defers leaves to the end
    programs = [w4_program(), w4_program(root=2), _mixed_program(227)]
    for prog in programs:
        branches = enumerate_branches(prog)
        assert len(branches) == prog.branch_count
        for tr in branches:
            forced = simulate(prog, mode="branch", outcomes=tr.outcomes)
            assert forced.outcomes == tr.outcomes
            assert forced.events == tr.events
            assert forced.probability == tr.probability
            assert np.array_equal(
                forced.final_state.amplitudes, tr.final_state.amplitudes
            )


def test_enumeration_does_not_depend_on_the_batch_split(monkeypatch):
    # a batch bound of one amplitude splits every batch into single
    # branches; the walk must give the same transcripts bit for bit
    import treecost.protocol as protocol_mod

    programs = [w4_program(), w4_program(root=2), _mixed_program(229)]
    batched = [enumerate_branches(prog) for prog in programs]
    monkeypatch.setattr(protocol_mod, "_BATCH_AMPLITUDES", 1)
    for prog, want in zip(programs, batched):
        got = enumerate_branches(prog)
        assert len(got) == len(want) == prog.branch_count
        for a, b in zip(got, want):
            assert a.outcomes == b.outcomes
            assert a.events == b.events
            assert a.probability == b.probability
            assert np.array_equal(
                a.final_state.amplitudes, b.final_state.amplitudes
            )


def test_enumeration_transient_memory_stays_small():
    # 4096 branches of a 256-amplitude block state: everything the walk
    # holds beyond the transcripts it returns is a few batches of at most
    # _BATCH_AMPLITUDES amplitudes
    from treecost import approx_state

    t = line_tree(4)
    ap = approx_state(make_named_state("w", 4), t, 2, {})
    big = dataclasses.replace(t, dims=ap.state.dims)
    prog = build_program(decompose(ap.state, big))
    assert prog.branch_count == 4096
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        branches = enumerate_branches(prog)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(branches) == 4096
    assert min(tr.fidelity for tr in branches) >= 1 - FIDELITY_TOL
    assert peak - retained < 2 * 2**20


def test_branch_mode_validates_the_outcome_map():
    prog = w4_program()
    with pytest.raises(MalformedProgram):
        simulate(prog, mode="branch", outcomes={1: 0, 2: 0})  # vertex 3 missing
    with pytest.raises(MalformedProgram):
        simulate(prog, mode="branch", outcomes={1: 0, 2: 0, 3: 0, 4: 0})
    with pytest.raises(OutOfRangeIndex):
        simulate(prog, mode="branch", outcomes={1: 0, 2: 0, 3: 99})
    with pytest.raises(MalformedProgram):
        simulate(prog, mode="spin")


def test_forced_zero_probability_branch_raises():
    prog = w4_program()
    broken_ops = dict(prog.vertex_ops)
    ops = broken_ops[2].copy()
    ops[3] = 0.0  # kill one operator so its branch carries no weight
    broken_ops[2] = ops
    broken = dataclasses.replace(prog, vertex_ops=broken_ops)
    with pytest.raises(ZeroProbabilityBranch):
        simulate(broken, mode="branch", outcomes={1: 0, 2: 3, 3: 0})


def test_qutrit_star_protocol():
    rng = np.random.default_rng(223)
    t = star_tree(4, center_dim=3, leaf_dim=3)
    s = random_pure_state(rng, t.dims)
    prog = _program(s, t)
    branches = enumerate_branches(prog, record_events=False)
    assert len(branches) == prog.branch_count
    assert min(tr.fidelity for tr in branches) >= 1 - 1e-9
    assert abs(sum(tr.probability for tr in branches) - 1.0) < 1e-9


def test_single_party_program_is_trivial():
    from treecost import root_and_relabel

    t = root_and_relabel([], {"x": 2}, "x")
    s = make_named_state("random", 1, seed=3)
    prog = _program(s, t)
    assert prog.branch_count == 1
    branches = enumerate_branches(prog)
    assert len(branches) == 1
    assert branches[0].probability == pytest.approx(1.0)
    assert branches[0].fidelity >= 1 - 1e-12


@pytest.mark.parametrize("family", ["ghz", "w"])
def test_large_lines_sample_within_memory(family):
    # pairs join the register only when their parent measures, so a
    # 16-party line never holds more than the target plus one open pair
    prog = _program(make_named_state(family, 16), line_tree(16))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        tr = simulate(prog, mode="sample", seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.fidelity >= 1 - FIDELITY_TOL
    assert peak < 64 * 2**20


def test_protocol_scans_respect_the_dimension_cap(monkeypatch):
    # on a W6 line the last measurement scans 4 outcomes x 2 levels x 32
    # register amplitudes = 256; every earlier scan is smaller
    prog = _program(make_named_state("w", 6), line_tree(6))
    monkeypatch.setenv("TREECOST_DIM_CAP", "128")
    with pytest.raises(DimensionCapExceeded):
        simulate(prog, mode="sample", seed=0)
    with pytest.raises(DimensionCapExceeded):
        enumerate_branches(prog, record_events=False)
    monkeypatch.setenv("TREECOST_DIM_CAP", "256")
    assert simulate(prog, mode="sample", seed=0).fidelity >= 1 - FIDELITY_TOL


# --------------------------------------------------------------- resources


def test_padded_resources_still_construct_exactly():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    prog = _program(s, t, resources={1: 3, 2: 5})
    tr = simulate(prog, mode="sample", seed=1)
    assert tr.fidelity >= 1 - 1e-9
    kinds = [e.kind for e in tr.events]
    assert kinds.count("compress") == 2  # one compression per padded edge
    assert kinds.index("compress") < kinds.index("measure")


def test_exact_resources_skip_compression():
    prog = w4_program()
    tr = simulate(prog, mode="sample", seed=0)
    assert all(e.kind != "compress" for e in tr.events)


def test_padded_operator_embeds_with_zero_padding_columns():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    dec = decompose(s, t)
    prog = build_program(dec, {1: 3, 2: 4})
    # vertex 2 reads its own edge (rank 2 of 3) and child edge (rank 2 of 4)
    full = prog.resource_operator(2, 1)
    ops = prog.vertex_ops[2]
    assert full.shape == (2, 12)
    for own in range(3):
        for child in range(4):
            col = full[:, own * 4 + child]
            if own < 2 and child < 2:
                assert np.allclose(col, ops[1][:, own * 2 + child])
            else:
                assert np.allclose(col, 0.0)
    with pytest.raises(OutOfRangeIndex):
        prog.resource_operator(2, 99)


def test_padded_isometry_embeds_the_leaf_basis():
    t = line_tree(3)
    prog = _program(make_named_state("ghz", 3), t, resources={1: 2, 2: 6})
    iso = prog.resource_isometry(3)
    assert iso.shape == (2, 6)
    assert np.allclose(iso[:, :2], prog.leaf_isometries[3])
    assert np.allclose(iso[:, 2:], 0.0)


# ------------------------------------------------------------- corrections


def test_disabling_corrections_breaks_some_branch():
    prog = w4_program()
    healthy = enumerate_branches(prog, record_events=False)
    assert min(tr.fidelity for tr in healthy) >= 1 - 1e-9
    crippled = enumerate_branches(
        prog, record_events=False, disable_corrections=(2,)
    )
    assert min(tr.fidelity for tr in crippled) < 1 - 1e-6
    # the all-identity branch never needed the correction
    assert max(tr.fidelity for tr in crippled) >= 1 - 1e-9


def test_correction_events_only_report_nontrivial_displacements():
    prog = w4_program()
    for tr in enumerate_branches(prog):
        for e in tr.events:
            if e.kind == "correction":
                assert e.outcome != (0, 0)


def test_event_stream_is_ordered_by_vertex():
    prog = w4_program(root=2)
    tr = simulate(prog, mode="sample", seed=4)
    measured = [e.vertex for e in tr.events if e.kind == "measure"]
    assert measured == sorted(measured)
    # one message per child per measurement
    msg = [e for e in tr.events if e.kind == "message"]
    t = prog.tree
    want = sum(len(t.children(v)) for v in measured)
    assert len(msg) == want
    iso = [e.vertex for e in tr.events if e.kind == "isometry"]
    assert sorted(iso) == [v for v in t.leaves if v != t.root]


def test_message_events_carry_the_announced_pair():
    prog = w4_program()
    tr = simulate(prog, mode="branch", outcomes={1: 3, 2: 2, 3: 1})
    for e in tr.events:
        if e.kind == "message":
            x, z = e.outcome
            r = prog.ranks[e.edge]
            assert 0 <= x < r and 0 <= z < r


# ---------------------------------------------------------------- baseline


def test_naive_line_distribution_cost():
    t = line_tree(4)
    costs = naive_distribution_cost(t)
    # forwarding qubits from the root crosses the first hop three times,
    # the second twice, the last once
    assert costs == {1: 3.0, 2: 2.0, 3: 1.0}
    assert sum(costs.values()) == 6.0
    t6 = line_tree(6)
    assert sum(naive_distribution_cost(t6).values()) == 15.0
    with pytest.raises(NotALine):
        naive_distribution_cost(star_tree(4))
