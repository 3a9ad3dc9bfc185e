"""Measurement program compilation and branch-exact protocol simulation."""

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecost import (
    DimensionCapExceeded,
    InsufficientResource,
    MalformedProgram,
    NotALine,
    OutOfRangeIndex,
    ZeroProbabilityBranch,
    build_program,
    check_completeness,
    decompose,
    enumerate_branches,
    fidelity_pure,
    make_named_state,
    naive_distribution_cost,
    root_and_relabel,
    simulate,
)
from treecost.config import FIDELITY_TOL

from helpers import (
    all_transcript_outcomes,
    correction_unitary,
    dense_forced_branch,
    generalized_pauli_x,
    generalized_pauli_z,
    line_tree,
    random_pure_state,
    random_tree,
    star_tree,
    traced_peak,
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
    # the walker applies corrections as a gather plus a phase, composed
    # into the parent's outcome gather: with the child's correction that
    # gather is the correction times the transposed Pauli D^T, the
    # identity; with the correction disabled it is D^T alone
    from treecost.protocol import (
        _child_tables, _correction_tables, _outcome_gather,
    )

    def gather_matrix(src, phase):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(d), src] = phase
        return m

    for d in (2, 3, 4, 5):
        sources, phases = _correction_tables(d)
        js = np.arange(d * d)
        corrected = _outcome_gather([(1, d, *_child_tables(d, True))], js)
        plain = _outcome_gather([(1, d, *_child_tables(d, False))], js)
        for x in range(d):
            for z in range(d):
                corr = correction_unitary(d, x, z)
                m = gather_matrix(sources[x], phases[z])
                assert np.allclose(m, corr, atol=1e-15)
                disp_t = (
                    generalized_pauli_z(d, z) @ generalized_pauli_x(d, x)
                ).T
                j = x * d + z
                m = gather_matrix(plain[0][j], plain[1][j])
                assert np.abs(m - disp_t).max() <= 1e-15
                m = gather_matrix(corrected[0][j], corrected[1][j])
                assert np.abs(m - corr @ disp_t).max() <= 1e-15
                # the identity up to a unit phase: exp rounds its angles,
                # which reach 2 pi r, in the last bits
                assert np.array_equal(corrected[0][j], np.arange(d))
                assert np.abs(corrected[1][j] - 1.0).max() <= 1e-14


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
        assert prog.outcome_count(v) == k
        assert [prog.outcome(v, j) for j in range(k)] == list(
            itertools.product(*per_child)
        )
        assert prog.bases[v].shape == (t.dim_of(v), own, *child_ranks)
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
    prog = build_program(dec, {e.label: 3 for e in t.edges})
    assert prog.resources == {1: 3, 2: 3}


def test_a_supplied_rank_for_an_unknown_edge_is_refused():
    dec = decompose(make_named_state("w", 4), line_tree(4))
    with pytest.raises(
        MalformedProgram, match=r"^supplied rank for unknown edge 99$"
    ):
        build_program(dec, {1: 2, 2: 2, 3: 2, 99: 5})


def test_operator_stacks_respect_the_dimension_cap(monkeypatch):
    # on a W4 line vertices 2 and 3 stack 4 outcomes x 2 levels x 4 inputs
    # = 32 amplitudes; the root's stack is smaller.  A program stores only
    # its bases, so the stacks are built, and refused, by the view.
    dec = decompose(make_named_state("w", 4), line_tree(4))
    monkeypatch.setenv("TREECOST_DIM_CAP", "31")
    prog = build_program(dec)
    assert prog.branch_count == 64
    with pytest.raises(DimensionCapExceeded):
        prog.vertex_ops
    monkeypatch.setenv("TREECOST_DIM_CAP", "32")
    ops = build_program(dec).vertex_ops
    assert max(o.size for o in ops.values()) == 32


def test_operator_stacks_match_the_kron_construction():
    # a stack is built by one gather and one phase; operator j must equal
    # the base operator times I x Z^z X^x x ... over the children's (x, z).
    # A program's bases are views of the sweep's factors, in the sweep's
    # gauge, and its target is the input state.
    w4 = make_named_state("w", 4)
    instances = [
        (w4, line_tree(4)), (w4, line_tree(4, root=2)), _mixed_instance(227)
    ]
    for state, t in instances:
        dec = decompose(state, t)
        prog = build_program(dec)
        assert fidelity_pure(prog.target, state) >= 1.0 - 1e-12
        for v, ops in prog.vertex_ops.items():
            ranks = [dec.ranks[t.edge_above(c).label] for c in t.children(v)]
            gm = prog.bases[v]
            assert np.shares_memory(gm, dec.factors[v])
            base = gm.reshape(gm.shape[0], -1) / np.sqrt(np.prod(ranks))
            assert len(ops) == prog.outcome_count(v) == np.prod(ranks) ** 2
            for j, op in enumerate(ops):
                factors = [np.eye(gm.shape[1], dtype=complex)]
                for (x, z), r in zip(prog.outcome(v, j), ranks):
                    factors.append(
                        generalized_pauli_z(r, z) @ generalized_pauli_x(r, x)
                    )
                want = base @ functools.reduce(np.kron, factors)
                assert np.abs(op - want).max() <= 1e-15


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
    bad = dataclasses.replace(prog, bases={**prog.bases, 2: 1.05 * prog.bases[2]})
    rep = check_completeness(bad)
    assert not rep.ok
    assert rep.vertex_defects[2] > 0.05


@pytest.mark.parametrize("where", ["leaf", "base", "wide base"])
def test_completeness_fails_on_a_non_finite_defect(where):
    # a nan defect fails the check wherever it sits among the defects: on
    # the W4 line after every vertex's (the leaf) or between two, and on a
    # qutrit line at a base whose Gram matrix (3 x 3) eigvalsh cannot take
    prog = w4_program()
    if where == "leaf":
        bad = dataclasses.replace(
            prog, leaf_isometries={4: np.full_like(prog.leaf_isometries[4],
                                                   np.nan)}
        )
        defect = check_completeness(bad).isometry_defects[4]
    else:
        if where == "wide base":
            t = line_tree(4, dims=[3, 3, 3, 3])
            rng = np.random.default_rng(1)
            prog = _program(random_pure_state(rng, t.dims), t)
            assert prog.bases[2].shape[1] == 3
        bad = dataclasses.replace(
            prog, bases={**prog.bases, 2: np.full_like(prog.bases[2], np.nan)}
        )
        defect = check_completeness(bad).vertex_defects[2]
    rep = check_completeness(bad)
    assert np.isnan(defect)
    assert np.isnan(rep.max_defect)
    assert not rep.ok


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


def _mixed_instance(seed):
    rng = np.random.default_rng(seed)
    mixed = root_and_relabel(
        [(1, 2), (1, 3), (3, 4)], {1: 2, 2: 3, 3: 2, 4: 2}, 1
    )
    return random_pure_state(rng, mixed.dims), mixed


def _mixed_program(seed):
    return _program(*_mixed_instance(seed))


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


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_forced_branches_match_the_dense_oracle(seed, cripple):
    # the walk absorbs each child pair into the base product and gathers
    # the followed outcome; the oracle attaches the pairs and applies the
    # Kronecker-built operator.  With a correction disabled the branch no
    # longer reaches the target, but both routes must still agree.
    rng = np.random.default_rng(seed)
    t = random_tree(rng, int(rng.integers(2, 6)), dim_choices=(2, 3))
    prog = _program(random_pure_state(rng, t.dims), t)
    outcomes = {v: int(rng.integers(prog.outcome_count(v))) for v in prog.bases}
    disabled = (int(rng.integers(1, t.n)),) if cripple else ()
    tr = simulate(prog, mode="branch", outcomes=outcomes,
                  disable_corrections=disabled)
    amps, prob = dense_forced_branch(prog, outcomes, disabled)
    assert tr.outcomes == outcomes
    assert abs(tr.probability - prob) <= 1e-12
    assert np.abs(tr.final_state.amplitudes - amps).max() <= 1e-12
    if not cripple:
        assert tr.fidelity >= 1 - FIDELITY_TOL


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_walk_order_fidelities_match_the_final_states(seed, cripple):
    # the walk scores each branch in its own axis order, against a target
    # permuted to that order; every score must be the fidelity of the
    # branch's replayed final state in party order, also on branches that
    # disabled corrections keep from the target
    rng = np.random.default_rng(seed)
    t = random_tree(rng, int(rng.integers(2, 5)), dim_choices=(2, 3))
    prog = _program(random_pure_state(rng, t.dims), t)
    disabled = ()
    if cripple:
        disabled = tuple(
            e.label for e in t.edges if rng.random() < 0.5
        ) or (t.edges[0].label,)
    branches = enumerate_branches(prog, disable_corrections=disabled)
    assert len(branches) == prog.branch_count
    for tr in branches:
        want = fidelity_pure(tr.final_state, prog.target)
        assert abs(tr.fidelity - want) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_every_branch_has_the_product_of_uniform_outcome_probabilities(
    seed, cripple
):
    # every outcome of v has probability 1/K_v, so every followed branch
    # has the product of 1/K_v over the measuring vertices in label order,
    # bit for bit, also on branches that disabled corrections keep from
    # the target
    rng = np.random.default_rng(seed)
    t = random_tree(rng, int(rng.integers(2, 5)), dim_choices=(2, 3))
    prog = _program(random_pure_state(rng, t.dims), t)
    disabled = ()
    if cripple:
        disabled = tuple(
            e.label for e in t.edges if rng.random() < 0.5
        ) or (t.edges[0].label,)
    want = 1.0
    for v in sorted(prog.bases):
        want *= 1.0 / prog.outcome_count(v)
    branches = enumerate_branches(prog, disable_corrections=disabled)
    assert len(branches) == prog.branch_count
    for tr in branches:
        assert tr.probability == want
        measures = [ev for ev in tr.events if ev.kind == "measure"]
        assert [ev.vertex for ev in measures] == sorted(prog.bases)
        for ev in measures:
            assert ev.probability == 1.0 / prog.outcome_count(ev.vertex)


def test_sampling_makes_the_draw_of_a_uniform_choice():
    # one rng.choice(K_v, p=uniform) per measuring vertex in label order
    for prog in (w4_program(), w4_program(root=2), _mixed_program(227)):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            want = {
                v: int(rng.choice(k, p=np.full(k, 1.0 / k)))
                for v in sorted(prog.bases)
                for k in [prog.outcome_count(v)]
            }
            assert simulate(prog, mode="sample", seed=seed).outcomes == want


def test_a_sampled_run_is_the_forced_run_of_its_outcomes():
    # sampling draws its outcomes and follows them as a forced branch, so
    # the two agree bit for bit, also on a branch a disabled correction
    # keeps from the target
    prog = _mixed_program(227)
    for disabled in [(), (2,), (3,)]:
        for seed in range(12):
            tr = simulate(prog, mode="sample", seed=seed,
                          disable_corrections=disabled)
            forced = simulate(prog, mode="branch", outcomes=tr.outcomes,
                              disable_corrections=disabled)
            assert forced.events == tr.events
            assert forced.probability == tr.probability
            assert (forced.final_state.amplitudes.tobytes()
                    == tr.final_state.amplitudes.tobytes())


@pytest.mark.parametrize("shape", ["line14", "tree12"])
def test_large_random_instances_sample_without_outcome_tables(shape):
    # a random 14-qubit line (K_v up to 16,384) and a random 12-vertex
    # qubit tree (K_v up to 1,048,576) sample within the default cap, and
    # nothing the walk allocates is sized by K_v: the tree's traced peak
    # stays under 8 bytes per outcome of its largest vertex, the line's
    # under 8 times its state
    rng = np.random.default_rng(2)
    t = line_tree(14) if shape == "line14" else random_tree(rng, 12)
    s = random_pure_state(rng, t.dims)
    prog = _program(s, t)
    k_max = max(prog.outcome_count(v) for v in prog.bases)
    tr, peak = traced_peak(lambda: simulate(prog, mode="sample", seed=3))
    assert tr.fidelity >= 1 - FIDELITY_TOL
    if shape == "line14":
        assert k_max == 2**14
        assert peak < 8 * s.amplitudes.nbytes
    else:
        assert k_max == 2**20
        assert peak < 8 * k_max


@pytest.mark.parametrize("name,k", [("ghz", None), ("w", None), ("dicke", 2)])
def test_construct_path_stays_under_four_states(name, k):
    # decompose, build and sample read the sweep's factors: no dense edge
    # basis is built, and the target is one contraction of the factors.
    # A first run on 4 qubits loads what sampling imports on first use.
    simulate(_program(make_named_state(name, 4, k=k), line_tree(4)))
    s = make_named_state(name, 16, k=k)
    t = line_tree(16)
    tr, peak = traced_peak(
        lambda: simulate(build_program(decompose(s, t)), mode="sample", seed=1)
    )
    assert tr.fidelity >= 1 - FIDELITY_TOL
    assert peak < 4 * s.amplitudes.nbytes


def test_construct_and_approx_paths_never_run_the_canonical_pass(
    monkeypatch, tmp_path, capsys
):
    # programs and the n-copy network contract the sweep's factors
    # themselves; no path rebuilds the state through recompose
    import json

    import treecost
    from treecost import approx_state, construct_approx, union_bound_check
    from treecost import decomposition, verify
    from treecost.cli import main

    calls = [0]
    real = decomposition.recompose

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for module in (decomposition, treecost, verify):
        monkeypatch.setattr(module, "recompose", counted)

    state, t = _mixed_instance(239)
    prog = build_program(decompose(state, t))
    assert check_completeness(prog).ok
    simulate(prog, mode="sample", seed=2)
    simulate(prog, mode="branch", outcomes={v: 1 for v in prog.bases})
    assert len(simulate(prog, mode="enumerate")) == prog.branch_count
    w4, line = make_named_state("w", 4), line_tree(4)
    shares = {1: 0.3, 2: 0.2, 3: 0.3}
    ap = approx_state(w4, line, 2, shares)
    ap.state
    union_bound_check(w4, line, 2, shares)
    construct_approx(w4, line, 2, shares)
    construct_approx(w4, line, 2, shares, enumerate_all=True)
    tree = tmp_path / "w4.json"
    tree.write_text(json.dumps({
        "parties": [{"id": str(i)} for i in range(1, 5)],
        "edges": [[str(i), str(i + 1)] for i in range(1, 4)],
        "root": "1",
    }))
    common = ["--tree", str(tree), "--state", "w4"]
    assert main(["simulate", *common, "--enumerate"]) == 0
    assert main(["simulate", *common, "--seed", "3"]) == 0
    assert main(["approx", *common, "--n", "2", "--eps", "0.3"]) == 0
    capsys.readouterr()
    assert calls == [0]
    treecost.recompose(ap.decomposition)
    assert calls == [1]


def test_enumeration_does_not_depend_on_the_batch_split(monkeypatch):
    # a batch bound of one amplitude splits every batch into single
    # branches, and one of 192 splits the W4 line's into records whose
    # rows are no product of outcome sets (one holds vertex 1's outcome 0
    # followed by vertex 2's outcome 3 and its outcome 1 followed by 0 and
    # 1); the walk and the replay of its records must give the same
    # transcripts bit for bit.  The qutrit star replays records of 22 and
    # 101 rows at the default bound, far fewer than its 729 outcomes
    import treecost.protocol as protocol_mod

    programs = [w4_program(), w4_program(root=2), _mixed_program(229),
                _qutrit_star_program()]
    batched = [enumerate_branches(prog) for prog in programs]
    want_states = [[tr.final_state for tr in want] for want in batched]
    for bound in (1, 192):
        monkeypatch.setattr(protocol_mod, "_BATCH_AMPLITUDES", bound)
        for prog, want, states in zip(programs, batched, want_states):
            got = enumerate_branches(prog)
            assert len(got) == len(want) == prog.branch_count
            for a, b, state in zip(got, want, states):
                assert a.outcomes == b.outcomes
                assert a.events == b.events
                assert a.probability == b.probability
                assert np.array_equal(
                    a.final_state.amplitudes, state.amplitudes
                )


def test_batch_records_survive_the_rest_of_the_walk(monkeypatch):
    # single-branch batches give every branch a record of its own while
    # the walk goes on; events and final states read only after the whole
    # walk must still equal forced runs taken before it, so no later step
    # wrote into the arrays an earlier record holds.  A final state is
    # replayed from its record, with the record's corrections disabled too.
    import treecost.protocol as protocol_mod

    monkeypatch.setattr(protocol_mod, "_BATCH_AMPLITUDES", 1)
    cases = [(w4_program(), ()), (w4_program(root=2), ()),
             (_mixed_program(233), ()), (w4_program(), (2,)),
             (_mixed_program(233), (3,))]
    for prog, disabled in cases:
        measuring = sorted(prog.vertex_ops)
        combos = itertools.product(
            *(range(prog.vertex_ops[v].shape[0]) for v in measuring)
        )
        want = []
        for c in combos:
            tr = simulate(prog, mode="branch",
                          outcomes=dict(zip(measuring, c)),
                          disable_corrections=disabled)
            want.append((tr.events, tr.outcomes, tr.probability,
                         tr.final_state.amplitudes.tobytes()))
        branches = enumerate_branches(prog, disable_corrections=disabled)
        assert len(branches) == len(want) == prog.branch_count
        got = [
            (tr.events, tr.outcomes, tr.probability,
             tr.final_state.amplitudes.tobytes())
            for tr in branches
        ]
        assert got == want


def test_enumeration_derives_events_only_when_read(monkeypatch):
    import treecost.protocol as protocol_mod

    calls = []
    branch = protocol_mod._EventLog.branch

    def counted(self, row):
        calls.append(tuple(row))
        return branch(self, row)

    monkeypatch.setattr(protocol_mod._EventLog, "branch", counted)
    prog = w4_program()
    branches = enumerate_branches(prog)
    assert min(tr.fidelity for tr in branches) >= 1 - FIDELITY_TOL
    assert abs(sum(tr.probability for tr in branches) - 1.0) < 1e-9
    assert calls == []
    lazy = ("events", "outcomes", "final_state")
    assert not any(name in vars(tr) for tr in branches for name in lazy)
    read = [branches[5], branches[40], branches[5]]
    got = [tr.events for tr in read]
    assert got[0] is got[2]  # derived once, then cached
    assert calls == [
        tuple(tr.outcomes[v] for v in sorted(tr.outcomes)) for tr in read[:2]
    ]
    assert not any(
        "events" in vars(tr) for i, tr in enumerate(branches) if i not in (5, 40)
    )
    # branch 21 has branch 5's outcomes at vertices 2 and 3, but not at 1:
    # it shares their measure and message events, object for object
    other = branches[21]
    assert [other.outcomes[v] == read[0].outcomes[v] for v in (1, 2, 3)] == [
        False, True, True
    ]

    def own(tr, v):
        return [ev for ev in tr.events
                if ev.vertex == v and ev.kind in ("measure", "message")]

    for v in (2, 3):
        mine, theirs = own(read[0], v), own(other, v)
        assert len(mine) == len(theirs) > 0
        assert all(a is b for a, b in zip(mine, theirs))


def test_transcript_attributes_cannot_be_assigned():
    tr = simulate(w4_program(), mode="sample", seed=1)
    names = ("events", "outcomes", "probability", "final_state", "fidelity")
    for read_first in (False, True):
        for name in names:
            if read_first:
                getattr(tr, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tr, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(tr, name)
    assert tr.fidelity >= 1 - FIDELITY_TOL


def _w4_block_program():
    # the W4 line at n = 2 with nothing truncated: 4096 branches of a
    # 256-amplitude block state
    from treecost import approx_state

    t = line_tree(4)
    ap = approx_state(make_named_state("w", 4), t, 2, {})
    big = dataclasses.replace(t, dims=ap.state.dims)
    prog = build_program(decompose(ap.state, big))
    assert prog.branch_count == 4096
    return prog


def test_enumeration_transient_memory_stays_small():
    # everything the walk holds beyond the transcripts it returns is a few
    # batches of at most _BATCH_AMPLITUDES amplitudes, and the transcripts
    # hold no amplitudes: the whole enumeration stays under 4 MiB where the
    # 4096 final states alone take 16 MiB
    prog = _w4_block_program()
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
    assert peak < 4 * 2**20


def test_enumeration_keeps_under_200_bytes_per_branch():
    # what an enumeration keeps is its transcripts and, per record, the
    # outcome rows; per-branch arrays of probabilities and conditional
    # probabilities would take the 20,736 branches of this qubit and
    # qutrit line past 200 bytes each
    t = line_tree(5, dims=(2, 3, 3, 3, 2))
    prog = _program(random_pure_state(np.random.default_rng(7), t.dims), t)
    tracemalloc.start()
    try:
        branches = enumerate_branches(prog)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(branches) == prog.branch_count == 20736
    assert retained / len(branches) < 200


def test_final_states_are_replayed_once_per_record(monkeypatch):
    # no record holds amplitudes until a final state is read from it; then
    # one walk that follows the record's rows rebuilds all of them, equal
    # to forced runs of the same outcomes
    import treecost.protocol as protocol_mod

    prog = _w4_block_program()
    branches = enumerate_branches(prog)
    records = {id(tr._batch): tr._batch for tr in branches}
    assert 1 < len(records) < len(branches)
    assert not any(
        isinstance(value, np.ndarray) and np.iscomplexobj(value)
        for record in records.values() for value in vars(record).values()
    )
    walks = []
    walk = protocol_mod._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(protocol_mod, "_walk", counted)
    states = [tr.final_state.amplitudes.tobytes() for tr in branches]
    assert len(walks) == len(records)
    monkeypatch.undo()
    for i in range(0, len(branches), 97):
        forced = simulate(prog, mode="branch", outcomes=branches[i].outcomes)
        assert forced.final_state.amplitudes.tobytes() == states[i]


def test_a_replay_gathers_only_the_outcomes_its_record_holds(monkeypatch):
    # the walk builds the gather and phase of just the outcomes it follows,
    # in every mode: a record's replay asks for no more outcomes than the
    # record has rows, though the star's centre has 729 of them
    import treecost.protocol as protocol_mod

    prog = _qutrit_star_program()
    branches = enumerate_branches(prog)
    records = {id(tr._batch): tr for tr in branches}
    rows = sorted({len(tr._batch.picks) for tr in records.values()})
    assert rows == [22, 101]
    asked = []
    gather = protocol_mod._outcome_gather

    def counted(child_ranks, js):
        asked.append(len(js))
        return gather(child_ranks, js)

    monkeypatch.setattr(protocol_mod, "_outcome_gather", counted)
    for tr in records.values():
        asked.clear()
        tr.final_state
        assert asked and max(asked) <= len(tr._batch.picks)


def test_the_walk_plan_is_built_once_per_program(monkeypatch):
    # enumeration, the replay of every record and a later sample all read
    # the one plan of the program
    from treecost.protocol import MeasurementProgram

    built = []
    plan = MeasurementProgram._walk_plan
    build = plan.func

    def counted(program):
        built.append(program)
        return build(program)

    monkeypatch.setattr(plan, "func", counted)
    prog = _qutrit_star_program()
    branches = enumerate_branches(prog)
    states = [tr.final_state for tr in branches]
    tr = simulate(prog, mode="sample", seed=2)
    (want,) = (s for b, s in zip(branches, states)
               if b.outcomes == tr.outcomes)
    assert tr.final_state.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert built == [prog]


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
    with pytest.raises(MalformedProgram, match="needs forced outcomes"):
        simulate(prog, mode="branch")


def test_forced_zero_probability_branch_raises():
    # every outcome of a vertex has the norm of its base applied to the
    # register, so a zero base gives every branch through it no weight
    prog = w4_program()
    broken = dataclasses.replace(prog, bases={**prog.bases, 2: 0 * prog.bases[2]})
    with pytest.raises(ZeroProbabilityBranch):
        simulate(broken, mode="branch", outcomes={1: 0, 2: 3, 3: 0})
    with pytest.raises(ZeroProbabilityBranch):
        simulate(broken, mode="sample", seed=0)
    assert enumerate_branches(broken) == []
    # a sampled run is the forced run of its draws, refused in the same words
    for seed in range(6):
        drawn = simulate(prog, mode="sample", seed=seed).outcomes
        with pytest.raises(ZeroProbabilityBranch) as sampled:
            simulate(broken, mode="sample", seed=seed)
        with pytest.raises(ZeroProbabilityBranch) as forced:
            simulate(broken, mode="branch", outcomes=drawn)
        assert str(sampled.value) == str(forced.value) == (
            f"outcome {drawn[2]} at vertex 2 has probability 0.000e+00"
        )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fill", [np.nan, np.inf, 0.0])
def test_a_final_norm_that_is_zero_or_not_finite_is_refused(fill):
    # a last leaf map of nan, inf or zero leaves every branch a final row
    # that cannot be normalized: no branch is scored, in any mode
    prog = w4_program()
    broken = dataclasses.replace(
        prog, leaf_isometries={4: np.full_like(prog.leaf_isometries[4], fill)}
    )
    refused = functools.partial(
        pytest.raises, ValueError, match="^final state norm .* cannot"
    )
    with refused():
        enumerate_branches(broken)
    with refused():
        simulate(broken, mode="sample", seed=0)
    with refused():
        simulate(broken, mode="branch", outcomes={1: 0, 2: 3, 3: 1})
    # the replay of a record refuses such a row too
    from treecost.protocol import _Batch, _EventLog

    record = simulate(prog, mode="sample", seed=0)._batch
    with refused():
        _Batch(_EventLog(broken, ()), record.picks).amps


def _qutrit_star_program():
    # a qutrit star whose centre has K_v = 729 outcomes; its enumeration
    # finishes in records of 22 and 101 rows
    rng = np.random.default_rng(223)
    t = star_tree(4, center_dim=3, leaf_dim=3)
    return _program(random_pure_state(rng, t.dims), t)


def test_qutrit_star_protocol():
    prog = _qutrit_star_program()
    branches = enumerate_branches(prog)
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
    # no pair is ever attached and each step frees the register it
    # replaces, so sampling a 16-party line holds at most a few registers
    # of the state's size at once
    prog = _program(make_named_state(family, 16), line_tree(16))
    tr, peak = traced_peak(lambda: simulate(prog, mode="sample", seed=5))
    assert tr.fidelity >= 1 - FIDELITY_TOL
    assert peak < 64 * 2**20
    assert peak < 4 * prog.target.amplitudes.nbytes


def test_protocol_scans_respect_the_dimension_cap(monkeypatch):
    # on a W6 line the last measurement applies its base (2 levels x 2
    # child levels per own level) to a register of 32 amplitudes: 64
    # amplitudes when it follows one outcome, 4 outcomes x 64 = 256 when it
    # enumerates them; every earlier step is smaller
    prog = _program(make_named_state("w", 6), line_tree(6))
    monkeypatch.setenv("TREECOST_DIM_CAP", "63")
    with pytest.raises(DimensionCapExceeded):
        simulate(prog, mode="sample", seed=0)
    with pytest.raises(DimensionCapExceeded):
        simulate(prog, mode="branch", outcomes={v: 0 for v in prog.bases})
    monkeypatch.setenv("TREECOST_DIM_CAP", "64")
    assert simulate(prog, mode="sample", seed=0).fidelity >= 1 - FIDELITY_TOL
    monkeypatch.setenv("TREECOST_DIM_CAP", "255")
    with pytest.raises(DimensionCapExceeded):
        enumerate_branches(prog)
    monkeypatch.setenv("TREECOST_DIM_CAP", "256")
    branches = enumerate_branches(prog)
    assert len(branches) == prog.branch_count
    assert min(tr.fidelity for tr in branches) >= 1 - FIDELITY_TOL


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


# ------------------------------------------------------------- corrections


def test_disabling_corrections_breaks_some_branch():
    prog = w4_program()
    healthy = enumerate_branches(prog)
    assert min(tr.fidelity for tr in healthy) >= 1 - 1e-9
    crippled = enumerate_branches(prog, disable_corrections=(2,))
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
