"""Command line interface behavior: documents, exit codes, determinism."""

import gzip
import json
import math
import subprocess
import sys

import pytest

import treecost.verify as verify_mod
from treecost import build_program
from treecost.cli import main


W4_TREE = {
    "parties": [{"id": "1"}, {"id": "2"}, {"id": "3"}, {"id": "4"}],
    "edges": [["1", "2"], ["2", "3"], ["3", "4"]],
    "root": "1",
}


@pytest.fixture()
def w4_tree_path(tmp_path):
    path = tmp_path / "w4.json"
    path.write_text(json.dumps(W4_TREE))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------- cost


def test_cost_exact_document(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "treecost-cost-exact/1"
    assert doc["total_bits"] == 3.0
    assert doc["edges"] == [
        {"bits": 1.0, "edge": 1, "rank": 2},
        {"bits": 1.0, "edge": 2, "rank": 2},
        {"bits": 1.0, "edge": 3, "rank": 2},
    ]
    assert doc["label_map"]["parties"] == {"1": 1, "2": 2, "3": 3, "4": 4}


def test_cost_exact_honors_root_override(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w4",
         "--root", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["label_map"]["parties"]["2"] == 1
    assert doc["total_bits"] == 3.0


def test_a_digit_root_names_an_integer_party_id(tmp_path, capsys):
    # "2" names no party of a document whose ids are JSON integers, so it
    # is read again as the integer 2; "9" names no party either way
    path = tmp_path / "w4_int.json"
    path.write_text(json.dumps({
        "parties": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}],
        "edges": [[1, 2], [2, 3], [3, 4]],
        "root": 1,
    }))
    argv = ["cost", "exact", "--tree", str(path), "--state", "w4", "--root"]
    code, out, _ = run_cli([*argv, "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["label_map"]["parties"]["2"] == 1
    assert doc["total_bits"] == 3.0
    code, out, err = run_cli([*argv, "9"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: root 9 is not a listed party\n"


def test_cost_approx_document(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "20", "--eps", "0.1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "treecost-cost-approx/1"
    assert doc["n"] == 20
    assert doc["thresholds_mode"] == "uniform"
    assert len(doc["edges"]) == 3
    for row in doc["edges"]:
        assert row["lower"] <= row["exact_bits"] + 1e-9
    assert doc["lower_total"] <= doc["exact_total"] <= doc["upper_total"]


def test_cost_approx_optimized_thresholds(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "50", "--eps", "0.04", "--thresholds", "optimized"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds_mode"] == "optimized"
    by_edge = {row["edge"]: row for row in doc["edges"]}
    assert by_edge[2]["threshold"] == 0.0
    assert by_edge[1]["threshold"] == pytest.approx(0.04 / 2**0.5, abs=1e-9)


def test_cost_approx_optimized_thresholds_honor_rank_tol(
    w4_tree_path, tmp_path, capsys
):
    # a near-product state: at rank_tol 1e-4 some cuts have rank 1, and
    # the budget split must see them as flat like the bounds do
    import numpy as np

    from treecost import decompose, dump_state_json, load_tree_json
    from treecost import normalized_state

    rng = np.random.default_rng(2024)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    amps += 1e-5 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    state = normalized_state(amps, (2, 2, 2, 2))
    state_path = tmp_path / "near_product.json"
    state_path.write_text(json.dumps(dump_state_json(state)))
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", str(state_path),
         "--n", "10", "--eps", "0.1", "--thresholds", "optimized",
         "--rank-tol", "1e-4"],
        capsys,
    )
    assert code == 0
    ranks = decompose(state, load_tree_json(w4_tree_path), 1e-4).ranks
    flat = [lab for lab, r in ranks.items() if r == 1]
    assert flat
    by_edge = {row["edge"]: row for row in json.loads(out)["edges"]}
    for lab in flat:
        assert by_edge[lab]["threshold"] == 0.0
        assert by_edge[lab]["upper"] == 0.0


@pytest.mark.parametrize("tol", ["-1", "1", "2", "nan"])
@pytest.mark.parametrize(
    "command",
    [["cost", "exact"], ["cost", "approx", "--n", "2", "--eps", "0.5"],
     ["simulate"], ["approx", "--n", "2", "--eps", "0.5"]],
    ids=["cost-exact", "cost-approx", "simulate", "approx"],
)
def test_rank_tol_outside_zero_one_is_refused(
    w4_tree_path, capsys, command, tol
):
    # -1 used to keep every cut at full rank (exit 0), 1 and 2 failed
    # with "math domain error" and nan with a reshape error
    code, out, err = run_cli(
        [*command, "--tree", w4_tree_path, "--state", "w4", "--rank-tol", tol],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"rank tolerance {float(tol)!r} outside [0, 1)" in err


def test_cost_exact_rank_tol_zero_counts_no_round_off(w4_tree_path, capsys):
    # edge 2 of the W4 line used to report rank 3 (1.58 bits) at 0
    code, out, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w4",
         "--rank-tol", "0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["total_bits"] == 3.0


def test_cost_approx_threshold_file(w4_tree_path, tmp_path, capsys):
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 0.05, "2": 0.0, "3": 0.05}))
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "30", "--eps", "0.1", "--thresholds", str(th_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds_mode"] == str(th_path)
    by_edge = {row["edge"]: row for row in doc["edges"]}
    assert by_edge[1]["threshold"] == 0.05


def test_approx_budgets_equal_the_cost_upper_bounds(
    w4_tree_path, tmp_path, capsys
):
    # the same shares through a thresholds file: every budget of approx is
    # the upper bound of cost approx, to the last bit
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 0.3, "2": 0.2, "3": 0.3}))
    args = ["--tree", w4_tree_path, "--state", "random4:4", "--n", "2",
            "--eps", "0.5", "--thresholds", str(th_path)]
    code, out, _ = run_cli(["approx", *args], capsys)
    assert code == 0
    budgets = {row["edge"]: row["budget_bits"] for row in json.loads(out)["edges"]}
    code, out, _ = run_cli(["cost", "approx", *args], capsys)
    assert code == 0
    uppers = {row["edge"]: row["upper"] for row in json.loads(out)["edges"]}
    assert budgets == uppers


def test_cost_approx_tiny_share_spends_nothing(w4_tree_path, tmp_path, capsys):
    # 1e-200 squares to a zero deficit, which allows no smoothing: the edge
    # keeps its exact rank like a zero share
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 1e-200, "2": 0.0, "3": 0.0}))
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "2", "--eps", "0.1", "--thresholds", str(th_path)],
        capsys,
    )
    assert code == 0
    by_edge = {row["edge"]: row for row in json.loads(out)["edges"]}
    assert by_edge[1]["threshold"] == 1e-200
    assert by_edge[1]["upper"] == 1.0
    assert by_edge[1]["upper_method"] == "exact-rank"


def test_cost_approx_unresolvable_share_keeps_a_finite_upper_bound(
    w4_tree_path, tmp_path, capsys
):
    # 1e-10 leaves a nonzero deficit 2.5e-21, but 1 - deficit rounds to 1,
    # so the waterline cannot resolve it: the upper bound is the exact
    # rank's bits, never Infinity
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 1e-10, "2": 0.0, "3": 0.0}))
    code, out, _ = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "2", "--eps", "0.1", "--thresholds", str(th_path)],
        capsys,
    )
    assert code == 0
    assert "Infinity" not in out
    doc = json.loads(out)
    by_edge = {row["edge"]: row for row in doc["edges"]}
    assert by_edge[1]["threshold"] == 1e-10
    assert by_edge[1]["upper"] == 1.0
    assert by_edge[1]["upper_method"] == "exact-rank"
    assert all(math.isfinite(row["upper"]) for row in doc["edges"])
    assert math.isfinite(doc["upper_total"])
    assert doc["upper_total"] == 3.0


def test_unknown_edge_share_is_refused_by_both_approx_commands(
    w4_tree_path, tmp_path, capsys
):
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 0.3, "7": 0.5}))
    args = ["--tree", w4_tree_path, "--state", "w4", "--n", "2",
            "--eps", "0.9", "--thresholds", str(th_path)]
    for command in (["approx"], ["cost", "approx"]):
        code, out, err = run_cli([*command, *args], capsys)
        assert code == 2, command
        assert out == ""
        assert err == "error: threshold for unknown edge 7\n"


@pytest.mark.parametrize(
    "eps, shares, message",
    [
        ("1.5", None, "error budget 1.5 outside (0, 1)"),
        ("0", None, "error budget 0.0 outside (0, 1)"),
        ("0.01", {"1": 0.5, "2": 0.5, "3": 0.5},
         "thresholds spend 0.866025 of an 0.01 budget"),
        # a budget out of range is named before the shares that exceed it
        ("1.5", {"1": 0.5, "2": 0.5, "3": 0.5},
         "error budget 1.5 outside (0, 1)"),
    ],
)
def test_a_bad_budget_is_refused_by_both_approx_commands(
    eps, shares, message, w4_tree_path, tmp_path, capsys
):
    args = ["--tree", w4_tree_path, "--state", "w4", "--n", "2", "--eps", eps]
    if shares is not None:
        th_path = tmp_path / "thresholds.json"
        th_path.write_text(json.dumps(shares))
        args += ["--thresholds", str(th_path)]
    for command in (["approx"], ["cost", "approx"]):
        code, out, err = run_cli([*command, *args], capsys)
        assert code == 2, command
        assert out == ""
        assert err == f"error: {message}\n"


def test_a_bad_block_size_is_refused_first_by_both_approx_commands(
    w4_tree_path, capsys
):
    args = ["--tree", w4_tree_path, "--state", "w4", "--n", "0", "--eps", "1.5"]
    for command in (["approx"], ["cost", "approx"]):
        code, out, err = run_cli([*command, *args], capsys)
        assert code == 2, command
        assert out == ""
        assert err == "error: block size 0 must be a positive integer\n"


def test_named_state_past_the_cap_is_refused_by_cost_exact(
    tmp_path, capsys, monkeypatch
):
    # cost exact and simulate refuse a 12-qubit GHZ line under a cap of
    # 1024 alike, before its 4096 amplitudes are built
    tree = {
        "parties": [{"id": str(i)} for i in range(1, 13)],
        "edges": [[str(i), str(i + 1)] for i in range(1, 12)],
        "root": "1",
    }
    path = tmp_path / "line12.json"
    path.write_text(json.dumps(tree))
    monkeypatch.setenv("TREECOST_DIM_CAP", "1024")
    for command in (["cost", "exact"], ["simulate"]):
        code, out, err = run_cli(
            [*command, "--tree", str(path), "--state", "ghz12"], capsys
        )
        assert code == 2, command
        assert out == ""
        assert err == "error: state spans 4096 amplitudes, cap 1024\n"


def test_state_file_past_the_cap_is_refused_by_every_command(
    tmp_path, capsys, monkeypatch
):
    # a 12-qubit amplitudes file under a cap of 1024 is refused by the
    # cost commands as by simulate, before its amplitude list is parsed
    from treecost import dump_state_json, make_named_state
    from treecost.errors import DimensionCapExceeded
    from treecost.states import load_state_json

    tree = {
        "parties": [{"id": str(i)} for i in range(1, 13)],
        "edges": [[str(i), str(i + 1)] for i in range(1, 12)],
        "root": "1",
    }
    tree_path = tmp_path / "line12.json"
    tree_path.write_text(json.dumps(tree))
    state = make_named_state("random", 12, seed=5)
    state_path = tmp_path / "state12.json"
    state_path.write_text(json.dumps(dump_state_json(state)))
    monkeypatch.setenv("TREECOST_DIM_CAP", "1024")
    with pytest.raises(DimensionCapExceeded):
        load_state_json({"dims": [2] * 12, "amplitudes": None})
    common = ["--tree", str(tree_path), "--state", str(state_path)]
    for command in (["cost", "exact"],
                    ["cost", "approx", "--n", "2", "--eps", "0.5"],
                    ["simulate"]):
        code, out, err = run_cli([*command, *common], capsys)
        assert code == 2, command
        assert out == ""
        assert err == "error: state spans 4096 amplitudes, cap 1024\n"


# --------------------------------------------------------------- simulate


def test_simulate_enumerate_all_branches(w4_tree_path, tmp_path, capsys):
    transcript = tmp_path / "branches.json"
    code, out, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--enumerate", "--transcript", str(transcript)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "treecost-simulate/1"
    assert doc["mode"] == "enumerate"
    assert doc["branches"] == 64
    assert doc["branch_count"] == 64
    assert doc["min_fidelity"] >= 1 - 1e-9
    assert doc["probability_total"] == pytest.approx(1.0, abs=1e-9)
    assert doc["deterministic"] is True

    full = json.loads(transcript.read_text())
    assert full["schema"] == "treecost-transcripts/1"
    assert len(full["branches"]) == 64
    first = full["branches"][0]
    assert first["fidelity"] >= 1 - 1e-9
    kinds = [e["kind"] for e in first["events"]]
    assert "measure" in kinds and "isometry" in kinds


def test_simulate_sampled_and_seeded(w4_tree_path, capsys):
    code, out1, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4", "--seed", "5"],
        capsys,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4", "--seed", "5"],
        capsys,
    )
    assert out1 == out2  # byte-identical rerun
    doc = json.loads(out1)
    assert doc["mode"] == "sample"
    assert doc["fidelity"] >= 1 - 1e-9


def test_streamed_documents_match_the_one_string_encoding(
    w4_tree_path, tmp_path, capsys
):
    # _emit streams the document; the bytes must be those of json.dumps
    from treecost import (
        build_program,
        decompose,
        load_tree_json,
        make_named_state,
        simulate,
    )
    from treecost.cli import _emit, _transcript_doc

    tree = load_tree_json(w4_tree_path)
    program = build_program(decompose(make_named_state("w", 4), tree))
    doc = {
        "schema": "treecost-transcripts/1",
        "branches": [
            _transcript_doc(b, tree)
            for b in simulate(program, mode="enumerate")
        ],
    }
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "branches.json"
    _emit(doc, str(path))
    assert path.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    _emit(doc, None)
    assert capsys.readouterr().out == want


def _transcripts_bytes(branches, tree):
    from treecost.cli import _transcript_doc

    doc = {
        "schema": "treecost-transcripts/1",
        "branches": [_transcript_doc(b, tree) for b in branches],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def test_transcripts_are_written_branch_by_branch_with_the_same_bytes(
    w4_tree_path, tmp_path, capsys
):
    import dataclasses

    from treecost import (
        build_program,
        construct_approx,
        decompose,
        load_tree_json,
        make_named_state,
        simulate,
    )
    from treecost.cli import _emit_transcripts

    tree = load_tree_json(w4_tree_path)
    w4 = make_named_state("w", 4)
    branches = simulate(build_program(decompose(w4, tree)), mode="enumerate")
    path = tmp_path / "branches.json"
    for some in (branches, branches[:1], []):
        _emit_transcripts(some, tree, str(path))
        assert path.read_bytes() == _transcripts_bytes(some, tree)

    run_cli(["simulate", "--tree", w4_tree_path, "--state", "w4",
             "--enumerate", "--transcript", str(path)], capsys)
    assert path.read_bytes() == _transcripts_bytes(branches, tree)

    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({
        "parties": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]],
        "root": "a",
    }))
    run_cli(["approx", "--tree", str(pair_path), "--state", "bell2", "--n",
             "2", "--eps", "0.3", "--enumerate", "--transcript", str(path)],
            capsys)
    pair = load_tree_json(str(pair_path))
    bell = make_named_state("bell", 2)
    result, _ = construct_approx(bell, pair, 2, {1: 0.3}, enumerate_all=True)
    big = dataclasses.replace(pair, dims=(4, 4))
    assert path.read_bytes() == _transcripts_bytes(result, big)


def test_enumerated_transcripts_equal_forced_runs(tmp_path, capsys):
    # the final states an enumerated transcripts document writes are
    # replayed from the walk's records; the bytes equal the document of
    # forced runs of the same outcomes, on the W3 line and its n = 2 block
    import dataclasses
    import itertools

    from treecost import (
        approx_state,
        build_program,
        decompose,
        load_tree_json,
        make_named_state,
        simulate,
    )
    from treecost.cli import _emit_transcripts

    tree_path = tmp_path / "w3.json"
    tree_path.write_text(json.dumps({
        "parties": [{"id": "1"}, {"id": "2"}, {"id": "3"}],
        "edges": [["1", "2"], ["2", "3"]], "root": "1",
    }))
    tree = load_tree_json(str(tree_path))
    w3 = make_named_state("w", 3)
    shares = {e.label: 0.3 / math.sqrt(2) for e in tree.edges}
    ap = approx_state(w3, tree, 2, shares)
    big = dataclasses.replace(tree, dims=ap.state.dims)
    common = ["--tree", str(tree_path), "--state", "w3", "--enumerate"]
    cases = [
        (["simulate", *common], tree, w3),
        (["approx", *common, "--n", "2", "--eps", "0.3"], big, ap.state),
    ]
    for argv, t, state in cases:
        path = tmp_path / "enumerated.json"
        code, _, _ = run_cli([*argv, "--transcript", str(path)], capsys)
        assert code == 0
        program = build_program(decompose(state, t))
        measuring = sorted(program.bases)
        forced = [
            simulate(program, mode="branch", outcomes=dict(zip(measuring, c)))
            for c in itertools.product(
                *(range(program.outcome_count(v)) for v in measuring)
            )
        ]
        assert len(forced) >= 16
        want = tmp_path / "forced.json"
        _emit_transcripts(forced, t, str(want))
        assert path.read_bytes() == want.read_bytes()


def test_simulate_forced_branch(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--branch", "1=3,2=0,3=2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "branch"
    assert doc["outcomes"] == {"1": 3, "2": 0, "3": 2}
    assert doc["probability"] == pytest.approx(1 / 64, abs=1e-12)


def test_simulate_insufficient_resources_exit_code(w4_tree_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--resource", "2=1"],
        capsys,
    )
    assert code == 3
    assert "rank-2" in err


def test_simulate_refuses_a_resource_for_an_unknown_edge(tmp_path, capsys):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps({
        "parties": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["b", "c"]],
        "root": "a",
    }))
    code, out, err = run_cli(
        ["simulate", "--tree", str(path), "--state", "ghz3",
         "--resource", "7=3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: supplied rank for unknown edge 7\n"


def test_simulate_padded_resources(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--resource", "1=3", "--resource", "2=4", "--resource", "3=2",
         "--enumerate"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["resources"] == {"1": 3, "2": 4, "3": 2}
    assert doc["min_fidelity"] >= 1 - 1e-9


def test_simulate_ghz_token_with_dims(tmp_path, capsys):
    doc = {
        "parties": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["a", "c"]],
        "root": "a",
    }
    path = tmp_path / "star3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        ["simulate", "--tree", str(path), "--state", "ghz3", "--enumerate"],
        capsys,
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["branches"] == 16
    assert parsed["deterministic"] is True


# ----------------------------------------------------------------- approx


def test_approx_enumerate_within_budget(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "2", "--eps", "0.2", "--enumerate"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "treecost-approx/1"
    assert doc["within_budget"] is True
    assert doc["distance_ok"] is True
    assert doc["deterministic"] is True
    assert doc["min_fidelity"] >= 1 - 1e-9


def test_approx_sampled_run(w4_tree_path, capsys):
    code, out, _ = run_cli(
        ["approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "2", "--eps", "0.1", "--seed", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "sample"
    assert doc["fidelity"] >= 1 - 1e-9


def test_approx_tiny_share_keeps_the_exact_support(
    w4_tree_path, tmp_path, capsys
):
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": 1e-200, "2": 0, "3": 0}))
    code, out, _ = run_cli(
        ["approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "2", "--eps", "0.1", "--thresholds", str(th_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds"]["1"] == 1e-200
    assert doc["distance"] == 0.0
    assert doc["within_budget"] and doc["deterministic"]
    assert [row["budget_bits"] for row in doc["edges"]] == [1.0, 1.0, 1.0]
    assert [row["reduced_rank"] for row in doc["edges"]] == [4, 4, 4]


# ---------------------------------------------------------------- figures


def test_figures_write_prefixed_csv(tmp_path, capsys):
    for kind, header in [
        ("w-second-order", "N,a,b"),
        ("rate-comparison", "n,rate_uniform,rate_optimized,rate_lower"),
    ]:
        out_path = tmp_path / f"{kind}.csv"
        code, _, _ = run_cli(
            ["figures", kind, "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == f"# treecost-figures/1 {kind}"
        assert lines[1] == header
        assert len(lines) > 10


def test_figures_are_byte_identical_across_runs(capsys):
    code, out1, _ = run_cli(["figures", "rate-comparison"], capsys)
    code2, out2, _ = run_cli(["figures", "rate-comparison"], capsys)
    assert code == code2 == 0
    assert out1 == out2


def test_figures_reject_unknown_kind(capsys):
    with pytest.raises(SystemExit):
        main(["figures", "sideways"])


# ----------------------------------------------------------------- verify


def test_verify_battery_passes(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(
        ["verify", "--seed", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert "[  ok  ]" in out
    assert "FAIL" not in out
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "treecost-verify/1"
    assert doc["all_ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_verify_walks_the_ghz_line_past_5000_random_branches(monkeypatch):
    # seed 2 draws a random instance of more than 5,000 branches, so the
    # all-branches check walks the 16 of the 3-qubit GHZ line instead
    counts = []

    def counted(dec, *args):
        program = build_program(dec, *args)
        counts.append(program.branch_count)
        return program

    monkeypatch.setattr(verify_mod, "build_program", counted)
    checks = {name: (ok, detail) for name, ok, detail in verify_mod.run_checks(seed=2)}
    ok, detail = checks["protocol-all-branches"]
    assert ok
    assert detail.startswith("16 branches, ")
    assert any(a > 5000 and b == 16 for a, b in zip(counts, counts[1:]))


# ------------------------------------------------------------ error paths


def test_missing_tree_file_is_a_usage_error(capsys):
    code, _, err = run_cli(
        ["cost", "exact", "--tree", "/nonexistent.json", "--state", "w4"],
        capsys,
    )
    assert code == 2
    assert err


def test_bad_state_token_is_a_usage_error(w4_tree_path, capsys):
    code, _, err = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "wat#"], capsys
    )
    assert code == 2
    code, _, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w5"], capsys
    )
    assert code == 2
    code, _, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "dicke4"], capsys
    )
    assert code == 2


def test_bad_resource_syntax_is_a_usage_error(w4_tree_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--resource", "nonsense"],
        capsys,
    )
    assert code == 2
    code, out, err = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--resource", "2=2", "--resource", "3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: resource '3' is not of the form EDGE=RANK\n"
    # a second rank for one edge used to replace the first silently
    code, out, err = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--resource", "1=3", "--resource", "1=2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: resource '1=2' repeats edge 1\n"


def test_bad_branch_spec_is_a_usage_error(w4_tree_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--branch", "1:0"],
        capsys,
    )
    assert code == 2
    code, out, err = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--branch", "2=0,1=x"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: branch part '1=x' is not of the form VERTEX=INDEX\n"
    # the last outcome for vertex 1 used to win, and the out-of-range 1=5
    # before it was never checked
    code, out, err = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--branch", "1=5,2=0,3=0,1=0"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: branch part '1=0' repeats vertex 1\n"


def test_malformed_tree_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(
        ["cost", "exact", "--tree", str(bad), "--state", "w4"], capsys
    )
    assert code == 2


TWO_PARTY_TREE = {
    "parties": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]], "root": "a"
}


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("tree", {**W4_TREE, "parties": [{"id": "1"}, {"dim": 2},
                                         {"id": "3"}, {"id": "4"}]}),
        ("tree", {**W4_TREE, "parties": [{"id": "1", "dim": None}, {"id": "2"},
                                         {"id": "3"}, {"id": "4"}]}),
        ("tree", {**W4_TREE, "parties": ["1", "2", "3", "4"]}),
        ("tree", {**W4_TREE, "edges": [["1", "2"], ["2", "3"], 3]}),
        ("tree", {**W4_TREE, "root": ["a"]}),
        ("state", {"named": 5, "n": 2}),
        ("state", {"named": "dicke", "n": 2, "k": "1"}),
        ("state", {"named": "random", "n": 2, "seed": "x"}),
        ("state", {"named": "w", "n": None}),
        ("state", {"named": "w", "dims": 5}),
        ("state", {"named": "w", "n": 2, "dims": [2, None]}),
        ("thresholds", [0.1, 0.2]),
        ("thresholds", {"1": None}),
        # "01" names edge 1 a second time, and a JSON reader keeps the last
        # of two equal keys: the 0.9 share that breaks the 0.1 budget used
        # to vanish behind 0.01 either way
        ("thresholds", {"1": 0.9, "01": 0.01}),
        ("thresholds", '{"1": 0.9, "1": 0.01}'),
    ],
)
def test_malformed_documents_are_usage_errors(kind, doc, tmp_path, capsys):
    # each document used to escape main as a KeyError, TypeError or
    # AttributeError; its reader refuses it with a TreecostError instead
    path = tmp_path / f"malformed_{kind}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(W4_TREE))
    argv = ["cost", "approx", "--tree", str(tree_path), "--state", "w4",
            "--n", "2", "--eps", "0.1"]
    if kind == "tree":
        argv[3] = str(path)
    elif kind == "state":
        tree_path.write_text(json.dumps(TWO_PARTY_TREE))
        argv[5] = str(path)
    else:
        argv += ["--thresholds", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("edges", [[["a", ["b"]]], [["a", "b", "c"]]])
def test_an_edge_that_is_not_a_pair_of_ids_is_refused(edges, tmp_path, capsys):
    # an unhashable id used to escape main as a TypeError, and a third id
    # to be reported as "too many values to unpack"
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({**TWO_PARTY_TREE, "edges": edges}))
    code, out, err = run_cli(
        ["cost", "exact", "--tree", str(path), "--state", "bell2"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed tree document: edge ")


def test_a_random_state_document_without_a_seed_reads_seed_0(
    w4_tree_path, tmp_path, capsys
):
    # like the random4 token, so reruns of the document are byte-identical
    path = tmp_path / "random4.json"
    path.write_text(json.dumps({"named": "random", "n": 4}))
    argv = ["cost", "approx", "--tree", w4_tree_path, "--n", "2", "--eps",
            "0.1", "--state"]
    document = run_cli([*argv, str(path)], capsys)
    assert document == run_cli([*argv, "random4"], capsys)
    assert document[0] == 0


def test_a_nan_share_is_refused_by_both_approx_commands(
    w4_tree_path, tmp_path, capsys
):
    # NaN is not negative, so it used to pass as a share: cost approx
    # reported edge 1 as exact-rank and wrote "threshold": NaN
    th_path = tmp_path / "thresholds.json"
    th_path.write_text(json.dumps({"1": float("nan"), "2": 0.01}))
    args = ["--tree", w4_tree_path, "--state", "w4", "--n", "2",
            "--eps", "0.1", "--thresholds", str(th_path)]
    for command in (["approx"], ["cost", "approx"]):
        code, out, err = run_cli([*command, *args], capsys)
        assert code == 2, command
        assert out == ""
        assert err == "error: threshold nan at edge 1 not finite\n"


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "-1"])
def test_cost_approx_refuses_a_bad_delta(delta, w4_tree_path, capsys):
    code, out, err = run_cli(
        ["cost", "approx", "--tree", w4_tree_path, "--state", "w4",
         "--n", "10", "--eps", "0.1", "--delta", delta],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "must be finite and positive" in err


def test_out_flag_redirects_the_document(w4_tree_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w4",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    code, direct, _ = run_cli(
        ["cost", "exact", "--tree", w4_tree_path, "--state", "w4"], capsys
    )
    assert out_path.read_text() == direct


def test_console_entry_point_smoke(w4_tree_path):
    proc = subprocess.run(
        [sys.executable, "-m", "treecost.cli", "cost", "exact",
         "--tree", w4_tree_path, "--state", "w4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_bits"] == 3.0


# ------------------------------------------------------- recorded documents


def _golden(module):
    with gzip.open(module.GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _assert_documents_close(got, want, tol, where="$"):
    """Equal JSON documents, except that floats may differ by tol."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= tol, f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_documents_close(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_documents_close(g, w, tol, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (
            f"{where}: {got!r} vs {want!r}"
        )


def _replay(module, tmp_path):
    golden = _golden(module)
    assert sorted(golden) == sorted(name for name, *_ in module.CASES)
    for name, tree, args, transcript in module.CASES:
        code, out, text = module.run_case(tmp_path, tree, args, transcript)
        want = golden[name]
        assert code == want["code"] == 0, name
        tol = module.GOLDEN_FLOAT_TOL
        if tol is None:  # byte for byte
            assert out == want["stdout"] and text == want["transcript"], name
            continue
        _assert_documents_close(
            json.loads(out), json.loads(want["stdout"]), tol, name
        )
        if transcript:
            _assert_documents_close(
                json.loads(text), json.loads(want["transcript"]), tol, name
            )


def test_simulate_documents_match_the_recording(tmp_path):
    # sampled draws, forced branches, enumeration order, events and padded
    # resources on the W4 line and a mixed qubit/qutrit tree, against the
    # documents tests/golden_simulate.py recorded
    import golden_simulate

    _replay(golden_simulate, tmp_path)


def test_approx_documents_match_the_recording(tmp_path):
    # approx and cost approx on the W4 line and a qubit star: uniform and
    # optimized shares, a rank tolerance, enumeration and a transcript,
    # against the documents tests/golden_approx.py recorded
    import golden_approx

    _replay(golden_approx, tmp_path)


def test_cost_exact_documents_match_the_recording(tmp_path):
    # cost exact on named lines, random and mixed trees, a nearly product
    # state at --rank-tol 1e-4 and 14-qubit lines, byte for byte against
    # the documents tests/golden_cost_exact.py recorded
    import golden_cost_exact

    _replay(golden_cost_exact, tmp_path)


def test_figures_and_gaussian_documents_match_the_recording(tmp_path):
    # both figure kinds and a cost approx run whose middle edge takes the
    # Gaussian method, byte for byte against the documents
    # tests/golden_figures.py recorded
    import golden_figures

    _replay(golden_figures, tmp_path)
