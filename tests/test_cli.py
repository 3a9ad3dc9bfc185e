"""Command line interface behavior: documents, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

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


def test_bad_branch_spec_is_a_usage_error(w4_tree_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--tree", w4_tree_path, "--state", "w4",
         "--branch", "1:0"],
        capsys,
    )
    assert code == 2


def test_malformed_tree_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(
        ["cost", "exact", "--tree", str(bad), "--state", "w4"], capsys
    )
    assert code == 2


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
