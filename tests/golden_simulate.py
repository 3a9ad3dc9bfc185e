"""Recorded `treecost simulate` runs, and the recorder that wrote them.

Each case is one `simulate` invocation on the W4 line or on a 5-vertex
mixed qubit/qutrit tree: sampled, forced, enumerated, padded by --resource
and re-rooted, most with --transcript.  tests/test_cli.py replays every
case and compares the documents with the recording: every non-float token
equal, every float within GOLDEN_FLOAT_TOL.

Re-record (only when a document change is deliberate) with

    PYTHONPATH=src python tests/golden_simulate.py
"""

import contextlib
import gzip
import io
import json
import pathlib
import sys

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "simulate_golden.json.gz"
GOLDEN_FLOAT_TOL = 1e-14

TREES = {
    "w4": {
        "parties": [{"id": str(i)} for i in range(1, 5)],
        "edges": [["1", "2"], ["2", "3"], ["3", "4"]],
        "root": "1",
    },
    "mixed5": {
        "parties": [
            {"id": "1", "dim": 2},
            {"id": "2", "dim": 3},
            {"id": "3", "dim": 3},
            {"id": "4", "dim": 2},
            {"id": "5", "dim": 2},
        ],
        "edges": [["1", "2"], ["1", "3"], ["3", "4"], ["3", "5"]],
        "root": "1",
    },
}

# (name, tree, simulate arguments after --tree, write a transcript)
CASES = [
    ("w4-sample-0", "w4", ["--state", "w4", "--seed", "0"], True),
    ("w4-sample-5", "w4", ["--state", "w4", "--seed", "5"], True),
    ("w4-sample-11-root2", "w4",
     ["--state", "w4", "--seed", "11", "--root", "2"], True),
    ("w4-random-sample-3", "w4", ["--state", "random4:7", "--seed", "3"], True),
    ("w4-branch", "w4", ["--state", "w4", "--branch", "1=3,2=2,3=1"], True),
    ("w4-branch-root2", "w4",
     ["--state", "random4:7", "--root", "2", "--branch", "1=41,3=3"],
     True),
    ("w4-enumerate", "w4", ["--state", "w4", "--enumerate"], True),
    ("w4-enumerate-root2", "w4",
     ["--state", "random4:7", "--root", "2", "--enumerate"], False),
    ("w4-resource", "w4",
     ["--state", "w4", "--resource", "1=3", "--resource", "3=4",
      "--seed", "2"], True),
    ("mixed5-sample-0", "mixed5", ["--state", "random5:7", "--seed", "0"],
     True),
    ("mixed5-sample-5", "mixed5", ["--state", "random5:7", "--seed", "5"],
     True),
    ("mixed5-sample-root3", "mixed5",
     ["--state", "random5:3", "--seed", "4", "--root", "3"], True),
    ("mixed5-branch", "mixed5",
     ["--state", "random5:7", "--branch", "1=200,3=7"], True),
    ("mixed5-enumerate", "mixed5", ["--state", "random5:7", "--enumerate"],
     False),
    ("mixed5-resource", "mixed5",
     ["--state", "random5:7", "--resource", "1=4", "--resource", "4=3",
      "--seed", "1"], True),
]


def run_cli(tmp_dir, tree_doc, command, args, transcript):
    """Run `treecost *command --tree FILE *args` in tmp_dir, FILE holding
    tree_doc, adding --transcript when asked; returns (exit code, stdout,
    transcript text or None)."""
    from treecost.cli import main

    tmp_dir = pathlib.Path(tmp_dir)
    tree_path = tmp_dir / "tree.json"
    tree_path.write_text(json.dumps(tree_doc))
    argv = [*command, "--tree", str(tree_path), *args]
    out_path = tmp_dir / "transcript.json"
    if transcript:
        argv += ["--transcript", str(out_path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    text = out_path.read_text() if transcript else None
    return code, buf.getvalue(), text


def run_case(tmp_dir, tree, args, transcript):
    """Run one case in tmp_dir; returns (exit code, stdout, transcript
    text or None)."""
    return run_cli(tmp_dir, TREES[tree], ["simulate"], args, transcript)


def record_cases(path, cases, run_case):
    """Run every case and write the documents to path."""
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, tree, args, transcript in cases:
            code, out, text = run_case(tmp, tree, args, transcript)
            golden[name] = {"code": code, "stdout": out, "transcript": text}
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(record_cases(GOLDEN_PATH, CASES, run_case))
