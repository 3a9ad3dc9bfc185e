"""Recorded `treecost approx` and `treecost cost approx` runs, and the
recorder that wrote them.

Each case is one invocation on the W4 line or on a 4-vertex qubit star:
uniform and optimized shares at n=2 and n=3, a Dicke state, a rank
tolerance, enumeration and one --transcript run.  tests/test_cli.py replays
every case and compares the documents with the recording: every non-float
token equal, every float within GOLDEN_FLOAT_TOL.

Re-record (only when a document change is deliberate) with

    PYTHONPATH=src python tests/golden_approx.py
"""

import pathlib
import sys

from golden_simulate import TREES as SIMULATE_TREES
from golden_simulate import record_cases, run_cli

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "approx_golden.json.gz"
GOLDEN_FLOAT_TOL = 1e-12

TREES = {
    "w4": SIMULATE_TREES["w4"],
    "star4": {
        "parties": [{"id": str(i)} for i in range(1, 5)],
        "edges": [["1", "2"], ["1", "3"], ["1", "4"]],
        "root": "1",
    },
}


def _both(name, tree, args):
    """The same instance under `approx` and `cost approx`."""
    return [
        (f"approx-{name}", tree, ["approx", *args], False),
        (f"cost-{name}", tree, ["cost", "approx", *args], False),
    ]


# (name, tree, arguments with --tree inserted after the subcommand, write a
# transcript)
CASES = [
    *_both("w4-n2-uniform", "w4", ["--state", "w4", "--n", "2", "--eps", "0.9"]),
    *_both("w4-n3-uniform", "w4", ["--state", "w4", "--n", "3", "--eps", "0.6"]),
    *_both("w4-n2-optimized", "w4",
           ["--state", "w4", "--n", "2", "--eps", "0.8",
            "--thresholds", "optimized"]),
    *_both("w4-n3-optimized", "w4",
           ["--state", "w4", "--n", "3", "--eps", "0.4",
            "--thresholds", "optimized"]),
    *_both("dicke-n3-optimized", "w4",
           ["--state", "dicke4:2", "--n", "3", "--eps", "0.9",
            "--thresholds", "optimized"]),
    *_both("random-rank-tol", "w4",
           ["--state", "random4:9", "--n", "2", "--eps", "0.5",
            "--rank-tol", "1e-3"]),
    *_both("star-n2", "star4",
           ["--state", "random4:30", "--n", "2", "--eps", "0.9",
            "--thresholds", "optimized"]),
    ("approx-star-n2-enumerate", "star4",
     ["approx", "--state", "random4:30", "--n", "2", "--eps", "0.9",
      "--thresholds", "optimized", "--enumerate"], False),
    ("approx-random-transcript", "w4",
     ["approx", "--state", "random4:9", "--n", "2", "--eps", "0.5",
      "--seed", "4"], True),
]


def run_case(tmp_dir, tree, args, transcript):
    """Run one case in tmp_dir; returns (exit code, stdout, transcript
    text or None)."""
    at = 2 if args[0] == "cost" else 1
    return run_cli(tmp_dir, TREES[tree], args[:at], args[at:], transcript)


if __name__ == "__main__":
    sys.exit(record_cases(GOLDEN_PATH, CASES, run_case))
