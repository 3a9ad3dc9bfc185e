"""Recorded `treecost figures` runs and one Gaussian `treecost cost approx`
run, and the recorder that wrote them.

The two figure kinds read the normal quantile at every row (second_order's
b), and the cost approx case on the W4 line at n=100000 has more type
classes on its middle edge than the table allows, so that edge's upper and
lower rows take the Gaussian method.  tests/test_cli.py replays every case
and requires each document byte for byte (GOLDEN_FLOAT_TOL is None).

Re-record (only when a document change is deliberate) with

    PYTHONPATH=src python tests/golden_figures.py
"""

import contextlib
import io
import pathlib
import sys

from golden_simulate import TREES as SIMULATE_TREES
from golden_simulate import record_cases, run_cli

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "figures_golden.json.gz"
GOLDEN_FLOAT_TOL = None

# (name, tree or None for figures, arguments, write a transcript)
CASES = [
    ("figures-w-second-order", None, ["figures", "w-second-order"], False),
    ("figures-rate-comparison", None, ["figures", "rate-comparison"], False),
    ("cost-approx-gaussian", "w4",
     ["cost", "approx", "--state", "random4:9", "--n", "100000",
      "--eps", "0.5"], False),
]


def run_case(tmp_dir, tree, args, transcript):
    """Run one case in tmp_dir; returns (exit code, stdout, transcript
    text or None)."""
    if tree is not None:
        return run_cli(tmp_dir, SIMULATE_TREES[tree], args[:2], args[2:],
                       transcript)
    from treecost.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue(), None


if __name__ == "__main__":
    sys.exit(record_cases(GOLDEN_PATH, CASES, run_case))
