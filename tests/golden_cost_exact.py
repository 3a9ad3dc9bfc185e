"""Recorded `treecost cost exact` runs, and the recorder that wrote them.

Each case is one `cost exact` invocation: W, GHZ and Dicke lines, random
states on a branching qubit tree and on mixed qubit/qutrit trees, a nearly
product state with and without --rank-tol 1e-4, and 14-qubit lines whose
leaf-side cuts are tall enough for decompose's QR route.  tests/test_cli.py
replays every case and requires each document byte for byte
(GOLDEN_FLOAT_TOL is None).

Re-record (only when a document change is deliberate) with

    PYTHONPATH=src python tests/golden_cost_exact.py
"""

import json
import pathlib
import sys

import numpy as np

from golden_simulate import TREES as SIMULATE_TREES
from golden_simulate import record_cases, run_cli

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cost_exact_golden.json.gz"
GOLDEN_FLOAT_TOL = None


def _line(n, dims=None):
    dims = dims or [2] * n
    return {
        "parties": [{"id": str(i), "dim": d} for i, d in enumerate(dims, 1)],
        "edges": [[str(i), str(i + 1)] for i in range(1, n)],
        "root": "1",
    }


TREES = {
    "line6": _line(6),
    "line8": _line(8),
    "line14": _line(14),
    "mixed-line6": _line(6, [2, 3, 2, 3, 3, 2]),
    "binary7": {
        "parties": [{"id": str(i)} for i in range(1, 8)],
        "edges": [["1", "2"], ["1", "3"], ["2", "4"], ["2", "5"],
                  ["3", "6"], ["3", "7"]],
        "root": "1",
    },
    "mixed5": SIMULATE_TREES["mixed5"],
}


def _nearly_product(dims, seed):
    """A product of random local states plus 1e-5 of a random state: cut
    spectra hold Schmidt coefficients near 1e-5, which --rank-tol 1e-4
    drops and the default tolerance keeps."""
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    amps = np.ones(1)
    for d in dims:
        local = rand(d)
        amps = np.kron(amps, local / np.linalg.norm(local))
    noise = rand(amps.size)
    amps = amps + 1e-5 * noise / np.linalg.norm(noise)
    amps /= np.linalg.norm(amps)
    return {"dims": list(dims), "amplitudes": [[a.real, a.imag] for a in amps]}


# state documents a case names as @name; written next to the tree
STATES = {
    "nearly6": _nearly_product([2, 3, 2, 3, 3, 2], 41),
    "nearly7": _nearly_product([2] * 7, 43),
}

# (name, tree, arguments after --tree, write a transcript)
CASES = [
    ("w-line", "line8", ["--state", "w8"], False),
    ("w-line-root4", "line8", ["--state", "w8", "--root", "4"], False),
    ("ghz-line", "line8", ["--state", "ghz8"], False),
    ("dicke-line", "line8", ["--state", "dicke8:3"], False),
    ("dicke-line-root5", "line6", ["--state", "dicke6:2", "--root", "5"],
     False),
    ("random-binary", "binary7", ["--state", "random7:3"], False),
    ("random-binary-root6", "binary7",
     ["--state", "random7:8", "--root", "6"], False),
    ("random-mixed5", "mixed5", ["--state", "random5:7"], False),
    ("random-mixed5-root3", "mixed5",
     ["--state", "random5:2", "--root", "3"], False),
    ("random-mixed-line", "mixed-line6", ["--state", "random6:11"], False),
    ("nearly-product", "mixed-line6", ["--state", "@nearly6"], False),
    ("nearly-product-rank-tol", "mixed-line6",
     ["--state", "@nearly6", "--rank-tol", "1e-4"], False),
    ("nearly-product-binary-rank-tol", "binary7",
     ["--state", "@nearly7", "--rank-tol", "1e-4"], False),
    ("random-line14", "line14", ["--state", "random14:5"], False),
    ("random-line14-rank-tol", "line14",
     ["--state", "random14:5", "--rank-tol", "1e-4"], False),
    ("ghz-line14", "line14", ["--state", "ghz14"], False),
    ("w-line14-root14", "line14", ["--state", "w14", "--root", "14"], False),
    ("dicke-line14", "line14", ["--state", "dicke14:3"], False),
]


def run_case(tmp_dir, tree, args, transcript):
    """Run one case in tmp_dir; returns (exit code, stdout, transcript
    text or None)."""
    args = list(args)
    for i, arg in enumerate(args):
        if arg.startswith("@"):
            path = pathlib.Path(tmp_dir) / "state.json"
            path.write_text(json.dumps(STATES[arg[1:]]))
            args[i] = str(path)
    return run_cli(tmp_dir, TREES[tree], ["cost", "exact"], args, transcript)


if __name__ == "__main__":
    sys.exit(record_cases(GOLDEN_PATH, CASES, run_case))
