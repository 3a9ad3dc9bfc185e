"""Record reference.json: the outputs without a closed form (cost bounds,
waterline bits, thresholds, block distances, reduced ranks) for every fixed
instance a workload can draw.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted; the benchmark then
counts any job whose output differs as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import jobs
from tracing import untraced_call

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    reference = {}
    for workload in spec["workloads"].values():
        for entry in workload["mix"]:
            kind = jobs.KINDS[entry["kind"]]
            if kind.record is None:
                continue
            _, variants = jobs.rung_variants(entry, spec, np.random.default_rng(0))
            for job in variants:
                out = kind.run(job, untraced_call)
                reference[job.ref_key] = kind.record(job, out)
                print(job.ref_key, file=sys.stderr)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} reference values in {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
