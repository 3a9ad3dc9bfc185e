"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and asserts that every
metric named in BENCHMARK.json is printed with its unit and that the
layers spec.json names as dominant hold most of the traced job time.
Then checks the checker: a corrupted reference value must count the job
as failed, and an allocation beyond the address-space limit must fail one
job with MemoryError instead of ending the run.  Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_printed_metrics(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, lines
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(
            line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), f"{m['name']} not printed with unit {m['unit']}"
    if trace:
        # the layers spec.json names as dominant hold most traced job time
        layers = {d.split(".")[0] for d in
                  worker.SPEC["workloads"][workload]["dominant_layers"]}
        share = sum(result["metrics"][f"{x}.share"]["value"] for x in layers)
        assert share > 0.5, (workload, layers, share)
    print(f"ok {workload} trace {trace}: {len(wanted)} metrics, "
          f"{result['attempted']} jobs")


def one_rung(workload: str, kind: str, **override):
    entry = next(e for e in worker.SPEC["workloads"][workload]["mix"]
                 if e["kind"] == kind)
    entry = {**entry, **override}
    rng = np.random.default_rng(1)
    label, variants = jobs.rung_variants(entry, worker.SPEC, rng)
    return entry, jobs.Rung(entry["count"], variants, rng, label), variants


def run_rung(rung, reference):
    args = Namespace(seconds=1e-9, deadline=time.time() + 60.0, seed=1,
                     min_passes=1)
    return worker.run_loop([rung], args, reference, None)


def check_predictions() -> None:
    """spec.json cites only metrics and workloads BENCHMARK.json names."""
    metrics = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(worker.SPEC["workloads"]) == workloads
    for p in worker.SPEC["predictions"]:
        assert set(p["metrics"]) <= metrics, p["metrics"]
        assert set(p["no_change"]) <= workloads, p["no_change"]
        for w, moved in p["moves"].items():
            assert w in workloads and set(moved) <= end_to_end, p["moves"]
    print(f"ok predictions: {len(worker.SPEC['predictions'])} groups")


def check_corrupted_reference() -> None:
    reference = json.loads((HERE / "reference.json").read_text())
    _, rung, variants = one_rung("finite-block", "spectrum_table")
    good = run_rung(rung, reference)
    assert good["attempted"] > 0 and good["failed"] == 0, good
    bad = copy.deepcopy(reference)
    for v in variants:
        bad[v.ref_key]["bits"] *= 1.0 + 1e-6
    summary = run_rung(rung, bad)
    assert summary["failed"] == summary["attempted"] > 0, summary
    assert "differs from reference" in summary["failures"][0], summary
    print(f"ok corrupted reference: {summary['failed']} of "
          f"{summary['attempted']} jobs failed")


def check_memory_guard() -> None:
    """W4 at n=4 asks construct_approx for a 64 GiB operator stack."""
    worker.limit_address_space()
    _, rung, variants = one_rung("construct", "construct_approx", n=4)
    summary = run_rung(rung, {v.ref_key: None for v in variants})
    assert summary["failed"] == summary["attempted"] > 0, summary
    assert "MemoryError" in summary["failures"][0], summary
    print(f"ok memory guard: {summary['failures'][0][:80]}")


def main() -> int:
    if sys.argv[1:] == ["--memory-guard"]:
        check_memory_guard()
        return 0
    check_predictions()
    for w in BENCHMARK["workloads"]:
        for trace in (0, 1):
            check_printed_metrics(w["name"], trace)
    check_corrupted_reference()
    # in a child process, so the address-space limit stays there
    subprocess.run([sys.executable, __file__, "--memory-guard"],
                   timeout=120, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
