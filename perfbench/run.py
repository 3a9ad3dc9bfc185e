"""treecost benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload (construct, certify,
exact-cost, finite-block; see spec.json) runs in a fresh single-threaded
Python process with BLAS/OpenMP threads fixed and an address-space limit,
as a closed loop with one client.  A run measures whole passes over the
workload's job mix until --seconds of job time have accumulated (and, for
the end-to-end metrics, at least three passes); every job's output is
checked outside its timed interval.

Each job runs in a process of its own, forked from the set-up process
(see worker.py).  Job latency is the CPU time of that process during the
job: jobs are single-threaded and do no I/O, so this is their wall time
less the time the processor was given to other processes or, on a
virtual machine, taken by the hypervisor for other guests (steal time,
which a Linux guest with paravirtual time accounting keeps out of a
task's CPU time).  Each job counts at the median latency of its rung (one
line of the mix) in the timing metrics.  Wall-time medians are printed
beside them.

--trace 0 prints the end-to-end metrics.  Set-up time is the CPU time a
fresh workload process spends from its start to its first job (imports,
instance generation, size-rule filtering), the median over several
processes.  --trace 1 runs one pass of the workload untraced and then
--seconds of it traced, and prints the per-layer metrics of the traced
run, with trace_overhead = traced jobs_per_s / untraced jobs_per_s.
Spans of the traced run are written to perfbench/out/.

Each metric is printed as "name value unit"; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
# Every child is killed by HARD_LIMIT_S after the run starts, so the run
# ends inside three minutes; no job starts after JOB_LIMIT_S.
HARD_LIMIT_S = 175.0
JOB_LIMIT_S = 150.0
# passes of an end-to-end run: enough for every mix in spec.json to put at
# least ten jobs beyond its p90 latency
END_TO_END_PASSES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(SPEC["blas_threads"])
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TREECOST_DIM_CAP", None)
    return env


def spawn(args, deadline: float, hard_end: float, trace: int = 0,
          min_passes: int = 1, setup_only: bool = False,
          seconds: float | None = None):
    """Run one workload process that runs jobs for `seconds` (default
    --seconds), starts no job after deadline and is killed at hard_end;
    returns its summary."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--deadline", repr(deadline), "--min-passes", str(min_passes),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # in a session of its own, so the job processes it forks end with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, hard_end - time.time()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# Timings are taken from the median CPU time of each rung's jobs (one
# line of the mix), so a transient slowdown of the shared machine moves
# them less than it moves single jobs.


def rung_latencies_ms(s: dict) -> list[float]:
    """Every job of the run at its rung's median latency, sorted."""
    return sorted(cpu for n, cpu, _ in s["rungs"].values() for _ in range(n))


def jobs_per_s(s: dict) -> float:
    lat = rung_latencies_ms(s)
    return len(lat) / (sum(lat) / 1e3)


def end_to_end(s: dict, setups: list[float]) -> dict[str, float]:
    lat = rung_latencies_ms(s)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "jobs_per_s": jobs_per_s(s),
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": p90,
        "peak_rss_mb": s["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "success_rate": 1.0 - s["failed"] / s["attempted"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "treecost" / "__init__.py").is_file():
        print(f"no treecost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.time()
    end = start + JOB_LIMIT_S
    hard_end = start + HARD_LIMIT_S
    if args.trace:
        plain = spawn(args, end, hard_end, seconds=0.0)
        summary = spawn(args, end, hard_end, trace=1)
        metrics = dict(summary["layer"])
        metrics["trace_overhead"] = jobs_per_s(summary) / jobs_per_s(plain)
        runs = [plain, summary]
        wanted = BENCHMARK["per_layer"]
    else:
        setups = [
            spawn(args, end, hard_end, setup_only=True)["setup_cpu"]
            for _ in range(SPEC["setup_repeats"] - 1)
        ]
        summary = spawn(args, end, hard_end, min_passes=END_TO_END_PASSES)
        setups.append(summary["setup_cpu"])
        metrics = end_to_end(summary, setups)
        runs = [summary]
        wanted = BENCHMARK["end_to_end"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{SPEC['blas_threads']} BLAS thread(s), address space limit "
          f"{SPEC['address_space_mb']} MB, {summary['passes']} passes, "
          f"{summary['attempted']} jobs")
    for label, (count, cpu, wall) in sorted(summary["rungs"].items()):
        print(f"  rung {label}: {count} jobs, median {cpu:.3f} ms CPU, "
              f"{wall:.3f} ms wall")
    for msg in [m for r in runs for m in r["failures"]]:
        print(f"  FAILED {msg}")
    print(f"error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs)")
    if not args.trace:
        lat = rung_latencies_ms(summary)
        beyond = sum(x > metrics["job_p90_ms"] for x in lat)
        print(f"job latency percentiles over {len(lat)} jobs at their "
              f"rung's median, {beyond} beyond p90")
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
