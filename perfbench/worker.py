"""One workload in a fresh process: set-up, then a closed loop with one
client running jobs back to back, then a JSON summary on standard output.

run.py starts this with the BLAS thread count fixed and src/ on the path;
it is not meant to be run by hand.  The process first caps its own address
space, so an oversized allocation fails one job with MemoryError instead of
exhausting the machine.

Each job runs in a child forked from the set-up process, as a separate CLI
process would run it: no memoised result, allocator state or garbage from
an earlier job carries over, so a job's cost does not depend on which jobs
the seed put before it.  The child times the job, checks its output and
sends back its timings, error, spans and counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
MAX_FAILURES_SHOWN = 10


def limit_address_space() -> None:
    limit = SPEC["address_space_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_job(job, reference, tol, tracer, counters, job_id):
    """Run, time and check one job; returns (cpu_s, wall_s, error)."""
    import jobs
    import tracing

    kind = jobs.KINDS[job.kind]
    call = tracer.call if tracer else tracing.untraced_call
    if tracer:
        tracer.begin_job(job_id, job.kind)
    error = None
    out = None
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        out = kind.run(job, call)
    except Exception as exc:  # a failing job is counted; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - cpu_start
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_job(error)
    if error is None:
        try:
            kind.check(job, out, reference.get(job.ref_key), tol)
        except jobs.CheckFailed as exc:
            error = f"wrong output: {exc}"
    if error is None and tracer:
        kind.count(job, out, counters)
    return cpu, elapsed, error


def run_forked(job, reference, tol, tracer, counters, job_id):
    """run_job in a child of this process.  The child's new spans and its
    counters replace this process's copies; a child that dies without a
    result fails the job."""
    spans_before = len(tracer.spans) if tracer else 0
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            result = run_job(job, reference, tol, tracer, counters, job_id)
            spans = tracer.spans[spans_before:] if tracer else []
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump((result, spans, dict(counters)), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return 0.0, 0.0, f"job process ended with status {status} and no result"
    result, spans, child_counters = pickle.loads(data)
    if tracer:
        tracer.spans.extend(spans)
    counters.clear()
    counters.update(child_counters)
    return result


def run_loop(rungs, args, reference, tracer):
    import jobs
    import tracing

    tol = SPEC["tolerances"]
    counters = tracing.Counters()
    attempted = 0
    by_rung: dict[str, list[tuple[float, float]]] = {}
    failures: list[str] = []
    failed = 0
    job_time = 0.0
    passes = 0
    # objects made so far are never collected, so a child's collector
    # leaves the pages it shares with this process alone
    gc.collect()
    gc.freeze()
    while ((job_time < args.seconds or passes < args.min_passes)
           and time.time() < args.deadline):
        for job in jobs.pass_jobs(rungs, args.seed, passes):
            if time.time() >= args.deadline:
                break
            cpu, elapsed, error = run_forked(
                job, reference, tol, tracer, counters, attempted
            )
            job_time += elapsed
            attempted += 1
            by_rung.setdefault(job.rung, []).append((cpu, elapsed))
            if error is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(f"{job.rung}: {error}")
        passes += 1
    gc.unfreeze()
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": passes,
        # per rung: jobs, median CPU ms, median wall ms
        "rungs": {
            label: [len(xs), 1e3 * statistics.median(c for c, _ in xs),
                    1e3 * statistics.median(w for _, w in xs)]
            for label, xs in by_rung.items()
        },
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer:
        summary["layer"] = tracing.layer_metrics(tracer.spans, counters)
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    limit_address_space()
    import treecost

    src = (ROOT / "src").resolve()
    if src not in Path(treecost.__file__).resolve().parents:
        print(f"treecost imported from {treecost.__file__}, not {src}",
              file=sys.stderr)
        return 3
    import jobs
    import tracing

    reference = json.loads((HERE / "reference.json").read_text())
    rungs = jobs.build_plan(args.workload, args.seed, SPEC, reference)
    # CPU time of this process from its start: interpreter, imports and set-up
    setup_cpu = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_cpu": setup_cpu}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    summary = run_loop(rungs, args, reference, tracer)
    summary["setup_cpu"] = setup_cpu
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.spans))
        summary["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
