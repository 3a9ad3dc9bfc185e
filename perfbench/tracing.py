"""Spans around each public treecost call, kept in memory, and the
per-layer metrics derived from them.

A span records name, start, end, parent span and job id.  Call spans also
record the tracemalloc peak of that call: tracing starts (fresh, so the
peak is reset) just before the call and stops in a finally block.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

LAYERS = ("decomposition", "protocol", "costs", "approx")

# call spans whose calls, self time, median and memory peak are reported
CALL_METRICS = {
    "decomposition.decompose": ("calls", "self_s", "p50_ms", "peak_mb"),
    "protocol.simulate_sample": ("calls", "self_s", "p50_ms", "peak_mb"),
    "protocol.build_program": ("self_s", "peak_mb"),
    "protocol.enumerate": ("calls", "self_s", "peak_mb"),
    "protocol.check_completeness": ("self_s",),
    "costs.approx_bounds": ("calls", "self_s", "p50_ms", "peak_mb"),
    "costs.spectrum_entropy": ("self_s",),
    "costs.optimize_thresholds": ("self_s",),
    "approx.approx_state": ("self_s", "peak_mb"),
    "approx.union_bound_check": ("self_s", "peak_mb"),
    "approx.construct_approx": ("self_s", "peak_mb"),
}


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._job_span: int | None = None
        self._job_id: int | None = None

    def begin_job(self, job_id: int, name: str) -> None:
        self._job_id = job_id
        self._job_span = len(self.spans)
        self.spans.append({
            "id": self._job_span, "name": name, "parent": None,
            "job": job_id, "start": perf_counter(), "end": None,
            "error": None,
        })

    def end_job(self, error: str | None) -> None:
        span = self.spans[self._job_span]
        span["end"] = perf_counter()
        span["error"] = error

    def call(self, name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name, "parent": self._job_span,
                "job": self._job_id, "error": None}
        tracemalloc.start()
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.spans.append(span)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    selfs = self_times(spans)
    jobs = [s for s in spans if s["parent"] is None]
    job_s = sum(s["end"] - s["start"] for s in jobs)
    calls = [s for s in spans if s["parent"] is not None]
    out: dict[str, float] = {}
    for name, stats in CALL_METRICS.items():
        mine = [s for s in calls if s["name"] == name]
        values = {
            "calls": len(mine),
            "self_s": sum(selfs[s["id"]] for s in mine),
            "p50_ms": 1e3 * statistics.median(
                [s["end"] - s["start"] for s in mine]
            ) if mine else 0.0,
            "peak_mb": max((s["peak_bytes"] for s in mine), default=0) / 2**20,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    for layer in LAYERS:
        mine = [s for s in calls if s["name"].split(".")[0] == layer]
        out[f"{layer}.share"] = (
            sum(selfs[s["id"]] for s in mine) / job_s if job_s else 0.0
        )
        out[f"{layer}.errors"] = sum(s["error"] is not None for s in mine)
    out["decomposition.max_rank"] = counters.get("decomposition.max_rank", 0)
    out["protocol.register_amplitudes"] = counters.get(
        "protocol.register_amplitudes", 0
    )
    out["protocol.operator_mb"] = counters.get("protocol.operator_mb", 0.0)
    branches = counters.get("protocol.enumerate.branches", 0)
    out["protocol.enumerate.branches"] = branches
    count = counters.get("protocol.enumerate.branch_count", 0)
    out["protocol.enumerate.branch_yield"] = branches / count if count else 0.0
    out["protocol.enumerate.us_per_branch"] = (
        1e6 * out["protocol.enumerate.self_s"] / branches if branches else 0.0
    )
    out["costs.type_classes"] = counters.get("costs.type_classes", 0)
    edges = counters.get("costs.edges", 0)
    out["costs.type_class_edge_share"] = (
        counters.get("costs.type_class_edges", 0) / edges if edges else 0.0
    )
    out["approx.block_amplitudes"] = counters.get("approx.block_amplitudes", 0)
    return out


class Counters(dict):
    """Counts made at the call boundaries, from each call's output."""

    def add(self, key: str, value) -> None:
        self[key] = self.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self[key] = max(self.get(key, 0), value)
