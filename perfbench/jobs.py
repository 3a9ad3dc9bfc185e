"""Benchmark jobs: the library call chain behind one treecost subcommand,
the check of its output, and the counters the traced run reports.

Checks do not trust the code under test.  Ranks, bits and branch counts of
named and random states come from closed forms; every branch must reach the
target and the branch probabilities must sum to 1.  Values without a closed
form are compared with reference.json, recorded at the commit that
introduced the benchmark by record_reference.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, log2, prod, sqrt

import numpy as np

from treecost import (
    Spectrum,
    approx_bounds,
    approx_state,
    build_program,
    check_completeness,
    config,
    construct_approx,
    decompose,
    exact_edge_cost,
    make_named_state,
    optimize_thresholds,
    simulate,
    spectrum_entropy,
    union_bound_check,
)

import instances


@dataclass
class Job:
    kind: str
    rung: str
    state: object = None
    tree: object = None
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    ref_key: str | None = None


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


# ---------------------------------------------------------------- run ----


def run_construct(job, call):
    dec = call("decomposition.decompose", decompose, job.state, job.tree)
    program = call("protocol.build_program", build_program, dec)
    report = call("protocol.check_completeness", check_completeness, program)
    tr = call(
        "protocol.simulate_sample", simulate, program,
        mode="sample", seed=job.params["sample_seed"],
    )
    return {"dec": dec, "program": program, "completeness": report, "sample": tr}


def run_certify(job, call):
    dec = call("decomposition.decompose", decompose, job.state, job.tree)
    program = call("protocol.build_program", build_program, dec)
    report = call("protocol.check_completeness", check_completeness, program)
    branches = call("protocol.enumerate", simulate, program, mode="enumerate")
    return {
        "dec": dec, "program": program, "completeness": report,
        "branches": branches,
    }


def run_construct_approx(job, call):
    p = job.params
    result, report = call(
        "approx.construct_approx", construct_approx, job.state, job.tree,
        p["n"], p["thresholds"], seed=p.get("sample_seed", 0),
        enumerate_all=p["enumerate"],
    )
    return {"result": result, "report": report}


def run_exact_cost(job, call):
    dec = call("decomposition.decompose", decompose, job.state, job.tree)
    bits = call("costs.exact_edge_cost", exact_edge_cost, dec)
    return {"dec": dec, "bits": bits}


def run_cost_approx(job, call):
    p = job.params
    thresholds = None
    if p.get("optimized"):
        thresholds = call(
            "costs.optimize_thresholds", optimize_thresholds,
            job.state, job.tree, p["eps"],
        )
    report = call(
        "costs.approx_bounds", approx_bounds, job.state, job.tree, p["n"],
        p["eps"], thresholds=thresholds,
    )
    return {"thresholds": thresholds, "report": report}


def run_spectrum_table(job, call):
    p = job.params
    bits = call(
        "costs.spectrum_entropy", spectrum_entropy, job.state, p["n"], p["eps"]
    )
    return {"bits": bits}


def run_block_truncation(job, call):
    p = job.params
    ap = call(
        "approx.approx_state", approx_state, job.state, job.tree, p["n"],
        p["thresholds"],
    )
    ub = call(
        "approx.union_bound_check", union_bound_check, job.state, job.tree,
        p["n"], p["thresholds"],
    )
    return {"approx_state": ap, "union_bound": ub}


# -------------------------------------------------------------- record ---
# Values kept in reference.json for outputs without a closed form.


def record_construct_approx(job, out):
    report = out["report"]
    return {
        "reduced_ranks": [r.reduced_rank for r in report.rows],
        "distance": report.distance,
    }


def record_cost_approx(job, out):
    rows = out["report"].rows
    spectra = {Spectrum.from_edge(job.state, job.tree, e) for e in job.tree.edges}
    rec = {
        "upper": [r.upper for r in rows],
        "lower": [r.lower for r in rows],
        "levels": sorted(len(sp.values) for sp in spectra),
    }
    if out["thresholds"] is not None:
        rec["thresholds"] = [out["thresholds"][r.edge] for r in rows]
    return rec


def record_spectrum_table(job, out):
    return {"bits": out["bits"]}


def record_block_truncation(job, out):
    ub = out["union_bound"]
    return {
        "distance": out["approx_state"].achieved_distance,
        "lhs": ub.lhs,
        "rhs": ub.rhs,
    }


# --------------------------------------------------------------- check ---


def _check_ranks(job, dec):
    _require(dec.ranks == job.expect["ranks"], "ranks differ from closed form")


def _check_branches(branches, count, tol):
    _require(len(branches) == count, f"{len(branches)} branches, want {count}")
    _require(
        min(b.fidelity for b in branches) >= 1.0 - config.FIDELITY_TOL,
        "a branch misses the target",
    )
    total = sum(b.probability for b in branches)
    _require(abs(total - 1.0) <= tol["probability_total"],
             f"branch probabilities sum to {total!r}")


def _check_sample(tr, count, tol):
    # every outcome of every vertex has conditional probability 1/K_v, so a
    # sampled branch has probability 1/(branch count)
    _require(tr.fidelity >= 1.0 - config.FIDELITY_TOL, "branch misses target")
    _require(abs(tr.probability * count - 1.0) <= tol["probability_total"],
             f"branch probability {tr.probability!r} is not 1/{count}")


def _branch_count(ranks) -> int:
    return prod(r * r for r in ranks)


def check_construct(job, out, ref, tol):
    _check_ranks(job, out["dec"])
    _require(out["completeness"].ok, "measurement family incomplete")
    _check_sample(out["sample"], _branch_count(job.expect["ranks"].values()), tol)


def check_certify(job, out, ref, tol):
    _check_ranks(job, out["dec"])
    _require(out["completeness"].ok, "measurement family incomplete")
    count = _branch_count(job.expect["ranks"].values())
    _check_branches(out["branches"], count, tol)


def check_construct_approx(job, out, ref, tol):
    report = out["report"]
    _require(report.within_budget, "achieved bits exceed budget")
    ranks = [r.reduced_rank for r in report.rows]
    _require(ranks == ref["reduced_ranks"], "reduced ranks differ from reference")
    _require(
        _close(report.distance, ref["distance"], 0.0, tol["distance_abs"]),
        "block distance differs from reference",
    )
    _require(report.distance <= report.bound + 1e-9, "distance exceeds bound")
    if job.params["enumerate"]:
        _check_branches(out["result"], _branch_count(ranks), tol)
    else:
        _check_sample(out["result"], _branch_count(ranks), tol)


def check_exact_cost(job, out, ref, tol):
    _check_ranks(job, out["dec"])
    want = {lab: log2(r) for lab, r in job.expect["ranks"].items()}
    _require(out["bits"] == want, "edge bits differ from log2 of the ranks")


def _check_values(got, want, tol, what):
    _require(len(got) == len(want), f"{what}: {len(got)} values")
    for g, w in zip(got, want):
        _require(
            _close(g, w, tol["reference_rel"], tol["reference_abs"]),
            f"{what} {g!r} differs from reference {w!r}",
        )


def check_cost_approx(job, out, ref, tol):
    rows = out["report"].rows
    _check_values([r.upper for r in rows], ref["upper"], tol, "upper bound")
    _check_values([r.lower for r in rows], ref["lower"], tol, "lower bound")
    if out["thresholds"] is not None:
        shares = [out["thresholds"][r.edge] for r in rows]
        _check_values(shares, ref["thresholds"], tol, "threshold")
        eps = job.params["eps"]
        _require(
            _close(sum(u * u for u in shares), eps * eps,
                   tol["reference_rel"], 0.0),
            "thresholds do not spend the budget exactly",
        )


def check_spectrum_table(job, out, ref, tol):
    _check_values([out["bits"]], [ref["bits"]], tol, "waterline bits")


def check_block_truncation(job, out, ref, tol):
    ap, ub = out["approx_state"], out["union_bound"]
    _require(ap.holds, "achieved distance exceeds the additivity bound")
    _require(ub.holds, "union bound fails")
    _require(
        _close(ap.bound, job.params["eps"], 1e-12, 0.0),
        "distance bound is not the root-sum-square of the shares",
    )
    for got, key in ((ap.achieved_distance, "distance"), (ub.lhs, "lhs"),
                     (ub.rhs, "rhs")):
        _require(_close(got, ref[key], 0.0, tol["distance_abs"]),
                 f"{key} {got!r} differs from reference {ref[key]!r}")


# ------------------------------------------------------------ counters ---


def count_construct(job, out, c):
    _count_program(out["dec"], out["program"], c)


def count_certify(job, out, c):
    _count_program(out["dec"], out["program"], c)
    c.add("protocol.enumerate.branches", len(out["branches"]))
    c.add("protocol.enumerate.branch_count", out["program"].branch_count)


def _count_program(dec, program, c):
    c.peak("decomposition.max_rank", max(dec.ranks.values(), default=1))
    c.peak(
        "protocol.register_amplitudes",
        prod(m * m for m in program.resources.values()),
    )
    c.peak(
        "protocol.operator_mb",
        sum(ops.nbytes for ops in program.vertex_ops.values()) / 2**20,
    )


def count_construct_approx(job, out, c):
    c.peak("approx.block_amplitudes", job.expect["block_amplitudes"])


def count_exact_cost(job, out, c):
    c.peak("decomposition.max_rank", max(out["dec"].ranks.values(), default=1))


def count_cost_approx(job, out, c):
    rows = out["report"].rows
    c.add("costs.type_classes", job.expect["type_classes"])
    c.add("costs.edges", len(rows))
    c.add(
        "costs.type_class_edges",
        sum(
            r.lower_method == "type-class" and r.upper_method != "gaussian"
            for r in rows
        ),
    )


def count_spectrum_table(job, out, c):
    c.add("costs.type_classes", job.expect["type_classes"])


def count_block_truncation(job, out, c):
    c.peak("approx.block_amplitudes", job.expect["block_amplitudes"])


@dataclass(frozen=True)
class Kind:
    run: object
    check: object
    count: object
    record: object = None


KINDS = {
    "construct": Kind(run_construct, check_construct, count_construct),
    "certify": Kind(run_certify, check_certify, count_certify),
    "construct_approx": Kind(
        run_construct_approx, check_construct_approx, count_construct_approx,
        record_construct_approx,
    ),
    "certify_approx": Kind(
        run_construct_approx, check_construct_approx, count_construct_approx,
        record_construct_approx,
    ),
    "exact_cost": Kind(run_exact_cost, check_exact_cost, count_exact_cost),
    "cost_approx": Kind(
        run_cost_approx, check_cost_approx, count_cost_approx,
        record_cost_approx,
    ),
    "cost_approx_optimized": Kind(
        run_cost_approx, check_cost_approx, count_cost_approx,
        record_cost_approx,
    ),
    "spectrum_table": Kind(
        run_spectrum_table, check_spectrum_table, count_spectrum_table,
        record_spectrum_table,
    ),
    "block_truncation": Kind(
        run_block_truncation, check_block_truncation, count_block_truncation,
        record_block_truncation,
    ),
}


# ---------------------------------------------------------------- plan ---


def _type_classes(levels: list[int], n: int) -> int:
    return sum(comb(n + d - 1, d - 1) for d in levels)


class Rung:
    """One line of a workload mix: `count` jobs in every pass, each drawn
    from this rung's variants by the workload seed."""

    def __init__(self, count: int, variants: list[Job], rng, label: str):
        self.count = count
        self.label = label
        self.variants = variants
        self.order = rng.permutation(len(variants))
        self.rng = rng

    def jobs(self, pass_index: int) -> list[Job]:
        out = []
        for c in range(self.count):
            k = (pass_index * self.count + c) % len(self.variants)
            v = self.variants[self.order[k]]
            job = Job(v.kind, self.label, v.state, v.tree, dict(v.params),
                      v.expect, v.ref_key)
            if "sample_seed" in job.params:
                job.params["sample_seed"] = int(self.rng.integers(2**31))
            out.append(job)
        return out


def _named_line(entry):
    name, n, k = entry["state"], entry["parties"], entry.get("k")
    state = make_named_state(name, n, k=k)
    return state, instances.line_tree(n), instances.named_line_ranks(name, n, k)


def _n_values(entry) -> list[int]:
    n = entry["n"]
    if isinstance(n, str):
        lo, hi = (int(x) for x in n.split(".."))
        return list(range(lo, hi + 1))
    return [n]


def _pool_states(entry):
    """(name, state, tree) for the fixed instances a finite-block rung
    draws from."""
    tree = instances.line_tree(entry["parties"])
    if entry["state"] == "skewed":
        return [
            (f"skewed{i}", instances.skewed_state(i), tree)
            for i in range(instances.POOL_SIZE)
        ]
    return [("w4", make_named_state("w", 4), tree)]


def _combine(*rules: dict) -> dict:
    out: dict[str, list[int]] = {}
    for rule in rules:
        for key, (lo, hi) in rule.items():
            old_lo, old_hi = out.get(key, (lo, hi))
            out[key] = [max(lo, old_lo), min(hi, old_hi)]
    return out


def size_profile(job: Job) -> dict[str, int]:
    """Size-rule quantities of one job, from its closed-form or recorded
    ranks and type-class counts."""
    if "ranks" in job.expect:
        t, ranks = job.tree, job.expect["ranks"]
        branching = [
            prod(ranks[t.edge_above(c).label] ** 2 for c in t.children(v))
            for v in t.vertices if t.children(v)
        ]
        return {
            "amplitudes": prod(t.dims),
            "register_amplitudes": prod(r * r for r in ranks.values()),
            "max_branching": max(branching),
            "max_children": max(len(t.children(v)) for v in t.vertices),
        }
    if "reduced_ranks" in job.expect:
        return {"register_amplitudes":
                prod(r * r for r in job.expect["reduced_ranks"])}
    if "largest_table" in job.expect:
        return {"type_classes": job.expect["largest_table"]}
    return {}


def rung_variants(entry: dict, spec: dict, rng,
                  size_rule: dict | None = None) -> tuple[str, list[Job]]:
    """Label and every job variant of one mix entry.  Random instances come
    from rng and must meet both the workload's size rule and the rung's."""
    kind = entry["kind"]
    settings = spec["w4_threshold_settings"]
    if kind in ("construct", "certify", "exact_cost"):
        params = {"sample_seed": 0} if kind == "construct" else {}
        if entry["state"] == "random":
            rule = entry["rule"]
            admit = _combine(size_rule or {}, rule)
            label = f"{kind} random N={entry['parties']} " + " ".join(
                f"{k}={lo}" if lo == hi else f"{k}={lo}..{hi}"
                for k, (lo, hi) in rule.items()
            )
            variants = []
            for _ in range(instances.RANDOM_POOL_SIZE):
                state, tree = instances.random_instance(
                    rng, entry["parties"], entry["dims"], admit
                )
                ranks = instances.generic_ranks(tree)
                variants.append(Job(kind, label, state, tree, dict(params),
                                    {"ranks": ranks}))
            return label, variants
        state, tree, ranks = _named_line(entry)
        k = f" k={entry['k']}" if "k" in entry else ""
        label = f"{kind} {entry['state']}{k} N={entry['parties']}"
        return label, [Job(kind, label, state, tree, params, {"ranks": ranks})]

    if kind in ("construct_approx", "certify_approx"):
        n = entry["n"]
        names = ["uniform"] if kind == "construct_approx" else sorted(settings)
        state = make_named_state("w", 4)
        tree = instances.line_tree(4)
        label = f"{kind} w4 n={n}"
        variants = []
        for name in names:
            th = {lab + 1: v for lab, v in enumerate(settings[name])}
            params = {"n": n, "thresholds": th,
                      "enumerate": kind == "certify_approx"}
            if kind == "construct_approx":
                params["sample_seed"] = 0
            variants.append(Job(
                kind, label, state, tree, params,
                {"block_amplitudes": prod(d**n for d in tree.dims)},
                f"{kind}|w4|n={n}|th={name}",
            ))
        return label, variants

    eps = entry["eps"]
    if kind == "spectrum_table":
        d, n = entry["levels"], entry["n"]
        label = f"{kind} levels={d} n={n}"
        return label, [
            Job(kind, label, instances.pool_spectrum(i, d), None,
                {"n": n, "eps": eps},
                {"type_classes": _type_classes([d], n),
                 "largest_table": _type_classes([d], n)},
                f"{kind}|levels{d}/{i}|n={n}|eps={eps}")
            for i in range(instances.POOL_SIZE)
        ]

    label = f"{kind} {entry['state']} n={entry['n']}"
    variants = []
    for name, state, tree in _pool_states(entry):
        for n in _n_values(entry):
            key = f"{kind}|{name}|n={n}|eps={eps}"
            params = {"n": n, "eps": eps}
            expect = {}
            if kind == "block_truncation":
                share = eps / sqrt(len(tree.edges))
                params["thresholds"] = {e.label: share for e in tree.edges}
                expect["block_amplitudes"] = prod(d**n for d in tree.dims)
            else:
                params["optimized"] = kind == "cost_approx_optimized"
            variants.append(Job(kind, label, state, tree, params, expect, key))
    return label, variants


def attach_reference(job: Job, reference: dict) -> None:
    """Sizes recorded with the reference values (reduced ranks, level counts
    of each cut spectrum) that set-up needs without calling the library."""
    ref = reference[job.ref_key]
    if "reduced_ranks" in ref:
        job.expect["reduced_ranks"] = ref["reduced_ranks"]
    if "levels" in ref:
        n = job.params["n"]
        job.expect["type_classes"] = _type_classes(ref["levels"], n)
        job.expect["largest_table"] = max(
            _type_classes([d], n) for d in ref["levels"]
        )


def build_plan(workload: str, seed: int, spec: dict, reference: dict):
    """Set-up: every rung of the workload with all its variants, each
    admitted by the workload's size rule."""
    size_rule = spec["workloads"][workload]["size_rule"]
    rungs = []
    for i, entry in enumerate(spec["workloads"][workload]["mix"]):
        rng = np.random.default_rng([seed, i])
        label, variants = rung_variants(entry, spec, rng, size_rule)
        for v in variants:
            if v.ref_key is not None:
                if v.ref_key not in reference:
                    raise KeyError(f"no reference value for {v.ref_key}")
                attach_reference(v, reference)
            prof = size_profile(v)
            for key, (lo, hi) in size_rule.items():
                if key in prof and not lo <= prof[key] <= hi:
                    raise ValueError(f"{label}: {key} {prof[key]} outside "
                                     f"the size rule [{lo}, {hi}]")
        rungs.append(Rung(entry["count"], variants, rng, label))
    return rungs


def pass_jobs(rungs, seed: int, pass_index: int) -> list[Job]:
    """One pass over the mix, in an order drawn from the seed."""
    jobs = list(itertools.chain.from_iterable(r.jobs(pass_index) for r in rungs))
    order = np.random.default_rng([seed, 10**6 + pass_index]).permutation(len(jobs))
    return [jobs[i] for i in order]
