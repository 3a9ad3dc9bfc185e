"""Command line front end.

Subcommands: cost exact, cost approx, simulate, approx, figures, verify.
All JSON output is deterministic (sorted keys, no timestamps) so repeated
runs on the same inputs are byte-identical.  Exit codes: 0 success, 2 bad
input, 3 insufficient supplied entanglement, 4 a verification check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from math import log2

from . import config
from .approx import construct_approx
from .costs import approx_bounds, figure_data, optimize_thresholds
from .decomposition import decompose
from .errors import IncompatibleDims, InsufficientResource, TreecostError, UnknownRoot
from .protocol import build_program, simulate
from .states import load_state_json, make_named_state
from .tree import load_tree_json
from .verify import run_checks

_TOKEN = re.compile(r"([a-z]+)([0-9]+)(?::([0-9]+))?")


def _parse_state(source: str, tree):
    if os.path.exists(source):
        return load_state_json(source, tree)
    m = _TOKEN.fullmatch(source)
    if m is None:
        raise IncompatibleDims(
            f"state {source!r} is neither a file nor a family token"
        )
    name, n, extra = m.group(1), int(m.group(2)), m.group(3)
    if n != tree.n:
        raise IncompatibleDims(
            f"state token {source!r} names {n} parties, tree has {tree.n}"
        )
    kwargs = {}
    if name == "dicke":
        if extra is None:
            raise IncompatibleDims("dicke token needs :k, e.g. dicke4:2")
        kwargs["k"] = int(extra)
    elif name == "random":
        kwargs["seed"] = int(extra) if extra is not None else 0
    return make_named_state(name, n, tree.dims, **kwargs)


def _load_tree(args):
    root = getattr(args, "root", None)
    try:
        return load_tree_json(args.tree, root_override=root)
    except UnknownRoot:
        if root is not None and root.isdigit():
            return load_tree_json(args.tree, root_override=int(root))
        raise


def _label_map(tree) -> dict:
    return {
        "parties": {str(pid): lab for pid, lab in tree.label_map.items()},
        "edges": {str(e.label): [e.parent, e.child] for e in tree.edges},
    }


def _emit(doc: dict, out: str | None) -> None:
    """Write doc as indented JSON, streamed rather than built as one
    string, so a large transcript document is not held twice."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        json.dump(doc, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")


def _parse_resources(entries):
    supplies = {}
    for entry in entries or []:
        lab, _, val = entry.partition("=")
        try:
            supplies[int(lab)] = int(val)
        except ValueError:
            raise TreecostError(
                f"resource {entry!r} is not of the form EDGE=RANK"
            ) from None
    return supplies or None


def _parse_branch(text):
    out = {}
    for part in text.split(","):
        v, _, j = part.partition("=")
        try:
            out[int(v)] = int(j)
        except ValueError:
            raise TreecostError(
                f"branch part {part!r} is not of the form VERTEX=INDEX"
            ) from None
    return out


def _resolve_thresholds(args, state, tree):
    mode = args.thresholds
    if mode == "uniform":
        return None, "uniform"
    if mode == "optimized":
        return optimize_thresholds(state, tree, args.eps), "optimized"
    with open(mode, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(k): float(v) for k, v in doc.items()}, mode


def _event_doc(ev) -> dict:
    return {
        "kind": ev.kind,
        "vertex": ev.vertex,
        "edge": ev.edge,
        "outcome": list(ev.outcome) if ev.outcome is not None else None,
        "index": ev.index,
        "probability": ev.probability,
        "info": ev.info,
    }


def _transcript_doc(tr, tree) -> dict:
    return {
        "schema": "treecost-transcript/1",
        "label_map": _label_map(tree),
        "probability": tr.probability,
        "fidelity": tr.fidelity,
        "outcomes": {str(v): j for v, j in sorted(tr.outcomes.items())},
        "events": [_event_doc(ev) for ev in tr.events],
        "final_state": {
            "dims": list(tr.final_state.dims),
            "amplitudes": [
                [float(a.real), float(a.imag)]
                for a in tr.final_state.amplitudes
            ],
        },
    }


def _cmd_cost_exact(args) -> int:
    tree = _load_tree(args)
    state = _parse_state(args.state, tree)
    dec = decompose(state, tree, args.rank_tol)
    rows = [
        {
            "edge": lab,
            "rank": dec.ranks[lab],
            "bits": float(log2(dec.ranks[lab])),
        }
        for lab in sorted(dec.ranks)
    ]
    _emit(
        {
            "schema": "treecost-cost-exact/1",
            "label_map": _label_map(tree),
            "edges": rows,
            "total_bits": float(sum(r["bits"] for r in rows)),
        },
        args.out,
    )
    return 0


def _cmd_cost_approx(args) -> int:
    tree = _load_tree(args)
    state = _parse_state(args.state, tree)
    thresholds, mode = _resolve_thresholds(args, state, tree)
    report = approx_bounds(
        state,
        tree,
        args.n,
        args.eps,
        thresholds=thresholds,
        delta=args.delta,
        eta=args.eta,
        rank_tol=args.rank_tol,
    )
    _emit(
        {
            "schema": "treecost-cost-approx/1",
            "label_map": _label_map(tree),
            "n": report.n,
            "eps": report.eps,
            "thresholds_mode": mode,
            "edges": [dataclasses.asdict(r) for r in report.rows],
            "exact_total": report.exact_total,
            "upper_total": report.upper_total,
            "lower_total": report.lower_total,
        },
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    tree = _load_tree(args)
    state = _parse_state(args.state, tree)
    dec = decompose(state, tree, args.rank_tol)
    overrides = _parse_resources(args.resource)
    supplies = None
    if overrides:
        unknown = set(overrides) - set(dec.ranks)
        if unknown:
            raise TreecostError(
                f"resource override names unknown edge {sorted(unknown)[0]}"
            )
        supplies = {**dec.ranks, **overrides}
    program = build_program(dec, supplies)
    doc = {
        "schema": "treecost-simulate/1",
        "label_map": _label_map(tree),
        "branch_count": program.branch_count,
        "ranks": {str(k): v for k, v in sorted(program.ranks.items())},
        "resources": {str(k): v for k, v in sorted(program.resources.items())},
    }
    tol = config.FIDELITY_TOL
    if args.enumerate:
        branches = simulate(program, mode="enumerate")
        min_fid = min(b.fidelity for b in branches)
        total_p = sum(b.probability for b in branches)
        ok = min_fid >= 1.0 - tol and abs(total_p - 1.0) <= 1e-9
        doc.update(
            {
                "mode": "enumerate",
                "branches": len(branches),
                "min_fidelity": min_fid,
                "probability_total": total_p,
                "deterministic": ok,
            }
        )
        if args.transcript:
            full = {
                "schema": "treecost-transcripts/1",
                "branches": [_transcript_doc(b, tree) for b in branches],
            }
            _emit(full, args.transcript)
    else:
        if args.branch:
            tr = simulate(
                program, mode="branch", outcomes=_parse_branch(args.branch)
            )
            doc["mode"] = "branch"
        else:
            tr = simulate(program, mode="sample", seed=args.seed)
            doc["mode"] = "sample"
            doc["seed"] = args.seed
        ok = tr.fidelity >= 1.0 - tol
        doc.update(
            {
                "probability": tr.probability,
                "fidelity": tr.fidelity,
                "outcomes": {str(v): j for v, j in sorted(tr.outcomes.items())},
                "deterministic": ok,
            }
        )
        if args.transcript:
            _emit(_transcript_doc(tr, tree), args.transcript)
    _emit(doc, args.out)
    return 0 if ok else 4


def _cmd_approx(args) -> int:
    tree = _load_tree(args)
    state = _parse_state(args.state, tree)
    thresholds, mode = _resolve_thresholds(args, state, tree)
    if thresholds is None:
        n_edges = len(tree.edges)
        thresholds = {
            e.label: args.eps / n_edges**0.5 for e in tree.edges
        }
    result, report = construct_approx(
        state,
        tree,
        args.n,
        thresholds,
        seed=args.seed,
        enumerate_all=args.enumerate,
        rank_tol=args.rank_tol,
    )
    doc = {
        "schema": "treecost-approx/1",
        "label_map": _label_map(tree),
        "n": report.n,
        "eps": args.eps,
        "thresholds_mode": mode,
        "thresholds": {str(k): v for k, v in sorted(report.thresholds.items())},
        "edges": [dataclasses.asdict(r) for r in report.rows],
        "achieved_total": report.achieved_total,
        "budget_total": report.budget_total,
        "distance": report.distance,
        "distance_bound": report.bound,
        "within_budget": report.within_budget,
        "distance_ok": report.distance <= report.bound + 1e-9,
    }
    tol = config.FIDELITY_TOL
    if args.enumerate:
        min_fid = min(b.fidelity for b in result)
        doc.update(
            {
                "mode": "enumerate",
                "branches": len(result),
                "min_fidelity": min_fid,
            }
        )
        ok = min_fid >= 1.0 - tol
        if args.transcript:
            big = dataclasses.replace(tree, dims=tuple(d**report.n for d in tree.dims))
            full = {
                "schema": "treecost-transcripts/1",
                "branches": [_transcript_doc(b, big) for b in result],
            }
            _emit(full, args.transcript)
    else:
        doc.update(
            {
                "mode": "sample",
                "seed": args.seed,
                "fidelity": result.fidelity,
                "probability": result.probability,
            }
        )
        ok = result.fidelity >= 1.0 - tol
        if args.transcript:
            big = dataclasses.replace(tree, dims=tuple(d**report.n for d in tree.dims))
            _emit(_transcript_doc(result, big), args.transcript)
    doc["deterministic"] = ok
    ok = ok and doc["within_budget"] and doc["distance_ok"]
    _emit(doc, args.out)
    return 0 if ok else 4


def _cmd_figures(args) -> int:
    cols, rows = figure_data(args.kind)
    lines = [f"# treecost-figures/1 {args.kind}", ",".join(cols)]
    for row in rows:
        parts = [
            str(v) if isinstance(v, int) else f"{v:.12g}" for v in row
        ]
        lines.append(",".join(parts))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    checks = run_checks(seed=args.seed)
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        tag = "  ok  " if ok else " FAIL "
        sys.stdout.write(f"[{tag}] {name}: {detail}\n")
    if args.out:
        _emit(
            {
                "schema": "treecost-verify/1",
                "checks": [
                    {"name": n, "ok": o, "detail": d} for n, o, d in checks
                ],
                "all_ok": all_ok,
            },
            args.out,
        )
    return 0 if all_ok else 4


def _add_instance_args(p, with_root=True):
    p.add_argument("--tree", required=True, help="tree document (JSON)")
    p.add_argument(
        "--state",
        required=True,
        help="state document (JSON) or family token like w4, ghz5, dicke4:2",
    )
    if with_root:
        p.add_argument("--root", default=None, help="override the root party")
    p.add_argument("--rank-tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecost",
        description="entanglement cost and construction over tree networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="per-edge entanglement cost")
    csub = cost.add_subparsers(dest="mode", required=True)
    cx = csub.add_parser("exact", help="exact cut ranks")
    _add_instance_args(cx)
    cx.set_defaults(func=_cmd_cost_exact)
    ca = csub.add_parser("approx", help="block cost bounds")
    _add_instance_args(ca)
    ca.add_argument("--n", type=int, required=True, help="copies per block")
    ca.add_argument("--eps", type=float, required=True, help="error budget")
    ca.add_argument(
        "--thresholds",
        default="uniform",
        help="uniform, optimized, or a JSON file of per-edge shares",
    )
    ca.add_argument("--delta", type=float, default=1e-9)
    ca.add_argument("--eta", type=float, default=None)
    ca.set_defaults(func=_cmd_cost_approx)

    sim = sub.add_parser("simulate", help="run the construction protocol")
    _add_instance_args(sim)
    sim.add_argument(
        "--resource",
        action="append",
        metavar="EDGE=RANK",
        help="supplied entangled rank for an edge (repeatable)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--branch", default=None, help="forced outcomes v=j,v=j")
    sim.add_argument("--enumerate", action="store_true")
    sim.add_argument("--transcript", default=None, help="write full transcript here")
    sim.set_defaults(func=_cmd_simulate)

    ap = sub.add_parser("approx", help="project a block and build it")
    _add_instance_args(ap)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--eps", type=float, required=True)
    ap.add_argument("--thresholds", default="uniform")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--enumerate", action="store_true")
    ap.add_argument("--transcript", default=None)
    ap.set_defaults(func=_cmd_approx)

    figs = sub.add_parser("figures", help="data behind the summary charts")
    figs.add_argument(
        "kind", choices=["w-second-order", "rate-comparison"]
    )
    figs.add_argument("--out", default=None)
    figs.set_defaults(func=_cmd_figures)

    ver = sub.add_parser("verify", help="run the invariant battery")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientResource as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except TreecostError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
