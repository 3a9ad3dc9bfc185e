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

import numpy as np

from . import config
from .approx import construct_approx
from .costs import (
    _budget_shares,
    approx_bounds,
    exact_edge_cost,
    figure_data,
    optimize_thresholds,
)
from .decomposition import decompose
from .errors import (
    IncompatibleDims,
    InsufficientResource,
    InvalidEpsilon,
    TreecostError,
    UnknownRoot,
)
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


def _instance(args):
    """The tree and state an instance command names.  A digit --root that
    names no party is retried as an integer party id."""
    try:
        tree = load_tree_json(args.tree, root_override=args.root)
    except UnknownRoot:
        if args.root is None or not args.root.isdigit():
            raise
        tree = load_tree_json(args.tree, root_override=int(args.root))
    return tree, _parse_state(args.state, tree)


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


def _parse_pairs(parts, name: str, form: str) -> dict[int, int]:
    """The K=V parts as {K: V}, each side an integer; a part that is not
    is refused as "<name> '<part>' is not of the form <form>", and one
    whose K an earlier part gave as "<name> '<part>' repeats <k> <K>"."""
    out = {}
    for part in parts:
        k, _, v = part.partition("=")
        try:
            key, value = int(k), int(v)
        except ValueError:
            raise TreecostError(
                f"{name} {part!r} is not of the form {form}"
            ) from None
        if key in out:
            what = form.partition("=")[0].lower()
            raise TreecostError(f"{name} {part!r} repeats {what} {key}")
        out[key] = value
    return out


def _resolve_thresholds(args, state, tree):
    mode = args.thresholds
    if mode == "uniform":
        return None, "uniform"
    if mode == "optimized":
        return (
            optimize_thresholds(state, tree, args.eps, args.rank_tol),
            "optimized",
        )
    # an object is read as its (key, value) pairs, so that an edge named
    # twice ("1" and "01", or one key written twice) is seen, not overwritten
    with open(mode, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=tuple)
    if not isinstance(doc, tuple):
        raise InvalidEpsilon(f"thresholds file {mode} is not an object of shares")
    try:
        shares = {int(k): float(v) for k, v in doc}
    except TypeError:
        raise InvalidEpsilon(
            f"thresholds file {mode} holds a share that is not a number"
        ) from None
    if len(shares) < len(doc):
        raise InvalidEpsilon(f"thresholds file {mode} names an edge twice")
    return shares, mode


def _transcript_doc(tr, tree) -> dict:
    amps = tr.final_state.amplitudes
    return {
        "schema": "treecost-transcript/1",
        "label_map": _label_map(tree),
        "probability": tr.probability,
        "fidelity": tr.fidelity,
        "outcomes": {str(v): j for v, j in sorted(tr.outcomes.items())},
        "events": [vars(ev) for ev in tr.events],
        "final_state": {
            "dims": list(tr.final_state.dims),
            "amplitudes": np.stack([amps.real, amps.imag], axis=1).tolist(),
        },
    }


def _branch_text(tr, tree) -> str:
    """The transcript document of one branch as an entry of the transcripts
    document: json.dumps(doc, sort_keys=True, indent=2) with every line
    after the first indented by four more spaces.  json's indented encoder
    is pure Python, so the amplitude pairs, nearly all of the text, take
    their float text from the compact encoder and are laid out here."""
    doc = _transcript_doc(tr, tree)
    pairs = json.dumps(doc["final_state"]["amplitudes"])
    doc["final_state"]["amplitudes"] = []
    text = json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n    ")
    # a string value escapes its quotes, and no other key is named so: the
    # one match is the final state's key
    head, _, tail = text.partition('"amplitudes": []')
    item, value = "\n" + " " * 10, "\n" + " " * 12
    pairs = pairs[2:-2].replace("], [", f"{item}],{item}[{value}")
    pairs = pairs.replace(", ", "," + value)
    amplitudes = f'"amplitudes": [{item}[{value}{pairs}{item}]\n        ]'
    return head + amplitudes + tail


def _emit_transcripts(branches, tree, out: str) -> None:
    """Write the transcripts document of the branches one branch at a
    time, with the bytes _emit would write for the whole document."""
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{\n  "branches": [')
        sep = "\n"
        for b in branches:
            fh.write(sep + "    " + _branch_text(b, tree))
            sep = ",\n"
        if branches:
            fh.write("\n  ")
        fh.write('],\n  "schema": "treecost-transcripts/1"\n}\n')


def _cmd_cost_exact(args) -> int:
    tree, state = _instance(args)
    dec = decompose(state, tree, args.rank_tol)
    rows = [
        {"edge": lab, "rank": dec.ranks[lab], "bits": bits}
        for lab, bits in exact_edge_cost(dec).items()
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
    tree, state = _instance(args)
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
    tree, state = _instance(args)
    dec = decompose(state, tree, args.rank_tol)
    resources = _parse_pairs(args.resource or [], "resource", "EDGE=RANK")
    supplies = {**dec.ranks, **resources}
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
            _emit_transcripts(branches, tree, args.transcript)
    else:
        if args.branch:
            outcomes = _parse_pairs(
                args.branch.split(","), "branch part", "VERTEX=INDEX"
            )
            tr = simulate(program, mode="branch", outcomes=outcomes)
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
    tree, state = _instance(args)
    thresholds, mode = _resolve_thresholds(args, state, tree)
    thresholds = _budget_shares(tree, args.n, args.eps, thresholds)
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
            _emit_transcripts(result, tree, args.transcript)
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
            _emit(_transcript_doc(result, tree), args.transcript)
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


def _add_instance_args(p):
    p.add_argument("--tree", required=True, help="tree document (JSON)")
    p.add_argument(
        "--state",
        required=True,
        help="state document (JSON) or family token like w4, ghz5, dicke4:2",
    )
    p.add_argument("--root", default=None, help="override the root party")
    p.add_argument("--rank-tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write the report here")


def _add_block_args(p):
    p.add_argument("--n", type=int, required=True, help="copies per block")
    p.add_argument("--eps", type=float, required=True, help="error budget")
    p.add_argument(
        "--thresholds",
        default="uniform",
        help="uniform, optimized, or a JSON file of per-edge shares",
    )


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
    _add_block_args(ca)
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
    _add_block_args(ap)
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
    except (TreecostError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
