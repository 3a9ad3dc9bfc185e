"""Self-contained invariant battery.

Each check returns (name, ok, detail) and is cheap enough to run on every
call; the CLI exposes the whole battery.  Failures never raise out of
run_checks; an exception becomes a failing entry.
"""

from __future__ import annotations

from math import log2, sqrt

import numpy as np

from .approx import approx_state, construct_approx, union_bound_check
from .costs import (
    Spectrum,
    inverse_normal_cdf,
    normal_cdf,
    optimize_thresholds,
    second_order,
    spectrum_entropy,
)
from .decomposition import decompose, recompose, vertex_gram_defect
from .protocol import (
    build_program,
    check_completeness,
    naive_distribution_cost,
    simulate,
)
from .states import (
    PureState,
    make_named_state,
    normalized_state,
    schmidt_reconstruct,
    schmidt_wrt_edge,
)
from .tree import RootedTree, bipartition, root_and_relabel


def _line_tree(n: int, d: int = 2) -> RootedTree:
    edges = [(i, i + 1) for i in range(1, n)]
    return root_and_relabel(edges, {i: d for i in range(1, n + 1)}, root=1)


def _random_instance(rng) -> tuple[PureState, RootedTree]:
    n = int(rng.integers(3, 6))
    edges = [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]
    dims = {i: int(rng.choice([2, 2, 3])) for i in range(1, n + 1)}
    root = int(rng.integers(1, n + 1))
    t = root_and_relabel(edges, dims, root=root)
    size = int(np.prod(t.dims))
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return normalized_state(amps, t.dims), t


def run_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    out: list[tuple[str, bool, str]] = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except Exception as e:
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        out.append((name, bool(ok), detail))

    rng = np.random.default_rng(seed)

    def chk_bipartition():
        s, t = _random_instance(rng)
        e = t.edges[int(rng.integers(0, len(t.edges)))]
        below, rest = bipartition(t, e)
        ok = (
            below | rest == frozenset(t.vertices)
            and not below & rest
            and e.child in below
            and e.parent in rest
        )
        return ok, f"edge {e.label}: {sorted(below)} vs {sorted(rest)}"

    record("tree-bipartition", chk_bipartition)

    def chk_schmidt():
        s, t = _random_instance(rng)
        worst = 0.0
        for e in t.edges:
            sd = schmidt_wrt_edge(s, t, e)
            back = schmidt_reconstruct(sd, t.dims)
            worst = max(worst, float(np.abs(back.amplitudes - s.amplitudes).max()))
        return worst <= 1e-9, f"max reconstruction error {worst:.2e}"

    record("schmidt-reconstruct", chk_schmidt)

    def chk_roundtrip():
        s, t = _random_instance(rng)
        dec = decompose(s, t)
        back = recompose(dec)
        err = float(np.abs(back.amplitudes - s.amplitudes).max())
        defect = max(vertex_gram_defect(dec, v) for v in dec.factors)
        ok = err <= 1e-9 and defect <= 1e-9
        return ok, f"recompose error {err:.2e}, gram defect {defect:.2e}"

    record("decomposition-roundtrip", chk_roundtrip)

    def chk_completeness():
        s, t = _random_instance(rng)
        rep = check_completeness(build_program(decompose(s, t)))
        return rep.ok, f"max defect {rep.max_defect:.2e}"

    record("operator-completeness", chk_completeness)

    def chk_sampled():
        t = _line_tree(4)
        s = make_named_state("w", 4)
        program = build_program(decompose(s, t))
        worst = 1.0
        for k in range(5):
            tr = simulate(program, mode="sample", seed=seed + k)
            worst = min(worst, tr.fidelity)
        return worst >= 1.0 - 1e-9, f"min sampled fidelity {worst:.12f}"

    record("protocol-sampled-branches", chk_sampled)

    def chk_enumerated():
        s, t = _random_instance(rng)
        program = build_program(decompose(s, t))
        if program.branch_count > 5000:
            t = _line_tree(3)
            s = make_named_state("ghz", 3)
            program = build_program(decompose(s, t))
        branches = simulate(program, mode="enumerate")
        fid = min(b.fidelity for b in branches)
        ptot = sum(b.probability for b in branches)
        ok = (
            fid >= 1.0 - 1e-9
            and abs(ptot - 1.0) <= 1e-9
            and len(branches) == program.branch_count
        )
        return ok, (
            f"{len(branches)} branches, min fidelity {fid:.12f}, "
            f"total probability {ptot:.12f}"
        )

    record("protocol-all-branches", chk_enumerated)

    def chk_padded():
        t = _line_tree(4)
        s = make_named_state("w", 4)
        dec = decompose(s, t)
        supplies = {lab: r + 1 for lab, r in dec.ranks.items()}
        tr = simulate(build_program(dec, supplies), mode="sample", seed=seed)
        kinds = [ev.kind for ev in tr.events]
        ok = tr.fidelity >= 1.0 - 1e-9 and kinds.count("compress") == 3
        return ok, f"fidelity {tr.fidelity:.12f}, events {kinds.count('compress')} compress"

    record("protocol-padded-pairs", chk_padded)

    def chk_waterline():
        g1 = spectrum_entropy(Spectrum((1.0,), (1,)), 1, 0.01)
        g2 = spectrum_entropy(Spectrum((0.25,), (4,)), 1, 0.5)
        ok = abs(g1 - log2(100.0)) <= 1e-9 and abs(g2 - 3.0) <= 1e-9
        return ok, f"pure {g1:.9f} vs {log2(100.0):.9f}, flat {g2:.9f} vs 3"

    record("waterline-closed-forms", chk_waterline)

    def chk_second_order():
        spectrum = Spectrum((0.75, 0.25), (1, 1))
        a_ref = -(0.75 * log2(0.75) + 0.25 * log2(0.25))
        var_ref = (
            0.75 * log2(0.75) ** 2 + 0.25 * log2(0.25) ** 2 - a_ref**2
        )
        so = second_order(spectrum, 0.04)
        ok = abs(so.a - a_ref) <= 1e-12 and abs(so.s - sqrt(var_ref)) <= 1e-12
        return ok, f"a {so.a:.9f}, s {so.s:.9f}, b {so.b:.9f}"

    record("second-order-coefficients", chk_second_order)

    def chk_quantile():
        worst = 0.0
        for p in np.geomspace(1e-9, 0.5, 40):
            worst = max(worst, abs(normal_cdf(inverse_normal_cdf(p)) - p))
            q = 1.0 - p
            worst = max(worst, abs(normal_cdf(inverse_normal_cdf(q)) - q))
        return worst <= 1e-12, f"max round-trip error {worst:.2e}"

    record("quantile-roundtrip", chk_quantile)

    def chk_thresholds():
        t = _line_tree(4)
        s = make_named_state("w", 4)
        eps = 0.04
        th = optimize_thresholds(s, t, eps)
        ok = (
            th[2] == 0.0
            and abs(th[1] - eps / sqrt(2.0)) <= 1e-9
            and abs(th[3] - eps / sqrt(2.0)) <= 1e-9
        )
        return ok, f"shares {{1: {th[1]:.6f}, 2: {th[2]:.6f}, 3: {th[3]:.6f}}}"

    record("threshold-optimizer", chk_thresholds)

    def _skewed_ghz():
        t = _line_tree(3)
        amps = np.zeros(8)
        amps[0] = sqrt(0.9)
        amps[7] = sqrt(0.1)
        return normalized_state(amps, t.dims), t

    def chk_approx():
        s, t = _skewed_ghz()
        th = {1: 0.6, 2: 0.6}
        ap = approx_state(s, t, 3, th)
        cut = any(not p.trivial for p in ap.projections)
        tr, rep = construct_approx(s, t, 3, th, seed=seed)
        ok = (
            cut
            and ap.holds
            and rep.within_budget
            and tr.fidelity >= 1.0 - 1e-9
        )
        return ok, (
            f"distance {ap.achieved_distance:.6f} <= {ap.bound:.6f}, "
            f"achieved {rep.achieved_total:.4f} <= budget {rep.budget_total:.4f}"
        )

    record("approx-pipeline", chk_approx)

    def chk_union():
        s, t = _skewed_ghz()
        th = {1: 0.6, 2: 0.6}
        rep = union_bound_check(s, t, 3, th)
        ok = rep.holds and rep.lhs > 0.0
        return ok, f"lhs {rep.lhs:.6f} <= rhs {rep.rhs:.6f}"

    record("union-bound", chk_union)

    def chk_naive():
        t = _line_tree(4)
        per_edge = naive_distribution_cost(t)
        s = make_named_state("w", 4)
        dec = decompose(s, t)
        naive_total = sum(per_edge.values())
        protocol_total = sum(log2(r) for r in dec.ranks.values())
        ok = abs(naive_total - 6.0) <= 1e-12 and abs(protocol_total - 3.0) <= 1e-12
        return ok, f"forwarding {naive_total:.1f} bits vs protocol {protocol_total:.1f}"

    record("naive-versus-protocol", chk_naive)

    return out
