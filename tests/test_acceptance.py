"""Acceptance battery.

Each test covers one numbered criterion and prints a single pass/fail line.
Programs built for criteria 1-3 are cached at module level so criterion 4
can audit every one of them regardless of execution order.
"""

import time
from functools import lru_cache
from math import log2, sqrt

import numpy as np
import pytest

from treecost import (
    InsufficientResource,
    Spectrum,
    approx_state,
    bipartition,
    build_program,
    check_completeness,
    construct_approx,
    decompose,
    decomposition_from_mps,
    exact_edge_cost,
    figure_data,
    make_named_state,
    mps_canonical_form,
    naive_distribution_cost,
    optimize_thresholds,
    simulate,
    spectrum_entropy,
    union_bound_check,
)

from helpers import (
    brute_waterline_bits,
    cut_rank,
    line_tree,
    random_pure_state,
    random_tree,
    skewed_pure_state,
)

FID_TOL = 1e-9
BRANCH_CAP = 6000


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def _min_fidelity(branches):
    return min(b.fidelity for b in branches)


# ------------------------------------------------------- cached programs


@lru_cache(maxsize=1)
def _w4_programs():
    """Both rootings of the four-party W line: chain root and interior root."""
    out = []
    w = make_named_state("w", 4)
    for root in (1, 2):
        tree = line_tree(4, root=root)
        dec = decompose(w, tree)
        out.append((f"root-{root}", dec, build_program(dec)))
    return out


@lru_cache(maxsize=1)
def _named_family_programs():
    """GHZ and W on 20 random qubit trees with up to 8 parties."""
    rng = np.random.default_rng(20240811)
    out = []
    for _ in range(20):
        n = int(rng.integers(3, 9))
        tree = random_tree(rng, n, dim_choices=(2,))
        for name in ("ghz", "w"):
            state = make_named_state(name, n)
            dec = decompose(state, tree)
            out.append((name, dec, build_program(dec)))
    return out


@lru_cache(maxsize=1)
def _random_triples():
    """50 random (state, tree, root) triples, enumeration kept tractable.

    Configurations whose branch count would exceed the cap are resampled;
    determinism must hold for them too, they are just too slow to walk
    exhaustively here.
    """
    rng = np.random.default_rng(77)
    out = []
    while len(out) < 50:
        n = int(rng.integers(2, 6))
        tree = random_tree(rng, n, dim_choices=(2, 3))
        state = random_pure_state(rng, tree.dims)
        dec = decompose(state, tree)
        branch_count = 1
        for r in dec.ranks.values():
            branch_count *= r * r
        if branch_count > BRANCH_CAP:
            continue
        out.append((state, tree, dec, build_program(dec)))
    return out


# -------------------------------------------------------------- criteria


def test_criterion_01_exact_w4_both_rootings():
    start = time.monotonic()
    details = []
    for name, dec, program in _w4_programs():
        branches = simulate(program, mode="enumerate")
        assert len(branches) == 64
        fid = _min_fidelity(branches)
        total_p = sum(b.probability for b in branches)
        assert fid >= 1 - FID_TOL
        assert abs(total_p - 1.0) <= 1e-9
        costs = exact_edge_cost(dec)
        assert costs == {1: 1.0, 2: 1.0, 3: 1.0}
        assert all(r == 2 for r in program.resources.values())
        details.append(f"{name} 64 branches fid {fid:.12f}")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, True, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_02_named_families_on_random_trees():
    start = time.monotonic()
    worst = 1.0
    for name, dec, program in _named_family_programs():
        costs = exact_edge_cost(dec)
        assert all(c == 1.0 for c in costs.values()), (name, costs)
        for seed in range(100):
            t = simulate(program, mode="sample", seed=seed)
            worst = min(worst, t.fidelity)
            assert t.fidelity >= 1 - FID_TOL
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, True, f"40 programs x 100 samples, min fid {worst:.12f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_random_state_determinism():
    worst = 1.0
    for state, tree, dec, program in _random_triples():
        branches = simulate(program, mode="enumerate")
        fid = _min_fidelity(branches)
        worst = min(worst, fid)
        assert fid >= 1 - FID_TOL
        assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-9
        for e in tree.edges:
            side, _ = bipartition(tree, e)
            oracle = cut_rank(state.amplitudes, state.dims, side)
            assert dec.ranks[e.label] == oracle
            assert exact_edge_cost(dec)[e.label] == log2(oracle)
    _report(3, True, f"50 triples enumerated, min fid {worst:.12f}, "
            "ranks match independent SVD")


def test_criterion_04_completeness_everywhere():
    programs = (
        [p for _, _, p in _w4_programs()]
        + [p for _, _, p in _named_family_programs()]
        + [p for _, _, _, p in _random_triples()]
    )
    worst = 0.0
    for program in programs:
        rep = check_completeness(program)
        worst = max(worst, rep.max_defect)
        assert rep.ok
        assert rep.max_defect <= 1e-10
    _report(4, True, f"{len(programs)} programs, max defect {worst:.3e}")


def test_criterion_05_insufficient_resources():
    tree = line_tree(4)
    dec = decompose(make_named_state("w", 4), tree)
    for edge_label in (1, 2, 3):
        supplies = dict(dec.ranks)
        supplies[edge_label] = 1
        with pytest.raises(InsufficientResource):
            build_program(dec, supplies)
    _report(5, True, "rank-1 supply on any of the 3 edges is rejected")


def test_criterion_06_naive_versus_protocol_totals():
    rows = []
    for n in (3, 4, 5, 6, 8):
        tree = line_tree(n)
        naive_total = sum(naive_distribution_cost(tree).values())
        dec = decompose(make_named_state("w", n), tree)
        protocol_total = sum(exact_edge_cost(dec).values())
        assert naive_total == n * (n - 1) / 2
        assert protocol_total == n - 1
        rows.append(f"N={n}: {naive_total:.0f} vs {protocol_total:.0f}")
    _report(6, True, "; ".join(rows))


def test_criterion_07_waterline_brute_force_agreement():
    rng = np.random.default_rng(4242)
    worst = 0.0
    checks = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(d) * rng.uniform(0.5, 3.0))
        spectrum = Spectrum.from_eigenvalues(probs)
        flat = [
            v for v, m in zip(spectrum.values, spectrum.multiplicities)
            for _ in range(m)
        ]
        n = int(rng.integers(1, 11))
        for eps in rng.uniform(0.01, 0.95, size=4):
            got = spectrum_entropy(spectrum, n, float(eps))
            want = brute_waterline_bits(flat, n, float(eps))
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9
            checks += 1
    _report(7, True, f"{checks} evaluations, max |diff| {worst:.3e}")


def test_criterion_08_second_order_figure_rows():
    start = time.monotonic()
    cols, rows = figure_data("w-second-order")
    assert cols == ["N", "a", "b"]
    assert [r[0] for r in rows] == list(range(4, 81, 4))
    for _, a, b in rows:
        assert abs(a - 0.8113) <= 1e-3
        assert b > 0.0
    bs = [r[2] for r in rows]
    assert all(x < y for x, y in zip(bs, bs[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(8, True, f"{len(rows)} rows, a={rows[0][1]:.6f}, "
            f"b {bs[0]:.3f}..{bs[-1]:.3f} increasing, {elapsed:.2f}s")


def test_criterion_09_rate_ordering_and_common_limit():
    cols, rows = figure_data("rate-comparison")
    assert cols == ["n", "rate_uniform", "rate_optimized", "rate_lower"]
    a = Spectrum((0.75, 0.25), (1, 1)).entropy
    assert abs(a - 0.8113) <= 1e-3
    for n, uni, opt, low in rows:
        assert low <= opt + 1e-12
        assert opt < uni
    first, last = rows[0], rows[-1]
    first_gap = max(abs(v - a) for v in first[1:])
    last_gap = max(abs(v - a) for v in last[1:])
    assert last_gap < 0.015
    assert last_gap < first_gap
    _report(9, True, f"ordering holds on {len(rows)} grid points, "
            f"limit {a:.6f}, final gap {last_gap:.4f}")


def test_criterion_10_optimizer_closed_form():
    eps = 1 / 25
    th = optimize_thresholds(make_named_state("w", 4), line_tree(4), eps)
    assert th[2] == 0.0
    assert abs(th[1] - eps / sqrt(2)) <= 1e-9
    assert abs(th[3] - eps / sqrt(2)) <= 1e-9
    _report(10, True, f"eps'={th[1]:.9f} on outer edges, 0 on the flat edge")


def test_criterion_11_approximation_pipeline():
    start = time.monotonic()
    tree = line_tree(4)
    w = make_named_state("w", 4)
    n = 2
    rng = np.random.default_rng(99)
    settings = [
        {1: 0.0, 2: 0.0, 3: 0.0},
        optimize_thresholds(w, tree, 0.1),
        {e.label: 0.1 / sqrt(3) for e in tree.edges},
    ]
    while len(settings) < 20:
        settings.append(
            {e.label: float(rng.uniform(0.0, 0.7)) for e in tree.edges}
        )
    worst_fid = 1.0
    for th in settings:
        ap = approx_state(w, tree, n, th)
        budget = sqrt(sum(v * v for v in th.values()))
        assert abs(ap.bound - budget) <= 1e-12
        assert ap.achieved_distance <= budget + 1e-9
        branches, report = construct_approx(
            w, tree, n, th, enumerate_all=True
        )
        for row in report.rows:
            assert row.reduced_rank <= 2 ** (row.budget_bits * n) * (1 + 1e-12)
        assert report.within_budget
        fid = _min_fidelity(branches)
        worst_fid = min(worst_fid, fid)
        assert fid >= 1 - FID_TOL
        assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(11, True, f"20 threshold settings, min branch fid "
            f"{worst_fid:.12f}, {elapsed:.1f}s")


def test_criterion_12_union_bound_trials():
    rng = np.random.default_rng(1234)
    shapes = [
        ((2, 2, 2, 2), 1),
        ((2, 2, 2), 1),
        ((2, 2), 2),
        ((3, 3), 1),
        ((4, 4), 1),
        ((2, 3), 1),
    ]
    worst_margin = -np.inf
    for trial in range(200):
        dims, n = shapes[trial % len(shapes)]
        if len(dims) > 2:
            tree = random_tree(rng, len(dims), dim_choices=(2,))
        else:
            tree = line_tree(2, dims=dims)
        state = skewed_pure_state(rng, tree.dims)
        th = {
            e.label: float(rng.uniform(0.0, 0.9)) for e in tree.edges
        }
        rep = union_bound_check(state, tree, n, th)
        margin = rep.lhs - rep.rhs
        worst_margin = max(worst_margin, margin)
        assert rep.lhs <= rep.rhs + 1e-9
        assert rep.holds
    _report(12, True, f"200 trials, worst lhs-rhs margin {worst_margin:.3e}")


def test_criterion_13_mps_and_generic_pathways():
    rng = np.random.default_rng(555)
    built = 0
    worst = 1.0
    while built < 20:
        n = int(rng.integers(2, 6))
        dims = tuple(int(rng.choice((2, 3))) for _ in range(n))
        tree = line_tree(n, dims=dims)
        state = random_pure_state(rng, dims)
        dec_generic = decompose(state, tree)
        branch_count = 1
        for r in dec_generic.ranks.values():
            branch_count *= r * r
        if branch_count > BRANCH_CAP:
            continue
        dec_mps = decomposition_from_mps(mps_canonical_form(state, tree))
        for dec in (dec_generic, dec_mps):
            program = build_program(dec)
            branches = simulate(program, mode="enumerate")
            fid = _min_fidelity(branches)
            worst = min(worst, fid)
            assert fid >= 1 - FID_TOL
        built += 1
    _report(13, True, f"20 line states, both pathways enumerated, "
            f"min fid {worst:.12f}")
