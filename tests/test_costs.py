"""Block-length cost accounting: waterline exponents, second-order
coefficients, per-edge bounds, budget optimization, and chart data."""

import time
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treecost.costs as costs_mod
from treecost import (
    EnumerationCapExceeded,
    InvalidEpsilon,
    InvalidEta,
    InvalidGrid,
    Spectrum,
    ThresholdBudgetExceeded,
    approx_bounds,
    approx_state,
    config,
    decompose,
    exact_edge_cost,
    figure_data,
    inverse_normal_cdf,
    make_named_state,
    normal_cdf,
    optimize_thresholds,
    schmidt_wrt_edge,
    second_order,
    spectrum_entropy,
    union_bound_check,
)

from helpers import (
    brute_waterline_bits,
    entropy_longdouble,
    line_tree,
    loop_compositions,
    loop_spectrum_table,
    normal_pdf,
    random_pure_state,
    scalar_edge_bounds,
    series_inverse_cdf,
    series_normal_cdf,
    std_log_longdouble,
    traced_peak,
)

QUARTER_SPEC = Spectrum(values=(0.75, 0.25), multiplicities=(1, 1))
# frozen references, recomputed below through a wider float path
QUARTER_ENTROPY = 0.8112781244591328
QUARTER_STD = 0.6863088948351165


# ----------------------------------------------------------------- spectra


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(values=(0.5, 0.5), multiplicities=(1,))
    with pytest.raises(ValueError):
        Spectrum(values=(), multiplicities=())
    with pytest.raises(ValueError):
        Spectrum(values=(0.5, -0.5), multiplicities=(1, 1))
    with pytest.raises(ValueError):
        Spectrum(values=(0.25, 0.75), multiplicities=(1, 1))  # ascending
    with pytest.raises(ValueError):
        Spectrum(values=(0.6, 0.6), multiplicities=(1, 1))  # not descending
    with pytest.raises(ValueError):
        Spectrum(values=(0.9, 0.2), multiplicities=(1, 1))  # mass 1.1
    with pytest.raises(ValueError):
        Spectrum(values=(0.5,), multiplicities=(0,))


def test_from_eigenvalues_merges_and_drops():
    spectrum = Spectrum.from_eigenvalues([0.5, 0.5 - 1e-15, 2e-17])
    assert spectrum.values == (0.5,)
    assert spectrum.multiplicities == (2,)
    spec2 = Spectrum.from_eigenvalues([0.7, 0.3])
    assert spec2.values == (0.7, 0.3)
    assert sum(spec2.multiplicities) == 2
    with pytest.raises(ValueError):
        Spectrum.from_eigenvalues([])
    with pytest.raises(ValueError):
        Spectrum.from_eigenvalues([0.0, -1.0])


def test_from_edge_squares_schmidt_coefficients():
    t = line_tree(4)
    s = make_named_state("w", 4)
    e = t.edge_by_label(2)
    spectrum = Spectrum.from_edge(s, t, e)
    sd = schmidt_wrt_edge(s, t, e)
    assert np.allclose(
        sorted(np.repeat(spectrum.values, spectrum.multiplicities), reverse=True),
        sorted(sd.coefficients**2, reverse=True),
    )


def test_entropy_and_std_match_longdouble_recomputation():
    rng = np.random.default_rng(301)
    for _ in range(10):
        raw = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        spectrum = Spectrum.from_eigenvalues(raw)
        flat = np.repeat(spectrum.values, spectrum.multiplicities)
        assert abs(spectrum.entropy - entropy_longdouble(flat)) < 1e-12
        assert abs(spectrum.std_log - std_log_longdouble(flat)) < 1e-10
    assert abs(QUARTER_SPEC.entropy - QUARTER_ENTROPY) < 1e-15
    assert abs(QUARTER_SPEC.std_log - QUARTER_STD) < 1e-15


def test_flat_spectrum_has_zero_spread():
    flat = Spectrum(values=(0.25,), multiplicities=(4,))
    assert abs(flat.entropy - 2.0) < 1e-15
    assert flat.std_log == 0.0


# --------------------------------------------------------------- waterline


def test_waterline_closed_form_for_pure_spectrum():
    pure = Spectrum(values=(1.0,), multiplicities=(1,))
    for eps in (0.01, 0.1, 0.5):
        for n in (1, 3, 7):
            want = np.log2(1.0 / eps)
            assert abs(spectrum_entropy(pure, n, eps) - want) < 1e-12


def test_waterline_closed_form_for_flat_spectra():
    # d levels of weight 1/d: the line sits at eps/d^n
    for d, n, eps in [(4, 1, 0.5), (2, 3, 0.3), (3, 2, 0.125)]:
        flat = Spectrum(values=(1.0 / d,), multiplicities=(d,))
        want = n * np.log2(d) + np.log2(1.0 / eps)
        assert abs(spectrum_entropy(flat, n, eps) - want) < 1e-12
    assert abs(spectrum_entropy(
        Spectrum(values=(0.25,), multiplicities=(4,)), 1, 0.5
    ) - 3.0) < 1e-12


def test_waterline_matches_brute_force_products():
    rng = np.random.default_rng(307)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        raw = rng.dirichlet(np.ones(d))
        spectrum = Spectrum.from_eigenvalues(raw)
        flat = np.repeat(spectrum.values, spectrum.multiplicities)
        n = int(rng.integers(1, 9))
        eps = float(rng.uniform(0.01, 0.95))
        got = spectrum_entropy(spectrum, n, eps)
        want = brute_waterline_bits(flat, n, eps)
        assert abs(got - want) < 1e-9


def test_waterline_monotonicity_in_eps():
    vals = [spectrum_entropy(QUARTER_SPEC, 4, e) for e in (0.02, 0.1, 0.4, 0.8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_per_copy_exponent_decreases_toward_the_entropy():
    # finite-block overhead shrinks with n, approaching the entropy per copy
    eps = 0.05
    per_copy = [
        spectrum_entropy(QUARTER_SPEC, n, eps) / n for n in (25, 50, 100, 200, 400)
    ]
    assert all(a > b for a, b in zip(per_copy, per_copy[1:]))
    assert per_copy[0] > QUARTER_ENTROPY
    assert per_copy[-1] - QUARTER_ENTROPY < 0.09
    gaps = [p - QUARTER_ENTROPY for p in per_copy]
    assert gaps[-1] < 0.5 * gaps[0]


def test_waterline_rejects_bad_arguments():
    with pytest.raises(InvalidEpsilon):
        spectrum_entropy(QUARTER_SPEC, 2, 0.0)
    with pytest.raises(InvalidEpsilon):
        spectrum_entropy(QUARTER_SPEC, 2, 1.0)
    with pytest.raises(ValueError):
        spectrum_entropy(QUARTER_SPEC, 0, 0.5)


def test_type_class_enumeration_cap():
    # three distinct levels; equal levels would merge and dodge the cap
    wide = Spectrum(values=(0.5, 0.3, 0.2), multiplicities=(1, 1, 1))
    with pytest.raises(EnumerationCapExceeded):
        spectrum_entropy(wide, 50_000, 0.5)


def test_type_class_count_far_past_the_cap_is_refused_without_its_digits():
    # 1024 levels at n = 10^7 have about 2^15029 classes; printing the
    # count used to raise ValueError, which escaped the Gaussian fallback
    levels = Spectrum.from_eigenvalues(np.linspace(1.0, 2.0, 1024))
    with pytest.raises(EnumerationCapExceeded) as exc:
        spectrum_entropy(levels, 10**7, 0.01)
    assert str(exc.value).startswith("at least 2^")
    assert len(str(exc.value)) < 200


def test_w4_bounds_at_n_1e8_finish_within_a_second():
    # edge 2's cut spectrum is one level (1/2 twice), whose one class
    # needs no lgamma row; edges 1 and 3 are past the class cap
    start = time.perf_counter()
    report = approx_bounds(make_named_state("w", 4), line_tree(4), 10**8, 0.1)
    assert time.perf_counter() - start < 1.0
    methods = [r.upper_method for r in report.rows]
    assert methods == ["gaussian", "type-class", "gaussian"]


TABLE_ARRAYS = ("cum_mass", "log_cum_cnt", "boundary")


def _assert_table_matches_the_loop_oracle(spectrum, n):
    # the table keeps the level count and the three arrays a lookup reads;
    # the oracle's log_mu and log_cnt are what they are built from
    table = costs_mod._SpectrumTable(spectrum, n)
    log_mu, _, *arrays = loop_spectrum_table(spectrum, n)
    assert table.levels == log_mu.size
    for name, want in zip(TABLE_ARRAYS, arrays):
        assert np.array_equal(getattr(table, name), want), name


@st.composite
def _spectra(draw, count=st.integers(1, 5)):
    """Spectra with multiplicities whose levels are small integers, each
    nudged by a tiny relative offset.  Products of the integers coincide
    often, and a level drawn twice with two offsets gives near-equal
    levels whose products form chains of close neighbours, so classes fall
    near, below and above the merge tolerance."""
    d = draw(count)
    levels = draw(st.lists(
        st.tuples(st.integers(1, 6),
                  st.sampled_from([0.0, 1e-13, 1e-12, 3e-12, 1e-11, 1e-9])),
        min_size=d, max_size=d, unique=True,
    ))
    mults = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    raw = sorted(
        ((b * (1.0 + x), m) for (b, x), m in zip(levels, mults)),
        reverse=True,
    )
    mass = sum(v * m for v, m in raw)
    return Spectrum(values=tuple(v / mass for v, _ in raw),
                    multiplicities=tuple(m for _, m in raw))


# the oracle walks every class in Python, so five-level tables stop at
# n=32 (58,905 classes) to keep the test's run time down
@settings(max_examples=80)
@given(_spectra(), st.integers(1, 60))
@example(Spectrum(values=(0.25,), multiplicities=(4,)), 9)
def test_table_matches_the_sequential_merge_oracle(spectrum, n):
    if len(spectrum.values) == 5:
        n = min(n, 32)
    _assert_table_matches_the_loop_oracle(spectrum, n)


# from 8 parts on, numpy's sum(axis=1) no longer adds left to right; the
# table and the oracle add the lgamma terms one part at a time.  n stops
# at 9 (48,620 classes at ten levels) to keep the oracle's run time down
@settings(max_examples=30)
@given(_spectra(count=st.integers(6, 10)), st.integers(1, 9))
@example(Spectrum.from_eigenvalues(np.linspace(1.0, 2.0, 8)), 9)
@example(Spectrum.from_eigenvalues(np.geomspace(1.0, 5.0, 10)), 9)
def test_tables_of_six_to_ten_levels_match_the_oracle(spectrum, n):
    _assert_table_matches_the_loop_oracle(spectrum, n)


def _gap_runs(spectrum, n):
    """Runs of the sorted product levels split only where neighbours are
    more than the merge tolerance apart."""
    comps = loop_compositions(n, len(spectrum.values))
    log_mu = np.sort(comps @ np.log(spectrum.values))[::-1]
    tol = config.SPECTRUM_MERGE_RTOL * np.maximum(1.0, np.abs(log_mu))
    return 1 + int(np.count_nonzero(log_mu[:-1] - log_mu[1:] > tol[1:]))


@pytest.mark.parametrize("delta", [1e-12, 2e-12, 5e-12])
@pytest.mark.parametrize("n", [10, 30, 60])
def test_table_splits_chains_of_close_levels_like_the_loop(delta, n):
    # neighbours within the tolerance chain into runs wider than it, which
    # the sequential rule splits into more levels than the gaps alone give
    chain = Spectrum(values=(0.4 + delta, 0.4 - delta, 0.2),
                     multiplicities=(1, 1, 1))
    _assert_table_matches_the_loop_oracle(chain, n)
    if n >= 30:
        levels = costs_mod._SpectrumTable(chain, n).levels
        assert levels > _gap_runs(chain, n)


def test_compositions_follow_the_itertools_order():
    for d in range(1, 6):
        for n in (0, 1, 2, 5, 13):
            got = costs_mod._compositions(n, d)
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_compositions(n, d)), (n, d)


def test_compositions_refuse_over_the_cap_as_before(monkeypatch):
    monkeypatch.setattr(config, "TYPE_CLASS_CAP", 1000)
    assert costs_mod._compositions(43, 3).shape == (990, 3)
    messages = []
    for build in (costs_mod._compositions, loop_compositions):
        with pytest.raises(EnumerationCapExceeded) as info:
            build(44, 3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == "1035 type classes for n=44, d=3 exceed cap 1000"


def test_table_memory_per_type_class():
    # a generic four-level spectrum: no two classes merge, so the table is
    # as large as the class count
    spectrum = Spectrum.from_eigenvalues([0.5, 0.27, 0.13, 0.1])
    costs_mod._SpectrumTable(spectrum, 3)
    table, peak = traced_peak(lambda: costs_mod._SpectrumTable(spectrum, 100))
    classes = comb(103, 3)
    assert table.levels == classes
    assert peak / classes < 80
    # a cached table keeps three float arrays per level and nothing else
    kept = [a for a in vars(table).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in kept) == 24 * classes


# 10, 45 and 84 classes, and 231: past a class cap of 100, so refused
_CACHED_TABLES = (
    (Spectrum.from_eigenvalues([0.75, 0.25]), 9),
    (Spectrum.from_eigenvalues([0.5, 0.3, 0.2]), 8),
    (Spectrum.from_eigenvalues([0.4, 0.3, 0.2, 0.1]), 6),
    (Spectrum.from_eigenvalues([0.5, 0.3, 0.2]), 20),
)


@settings(max_examples=60)
@given(st.lists(st.integers(0, len(_CACHED_TABLES) - 1), max_size=24))
def test_table_cache_never_holds_more_classes_than_the_cap(reads):
    # a least-recently-read list of the same reads says which tables stay
    cap = 100
    cache = costs_mod._TableCache()
    model = []
    with mock.patch.object(config, "TYPE_CLASS_CAP", cap):
        for i in reads:
            key = spectrum, n = _CACHED_TABLES[i]
            size = comb(n + len(spectrum.values) - 1, n)
            if size > cap:
                with pytest.raises(EnumerationCapExceeded):
                    cache(spectrum, n)
            else:
                held = cache.tables.get(key)
                table = cache(spectrum, n)
                assert table.classes == size
                assert held is None or table is held
                if key in model:
                    model.remove(key)
                while sum(comb(m + len(sp.values) - 1, m)
                          for sp, m in model) + size > cap:
                    model.pop(0)
                model.append(key)
            assert list(cache.tables) == model
            total = sum(t.classes for t in cache.tables.values())
            assert cache.classes == total <= cap


def test_block_truncation_reads_back_the_tables_it_built(monkeypatch):
    # union_bound_check re-reads the tables approx_state built; W4's edges
    # 1 and 3 have spectra that differ in the last bit, so three are built
    fresh = costs_mod._TableCache()
    monkeypatch.setattr(costs_mod, "_table", fresh)
    compositions = costs_mod._compositions
    calls = []

    def counted(n, d):
        calls.append((n, d))
        return compositions(n, d)

    monkeypatch.setattr(costs_mod, "_compositions", counted)
    s, t = make_named_state("w", 4), line_tree(4)
    shares = {e.label: 0.1 / np.sqrt(3.0) for e in t.edges}
    approx_state(s, t, 4, shares)
    assert len(calls) == len(fresh.tables) == 3
    union_bound_check(s, t, 4, shares)
    assert len(calls) == 3


# ------------------------------------------------------------ second order


def test_second_order_coefficients_frozen_values():
    so = second_order(QUARTER_SPEC, 0.04)
    assert abs(so.a - QUARTER_ENTROPY) < 1e-12
    assert abs(so.s - QUARTER_STD) < 1e-12
    assert abs(so.b - 2.3010528804172163) < 1e-9


def test_second_order_b_via_independent_inverse():
    for eps in (0.01, 0.04, 0.2, 0.6):
        so = second_order(QUARTER_SPEC, eps)
        want = -QUARTER_STD * series_inverse_cdf(eps * eps / 4.0)
        assert abs(so.b - want) < 1e-8
        assert so.b > 0.0


def test_second_order_b_decreases_with_looser_budgets():
    bs = [second_order(QUARTER_SPEC, e).b for e in (0.01, 0.05, 0.2, 0.5)]
    assert all(a > b for a, b in zip(bs, bs[1:]))


def test_second_order_on_flat_spectrum_is_flat():
    so = second_order(Spectrum(values=(0.25,), multiplicities=(4,)), 0.1)
    assert so.a == 2.0
    assert so.s == 0.0
    assert so.b == 0.0


def test_second_order_rejects_bad_eps():
    with pytest.raises(InvalidEpsilon):
        second_order(QUARTER_SPEC, 0.0)
    with pytest.raises(InvalidEpsilon):
        second_order(QUARTER_SPEC, 1.5)


# ---------------------------------------------------------------- quantile


def test_normal_cdf_matches_series_oracle():
    for x in np.linspace(-8, 8, 101):
        assert abs(normal_cdf(x) - series_normal_cdf(x)) < 1e-14


def test_quantile_round_trips():
    for p in [1e-12, 1e-6, 0.02425, 0.3, 0.5, 0.8, 0.97575, 1 - 1e-9]:
        x = inverse_normal_cdf(p)
        assert abs(normal_cdf(x) - p) < 1e-12 * p + 1e-15
    # the upper tail loses resolution because p saturates toward 1, so the
    # x round trip is only checked where the float grid can support it
    for x in np.linspace(-4.5, 4.5, 29):
        assert abs(inverse_normal_cdf(normal_cdf(x)) - x) < 1e-9
    for x in (-9.0, -7.0, -5.5):
        assert abs(inverse_normal_cdf(normal_cdf(x)) - x) < 1e-9
    # the lower tail keeps its relative resolution down to the last normal
    # doubles (normal_cdf(-37.5) is about 4.6e-308)
    for x in np.linspace(-37.5, -4.5, 331):
        assert abs(inverse_normal_cdf(normal_cdf(x)) - x) <= 1e-14 * abs(x)


def test_quantile_symmetry_and_center():
    assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)
    for p in (0.001, 0.1, 0.25):
        assert abs(
            inverse_normal_cdf(p) + inverse_normal_cdf(1.0 - p)
        ) < 1e-10


def test_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)
    assert normal_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))


# ------------------------------------------------------------------ bounds


def test_exact_edge_cost_is_log_rank():
    t = line_tree(4)
    dec = decompose(make_named_state("w", 4), t)
    assert exact_edge_cost(dec) == {1: 1.0, 2: 1.0, 3: 1.0}
    dec5 = decompose(make_named_state("random", 5, seed=1), line_tree(5))
    want = {lab: float(np.log2(r)) for lab, r in dec5.ranks.items()}
    assert exact_edge_cost(dec5) == want


def test_approx_bounds_bracket_the_exact_cost():
    t = line_tree(4)
    s = make_named_state("w", 4)
    rep = approx_bounds(s, t, n=100, eps=0.04)
    assert rep.n == 100
    assert len(rep.rows) == 3
    for row in rep.rows:
        assert row.lower <= row.exact_bits + 1e-9
        assert row.exact_bits <= row.upper + 1e-9
        assert row.lower >= 0.0
    assert rep.lower_total <= rep.exact_total <= rep.upper_total
    assert rep.exact_total == 3.0


def test_approx_bounds_upper_tightens_with_block_length():
    t = line_tree(4)
    s = make_named_state("w", 4)
    uppers = [
        approx_bounds(s, t, n=n, eps=0.1).upper_total for n in (10, 40, 160)
    ]
    assert all(a > b for a, b in zip(uppers, uppers[1:]))


def test_approx_bounds_threshold_semantics():
    t = line_tree(4)
    s = make_named_state("w", 4)
    rep = approx_bounds(s, t, n=20, eps=0.1, thresholds={1: 0.1, 3: 0.0})
    by_edge = {row.edge: row for row in rep.rows}
    # an absent edge defaults to a zero share; zero shares report the
    # support rank instead of a smoothed exponent
    assert by_edge[2].threshold == 0.0
    assert by_edge[2].upper_method == "exact-rank"
    assert by_edge[2].upper == 1.0
    assert by_edge[3].upper_method == "exact-rank"
    assert by_edge[1].upper_method in ("type-class", "gaussian")
    assert by_edge[1].upper < 1.0 + np.log2(1 / (0.1 * 0.1 / 4)) / 20


def test_spectrum_moments_are_computed_once_per_spectrum(monkeypatch):
    # a random 14-qubit line at n=10 puts several edges on the Gaussian
    # path, which reads both moments at every eta grid point
    from functools import cached_property

    rng = np.random.default_rng(1414)
    t = line_tree(14)
    s = random_pure_state(rng, t.dims)
    entropy, std_log = Spectrum.entropy.func, Spectrum.std_log.func

    monkeypatch.setattr(Spectrum, "entropy", property(entropy))
    monkeypatch.setattr(Spectrum, "std_log", property(std_log))
    recomputed = approx_bounds(s, t, n=10, eps=0.1).rows

    calls: dict[tuple[str, int], list] = {}

    def counted(name, body):
        def wrapper(self):
            calls.setdefault((name, id(self)), [self]).append(name)
            return body(self)

        prop = cached_property(wrapper)
        prop.__set_name__(Spectrum, name)
        monkeypatch.setattr(Spectrum, name, prop)

    counted("entropy", entropy)
    counted("std_log", std_log)
    cached = approx_bounds(s, t, n=10, eps=0.1).rows
    assert cached == recomputed
    assert {"entropy", "std_log"} <= {name for name, _ in calls}
    # each entry holds the spectrum, then one mark per evaluation
    assert all(len(marks) == 2 for marks in calls.values())


def test_approx_bounds_rejects_budget_overruns():
    t = line_tree(4)
    s = make_named_state("w", 4)
    with pytest.raises(ThresholdBudgetExceeded):
        approx_bounds(s, t, n=10, eps=0.1, thresholds={1: 0.2, 2: 0.0, 3: 0.0})
    with pytest.raises(ThresholdBudgetExceeded):
        approx_bounds(s, t, n=10, eps=0.1, thresholds={1: 0.05, 9: 0.01})
    with pytest.raises(InvalidEpsilon):
        approx_bounds(s, t, n=10, eps=0.0)
    with pytest.raises(ValueError):
        approx_bounds(s, t, n=0, eps=0.1)


def test_approx_bounds_eta_handling():
    t = line_tree(2)
    s = make_named_state("bell", 2)
    rep = approx_bounds(s, t, n=50, eps=0.1, eta=0.001)
    assert rep.rows[0].lower >= 0.0
    with pytest.raises(InvalidEta):
        approx_bounds(s, t, n=50, eps=0.1, eta=2.0)
    with pytest.raises(InvalidEta):
        approx_bounds(s, t, n=50, eps=0.1, eta=-0.5)


def test_approx_bounds_gaussian_fallback_for_huge_blocks():
    t = line_tree(2, dims=(3, 3))
    s = make_named_state("random", 2, dims=(3, 3), seed=7)
    rep = approx_bounds(s, t, n=200_000, eps=0.1)
    assert rep.rows[0].upper_method == "gaussian"
    spectrum = Spectrum.from_edge(s, t, t.edge_by_label(1))
    so_a = spectrum.entropy
    assert abs(rep.rows[0].upper - so_a) < 0.05  # near the entropy per copy


def _assert_rows_equal_the_scalar_oracle(s, t, rep, eta=None):
    dec = decompose(s, t)
    for row in rep.rows:
        spectrum = Spectrum.from_eigenvalues(dec.schmidt_coeffs[row.edge] ** 2)
        want = scalar_edge_bounds(
            spectrum, row.rank, rep.n, rep.eps, row.threshold, eta=eta
        )
        got = (row.upper, row.upper_method, row.lower, row.lower_eta,
               row.lower_method)
        assert got == want, row.edge


@pytest.mark.parametrize("n", [5, 10])
def test_approx_bounds_rows_equal_the_scalar_oracle_on_both_tiers(n):
    # a random 14-qubit line puts some edges on the type-class table and
    # some past its cap; every value equals one evaluation per deficit
    rng = np.random.default_rng(1414)
    t = line_tree(14)
    s = random_pure_state(rng, t.dims)
    rep = approx_bounds(s, t, n=n, eps=0.1)
    assert {r.upper_method for r in rep.rows} == {"type-class", "gaussian"}
    assert {r.lower_method for r in rep.rows} == {"type-class", "gaussian"}
    _assert_rows_equal_the_scalar_oracle(s, t, rep)


def test_approx_bounds_rows_equal_the_scalar_oracle_with_eta_and_a_zero_share():
    t = line_tree(4)
    s = make_named_state("w", 4)
    rep = approx_bounds(
        s, t, n=20, eps=0.1, thresholds={1: 0.08, 2: 0.0}, eta=1e-3
    )
    assert [r.upper_method for r in rep.rows] == [
        "type-class", "exact-rank", "exact-rank"
    ]
    _assert_rows_equal_the_scalar_oracle(s, t, rep, eta=1e-3)


def test_each_edge_decides_its_tier_with_one_table_attempt(monkeypatch):
    # the upper bound and every slack of the lower bound read one decision:
    # the 3x3 pair's one edge, past the class cap, makes one attempt where
    # a table request per deficit makes 202
    compositions = costs_mod._compositions
    calls = []

    def counted(n, d):
        calls.append((n, d))
        return compositions(n, d)

    monkeypatch.setattr(costs_mod, "_compositions", counted)
    t = line_tree(2, dims=(3, 3))
    s = make_named_state("random", 2, dims=(3, 3), seed=7)
    rep = approx_bounds(s, t, n=200_000, eps=0.1, eta=1e-3)
    assert rep.rows[0].lower_method == "gaussian"
    assert len(calls) == 1
    # with no table cached, each edge of the 14-qubit line tries at most once
    costs_mod._table.clear()
    calls.clear()
    t = line_tree(14)
    s = random_pure_state(np.random.default_rng(1414), t.dims)
    rep = approx_bounds(s, t, n=10, eps=0.1)
    assert "gaussian" in {r.upper_method for r in rep.rows}
    assert 0 < len(calls) <= len(t.edges)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1e-9])
def test_approx_bounds_refuses_a_slack_that_is_not_finite_and_positive(delta):
    # NaN passed a "not positive" test and turned every lower bound to 0.0
    t = line_tree(4)
    s = make_named_state("w", 4)
    with pytest.raises(ValueError, match="finite and positive"):
        approx_bounds(s, t, n=10, eps=0.1, delta=delta)


def test_lower_bound_approaches_entropy_for_long_blocks():
    t = line_tree(2, dims=(4, 4))
    s = make_named_state("random", 2, dims=(4, 4), seed=3)
    spectrum = Spectrum.from_edge(s, t, t.edge_by_label(1))
    rep = approx_bounds(s, t, n=5000, eps=0.05)
    assert rep.rows[0].lower > spectrum.entropy - 0.2
    assert rep.rows[0].lower <= np.log2(sum(spectrum.multiplicities)) + 1e-12


# --------------------------------------------------------------- optimizer


def test_optimizer_closed_form_on_the_three_cut_chain():
    t = line_tree(4)
    s = make_named_state("w", 4)
    eps = 0.04
    th = optimize_thresholds(s, t, eps)
    assert th[2] == 0.0
    assert abs(th[1] - eps / np.sqrt(2)) < 1e-9
    assert abs(th[3] - eps / np.sqrt(2)) < 1e-9


def test_optimizer_spends_the_budget_exactly():
    rng = np.random.default_rng(311)
    t = line_tree(4, dims=(2, 3, 3, 2))
    s = random_pure_state(rng, t.dims)
    eps = 0.08
    th = optimize_thresholds(s, t, eps)
    assert abs(sum(v * v for v in th.values()) - eps * eps) < 1e-12


def test_optimizer_gives_flat_cuts_nothing():
    t = line_tree(4)
    th = optimize_thresholds(make_named_state("ghz", 4), t, 0.1)
    assert th == {1: 0.0, 2: 0.0, 3: 0.0}


def test_optimizer_gives_a_lone_skewed_cut_everything():
    # product of a bell pair (flat cut) with a skewed two-party state
    t = line_tree(4)
    amps = np.kron(
        np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2),
        np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]),
    )
    from treecost import PureState

    s = PureState(amps, (2, 2, 2, 2))
    th = optimize_thresholds(s, t, 0.06)
    assert th[1] == 0.0  # cut {1} is flat
    assert th[2] == 0.0  # cut {1,2} splits the product exactly
    assert abs(th[3] - 0.06) < 1e-12


def test_optimizer_equalizes_the_marginal_benefit():
    # stationarity: s_e * d/du inverse_cdf(u_e/4) agree across active edges
    rng = np.random.default_rng(313)
    t = line_tree(4, dims=(2, 3, 3, 2))
    s = random_pure_state(rng, t.dims)
    th = optimize_thresholds(s, t, 0.1)
    marginals = []
    for e in t.edges:
        spec_std = Spectrum.from_edge(s, t, e).std_log
        share = th[e.label]
        if share == 0.0 or spec_std == 0.0:
            continue
        u = share * share
        q = inverse_normal_cdf(u / 4.0)
        marginals.append(spec_std / normal_pdf(q))
    assert len(marginals) >= 2
    ref = marginals[0]
    for m in marginals[1:]:
        assert abs(m - ref) / ref < 1e-6


def test_optimizer_rejects_bad_budget():
    t = line_tree(3)
    s = make_named_state("ghz", 3)
    with pytest.raises(InvalidEpsilon):
        optimize_thresholds(s, t, 0.0)
    with pytest.raises(InvalidEpsilon):
        optimize_thresholds(s, t, 1.0)


# ------------------------------------------------------------- chart data


def test_quarter_cut_chart_tracks_the_fixed_spectrum():
    cols, rows = figure_data("w-second-order")
    assert cols == ["N", "a", "b"]
    ns = [r[0] for r in rows]
    assert ns == list(range(4, 81, 4))
    for _, a, b in rows:
        assert abs(a - QUARTER_ENTROPY) < 1e-12
        assert b > 0.0
    bs = [r[2] for r in rows]
    assert all(x < y for x, y in zip(bs, bs[1:]))


def test_rate_comparison_chart_orders_the_three_curves():
    cols, rows = figure_data("rate-comparison")
    assert cols == ["n", "rate_uniform", "rate_optimized", "rate_lower"]
    assert rows[0][0] == 10 and rows[-1][0] == 100_000
    for n, uni, opt, low in rows:
        assert low <= opt < uni
    # all three curves settle on the entropy
    last = rows[-1]
    assert max(abs(v - QUARTER_ENTROPY) for v in last[1:]) < 0.01


def test_figure_data_rejects_unknown_kind():
    with pytest.raises(InvalidGrid):
        figure_data("mystery")
