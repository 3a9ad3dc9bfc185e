"""Exact and finite-block-size entanglement cost accounting per tree edge.

The exact cost of an edge is the log of its cut rank.  When a small
construction error is allowed, the per-copy cost of many shared copies drops
below the exact rate; the block-size quantity behind both bounds is a
waterline threshold on the spectrum of the cut: raise the line t until the
mass of eigenvalues clipped to the line equals the allowed deficit, then pay
-log2(t) bits.  For many copies the spectrum is expanded exactly over type
classes in log space, in whole-array operations (stars-and-bars rows, one
sort, a vectorized merge of levels within the merge tolerance); when the
class count exceeds TYPE_CLASS_CAP, a Gaussian two-term expansion takes
over and is labeled as such.  Bounds and threshold optimization read every
edge's cut spectrum from one decompose sweep, and each edge's tier is
decided once: its upper bound and every slack of its lower bound read
their waterlines from that one table (or refusal) in one pass.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from math import comb, erfc, inf, isfinite, lgamma, log, log2, sqrt, pi
from statistics import NormalDist
from typing import Callable, Iterable

import numpy as np

from . import config
from .decomposition import decompose
from .errors import (
    EnumerationCapExceeded,
    InvalidEpsilon,
    InvalidEta,
    InvalidGrid,
    ThresholdBudgetExceeded,
)
from .states import PureState, schmidt_wrt_edge
from .tree import Edge, RootedTree

_LN2 = log(2.0)

# the standard normal's quantile (Wichura's AS241); NormalDist.cdf goes
# through erf and reads 0 below x = -8.37, so the distribution function
# keeps erfc for the lower tail
inverse_normal_cdf = NormalDist().inv_cdf


def normal_cdf(x: float) -> float:
    """P(standard normal <= x)."""
    return 0.5 * erfc(-x / sqrt(2.0))


@dataclass(frozen=True)
class Spectrum:
    """Distinct positive eigenvalues (descending) with multiplicities."""

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities differ in length")
        if not self.values:
            raise ValueError("empty spectrum")
        if any(v <= 0 for v in self.values):
            raise ValueError("spectrum values must be positive")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive integers")
        if any(
            self.values[i] <= self.values[i + 1]
            for i in range(len(self.values) - 1)
        ):
            raise ValueError("spectrum values must be strictly descending")
        total = sum(v * m for v, m in zip(self.values, self.multiplicities))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"spectrum mass {total} is not 1")

    @classmethod
    def from_eigenvalues(cls, eigs: Iterable[float]) -> "Spectrum":
        arr = np.sort(np.asarray(list(eigs), dtype=float))[::-1]
        if arr.size == 0 or arr[0] <= 0:
            raise ValueError("no positive eigenvalues")
        arr = arr[arr > config.SPECTRUM_DROP_RTOL * arr[0]]
        values: list[float] = []
        counts: list[int] = []
        for v in arr:
            if values and values[-1] - v <= config.SPECTRUM_MERGE_RTOL * arr[0]:
                total = values[-1] * counts[-1] + v
                counts[-1] += 1
                values[-1] = total / counts[-1]
            else:
                values.append(float(v))
                counts.append(1)
        mass = sum(v * m for v, m in zip(values, counts))
        values = [v / mass for v in values]
        return cls(values=tuple(values), multiplicities=tuple(counts))

    @classmethod
    def from_edge(
        cls, s: PureState, t: RootedTree, e: Edge, rank_tol: float | None = None
    ) -> "Spectrum":
        sd = schmidt_wrt_edge(s, t, e, rank_tol)
        return cls.from_eigenvalues(sd.coefficients**2)

    # computed once per spectrum: the Gaussian tier, second_order and
    # optimize_thresholds read them
    @cached_property
    def entropy(self) -> float:
        return -sum(
            m * v * log2(v) for v, m in zip(self.values, self.multiplicities)
        )

    @cached_property
    def std_log(self) -> float:
        a = self.entropy
        second = sum(
            m * v * log2(v) ** 2
            for v, m in zip(self.values, self.multiplicities)
        )
        return sqrt(max(0.0, second - a * a))


def _compositions(n: int, d: int) -> np.ndarray:
    """All ways to split n copies among d distinct eigenvalues, one row per
    type class in ascending lexicographic order.

    Stars and bars, one part at a time: every row so far with r copies left
    is repeated r + 1 times, once for each value 0..r of its next part.
    """
    count = config.size_past(comb(n + d - 1, d - 1), 1, config.TYPE_CLASS_CAP)
    if count is not None:
        raise EnumerationCapExceeded(
            f"{count} type classes for n={n}, d={d} "
            f"exceed cap {config.TYPE_CLASS_CAP}"
        )
    left = np.array([n], dtype=np.int64)
    parts: list[np.ndarray] = []
    for _ in range(d - 1):
        reps = left + 1
        starts = np.cumsum(reps) - reps
        part = np.arange(int(reps.sum()), dtype=np.int64)
        part -= np.repeat(starts, reps)
        parts = [np.repeat(p, reps) for p in parts] + [part]
        left = np.repeat(left, reps) - part
    return np.stack(parts + [left], axis=1)


def _merge_starts(log_mu: np.ndarray) -> np.ndarray:
    """First index of every merged level of a descending log_mu.

    The rule is sequential: walking down, a level joins the current group
    when the group's first level lies within
    tol(mu) = SPECTRUM_MERGE_RTOL * max(1, |mu|) of it.  A gap to the
    previous level above tol(mu) therefore always starts a group.  When
    every gap does, nothing merges and every index starts a level.
    Otherwise a run between such gaps is one group when its first level
    lies within tol(mu) of every member, and only the rare runs that span
    more than that are split again by the sequential rule itself.
    """
    tol = np.abs(log_mu)
    np.maximum(tol, 1.0, out=tol)
    tol *= config.SPECTRUM_MERGE_RTOL
    gap = np.empty(log_mu.size, dtype=bool)
    gap[0] = True
    np.greater(log_mu[:-1] - log_mu[1:], tol[1:], out=gap[1:])
    starts = np.flatnonzero(gap)
    if starts.size == log_mu.size:
        return starts
    run = np.cumsum(gap) - 1
    far = log_mu[starts][run] - log_mu > tol
    if not far.any():
        return starts
    ends = np.append(starts[1:], log_mu.size)
    splits = []
    for r in np.unique(run[far]):
        leader = log_mu[starts[r]]
        for i in range(starts[r] + 1, ends[r]):
            if leader - log_mu[i] > tol[i]:
                splits.append(i)
                leader = log_mu[i]
    return np.union1d(starts, splits)


class _SpectrumTable:
    """Merged level structure of the n-fold product spectrum, in log space.

    Levels are distinct product eigenvalues descending; for each prefix the
    table holds the linear cumulative mass, the log cumulative count and the
    boundary the search reads, and besides them only the level count, so
    the waterline for any deficit is a single monotone search.

    The table is built from whole arrays: one row per type class, the
    classes sorted by product eigenvalue, and classes closer than the merge
    tolerance folded into one level (see _merge_starts).  A class's log
    count sums the lgamma of its parts one part at a time, left to right,
    and adds the log multiplicities only when one is not 1.  When no two
    classes merge, every class is its own level and the fold is skipped.
    Each reduction (reduceat over a level's classes, the total, the
    cumulative count) runs left to right like a loop over the sorted
    classes, so the arrays are the ones a sequential merge gives, bit for
    bit.
    """

    def __init__(self, spectrum: Spectrum, n: int):
        comps = _compositions(n, len(spectrum.values))
        self.classes = len(comps)
        log_mu = comps @ np.log(np.asarray(spectrum.values))
        if comps.shape[1] > 1:
            # every part count 0..n occurs, so the row is read throughout
            lg = np.array([lgamma(i + 1.0) for i in range(n + 1)])
            log_cnt = lg[comps[:, 0]]
            for j in range(1, comps.shape[1]):
                log_cnt += lg[comps[:, j]]
            np.subtract(lg[n], log_cnt, out=log_cnt)
        else:
            # one class, (n,): its lgamma(n + 1) - lgamma(n + 1) is 0
            log_cnt = np.zeros(1)
        if any(m != 1 for m in spectrum.multiplicities):
            mults = np.asarray(spectrum.multiplicities, dtype=float)
            log_cnt += comps @ np.log(mults)
        # arrays here grow with the class count; freeing the spent ones
        # lowers the peak of the build
        del comps
        order = np.argsort(log_mu)[::-1]
        log_mu = log_mu[order]
        log_cnt = log_cnt[order]
        del order

        starts = _merge_starts(log_mu)
        if starts.size < log_mu.size:
            log_mu = log_mu[starts]
            log_cnt = np.logaddexp.reduceat(log_cnt, starts)
        del starts
        self.levels = log_mu.size
        mass = log_cnt + log_mu
        total = np.logaddexp.reduce(mass)
        mass -= total
        log_mu -= total
        np.exp(mass, out=mass)
        self.cum_mass = np.cumsum(mass, out=mass)
        self.log_cum_cnt = np.logaddexp.accumulate(log_cnt)
        # boundary[k] = cum_mass[k] - cum_cnt[k] mu[k + 1], in the buffer of
        # the next level's log eigenvalue
        bound = np.empty_like(log_mu)
        bound[:-1] = log_mu[1:]
        bound[-1] = -np.inf
        bound += self.log_cum_cnt
        np.exp(bound, out=bound)
        self.boundary = np.subtract(self.cum_mass, bound, out=bound)

    def waterline_bits(self, deficits: list[float]) -> list[float]:
        """-log2 of the threshold t at which the clipped mass equals each
        deficit (infinite where 1 - deficit rounds to 1): one search places
        them all, and each log is math.log, which np.log can miss by a bit."""
        target = 1.0 - np.asarray(deficits, dtype=float)
        k = np.searchsorted(self.boundary, target, side="left")
        k = np.minimum(k, self.levels - 1)
        excess = self.cum_mass[k] - target
        return [
            -(log(x) - c) / _LN2 if x > 0.0 else inf
            for x, c in zip(excess.tolist(), self.log_cum_cnt[k].tolist())
        ]


class _TableCache:
    """The type-class table of (spectrum, n), kept for the next read while
    the kept tables hold at most TYPE_CLASS_CAP classes in total, as much
    as one table may: a new table evicts the least recently read ones
    until it fits."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.tables: OrderedDict = OrderedDict()
        self.classes = 0

    def __call__(self, spectrum: Spectrum, n: int) -> _SpectrumTable:
        key = (spectrum, n)
        table = self.tables.get(key)
        if table is not None:
            self.tables.move_to_end(key)
            return table
        table = _SpectrumTable(spectrum, n)
        while self.classes + table.classes > config.TYPE_CLASS_CAP:
            self.classes -= self.tables.popitem(last=False)[1].classes
        self.tables[key] = table
        self.classes += table.classes
        return table


_table = _TableCache()


def _check_block_size(n) -> int:
    """n as an int, refused unless it is a positive integer."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"block size {n} must be a positive integer")
    return int(n)


def spectrum_entropy(spectrum: Spectrum, n: int, eps: float) -> float:
    """Waterline exponent of the n-fold product spectrum at mass deficit eps,
    in bits (total over the block, not per copy)."""
    n = _check_block_size(n)
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"deficit {eps} outside (0, 1)")
    return _table(spectrum, n).waterline_bits([eps])[0]


@dataclass(frozen=True)
class SecondOrderCoeffs:
    """Two-term expansion of the per-copy cost at error threshold eps:
    cost(n) is about a + b / sqrt(n)."""

    a: float
    s: float
    b: float


def second_order(spectrum: Spectrum, eps: float) -> SecondOrderCoeffs:
    """Entropy rate and Gaussian square-root coefficient of the spectrum at
    trace-distance threshold eps."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"threshold {eps} outside (0, 1)")
    a = spectrum.entropy
    s = spectrum.std_log
    b = 0.0 if s == 0.0 else -s * inverse_normal_cdf(eps * eps / 4.0)
    return SecondOrderCoeffs(a=a, s=s, b=b)


def _waterline(spectrum: Spectrum, n: int) -> tuple[Callable, str]:
    """The waterline bits of the n-fold spectrum at a list of deficits, and
    the method: the cached type-class table where the classes fit, else the
    two-term Gaussian value.  Deciding once spares each deficit a lookup."""
    try:
        return _table(spectrum, n).waterline_bits, "type-class"
    except EnumerationCapExceeded:
        a, s = n * spectrum.entropy, sqrt(n) * spectrum.std_log
        return (lambda ds: [a - s * inverse_normal_cdf(d) for d in ds]), "gaussian"


@dataclass(frozen=True)
class EdgeCostRow:
    edge: int
    rank: int
    exact_bits: float
    threshold: float
    upper: float
    upper_method: str
    lower: float
    lower_eta: float
    lower_method: str


@dataclass(frozen=True)
class CostReport:
    n: int
    eps: float
    rows: tuple[EdgeCostRow, ...]
    exact_total: float
    upper_total: float
    lower_total: float


def exact_edge_cost(dec) -> dict[int, float]:
    """Bits per edge for an exact construction: log of the cut rank."""
    return {lab: float(log2(r)) for lab, r in sorted(dec.ranks.items())}


def _edge_lower(
    bits_at, n: int, eps: float, delta: float, eta: float | None
) -> tuple[float, float]:
    """The best lower bound over a log grid of slacks h (plus eta, if
    given), and its slack: h pays the waterline at eps^2/4 + h, and one
    bits_at call reads every candidate's waterline."""
    deficit0 = eps * eps / 4.0
    slacks = list(np.geomspace(1e-12, 1.0 - deficit0, 202)[1:-1])
    if eta is not None:
        slacks.append(eta)
    best, best_eta = -inf, slacks[0]
    for h, bits in zip(slacks, bits_at([deficit0 + h for h in slacks])):
        cand = (bits - delta + log2(h)) / n
        if bits != inf and cand > best:
            best, best_eta = cand, h
    return max(0.0, best), float(best_eta)


def _edge_shares(t: RootedTree, thresholds: dict) -> dict[int, float]:
    """Every edge's error share, in edge order, 0.0 where thresholds names
    none; a share for an unknown edge, a NaN or infinite share and a
    negative share are refused."""
    labels = {e.label for e in t.edges}
    for lab, v in thresholds.items():
        if lab not in labels:
            raise ThresholdBudgetExceeded(f"threshold for unknown edge {lab}")
        if not isfinite(v):
            raise InvalidEpsilon(f"threshold {v} at edge {lab} not finite")
        if v < 0:
            raise InvalidEpsilon(f"threshold {v} at edge {lab} negative")
    return {e.label: float(thresholds.get(e.label, 0.0)) for e in t.edges}


def _budget_shares(
    t: RootedTree, n: int, eps: float, thresholds=None, delta=1e-9, eta=None
) -> dict[int, float]:
    """Every edge's share of the error budget eps of an n-copy block, eps /
    sqrt(#edges) each unless thresholds gives them.  Refused, in this
    order: a bad block size, eps outside (0, 1), a bad slack delta or eta
    of the lower bound, a bad share (_edge_shares), and shares whose
    root-sum-square exceeds eps."""
    _check_block_size(n)
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"error budget {eps} outside (0, 1)")
    if not 0.0 < delta < inf:
        raise ValueError(f"slack {delta} must be finite and positive")
    if eta is not None and not 0.0 < eta < 1.0 - eps * eps / 4.0:
        raise InvalidEta(f"eta {eta} outside (0, {1.0 - eps * eps / 4.0})")
    if thresholds is None:
        u = eps / sqrt(len(t.edges))
        thresholds = {e.label: u for e in t.edges}
    shares = _edge_shares(t, thresholds)
    budget = sqrt(sum(v * v for v in shares.values()))
    if budget > eps * (1.0 + 1e-12):
        raise ThresholdBudgetExceeded(
            f"thresholds spend {budget:.6g} of an {eps:.6g} budget"
        )
    return shares


def approx_bounds(
    s: PureState,
    t: RootedTree,
    n: int,
    eps: float,
    thresholds: dict[int, float] | None = None,
    delta: float = 1e-9,
    eta: float | None = None,
    rank_tol: float | None = None,
) -> CostReport:
    """Per-edge upper and lower bounds on the per-copy cost of building n
    copies within trace distance eps.

    Upper bounds spend each edge's share of the error budget on its own cut;
    lower bounds hold against any protocol with overall error eps and are
    maximized over the slack parameter on a log grid (plus the explicitly
    requested value, if any).
    """
    thresholds = _budget_shares(t, n, eps, thresholds, delta, eta)
    dec = decompose(s, t, rank_tol)
    rows = []
    for e in t.edges:
        rank = dec.ranks[e.label]
        spectrum = Spectrum.from_eigenvalues(dec.schmidt_coeffs[e.label] ** 2)
        epse = thresholds[e.label]
        bits_at, method = _waterline(spectrum, int(n))
        # a share whose deficit underflows to 0, or is too small for the
        # waterline to resolve (1 - deficit rounds to 1), allows no
        # smoothing: the exact rank's bits suffice
        deficit = epse * epse / 4.0
        bits = bits_at([deficit])[0] if deficit > 0.0 else inf
        if bits == inf:
            upper, upper_method = float(log2(rank)), "exact-rank"
        else:
            upper, upper_method = bits / n, method
        lower, best_eta = _edge_lower(bits_at, n, eps, delta, eta)
        rows.append(
            EdgeCostRow(
                edge=e.label,
                rank=rank,
                exact_bits=float(log2(rank)),
                threshold=epse,
                upper=float(upper),
                upper_method=upper_method,
                lower=float(lower),
                lower_eta=best_eta,
                lower_method=method,
            )
        )
    return CostReport(
        n=int(n),
        eps=float(eps),
        rows=tuple(rows),
        exact_total=float(sum(r.exact_bits for r in rows)),
        upper_total=float(sum(r.upper for r in rows)),
        lower_total=float(sum(r.lower for r in rows)),
    )


def optimize_thresholds(
    s: PureState, t: RootedTree, eps: float, rank_tol: float | None = None
) -> dict[int, float]:
    """Split the error budget across edges to minimize the summed square-root
    cost coefficients.

    Edges with a flat cut spectrum gain nothing from smoothing and get a zero
    share; the rest equalize the marginal benefit, which has a closed-form
    inverse, and the budget is spent exactly.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"error budget {eps} outside (0, 1)")
    dec = decompose(s, t, rank_tol)
    stds: dict[int, float] = {}
    for e in t.edges:
        spectrum = Spectrum.from_eigenvalues(dec.schmidt_coeffs[e.label] ** 2)
        stds[e.label] = spectrum.std_log
    out = {lab: 0.0 for lab in stds}
    active = {lab: sv for lab, sv in stds.items() if sv > 0.0}
    if not active:
        return out
    if len(active) == 1:
        lab = next(iter(active))
        out[lab] = eps
        return out

    def shares(mu: float) -> dict[int, float]:
        u = {}
        for lab, sv in active.items():
            base = sv * sqrt(2.0 * pi)
            if mu <= base:
                u[lab] = 2.0
            else:
                z = -sqrt(2.0 * log(mu / base))
                u[lab] = 4.0 * normal_cdf(z)
        return u

    budget = eps * eps
    lo = max(sv for sv in active.values()) * sqrt(2.0 * pi) * (1.0 + 1e-12)
    hi = lo
    while sum(shares(hi).values()) >= budget:
        hi *= 2.0
        if hi > 1e300:
            break
    for _ in range(200):
        mid = sqrt(lo * hi)
        if sum(shares(mid).values()) >= budget:
            lo = mid
        else:
            hi = mid
    u = shares(hi)
    total = sum(u.values())
    scale = budget / total
    for lab in u:
        out[lab] = sqrt(u[lab] * scale)
    return out


def figure_data(kind: str) -> tuple[list[str], list[tuple]]:
    """Rows behind the built-in summary charts."""
    spectrum = Spectrum(values=(0.75, 0.25), multiplicities=(1, 1))
    eps = 1.0 / 25.0
    if kind == "w-second-order":
        rows = []
        for n_parties in range(4, 81, 4):
            epse = eps / sqrt(n_parties - 1)
            so = second_order(spectrum, epse)
            rows.append((n_parties, so.a, so.b))
        return ["N", "a", "b"], rows
    if kind == "rate-comparison":
        a = spectrum.entropy
        b_uniform = second_order(spectrum, eps / sqrt(3.0)).b
        b_optimized = second_order(spectrum, eps / sqrt(2.0)).b
        b_lower = second_order(spectrum, eps).b
        ns = sorted({int(round(x)) for x in np.geomspace(10, 1e5, 50)})
        rows = [
            (
                n,
                a + b_uniform / sqrt(n),
                a + b_optimized / sqrt(n),
                a + b_lower / sqrt(n),
            )
            for n in ns
        ]
        return ["n", "rate_uniform", "rate_optimized", "rate_lower"], rows
    raise InvalidGrid(f"unknown figure kind {kind!r}")
