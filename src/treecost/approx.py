"""Approximate block construction: project each cut of an n-copy state onto
its high-weight spectral levels, then build the projected state exactly.

Each edge gets an error share; its projection keeps the product eigenvalues
of the n-fold cut spectrum above the waterline for deficit share^2 / 4.
Applying the projections (in edge label order; they need not commute) yields
a nearby state whose cut ranks, and hence construction costs, are capped by
the waterline exponents.  The final distance to the true n-copy state is
checked against the root-sum-square of the shares.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import reduce
from math import inf, log, log2, sqrt

import numpy as np

from . import config
from .costs import Spectrum, spectrum_entropy
from .decomposition import decompose
from .errors import (
    DegenerateDenominator,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidEpsilon,
    ZeroNorm,
)
from .protocol import MeasurementProgram, _Engine, build_program, simulate
from .states import PureState, schmidt_wrt_edge
from .tree import Edge, RootedTree

_LN2 = log(2.0)


@dataclass(frozen=True)
class EdgeProjection:
    """Spectral projection of one cut of the n-copy state.

    basis holds the single-copy cut eigenvectors as columns and weights
    their eigenvalues, the squared Schmidt coefficients; dropped_weight is
    the cut's weight below the rank cutoff, outside the basis.  keep_mask
    flags the kept product levels over n copies, shape (rank,) * n.  gamma
    is the budgeted exponent in bits for the whole block (infinite when the
    share is zero and the projection is onto the exact support).
    """

    edge: int
    n: int
    threshold: float
    gamma: float
    basis: np.ndarray
    weights: np.ndarray
    dropped_weight: float
    keep_mask: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def kept(self) -> int:
        return int(self.keep_mask.sum())

    @property
    def trivial(self) -> bool:
        return bool(self.keep_mask.all())

    def matrix(self) -> np.ndarray:
        """Explicit projector on the n-copy subtree factor, copy 1 most
        significant.  Meant for small checks; grows fast."""
        w_n = reduce(np.kron, [self.basis] * self.n)
        cols = w_n[:, self.keep_mask.reshape(-1)]
        return cols @ cols.conj().T


def build_projection(
    s: PureState,
    t: RootedTree,
    e: Edge,
    n: int,
    threshold: float,
    rank_tol: float | None = None,
) -> EdgeProjection:
    """Projection of edge e's cut for one error share."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"block size {n} must be a positive integer")
    if not 0.0 <= threshold < 1.0:
        raise InvalidEpsilon(f"share {threshold} outside [0, 1)")
    sd = schmidt_wrt_edge(s, t, e, rank_tol)
    probs = sd.coefficients**2
    if threshold == 0.0:
        gamma = inf
        mask = np.ones((sd.rank,) * n, dtype=bool)
    else:
        spectrum = Spectrum.from_eigenvalues(probs)
        gamma = spectrum_entropy(spectrum, int(n), threshold * threshold / 4.0)
        log_p = np.log(probs)
        total = reduce(np.add.outer, [log_p] * n) if n > 1 else log_p
        mask = total >= -gamma * _LN2 - 1e-9
    return EdgeProjection(
        edge=e.label,
        n=int(n),
        threshold=float(threshold),
        gamma=gamma,
        basis=sd.left_basis,
        weights=probs,
        dropped_weight=sd.dropped_weight,
        keep_mask=np.asarray(mask).reshape((sd.rank,) * n),
    )


def _attach_copies(s: PureState, n: int) -> _Engine:
    eng = _Engine()
    for c in range(1, n + 1):
        eng.attach(
            s.tensor.astype(complex),
            [("q", v, c) for v in range(1, len(s.dims) + 1)],
        )
    return eng


def _apply_projection(
    eng: _Engine, proj: EdgeProjection, t: RootedTree, dims: tuple[int, ...]
) -> None:
    if proj.trivial:
        return
    sub = t.subtree(t.edge_by_label(proj.edge).child)
    sub_dims = [dims[v - 1] for v in sub]
    w = proj.basis
    n = proj.n
    for c in range(1, n + 1):
        eng.apply(
            w.conj().T, [("q", v, c) for v in sub], ("s", proj.edge, c)
        )
    eng.mask_axes(
        proj.keep_mask.astype(float),
        [("s", proj.edge, c) for c in range(1, n + 1)],
    )
    for c in range(1, n + 1):
        eng.apply(w, [("s", proj.edge, c)], ("blk", proj.edge, c))
        eng.split_axis(
            ("blk", proj.edge, c),
            [("q", v, c) for v in sub],
            sub_dims,
        )


@dataclass(frozen=True)
class ApproxState:
    """Projected n-copy state with its distance accounting."""

    state: PureState
    n: int
    thresholds: dict[int, float]
    projections: tuple[EdgeProjection, ...]
    achieved_distance: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.achieved_distance <= self.bound + 1e-9


def _check_block_dims(t: RootedTree, n: int) -> tuple[int, ...]:
    big = []
    total = 1
    cap = config.dim_cap()
    for d in t.dims:
        big.append(d**n)
        total *= d**n
        if total > cap:
            raise DimensionCapExceeded(
                f"block state dimension {total}+ exceeds cap {cap}"
            )
    return tuple(big)


def approx_state(
    s: PureState,
    t: RootedTree,
    n: int,
    thresholds: dict[int, float],
    rank_tol: float | None = None,
) -> ApproxState:
    """Apply every edge projection to the n-copy state, in edge label order,
    and renormalize."""
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    big_dims = _check_block_dims(t, n)
    projections = tuple(
        build_projection(
            s, t, e, n, float(thresholds.get(e.label, 0.0)), rank_tol
        )
        for e in t.edges
    )
    eng = _attach_copies(s, n)
    for proj in projections:
        _apply_projection(eng, proj, t, s.dims)
    amps = eng.amplitudes()
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ZeroNorm("projections removed all weight")
    ref = _attach_copies(s, n).amplitudes()
    # normalize by both norms; the n-fold product drifts from 1 at float
    # resolution, which the square root would otherwise amplify
    ov = np.vdot(ref, amps) / (norm * np.linalg.norm(ref))
    achieved = 2.0 * sqrt(max(0.0, 1.0 - min(1.0, abs(ov) ** 2)))
    bound = sqrt(
        sum(float(thresholds.get(e.label, 0.0)) ** 2 for e in t.edges)
    )
    return ApproxState(
        state=PureState(amps / norm, big_dims),
        n=int(n),
        thresholds={e.label: float(thresholds.get(e.label, 0.0)) for e in t.edges},
        projections=projections,
        achieved_distance=float(achieved),
        bound=float(bound),
    )


@dataclass(frozen=True)
class ApproxCostRow:
    edge: int
    rank: int
    reduced_rank: int
    achieved_bits: float
    budget_bits: float


@dataclass(frozen=True)
class ApproxReport:
    """Achieved per-copy costs of the projected block against budget."""

    n: int
    thresholds: dict[int, float]
    rows: tuple[ApproxCostRow, ...]
    achieved_total: float
    budget_total: float
    distance: float
    bound: float

    @property
    def within_budget(self) -> bool:
        return all(
            r.achieved_bits <= r.budget_bits + 1e-9 for r in self.rows
        )


def construct_approx(
    s: PureState,
    t: RootedTree,
    n: int,
    thresholds: dict[int, float],
    seed: int = 0,
    enumerate_all: bool = False,
    rank_tol: float | None = None,
):
    """Project the n-copy state, then run the exact construction on the
    projected state.

    Returns (transcript, report); with enumerate_all the first element is the
    list of all branch transcripts.  Achieved bits per copy on every edge stay
    within the waterline budget; the report also carries the block state's
    distance to the true n copies.
    """
    ap = approx_state(s, t, n, thresholds, rank_tol)
    big_tree = dataclasses.replace(t, dims=ap.state.dims)
    dec = decompose(ap.state, big_tree, rank_tol)
    program = build_program(dec)
    if enumerate_all:
        result = simulate(program, mode="enumerate")
    else:
        result = simulate(program, mode="sample", seed=seed)
    rows = []
    for proj in ap.projections:
        reduced = dec.ranks[proj.edge]
        if proj.threshold == 0.0:
            budget = float(log2(proj.rank))
        else:
            budget = proj.gamma / n
        rows.append(
            ApproxCostRow(
                edge=proj.edge,
                rank=proj.rank,
                reduced_rank=reduced,
                achieved_bits=float(log2(reduced)) / n,
                budget_bits=float(budget),
            )
        )
    report = ApproxReport(
        n=int(n),
        thresholds=dict(ap.thresholds),
        rows=tuple(rows),
        achieved_total=float(sum(r.achieved_bits for r in rows)),
        budget_total=float(sum(r.budget_bits for r in rows)),
        distance=ap.achieved_distance,
        bound=ap.bound,
    )
    return result, report


@dataclass(frozen=True)
class UnionBoundReport:
    lhs: float
    rhs: float
    deficits: dict[int, float]
    holds: bool


def union_bound_check(
    s: PureState,
    t: RootedTree,
    n: int,
    thresholds: dict[int, float],
    rank_tol: float | None = None,
) -> UnionBoundReport:
    """Distance of the sequentially projected state versus the root-sum of
    the individual projection deficits.

    Both states are pure, so the 1-norm distance reduces to an overlap
    formula; the left side runs the projections in sequence on the dense
    n-copy block.  The right side adds each projection's clipped weight on
    the untouched block, and needs no block.  Across edge e the state is
    sum_k sqrt(p_k) |a_k>|b_k> with S = ||psi||^2 = sum_k p_k, so psi^(x)n
    is the sum over k in [levels]^n of sqrt(prod_c p_(k_c)) times
    orthonormal product vectors.  P_e keeps exactly the terms whose k lies
    in the stored rank on every copy and in keep_mask, so the deficit
    1 - ||P_e psi^(x)n||^2 / S^n is

        (sum_(k in [rank]^n, k not in mask) prod_c p_(k_c) + S^n - S_r^n) / S^n

    with S_r the sum of p_k over the stored rank: the second term is the
    block weight on products that leave the stored rank on some copy.  S is
    taken as S_r plus the cut's dropped weight, so the term is exactly zero
    when the rank cutoff drops nothing.  Summing the dropped products avoids
    the cancellation in 1 - kept, and a trivial projection contributes
    exactly zero.
    """
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    _check_block_dims(t, n)
    projections = [
        build_projection(
            s, t, e, n, float(thresholds.get(e.label, 0.0)), rank_tol
        )
        for e in t.edges
    ]
    ref = _attach_copies(s, n).amplitudes()
    ref_nsq = float(np.vdot(ref, ref).real)
    eng = _attach_copies(s, n)
    for proj in projections:
        _apply_projection(eng, proj, t, s.dims)
    seq = eng.amplitudes()
    tr = float(np.vdot(seq, seq).real)
    if tr < 1e-12:
        raise DegenerateDenominator(
            f"projected weight {tr:.3e} too small to normalize"
        )
    # both sides normalized by the reference block norm so a trivial
    # projection contributes exactly zero instead of float dust
    ov2 = abs(np.vdot(ref, seq)) ** 2 / (tr * ref_nsq)
    lhs = 2.0 * sqrt(max(0.0, 1.0 - min(1.0, ov2)))
    deficits: dict[int, float] = {}
    for proj in projections:
        if proj.trivial:
            deficits[proj.edge] = 0.0
            continue
        stored = float(proj.weights.sum())
        block_nsq = (stored + proj.dropped_weight) ** n
        products = reduce(np.multiply.outer, [proj.weights] * n)
        clipped = products[~proj.keep_mask].sum() + (block_nsq - stored**n)
        deficits[proj.edge] = float(max(0.0, clipped / block_nsq))
    rhs = 2.0 * sqrt(sum(deficits.values()))
    return UnionBoundReport(
        lhs=float(lhs),
        rhs=float(rhs),
        deficits=deficits,
        holds=lhs <= rhs + 1e-9,
    )
