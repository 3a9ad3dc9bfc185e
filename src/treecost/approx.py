"""Approximate block construction: project each cut of an n-copy state onto
its high-weight spectral levels, then build the projected state exactly.

Each edge gets an error share; its projection keeps the product eigenvalues
of the n-fold cut spectrum above the waterline for deficit share^2 / 4.
Applying the projections (in edge label order; they need not commute) yields
a nearby state whose cut ranks, and hence construction costs, are capped by
the waterline exponents.  approx_state computes the projections and the
final distance to the true n-copy state once; the returned ApproxState
checks that distance against the root-sum-square of the shares (holds) and
against the root-sum of the individual projection deficits (union_bound,
which union_bound_check returns).  A block left with no weight is refused
there once, for every reader.

Everything here reads the factors of one decompose sweep of psi,
compressed at the tighter of rank_tol and config.RANK_TOL.  The sweep's
edge basis B_e above vertex v is the cut's Schmidt basis down to that
tolerance, in the sweep's phases; the first rank columns (those above
rank_tol) and their weights make projection e, and the columns beyond
carry the rest of psi.  v's factor A_v holds the coefficients of B_e
in |level> x the children's bases (at the root, of psi itself; at a leaf,
A_v is B_e).  So psi^(x)n is the tree network of the A_v^(x)n, with bond e
running over B_e^(x)n, |B_e|^n levels wide (tree tensor networks: Shi, Duan
& Vidal, PRA 74, 022320 (2006)).  Projection e is B_e^(x)n diag(keep_mask)
B_e^(x)n-dagger on the subtree factor of the n copies.  Edge labels follow
breadth-first order, so every projection applied before e sits on an
ancestor edge or in a disjoint subtree, and the subtree factor below e is
still B_e^(x)n times the untouched network there.  So projection e is
exactly the mask keep_mask (zero beyond the stored rank) on bond e, and
M psi^(x)n, for M the projections applied in label order, is the same
network with masks on the bonds of the nontrivial projections.  A trivial
projection is skipped, so its bond stays whole.
<psi^(x)n|M psi^(x)n> and ||M psi^(x)n||^2 are contracted from the leaves
to the root over bond environments |B_e|^n x |B_e|^n in size, as the
weights the masks remove (_removed_weights).  A mask works in place and
adds no buffer: where a bond's bra-ket and ket-ket environments are one
object before its mask, the bond keeps one buffer of its full size, and
the ket-ket side is built in it after the parent's bra transfer has read
the bra-ket side.  Only ApproxState.state builds the dense block, by
contracting the same masked network densely (_block_amplitudes, with
decomposition._contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import inf, log, log2, prod, sqrt
from typing import NamedTuple

import numpy as np

from . import config
from .costs import Spectrum, _check_block_size, _edge_shares, spectrum_entropy
from .decomposition import TreeDecomposition, _contract, decompose
from .errors import DegenerateDenominator, InvalidEpsilon
from .protocol import build_program, simulate
from .states import (
    PureState,
    _check_rank_tol,
    _numerical_rank,
    normalized_state,
)
from .tree import Edge, RootedTree

_LN2 = log(2.0)


@dataclass(frozen=True, eq=False)
class EdgeProjection:
    """Spectral projection of one cut of the n-copy state.

    weights holds the cut's eigenvalues above the rank cutoff, the squared
    Schmidt coefficients, and dropped_weight the weight below it.  keep_mask
    flags the kept product levels over n copies, flat with rank**n entries
    and copy 1 most significant.  gamma
    is the budgeted exponent in bits for the whole block (infinite when the
    share allows no truncation and the projection is onto the exact
    support).
    """

    edge: int
    n: int
    threshold: float
    gamma: float
    weights: np.ndarray
    dropped_weight: float
    keep_mask: np.ndarray

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def trivial(self) -> bool:
        return bool(self.keep_mask.all())


def _decompose(s: PureState, t: RootedTree, rank_tol: float | None):
    """The one decompose sweep the projections and the network read: every
    cut kept down to the tighter of rank_tol and config.RANK_TOL."""
    return decompose(s, t, min(_check_rank_tol(rank_tol), config.RANK_TOL))


def _edge_projection(
    dec: TreeDecomposition,
    e: Edge,
    n: int,
    threshold: float,
    rank_tol: float | None,
) -> EdgeProjection:
    """Projection of edge e's cut from a decomposition made by _decompose:
    the cut's Schmidt levels above rank_tol, and the weight of the rest."""
    n = _check_block_size(n)
    if not 0.0 <= threshold < 1.0:
        raise InvalidEpsilon(f"share {threshold} outside [0, 1)")
    coeffs = dec.schmidt_coeffs[e.label]
    rank = _numerical_rank(coeffs, _check_rank_tol(rank_tol))
    config.check_dim(f"keep mask of edge {e.label}", rank, n, "levels")
    probs = coeffs[:rank] ** 2
    # a share below about 3e-162 squares to a zero deficit, which allows no
    # truncation: the same projection as a zero share
    deficit = threshold * threshold / 4.0
    if deficit == 0.0:
        gamma = inf
        mask = np.ones(rank**n, dtype=bool)
    else:
        spectrum = Spectrum.from_eigenvalues(probs)
        gamma = spectrum_entropy(spectrum, n, deficit)
        if rank == 1:
            # one level sequence, of weight 1 in the normalized spectrum
            # that gamma reads: above every waterline
            mask = np.ones(1, dtype=bool)
        else:
            # the log product of every level sequence, summed copy by copy
            log_p = total = np.log(probs)
            for _ in range(n - 1):
                total = np.add.outer(total, log_p).reshape(-1)
            mask = total >= -gamma * _LN2 - 1e-9
    return EdgeProjection(
        edge=e.label,
        n=n,
        threshold=float(threshold),
        gamma=gamma,
        weights=probs,
        dropped_weight=float(np.sum(coeffs[rank:] ** 2)),
        keep_mask=mask,
    )


class _Env(NamedTuple):
    """Environment of one bond over n copies: one axis per copy, in copy
    order, flattened.  When paired, axis a runs over the (bra, ket) level
    pairs of copy a, bra major; otherwise the environment is diagonal and
    axis a runs over the one level that bra and ket share."""

    legs: np.ndarray
    paired: bool


def _transfer(g: np.ndarray, envs: list, n: int, v: int) -> _Env:
    """Environment of the bond above v from its children's: the per-copy
    transfer matrix sum_p conj(g) (x) g applied to one copy at a time, so
    no n-fold vertex tensor is built.

    g has shape (d_v, child widths..., own width).  A child environment of
    None is the identity and is summed like the level; a diagonal one
    shares its level between bra and ket.
    """
    m = len(envs)
    own, own_ket = m + 1, 2 * m + 2
    ket = [0]
    rows = []
    legs = []
    for i, env in enumerate(envs, start=1):
        paired = env is not None and env.paired
        ket.append(own + i if paired else i)
        if env is not None:
            rows += [i, own + i] if paired else [i]
            width = g.shape[i] ** 2 if paired else g.shape[i]
            legs.append(env.legs.reshape((width,) * n))
    bra = [0, *range(1, own + 1)]
    phi = np.einsum(g.conj(), bra, g, ket + [own_ket], rows + [own, own_ket])
    phi = phi.reshape(-1, g.shape[-1] ** 2)
    config.check_dim(f"bond environment at vertex {v}", max(phi.shape), n)
    # one axis per (child, copy), regrouped copy major
    x = reduce(np.multiply.outer, legs)
    x = x.transpose([i * n + a for a in range(n) for i in range(len(legs))])
    for _ in range(n):
        x = x.reshape(phi.shape[0], -1).T @ phi
    return _Env(x.reshape(-1), True)


def _paired_diagonal(width: int, n: int) -> np.ndarray:
    """Flat positions of the entries of a paired environment whose bra and
    ket levels agree on every copy."""
    step = np.arange(width) * (width + 1)
    pos = [step * (width * width) ** (n - 1 - a) for a in range(n)]
    return reduce(np.add.outer, pos).reshape(-1)


def _identity_minus(env: _Env | None, width: int, n: int) -> _Env | None:
    """The environment whose complement from the identity is env."""
    if env is None:
        return None
    if not env.paired:
        return _Env(1.0 - env.legs, False)
    legs = -env.legs
    legs[_paired_diagonal(width, n)] += 1.0
    return _Env(legs, True)


def _removed_transfer(g: np.ndarray, removed: list, n: int, v: int) -> _Env:
    """Complement I - E of the environment E of the bond above v, from the
    complements C_c of its children's, by I - Phi(E_1 x ... x E_m) =
    sum_i Phi(E_1 x ... x E_(i-1) x C_i x I x ... x I).  Phi maps the
    identity to the identity, because the columns of g are orthonormal
    (at the root, to ||psi||^(2n))."""
    last = max(i for i, c in enumerate(removed) if c is not None)
    total = None
    ahead = []
    for i, c in enumerate(removed[: last + 1]):
        if c is not None:
            rest = [None] * (len(removed) - i - 1)
            term = _transfer(g, ahead + [c] + rest, n, v)
            total = term if total is None else _Env(total.legs + term.legs, True)
        if i < last:
            ahead.append(_identity_minus(c, g.shape[1 + i], n))
    return total


def _environments(g: np.ndarray, pairs: list, n: int, v: int):
    """Complements of the bra-ket and ket-ket environments of the bond
    above v from its children's pairs; at the root, the removed overlap
    and weight.  They are one object while every child's pair is.  A
    child's ket-ket complement that shares its bra-ket one's buffer
    (_KetInPlace) is built there once the bra transfer has read it."""
    bra = _removed_transfer(g, [b for b, _ in pairs], n, v)
    if all(b is k for b, k in pairs):
        return bra, bra
    kets = [k.build() if isinstance(k, _KetInPlace) else k for _, k in pairs]
    return bra, _removed_transfer(g, kets, n, v)


class _KetInPlace(NamedTuple):
    """Ket-ket complement of a masked bond whose two complements entered
    the mask as one object, held in the buffer of the bra-ket one until
    the parent's bra transfer has read it."""

    legs: np.ndarray
    diagonal: np.ndarray
    mask: np.ndarray
    cut: np.ndarray

    def build(self) -> _Env:
        """The complement in the shared buffer, which the bra-ket one no
        longer holds.  M (1 - M) = 0 for a 0/1 mask M, so it is the bra-ket
        complement times the bra mask plus the cut on the diagonal.  The
        bra mask zeroes every diagonal entry the bra-ket side's cut raised,
        and the others had zero added, so the bits are those of a separate
        buffer masked the same way."""
        n, r = self.mask.ndim, self.mask.shape[0]
        y = self.legs.reshape((r, r) * n)
        y *= self.mask.reshape((r, 1) * n)
        self.legs[self.diagonal] += self.cut
        return _Env(self.legs, True)


def _masked(bra: _Env | None, ket: _Env | None, mask: np.ndarray):
    """Complements of a bond's bra-ket and ket-ket environments after its
    mask.  The mask takes E to E M_ket and F to M_bra F M_ket, so a
    complement C goes to C M plus (1 - mask) on the diagonal.  A zero
    complement (None: nothing below is masked) goes to the diagonal
    complement 1 - mask, one object for both; any other is a full one
    (_removed_transfer).

    The bond keeps one buffer: when one full complement is both, the
    ket-ket one is returned as a _KetInPlace on the bra-ket one's buffer,
    which the parent builds after its bra transfer."""
    n, r = mask.ndim, mask.shape[0]
    cut = (~mask).reshape(-1).astype(float)
    if bra is None:
        env = _Env(cut, False)
        return env, env
    on_ket = mask.reshape((1, r) * n)
    on_bra = mask.reshape((r, 1) * n)
    diagonal = _paired_diagonal(r, n)
    # in place: a bond's environments are read by nothing but this mask and
    # its parent's transfers
    x = bra.legs.reshape((r, r) * n)
    x *= on_ket
    x = x.reshape(-1)
    if ket is bra:
        ket = _KetInPlace(x, diagonal, mask, cut)
    else:
        y = ket.legs.reshape((r, r) * n)
        y *= on_ket
        y *= on_bra
        y = y.reshape(-1)
        y[diagonal] += cut
        ket = _Env(y, True)
    x[diagonal] += cut
    return _Env(x, True), ket


def _bond_masks(
    dec: TreeDecomposition, projections: tuple[EdgeProjection, ...]
) -> dict[int, np.ndarray]:
    """keep_mask of each nontrivial projection, zero-padded to its bond's
    width on every copy, keyed by the vertex below its edge."""
    t = dec.tree
    masks = {}
    for proj in projections:
        if proj.trivial:
            continue
        v, n = t.edge_by_label(proj.edge).child, proj.n
        width = dec.factors[v].shape[-1]
        config.check_dim(f"mask on edge {proj.edge}", width, n, "levels")
        masks[v] = np.zeros((width,) * n, dtype=bool)
        masks[v][(slice(proj.rank),) * n] = proj.keep_mask.reshape(
            (proj.rank,) * n
        )
    return masks


def _removed_weights(
    dec: TreeDecomposition, masks: dict[int, np.ndarray], n: int
) -> tuple[float, complex, float] | None:
    """||psi^(x)n||^2 with <psi^(x)n|(I - M) psi^(x)n> and
    ||psi^(x)n||^2 - ||M psi^(x)n||^2, for M the projections applied in
    edge label order; None when every projection is trivial (M = I).

    The masked n-copy network (module docstring) is contracted from the
    leaves to the root.  Each bond carries a bra-ket environment
    E[k, k'] = <B^(x)n k|M psi^(x)n below the bond at level k'> and a
    ket-ket one F, both the identity while nothing below is masked.  They
    are carried as their complements I - E and I - F, so the weight the
    masks remove is summed directly rather than as a difference of nearly
    equal overlaps, and the distance keeps its relative precision however
    little is cut.  A complement stays zero (None) until a mask lies at or
    below its bond, and diagonal until a transfer fills it; the two are
    one object until a mask falls on a full one.
    """
    if not masks:
        return None
    t = dec.tree
    below: dict[int, tuple] = {}
    for v in reversed(t.vertices[1:]):
        pairs = [below.pop(c) for c in t.children(v)]
        if all(bra is None for bra, _ in pairs):
            # nothing masked below: the columns of B_e^(x)n are orthonormal
            bra = ket = None
        else:
            bra, ket = _environments(dec.factors[v], pairs, n, v)
        if v in masks:
            bra, ket = _masked(bra, ket, masks[v])
        below[v] = (bra, ket)
    pairs = [below.pop(c) for c in t.children(t.root)]
    g = dec.factors[t.root][..., None]
    bra, ket = _environments(g, pairs, n, t.root)
    block = float(np.vdot(g, g).real) ** n
    return block, complex(bra.legs[0]), float(ket.legs[0].real)


def _copies(g: np.ndarray, n: int) -> np.ndarray:
    """g^(x)n with the n copies of every axis grouped into one axis, copy 1
    most significant."""
    k = g.ndim
    x = reduce(np.multiply.outer, [g] * n)
    x = x.transpose([c * k + a for a in range(k) for c in range(n)])
    return x.reshape([d**n for d in g.shape])


def _block_amplitudes(
    dec: TreeDecomposition, masks: dict[int, np.ndarray], n: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """M psi^(x)n as a dense vector, with its party dimensions: the masked
    network of the module docstring contracted from the leaves to the root.
    Each party register holds its n copies, copy 1 most significant.  The
    block is refused past the cap before any d**n is computed."""
    config.check_dim("state", dec.dims, n)
    big_dims = tuple(d**n for d in dec.dims)

    def tensor(v):
        g = _copies(dec.factors[v], n)
        return g * masks[v].reshape(-1) if v in masks else g

    return _contract(dec.tree, big_dims, tensor), big_dims


def _distance(removed) -> float:
    """Trace distance 2 sqrt(1 - F) between psi^(x)n and the normalized
    M psi^(x)n, from _removed_weights.  With S = ||psi^(x)n||^2,
    a = <psi^(x)n|(I - M) psi^(x)n> and b = S - ||M psi^(x)n||^2, the
    fidelity is F = |S - a|^2 / (S (S - b)), so

        1 - F = (S (2 Re a - b) - |a|^2) / (S (S - b)),

    where 2 Re a - b = ||(I - M) psi^(x)n||^2: no difference of nearly
    equal numbers is taken, however little the masks cut."""
    if removed is None:
        return 0.0
    block, lost_overlap, lost = removed
    gap = block * (2.0 * lost_overlap.real - lost) - abs(lost_overlap) ** 2
    gap /= block * (block - lost)
    return 2.0 * sqrt(max(0.0, min(1.0, gap)))


@dataclass(frozen=True)
class UnionBoundReport:
    lhs: float
    rhs: float
    deficits: dict[int, float]
    holds: bool


@dataclass(frozen=True, eq=False)
class ApproxState:
    """Projected n-copy state with its distance accounting.

    decomposition is the one decompose sweep of the single-copy state that
    the projections and the distances were read from.
    The projected block itself (state) is contracted densely from the same
    masked network on first access, and the union bound (union_bound) is
    read from the projections and the distance already held.
    """

    decomposition: TreeDecomposition = field(repr=False)
    n: int
    thresholds: dict[int, float]
    projections: tuple[EdgeProjection, ...]
    achieved_distance: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.achieved_distance <= self.bound + 1e-9

    @cached_property
    def state(self) -> PureState:
        """The projected n-copy block, renormalized: the masked network
        contracted densely, its size capped by config.dim_cap()."""
        dec = self.decomposition
        masks = _bond_masks(dec, self.projections)
        return normalized_state(*_block_amplitudes(dec, masks, self.n))

    @cached_property
    def union_bound(self) -> UnionBoundReport:
        """Distance of the sequentially projected state (achieved_distance)
        versus the root-sum of the individual projection deficits.

        Both states are pure, so the 1-norm distance reduces to an overlap
        formula, and neither side needs the n-copy block.  The left side
        takes <psi^(x)n|M psi^(x)n> and ||M psi^(x)n||^2 for the sequential
        product M from the masked n-copy network (module docstring).

        The right side adds each projection's clipped weight on the
        untouched block.  Across edge e the state is
        sum_k sqrt(p_k) |a_k>|b_k> with S = ||psi||^2 = sum_k p_k, so
        psi^(x)n is the sum over k in [levels]^n of sqrt(prod_c p_(k_c))
        times orthonormal product vectors.  P_e keeps exactly the terms
        whose k lies in the stored rank on every copy and in keep_mask, so
        the deficit 1 - ||P_e psi^(x)n||^2 / S^n is

            (sum_(k in [rank]^n, k not in mask) prod_c p_(k_c) + S^n - S_r^n) / S^n

        with S_r the sum of p_k over the stored rank: the second term is
        the block weight on products that leave the stored rank on some
        copy.  S is taken as S_r plus the cut's dropped weight, so the term
        is exactly zero when the rank cutoff drops nothing.  Summing the
        dropped products avoids the cancellation in 1 - kept, and a trivial
        projection contributes exactly zero.
        """
        n = self.n
        deficits: dict[int, float] = {}
        for proj in self.projections:
            if proj.trivial:
                deficits[proj.edge] = 0.0
                continue
            stored = float(proj.weights.sum())
            block_nsq = (stored + proj.dropped_weight) ** n
            products = reduce(np.multiply.outer, [proj.weights] * n)
            clipped = products.reshape(-1)[~proj.keep_mask].sum()
            clipped += block_nsq - stored**n
            deficits[proj.edge] = float(max(0.0, clipped / block_nsq))
        lhs = self.achieved_distance
        rhs = 2.0 * sqrt(sum(deficits.values()))
        return UnionBoundReport(
            lhs=lhs, rhs=rhs, deficits=deficits, holds=lhs <= rhs + 1e-9
        )


def approx_state(
    s: PureState,
    t: RootedTree,
    n: int,
    thresholds: dict[int, float],
    rank_tol: float | None = None,
) -> ApproxState:
    """Apply every edge projection to the n-copy state, in edge label order,
    and renormalize.  The shares are checked and completed by
    costs._edge_shares.  The distance comes from the weights the masks
    remove from the n-copy network (_removed_weights); the union bound and
    the dense block are read from the result.  A block the masks leave
    with under 1e-12 of its weight is refused with DegenerateDenominator
    (a ZeroNorm)."""
    shares = _edge_shares(t, thresholds)
    dec = _decompose(s, t, rank_tol)
    projections = tuple(
        _edge_projection(dec, e, n, shares[e.label], rank_tol)
        for e in t.edges
    )
    removed = _removed_weights(dec, _bond_masks(dec, projections), n)
    if removed is not None:
        block, _, lost = removed
        if (block - lost) / block < 1e-12:
            raise DegenerateDenominator("projections removed all weight")
    return ApproxState(
        decomposition=dec,
        n=int(n),
        thresholds=shares,
        projections=projections,
        achieved_distance=_distance(removed),
        bound=sqrt(sum(v * v for v in shares.values())),
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
        if proj.gamma == inf:
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


def union_bound_check(
    s: PureState,
    t: RootedTree,
    n: int,
    thresholds: dict[int, float],
    rank_tol: float | None = None,
) -> UnionBoundReport:
    """The union bound of the projected n-copy state: the
    ApproxState.union_bound of approx_state, whose refusals it shares."""
    return approx_state(s, t, n, thresholds, rank_tol).union_bound
