"""Recursive tree decomposition of a state and the line-tree canonical form.

A state on a rooted tree is expanded vertex by vertex: each non-root vertex v
contributes an orthonormal basis of the Schmidt span at its parent edge, and
each vertex carries a factor expressing its own edge basis (or, at the root,
the full state) in the product of its computational basis and its children's
edge bases.  The factor of vertex v is stored with axis order

    (own level l, child indices in ascending child order, own edge index)

where the trailing own-edge axis is absent at the root.  A decomposition is
these factors with the ranks and Schmidt coefficients of every edge: a tree
tensor network of the state (Shi, Duan & Vidal, PRA 74, 022320 (2006)).

decompose runs one sweep, the hierarchical SVD (on a line, the tensor-train
SVD).  A working tensor W starts as the state tensor, one axis per party,
and the vertices are visited in descending label order, so every child comes
before its parent.  At a non-root vertex v the cut matrix M has v's party
axis and its children's bond axes (ascending) flattened into its rows; one
SVD M = U s Vh gives v's small factor U, shaped (d_v, child ranks..., r_v),
and those axes of W are replaced by one bond axis of v holding diag(s) Vh =
U^H M (kept as W's last axis, so a line needs no transposition).  W shrinks
as the sweep climbs, and what is left at the root is the root's factor.  The
children's edge bases have orthonormal columns, so s is the Schmidt spectrum
of the state at v's edge.  The sweep keeps per vertex only U and s, never a
dense basis.  The factors are in the SVDs' phases (a leaf's factor is its
edge basis); every reader works in any orthonormal bond basis.

Route rule: W holds M^T, whose rows are the rest of the tree.  When M^T is
at least twice as tall as wide and holds at least _QR_MIN_ENTRIES entries,
U and s come from Chan's R-SVD, an SVD of the small triangular R of
M^T = QR, and the new bond axis is the one product M^T conj(U); the tall
Q and gesdd's tall singular-vector factor are never formed.  R is taken
block by block (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
Comput. 34, A206 (2012)): each block of _QR_BLOCK_ENTRIES entries of the
C-ordered rows of M^T is reduced to its R, and the stacked R factors are
reduced again until one block holds them, so M^T is never copied whole.
Smaller or squarer cuts take one gesdd call, whose factors give the bond
axis.

Truncation: W is compressed at the tighter of rank_tol and config.RANK_TOL,
so every cut sees the spectrum of the state itself, while ranks and
coefficients are stored at rank_tol.  The factors keep the compressed
widths; every reader takes them through _trimmed_factors, which cuts each
factor to the stored ranks of its bonds, so a trimmed factor keeps only the
rows of its children's stored columns.  Both cutoffs follow
states._numerical_rank, whose floor keeps round-off out of the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    MalformedTensors,
    NotALine,
)
from .states import PureState, _check_rank_tol, _numerical_rank
from .tree import RootedTree

# Smallest cut, in entries of M^T, that takes the R-SVD route, which also
# needs M^T at least twice as tall as wide.  R-SVD (blocked R, bond
# product included) against gesdd on one core (OpenBLAS 0.3.31,
# complex128, cuts of rank n/2): warm, the two draw level near 2^10
# entries (256 x 4: 0.039 ms each) and R-SVD takes a third of the time
# from 2^13 (2048 x 4: 0.098 vs 0.296 ms).  As the first call of both in a
# freshly forked process, as each benchmark job runs, both pay about 1 ms
# to fault their routines in; they draw level at 2^13 (2048 x 4: 1.49 vs
# 1.55 ms) and R-SVD wins from 2^14 (4096 x 4: 1.69 vs 2.11 ms).  On full
# rank cuts it loses when square (64 x 64: 1.11 vs 0.95 ms warm, 2.96 vs
# 2.13 ms forked) and wins or draws from twice as tall (128 x 64: 1.82 vs
# 2.20 ms warm, 2.96 vs 2.89 ms forked).
_QR_MIN_ENTRIES = 2**14
# Entries per row block of the blocked R: 128 KiB of complex128, and at
# least 4 rows per column, so each round at least halves the stack.  The
# first decompose(...).ranks in a forked process on GHZ / W / Dicke(2)
# N=18 lines took 21.7 / 21.7 / 26.2 ms at 2^12, 19.7 / 19.7 / 24.1 ms at
# 2^13 and 24.9 / 25.5 / 29.7 ms at 2^14 (whole-matrix QR: 29.5 / 30.9 /
# 36.6 ms); warm, 2^14 reads about 10% faster than 2^13.
_QR_BLOCK_ENTRIES = 2**13


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Per-vertex factors and per-edge Schmidt data.

    factors[v] is vertex v's factor in the sweep's gauge, (d_v, child
    widths..., own width) with no own axis at the root, at the compressed
    widths (_trimmed_factors cuts them to the ranks); ranks and
    schmidt_coeffs are keyed by edge label.
    """

    tree: RootedTree
    dims: tuple[int, ...]
    ranks: dict[int, int]
    schmidt_coeffs: dict[int, np.ndarray]
    factors: dict[int, np.ndarray]


def _compress(mat: np.ndarray, tol: float):
    """Left factor U, the singular values s kept at tol, and the compressed
    rest (U^H M)^T = mat @ conj(U) of the cut matrix M = mat^T.

    Large tall cuts take U and s from the SVD of the blocked R of mat and
    the rest from one product with mat; the others take one gesdd call
    (see Route rule in the module docstring)."""
    m, n = mat.shape
    bond = None
    if m >= 2 * n and m * n >= _QR_MIN_ENTRIES:
        _, sing, vh = np.linalg.svd(_blocked_r(mat))
        u = vh.T
    elif m >= n:  # gesdd runs faster on the tall one of M and M^T
        bond, sing, ut = np.linalg.svd(mat, full_matrices=False)
        u = ut.T
    else:
        u, sing, vh = np.linalg.svd(mat.T, full_matrices=False)
        bond = vh.T
    kept = _numerical_rank(sing, tol)
    u, sing = u[:, :kept], sing[:kept]
    if bond is None:
        bond = mat @ np.conj(u)
    else:
        bond = bond[:, :kept] * sing
    return u, sing, bond


def _blocked_r(mat: np.ndarray) -> np.ndarray:
    """R of mat = QR from the QRs of row blocks of mat (TSQR): the R
    factors of the blocks are stacked and reduced again until one block
    holds them, so no copy of the whole of mat is made."""
    n = mat.shape[1]
    step = max(_QR_BLOCK_ENTRIES // n, 4 * n)
    while mat.shape[0] > step:
        mat = np.concatenate([
            np.linalg.qr(mat[i : i + step], mode="r")
            for i in range(0, mat.shape[0], step)
        ])
    return np.linalg.qr(mat, mode="r")


def decompose(
    s: PureState, t: RootedTree, rank_tol: float | None = None
) -> TreeDecomposition:
    """Expand a state into per-vertex factors over the tree, with the
    ranks and Schmidt coefficients of every edge."""
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    rank_tol = _check_rank_tol(rank_tol)
    compress_tol = min(rank_tol, config.RANK_TOL)
    # axes of the working tensor: party v is v, the bond above vertex c is -c
    w = s.tensor
    axes = list(t.vertices)
    factors: dict[int, np.ndarray] = {}
    ranks: dict[int, int] = {}
    coeffs: dict[int, np.ndarray] = {}
    for v in reversed(t.vertices[1:]):
        front = [axes.index(a) for a in [v] + [-c for c in t.children(v)]]
        rest = [i for i in range(len(axes)) if i not in front]
        w = w.transpose(rest + front)
        rest_shape, rows = w.shape[: len(rest)], w.shape[len(rest) :]
        mat = w.reshape(-1, prod(rows))
        del w
        u, sing, bond = _compress(mat, compress_tol)
        del mat
        w = bond.reshape(rest_shape + (sing.size,))
        axes = [axes[i] for i in rest] + [-v]
        lab = t.edge_above(v).label
        ranks[lab] = _numerical_rank(sing, rank_tol)
        coeffs[lab] = sing[: ranks[lab]]
        factors[v] = u.reshape(rows + (sing.size,))
    children = t.children(t.root)
    factors[t.root] = w.transpose(
        [axes.index(a) for a in [t.root] + [-c for c in children]]
    )
    return TreeDecomposition(
        tree=t,
        dims=t.dims,
        ranks=ranks,
        schmidt_coeffs=coeffs,
        factors=factors,
    )


def _trimmed_factors(d: TreeDecomposition) -> dict[int, np.ndarray]:
    """Every factor of d cut to the stored ranks of its bonds, (d_v, child
    ranks..., own rank) with no own axis at the root, as views.  A missing
    factor, or one whose shape cannot hold those ranks, is refused."""
    t = d.tree
    trimmed: dict[int, np.ndarray] = {}
    for v in t.vertices:
        if v not in d.factors:
            raise MalformedTensors(f"missing factor at vertex {v}")
        bonds = list(t.children(v)) + ([] if v == t.root else [v])
        want = (t.dim_of(v), *(d.ranks[t.edge_above(c).label] for c in bonds))
        g = d.factors[v]
        if g.ndim == len(want):  # a narrow axis stays narrow, and is refused
            g = g[(slice(None), *map(slice, want[1:]))]
        if g.shape != want:
            raise MalformedTensors(f"vertex {v} factor shape "
                                   f"{d.factors[v].shape} cannot hold {want}")
        trimmed[v] = g
    return trimmed


def _contract_vertex(
    t: RootedTree,
    dims: tuple[int, ...],
    v: int,
    g: np.ndarray,
    child_vecs: dict[int, np.ndarray],
) -> np.ndarray:
    """Subtree vectors of vertex v from its tensor and its children's vectors.

    g has shape (d_v, child ranks..., n_columns); each child's vectors
    (subtree dimension, rank) replace its rank axis by one matrix product.
    Returns (subtree dimension, n_columns), subtree parties ascending; at the
    root the single column is the full state.
    """
    children = t.children(v)
    n_cols = g.shape[-1]
    out = g
    expanded = dims[v - 1]
    for c in children:
        vec = child_vecs[c]
        out = vec @ out.reshape(expanded, vec.shape[1], -1)
        expanded *= vec.shape[0]
    block = [v] + [p for c in children for p in t.subtree(c)]
    sub = sorted(block)
    if block != sub:
        pos = {p: i for i, p in enumerate(block)}
        out = out.reshape([dims[p - 1] for p in block] + [n_cols])
        out = out.transpose([pos[p] for p in sub] + [len(block)])
    return out.reshape(-1, n_cols)


def _contract(t: RootedTree, dims: tuple[int, ...], tensor) -> np.ndarray:
    """The vector of a tree network, contracted from the leaves to the root:
    tensor(v) is vertex v's tensor, shaped like a factor, (d_v, child
    widths..., own width), with no own axis at the root.  Each non-root
    vertex's subtree vectors replace it in its parent (_contract_vertex),
    and a network past config.dim_cap() is refused before anything is
    built."""
    config.check_dim("state", dims)
    vecs: dict[int, np.ndarray] = {}
    for v in t.vertices[:0:-1]:
        below = {c: vecs.pop(c) for c in t.children(v)}
        vecs[v] = _contract_vertex(t, dims, v, tensor(v), below)
    g = tensor(t.root)[..., None]
    return _contract_vertex(t, dims, t.root, g, vecs)[:, 0]


def recompose(d: TreeDecomposition) -> PureState:
    """Rebuild the state a decomposition describes by contracting its
    factors trimmed to the stored ranks."""
    trimmed = _trimmed_factors(d)
    return PureState(_contract(d.tree, d.dims, trimmed.__getitem__), d.dims)


def vertex_gram_defect(d: TreeDecomposition, v: int) -> float:
    """Deviation of vertex v's columns from orthonormality.

    The trimmed factor, flattened over level and child axes, must have
    orthonormal columns indexed by the own-edge index (at the root, a single
    unit-norm column; at a leaf, the isometry onto its edge); this is what
    makes the measurement sets complete.
    """
    g = _trimmed_factors(d)[v]
    return _column_defect(g.reshape(-1, 1 if v == d.tree.root else g.shape[-1]))


def _column_defect(mat: np.ndarray) -> float:
    """Largest entry of mat^H mat - I."""
    return float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max())


@dataclass(frozen=True, eq=False)
class CanonicalMPS:
    """Canonical line-tree form: site tensors and bond weight vectors.

    gammas[0] has shape (d_1, r_1), inner gammas[k-1] have shape
    (r_{k-1}, d_k, r_k), gammas[-1] has shape (r_{N-1}, d_N); lambdas[k-1]
    holds the descending Schmidt coefficients of cut k.
    """

    gammas: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    tree: RootedTree

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(lam.size for lam in self.lambdas)


def _require_line(t: RootedTree) -> None:
    if t.n < 2:
        raise NotALine("need at least two parties for a line form")
    for v in t.vertices:
        cs = t.children(v)
        if v < t.n and cs != (v + 1,):
            raise NotALine("tree is not a line rooted at an end vertex")
        if v == t.n and cs:
            raise NotALine("tree is not a line rooted at an end vertex")


def mps_canonical_form(
    s: PureState, line_tree: RootedTree, rank_tol: float | None = None
) -> CanonicalMPS:
    """Vidal's canonical form of a state on a line tree, read off decompose:
    lambdas[k-1] are the Schmidt coefficients of cut k and each site tensor
    is the trimmed factor divided by the weights of the bond to its right,
    the last one transposed; the phases are the sweep's."""
    _require_line(line_tree)
    if s.dims != line_tree.dims:
        raise DimensionMismatch(
            f"state dims {s.dims} vs tree dims {line_tree.dims}"
        )
    d = decompose(s, line_tree, rank_tol)
    n = line_tree.n
    trimmed = _trimmed_factors(d)
    lambdas = [d.schmidt_coeffs[k] for k in range(1, n)]
    gammas = [trimmed[1] / lambdas[0]]
    for k in range(2, n):
        gammas.append(np.transpose(trimmed[k], (2, 0, 1)) / lambdas[k - 1])
    gammas.append(trimmed[n].T)
    return CanonicalMPS(
        gammas=tuple(gammas),
        lambdas=tuple(lambdas),
        dims=s.dims,
        tree=line_tree,
    )


def _mps_factors(m: CanonicalMPS) -> dict[int, np.ndarray]:
    """The line tree's factors of a canonical form, after checking that its
    tree is a line rooted at site 1 and its shapes: each site tensor times
    the weights of the bond to its right, as (d_k, r_k, r_{k-1}), and the
    last one transposed to (d_N, r_{N-1})."""
    _require_line(m.tree)
    n = len(m.dims)
    if len(m.gammas) != n or len(m.lambdas) != n - 1:
        raise MalformedTensors(
            f"{len(m.gammas)} site tensors / {len(m.lambdas)} bonds for {n} parties"
        )
    bonds = tuple(lam.size for lam in m.lambdas)
    for k, g in enumerate(m.gammas):
        want = bonds[max(k - 1, 0) : k] + m.dims[k : k + 1] + bonds[k : k + 1]
        if g.shape != want:
            raise MalformedTensors(
                f"site {k + 1} tensor shape {g.shape}, expected {want}"
            )
    factors = {1: m.gammas[0] * m.lambdas[0][None, :]}
    for k in range(2, n):
        g = np.transpose(m.gammas[k - 1], (1, 2, 0))
        factors[k] = g * m.lambdas[k - 1][None, :, None]
    factors[n] = m.gammas[n - 1].T
    return factors


def contract_mps(m: CanonicalMPS) -> PureState:
    """Fold the site tensors and bond weights back into a dense state."""
    factors = _mps_factors(m)
    return PureState(_contract(m.tree, m.dims, factors.__getitem__), m.dims)


def decomposition_from_mps(m: CanonicalMPS) -> TreeDecomposition:
    """The line tree's decomposition read off a canonical form: its
    factors are _mps_factors, kept as given, and each non-root factor must
    be an isometry onto its own bond, so that, leaves to root, every edge
    basis is orthonormal."""
    n = len(m.dims)
    factors = _mps_factors(m)
    for k in range(2, n + 1):
        defect = _column_defect(factors[k].reshape(-1, factors[k].shape[-1]))
        if defect > 1e-6:
            raise MalformedTensors(
                f"cut {k - 1} basis not orthonormal (defect {defect:.2e}); "
                "input is not in canonical form"
            )
    return TreeDecomposition(
        tree=m.tree,
        dims=m.dims,
        ranks={k: m.lambdas[k - 1].size for k in range(1, n)},
        schmidt_coeffs={k: m.lambdas[k - 1] for k in range(1, n)},
        factors=factors,
    )
