"""Recursive tree decomposition of a state and the line-tree canonical form.

A state on a rooted tree is expanded vertex by vertex: each non-root vertex v
contributes the Schmidt basis of the bipartition at its parent edge, and each
nonleaf vertex carries a coefficient tensor expressing its own edge basis (or,
at the root, the full state) in the product of its computational basis and its
children's edge bases.  The tensor of vertex v is stored with axis order

    (own level l, child indices in ascending child order, own edge index)

where the trailing own-edge axis is absent at the root.

decompose runs in two parts; the second runs only for its readers.

The sweep is the hierarchical SVD (on a line, the tensor-train SVD) and
yields ranks and Schmidt coefficients.  A working tensor W starts as the
state tensor, one axis per party, and the vertices are visited in descending
label order, so every child comes before its parent.  At a non-root vertex v
the cut matrix M has v's party axis and its children's bond axes
(ascending) flattened into its rows; one SVD M = U s Vh gives v's small
factor U, shaped (d_v, child ranks..., r_v), and those axes of W are
replaced by one bond axis of v holding diag(s) Vh = U^H M (kept as W's last
axis, so a line needs no transposition).  W shrinks as the sweep climbs,
and what is left at the root is the root's tensor.  The children's edge
bases have orthonormal columns, so s is the Schmidt spectrum of the state
at v's edge.  The sweep keeps per vertex only U and s, never a dense basis.
These U and the root's tensor are the factors, a tree network of the state
in the SVDs' phases (a leaf's factor is its edge basis), which the protocol
and block truncation read: they work in any orthonormal bond basis.

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

The canonical pass runs once, on the first read of tensors or edge_bases,
and builds both.  One cascade, _subtree_bases, expands each non-root factor
in its children's bases (_contract_vertex), leaves to root, into the dense
Schmidt basis of its subtree in the sweep's phases.  Each vertex's frame,
by the phase and order rules of states._canonical_frame (the rules
schmidt_wrt_edge applies), is computed from that basis and applied once:
to the basis's columns, in place once its parent has absorbed it, and to
copies of the factors along its own axis and its parent's, as if the sweep
had seen canonical bonds.  Edge bases and tensors thus agree with per-cut
Schmidt decompositions wherever the spectrum is nondegenerate.  Ranks and
Schmidt coefficients come from the sweep alone, so code that reads only
them builds no dense basis; the coefficients stay descending, also where
the order rule reorders a group equal within config.SPECTRUM_MERGE_RTOL.

Truncation: W is compressed at the tighter of rank_tol and config.RANK_TOL,
so every cut sees the spectrum of the state itself, while ranks,
coefficients, bases and tensors are stored at rank_tol; a stored tensor keeps
only the rows of its children's stored columns.  The factors keep the
compressed widths; a reader trims them to the stored ranks.  Both cutoffs
follow states._numerical_rank, whose floor keeps round-off out of the rank.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from math import prod

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    MalformedTensors,
    NotALine,
)
from .states import PureState, _canonical_frame, _numerical_rank
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
    """Per-vertex tensors and per-edge Schmidt data.

    factors[v] is vertex v's tensor in the sweep's gauge, (d_v, child
    widths..., own width) with no own axis at the root, at the compressed
    widths.  tensors[v] is the coefficient tensor of nonleaf vertex v in the
    canonical frame, and edge_bases[c], for each non-root vertex c, the
    orthonormal basis of the subtree factor at the edge above c (columns,
    subtree parties ascending); ranks and schmidt_coeffs are keyed by edge
    label.  tensors and edge_bases are read-only mappings whose keys are
    known up front: the first read of a value from either builds both once
    (from decompose, by the canonical pass), refused past config.dim_cap().
    dataclasses.replace takes plain dicts.
    """

    tree: RootedTree
    dims: tuple[int, ...]
    tensors: Mapping[int, np.ndarray]
    edge_bases: Mapping[int, np.ndarray]
    ranks: dict[int, int]
    schmidt_coeffs: dict[int, np.ndarray]
    factors: dict[int, np.ndarray]

    def subtree_dim(self, v: int) -> int:
        return prod(self.dims[u - 1] for u in self.tree.subtree(v))


def _check_rank_tol(rank_tol: float | None) -> float:
    """rank_tol, or config.RANK_TOL for None; refuses NaN and values
    outside [0, 1)."""
    if rank_tol is None:
        return config.RANK_TOL
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank tolerance {rank_tol!r} outside [0, 1)")
    return rank_tol


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
    # per vertex, its factor U and its stored coefficients
    factors: dict[int, np.ndarray] = {}
    stored: dict[int, np.ndarray] = {}
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
        coeffs[lab] = stored[v] = sing[: ranks[lab]]
        factors[v] = u.reshape(rows + (sing.size,))
    children = t.children(t.root)
    factors[t.root] = w.transpose(
        [axes.index(a) for a in [t.root] + [-c for c in children]]
    )
    canonical = cache(lambda: _canonical_pass(t, factors, stored))
    below = t.vertices[:0:-1]  # the non-root vertices, descending
    return TreeDecomposition(
        tree=t,
        dims=t.dims,
        tensors=_PassView(
            canonical, 0, [v for v in below if t.children(v)] + [t.root]
        ),
        edge_bases=_PassView(canonical, 1, below),
        ranks=ranks,
        schmidt_coeffs=coeffs,
        factors=factors,
    )


class _PassView(Mapping):
    """Read-only view of one dict of a cached pass, source: keys known up
    front, values built on the first read of any of them."""

    def __init__(self, source, which: int, keys):
        self._source, self._which, self._keys = source, which, tuple(keys)

    def __getitem__(self, v):
        return self._source()[self._which][v]

    def __contains__(self, v):
        return v in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _canonical_pass(t, factors, stored):
    """Coefficient tensors and dense edge bases in the canonical frame,
    from the sweep's factors and stored coefficients, both keyed by vertex
    (see the module docstring)."""
    # per non-root vertex, the order and phases that take the sweep's
    # columns of its basis to the stored canonical ones
    frames: dict[int, tuple[list[int], np.ndarray]] = {}
    edge_bases: dict[int, np.ndarray] = {}
    for v, basis in _subtree_bases(t, t.dims, factors.__getitem__):
        rank = stored[v].size
        phases, order = _canonical_frame(basis[:, :rank], stored[v])
        frames[v] = order, np.conj(phases[order])
        # a leaf's basis is a view of its factor
        edge_bases[v] = basis if t.children(v) else basis.copy()
        for c in t.children(v):  # absorbed by v, so free to be reframed
            edge_bases[c] = _reframe(edge_bases[c], -1, *frames[c])
    for c in t.children(t.root):
        edge_bases[c] = _reframe(edge_bases[c], -1, *frames[c])
    tensors: dict[int, np.ndarray] = {}
    for v in t.vertices:
        if v == t.root or t.children(v):
            g = factors[v].copy()
            for axis, c in enumerate(t.children(v), start=1):
                order, phases = frames[c]
                g = _reframe(g, axis, order, np.conj(phases))
            tensors[v] = _reframe(g, -1, *frames[v]) if v in frames else g
    return tensors, edge_bases


def _reframe(a: np.ndarray, axis: int, order, phases) -> np.ndarray:
    """a's entries order along axis times phases, written into a: returns
    the view of a cut to len(order) along axis that holds them."""
    cut = np.moveaxis(a, axis, -1)[..., : len(order)]
    if order != sorted(order):
        cut[...] = cut[..., order]
    cut *= phases
    return np.moveaxis(cut, -1, axis)


def _check_shapes(d: TreeDecomposition) -> None:
    t = d.tree
    for v in t.vertices:
        if v != t.root and v not in d.edge_bases:
            raise MalformedTensors(f"missing edge basis above vertex {v}")
        if t.is_leaf(v) and v != t.root:
            continue
        if v not in d.tensors:
            raise MalformedTensors(f"missing coefficient tensor at vertex {v}")
        expected = [t.dim_of(v)]
        expected += [d.ranks[t.edge_above(c).label] for c in t.children(v)]
        if v != t.root:
            expected.append(d.ranks[t.edge_above(v).label])
        if d.tensors[v].shape != tuple(expected):
            raise MalformedTensors(
                f"vertex {v} tensor shape {d.tensors[v].shape}, "
                f"expected {tuple(expected)}"
            )
    for c, basis in d.edge_bases.items():
        want = (d.subtree_dim(c), d.ranks[t.edge_above(c).label])
        if basis.shape != want:
            raise MalformedTensors(
                f"edge basis above vertex {c} has shape {basis.shape}, "
                f"expected {want}"
            )


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


def _subtree_bases(t: RootedTree, dims: tuple[int, ...], tensor):
    """Leaves to root, each non-root vertex v with its subtree's vectors,
    (subtree dimension, own width): tensor(v), shaped like a factor,
    expanded in its children's vectors (_contract_vertex), which are then
    dropped; a leaf's are a view of its tensor.  A network past
    config.dim_cap() is refused before anything is built."""
    config.check_dim("state", dims)
    vecs: dict[int, np.ndarray] = {}
    for v in t.vertices[:0:-1]:
        vecs[v] = _contract_vertex(t, dims, v, tensor(v), vecs)
        for c in t.children(v):
            del vecs[c]
        yield v, vecs[v]


def _contract(t: RootedTree, dims: tuple[int, ...], tensor) -> np.ndarray:
    """The vector of a tree network, contracted from the leaves to the root:
    tensor(v) is vertex v's tensor, shaped like a factor, (d_v, child
    widths..., own width), with no own axis at the root."""
    bases = _subtree_bases(t, dims, tensor)
    tops = {v: vecs for v, vecs in bases if t.parent(v) == t.root}
    g = tensor(t.root)[..., None]
    return _contract_vertex(t, dims, t.root, g, tops)[:, 0]


def recompose(d: TreeDecomposition) -> PureState:
    """Rebuild the state a decomposition describes from its canonical
    tensors and edge bases, after checking their shapes."""
    _check_shapes(d)
    amps = _contract(
        d.tree,
        d.dims,
        lambda v: d.tensors[v] if v in d.tensors else d.edge_bases[v],
    )
    return PureState(amps, d.dims)


def vertex_gram_defect(d: TreeDecomposition, v: int) -> float:
    """Deviation of vertex v's columns from orthonormality.

    The combined tensor, flattened over level and child axes, must have
    orthonormal columns indexed by the own-edge index (at the root, a single
    unit-norm column); this is what makes the measurement sets complete.
    """
    g = d.tensors[v]
    mat = g.reshape(-1, 1) if v == d.tree.root else g.reshape(-1, g.shape[-1])
    gram = mat.conj().T @ mat
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


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
    is the vertex tensor divided by the weights of the bond to its right."""
    _require_line(line_tree)
    if s.dims != line_tree.dims:
        raise DimensionMismatch(
            f"state dims {s.dims} vs tree dims {line_tree.dims}"
        )
    d = decompose(s, line_tree, rank_tol)
    n = line_tree.n
    lambdas = [d.schmidt_coeffs[k] for k in range(1, n)]
    gammas = [d.tensors[1] / lambdas[0]]
    for k in range(2, n):
        gammas.append(np.transpose(d.tensors[k], (2, 0, 1)) / lambdas[k - 1])
    gammas.append(d.edge_bases[n].T)
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
    factors and nonleaf tensors are _mps_factors, kept as given, and each
    non-root factor must be an isometry onto its own bond, so that, leaves
    to root, every edge basis is orthonormal.  As from decompose, the edge
    bases are built on the first read of tensors or edge_bases."""
    t, n = m.tree, len(m.dims)
    factors = _mps_factors(m)
    for k in range(2, n + 1):
        mat = factors[k].reshape(-1, factors[k].shape[-1])
        defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max()
        if defect > 1e-6:
            raise MalformedTensors(
                f"cut {k - 1} basis not orthonormal (defect {defect:.2e}); "
                "input is not in canonical form"
            )
    tensors = {k: factors[k] for k in range(1, n)}
    views = cache(
        lambda: (tensors, dict(_subtree_bases(t, m.dims, factors.__getitem__)))
    )
    return TreeDecomposition(
        tree=t,
        dims=m.dims,
        tensors=_PassView(views, 0, tensors),
        edge_bases=_PassView(views, 1, t.vertices[:0:-1]),
        ranks={k: m.lambdas[k - 1].size for k in range(1, n)},
        schmidt_coeffs={k: m.lambdas[k - 1] for k in range(1, n)},
        factors=factors,
    )
