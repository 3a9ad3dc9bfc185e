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
Q and gesdd's tall singular-vector factor are never formed.  Smaller or
squarer cuts take one gesdd call, whose factors give the bond axis.

The canonical pass runs once, on the first read of tensors or edge_bases,
and builds both.  Leaves to root, it expands each U in its children's
dense edge bases (_contract_vertex), which gives the dense Schmidt basis of
the subtree; the phase and order rules of states._canonical_frame (the
same rules schmidt_wrt_edge applies) are computed from that basis and
applied to U's own axis, and each child's phases and order are applied to
its parent's U along that child's axis (and to the root tensor), as if the
sweep had seen canonical bonds.  Edge bases and tensors therefore agree
with per-cut Schmidt decompositions wherever the spectrum is nondegenerate.
Ranks and Schmidt coefficients come from the sweep alone, so code that
reads only them never builds a dense basis; the coefficients stay
descending, also where the order rule reorders the columns of a group of
coefficients equal to within config.SPECTRUM_MERGE_RTOL.

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
from .errors import DimensionMismatch, MalformedTensors, NotALine
from .states import PureState, _canonical_frame, _numerical_rank
from .tree import RootedTree

# Smallest cut, in entries of M^T, that takes the R-SVD route (which also
# needs M^T at least twice as tall as wide: squarer, R is nearly as large
# as M and the QR pass is overhead).  On one core (OpenBLAS 0.3.31,
# complex128) R-SVD, bond product included, draws level with gesdd near
# 2^10 entries in a warm process (512 x 2 and 256 x 4: 0.03 ms each) and
# takes a quarter to a half of its time from 2^14 (8192 x 2: 0.13 vs
# 0.49 ms; 1024 x 16: 0.38 vs 0.88 ms).  But the first QR call in a fresh
# process pays about 0.2-0.5 ms to fault the routine in, which the gain
# covers only from about 2^14 entries (first call, gesdd already warm:
# 1024 x 4 0.27 vs 0.32 ms, 4096 x 4 0.69 vs 1.25 ms).
_QR_MIN_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Per-vertex tensors and per-edge Schmidt data.

    factors[v] is vertex v's tensor in the sweep's gauge, (d_v, child
    widths..., own width) with no own axis at the root, at the compressed
    widths.  tensors[v] is the coefficient tensor of nonleaf vertex v in the
    canonical frame, and edge_bases[c], for each non-root vertex c, the
    orthonormal basis of the subtree factor at the edge above c (columns,
    subtree parties ascending); ranks and schmidt_coeffs are keyed by edge
    label.  From decompose, tensors and edge_bases are read-only mappings
    whose keys are known up front: the first read of a value from either
    runs the canonical pass once and builds both.  decomposition_from_mps
    and dataclasses.replace take plain dicts.
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
    rest (U^H M)^T = mat @ conj(U) of the cut matrix M = mat^T."""
    m, n = mat.shape
    bond = None
    if m >= 2 * n and m * n >= _QR_MIN_ENTRIES:
        _, sing, vh = np.linalg.svd(np.linalg.qr(mat, mode="r"))
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
    """Read-only view of one of the canonical pass's dicts: keys known up
    front, values built on the first read by source, the cached pass."""

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
    # per vertex, the (order or None for no reordering, phases) taking its
    # sweep columns to canonical ones, and its dense basis at the
    # compressed width
    frames: dict[int, tuple[list[int] | None, np.ndarray]] = {}
    bases: dict[int, np.ndarray] = {}
    tensors: dict[int, np.ndarray] = {}
    edge_bases: dict[int, np.ndarray] = {}
    for v in reversed(t.vertices):
        children = t.children(v)
        g = factors[v]
        for axis, c in enumerate(children, start=1):
            order, phases = frames[c]
            if order is not None:
                g = np.take(g, order, axis=axis)
            shape = [1] * g.ndim
            shape[axis] = -1
            g = g * phases.reshape(shape)
        kept_rows = tuple(slice(stored[c].size) for c in children)
        if v == t.root:
            tensors[v] = g[(slice(None),) + kept_rows].copy()
            break
        sing = stored[v]
        rank, kept = sing.size, g.shape[-1]
        basis = _contract_vertex(t, t.dims, v, g, bases)
        # canonical frame of the stored columns; the columns past the rank
        # only carry the rows the parent's factor was compressed over
        phases, order = _canonical_frame(basis[:, :rank], sing)
        order += range(rank, kept)
        phases = np.concatenate([phases, np.ones(kept - rank)])
        if order != sorted(order):
            g, basis, phases = g[..., order], basis[:, order], phases[order]
        else:
            order = None
        g = g * np.conj(phases)
        if children:
            basis *= np.conj(phases)
        else:
            basis = g.reshape(basis.shape)  # a leaf's basis is its factor
        frames[v] = (order, phases)
        bases[v] = basis
        edge_bases[v] = basis[:, :rank]
        if children:
            tensors[v] = g[(slice(None),) + kept_rows + (slice(rank),)]
    return tensors, edge_bases


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


def _contract(t: RootedTree, dims: tuple[int, ...], tensor) -> np.ndarray:
    """The vector of a tree network, contracted from the leaves to the root.

    tensor(v) is vertex v's tensor, shaped like a factor: (d_v, child
    widths..., own width), with no own axis at the root.  Each child's
    subtree vectors are freed once its parent has absorbed them.
    """
    vecs: dict[int, np.ndarray] = {}
    for v in reversed(t.vertices):
        g = tensor(v)
        if v == t.root:
            g = g[..., None]
        vecs[v] = _contract_vertex(t, dims, v, g, vecs)
        for c in t.children(v):
            del vecs[c]
    return vecs[t.root][:, 0]


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


def contract_mps(m: CanonicalMPS) -> PureState:
    """Fold the site tensors and bond weights back into a dense state."""
    n = len(m.dims)
    t = m.gammas[0] * m.lambdas[0][None, :]
    for k in range(2, n):
        t = np.tensordot(t, m.gammas[k - 1], axes=(t.ndim - 1, 0))
        t = t * m.lambdas[k - 1]
    t = np.tensordot(t, m.gammas[n - 1], axes=(t.ndim - 1, 0))
    return PureState(t.reshape(-1), m.dims)


def decomposition_from_mps(m: CanonicalMPS) -> TreeDecomposition:
    """Per-vertex tensors of the line tree read off a canonical form."""
    t = m.tree
    n = len(m.dims)
    if len(m.gammas) != n or len(m.lambdas) != n - 1:
        raise MalformedTensors(
            f"{len(m.gammas)} site tensors / {len(m.lambdas)} bonds for {n} parties"
        )
    bonds = [lam.size for lam in m.lambdas]
    if m.gammas[0].shape != (m.dims[0], bonds[0]):
        raise MalformedTensors("first site tensor does not match bond 1")
    for k in range(2, n):
        want = (bonds[k - 2], m.dims[k - 1], bonds[k - 1])
        if m.gammas[k - 1].shape != want:
            raise MalformedTensors(
                f"site {k} tensor shape {m.gammas[k - 1].shape}, expected {want}"
            )
    if m.gammas[n - 1].shape != (bonds[n - 2], m.dims[n - 1]):
        raise MalformedTensors("last site tensor does not match its bond")

    tensors: dict[int, np.ndarray] = {}
    tensors[1] = m.gammas[0] * m.lambdas[0][None, :]
    for k in range(2, n):
        g = np.transpose(m.gammas[k - 1], (1, 2, 0))
        tensors[k] = g * m.lambdas[k - 1][None, :, None]

    edge_bases: dict[int, np.ndarray] = {n: m.gammas[n - 1].T}
    nxt = edge_bases[n]
    for k in range(n - 1, 1, -1):
        g3 = m.gammas[k - 1] * m.lambdas[k - 1][None, None, :]
        b = np.einsum("aib,Jb->iJa", g3, nxt)
        nxt = b.reshape(-1, b.shape[-1])
        edge_bases[k] = nxt
    for k in range(2, n + 1):
        basis = edge_bases[k]
        defect = np.abs(
            basis.conj().T @ basis - np.eye(basis.shape[1])
        ).max()
        if defect > 1e-6:
            raise MalformedTensors(
                f"cut {k - 1} basis not orthonormal (defect {defect:.2e}); "
                "input is not in canonical form"
            )

    return TreeDecomposition(
        tree=t,
        dims=m.dims,
        tensors=tensors,
        edge_bases=edge_bases,
        ranks={k: bonds[k - 1] for k in range(1, n)},
        schmidt_coeffs={k: m.lambdas[k - 1] for k in range(1, n)},
        factors={**tensors, n: edge_bases[n]},
    )
