"""Recursive tree decomposition of a state and the line-tree canonical form.

A state on a rooted tree is expanded vertex by vertex: each non-root vertex v
contributes the Schmidt basis of the bipartition at its parent edge, and each
nonleaf vertex carries a coefficient tensor expressing its own edge basis (or,
at the root, the full state) in the product of its computational basis and its
children's edge bases.  The coefficient tensor of vertex v is stored with axis
order

    (own level l, child indices in ascending child order, own edge index)

where the trailing own-edge axis is absent at the root.

decompose computes all of it in one leaves-to-root sweep, the hierarchical
SVD (on a line, the tensor-train SVD).  A working tensor W starts as the
state tensor, one axis per party, and the vertices are visited in descending
label order, so every child comes before its parent.  At a non-root vertex v
one SVD of W, with v's party axis and its children's bond axes (ascending)
flattened into the rows, gives U s Vh: U, shaped (d_v, child ranks..., r_v),
is v's tensor, and those axes of W are replaced by one bond axis of v holding
diag(s) Vh (kept as W's last axis, so a line needs no transposition).  W
shrinks as the sweep climbs, and what is left at the root is the root's
tensor.  The children's edge bases have orthonormal columns, so s
is the Schmidt spectrum of the state at v's edge, and U expanded in the
children's dense bases is the dense Schmidt basis of the subtree.

Canonicalization acts on that dense basis: the phase and order rules of
states._canonical_frame (the same rules schmidt_wrt_edge applies) are
computed from it, and the same column phases and order are applied to U and
to the rows of the new bond axis.  Edge bases and tensors therefore agree
with per-cut Schmidt decompositions wherever the spectrum is nondegenerate.

Truncation: W is compressed at the tighter of rank_tol and config.RANK_TOL,
so every cut sees the spectrum of the state itself, while ranks,
coefficients, bases and tensors are stored at rank_tol; a stored tensor keeps
only the rows of its children's stored columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import config
from .errors import DimensionMismatch, MalformedTensors, NotALine
from .states import PureState, _canonical_frame
from .tree import RootedTree


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Per-vertex coefficient tensors and per-edge Schmidt bases.

    tensors[v] is the combined coefficient tensor of nonleaf vertex v.
    edge_bases[c] holds, for each non-root vertex c, the orthonormal basis
    of the subtree factor at the edge above c (columns, subtree parties
    ascending); ranks and schmidt_coeffs are keyed by edge label.
    """

    tree: RootedTree
    dims: tuple[int, ...]
    tensors: dict[int, np.ndarray]
    edge_bases: dict[int, np.ndarray]
    ranks: dict[int, int]
    schmidt_coeffs: dict[int, np.ndarray]

    def subtree_dim(self, v: int) -> int:
        return prod(self.dims[u - 1] for u in self.tree.subtree(v))


def decompose(
    s: PureState, t: RootedTree, rank_tol: float | None = None
) -> TreeDecomposition:
    """Expand a state into per-vertex coefficient tensors over the tree."""
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    if rank_tol is None:
        rank_tol = config.RANK_TOL
    compress_tol = min(rank_tol, config.RANK_TOL)
    # axes of the working tensor: party v is v, the bond above vertex c is -c
    w = s.tensor
    axes = list(t.vertices)
    # dense edge bases at the compressed ranks, which later vertices expand in
    bases: dict[int, np.ndarray] = {}
    tensors: dict[int, np.ndarray] = {}
    edge_bases: dict[int, np.ndarray] = {}
    ranks: dict[int, int] = {}
    coeffs: dict[int, np.ndarray] = {}

    def kept_rows(children):
        return tuple(slice(ranks[t.edge_above(c).label]) for c in children)

    for v in reversed(t.vertices[1:]):
        children = t.children(v)
        front = [axes.index(a) for a in [v] + [-c for c in children]]
        rest = [i for i in range(len(axes)) if i not in front]
        w = w.transpose(rest + front)
        rest_shape, rows = w.shape[: len(rest)], w.shape[len(rest) :]
        # the cut matrix M is (rows, rest); w holds M^T = V s U^T, and
        # LAPACK's SVD runs faster on the tall one of M and M^T
        mat = w.reshape(-1, prod(rows))
        del w
        if mat.shape[0] >= mat.shape[1]:
            vt, sing, ut = np.linalg.svd(mat, full_matrices=False)
            u = ut.T
        else:
            u, sing, vh = np.linalg.svd(mat.T, full_matrices=False)
            vt = vh.T
        del mat
        kept = int(np.count_nonzero(sing > compress_tol * sing[0]))
        rank = int(np.count_nonzero(sing[:kept] > rank_tol * sing[0]))
        u, sing, vt = u[:, :kept], sing[:kept], vt[:, :kept]
        basis = _contract_vertex(t, t.dims, v, u.reshape(rows + (kept,)), bases)
        # canonical frame of the stored columns; the rest only feed W
        phases, order = _canonical_frame(basis[:, :rank], sing[:rank])
        order += range(rank, kept)
        phases = np.concatenate([phases, np.ones(kept - rank)])
        if order != sorted(order):
            u, basis, vt = u[:, order], basis[:, order], vt[:, order]
            sing, phases = sing[order], phases[order]
        g = (u * np.conj(phases)).reshape(rows + (kept,))
        basis *= np.conj(phases)
        vt *= phases * sing
        w = vt.reshape(rest_shape + (kept,))
        axes = [axes[i] for i in rest] + [-v]

        bases[v] = basis
        lab = t.edge_above(v).label
        ranks[lab] = rank
        coeffs[lab] = sing[:rank]
        edge_bases[v] = basis[:, :rank]
        if children:
            tensors[v] = g[(slice(None),) + kept_rows(children) + (slice(rank),)]

    children = t.children(t.root)
    g = w.transpose([axes.index(a) for a in [t.root] + [-c for c in children]])
    tensors[t.root] = g[(slice(None),) + kept_rows(children)].copy()
    return TreeDecomposition(
        tree=t,
        dims=t.dims,
        tensors=tensors,
        edge_bases=edge_bases,
        ranks=ranks,
        schmidt_coeffs=coeffs,
    )


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


def recompose(d: TreeDecomposition) -> PureState:
    """Rebuild the state a decomposition describes."""
    _check_shapes(d)
    t = d.tree
    vecs: dict[int, np.ndarray] = {}
    for v in sorted(t.vertices, reverse=True):
        if v == t.root:
            continue
        if t.is_leaf(v):
            vecs[v] = d.edge_bases[v]
        else:
            vecs[v] = _contract_vertex(t, d.dims, v, d.tensors[v], vecs)
    root = d.tensors[t.root][..., None]
    amps = _contract_vertex(t, d.dims, t.root, root, vecs)[:, 0]
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
    )
