"""Recursive tree decomposition of a state and the line-tree canonical form.

A state on a rooted tree is expanded vertex by vertex: each non-root vertex v
contributes the Schmidt basis of the bipartition at its parent edge, and each
nonleaf vertex carries a coefficient tensor expressing its own edge basis (or,
at the root, the full state) in the product of its computational basis and its
children's edge bases.  The coefficient tensor of vertex v is stored with axis
order

    (own level l, child indices in ascending child order, own edge index)

where the trailing own-edge axis is absent at the root.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from math import prod

import numpy as np

from . import config
from .errors import DimensionMismatch, MalformedTensors, NotALine
from .states import PureState, SchmidtData, schmidt_wrt_edge
from .tree import RootedTree

_LETTERS = string.ascii_lowercase + string.ascii_uppercase


@dataclass(frozen=True)
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


def _expand_in_child_bases(
    tree: RootedTree,
    dims: tuple[int, ...],
    v: int,
    columns: np.ndarray,
    edge_bases: dict[int, np.ndarray],
) -> np.ndarray:
    """Coefficients of subtree vectors in |l> x (child edge bases).

    columns has shape (subtree dimension of v, n_columns); the result has
    shape (d_v, child ranks..., n_columns).  Exact because each column's
    reduced support lies inside the child bases' span.
    """
    sub = tree.subtree(v)
    children = tree.children(v)
    pos = {p: i for i, p in enumerate(sub)}
    block_parties = [v] + [p for c in children for p in tree.subtree(c)]
    perm = [pos[p] for p in block_parties]
    n_cols = columns.shape[1]
    shaped = columns.reshape([dims[p - 1] for p in sub] + [n_cols])
    shaped = shaped.transpose(perm + [len(sub)])
    child_dims = [prod(dims[p - 1] for p in tree.subtree(c)) for c in children]
    shaped = shaped.reshape([dims[v - 1]] + child_dims + [n_cols])

    own, col = _LETTERS[0], _LETTERS[1]
    flat = [_LETTERS[2 + 2 * i] for i in range(len(children))]
    rank = [_LETTERS[3 + 2 * i] for i in range(len(children))]
    subs_in = [own + "".join(flat) + col]
    operands = [shaped]
    for i, c in enumerate(children):
        subs_in.append(flat[i] + rank[i])
        operands.append(edge_bases[c].conj())
    subs_out = own + "".join(rank) + col
    return np.einsum(",".join(subs_in) + "->" + subs_out, *operands)


def decompose(
    s: PureState, t: RootedTree, rank_tol: float | None = None
) -> TreeDecomposition:
    """Expand a state into per-vertex coefficient tensors over the tree."""
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    schmidt: dict[int, SchmidtData] = {
        e.child: schmidt_wrt_edge(s, t, e, rank_tol) for e in t.edges
    }
    edge_bases = {c: sd.left_basis for c, sd in schmidt.items()}
    ranks = {t.edge_above(c).label: sd.rank for c, sd in schmidt.items()}
    coeffs = {t.edge_above(c).label: sd.coefficients for c, sd in schmidt.items()}

    tensors: dict[int, np.ndarray] = {}
    for v in t.vertices:
        if v != t.root and t.is_leaf(v):
            continue
        if v == t.root:
            columns = s.amplitudes.reshape(-1, 1)
        else:
            columns = edge_bases[v]
        g = _expand_in_child_bases(t, t.dims, v, columns, edge_bases)
        tensors[v] = g[..., 0] if v == t.root else g
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
    d: TreeDecomposition, v: int, child_vecs: dict[int, np.ndarray]
) -> np.ndarray:
    """Subtree vectors of vertex v from its tensor and its children's vectors.

    Returns (subtree dimension, n_columns); at the root the single column is
    the full state.
    """
    t = d.tree
    children = t.children(v)
    g = d.tensors[v]
    if v == t.root:
        g = g[..., None]
    own, col = _LETTERS[0], _LETTERS[1]
    flat = [_LETTERS[2 + 2 * i] for i in range(len(children))]
    rank = [_LETTERS[3 + 2 * i] for i in range(len(children))]
    subs_in = [own + "".join(rank) + col]
    operands = [g]
    for i, c in enumerate(children):
        subs_in.append(flat[i] + rank[i])
        operands.append(child_vecs[c])
    out = np.einsum(
        ",".join(subs_in) + "->" + own + "".join(flat) + col, *operands
    )
    block_parties = [v] + [p for c in children for p in t.subtree(c)]
    n_cols = out.shape[-1]
    full = [d.dims[p - 1] for c in children for p in t.subtree(c)]
    shaped = out.reshape([d.dims[v - 1]] + full + [n_cols])
    sub = t.subtree(v)
    block_pos = {p: i for i, p in enumerate(block_parties)}
    perm = [block_pos[p] for p in sub]
    shaped = shaped.transpose(perm + [len(block_parties)])
    return shaped.reshape(-1, n_cols)


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
            vecs[v] = _contract_vertex(d, v, vecs)
    amps = _contract_vertex(d, t.root, vecs)[:, 0]
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


@dataclass(frozen=True)
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
    """Sequential Schmidt decompositions along a line tree."""
    _require_line(line_tree)
    if s.dims != line_tree.dims:
        raise DimensionMismatch(
            f"state dims {s.dims} vs tree dims {line_tree.dims}"
        )
    n = line_tree.n
    dims = s.dims
    cuts = [schmidt_wrt_edge(s, line_tree, e, rank_tol) for e in line_tree.edges]
    lambdas = [sd.coefficients for sd in cuts]
    gammas: list[np.ndarray] = [cuts[0].right_basis]
    for k in range(2, n):
        w_prev = cuts[k - 2].left_basis
        w_next = cuts[k - 1].left_basis
        d_next = w_next.shape[0]
        shaped = w_prev.reshape(dims[k - 1], d_next, w_prev.shape[1])
        g = np.einsum("iJa,Jb->aib", shaped, w_next.conj())
        g = g / lambdas[k - 1][None, None, :]
        gammas.append(g)
    gammas.append(cuts[n - 2].left_basis.T)
    return CanonicalMPS(
        gammas=tuple(gammas),
        lambdas=tuple(lambdas),
        dims=dims,
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
