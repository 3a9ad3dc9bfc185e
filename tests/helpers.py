"""Shared construction helpers and independent oracles for the test suite.

Everything here recomputes quantities through a different arithmetic path
than the library (explicit index walks, linear-domain products, series
expansions) so tests compare two independent derivations.
"""

import itertools
import string
import tracemalloc
from dataclasses import dataclass
from functools import reduce
from math import comb, erf, exp, inf, lgamma, log2, pi, prod, sqrt
from statistics import NormalDist

import numpy as np

from treecost import (
    DimensionMismatch,
    EnumerationCapExceeded,
    OutOfRangeIndex,
    PureState,
    RootedTree,
    TreecostError,
    UnknownParty,
    config,
    inverse_normal_cdf,
    root_and_relabel,
    spectrum_entropy,
)
from treecost.approx import _decompose, _edge_projection
from treecost.decomposition import _trimmed_factors
from treecost.states import _split_axes


def line_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def line_tree(n, dims=None, root=1):
    if dims is None:
        dims = {i: 2 for i in range(1, n + 1)}
    elif not isinstance(dims, dict):
        dims = {i: d for i, d in zip(range(1, n + 1), dims)}
    return root_and_relabel(line_edges(n), dims, root)


def star_tree(n, center_dim=2, leaf_dim=2):
    dims = {1: center_dim}
    dims.update({i: leaf_dim for i in range(2, n + 1)})
    return root_and_relabel([(1, i) for i in range(2, n + 1)], dims, 1)


def random_tree(rng, n, dim_choices=(2,), root=None):
    """Uniform random attachment tree on n parties with a random root."""
    edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    dims = {v: int(rng.choice(dim_choices)) for v in range(1, n + 1)}
    if root is None:
        root = int(rng.integers(1, n + 1))
    return root_and_relabel(edges, dims, root)


def traced_peak(run):
    """run() and the peak memory tracemalloc traced while it ran, in
    bytes."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_pure_state(rng, dims):
    total = int(np.prod(dims))
    amps = rng.normal(size=total) + 1j * rng.normal(size=total)
    return PureState(amps / np.linalg.norm(amps), tuple(dims))


def skewed_pure_state(rng, dims, decay=3.0):
    """Random state with geometrically decaying amplitude envelope, so cut
    spectra are far from flat and waterline truncation actually bites."""
    total = int(np.prod(dims))
    envelope = np.exp(-decay * np.arange(total) / total)
    amps = envelope * (rng.normal(size=total) + 1j * rng.normal(size=total))
    return PureState(amps / np.linalg.norm(amps), tuple(dims))


def reachability_split(n_parties, edge_pairs, cut_pair):
    """Partition party ids by BFS reachability after deleting one edge.

    Returns (component of cut_pair[1], the rest) as sorted lists.  Pure
    adjacency walk, no tree structure assumed beyond connectivity.
    """
    adj = {i: set() for i in range(1, n_parties + 1)}
    for a, b in edge_pairs:
        if {a, b} == set(cut_pair):
            continue
        adj[a].add(b)
        adj[b].add(a)
    seen = {cut_pair[1]}
    frontier = [cut_pair[1]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    side = sorted(seen)
    rest = sorted(set(range(1, n_parties + 1)) - seen)
    return side, rest


def descendants_closure(t, v):
    """Vertex v together with every descendant."""
    return frozenset(t.subtree(v))


def cut_matrix(amps, dims, front_parties):
    """Reshape a flat state into the (front, rest) cut matrix by explicit
    index arithmetic; parties are 1-based, party 1 most significant."""
    n = len(dims)
    front = sorted(front_parties)
    rest = [p for p in range(1, n + 1) if p not in front]
    rows = int(np.prod([dims[p - 1] for p in front]))
    cols = int(np.prod([dims[p - 1] for p in rest]))
    mat = np.zeros((rows, cols), dtype=complex)
    # the digits of every flat index at once, least significant first
    rem = np.arange(len(amps))
    digits = []
    for d in reversed(dims):
        digits.append(rem % d)
        rem = rem // d
    digits.reverse()
    r = np.zeros(len(amps), dtype=np.int64)
    for p in front:
        r = r * dims[p - 1] + digits[p - 1]
    c = np.zeros(len(amps), dtype=np.int64)
    for p in rest:
        c = c * dims[p - 1] + digits[p - 1]
    mat[r, c] = amps
    return mat


def cut_rank(amps, dims, front_parties, tol=1e-9):
    sing = np.linalg.svd(cut_matrix(amps, dims, front_parties), compute_uv=False)
    if sing[0] == 0.0:
        return 0
    return int(np.sum(sing > tol * sing[0]))


def canonical_columns(u, sing):
    """Schmidt basis columns in the library's canonical frame, by a column
    loop: each column's largest-magnitude entry made real positive, then
    columns with equal singular values ordered by that entry's position."""
    u = u.copy()
    r = len(sing)
    anchors = []
    for i in range(r):
        j = int(np.argmax(np.abs(u[:, i])))
        anchors.append(j)
        if abs(u[j, i]) > 0:
            u[:, i] *= np.conj(u[j, i] / abs(u[j, i]))
    tol = config.SPECTRUM_MERGE_RTOL * max(sing[0], 1e-300) if r else 0.0
    order = []
    start = 0
    while start < r:
        stop = start + 1
        while stop < r and sing[start] - sing[stop] <= tol:
            stop += 1
        order += sorted(range(start, stop), key=lambda i: anchors[i])
        start = stop
    return u[:, order], sing[order]


def expand_in_child_bases(tree, v, columns, bases):
    """Coefficients of subtree vectors of v in |level> x (child bases), by
    one multi-operand einsum: shape (d_v, child ranks..., n_columns)."""
    dims = tree.dims
    sub = tree.subtree(v)
    children = tree.children(v)
    pos = {p: i for i, p in enumerate(sub)}
    block_parties = [v] + [p for c in children for p in tree.subtree(c)]
    n_cols = columns.shape[1]
    shaped = columns.reshape([dims[p - 1] for p in sub] + [n_cols])
    shaped = shaped.transpose([pos[p] for p in block_parties] + [len(sub)])
    child_dims = [int(np.prod([dims[p - 1] for p in tree.subtree(c)]))
                  for c in children]
    shaped = shaped.reshape([dims[v - 1]] + child_dims + [n_cols])

    letters = string.ascii_lowercase + string.ascii_uppercase
    own, col = letters[0], letters[1]
    flat = [letters[2 + 2 * i] for i in range(len(children))]
    rank = [letters[3 + 2 * i] for i in range(len(children))]
    subs_in = [own + "".join(flat) + col]
    operands = [shaped]
    for i, c in enumerate(children):
        subs_in.append(flat[i] + rank[i])
        operands.append(bases[c].conj())
    subs_out = own + "".join(rank) + col
    return np.einsum(
        ",".join(subs_in) + "->" + subs_out, *operands, optimize=True
    )


def subtree_bases(tree, factors):
    """Dense vectors of every non-root vertex's subtree from factors keyed
    by vertex, shaped like TreeDecomposition.factors, leaves to root: each
    factor's child axes replaced by its children's vectors in one
    multi-operand einsum.  Shape (subtree dimension, own width), subtree
    parties ascending."""
    dims = tree.dims
    letters = string.ascii_lowercase + string.ascii_uppercase
    bases = {}
    for v in reversed(tree.vertices[1:]):
        children = tree.children(v)
        own, col = letters[0], letters[1]
        flat = [letters[2 + 2 * i] for i in range(len(children))]
        rank = [letters[3 + 2 * i] for i in range(len(children))]
        subs_in = [own + "".join(rank) + col]
        operands = [factors[v]]
        for i, c in enumerate(children):
            subs_in.append(flat[i] + rank[i])
            operands.append(bases[c])
        out = np.einsum(
            ",".join(subs_in) + "->" + own + "".join(flat) + col, *operands
        )
        block = [v] + [p for c in children for p in tree.subtree(c)]
        pos = {p: i for i, p in enumerate(block)}
        out = out.reshape([dims[p - 1] for p in block] + [out.shape[-1]])
        out = out.transpose([pos[p] for p in tree.subtree(v)] + [len(block)])
        bases[v] = out.reshape(-1, out.shape[-1])
    return bases


def canonical_factors(dec):
    """The factors of dec trimmed to its ranks (_trimmed_factors) and put
    into the phases and order of canonical_columns: each non-root vertex's
    subtree basis (from subtree_bases) is taken to canonical_columns of
    itself by a unitary Q, which the factor's own axis takes as Q and its
    parent's axis as conj(Q).  Keyed by vertex, the leaves included."""
    t = dec.tree
    bases = subtree_bases(t, dec.factors)
    frames = {}
    for c, basis in bases.items():
        lab = t.edge_above(c).label
        cols = basis[:, : dec.ranks[lab]]
        frames[c] = cols.conj().T @ canonical_columns(
            cols, dec.schmidt_coeffs[lab]
        )[0]
    out = {}
    for v, g in _trimmed_factors(dec).items():
        for axis, c in enumerate(t.children(v), start=1):
            g = np.moveaxis(np.tensordot(g, frames[c].conj(), ([axis], [0])),
                            -1, axis)
        out[v] = g if v == t.root else g @ frames[v]
    return out


def dense_tree_decomposition(amps, tree, rank_tol=1e-9):
    """Tree decomposition by the per-edge dense route: one SVD of the
    explicit cut matrix for every edge, and each nonleaf vertex's tensor as
    the projection of its own basis (at the root, the state) onto its
    levels times its children's bases.

    Returns (ranks, coefficients, bases, tensors), keyed like the fields of
    TreeDecomposition.
    """
    ranks, coeffs, bases = {}, {}, {}
    for e in tree.edges:
        mat = cut_matrix(amps, tree.dims, tree.subtree(e.child))
        u, sing, _ = np.linalg.svd(mat, full_matrices=False)
        rank = int(np.count_nonzero(sing > rank_tol * sing[0]))
        u, sing = canonical_columns(u[:, :rank], sing[:rank])
        ranks[e.label], coeffs[e.label], bases[e.child] = rank, sing, u
    tensors = {}
    for v in tree.vertices:
        if v == tree.root:
            g = expand_in_child_bases(tree, v, np.reshape(amps, (-1, 1)), bases)
            tensors[v] = g[..., 0]
        elif tree.children(v):
            tensors[v] = expand_in_child_bases(tree, v, bases[v], bases)
    return ranks, coeffs, bases, tensors


def partial_trace_walk(amps, dims, keep):
    """Dense partial trace by explicit double index walk."""
    n = len(dims)
    keep = sorted(keep)
    drop = [p for p in range(1, n + 1) if p not in keep]
    dk = int(np.prod([dims[p - 1] for p in keep]))
    rho = np.zeros((dk, dk), dtype=complex)

    def decode(idx):
        digits = []
        rem = idx
        for d in reversed(dims):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        return digits

    for i, vi in enumerate(amps):
        if vi == 0:
            continue
        di = decode(i)
        for j, vj in enumerate(amps):
            dj = decode(j)
            if any(di[p - 1] != dj[p - 1] for p in drop):
                continue
            r = 0
            c = 0
            for p in keep:
                r = r * dims[p - 1] + di[p - 1]
                c = c * dims[p - 1] + dj[p - 1]
            rho[r, c] += vi * np.conj(vj)
    return rho


class EmptyKeepSet(TreecostError):
    """Partial trace asked to keep no subsystem at all."""


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a party
    subset, checked to within 1e-10 (trace to config.NORM_TOL)."""

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        d = prod(dims)
        if mat.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {mat.shape} vs dims {dims}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise ValueError("operator is not Hermitian")
        tr = mat.trace().real
        if abs(tr - 1.0) > config.NORM_TOL:
            raise ValueError(f"trace {tr} is not 1")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("operator has a significantly negative eigenvalue")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigenvalues(self):
        """Real eigenvalues, descending."""
        return np.linalg.eigvalsh(self.matrix)[::-1]


def reduced_state(s, keep):
    """Partial trace keeping the given parties (ascending label order), as
    the product of the state's cut matrix with its adjoint; its d x d
    entries are capped by config.dim_cap() before it is formed."""
    keep = sorted(set(keep))
    if not keep:
        raise EmptyKeepSet("must keep at least one party")
    for v in keep:
        if not 1 <= v <= s.n_parties:
            raise UnknownParty(f"no party labeled {v}")
    dims = tuple(s.dims[v - 1] for v in keep)
    config.check_dim(f"density operator of parties {keep}", dims, 2)
    mat = _split_axes(s, keep)
    return DensityOperator(mat @ mat.conj().T, dims)


def trace_distance(a, b):
    """One-norm of the difference of two density operators: the sum of the
    absolute eigenvalues."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"dims {a.dims} vs {b.dims}")
    return float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def brute_waterline_bits(probs, n, eps):
    """Waterline exponent over the raw n-fold product distribution.

    Builds every product weight explicitly in linear arithmetic, sorts,
    then solves sum_j max(0, mu_j - t) = 1 - eps by a direct scan.  No type
    classes, no logs until the final bit conversion.
    """
    probs = np.asarray(probs, dtype=float)
    prods = probs.copy()
    for _ in range(n - 1):
        prods = np.multiply.outer(prods, probs).ravel()
    prods = np.sort(prods)[::-1]
    target = 1.0 - eps
    csum = np.cumsum(prods)
    for k in range(len(prods)):
        lower = prods[k + 1] if k + 1 < len(prods) else 0.0
        if csum[k] - (k + 1) * lower >= target:
            t = (csum[k] - target) / (k + 1)
            return -log2(t)
    raise AssertionError("mass accounting failed")


def loop_compositions(n, d):
    """Compositions of n into d parts by stars and bars over
    itertools.combinations, one bar position tuple at a time."""
    if comb(n + d - 1, d - 1) > config.TYPE_CLASS_CAP:
        raise EnumerationCapExceeded(
            f"{comb(n + d - 1, d - 1)} type classes for n={n}, d={d} "
            f"exceed cap {config.TYPE_CLASS_CAP}"
        )
    if d == 1:
        return np.array([[n]], dtype=np.int64)
    if d == 2:
        k = np.arange(n + 1, dtype=np.int64)
        return np.stack([k, n - k], axis=1)
    rows = []
    for bars in itertools.combinations(range(n + d - 1), d - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(n + d - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=np.int64)


def loop_spectrum_table(spectrum, n):
    """Arrays of the merged n-fold type-class table by a sequential merge:
    walking the product levels in descending order, a level joins the
    current group when the group's first level lies within
    SPECTRUM_MERGE_RTOL * max(1, |level|) of it.

    Returns (log_mu, log_cnt, cum_mass, log_cum_cnt, boundary), the arrays
    the library's table holds.
    """
    comps = loop_compositions(n, len(spectrum.values))
    log_vals = np.log(np.asarray(spectrum.values))
    log_mults = np.log(np.asarray(spectrum.multiplicities, dtype=float))
    lg = np.array([lgamma(i + 1.0) for i in range(n + 1)])
    log_mu = comps @ log_vals
    # the parts' lgamma terms added one part at a time, left to right:
    # numpy's sum(axis=1) adds in that order only below 8 parts
    parts = lg[comps]
    log_fact = parts[:, 0]
    for j in range(1, parts.shape[1]):
        log_fact = log_fact + parts[:, j]
    log_cnt = lg[n] - log_fact + comps @ log_mults
    order = np.argsort(log_mu)[::-1]
    log_mu = log_mu[order]
    log_cnt = log_cnt[order]

    lv = []
    lc = []
    for mu, cnt in zip(log_mu, log_cnt):
        tol = config.SPECTRUM_MERGE_RTOL * max(1.0, abs(mu))
        if lv and lv[-1] - mu <= tol:
            lc[-1] = np.logaddexp(lc[-1], cnt)
        else:
            lv.append(float(mu))
            lc.append(float(cnt))
    log_mu = np.asarray(lv)
    log_cnt = np.asarray(lc)
    log_mass = log_cnt + log_mu
    total = reduce(np.logaddexp, log_mass)
    log_mass = log_mass - total
    log_mu = log_mu - total
    cum_mass = np.cumsum(np.exp(log_mass))
    log_cum_cnt = np.array(list(itertools.accumulate(log_cnt, np.logaddexp)))
    with np.errstate(divide="ignore"):
        mu_next = np.append(log_mu[1:], -np.inf)
    boundary = cum_mass - np.exp(log_cum_cnt + mu_next)
    return log_mu, log_cnt, cum_mass, log_cum_cnt, boundary


def scalar_block_bits(spectrum, n, deficit):
    """Waterline bits of the n-fold spectrum at one deficit, and the method:
    one spectrum_entropy call, or the two-term Gaussian value
    n H - sqrt(n) s z(deficit) when the type classes exceed the cap."""
    try:
        return spectrum_entropy(spectrum, n, deficit), "type-class"
    except EnumerationCapExceeded:
        z = inverse_normal_cdf(deficit)
        return n * spectrum.entropy - sqrt(n) * spectrum.std_log * z, "gaussian"


def scalar_edge_bounds(spectrum, rank, n, eps, share, delta=1e-9, eta=None):
    """One edge's (upper, upper_method, lower, lower_eta, lower_method) of
    approx_bounds, one scalar_block_bits call per deficit: the upper bound
    at the share's deficit (the exact rank's bits where it allows no
    smoothing), and the lower bound walked over the slack grid point by
    point, the first best slack kept."""
    deficit = share * share / 4.0
    bits, upper_method = inf, "exact-rank"
    if deficit > 0.0:
        bits, upper_method = scalar_block_bits(spectrum, n, deficit)
    if bits == inf:
        upper, upper_method = float(log2(rank)), "exact-rank"
    else:
        upper = bits / n
    deficit0 = eps * eps / 4.0
    slacks = list(np.geomspace(1e-12, 1.0 - deficit0, 202)[1:-1])
    if eta is not None:
        slacks.append(eta)
    best, best_eta, lower_method = -inf, slacks[0], "type-class"
    for h in slacks:
        bits, method = scalar_block_bits(spectrum, n, deficit0 + h)
        if bits == inf:
            continue
        cand = (bits - delta + log2(h)) / n
        if cand > best:
            best, best_eta, lower_method = cand, h, method
    return (
        float(upper), upper_method, float(max(0.0, best)), float(best_eta),
        lower_method,
    )


def build_projection(s, t, e, n, threshold, rank_tol=None):
    """Projection of edge e's cut for one error share, made by the library's
    _edge_projection from the sweep approx_state would read."""
    return _edge_projection(_decompose(s, t, rank_tol), e, n, threshold, rank_tol)


def projection_basis(dec, proj):
    """The single-copy cut eigenvectors of a projection read from dec: the
    first rank columns of the subtree basis the factors build at their
    compressed widths, in the sweep's phases.  (Factors trimmed to the
    ranks first would drop their descendants' columns beyond the stored
    rank, which moves the basis off the cut's Schmidt span once rank_tol
    exceeds config.RANK_TOL: by 1.7e-6 on nearly product states at 1e-4.)"""
    child = dec.tree.edge_by_label(proj.edge).child
    return subtree_bases(dec.tree, dec.factors)[child][:, : proj.rank]


def projection_matrix(dec, proj):
    """Explicit projector of a projection read from dec, on the n-copy
    subtree factor, copy 1 most significant.  Its sub^n x sub^n entries
    (sub the subtree dimension) are capped by config.dim_cap() before the
    basis is built."""
    child = dec.tree.edge_by_label(proj.edge).child
    sub = [dec.dims[u - 1] for u in dec.tree.subtree(child)]
    config.check_dim(f"projector of edge {proj.edge}", sub, 2 * proj.n)
    w_n = reduce(np.kron, [projection_basis(dec, proj)] * proj.n)
    cols = w_n[:, proj.keep_mask]
    return cols @ cols.conj().T


def _project_block(block, dims, dec, proj, dtype=complex):
    """An n-copy block (product_block_amps layout) with one projection
    applied as its explicit projection_matrix, the Kronecker projector on
    the subtree factor of the n copies, in the given precision: the
    factor's axes (copy major, parties ascending) are moved to the front,
    multiplied and moved back."""
    n, t = proj.n, dec.tree
    # block axis (p - 1) * n + c is copy c + 1 of party p
    shape = [d for d in dims for _ in range(n)]
    sub = t.subtree(t.edge_by_label(proj.edge).child)
    front = [(p - 1) * n + c for c in range(n) for p in sub]
    order = front + [i for i in range(len(shape)) if i not in front]
    moved = block.reshape(shape).transpose(order)
    P = projection_matrix(dec, proj).astype(dtype)
    moved = (P @ moved.reshape(P.shape[0], -1)).reshape(moved.shape)
    return moved.transpose(np.argsort(order)).reshape(-1)


def dense_union_deficits(s, t, n, thresholds, rank_tol=None):
    """Per-edge deficits of ApproxState.union_bound (which
    union_bound_check returns) by the dense route, in double precision:
    each nontrivial projection applied alone to the explicit n-copy block,
    and the deficit read as one minus its kept weight over the block's."""
    block = product_block_amps(s.amplitudes, s.dims, n)
    block_nsq = float(np.vdot(block, block).real)
    dec = _decompose(s, t, rank_tol)
    deficits = {}
    for e in t.edges:
        share = float(thresholds.get(e.label, 0.0))
        proj = _edge_projection(dec, e, n, share, rank_tol)
        if proj.trivial:
            deficits[proj.edge] = 0.0
            continue
        kept = _project_block(block, s.dims, dec, proj)
        deficits[proj.edge] = float(
            max(0.0, 1.0 - np.vdot(kept, kept).real / block_nsq)
        )
    return deficits


def dense_block_overlaps(s, ap):
    """(<psi^(x)n|M psi^(x)n>, ||M psi^(x)n||^2, ||psi^(x)n||^2, M psi^(x)n)
    on the explicit n-copy block, M being the nontrivial projections of the
    ApproxState ap applied in label order, in extended precision."""
    block = product_block_amps(s.amplitudes, s.dims, ap.n)
    block = block.astype(np.clongdouble)
    seq = block
    for proj in ap.projections:
        if not proj.trivial:
            seq = _project_block(
                seq, s.dims, ap.decomposition, proj, np.clongdouble
            )
    return (
        np.vdot(block, seq),
        np.vdot(seq, seq).real,
        np.vdot(block, block).real,
        seq,
    )


def series_normal_cdf(x):
    """Standard normal CDF via the error function; the library path goes
    through erfc with halved argument, this one through erf directly."""
    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


normal_pdf = NormalDist().pdf


def series_inverse_cdf(p, lo=-40.0, hi=40.0):
    """Bisection inverse of series_normal_cdf, for cross-checking."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_longdouble(probs):
    p = np.asarray(probs, dtype=np.longdouble)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def std_log_longdouble(probs):
    p = np.asarray(probs, dtype=np.longdouble)
    p = p[p > 0]
    mean = -(p * np.log2(p)).sum()
    second = (p * np.log2(p) ** 2).sum()
    return float(np.sqrt(max(np.longdouble(0), second - mean * mean)))


def product_block_amps(amps, dims, n):
    """n-copy block amplitudes in party-major order with copy 1 most
    significant inside each party register, by explicit index decoding."""
    amps = np.asarray(amps)
    n_parties = len(dims)
    block_dims = [d**n for d in dims]
    total = int(np.prod(block_dims))
    out = np.zeros(total, dtype=complex)
    for idx in range(total):
        rem = idx
        regs = []
        for bd in reversed(block_dims):
            regs.append(rem % bd)
            rem //= bd
        regs.reverse()
        copy_indices = []
        for c in range(n):
            flat = 0
            for p in range(n_parties):
                reg = regs[p]
                shift = dims[p] ** (n - 1 - c)
                digit = (reg // shift) % dims[p]
                flat = flat * dims[p] + digit
            copy_indices.append(flat)
        value = 1.0 + 0j
        for flat in copy_indices:
            value *= amps[flat]
        out[idx] = value
    return out


def generalized_pauli_x(d, x):
    """Cyclic shift by x on d levels: maps level l to level (l + x) mod d."""
    if not 0 <= x < d:
        raise OutOfRangeIndex(f"shift {x} out of range for dimension {d}")
    return np.roll(np.eye(d, dtype=complex), x, axis=0)


def generalized_pauli_z(d, z):
    """Phase gradient: level l picks up exp(2 pi i z l / d)."""
    if not 0 <= z < d:
        raise OutOfRangeIndex(f"phase index {z} out of range for dimension {d}")
    return np.diag(np.exp(2j * np.pi * z * np.arange(d) / d))


def correction_unitary(d, x, z):
    """Inverse transpose of the outcome displacement Z^z X^x as a dense
    matrix; undoes what a remote measurement imprints on the far half of a
    shared pair."""
    if not 0 <= z < d:
        raise OutOfRangeIndex(f"phase index {z} out of range for dimension {d}")
    return generalized_pauli_z(d, (d - z) % d) @ generalized_pauli_x(d, x)


def dense_forced_branch(program, outcomes, disable_corrections=()):
    """One forced branch of the protocol by the explicit route: in vertex
    label order, each child pair is attached as a dense maximally entangled
    tensor when its parent measures, outcome j of v is applied as the
    operator base (I x Z^z_1 X^x_1 x ... ) / sqrt(C) built by np.kron on
    (own edge, the children's pair halves), with the pairs (x_c, z_c) of j
    read from an itertools.product table, and each correction is a dense
    matrix.  Returns (amplitudes in party order, branch probability), the
    probability being the product of the squared norms of the measured
    registers."""
    t = program.tree
    state = {"tensor": np.ones((), dtype=complex), "labels": []}

    def apply(mat, axes, out_label):
        labels = state["labels"]
        idx = [labels.index(a) for a in axes]
        rest = [i for i in range(len(labels)) if i not in idx]
        moved = np.transpose(state["tensor"], idx + rest)
        res = mat @ moved.reshape(mat.shape[1], -1)
        state["tensor"] = res.reshape((mat.shape[0],) + moved.shape[len(idx):])
        state["labels"] = [out_label] + [labels[i] for i in rest]

    def child_ranks(u):
        return [program.ranks[t.edge_above(c).label] for c in t.children(u)]

    def pairs(u):
        per_child = [
            [(x, z) for x in range(r) for z in range(r)] for r in child_ranks(u)
        ]
        return list(itertools.product(*per_child))[outcomes[u]]

    prob = 1.0
    for v in t.vertices:
        axes = []
        if v != t.root:
            lab = t.edge_above(v).label
            axes = [("c", lab)]
            if lab not in disable_corrections:
                u = t.parent(v)
                x, z = pairs(u)[t.children(u).index(v)]
                apply(correction_unitary(program.ranks[lab], x, z), axes, axes[0])
        if v in program.leaf_isometries:
            apply(program.leaf_isometries[v], axes, ("t", v))
            continue
        ranks = child_ranks(v)
        for c, r in zip(t.children(v), ranks):
            lab = t.edge_above(c).label
            pair = np.eye(r, dtype=complex) / np.sqrt(r)
            state["tensor"] = np.multiply.outer(state["tensor"], pair)
            state["labels"] = state["labels"] + [("p", lab), ("c", lab)]
            axes.append(("p", lab))
        base = program.bases[v]
        factors = [np.eye(base.shape[1])] + [
            generalized_pauli_z(r, z) @ generalized_pauli_x(r, x)
            for (x, z), r in zip(pairs(v), ranks)
        ]
        op = base.reshape(base.shape[0], -1) @ reduce(np.kron, factors)
        apply(op / np.sqrt(np.prod(ranks)), axes, ("t", v))
        p = float(np.vdot(state["tensor"], state["tensor"]).real)
        prob *= p
        state["tensor"] = state["tensor"] / np.sqrt(p)
    labels = state["labels"]
    order = sorted(range(len(labels)), key=lambda i: labels[i][1])
    return np.transpose(state["tensor"], order).reshape(-1), prob


def all_transcript_outcomes(transcripts):
    return {tuple(sorted(tr.outcomes.items())) for tr in transcripts}
