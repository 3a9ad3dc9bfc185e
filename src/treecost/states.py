"""Dense pure states: construction, partial trace, Schmidt data, distances.

Amplitude vectors use mixed-radix indexing with vertex 1 as the most
significant digit, i.e. reshaping to the per-party dimension tuple in label
order gives the state tensor.  Whenever a subset of parties is flattened into
one factor, its parties appear in ascending label order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    EmptyKeepSet,
    IncompatibleDims,
    UnknownParty,
    ZeroNorm,
)
from .tree import Edge, RootedTree, bipartition


@dataclass(frozen=True)
class PureState:
    """Normalized dense state over ordered parties."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatch("party dimensions must be >= 1")
        if amps.size != prod(dims):
            raise DimensionMismatch(
                f"{amps.size} amplitudes do not fill dimensions {dims}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > config.NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1")

    @classmethod
    def _from_rows(
        cls, rows: np.ndarray, dims: tuple[int, ...]
    ) -> list["PureState"]:
        """One state per row of a complex (B, prod(dims)) array, with the
        checks of the constructor made once for the whole batch."""
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatch("party dimensions must be >= 1")
        if rows.shape[1] != prod(dims):
            raise DimensionMismatch(
                f"{rows.shape[1]} amplitudes do not fill dimensions {dims}"
            )
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > config.NORM_TOL)
        if len(bad):
            raise ValueError(f"state norm {norms[bad[0]]} is not 1")
        states = []
        for amps in rows:
            state = object.__new__(cls)
            object.__setattr__(state, "amplitudes", amps)
            object.__setattr__(state, "dims", dims)
            states.append(state)
        return states

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise DimensionMismatch(f"dims {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def normalized_state(amplitudes: np.ndarray, dims: Sequence[int]) -> PureState:
    """PureState from an unnormalized vector; ZeroNorm if there is nothing left."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ZeroNorm("amplitude vector has numerically zero norm")
    return PureState(amps / norm, tuple(dims))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a party subset."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        d = prod(dims)
        if mat.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {mat.shape} vs dims {dims}")
        if np.abs(mat - mat.conj().T).max() > config.HERMITIAN_TOL:
            raise ValueError("operator is not Hermitian")
        tr = mat.trace().real
        if abs(tr - 1.0) > config.NORM_TOL:
            raise ValueError(f"trace {tr} is not 1")
        if np.linalg.eigvalsh(mat).min() < -config.PSD_TOL:
            raise ValueError("operator has a significantly negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, descending."""
        return np.linalg.eigvalsh(self.matrix)[::-1]


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition of a state across one tree bipartition.

    coefficients are the descending singular values above the rank cutoff;
    left_basis columns live on the child-side (subtree) factor and right_basis
    columns on the complement, each factor flattened in ascending party order.
    Reassembling sum_l c_l * left[:, l] x right[:, l] and undoing the party
    permutation reproduces the state.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int
    subtree_parties: tuple[int, ...]
    complement_parties: tuple[int, ...]


def make_named_state(
    name: str,
    n: int,
    dims: Sequence[int] | None = None,
    *,
    k: int | None = None,
    seed: int | None = None,
) -> PureState:
    """Construct a named family member: w, ghz, dicke, bell, product, random.

    w/ghz/dicke/bell require qubits; dicke additionally needs the excitation
    count k; random draws complex standard-normal amplitudes from the seed.
    """
    name = name.lower()
    if n < 1:
        raise IncompatibleDims("party count must be >= 1")
    if dims is None:
        dims = (2,) * n
    dims = tuple(int(d) for d in dims)
    if len(dims) != n:
        raise IncompatibleDims(f"{len(dims)} dims for {n} parties")
    total = prod(dims)

    if name in ("w", "ghz", "dicke", "bell"):
        if any(d != 2 for d in dims):
            raise IncompatibleDims(f"{name} states are defined on qubits only")
    if name == "w":
        amps = np.zeros(total, dtype=np.complex128)
        for i in range(n):
            amps[1 << (n - 1 - i)] = 1.0
        amps /= sqrt(n)
    elif name == "ghz":
        if n < 2:
            raise IncompatibleDims("ghz needs at least 2 parties")
        amps = np.zeros(total, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / sqrt(2.0)
    elif name == "dicke":
        if k is None:
            raise IncompatibleDims("dicke needs the excitation count k")
        if not 0 <= k <= n:
            raise IncompatibleDims(f"dicke k={k} outside 0..{n}")
        amps = np.zeros(total, dtype=np.complex128)
        for idx in range(total):
            if bin(idx).count("1") == k:
                amps[idx] = 1.0
        amps /= sqrt(comb(n, k))
    elif name == "bell":
        if n != 2:
            raise IncompatibleDims("bell is a two-party state")
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / sqrt(2.0)
    elif name == "product":
        amps = np.zeros(total, dtype=np.complex128)
        amps[0] = 1.0
    elif name == "random":
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        amps /= np.linalg.norm(amps)
    else:
        raise IncompatibleDims(f"unknown named state {name!r}")
    return PureState(amps, dims)


def _split_axes(state: PureState, front: Sequence[int]) -> np.ndarray:
    """State as a matrix with the `front` parties (ascending) flattened first."""
    front = list(front)
    rest = [v for v in range(1, state.n_parties + 1) if v not in front]
    perm = [v - 1 for v in front + rest]
    d_front = prod(state.dims[v - 1] for v in front)
    return state.tensor.transpose(perm).reshape(d_front, -1)


def reduced_state(s: PureState, keep: Iterable[int]) -> DensityOperator:
    """Partial trace keeping the given parties (ascending label order)."""
    keep = sorted(set(keep))
    if not keep:
        raise EmptyKeepSet("must keep at least one party")
    for v in keep:
        if not 1 <= v <= s.n_parties:
            raise UnknownParty(f"no party labeled {v}")
    mat = _split_axes(s, keep)
    rho = mat @ mat.conj().T
    dims = tuple(s.dims[v - 1] for v in keep)
    return DensityOperator(rho, dims)


def _canonicalize_vectors(u: np.ndarray, vh: np.ndarray, sing: np.ndarray):
    """Fix singular-vector phases and order inside degenerate groups.

    Each left singular vector is rotated so its largest-magnitude entry is
    real positive (the right vector absorbs the opposite phase); vectors with
    equal singular values are then ordered by that anchor entry's position.
    """
    r = sing.size
    anchors = np.empty(r, dtype=int)
    for i in range(r):
        j = int(np.argmax(np.abs(u[:, i])))
        anchors[i] = j
        pivot = u[j, i]
        if abs(pivot) > 0:
            phase = pivot / abs(pivot)
            u[:, i] *= np.conj(phase)
            vh[i, :] *= phase
    if r > 1:
        tol = config.SPECTRUM_MERGE_RTOL * max(sing[0], 1e-300)
        order = list(range(r))
        start = 0
        while start < r:
            stop = start + 1
            while stop < r and sing[start] - sing[stop] <= tol:
                stop += 1
            order[start:stop] = sorted(order[start:stop], key=lambda i: anchors[i])
            start = stop
        u[:, :] = u[:, order]
        vh[:, :] = vh[order, :]
        sing[:] = sing[order]
    return u, vh, sing


def schmidt_wrt_edge(
    s: PureState, t: RootedTree, e: Edge, rank_tol: float | None = None
) -> SchmidtData:
    """Schmidt decomposition of s across the bipartition induced by edge e."""
    if s.dims != t.dims:
        raise DimensionMismatch(f"state dims {s.dims} vs tree dims {t.dims}")
    if rank_tol is None:
        rank_tol = config.RANK_TOL
    below, rest = bipartition(t, e)
    sub = sorted(below)
    comp = sorted(rest)
    mat = _split_axes(s, sub)
    u, sing, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(sing > rank_tol * sing[0]))
    u, vh, sing = _canonicalize_vectors(u[:, :rank], vh[:rank, :], sing[:rank].copy())
    return SchmidtData(
        coefficients=sing,
        left_basis=u,
        right_basis=vh.T,
        rank=rank,
        subtree_parties=tuple(sub),
        complement_parties=tuple(comp),
    )


def schmidt_reconstruct(sd: SchmidtData, dims: tuple[int, ...]) -> PureState:
    """Rebuild the state a SchmidtData came from (test oracle helper)."""
    mat = (sd.left_basis * sd.coefficients) @ sd.right_basis.T
    order = list(sd.subtree_parties) + list(sd.complement_parties)
    shaped = mat.reshape([dims[v - 1] for v in order])
    inv = np.argsort([v - 1 for v in order])
    return PureState(shaped.transpose(inv).reshape(-1), dims)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """One-norm of the difference: sum of absolute eigenvalues."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"dims {a.dims} vs {b.dims}")
    return float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def trace_distance_pure(a: PureState, b: PureState) -> float:
    """One-norm distance between two pure states, 2*sqrt(1-|<a|b>|^2)."""
    ov = abs(a.overlap(b)) ** 2
    return 2.0 * sqrt(max(0.0, 1.0 - min(1.0, ov)))


def fidelity_pure(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(a.overlap(b)) ** 2


def load_state_json(source, tree: RootedTree | None = None) -> PureState:
    """Build a PureState from the JSON state document format.

    Either {"named": "w", "n": 4, ...} (optional "dims", "k", "seed") or
    {"dims": [...], "amplitudes": [[re, im], ...]}.  A tree supplies default
    dims and party count for the named form.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if "named" in doc:
        dims = doc.get("dims")
        if dims is None and tree is not None:
            dims = tree.dims
        n = int(doc.get("n", len(dims) if dims is not None else 0))
        if n == 0:
            raise IncompatibleDims("named state needs a party count")
        return make_named_state(
            doc["named"], n, dims, k=doc.get("k"), seed=doc.get("seed")
        )
    try:
        dims = tuple(int(d) for d in doc["dims"])
        amps = np.array(
            [complex(re, im) for re, im in doc["amplitudes"]], dtype=np.complex128
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed state document: {exc}") from exc
    return PureState(amps, dims)


def dump_state_json(state: PureState) -> dict:
    """Inverse of load_state_json's explicit-amplitudes form."""
    return {
        "dims": list(state.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
