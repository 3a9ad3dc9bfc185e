"""Dense pure states: construction, Schmidt data, distances.

Amplitude vectors use mixed-radix indexing with vertex 1 as the most
significant digit, i.e. reshaping to the per-party dimension tuple in label
order gives the state tensor.  Whenever a subset of parties is flattened into
one factor, its parties appear in ascending label order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from math import comb, prod, sqrt
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, IncompatibleDims, ZeroNorm
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
    def _checked(cls, amplitudes: np.ndarray, dims: tuple[int, ...]):
        """The state of a flat complex128 vector already normalized and
        norm checked, over the dims of a PureState: built without a second
        pass of the checks above."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "dims", dims)
        return state

    def __eq__(self, other):
        """Equal dims and exactly equal amplitudes."""
        if not isinstance(other, PureState):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(
            self.amplitudes, other.amplitudes
        )

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


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt decomposition of a state across one tree bipartition.

    coefficients are the descending singular values above the rank cutoff,
    and dropped_weight is the sum of the squares of those below it;
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
    dropped_weight: float


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
    config.check_dim("state", dims)
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
        # the popcount of every index, party 1 the most significant bit
        ones = reduce(np.add.outer, [np.arange(2, dtype=np.uint8)] * n)
        amps = np.zeros(total, dtype=np.complex128)
        amps[np.reshape(ones, -1) == k] = 1.0
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


# Relative floor under every rank cutoff.  An SVD leaves the singular values
# of an exactly rank-deficient cut at round-off, which reaches 11 machine
# epsilons of s[0] on an 18-qubit Dicke(3) line; 1024 epsilons (2.3e-13)
# keeps them out of the rank at rank_tol 0.
RANK_FLOOR = 1024 * np.finfo(float).eps


def _check_rank_tol(rank_tol: float | None) -> float:
    """rank_tol, or config.RANK_TOL for None; refuses NaN and values
    outside [0, 1)."""
    if rank_tol is None:
        return config.RANK_TOL
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank tolerance {rank_tol!r} outside [0, 1)")
    return rank_tol


def _numerical_rank(sing: np.ndarray, rank_tol: float) -> int:
    """How many of the descending singular values sing count as rank: those
    above max(rank_tol, RANK_FLOOR) * sing[0]."""
    return int(np.count_nonzero(sing > max(rank_tol, RANK_FLOOR) * sing[0]))


def _canonicalize_vectors(u: np.ndarray, vh: np.ndarray, sing: np.ndarray):
    """Put singular vectors in canonical form, in place.

    Left singular vector i (column i of u) is divided by the unit phase of
    its largest-magnitude entry, which makes that entry real positive (row
    i of vh absorbs the phase).  Vectors with equal singular values are then
    ordered by that anchor entry's position.
    """
    r = sing.size
    anchors = np.argmax(np.abs(u), axis=0)
    phases = np.ones(r, dtype=complex)
    for i, pivot in enumerate(u[anchors, np.arange(r)]):
        if abs(pivot) > 0:
            phases[i] = pivot / abs(pivot)
    order = list(range(r))
    if r > 1:
        tol = config.SPECTRUM_MERGE_RTOL * max(sing[0], 1e-300)
        start = 0
        while start < r:
            stop = start + 1
            while stop < r and sing[start] - sing[stop] <= tol:
                stop += 1
            order[start:stop] = sorted(order[start:stop], key=lambda i: anchors[i])
            start = stop
    u *= np.conj(phases)
    vh *= phases[:, None]
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
    rank_tol = _check_rank_tol(rank_tol)
    below, rest = bipartition(t, e)
    sub = sorted(below)
    comp = sorted(rest)
    mat = _split_axes(s, sub)
    u, sing, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _numerical_rank(sing, rank_tol)
    dropped = float(np.sum(sing[rank:] ** 2))
    u, vh, sing = _canonicalize_vectors(u[:, :rank], vh[:rank, :], sing[:rank].copy())
    return SchmidtData(
        coefficients=sing,
        left_basis=u,
        right_basis=vh.T,
        rank=rank,
        subtree_parties=tuple(sub),
        complement_parties=tuple(comp),
        dropped_weight=dropped,
    )


def schmidt_reconstruct(sd: SchmidtData, dims: tuple[int, ...]) -> PureState:
    """Rebuild the state a SchmidtData came from (test oracle helper)."""
    mat = (sd.left_basis * sd.coefficients) @ sd.right_basis.T
    order = list(sd.subtree_parties) + list(sd.complement_parties)
    shaped = mat.reshape([dims[v - 1] for v in order])
    inv = np.argsort([v - 1 for v in order])
    return PureState(shaped.transpose(inv).reshape(-1), dims)


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
    dims and party count for the named form, whose seed defaults to 0.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if "named" in doc:
        name, k, seed = doc["named"], doc.get("k"), doc.get("seed")
        dims = doc.get("dims")
        if dims is None and tree is not None:
            dims = tree.dims
        try:
            if not isinstance(name, str) or not all(
                v is None or isinstance(v, int) for v in (k, seed)
            ):
                raise TypeError("named must be a string, k and seed integers")
            n = int(doc.get("n", len(dims) if dims is not None else 0))
            dims = None if dims is None else tuple(int(d) for d in dims)
        except TypeError as exc:
            raise DimensionMismatch(f"malformed state document: {exc}") from exc
        if n == 0:
            raise IncompatibleDims("named state needs a party count")
        seed = 0 if seed is None else seed
        return make_named_state(name, n, dims, k=k, seed=seed)
    try:
        dims = tuple(int(d) for d in doc["dims"])
        # refused before the amplitude list is parsed
        config.check_dim("state", dims)
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
