"""Distributed construction of a tree-decomposed state from shared
entanglement.

Every edge starts with a maximally entangled pair of registers held by the
two endpoint parties.  Pairs supplied above the needed rank are first
compressed deterministically.  The parties then act one at a time in vertex
label order: each non-root party undoes the displacement its parent
announced, a nonleaf vertex measures its share of the surrounding registers
with a complete family of operators built from its coefficient tensor and
broadcasts the outcome to its children, and a leaf finishes with an
isometry into its output space.  A child edge's pair joins the simulated
register only when the parent is about to measure, so the register holds
the parties that have acted plus the pairs whose child has not.

Sampling, a forced branch and full enumeration are one depth-first walk
that differs only in which outcomes it follows, so a branch records the
same events in the same order in every mode.  Every branch ends in the same
target state; branches differ only in probability bookkeeping and the
recorded outcome labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import log2, prod

import numpy as np

from . import config
from .decomposition import TreeDecomposition, _require_line
from .errors import (
    DimensionCapExceeded,
    InsufficientResource,
    MalformedProgram,
    OutOfRangeIndex,
    ZeroProbabilityBranch,
)
from .states import PureState
from .tree import RootedTree


def generalized_pauli_x(d: int, x: int) -> np.ndarray:
    """Cyclic shift by x on d levels: maps level l to level (l + x) mod d."""
    if not 0 <= x < d:
        raise OutOfRangeIndex(f"shift {x} out of range for dimension {d}")
    return np.roll(np.eye(d, dtype=complex), x, axis=0)


def generalized_pauli_z(d: int, z: int) -> np.ndarray:
    """Phase gradient: level l picks up exp(2 pi i z l / d)."""
    if not 0 <= z < d:
        raise OutOfRangeIndex(f"phase index {z} out of range for dimension {d}")
    phases = np.exp(2j * np.pi * z * np.arange(d) / d)
    return np.diag(phases)


def correction_unitary(d: int, x: int, z: int) -> np.ndarray:
    """Inverse transpose of the outcome displacement; undoes what a remote
    measurement imprints on the far half of a shared pair."""
    if not 0 <= z < d:
        raise OutOfRangeIndex(f"phase index {z} out of range for dimension {d}")
    return generalized_pauli_z(d, (d - z) % d) @ generalized_pauli_x(d, x)


@dataclass(frozen=True)
class ResourceConfig:
    """Supplied entangled ranks per edge label."""

    supplies: dict[int, int]

    @classmethod
    def optimal(cls, dec: TreeDecomposition) -> "ResourceConfig":
        return cls(supplies=dict(dec.ranks))

    @classmethod
    def uniform(cls, t: RootedTree, m: int) -> "ResourceConfig":
        return cls(supplies={e.label: m for e in t.edges})


@dataclass(frozen=True)
class Event:
    """One recorded protocol step."""

    kind: str
    vertex: int | None = None
    edge: int | None = None
    outcome: tuple[int, int] | None = None
    index: int | None = None
    probability: float | None = None
    info: str | None = None


@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol branch."""

    events: tuple[Event, ...]
    outcomes: dict[int, int]
    probability: float
    final_state: PureState
    fidelity: float


@dataclass(frozen=True)
class CompletenessReport:
    vertex_defects: dict[int, float]
    isometry_defects: dict[int, float]
    max_defect: float
    ok: bool


@dataclass(frozen=True)
class MeasurementProgram:
    """Compiled protocol: stacked measurement operators per nonleaf vertex,
    outcome labels, leaf isometries, and resource accounting.

    vertex_ops[v] stacks the K_v operators as (K_v, d_v, in_dim) where the
    input index runs over (own edge index, child edge indices ascending) at
    the true ranks.  outcomes[v][j] lists the per-child displacement pair
    (x, z) announced to each child for operator j.
    """

    tree: RootedTree
    dims: tuple[int, ...]
    ranks: dict[int, int]
    resources: dict[int, int]
    vertex_ops: dict[int, np.ndarray]
    outcomes: dict[int, tuple[tuple[tuple[int, int], ...], ...]]
    leaf_isometries: dict[int, np.ndarray]
    target: PureState

    @property
    def branch_count(self) -> int:
        return prod(ops.shape[0] for ops in self.vertex_ops.values())

    def correction_for(self, edge_label: int, pair: tuple[int, int]) -> np.ndarray:
        x, z = pair
        return correction_unitary(self.ranks[edge_label], x, z)

    def _pad_columns(self, v: int, own: bool) -> np.ndarray:
        t = self.tree
        factors = []
        if own and v != t.root:
            lab = t.edge_above(v).label
            factors.append(np.eye(self.ranks[lab], self.resources[lab]))
        for c in t.children(v):
            lab = t.edge_above(c).label
            factors.append(np.eye(self.ranks[lab], self.resources[lab]))
        if not factors:
            return np.eye(1)
        return reduce(np.kron, factors)

    def resource_operator(self, v: int, index: int) -> np.ndarray:
        """Measurement operator j of vertex v on the supplied (padded)
        register dimensions; padding levels map to zero columns."""
        ops = self.vertex_ops[v]
        if not 0 <= index < ops.shape[0]:
            raise OutOfRangeIndex(f"operator index {index} at vertex {v}")
        return ops[index] @ self._pad_columns(v, own=True)

    def resource_isometry(self, leaf: int) -> np.ndarray:
        lab = self.tree.edge_above(leaf).label
        pad = np.eye(self.ranks[lab], self.resources[lab])
        return self.leaf_isometries[leaf] @ pad


def build_program(
    dec: TreeDecomposition,
    resources: ResourceConfig | dict[int, int] | None = None,
) -> MeasurementProgram:
    """Compile the measurement family for every nonleaf vertex.

    Each supplied rank must cover the edge's Schmidt rank; anything less
    cannot carry the correlations across that cut.
    """
    t = dec.tree
    if resources is None:
        supplies = dict(dec.ranks)
    elif isinstance(resources, ResourceConfig):
        supplies = dict(resources.supplies)
    else:
        supplies = dict(resources)
    for e in t.edges:
        m = supplies.get(e.label)
        if m is None:
            raise MalformedProgram(f"no supplied rank for edge {e.label}")
        if m < dec.ranks[e.label]:
            raise InsufficientResource(e.label, dec.ranks[e.label], m)

    vertex_ops: dict[int, np.ndarray] = {}
    outcome_table: dict[int, tuple] = {}
    for v in t.vertices:
        if t.is_leaf(v) and v != t.root:
            continue
        children = t.children(v)
        child_ranks = [dec.ranks[t.edge_above(c).label] for c in children]
        g = dec.tensors[v]
        if v == t.root:
            g = g[..., None]
        gm = np.moveaxis(g, -1, 1)
        d_v = gm.shape[0]
        in_dim = prod(gm.shape[1:])
        base = gm.reshape(d_v, in_dim) / np.sqrt(prod(child_ranks))
        per_child = [
            [(x, z) for x in range(r) for z in range(r)] for r in child_ranks
        ]
        outs = tuple(itertools.product(*per_child))
        r_own = gm.shape[1]
        ops = np.empty((len(outs), d_v, in_dim), dtype=complex)
        for j, pairs in enumerate(outs):
            factors = [np.eye(r_own, dtype=complex)]
            for (x, z), r in zip(pairs, child_ranks):
                factors.append(
                    generalized_pauli_z(r, z) @ generalized_pauli_x(r, x)
                )
            ops[j] = base @ reduce(np.kron, factors)
        vertex_ops[v] = ops
        outcome_table[v] = outs

    leaf_isos = {
        v: dec.edge_bases[v]
        for v in t.vertices
        if t.is_leaf(v) and v != t.root
    }
    from .decomposition import recompose

    return MeasurementProgram(
        tree=t,
        dims=dec.dims,
        ranks=dict(dec.ranks),
        resources=supplies,
        vertex_ops=vertex_ops,
        outcomes=outcome_table,
        leaf_isometries=leaf_isos,
        target=recompose(dec),
    )


class _Engine:
    """Dense register-level state with labeled axes."""

    def __init__(self, tensor=None, labels=None):
        self.tensor = np.ones((), dtype=complex) if tensor is None else tensor
        self.labels: list = [] if labels is None else labels

    def attach(self, tensor: np.ndarray, labels: list) -> None:
        self.tensor = np.multiply.outer(self.tensor, tensor)
        self.labels = self.labels + labels

    def _front(self, in_labels: list):
        idx = [self.labels.index(lab) for lab in in_labels]
        k = len(idx)
        t = np.moveaxis(self.tensor, idx, list(range(k)))
        rest_shape = t.shape[k:]
        flat = t.reshape(prod(t.shape[:k], start=1), -1)
        rem = [lab for lab in self.labels if lab not in in_labels]
        return flat, rest_shape, rem

    def apply(self, op: np.ndarray, in_labels: list, out_label) -> None:
        flat, rest_shape, rem = self._front(in_labels)
        res = op @ flat
        self.tensor = res.reshape((op.shape[0],) + rest_shape)
        self.labels = [out_label] + rem

    def scan(self, stacked: np.ndarray, in_labels: list):
        """Apply all K operators at once; returns (branch tensors of shape
        (K, d_out, rest...), probabilities, remaining labels)."""
        flat, rest_shape, rem = self._front(in_labels)
        res = stacked @ flat
        res = res.reshape((stacked.shape[0], stacked.shape[1]) + rest_shape)
        probs = np.sum(np.abs(res) ** 2, axis=tuple(range(1, res.ndim)))
        return res, probs, rem

    def split_axis(self, label, new_labels: list, new_dims: list) -> None:
        i = self.labels.index(label)
        shape = list(self.tensor.shape)
        self.tensor = self.tensor.reshape(
            shape[:i] + list(new_dims) + shape[i + 1 :]
        )
        self.labels = self.labels[:i] + list(new_labels) + self.labels[i + 1 :]

    def mask_axes(self, mask: np.ndarray, in_labels: list) -> None:
        idx = [self.labels.index(lab) for lab in in_labels]
        k = len(idx)
        t = np.moveaxis(self.tensor, idx, list(range(k)))
        self.tensor = t * mask.reshape(mask.shape + (1,) * (t.ndim - k))
        rem = [lab for lab in self.labels if lab not in in_labels]
        self.labels = list(in_labels) + rem

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def amplitudes(self) -> np.ndarray:
        order = sorted(range(len(self.labels)), key=lambda i: self.labels[i])
        t = np.transpose(self.tensor, order)
        return t.reshape(-1)


def _finalize(program, eng, events, outcomes, probability) -> Transcript:
    amps = eng.amplitudes()
    norm = np.linalg.norm(amps)
    state = PureState(amps / norm, program.dims)
    fid = abs(state.overlap(program.target)) ** 2
    return Transcript(
        events=tuple(events),
        outcomes=dict(outcomes),
        probability=float(probability),
        final_state=state,
        fidelity=float(fid),
    )


def _walk(program, choose, record_events, disable_corrections):
    """Depth-first walk of the protocol over the vertices in label order.

    choose(v, cond) returns the outcome indices to follow at measuring
    vertex v given the conditional outcome probabilities cond; the walk
    returns one transcript per followed branch, in the order visited.
    Each child edge's pair, already at its true rank, is attached just
    before the parent measures.
    """
    t = program.tree
    order = t.vertices
    cap = config.dim_cap()
    shared = {}
    events: list[Event] = []
    for e in t.edges:
        m = program.resources[e.label]
        r = program.ranks[e.label]
        shared[e.label] = np.eye(r, dtype=complex) / np.sqrt(r)
        if record_events and m > r:
            events.append(
                Event(
                    kind="compress",
                    edge=e.label,
                    info=f"rank {m} pair compressed to rank {r}",
                )
            )
    pending: dict[int, tuple[int, int]] = {}
    chosen: dict[int, int] = {}
    results: list[Transcript] = []

    def step(pos: int, eng: _Engine, probability: float) -> None:
        if pos == len(order):
            results.append(_finalize(program, eng, events, chosen, probability))
            return
        v = order[pos]
        if v != t.root:
            lab = t.edge_above(v).label
            pair = pending[lab]
            if pair != (0, 0) and lab not in disable_corrections:
                eng.apply(
                    program.correction_for(lab, pair),
                    [("r", lab, "c")],
                    ("r", lab, "c"),
                )
                if record_events:
                    x, z = pair
                    events.append(
                        Event(
                            kind="correction",
                            vertex=v,
                            edge=lab,
                            outcome=pair,
                            info=f"shift -{x} phase -{z} on rank "
                            f"{program.ranks[lab]}",
                        )
                    )
        if v in program.leaf_isometries:
            eng.apply(program.leaf_isometries[v], [("r", lab, "c")], ("t", v))
            if record_events:
                events.append(Event(kind="isometry", vertex=v, edge=lab))
            step(pos + 1, eng, probability)
            return
        children = t.children(v)
        in_labels = [] if v == t.root else [("r", lab, "c")]
        for c in children:
            c_lab = t.edge_above(c).label
            eng.attach(shared[c_lab], [("r", c_lab, "p"), ("r", c_lab, "c")])
            in_labels.append(("r", c_lab, "p"))
        ops = program.vertex_ops[v]
        k, d_v, in_dim = ops.shape
        scan_size = k * d_v * (eng.tensor.size // in_dim)
        if scan_size > cap:
            raise DimensionCapExceeded(
                f"measurement at vertex {v} spans {scan_size} amplitudes, "
                f"cap {cap}"
            )
        res, probs, rem = eng.scan(ops, in_labels)
        cond = probs / probs.sum()
        mark = len(events)
        for j in choose(v, cond):
            p = float(cond[j])
            chosen[v] = j
            if record_events:
                events.append(
                    Event(kind="measure", vertex=v, index=j, probability=p)
                )
            for c, pair in zip(children, program.outcomes[v][j]):
                c_lab = t.edge_above(c).label
                pending[c_lab] = pair
                if record_events:
                    events.append(
                        Event(
                            kind="message",
                            vertex=v,
                            edge=c_lab,
                            outcome=pair,
                            info=f"to vertex {c}",
                        )
                    )
            branch = _Engine(
                res[j] * (1.0 / np.sqrt(probs[j])), [("t", v)] + rem
            )
            step(pos + 1, branch, probability * p)
            del events[mark:]

    step(0, _Engine(), 1.0)
    return results


def simulate(
    program: MeasurementProgram,
    mode: str = "sample",
    seed: int = 0,
    outcomes: dict[int, int] | None = None,
    record_events: bool = True,
    disable_corrections: tuple[int, ...] = (),
):
    """Run the protocol.

    mode "sample" draws one random branch with the given seed; "branch"
    follows the forced outcome index per nonleaf vertex; "enumerate" walks
    every branch and returns a list of transcripts in depth-first outcome
    order.  Probabilities are exact conditional products, and every
    transcript carries the resulting state and its fidelity with the target.
    """
    if mode == "enumerate":
        return enumerate_branches(
            program,
            record_events=record_events,
            disable_corrections=disable_corrections,
        )
    if mode == "sample":
        rng = np.random.default_rng(seed)

        def choose(v, cond):
            return (int(rng.choice(len(cond), p=cond)),)

    elif mode == "branch":
        if outcomes is None:
            raise MalformedProgram("branch mode needs forced outcomes")
        if sorted(outcomes) != sorted(program.vertex_ops):
            raise MalformedProgram(
                "forced outcomes must cover exactly the measuring vertices"
            )
        for v, j in outcomes.items():
            if not 0 <= j < program.vertex_ops[v].shape[0]:
                raise OutOfRangeIndex(f"outcome {j} at vertex {v}")

        def choose(v, cond):
            j = outcomes[v]
            if cond[j] < config.BRANCH_PRUNE_TOL:
                raise ZeroProbabilityBranch(
                    f"outcome {j} at vertex {v} has probability {cond[j]:.3e}"
                )
            return (j,)

    else:
        raise MalformedProgram(f"unknown mode {mode!r}")
    (transcript,) = _walk(program, choose, record_events, disable_corrections)
    return transcript


def enumerate_branches(
    program: MeasurementProgram,
    record_events: bool = True,
    disable_corrections: tuple[int, ...] = (),
) -> list[Transcript]:
    """Walk every measurement branch depth first, pruning branches whose
    conditional probability at some step falls below the zero threshold."""

    def choose(v, cond):
        tol = config.BRANCH_PRUNE_TOL
        return [j for j in range(len(cond)) if cond[j] >= tol]

    return _walk(program, choose, record_events, disable_corrections)


def check_completeness(program: MeasurementProgram) -> CompletenessReport:
    """Verify each vertex's operator family resolves the identity and each
    leaf map is an isometry, at the true ranks."""
    vertex_defects: dict[int, float] = {}
    for v, ops in program.vertex_ops.items():
        in_dim = ops.shape[2]
        s = np.zeros((in_dim, in_dim), dtype=complex)
        for j in range(ops.shape[0]):
            s += ops[j].conj().T @ ops[j]
        eigs = np.linalg.eigvalsh(s)
        vertex_defects[v] = float(np.abs(eigs - 1.0).max())
    iso_defects: dict[int, float] = {}
    for leaf, u in program.leaf_isometries.items():
        gram = u.conj().T @ u
        iso_defects[leaf] = float(
            np.abs(gram - np.eye(gram.shape[0])).max()
        )
    all_defects = list(vertex_defects.values()) + list(iso_defects.values())
    max_defect = max(all_defects) if all_defects else 0.0
    return CompletenessReport(
        vertex_defects=vertex_defects,
        isometry_defects=iso_defects,
        max_defect=max_defect,
        ok=max_defect <= config.COMPLETENESS_TOL,
    )


def naive_distribution_cost(t: RootedTree) -> dict[int, float]:
    """Bits sent over each edge when one end of a line prepares everything
    locally and forwards whole subsystems downstream."""
    _require_line(t)
    out: dict[int, float] = {}
    for e in t.edges:
        below = t.subtree(e.child)
        out[e.label] = float(sum(log2(t.dim_of(v)) for v in below))
    return out
