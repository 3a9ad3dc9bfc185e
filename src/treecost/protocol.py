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

Sampling, a forced branch and full enumeration are one walk that differs
only in which outcomes it follows, so a branch records the same events in
the same order in every mode.  The walk carries the live branches along a
leading batch axis of the register: a measuring vertex applies its whole
operator stack to every live branch in one batched product, and the
followed (branch, outcome) pairs, in depth-first order, form the next
batch.  A child's correction is a gather of its own edge's levels plus a
phase, read from per-rank tables, not a matrix product.  A batch whose
next step would build more than _BATCH_AMPLITUDES (2^13) amplitudes is
split depth first into contiguous chunks, which bounds the working memory
of enumeration without changing the branch order.  Every branch ends in
the same target state; branches differ only in probability bookkeeping and
the recorded outcome labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
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

    cap = config.dim_cap()
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
        size = prod(r * r for r in child_ranks) * d_v * in_dim
        if size > cap:
            raise DimensionCapExceeded(
                f"operator stack at vertex {v} spans {size} amplitudes, "
                f"cap {cap}"
            )
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

    def apply(self, op: np.ndarray, in_labels: list, out_label) -> None:
        flat, rest_shape, rem = _front(
            self.tensor[None], self.labels, in_labels
        )
        res = op @ flat[0]
        self.tensor = res.reshape((op.shape[0],) + rest_shape)
        self.labels = [out_label] + rem

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


# Largest array, in amplitudes, that one batched step of the walk builds;
# a batch whose step would build more is split depth first into
# contiguous chunks of branches.
_BATCH_AMPLITUDES = 2**13

# Row index of the single branch that sampling and a forced branch follow.
_ONE_ROW = np.zeros(1, dtype=np.intp)


@lru_cache(maxsize=None)
def _correction_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables of correction_unitary(r, x, z): level l of
    the corrected register is phases[z, l] times level sources[x, l] of
    the uncorrected one."""
    levels = np.arange(r)
    sources = (levels[None, :] - levels[:, None]) % r
    phases = np.exp(2j * np.pi * ((r - levels[:, None]) % r) * levels / r)
    sources.flags.writeable = False
    phases.flags.writeable = False
    return sources, phases


def _front(tensor: np.ndarray, labels: list, in_labels: list):
    """Flatten a batch of registers to (branches, in_dim, rest), the middle
    index running over the in_labels axes in order; returns it with the
    shape and labels of the rest."""
    idx = [labels.index(lab) for lab in in_labels]
    others = [i for i in range(len(labels)) if i not in idx]
    t = tensor.transpose([0] + [1 + i for i in idx + others])
    rest_shape = tuple(tensor.shape[1 + i] for i in others)
    flat = t.reshape(len(t), prod(t.shape[1 : len(idx) + 1]), -1)
    return flat, rest_shape, [labels[i] for i in others]


def _walk(program, choose, record_events, disable_corrections):
    """Walk the protocol over the vertices in label order, carrying the
    live branches along a leading batch axis of the register.

    choose(v, cond) gets the conditional outcome probabilities of the live
    branches at measuring vertex v, shape (branches, K_v), and returns the
    (branch rows, outcome columns) to follow in row-major order, so the
    walk returns one transcript per followed branch in depth-first outcome
    order.  Each child edge's pair, already at its true rank, is attached
    just before the parent measures.  Besides its register a branch
    carries its probability and, per measuring vertex, its outcome index
    and that outcome's conditional probability; a child reads the
    displacement it corrects from its parent's outcome.
    """
    t = program.tree
    cap = config.dim_cap()
    measuring = [v for v in t.vertices if v in program.vertex_ops]
    column = {v: i for i, v in enumerate(measuring)}
    # per vertex: (vertex, own edge label, parent's outcome column, position
    # among the parent's children); the root has no edge above it
    plan = [(t.root, None, None, None)]
    for v in t.vertices[1:]:
        u = t.parent(v)
        place = t.children(u).index(v)
        plan.append((v, t.edge_above(v).label, column[u], place))
    announced: dict[int, np.ndarray] = {}
    events = None
    if record_events:
        events = _EventLog(program, plan, column, disable_corrections)
    results: list[Transcript] = []

    def widest(pos, size):
        """Amplitudes per branch of the largest array the step at pos
        builds from registers of the given size."""
        if pos == len(plan):
            return size
        v = plan[pos][0]
        if v in program.leaf_isometries:
            d, r = program.leaf_isometries[v].shape
            return d * size // r
        k, d_v, in_dim = program.vertex_ops[v].shape
        for c in t.children(v):
            size *= program.ranks[t.edge_above(c).label] ** 2
        scan = k * d_v * (size // in_dim)
        if scan > cap:
            raise DimensionCapExceeded(
                f"measurement at vertex {v} spans {scan} amplitudes, "
                f"cap {cap}"
            )
        return scan

    def correct(v, lab, place, pcol, tensor, labels, picks):
        """Undo on every branch the displacement (x, z) that v's parent
        announced: Z^-z X^x on v's own edge axis as one gather and one
        phase, with one (x, z) for a single branch."""
        parent_outs = program.outcomes[t.parent(v)]
        if len(picks) == 1:
            x, z = parent_outs[picks[0, pcol]][place]
            if not (x or z):
                return tensor, labels
        else:
            if v not in announced:
                announced[v] = np.array([o[place] for o in parent_outs])
            xz = announced[v][picks[:, pcol]]
            if not xz.any():
                return tensor, labels
            x, z = xz[:, 0], xz[:, 1]
        sources, phases = _correction_tables(program.ranks[lab])
        flat, rest_shape, rem = _front(tensor, labels, [("r", lab, "c")])
        if np.ndim(x):
            rows = np.arange(len(flat))[:, None]
            out = flat[rows, sources[x]] * phases[z][:, :, None]
        else:
            out = flat[:, sources[x]] * phases[z][:, None]
        return (
            out.reshape(out.shape[:2] + rest_shape),
            [("r", lab, "c")] + rem,
        )

    def step(pos, tensor, labels, prob, picks, conds):
        b = len(prob)
        need = widest(pos, tensor.size // b)
        if b > 1 and b * need > _BATCH_AMPLITUDES:
            n = max(1, _BATCH_AMPLITUDES // need)
            for s in range(0, b, n):
                part = slice(s, s + n)
                step(pos, tensor[part], labels, prob[part], picks[part],
                     conds[part])
            return
        if pos == len(plan):
            results.extend(_transcripts(program, measuring, tensor, labels,
                                        prob, picks, conds, events))
            return
        v, lab, pcol, place = plan[pos]
        in_labels = []
        if lab is not None:
            in_labels.append(("r", lab, "c"))
            if lab not in disable_corrections:
                tensor, labels = correct(
                    v, lab, place, pcol, tensor, labels, picks
                )
        if v in program.leaf_isometries:
            flat, rest_shape, rem = _front(tensor, labels, in_labels)
            out = program.leaf_isometries[v] @ flat
            step(pos + 1, out.reshape(out.shape[:2] + rest_shape),
                 [("t", v)] + rem, prob, picks, conds)
            return
        for c in t.children(v):
            c_lab = t.edge_above(c).label
            r = program.ranks[c_lab]
            tensor = np.multiply.outer(tensor, np.eye(r) / np.sqrt(r))
            labels = labels + [("r", c_lab, "p"), ("r", c_lab, "c")]
            in_labels.append(("r", c_lab, "p"))
        flat, rest_shape, rem = _front(tensor, labels, in_labels)
        res = program.vertex_ops[v][None] @ flat[:, None]
        probs = np.sum(np.abs(res) ** 2, axis=(2, 3))
        cond = probs / probs.sum(axis=1, keepdims=True)
        rows, cols = choose(v, cond)
        if not len(rows):
            return
        out = res[rows, cols]
        del res, flat, tensor
        out *= (1.0 / np.sqrt(probs[rows, cols]))[:, None, None]
        col = column[v]
        picks = picks[rows]
        picks[:, col] = cols
        conds = conds[rows]
        conds[:, col] = cond[rows, cols]
        step(pos + 1, out.reshape(out.shape[:2] + rest_shape),
             [("t", v)] + rem, prob[rows] * conds[:, col], picks, conds)

    m = len(measuring)
    step(0, np.ones(1, dtype=complex), [], np.ones(1),
         np.zeros((1, m), dtype=np.intp), np.zeros((1, m)))
    return results


def _transcripts(program, measuring, tensor, labels, prob, picks, conds,
                 events):
    """Finish a batch of branches: register axes into party order, then one
    norm and one overlap with the target for the whole batch."""
    b = len(prob)
    perm = sorted(range(len(labels)), key=labels.__getitem__)
    amps = tensor.transpose([0] + [1 + i for i in perm]).reshape(b, -1)
    amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    fids = np.abs(amps @ program.target.amplitudes.conj()) ** 2
    return [
        Transcript(
            events=() if events is None else events.branch(row, cond),
            outcomes=dict(zip(measuring, row)),
            probability=p,
            final_state=state,
            fidelity=fid,
        )
        for p, fid, row, cond, state in zip(
            prob.tolist(),
            fids.tolist(),
            picks.tolist(),
            conds.tolist(),
            PureState._from_rows(amps, program.dims),
        )
    ]


class _EventLog:
    """Event sequences of walked branches, rebuilt from their outcome
    columns.  A correction, isometry or message event is one object shared
    by every branch with the same outcome at its vertex; a measurement
    event is shared by the branches that also agree on its probability."""

    def __init__(self, program, plan, column, disable_corrections):
        self.program = program
        # per vertex: (vertex, own edge label, parent's outcome column,
        # position among the parent's children, own outcome column, its
        # correction events by parent outcome or None when nothing is
        # corrected, and its own step's events: the isometry event of a
        # leaf, or a measuring vertex's events by (outcome, probability))
        self.steps = []
        for v, lab, pcol, place in plan:
            corrects = lab is not None and lab not in disable_corrections
            col = column.get(v)
            own = {}
            if col is None:
                own = (Event(kind="isometry", vertex=v, edge=lab),)
            self.steps.append(
                (v, lab, pcol, place, col, {} if corrects else None, own)
            )
        compress = []
        for e in program.tree.edges:
            m = program.resources[e.label]
            r = program.ranks[e.label]
            if m > r:
                compress.append(
                    Event(
                        kind="compress",
                        edge=e.label,
                        info=f"rank {m} pair compressed to rank {r}",
                    )
                )
        self.prefix = tuple(compress)
        self.messages: dict[tuple[int, int], tuple[Event, ...]] = {}

    def branch(self, row: list[int], cond: list[float]) -> tuple[Event, ...]:
        out = list(self.prefix)
        for v, lab, pcol, place, col, corrections, own in self.steps:
            if corrections is not None:
                jp = row[pcol]
                seg = corrections.get(jp)
                if seg is None:
                    seg = corrections[jp] = self._correction(v, lab, place, jp)
                out += seg
            if col is None:
                out += own
            else:
                key = (row[col], cond[col])
                seg = own.get(key)
                if seg is None:
                    seg = own[key] = self._measure(v, *key)
                out += seg
        return tuple(out)

    def _correction(self, v, lab, place, j_parent):
        program = self.program
        pair = program.outcomes[program.tree.parent(v)][j_parent][place]
        if pair == (0, 0):
            return ()
        x, z = pair
        return (
            Event(
                kind="correction",
                vertex=v,
                edge=lab,
                outcome=pair,
                info=f"shift -{x} phase -{z} on rank {program.ranks[lab]}",
            ),
        )

    def _measure(self, v, j, p):
        messages = self.messages.get((v, j))
        if messages is None:
            t = self.program.tree
            messages = self.messages[v, j] = tuple(
                Event(
                    kind="message",
                    vertex=v,
                    edge=t.edge_above(c).label,
                    outcome=pair,
                    info=f"to vertex {c}",
                )
                for c, pair in zip(t.children(v), self.program.outcomes[v][j])
            )
        measure = Event(kind="measure", vertex=v, index=j, probability=p)
        return (measure,) + messages


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
            return _ONE_ROW, np.array([rng.choice(cond.shape[1], p=cond[0])])

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
            if cond[0, j] < config.BRANCH_PRUNE_TOL:
                raise ZeroProbabilityBranch(
                    f"outcome {j} at vertex {v} has probability "
                    f"{cond[0, j]:.3e}"
                )
            return _ONE_ROW, np.array([j])

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
        return np.nonzero(cond >= config.BRANCH_PRUNE_TOL)

    return _walk(program, choose, record_events, disable_corrections)


def check_completeness(program: MeasurementProgram) -> CompletenessReport:
    """Verify each vertex's operator family resolves the identity and each
    leaf map is an isometry, at the true ranks."""
    vertex_defects: dict[int, float] = {}
    for v, ops in program.vertex_ops.items():
        # sum_j ops_j^H ops_j as one Gram product over the stacked rows
        a = ops.reshape(-1, ops.shape[2])
        eigs = np.linalg.eigvalsh(a.conj().T @ a)
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
