"""Distributed construction of a tree-decomposed state from shared
entanglement.

Every edge starts with a maximally entangled pair of registers held by the
two endpoint parties.  Pairs supplied above the needed rank are first
compressed deterministically.  The parties then act one at a time in vertex
label order: each non-root party undoes the displacement its parent
announced, a nonleaf vertex measures its share of the surrounding registers
with a complete family of operators built from its tensor and broadcasts
the outcome to its children, and a leaf finishes with an isometry into its
output space.

A program reads the decomposition's factors trimmed to the true ranks
(decomposition._trimmed_factors): the bases and leaf isometries are views
of them, and the target is that network contracted once.  A correction
undoes the transposed Pauli in any orthonormal bond basis, and every
outcome of v has probability 1/K_v whatever the basis.

Outcome j of vertex v is one base operator B, v's factor, followed by a
generalized Pauli D_c = Z^z_c X^x_c on each child's half of its pair; j
encodes the pairs (x_c, z_c) in mixed radix, so a program stores only B and
decodes j when it needs the pairs.  The K_v = prod r_c^2 explicit operators
are a view built on demand (vertex_ops).  The walk never attaches the pairs
either: by (M x I)|Phi> = (I x M^T)|Phi>, outcome j maps the register psi
to (x)_c D_c^T applied to B psi, where B acts on v's own edge axis and its
child indices become the axes of the children's pair halves.  D_c^T is a
gather of levels plus a phase.  Every outcome has the norm of B psi, so
each conditional probability is 1/K_v, and a measuring vertex makes one
product B psi per batch of branches.

Sampling, a forced branch and full enumeration are one walk that differs
only in which outcomes it follows, so a branch records the same events in
the same order in every mode.  The walk carries the live branches along a
leading batch axis of the register.  In every mode a measuring vertex
builds gather and phase tables of just the (branch, outcome) pairs it
follows, shape (followed, C) with C = prod r_c, and applies them in one
fancy index; the followed pairs, in depth-first order, form the next batch.
The order of the walk, the outcome columns and each measuring vertex's base
matrix are one plan built once per program, which every walk, replay and
event log reads.  A child's correction is a gather of its own edge's levels
plus a phase, read from per-rank tables, not a matrix product.  A batch
whose next step would build more than _BATCH_AMPLITUDES (2^13) amplitudes
is split depth first into contiguous chunks, which bounds the working
memory of enumeration without changing the branch order.  Every branch ends
in the same target state; branches differ only in probability bookkeeping
and the recorded outcome labels.

The walk computes each branch's probability and fidelity and nothing else
per branch.  A finished batch's amplitude rows are normalized, checked and
read once for the overlaps with the target, then dropped; its branches share
one record of their outcome columns and conditional probabilities, and a
transcript derives its events, outcomes and final state from that record
the first time they are read.  The first final state read from a record
replays the record: one walk that follows only its recorded outcome rows,
whose normalized rows the record then keeps.  The walk is independent
across rows, so a replayed row equals the enumerated one and a forced run
of its outcomes bit for bit.  Enumeration therefore holds O(batch)
amplitudes plus O(branches x measuring vertices) scalars, and amplitude
rows only for the records whose final states were read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import log2, prod

import numpy as np

from . import config
from .decomposition import (
    TreeDecomposition, _contract, _require_line, _trimmed_factors,
)
from .errors import (
    InsufficientResource,
    MalformedProgram,
    OutOfRangeIndex,
    ZeroProbabilityBranch,
)
from .states import PureState
from .tree import RootedTree


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


@dataclass(frozen=True, eq=False)
class Transcript:
    """Full record of one protocol branch.

    probability and fidelity are computed by the walk; events, outcomes and
    final_state are derived on first read from the record shared by the
    branches of the walk's batch, at row _row of it.  The first final_state
    read from a record replays the record's outcome rows once (_Batch.amps).
    """

    probability: float
    fidelity: float
    _batch: "_Batch" = field(repr=False)
    _row: int = field(repr=False)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        b = self._batch
        return b.log.branch(
            b.picks[self._row].tolist(), b.conds[self._row].tolist()
        )

    @cached_property
    def outcomes(self) -> dict[int, int]:
        b = self._batch
        measuring = b.log.program._walk_plan[0]
        return dict(zip(measuring, b.picks[self._row].tolist()))

    @cached_property
    def final_state(self) -> PureState:
        b = self._batch
        # _final_rows normalized and checked the row
        return PureState._checked(b.amps[self._row], b.log.program.target.dims)


@dataclass(frozen=True)
class _Batch:
    """What the branches of one finished batch share: the walk's event log,
    which holds the program and the disabled corrections, and per branch
    (row) the outcome index and its conditional probability at each
    measuring vertex (columns in the order of the measuring vertices).  The
    rows are distinct and in depth-first order, as the walk finished them."""

    log: "_EventLog"
    picks: np.ndarray
    conds: np.ndarray

    @cached_property
    def amps(self) -> np.ndarray:
        """The normalized amplitudes of every row's final register in party
        order, rebuilt by one walk that follows only the recorded outcome
        rows: at each measuring vertex, each live branch takes the distinct
        outcomes recorded after its prefix, so the walk gathers no outcome
        the record lacks.  A record of one row follows one outcome per
        branch, as sampling and a forced branch did."""
        recorded = self.picks
        program = self.log.program
        measuring = program._walk_plan[0]

        def choose(v, cond, k, live):
            c = measuring.index(v)
            same = live[:, None, :c] == recorded[None, :, :c]
            rows, match = np.nonzero(same.all(axis=2))
            return np.divmod(np.unique(rows * k + recorded[match, c]), k)

        walk = _walk(program, choose, len(recorded) > 1,
                     self.log.disable_corrections)
        return np.concatenate([amps for amps, *_ in walk])


@dataclass(frozen=True)
class CompletenessReport:
    vertex_defects: dict[int, float]
    isometry_defects: dict[int, float]
    max_defect: float
    ok: bool


@dataclass(frozen=True, eq=False)
class MeasurementProgram:
    """Compiled protocol: the base operator of every measuring vertex, leaf
    isometries, and resource accounting.

    bases[v] is the factor of measuring vertex v as an operator from its
    register to its level, shape (d_v, r_own, r_1, ..., r_k): the input runs
    over its own edge index (r_own = 1 at the root) and its children's edge
    indices ascending, at the true ranks.  Outcome j of v is bases[v]
    (I x Z^z_1 X^x_1 x ... x Z^z_k X^x_k) / sqrt(C), C = r_1...r_k; j runs
    over the per-child pairs (x_c, z_c) in mixed radix, child 1 most
    significant and each pair as x_c r_c + z_c (outcome(v, j)), so v has
    K_v = C^2 outcomes.  vertex_ops is a view that builds every outcome's
    operator on first read.
    """

    tree: RootedTree
    dims: tuple[int, ...]
    ranks: dict[int, int]
    resources: dict[int, int]
    bases: dict[int, np.ndarray]
    leaf_isometries: dict[int, np.ndarray]
    target: PureState

    def outcome_count(self, v: int) -> int:
        """K_v, the number of measurement outcomes of vertex v."""
        return prod(r * r for r in self.bases[v].shape[2:])

    @property
    def branch_count(self) -> int:
        return prod(self.outcome_count(v) for v in self.bases)

    def outcome(self, v: int, j: int) -> tuple[tuple[int, int], ...]:
        """The displacement (x, z) outcome j of v announces to each child."""
        ranks = self.bases[v].shape[2:]
        return tuple(_announced(ranks, i, j) for i in range(len(ranks)))

    @cached_property
    def vertex_ops(self) -> dict[int, np.ndarray]:
        """Every outcome's operator, stacked per vertex as (K_v, d_v,
        in_dim); each stack is checked against the dimension cap."""
        ops = {}
        for v, base in self.bases.items():
            k = self.outcome_count(v)
            config.check_dim(f"operator stack at vertex {v}", k * base.size)
            ops[v] = _operators(base, np.arange(k))
        return ops

    @cached_property
    def _walk_plan(self):
        """The walk's order, built once per program and read by every walk,
        replay and event log: the measuring vertices in label order (the
        outcome columns); per vertex in label order (vertex, own edge
        label, parent's outcome column, place among the parent's children,
        own outcome column), with None for the root's edge and a leaf's
        column; and per measuring vertex its base as a (levels x child
        levels, own levels) matrix, its child ranks, outcome count and the
        labels of its children's pair halves."""
        t = self.tree
        measuring = [v for v in t.vertices if v in self.bases]
        column = {v: i for i, v in enumerate(measuring)}
        order = [(t.root, None, None, None, column[t.root])]
        for v in t.vertices[1:]:
            u = t.parent(v)
            order.append((v, t.edge_above(v).label, column[u],
                          t.children(u).index(v), column.get(v)))
        ops = {
            v: (
                np.moveaxis(base, 1, -1).reshape(-1, base.shape[1]),
                base.shape[2:],
                self.outcome_count(v),
                [("r", t.edge_above(c).label, "c") for c in t.children(v)],
            )
            for v, base in self.bases.items()
        }
        return measuring, order, ops


def build_program(
    dec: TreeDecomposition,
    resources: dict[int, int] | None = None,
) -> MeasurementProgram:
    """Compile the measurement family for every nonleaf vertex: its base
    operator, a view of the vertex's factor trimmed to the true ranks.

    resources maps every edge label to its supplied rank (the Schmidt ranks
    when None).  Each must cover the edge's Schmidt rank; anything less
    cannot carry the correlations across that cut.  A rank for an edge the
    tree lacks is refused.
    """
    t = dec.tree
    supplies = dict(dec.ranks if resources is None else resources)
    unknown = sorted(set(supplies) - set(dec.ranks))
    if unknown:
        raise MalformedProgram(f"supplied rank for unknown edge {unknown[0]}")
    for e in t.edges:
        m = supplies.get(e.label)
        if m is None:
            raise MalformedProgram(f"no supplied rank for edge {e.label}")
        if m < dec.ranks[e.label]:
            raise InsufficientResource(e.label, dec.ranks[e.label], m)

    trimmed = _trimmed_factors(dec)
    bases: dict[int, np.ndarray] = {}
    leaf_isos: dict[int, np.ndarray] = {}
    for v, g in trimmed.items():
        if v == t.root:
            bases[v] = np.moveaxis(g[..., None], -1, 1)
        elif t.children(v):
            bases[v] = np.moveaxis(g, -1, 1)
        else:
            leaf_isos[v] = g
    return MeasurementProgram(
        tree=t,
        dims=dec.dims,
        ranks=dict(dec.ranks),
        resources=supplies,
        bases=bases,
        leaf_isometries=leaf_isos,
        target=PureState(_contract(t, dec.dims, trimmed.__getitem__), dec.dims),
    )


def _announced(child_ranks, place, j):
    """The displacement (x, z) that outcome j (an int or an array of them)
    announces to the child at position place among child_ranks."""
    r = child_ranks[place]
    stride = prod(q * q for q in child_ranks[place + 1 :])
    return divmod(j // stride % (r * r), r)


def _outcome_gather(child_ranks, js) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables of the children's Paulis of outcomes js.

    For outcome js[i] and children's levels m = (m_1, ..., m_k), mixed radix
    with child 1 most significant, the transposed Paulis (x)_c D_c^T read
    level src[i, m] and multiply it by phase[i, m]: D_c^T takes level
    (m_c + x_c) mod r_c to m_c with the phase exp(2 pi i z_c (m_c + x_c) /
    r_c).  Returns arrays of shape (len(js), prod(child_ranks)).
    """
    js = np.asarray(js)[:, None]
    c = prod(child_ranks)
    levels = np.arange(c)
    src = np.zeros((len(js), c), dtype=np.intp)
    phase = np.ones((len(js), c), dtype=complex)
    inner = c
    for i, r in enumerate(child_ranks):
        inner //= r
        x, z = _announced(child_ranks, i, js)
        level = (levels // inner % r + x) % r
        src += level * inner
        phase *= np.exp(2j * np.pi * z * level / r)
    return src, phase


def _operators(base: np.ndarray, js: np.ndarray) -> np.ndarray:
    """The operators of outcomes js of a vertex with this base, shape
    (len(js), d_v, in_dim), by one gather and one phase: column (a, m) of
    outcome j is base column (a, src[j, m]) times phase[j, m] / sqrt(C)."""
    d_v, r_own = base.shape[:2]
    src, phase = _outcome_gather(base.shape[2:], js)
    cols = base.reshape(d_v, r_own, -1)[:, :, src]
    cols = cols * (phase / np.sqrt(src.shape[1]))
    return np.moveaxis(cols, 2, 0).reshape(len(js), d_v, -1)


# Largest array, in amplitudes, that one batched step of the walk builds;
# a batch whose step would build more is split depth first into
# contiguous chunks of branches.
_BATCH_AMPLITUDES = 2**13

@lru_cache(maxsize=None)
def _correction_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables of the correction Z^-z X^x on r levels:
    level l of the corrected register is phases[z, l] times level
    sources[x, l] of the uncorrected one."""
    levels = np.arange(r)
    sources = (levels[None, :] - levels[:, None]) % r
    phases = np.exp(2j * np.pi * ((r - levels[:, None]) % r) * levels / r)
    sources.flags.writeable = False
    phases.flags.writeable = False
    return sources, phases


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a complex (rows, n) array."""
    f = np.ascontiguousarray(a).view(float)
    return np.sqrt(np.einsum("ij,ij->i", f, f))


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


def _walk(program, choose, every_outcome, disable_corrections):
    """Walk the protocol in the order of the program's plan, carrying the
    live branches along a leading batch axis of the register.

    choose(v, cond, k, picks) gets, per live branch at measuring vertex v,
    the conditional probability of each of v's k outcomes (they are equally
    likely: 1/k, or 0 when the base annihilates the branch's register) and
    the branch's outcome columns so far, and returns the (branch rows,
    outcome columns) to follow in row-major order, so the walk finishes the
    followed branches in depth-first outcome order.  every_outcome says
    whether it may follow every outcome of a branch (enumeration) or at
    most one, which sets the largest array a step builds.  A measuring
    vertex applies its base to its own edge axis, gathers and phases only
    the followed outcomes, and the base's child indices become the axes of
    the children's pair halves.  Besides its register a branch carries its
    probability and, per measuring vertex, its outcome index and that
    outcome's conditional probability; a child reads the displacement it
    corrects from its parent's outcome.

    Yields each finished batch as (amps, prob, picks, conds): its
    branches' normalized final amplitude rows in party order, which nothing
    else reads, their probabilities, outcome columns and conditional
    probabilities.
    """
    t = program.tree
    cap = config.dim_cap()
    measuring, plan, ops = program._walk_plan

    def widest(pos, size):
        """Amplitudes per branch of the largest array the step at pos
        builds from registers of the given size."""
        if pos == len(plan):
            return size
        v = plan[pos][0]
        if v in program.leaf_isometries:
            d, r = program.leaf_isometries[v].shape
            return d * size // r
        mat, _, k, _ = ops[v]
        need = mat.shape[0] * (size // mat.shape[1])
        if every_outcome:
            need *= k
        config.check_dim(f"measurement at vertex {v}", need, cap=cap)
        return need

    def correct(v, lab, place, pcol, tensor, labels, picks):
        """Undo on every branch the displacement (x, z) that v's parent
        announced: Z^-z X^x on v's own edge axis as one gather and one
        phase."""
        x, z = _announced(ops[t.parent(v)][1], place, picks[:, pcol])
        if not (x.any() or z.any()):
            return tensor, labels
        sources, phases = _correction_tables(program.ranks[lab])
        flat, rest_shape, rem = _front(tensor, labels, [("r", lab, "c")])
        out = flat[np.arange(len(flat))[:, None], sources[x]]
        out *= phases[z][:, :, None]
        return (
            out.reshape(out.shape[:2] + rest_shape),
            [("r", lab, "c")] + rem,
        )

    def step(pos, tensor, labels, prob, picks, conds):
        """Carry one batch from plan position pos to the end of the walk.
        Each step rebinds the batch's arrays, so a register is freed once
        the next one is built; a batch is split where a step would build
        too much."""
        while True:
            b = len(prob)
            need = widest(pos, tensor.size // b)
            if b > 1 and b * need > _BATCH_AMPLITUDES:
                n = max(1, _BATCH_AMPLITUDES // need)
                for s in range(0, b, n):
                    part = slice(s, s + n)
                    yield from step(pos, tensor[part], labels, prob[part],
                                    picks[part], conds[part])
                return
            if pos == len(plan):
                yield _final_rows(tensor, labels), prob, picks, conds
                return
            v, lab, pcol, place, col = plan[pos]
            pos += 1
            in_labels = []
            if lab is not None:
                in_labels.append(("r", lab, "c"))
                if lab not in disable_corrections:
                    tensor, labels = correct(
                        v, lab, place, pcol, tensor, labels, picks
                    )
            flat, rest_shape, rem = _front(tensor, labels, in_labels)
            del tensor
            if v in program.leaf_isometries:
                tensor = program.leaf_isometries[v] @ flat
                del flat
                tensor = tensor.reshape(tensor.shape[:2] + rest_shape)
                labels = [("t", v)] + rem
                continue
            mat, child_ranks, k, halves = ops[v]
            d_v = program.dims[v - 1]
            y = (mat @ flat).reshape(b, d_v, -1, flat.shape[2])
            del flat
            norms = _row_norms(y.reshape(b, -1))
            cond = np.where(norms > 0.0, 1.0 / k, 0.0)
            rows, cols = choose(v, cond, k, picks)
            if not len(rows):
                return
            src, phase = _outcome_gather(child_ranks, cols)
            # the branch and level indices, split by the slice over v's
            # level, put their broadcast axes (followed, children's levels)
            # in front
            tensor = y[rows[:, None], :, src]
            del y
            tensor *= (phase / norms[rows, None])[:, :, None, None]
            picks = picks[rows]
            picks[:, col] = cols
            conds = conds[rows]
            conds[:, col] = cond[rows]
            prob = prob[rows] * conds[:, col]
            tensor = tensor.reshape(len(rows), *child_ranks, d_v, *rest_shape)
            labels = halves + [("t", v)] + rem

    m = len(measuring)
    yield from step(0, np.ones(1, dtype=complex), [], np.ones(1),
                    np.zeros((1, m), dtype=np.intp), np.zeros((1, m)))


def _final_rows(tensor, labels):
    """A finished batch's registers as amplitude rows in party order, each
    normalized and its norm checked.  The rows are the walk's last register
    or a copy of it, which nothing else reads, so they are normalized in
    place."""
    b = len(tensor)
    perm = sorted(range(len(labels)), key=labels.__getitem__)
    amps = tensor.transpose([0] + [1 + i for i in perm]).reshape(b, -1)
    amps /= _row_norms(amps)[:, None]
    norms = _row_norms(amps)
    bad = np.flatnonzero(np.abs(norms - 1.0) > config.NORM_TOL)
    if len(bad):
        raise ValueError(f"state norm {norms[bad[0]]} is not 1")
    return amps


def _transcripts(program, choose, every_outcome, disable_corrections):
    """Walk the protocol and finish every followed branch with its
    probability and fidelity: one overlap with the target per batch, on the
    batch's rows conjugated in place, after which the rows are dropped.
    The branches of a batch share one record, which replays their final
    states when one is read."""
    log = _EventLog(program, disable_corrections)
    out: list[Transcript] = []
    for amps, prob, picks, conds in _walk(program, choose, every_outcome,
                                          disable_corrections):
        np.conjugate(amps, out=amps)
        fids = np.abs(amps @ program.target.amplitudes) ** 2
        del amps
        batch = _Batch(log, picks, conds)
        out += [
            Transcript(p, fid, batch, row)
            for row, (p, fid) in enumerate(zip(prob.tolist(), fids.tolist()))
        ]
    return out


class _EventLog:
    """Event sequences of walked branches, rebuilt from their outcome
    columns.  A correction, isometry or message event is one object shared
    by every branch with the same outcome at its vertex; a measurement
    event is shared by the branches that also agree on its probability."""

    def __init__(self, program, disable_corrections):
        self.program = program
        self.disable_corrections = disable_corrections
        # per vertex: its entry of the walk's plan, its correction events by
        # parent outcome or None when nothing is corrected, and its own
        # step's events: the isometry event of a leaf, or a measuring
        # vertex's events by (outcome, probability)
        self.steps = []
        for v, lab, pcol, place, col in program._walk_plan[1]:
            corrects = lab is not None and lab not in disable_corrections
            own = {}
            if col is None:
                own = (Event(kind="isometry", vertex=v, edge=lab),)
            self.steps.append(
                (v, lab, pcol, place, col, {} if corrects else None, own)
            )
        self.prefix = tuple(
            Event(kind="compress", edge=e.label,
                  info=f"rank {m} pair compressed to rank {r}")
            for e in program.tree.edges
            for m, r in [(program.resources[e.label], program.ranks[e.label])]
            if m > r
        )
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
        pair = program.outcome(program.tree.parent(v), j_parent)[place]
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
                for c, pair in zip(t.children(v), self.program.outcome(v, j))
            )
        measure = Event(kind="measure", vertex=v, index=j, probability=p)
        return (measure,) + messages


def simulate(
    program: MeasurementProgram,
    mode: str = "sample",
    seed: int = 0,
    outcomes: dict[int, int] | None = None,
    disable_corrections: tuple[int, ...] = (),
):
    """Run the protocol.

    mode "sample" draws one random branch with the given seed and follows
    it as a forced branch; "branch" follows the forced outcome index per
    nonleaf vertex; "enumerate" walks every branch and returns a list of
    transcripts in depth-first outcome order.  Probabilities are exact
    conditional products, and every transcript carries the resulting state
    and its fidelity with the target.
    """
    if mode == "enumerate":
        return enumerate_branches(
            program, disable_corrections=disable_corrections
        )
    measuring, _, ops = program._walk_plan
    if mode == "sample":
        # every outcome of v has probability 1/K_v, so the draw
        # rng.choice(K_v, p=...) makes, one uniform double against the
        # cumulative probabilities (j + 1) / K_v, is made up front
        rng = np.random.default_rng(seed)
        outcomes = {}
        for v in measuring:
            k = ops[v][2]
            outcomes[v] = min(int(rng.random() * k), k - 1)
    elif mode != "branch":
        raise MalformedProgram(f"unknown mode {mode!r}")
    elif outcomes is None:
        raise MalformedProgram("branch mode needs forced outcomes")
    elif sorted(outcomes) != measuring:
        raise MalformedProgram(
            "forced outcomes must cover exactly the measuring vertices"
        )
    for v, j in outcomes.items():
        if not 0 <= j < ops[v][2]:
            raise OutOfRangeIndex(f"outcome {j} at vertex {v}")

    def choose(v, cond, k, picks):
        j = outcomes[v]
        if cond[0] < config.BRANCH_PRUNE_TOL:
            raise ZeroProbabilityBranch(
                f"outcome {j} at vertex {v} has probability {cond[0]:.3e}"
            )
        return np.zeros(1, dtype=np.intp), np.array([j])

    (transcript,) = _transcripts(program, choose, False, disable_corrections)
    return transcript


def enumerate_branches(
    program: MeasurementProgram,
    disable_corrections: tuple[int, ...] = (),
) -> list[Transcript]:
    """Walk every measurement branch depth first, pruning branches whose
    conditional probability at some step falls below the zero threshold."""

    def choose(v, cond, k, picks):
        live = np.flatnonzero(cond >= config.BRANCH_PRUNE_TOL)
        return np.repeat(live, k), np.tile(np.arange(k), len(live))

    return _transcripts(program, choose, True, disable_corrections)


def check_completeness(program: MeasurementProgram) -> CompletenessReport:
    """Verify each vertex's operator family resolves the identity and each
    leaf map is an isometry, at the true ranks."""
    vertex_defects: dict[int, float] = {}
    for v, (a, *_) in program._walk_plan[2].items():
        # by the Pauli twirl, sum_j op_j^H op_j = A (x) I_C, where A is the
        # Gram matrix of the base over its (level, child levels) rows
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
