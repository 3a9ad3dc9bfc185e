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
the same order in every mode.  The walk carries the live branches as the
rows of one register, and what is fixed per program (the vertex order,
outcome columns, each step's operator, axis permutation and size, each
child's (edge, stride, rank), from which _pair alone decodes the child's
digit of an outcome index, and the probability of every branch) is one
plan, built once and read by every walk, replay and event log.  A child's
correction Z^-z X^x undoes the D^T of its parent's outcome, so it is made
in the parent's gather, not in a pass of its own: a measuring vertex
builds gather and phase tables of just the (branch, outcome) pairs it
follows, shape (followed, C) with C = prod r_c, from (r, r) tables of the
composite cached by rank (of D^T alone for a child whose correction is
disabled), and evaluates no exponential.
The followed pairs, in depth-first order, form the next batch.  A batch
whose next step would build more than _BATCH_AMPLITUDES (2^13) amplitudes
is split depth first into contiguous chunks, which bounds the working
memory of enumeration without changing the branch order.  Every branch ends
in the same target state with the plan's probability, the product of 1/K_v
over the measuring vertices (an outcome of conditional probability 0 is
pruned or refused, never followed); branches differ only in the recorded
outcome labels.

The walk computes each branch's fidelity and nothing else per branch, in
its own axis order: one norm (a zero or non-finite one is
refused) and one overlap per row with the conjugated target, permuted to
that order once per walk.  Then the batch's rows are dropped.  A branch is
its outcome row: a batch's branches share one record of their rows, and a
transcript derives its events, outcomes and final state from that record
and the plan the first time they are read.  The first final state read
from a record replays the record: one walk that follows only its recorded
outcome rows, whose rows _final_rows puts in party order and normalizes,
and which the record keeps.  The walk is independent across rows, so a
replayed row equals the enumerated one and a forced run of its outcomes
bit for bit.  Enumeration therefore holds O(batch) amplitudes plus one
outcome index per branch and measuring vertex, and amplitude rows only for
the records whose final states were read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import log2, prod
from typing import NamedTuple

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

    probability is the walk plan's and fidelity is computed by the walk;
    events, outcomes and final_state are derived on first read from the
    record shared by the branches of the walk's batch, at row _row of it.
    The first final_state read from a record replays the record's outcome
    rows once (_Batch.amps).
    """

    probability: float
    fidelity: float
    _batch: "_Batch" = field(repr=False)
    _row: int = field(repr=False)

    @classmethod
    def _rows(cls, batch, probability, fids) -> list[Transcript]:
        """The transcripts of a batch's rows, built without calling the
        frozen __init__: each gets its fields as __init__ sets them, right
        after it is made, so attribute assignment is still refused and the
        instances keep the compact attribute storage of ones it built
        (made all first, they would each hold a dict of their own)."""
        new, assign = object.__new__, object.__setattr__
        out = []
        for row, fid in enumerate(fids):
            tr = new(cls)
            assign(tr, "probability", probability)
            assign(tr, "fidelity", fid)
            assign(tr, "_batch", batch)
            assign(tr, "_row", row)
            out.append(tr)
        return out

    @cached_property
    def events(self) -> tuple[Event, ...]:
        b = self._batch
        return b.log.branch(b.picks[self._row].tolist())

    @cached_property
    def outcomes(self) -> dict[int, int]:
        b = self._batch
        measuring = b.log.program._walk_plan.measuring
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
    (row) the outcome index at each measuring vertex (columns in the order
    of the measuring vertices).  A branch is its outcome row; what else a
    transcript reads is the plan's.  The rows are distinct and in
    depth-first order, as the walk finished them."""

    log: "_EventLog"
    picks: np.ndarray

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
        measuring = program._walk_plan.measuring

        def choose(v, cond, k, live):
            c = measuring.index(v)
            same = live[:, None, :c] == recorded[None, :, :c]
            rows, match = np.nonzero(same.all(axis=2))
            return np.divmod(np.unique(rows * k + recorded[match, c]), k)

        walk = _walk(program, choose, len(recorded) > 1,
                     self.log.disable_corrections)
        return np.concatenate([_final_rows(program, rows)
                               for rows, _ in walk])


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
        step = self._walk_plan.steps[self.tree.vertices.index(v)]
        return tuple(_pair(stride, r, j) for _, stride, r in step.children)

    @cached_property
    def vertex_ops(self) -> dict[int, np.ndarray]:
        """Every outcome's operator, stacked per vertex as (K_v, d_v,
        in_dim); each stack is checked against the dimension cap."""
        ops = {}
        for s in self._walk_plan.steps:
            if s.col is not None:
                base = self.bases[s.vertex]
                config.check_dim(f"operator stack at vertex {s.vertex}",
                                 s.k * base.size)
                ops[s.vertex] = _operators(base, s.children, np.arange(s.k))
        return ops

    @cached_property
    def _walk_plan(self) -> _Plan:
        """The walk's fixed data, built once per program and read by every
        walk, replay and event log.  A branch's register has axes, in walk
        order, for pair halves ("r", edge label) and finished parties ("t",
        vertex).  A step takes its own edge axis to the front and applies
        op to it: a leaf's isometry, or a measuring vertex's base as a
        (child levels x levels, own levels) matrix, whose child indices
        become the axes of the children's pair halves in front of v's
        level."""
        t = self.tree
        measuring = [v for v in t.vertices if v in self.bases]
        column = {v: i for i, v in enumerate(measuring)}
        levels: dict[tuple, int] = {}
        axes: list[tuple] = []
        steps = []
        probability = 1.0
        for v in t.vertices:
            shape = tuple(map(levels.__getitem__, axes))
            rest = prod(shape)
            lab = pcol = place = perm = None
            if v != t.root:
                u = t.parent(v)
                lab = t.edge_above(v).label
                pcol, place = column[u], t.children(u).index(v)
                i = axes.index(("r", lab))
                if i:
                    perm = (0, i + 1, *(j + 1 for j in range(len(axes))
                                        if j != i))
                del axes[i]
                rest //= levels["r", lab]
            levels["t", v] = self.dims[v - 1]
            if v in self.leaf_isometries:
                op = self.leaf_isometries[v]
                steps.append(_Step(v, lab, pcol, place, None, op, perm, shape,
                                   op.shape[0] * rest, 1, ()))
                axes.insert(0, ("t", v))
                continue
            base = self.bases[v]
            op = np.moveaxis(base, (0, 1), (-2, -1)).reshape(-1, base.shape[1])
            stride = k = self.outcome_count(v)
            probability *= 1.0 / k
            children = []
            for c, r in zip(t.children(v), base.shape[2:]):
                stride //= r * r
                e = t.edge_above(c).label
                children.append((e, stride, r))
                levels["r", e] = r
            steps.append(_Step(v, lab, pcol, place, column[v], op, perm, shape,
                               op.shape[0] * rest, k, tuple(children)))
            axes[:0] = [("r", e) for e, _, _ in children] + [("t", v)]
        return _Plan(measuring, steps, tuple(v for _, v in axes), probability)


class _Step(NamedTuple):
    """One vertex of the walk's plan; edge, pcol and place are None at the
    root, col at a leaf."""

    vertex: int
    edge: int | None  # own edge label
    pcol: int | None  # the parent's outcome column
    place: int | None  # place among the parent's children
    col: int | None  # own outcome column
    op: np.ndarray
    perm: tuple[int, ...] | None  # takes the own edge axis first, if needed
    shape: tuple[int, ...]  # a branch's register before the step
    need: int  # amplitudes per branch the step builds following one outcome
    k: int  # outcome count
    children: tuple[tuple[int, int, int], ...]  # (edge label, stride, rank)


class _Plan(NamedTuple):
    measuring: list[int]  # the measuring vertices: the outcome columns
    steps: list[_Step]  # per vertex in label order
    axes: tuple[int, ...]  # the parties of a finished register's axes
    probability: float  # of every branch: prod of 1/K_v in label order


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


def _pair(stride, r, j):
    """The pair (x, z) that outcome j (an int or an array of them) of a
    measuring vertex announces to a child of rank r, from the child's
    stride in the walk plan: the digit j // stride % r^2, written x r + z.
    This is the one decoder of an outcome index."""
    return divmod(j // stride % (r * r), r)


def _outcome_gather(children, js) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables of outcomes js on the children's pair halves.

    children holds per child, child 1 first, its stride and rank in the
    plan and its _child_tables (sources, phases): for the pair (x, z) the
    outcome announces (_pair), level m of the child's half reads level l =
    sources[x, m] of the base's product times phases[z, l].  For outcome
    js[i] and children's levels m = (m_1, ..., m_k), mixed radix with child
    1 most significant, level m reads level src[i, m] times phase[i, m].
    Returns arrays of shape (len(js), prod of the ranks).
    """
    n = len(js)
    if not children:
        return np.zeros((n, 1), dtype=np.intp), np.ones((n, 1))
    for i, (stride, r, sources, phases) in enumerate(children):
        x, z = _pair(stride, r, js)
        level = sources[x]
        factor = phases[z[:, None], level]
        if i:
            src = (src[:, :, None] * r + level[:, None]).reshape(n, -1)
            phase = (phase[:, :, None] * factor[:, None]).reshape(n, -1)
        else:
            src, phase = level, factor
    return src, phase


def _operators(base: np.ndarray, children, js: np.ndarray) -> np.ndarray:
    """The operators of outcomes js of a measuring vertex with this base
    and these children of its plan step, shape (len(js), d_v, in_dim), by
    one gather and one phase: column (a, m) of outcome j is base column
    (a, src[j, m]) times phase[j, m] / sqrt(C)."""
    d_v, r_own = base.shape[:2]
    src, phase = _outcome_gather(
        [(stride, r, *_child_tables(r, False)) for _, stride, r in children],
        js,
    )
    cols = base.reshape(d_v, r_own, -1)[:, :, src]
    cols = cols * (phase / np.sqrt(src.shape[1]))
    return np.moveaxis(cols, 2, 0).reshape(len(js), d_v, -1)


# Largest array, in amplitudes, that one batched step of the walk builds;
# a batch whose step would build more is split depth first into
# contiguous chunks of branches.
_BATCH_AMPLITUDES = 2**13


def _correction_tables(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables of the correction Z^-z X^x on r levels:
    level l of the corrected register is phases[z, l] times level
    sources[x, l] of the uncorrected one."""
    levels = np.arange(r)
    sources = (levels[None, :] - levels[:, None]) % r
    phases = np.exp(2j * np.pi * ((r - levels[:, None]) % r) * levels / r)
    return sources, phases


@cache
def _child_tables(r: int, corrected: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gather and phase tables, each (r, r), of what outcome pair (x, z)
    does to a child's pair half on r levels: level m of the result is
    phases[z, l] times level l = sources[x, m] of the input.

    The parent's outcome applies the transposed Pauli D^T = (Z^z X^x)^T,
    which takes level l = (m + x) mod r to m with the phase exp(2 pi i z l
    / r).  A child that corrects then applies Z^-z X^x (_correction_tables),
    which undoes it, so the composite reads level m itself (sources[x] is
    the identity) and its phase on level m is the Pauli's times the
    correction's, 1 up to rounding."""
    levels = np.arange(r)
    phases = np.exp(2j * np.pi * levels[:, None] * levels / r)
    if corrected:
        phases *= _correction_tables(r)[1]
        sources = np.broadcast_to(levels, (r, r))
    else:
        sources = (levels[None, :] + levels[:, None]) % r
    sources.flags.writeable = False
    phases.flags.writeable = False
    return sources, phases


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a complex (rows, n) array."""
    f = np.ascontiguousarray(a).view(float)
    return np.sqrt(np.einsum("ij,ij->i", f, f))


def _final_norms(rows: np.ndarray) -> np.ndarray:
    """The norm of every finished amplitude row; a row whose norm is zero
    or not finite cannot be normalized and is refused."""
    norms = _row_norms(rows)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if len(bad):
        raise ValueError(
            f"final state norm {norms[bad[0]]} cannot be normalized"
        )
    return norms


def _walk(program, choose, every_outcome, disable_corrections):
    """Walk the protocol in the order of the program's plan, carrying the
    live branches as the rows of one (branches, amplitudes) register.

    choose(v, cond, k, picks) gets, per live branch at measuring vertex v,
    the conditional probability of each of v's k outcomes (they are equally
    likely: 1/k, or 0 when the base annihilates the branch's register) and
    the branch's outcome columns so far, and returns the (branch rows,
    outcome columns) to follow in row-major order, so the walk finishes the
    followed branches in depth-first outcome order.  every_outcome says
    whether it may follow every outcome of a branch (enumeration) or at
    most one, which sets the largest array a step builds; the largest
    measuring step is checked against the dimension cap once per walk.

    A step takes its own edge axis to the front and applies its plan's
    operator; a measuring vertex then gathers and phases only the followed
    outcomes, each child's correction included (_child_tables), unless the
    child's edge is in disable_corrections.  Besides its register a branch
    is its outcome row, its outcome index at each measuring vertex so far:
    the conditional probabilities are made per step for choose only, since
    every followed branch has the plan's probability.

    Yields each finished batch as (rows, picks): its branches' final
    registers, unnormalized, with axes in the walk order plan.axes, which
    nothing else reads, and their outcome rows.
    """
    plan = program._walk_plan
    steps = plan.steps
    needs = [s.need * s.k if every_outcome else s.need for s in steps]
    need, v = max((n, s.vertex) for n, s in zip(needs, steps)
                  if s.col is not None)
    config.check_dim(f"measurement at vertex {v}", need)
    needs.append(prod(program.dims))
    gathers = [
        tuple((stride, r, *_child_tables(r, lab not in disable_corrections))
              for lab, stride, r in s.children)
        for s in steps
    ]

    def step(pos, tensor, picks):
        """Carry one batch from plan position pos to the end of the walk.
        Each step rebinds the batch's arrays, so a register is freed once
        the next one is built; a batch is split where a step would build
        too much."""
        while True:
            b = len(picks)
            need = needs[pos]
            if b > 1 and b * need > _BATCH_AMPLITUDES:
                n = max(1, _BATCH_AMPLITUDES // need)
                for start in range(0, b, n):
                    part = slice(start, start + n)
                    yield from step(pos, tensor[part], picks[part])
                return
            if pos == len(steps):
                yield tensor, picks
                return
            s = steps[pos]
            if s.perm is not None:
                tensor = tensor.reshape(b, *s.shape).transpose(s.perm)
            y = s.op @ tensor.reshape(b, s.op.shape[1], -1)
            del tensor
            if s.col is None:
                tensor = y.reshape(b, -1)
                pos += 1
                continue
            norms = _row_norms(y.reshape(b, -1))
            cond = np.where(norms > 0.0, 1.0 / s.k, 0.0)
            rows, cols = choose(s.vertex, cond, s.k, picks)
            if not len(rows):
                return
            src, phase = _outcome_gather(gathers[pos], cols)
            c = src.shape[1]
            # y's rows are (branch, children's levels), each holding v's
            # level by the rest of the register
            tensor = y.reshape(b * c, -1)[(rows[:, None] * c + src).ravel()]
            del y
            tensor = tensor.reshape(len(rows), c, -1)
            tensor *= (phase / norms[rows, None])[:, :, None]
            tensor = tensor.reshape(len(rows), -1)
            picks = picks[rows]
            picks[:, s.col] = cols
            pos += 1

    yield from step(0, np.ones((1, 1), dtype=complex),
                    np.zeros((1, len(plan.measuring)), dtype=np.intp))


def _final_rows(program, rows):
    """A finished batch's rows, in the walk's axis order, as normalized
    amplitude rows in party order, each norm checked (_final_norms).  This
    serves the replay of final states only; the walk scores its batches in
    its own axis order."""
    axes = program._walk_plan.axes
    b = len(rows)
    perm = sorted(range(len(axes)), key=axes.__getitem__)
    shape = [program.dims[v - 1] for v in axes]
    amps = rows.reshape(b, *shape).transpose(0, *(1 + i for i in perm))
    amps = amps.reshape(b, -1)
    amps /= _final_norms(amps)[:, None]
    return amps


def _transcripts(program, choose, every_outcome, disable_corrections):
    """Walk the protocol and finish every followed branch with the plan's
    probability and its fidelity, read in the walk's axis order: per batch
    one norm and one overlap per row with the conjugated target, which is
    permuted to that order once per walk, after which the rows are dropped.
    The branches of a batch share one record, which replays their final
    states when one is read."""
    log = _EventLog(program, disable_corrections)
    probability = program._walk_plan.probability
    out: list[Transcript] = []
    target = None
    for rows, picks in _walk(program, choose, every_outcome,
                             disable_corrections):
        if target is None:
            # made at the first finished batch, when no step's register
            # is held any more
            view = program.target.tensor.transpose(
                [v - 1 for v in program._walk_plan.axes]
            )
            target = np.conjugate(view, out=np.empty(view.shape, complex))
            target = target.reshape(-1)
        fids = np.abs(rows @ target) / _final_norms(rows)
        del rows
        out += Transcript._rows(_Batch(log, picks), probability,
                                (fids * fids).tolist())
    return out


class _EventLog:
    """Event sequences of walked branches, rebuilt from their outcome rows
    and the plan.  Each event is made when the outcome that decides it is
    first read, and then shared by every branch with that outcome: a
    correction by its parent's outcome, a measuring vertex's measure and
    message events by its own (the measure event's probability is the
    plan's 1/K_v), and a leaf's isometry event by every branch."""

    def __init__(self, program, disable_corrections):
        self.program = program
        self.disable_corrections = disable_corrections
        # each keyed by (plan position, deciding outcome)
        self.correction = cache(self._correction)
        self.own = cache(self._own)
        self.prefix = tuple(
            Event(kind="compress", edge=e.label,
                  info=f"rank {m} pair compressed to rank {r}")
            for e in program.tree.edges
            for m, r in [(program.resources[e.label], program.ranks[e.label])]
            if m > r
        )

    def branch(self, row: list[int]) -> tuple[Event, ...]:
        out = list(self.prefix)
        for pos, s in enumerate(self.program._walk_plan.steps):
            if s.edge is not None and s.edge not in self.disable_corrections:
                out += self.correction(pos, row[s.pcol])
            out += self.own(pos, None if s.col is None else row[s.col])
        return tuple(out)

    def _correction(self, pos, j_parent):
        program = self.program
        s = program._walk_plan.steps[pos]
        parent = program.tree.parent(s.vertex)
        pair = program.outcome(parent, j_parent)[s.place]
        if pair == (0, 0):
            return ()
        x, z = pair
        return (
            Event(
                kind="correction",
                vertex=s.vertex,
                edge=s.edge,
                outcome=pair,
                info=f"shift -{x} phase -{z} on rank {program.ranks[s.edge]}",
            ),
        )

    def _own(self, pos, j):
        """A leaf's isometry event (j None), or a measuring vertex's measure
        and message events of its outcome j."""
        s = self.program._walk_plan.steps[pos]
        v = s.vertex
        if j is None:
            return (Event(kind="isometry", vertex=v, edge=s.edge),)
        measure = Event(kind="measure", vertex=v, index=j,
                        probability=1.0 / s.k)
        return (measure,) + tuple(
            Event(
                kind="message",
                vertex=v,
                edge=lab,
                outcome=_pair(stride, r, j),
                info=f"to vertex {c}",
            )
            for c, (lab, stride, r) in zip(self.program.tree.children(v),
                                           s.children)
        )


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
    plan = program._walk_plan
    measuring = plan.measuring
    counts = {s.vertex: s.k for s in plan.steps if s.col is not None}
    if mode == "sample":
        # every outcome of v has probability 1/K_v, so the draw
        # rng.choice(K_v, p=...) makes, one uniform double against the
        # cumulative probabilities (j + 1) / K_v, is made up front
        rng = np.random.default_rng(seed)
        outcomes = {}
        for v in measuring:
            k = counts[v]
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
        if not 0 <= j < counts[v]:
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
    for s in program._walk_plan.steps:
        if s.col is None:
            continue
        # by the Pauli twirl, sum_j op_j^H op_j = A (x) I_C, where A is the
        # Gram matrix of the base over its (child levels, level) rows;
        # eigvalsh need not converge on a matrix that is not finite, whose
        # defect is nan
        gram = s.op.conj().T @ s.op
        eigs = np.linalg.eigvalsh(gram) if np.isfinite(gram).all() else np.nan
        vertex_defects[s.vertex] = float(np.abs(eigs - 1.0).max())
    iso_defects: dict[int, float] = {}
    for leaf, u in program.leaf_isometries.items():
        gram = u.conj().T @ u
        iso_defects[leaf] = float(
            np.abs(gram - np.eye(gram.shape[0])).max()
        )
    # np.max, unlike max, returns nan when any defect is nan, so a
    # non-finite defect fails the check whatever the order of the defects
    all_defects = list(vertex_defects.values()) + list(iso_defects.values())
    max_defect = float(np.max(all_defects)) if all_defects else 0.0
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
