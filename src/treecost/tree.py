"""Rooted-tree model of the quantum network.

Vertices carry 1-based breadth-first labels with the root at label 1, and
edge k joins vertex k+1 to its parent, so edge labels 1..N-1 follow the same
breadth-first order.  Every reshape and bipartition convention elsewhere in
the library is stated in terms of these labels; sibling visitation order is
made deterministic by sorting on the original party identifiers.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import NotATree, UnknownEdge, UnknownParty, UnknownRoot

PartyId = int


@dataclass(frozen=True)
class Edge:
    parent: int
    child: int
    label: int


@dataclass(frozen=True)
class RootedTree:
    """Tree with BFS vertex labels 1..N and edge labels 1..N-1.

    dims[k-1] is the target dimension of vertex k; original_ids[k-1] is the
    identifier vertex k carried in the input that produced this tree.
    """

    dims: tuple[int, ...]
    edges: tuple[Edge, ...]
    original_ids: tuple[object, ...]

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def root(self) -> int:
        return 1

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for e in self.edges:
            out.setdefault(e.parent, []).append(e.child)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}

    @cached_property
    def _parent_edge(self) -> dict[int, Edge]:
        return {e.child: e for e in self.edges}

    def children(self, v: int) -> tuple[int, ...]:
        self._check_party(v)
        return self._children.get(v, ())

    def parent(self, v: int) -> int | None:
        self._check_party(v)
        e = self._parent_edge.get(v)
        return None if e is None else e.parent

    def edge_above(self, v: int) -> Edge:
        """The edge joining non-root vertex v to its parent."""
        self._check_party(v)
        try:
            return self._parent_edge[v]
        except KeyError:
            raise UnknownEdge(f"vertex {v} is the root; it has no parent edge")

    def edge_by_label(self, label: int) -> Edge:
        if not 1 <= label <= len(self.edges):
            raise UnknownEdge(f"no edge labeled {label}")
        return self.edges[label - 1]

    def is_leaf(self, v: int) -> bool:
        return not self.children(v)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.is_leaf(v))

    def dim_of(self, v: int) -> int:
        self._check_party(v)
        return self.dims[v - 1]

    @property
    def label_map(self) -> dict[object, int]:
        """Original identifier -> BFS label."""
        return {pid: k + 1 for k, pid in enumerate(self.original_ids)}

    @cached_property
    def _subtrees(self) -> dict[int, tuple[int, ...]]:
        """Every vertex's subtree, ascending labels, in one pass from the
        highest label down: children carry higher labels than their
        parent, so their subtrees are known first."""
        out: dict[int, tuple[int, ...]] = {}
        for v in reversed(self.vertices):
            below = [u for c in self._children.get(v, ()) for u in out[c]]
            out[v] = (v, *sorted(below))
        return out

    def subtree(self, v: int) -> tuple[int, ...]:
        """Vertex v and all its descendants, ascending labels."""
        self._check_party(v)
        return self._subtrees[v]

    def _check_party(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise UnknownParty(f"no vertex labeled {v}")

    def _check_edge(self, e: Edge) -> None:
        if not 1 <= e.label <= len(self.edges) or self.edges[e.label - 1] != e:
            raise UnknownEdge(f"{e} does not belong to this tree")


def _id_sort_key(pid):
    # Numeric identifiers sort numerically, everything else lexicographically.
    if isinstance(pid, bool):
        return (1, 0, str(pid))
    if isinstance(pid, int):
        return (0, pid, "")
    s = str(pid)
    if s.isdigit():
        return (0, int(s), s)
    return (1, 0, s)


def root_and_relabel(
    edge_list: Iterable[tuple[object, object]],
    party_dims: Mapping[object, int],
    root: object,
) -> RootedTree:
    """Orient a tree at the chosen root and assign BFS labels.

    edge_list holds unordered pairs of original party identifiers; party_dims
    maps every identifier to its target dimension.  Sibling ties in the BFS
    are broken by ascending original identifier.
    """
    parties = list(party_dims.keys())
    if not parties:
        raise NotATree("a tree needs at least one party")
    if root not in party_dims:
        raise UnknownRoot(f"root {root!r} is not a listed party")
    for d in party_dims.values():
        if int(d) < 1:
            raise NotATree("party dimensions must be >= 1")

    adj: dict[object, list[object]] = {p: [] for p in parties}
    seen_pairs = set()
    n_edges = 0
    for a, b in edge_list:
        if a not in party_dims or b not in party_dims:
            raise UnknownParty(f"edge ({a!r}, {b!r}) references an unknown party")
        if a == b:
            raise NotATree(f"self-loop at {a!r}")
        key = frozenset((a, b))
        if key in seen_pairs:
            raise NotATree(f"duplicate edge ({a!r}, {b!r})")
        seen_pairs.add(key)
        adj[a].append(b)
        adj[b].append(a)
        n_edges += 1
    if n_edges != len(parties) - 1:
        raise NotATree(
            f"{len(parties)} parties need {len(parties) - 1} edges, got {n_edges}"
        )

    order: list[object] = []
    parent_of: dict[object, object] = {}
    visited = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in sorted(adj[u], key=_id_sort_key):
            if w not in visited:
                visited.add(w)
                parent_of[w] = u
                queue.append(w)
    if len(order) != len(parties):
        raise NotATree("edge list does not connect all parties")

    label = {pid: k + 1 for k, pid in enumerate(order)}
    edges = tuple(
        Edge(parent=label[parent_of[pid]], child=label[pid], label=k)
        for k, pid in enumerate(order[1:], start=1)
    )
    dims = tuple(int(party_dims[pid]) for pid in order)
    return RootedTree(dims=dims, edges=edges, original_ids=tuple(order))


def bipartition(t: RootedTree, e: Edge) -> tuple[frozenset[int], frozenset[int]]:
    """The two connected vertex sets obtained by removing edge e.

    Returns (child-side closure, complement); together they partition the
    vertex set.
    """
    t._check_edge(e)
    below = frozenset(t.subtree(e.child))
    rest = frozenset(v for v in t.vertices if v not in below)
    return below, rest


def load_tree_json(source, root_override=None) -> RootedTree:
    """Build a RootedTree from the JSON tree document format.

    Accepts a path, a file object, or an already-parsed dict shaped like
    {"parties": [{"id": str, "dim": int}], "edges": [[str, str]], "root": str}.
    A party entry may omit "dim", which then defaults to 2.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    party_dims = {}
    try:
        for entry in doc["parties"]:
            pid = entry["id"]
            if pid in party_dims:
                raise NotATree(f"duplicate party id {pid!r}")
            party_dims[pid] = int(entry.get("dim", 2))
        edge_list = [tuple(e) for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise NotATree(f"malformed tree document: {exc!r}") from exc
    for e in edge_list:
        if len(e) != 2 or not all(isinstance(p, Hashable) for p in e):
            raise NotATree(
                f"malformed tree document: edge {list(e)!r} is not a pair "
                "of party ids"
            )
    root = root_override if root_override is not None else doc.get("root")
    if root is None:
        raise UnknownRoot("tree document has no root and none was given")
    if not isinstance(root, Hashable):
        raise UnknownRoot(f"root {root!r} is not a party id")
    return root_and_relabel(edge_list, party_dims, root)
