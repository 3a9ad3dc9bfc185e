"""Rooted tree labeling, traversal, and bipartition behavior."""

import json

import numpy as np
import pytest

from treecost import (
    NotATree,
    RootedTree,
    UnknownEdge,
    UnknownParty,
    UnknownRoot,
    bipartition,
    load_tree_json,
    root_and_relabel,
)
from treecost.tree import Edge

from helpers import (
    descendants_closure,
    line_edges,
    line_tree,
    random_tree,
    reachability_split,
)


def test_line_labels_follow_bfs_order():
    t = line_tree(4)
    assert t.n == 4
    assert t.root == 1
    assert [e.label for e in t.edges] == [1, 2, 3]
    # labels along a line rooted at an end are just the positions
    assert t.original_ids == (1, 2, 3, 4)
    for e in t.edges:
        assert e.parent < e.child


def test_parent_always_gets_smaller_label():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        t = random_tree(rng, n)
        for e in t.edges:
            assert e.parent < e.child
        assert sorted(e.child for e in t.edges) == list(range(2, n + 1))


def test_rerooting_a_line_at_an_interior_vertex():
    t = line_tree(4, root=2)
    assert t.root == 1
    # original party 2 became the root and has two children
    assert t.label_map[2] == 1
    assert len(t.children(1)) == 2
    # the longer arm (3, 4) hangs off one child
    depth2 = [v for v in t.vertices if t.parent(v) is not None
              and t.parent(t.parent(v)) is not None]
    assert len(depth2) == 1


def test_sibling_ties_break_by_ascending_original_id():
    # star with string ids; numeric strings must sort numerically
    edges = [("hub", "9"), ("hub", "10"), ("hub", "2")]
    dims = {"hub": 2, "9": 2, "10": 2, "2": 2}
    t = root_and_relabel(edges, dims, "hub")
    assert t.original_ids == ("hub", "2", "9", "10")
    assert t.children(1) == (2, 3, 4)


def test_mixed_id_types_sort_stably():
    edges = [(0, "b"), (0, "a"), (0, 3)]
    t = root_and_relabel(edges, {0: 2, "a": 2, "b": 2, 3: 2}, 0)
    # ints first (numeric order), then strings
    assert t.original_ids == (0, 3, "a", "b")


def test_label_map_and_dim_lookup():
    edges = [("r", "x"), ("x", "y")]
    t = root_and_relabel(edges, {"r": 2, "x": 3, "y": 4}, "r")
    m = t.label_map
    assert m == {"r": 1, "x": 2, "y": 3}
    assert t.dims == (2, 3, 4)
    assert t.dim_of(2) == 3


def test_children_parent_edge_accessors():
    t = line_tree(5)
    assert t.children(1) == (2,)
    assert t.children(5) == ()
    assert t.parent(1) is None
    assert t.parent(4) == 3
    assert t.edge_above(3).label == 2
    assert t.is_leaf(5) and not t.is_leaf(2)
    assert t.leaves == (5,)
    with pytest.raises(UnknownParty):
        t.children(6)
    with pytest.raises(UnknownParty):
        t.edge_above(0)
    with pytest.raises(UnknownEdge):
        t.edge_above(1)  # the root has no parent edge


def test_edge_by_label_round_trips():
    t = line_tree(6, root=3)
    for e in t.edges:
        assert t.edge_by_label(e.label) == e
    with pytest.raises(UnknownEdge):
        t.edge_by_label(6)
    with pytest.raises(UnknownEdge):
        bipartition(t, Edge(parent=1, child=2, label=5))


def test_subtree_closure_matches_recursive_oracle():
    rng = np.random.default_rng(11)

    def closure(t, v):
        out = {v}
        for c in t.children(v):
            out |= closure(t, c)
        return out

    for _ in range(25):
        t = random_tree(rng, int(rng.integers(2, 9)))
        for v in t.vertices:
            assert set(t.subtree(v)) == closure(t, v)
            assert t.subtree(v)[0] == v  # labels below v are all larger
            assert descendants_closure(t, v) == frozenset(closure(t, v))


def test_subtrees_are_computed_once_per_tree(monkeypatch):
    # every subtree comes from one cached pass; repeated calls, the
    # closure and bipartition read it instead of walking the tree again
    t = random_tree(np.random.default_rng(17), 9)
    first = {v: t.subtree(v) for v in t.vertices}
    calls = []
    children = type(t).children

    def counted(self, v):
        calls.append(v)
        return children(self, v)

    monkeypatch.setattr(type(t), "children", counted)
    for v in t.vertices:
        assert t.subtree(v) is first[v]
        assert descendants_closure(t, v) == frozenset(first[v])
    for e in t.edges:
        assert bipartition(t, e)[0] == frozenset(first[e.child])
    assert calls == []
    with pytest.raises(UnknownParty):
        t.subtree(t.n + 1)


def test_bipartition_matches_reachability_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        pairs = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        dims = {v: 2 for v in range(1, n + 1)}
        root = int(rng.integers(1, n + 1))
        t = root_and_relabel(pairs, dims, root)
        relabeled = [(t.label_map[a], t.label_map[b]) for a, b in pairs]
        for e in t.edges:
            side, rest = bipartition(t, e)
            want_side, want_rest = reachability_split(
                n, relabeled, (e.parent, e.child)
            )
            assert sorted(side) == want_side
            assert sorted(rest) == want_rest


def test_single_party_tree():
    t = root_and_relabel([], {"only": 3}, "only")
    assert t.n == 1
    assert t.edges == ()
    assert t.leaves == (1,)
    assert t.subtree(1) == (1,)


def test_rejects_cycles_and_disconnection():
    dims = {i: 2 for i in range(1, 5)}
    with pytest.raises(NotATree):
        root_and_relabel([(1, 2), (2, 3), (3, 1), (3, 4)], dims, 1)
    with pytest.raises(NotATree):
        root_and_relabel([(1, 2), (3, 4)], dims, 1)
    with pytest.raises(NotATree):
        root_and_relabel([(1, 2), (2, 3), (3, 4), (1, 3)], dims, 1)
    # N - 1 edges with a cycle leave party 4 out
    with pytest.raises(NotATree, match="edge list does not connect all parties"):
        root_and_relabel([(1, 2), (2, 3), (3, 1)], dims, 1)


def test_rejects_self_loops_duplicates_and_unknown_endpoints():
    dims = {1: 2, 2: 2, 3: 2}
    with pytest.raises(NotATree):
        root_and_relabel([(1, 1), (2, 3)], dims, 1)
    with pytest.raises(NotATree):
        root_and_relabel([(1, 2), (2, 1), (2, 3)], dims, 1)
    with pytest.raises(UnknownParty):
        root_and_relabel([(1, 2), (2, 9)], dims, 1)


def test_rejects_bad_root_and_bad_dims():
    dims = {1: 2, 2: 2}
    with pytest.raises(UnknownRoot):
        root_and_relabel([(1, 2)], dims, 5)
    with pytest.raises(NotATree):
        root_and_relabel([(1, 2)], {1: 2, 2: 0}, 1)
    with pytest.raises(NotATree):
        root_and_relabel([], {}, 1)


def test_load_tree_json_document_and_file(tmp_path):
    doc = {
        "parties": [{"id": "a", "dim": 3}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["b", "c"]],
        "root": "a",
    }
    t = load_tree_json(doc)
    assert t.dims == (3, 2, 2)  # missing dim defaults to 2
    assert t.original_ids == ("a", "b", "c")

    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    t2 = load_tree_json(path)
    assert t2 == t

    t3 = load_tree_json(doc, root_override="c")
    assert t3.original_ids[0] == "c"


def test_load_tree_json_rejects_garbage():
    with pytest.raises(NotATree):
        load_tree_json({"edges": [["a", "b"]]})
    with pytest.raises(UnknownRoot):
        load_tree_json({"parties": [{"id": "a"}, {"id": "b"}],
                        "edges": [["a", "b"]]})
    with pytest.raises(NotATree):
        load_tree_json({"parties": [{"id": "a"}, {"id": "a"}],
                        "edges": [["a", "a"]], "root": "a"})


def test_trees_are_immutable_values():
    t = line_tree(3)
    assert t == line_tree(3)
    assert hash(t) == hash(line_tree(3))
    with pytest.raises(Exception):
        t.dims = (2, 2)
