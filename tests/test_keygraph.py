"""Key-sharing graphs: partitioning sets, tolerance, and edge bounds."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

from anonsim.keygraph import (
    KeySharingGraph,
    from_adjacency_json,
    from_edge_list_text,
    is_connected,
    is_partitioning_set,
    key_lower_bound,
    load_graph,
    min_degree,
    to_adjacency_json,
    to_edge_list_text,
    tolerance,
    vertex_connectivity,
)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if (mask >> i) & 1]
        yield KeySharingGraph.from_edges(n, edges)


def _tolerance_by_enumeration(g):
    """Oracle: directly try every colluder subset, smallest first."""
    n = g.num_nodes
    if not is_connected(g):
        return -1
    for size in range(1, n - 1):
        for subset in itertools.combinations(range(n), size):
            honest = set(range(n)) - set(subset)
            if not is_connected(g, honest):
                return size - 1
    return n - 2


# ------------------------------------------------------------- construction


def test_constructors_and_degrees():
    k4 = KeySharingGraph.complete(4)
    assert len(k4.edges) == 6
    assert all(k4.degree(v) == 3 for v in range(4))

    c5 = KeySharingGraph.cycle(5)
    assert len(c5.edges) == 5
    assert all(c5.degree(v) == 2 for v in range(5))

    p4 = KeySharingGraph.path(4)
    assert len(p4.edges) == 3
    assert p4.degree(0) == 1 and p4.degree(1) == 2

    s5 = KeySharingGraph.star(5)
    assert s5.degree(0) == 4
    assert all(s5.degree(v) == 1 for v in range(1, 5))
    assert s5.neighbors(0) == frozenset({1, 2, 3, 4})


def test_edges_normalized_and_validated():
    g = KeySharingGraph.from_edges(3, [(2, 0), (0, 1)])
    assert g.edges == frozenset({(0, 2), (0, 1)})
    with pytest.raises(ValueError):
        KeySharingGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        KeySharingGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        KeySharingGraph.from_edges(1, [])


def test_with_edge_is_persistent():
    g = KeySharingGraph.from_edges(3, [(0, 1)])
    g2 = g.with_edge(1, 2)
    assert (1, 2) in g2.edges
    assert (1, 2) not in g.edges


# ------------------------------------------------------------- connectivity


def test_is_connected_basics():
    assert is_connected(KeySharingGraph.complete(5))
    assert not is_connected(KeySharingGraph.from_edges(4, [(0, 1), (2, 3)]))
    path = KeySharingGraph.path(5)
    assert is_connected(path, nodes=(0, 1, 2))
    assert not is_connected(path, nodes=(0, 2))
    assert is_connected(path, nodes=(3,))
    assert is_connected(path, nodes=())


def test_partitioning_set_examples():
    path = KeySharingGraph.path(5)
    assert is_partitioning_set(path, (2,))  # middle of a path cuts it
    assert not is_partitioning_set(path, (0,))  # endpoints do not
    star = KeySharingGraph.star(5)
    assert is_partitioning_set(star, (0,))  # the hub always cuts a star
    k5 = KeySharingGraph.complete(5)
    for subset in itertools.combinations(range(5), 3):
        assert not is_partitioning_set(k5, subset)


def test_partitioning_set_validation():
    k4 = KeySharingGraph.complete(4)
    with pytest.raises(ValueError):
        is_partitioning_set(k4, (0, 1, 2))
    with pytest.raises(ValueError):
        is_partitioning_set(k4, (8,))


def test_min_degree_report():
    assert min_degree(KeySharingGraph.cycle(4)) == (2, True)
    assert min_degree(KeySharingGraph.path(4)) == (1, False)
    assert min_degree(KeySharingGraph.complete(6)) == (5, True)


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(KeySharingGraph.complete(5)) == 4
    assert vertex_connectivity(KeySharingGraph.cycle(6)) == 2
    assert vertex_connectivity(KeySharingGraph.path(4)) == 1
    assert vertex_connectivity(KeySharingGraph.from_edges(4, [(0, 1), (2, 3)])) == 0


# ----------------------------------------------------------------- tolerance


def test_tolerance_frozen_examples():
    assert tolerance(KeySharingGraph.cycle(6)) == 1
    assert tolerance(KeySharingGraph.complete(6)) == 4
    assert tolerance(KeySharingGraph.star(5)) == 0
    assert tolerance(KeySharingGraph.path(4)) == 0
    assert tolerance(KeySharingGraph.from_edges(4, [(0, 1), (2, 3)])) == -1


def test_tolerance_agrees_with_enumeration_on_all_5_node_graphs():
    # dual route: subset enumeration vs the vertex-connectivity shortcut
    for g in _all_graphs(5):
        enum = _tolerance_by_enumeration(g)
        assert tolerance(g) == enum
        if is_connected(g):
            assert enum == min(vertex_connectivity(g) - 1, g.num_nodes - 2)


def test_tolerance_monotone_under_edge_addition():
    for g in _all_graphs(4):
        base = tolerance(g)
        for i, j in itertools.combinations(range(4), 2):
            if (i, j) not in g.edges:
                assert tolerance(g.with_edge(i, j)) >= base


def test_tolerance_large_graph_uses_connectivity():
    # 14 nodes is past the enumeration limit
    big = KeySharingGraph.cycle(14)
    assert tolerance(big) == 1
    assert tolerance(KeySharingGraph.complete(14)) == 12


# ---------------------------------------------------------------- edge bound


def test_key_lower_bound_closed_forms():
    for n in range(3, 11):
        assert key_lower_bound(n, 0) == n
        assert key_lower_bound(n, n - 2) == n * (n - 1) // 2


def test_key_lower_bound_intermediate_values():
    # n=4,t=1: the cycle already tolerates one colluder
    assert key_lower_bound(4, 1) == 4
    # n=5,t=1: cycle again
    assert key_lower_bound(5, 1) == 5
    # n=5,t=2: needs connectivity 3, so min degree 3 and ceil(15/2)=8 edges
    assert key_lower_bound(5, 2) == 8
    # n=6,t=2: K_{3,3} reaches connectivity 3 with 9 edges
    assert key_lower_bound(6, 2) == 9


def test_key_lower_bound_witnesses_exist():
    # the reported minimum is attainable by an actual graph
    cases = [(4, 1), (5, 2), (6, 2)]
    for n, t in cases:
        m = key_lower_bound(n, t)
        pairs = list(itertools.combinations(range(n), 2))
        found = any(
            tolerance(KeySharingGraph.from_edges(n, combo)) >= t
            and min_degree(KeySharingGraph.from_edges(n, combo)).value >= 2
            for combo in itertools.combinations(pairs, m)
        )
        assert found


def test_key_lower_bound_validation():
    with pytest.raises(ValueError):
        key_lower_bound(2, 0)
    with pytest.raises(ValueError):
        key_lower_bound(5, 4)
    with pytest.raises(ValueError):
        key_lower_bound(5, -1)
    with pytest.raises(ValueError, match="n <= 6"):
        key_lower_bound(8, 2)


# ----------------------------------------------------------------------- io


def test_adjacency_json_round_trip():
    g = KeySharingGraph.cycle(5)
    obj = to_adjacency_json(g)
    assert obj["num_nodes"] == 5
    assert obj["adjacency"]["0"] == [1, 4]
    assert from_adjacency_json(obj) == g
    json.dumps(obj)


def test_edge_list_round_trip():
    g = KeySharingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    text = to_edge_list_text(g)
    assert text == "0 1\n1 2\n2 3\n"
    assert from_edge_list_text(text) == g
    assert from_edge_list_text(text, num_nodes=6).num_nodes == 6


def test_edge_list_comments_and_errors():
    parsed = from_edge_list_text("# comment\n\n0 1\n1 2\n")
    assert parsed.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        from_edge_list_text("0 1 2\n")


def test_load_graph_dispatches_on_extension(tmp_path):
    g = KeySharingGraph.star(4)
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(to_adjacency_json(g)), encoding="utf-8")
    assert load_graph(str(json_path)) == g
    text_path = tmp_path / "g.edges"
    text_path.write_text(to_edge_list_text(g), encoding="utf-8")
    assert load_graph(str(text_path)) == g


def test_import_leaves_networkx_unloaded():
    import anonsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, anonsim; sys.exit(int('networkx' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
