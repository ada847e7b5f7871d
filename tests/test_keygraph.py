"""Key-sharing graphs: partitioning sets, tolerance, and edge bounds."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from anonsim.keygraph import (
    MAX_KEYS,
    KeySharingGraph,
    components,
    from_adjacency_json,
    from_edge_list_text,
    is_connected,
    is_partitioning_set,
    key_lower_bound,
    load_graph,
    min_degree,
    to_adjacency_json,
    tolerance,
    vertex_connectivity,
)
from anonsim.protocols import dcnet_send
from anonsim.rng import RngStream


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
    with pytest.raises(ValueError):
        g._replace(edges=frozenset({(2, 0)}))


def test_constructor_stores_edges_as_a_frozenset():
    # a list of edges is hashable once stored, so the XOR network's
    # per-graph cache takes the graph
    g = KeySharingGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert g == KeySharingGraph.complete(3)
    run = dcnet_send(g, 0, 1, RngStream(1))
    assert run.output == 1


# ------------------------------------------------------------- connectivity


def test_is_connected_basics():
    assert is_connected(KeySharingGraph.complete(5))
    assert not is_connected(KeySharingGraph.from_edges(4, [(0, 1), (2, 3)]))
    path = KeySharingGraph.path(5)
    assert is_connected(path, nodes=(0, 1, 2))
    assert not is_connected(path, nodes=(0, 2))
    assert is_connected(path, nodes=(3,))
    assert is_connected(path, nodes=())


def test_components_examples():
    path = KeySharingGraph.path(5)
    assert components(path) == [[0, 1, 2, 3, 4]]
    assert components(path, (4, 0, 3, 1)) == [[0, 1], [3, 4]]
    assert components(path, ()) == []
    split = KeySharingGraph.from_edges(5, [(3, 1), (4, 2)])
    assert components(split) == [[0], [1, 3], [2, 4]]


def test_components_match_networkx():
    import networkx as nx

    for n in range(2, 6):
        for g in _all_graphs(n):
            reference = nx.Graph(list(g.edges))
            reference.add_nodes_from(range(n))
            for size in range(n + 1):
                for nodes in itertools.combinations(range(n), size):
                    expected = sorted(
                        sorted(c) for c in nx.connected_components(reference.subgraph(nodes))
                    )
                    assert components(g, nodes) == expected


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


def test_degrees_and_adjacency_match_the_per_node_scan():
    # `neighbors` scans every edge for one node; the audits build every
    # node's neighbors in one pass, and must report the same
    rnd = random.Random(24)
    for _ in range(40):
        n = rnd.randint(2, 30)
        pairs = list(itertools.combinations(range(n), 2))
        g = KeySharingGraph.from_edges(n, rnd.sample(pairs, rnd.randint(0, len(pairs))))
        smallest = min(g.degree(v) for v in range(n))
        assert min_degree(g) == (smallest, smallest >= 2)
        assert to_adjacency_json(g) == {
            "num_nodes": n,
            "adjacency": {str(v): sorted(g.neighbors(v)) for v in range(n)},
        }


def test_degree_and_adjacency_of_the_largest_complete_graph_are_quick():
    # complete:447 is the largest complete graph under the key cap; one
    # `neighbors` scan per node took about 7 s here
    g = KeySharingGraph.complete(447)
    assert len(g.edges) <= MAX_KEYS < len(KeySharingGraph.complete(448).edges)
    start = time.perf_counter()
    assert min_degree(g) == (446, True)
    adjacency = to_adjacency_json(g)["adjacency"]
    assert time.perf_counter() - start < 2.0
    assert adjacency["0"] == list(range(1, 447))


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


def _random_graphs(seed, count, min_nodes, max_nodes):
    """Seeded graphs of varied size and edge density."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_nodes, max_nodes)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        yield KeySharingGraph.from_edges(n, edges)


def test_tolerance_agrees_with_enumeration():
    # every 5-node graph, then seeded random graphs of 6-9 nodes
    graphs = itertools.chain(_all_graphs(5), _random_graphs(7, 60, 6, 9))
    for g in graphs:
        assert tolerance(g) == _tolerance_by_enumeration(g)


def test_vertex_connectivity_matches_networkx():
    import networkx as nx

    for g in _random_graphs(11, 200, 2, 30):
        reference = nx.Graph()
        reference.add_nodes_from(range(g.num_nodes))
        reference.add_edges_from(g.edges)
        assert vertex_connectivity(g) == nx.node_connectivity(reference)


def test_tolerance_monotone_under_edge_addition():
    for g in _all_graphs(4):
        base = tolerance(g)
        for i, j in itertools.combinations(range(4), 2):
            if (i, j) not in g.edges:
                assert tolerance(KeySharingGraph(4, g.edges | {(i, j)})) >= base


def test_tolerance_large_graph_uses_connectivity():
    # 14 nodes is past what the enumeration oracle checks
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
    # oracle: over every graph on n <= 6 nodes, the fewest edges with
    # minimum degree >= 2 and tolerance >= t; so a witness has exactly
    # the bound's count and no graph with fewer edges qualifies
    for n in range(3, 7):
        fewest = [float("inf")] * (n - 1)
        for g in _all_graphs(n):
            if min_degree(g).meets_requirement:
                for t in range(tolerance(g) + 1):
                    fewest[t] = min(fewest[t], len(g.edges))
        assert fewest == [key_lower_bound(n, t) for t in range(n - 1)]


def test_key_lower_bound_validation():
    with pytest.raises(ValueError):
        key_lower_bound(2, 0)
    with pytest.raises(ValueError):
        key_lower_bound(5, 4)
    with pytest.raises(ValueError):
        key_lower_bound(5, -1)
    # no size limit: Harary's bound ceil(3 * 8 / 2)
    assert key_lower_bound(8, 2) == 12


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
    assert from_edge_list_text("0 1\n1 2\n2 3\n") == g
    assert from_edge_list_text("2 3\n1 0\n2 1\n") == g


def test_edge_list_comments_and_errors():
    parsed = from_edge_list_text("# comment\n\n0 1\n1 2\n")
    assert parsed.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        from_edge_list_text("0 1 2\n")


def test_graph_files_are_held_to_the_key_and_node_caps():
    # the largest family under the key cap, path:100001, has MAX_KEYS keys
    # and MAX_KEYS + 1 nodes; a file may have as many and no more
    last = MAX_KEYS
    path_text = "".join(f"{v} {v + 1}\n" for v in range(last))
    assert len(from_edge_list_text(path_text).edges) == MAX_KEYS
    with pytest.raises(ValueError, match=f"line 1: node {last + 1}; at most {last + 1} nodes"):
        from_edge_list_text(f"0 {last + 1}\n")
    with pytest.raises(ValueError, match=f"line {last + 1}: over {MAX_KEYS} keys; at most"):
        from_edge_list_text(path_text + f"0 {last}\n")
    assert from_adjacency_json({"num_nodes": last + 1, "adjacency": {}}).num_nodes == last + 1
    with pytest.raises(ValueError, match=f"num_nodes {last + 2}: at most {last + 1} nodes"):
        from_adjacency_json({"num_nodes": last + 2, "adjacency": {}})
    star = {"0": list(range(1, last + 1)), "1": [2]}
    with pytest.raises(ValueError, match=f"node 1: over {MAX_KEYS} keys; at most {MAX_KEYS} are"):
        from_adjacency_json({"num_nodes": last + 1, "adjacency": star})


def test_load_graph_dispatches_on_extension(tmp_path):
    g = KeySharingGraph.star(4)
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(to_adjacency_json(g)), encoding="utf-8")
    assert load_graph(str(json_path)) == g
    text_path = tmp_path / "g.edges"
    text_path.write_text("0 1\n0 2\n0 3\n", encoding="utf-8")
    assert load_graph(str(text_path)) == g


def test_import_leaves_networkx_unloaded(tmp_path):
    import anonsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(anonsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, anonsim; sys.exit(int('networkx' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    # with networkx unimportable, tolerance and the keygraph command still run
    out = tmp_path / "k14.json"
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from anonsim.cli import main\n"
        "from anonsim.keygraph import KeySharingGraph, tolerance\n"
        "assert tolerance(KeySharingGraph.cycle(14)) == 1\n"
        f"sys.exit(main(['keygraph', '--graph', 'complete:14', '--out', {str(out)!r}]))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["tolerance"] == 12
