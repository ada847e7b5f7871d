"""Key-sharing graph analysis for the classical XOR network.

Nodes are players; an edge means the two endpoints share a pairwise key
bit.  Colluding players hand the adversary their keys, which effectively
deletes them from the graph.  Sender anonymity survives a colluder set
only if the honest remainder stays connected, so the interesting graph
quantities are: which colluder sets partition the honest players, the
largest collusion size that no set achieves (the tolerance), the minimum
degree (a degree-1 node is read directly by its only neighbor), and the
minimum number of keys needed to reach a given tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

ENUM_NODE_LIMIT = 12
GRAPH_SEARCH_NODE_LIMIT = 6


@dataclass(frozen=True)
class KeySharingGraph:
    """Undirected simple graph with nodes 0..num_nodes-1.

    Edges are stored as (i, j) pairs with i < j.
    """

    num_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.num_nodes}")
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.num_nodes):
                raise ValueError(f"bad edge {e} for {self.num_nodes} nodes")

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "KeySharingGraph":
        normalized = frozenset(
            (min(i, j), max(i, j)) for i, j in edges
        )
        for i, j in normalized:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
        return cls(num_nodes, normalized)

    @classmethod
    def complete(cls, n: int) -> "KeySharingGraph":
        return cls.from_edges(n, combinations(range(n), 2))

    @classmethod
    def cycle(cls, n: int) -> "KeySharingGraph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "KeySharingGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int) -> "KeySharingGraph":
        """Center node 0 joined to every other node."""
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    def neighbors(self, v: int) -> frozenset[int]:
        out = set()
        for i, j in self.edges:
            if i == v:
                out.add(j)
            elif j == v:
                out.add(i)
        return frozenset(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def with_edge(self, i: int, j: int) -> "KeySharingGraph":
        return KeySharingGraph.from_edges(
            self.num_nodes, set(self.edges) | {(min(i, j), max(i, j))}
        )


def is_connected(g: KeySharingGraph, nodes: Optional[Iterable[int]] = None) -> bool:
    """Connectivity of the subgraph induced by `nodes` (default: all).

    Zero or one nodes count as connected.
    """
    node_set = set(range(g.num_nodes)) if nodes is None else set(nodes)
    if len(node_set) <= 1:
        return True
    adjacency = {v: set() for v in node_set}
    for i, j in g.edges:
        if i in node_set and j in node_set:
            adjacency[i].add(j)
            adjacency[j].add(i)
    start = next(iter(node_set))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(node_set)


def is_partitioning_set(g: KeySharingGraph, colluders: Iterable[int]) -> bool:
    """True iff removing the colluders disconnects the honest players.

    At most n-2 colluders are meaningful (there must be two honest
    players left to separate); larger sets raise ValueError.
    """
    colluder_set = set(colluders)
    for v in colluder_set:
        if not 0 <= v < g.num_nodes:
            raise ValueError(f"colluder {v} out of range for {g.num_nodes} nodes")
    if len(colluder_set) > g.num_nodes - 2:
        raise ValueError(
            f"at most n-2={g.num_nodes - 2} colluders are modeled, "
            f"got {len(colluder_set)}"
        )
    honest = set(range(g.num_nodes)) - colluder_set
    return not is_connected(g, honest)


class MinDegreeReport(NamedTuple):
    """Minimum degree plus whether it meets the degree >= 2 requirement."""

    value: int
    meets_requirement: bool


def min_degree(g: KeySharingGraph) -> MinDegreeReport:
    """Smallest node degree; a node of degree < 2 leaks to its neighbor."""
    smallest = min(g.degree(v) for v in range(g.num_nodes))
    return MinDegreeReport(smallest, smallest >= 2)


def vertex_connectivity(g: KeySharingGraph) -> int:
    """Minimum number of node removals that disconnect the graph.

    n-1 for the complete graph, 0 for a disconnected one.
    """
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_nodes))
    nxg.add_edges_from(g.edges)
    return int(nx.node_connectivity(nxg))


def tolerance(g: KeySharingGraph) -> int:
    """Largest t such that no colluder set of size <= t partitions g.

    -1 for a disconnected graph (the empty set already partitions it);
    capped at n-2, which the complete graph attains.  Computed by
    exhaustive subset enumeration up to ENUM_NODE_LIMIT nodes and via
    vertex connectivity beyond that (the minimum partitioning set is a
    minimum vertex cut).
    """
    n = g.num_nodes
    if not is_connected(g):
        return -1
    if n <= ENUM_NODE_LIMIT:
        for size in range(1, n - 1):
            for subset in combinations(range(n), size):
                if is_partitioning_set(g, subset):
                    return size - 1
        return n - 2
    return min(vertex_connectivity(g) - 1, n - 2)


def key_lower_bound(n: int, t: int) -> int:
    """Minimum number of pairwise keys for n players tolerating t colluders.

    Requirements on the key graph: minimum degree 2 and tolerance >= t.
    t = 0 gives n (a cycle is optimal; fewer edges cannot keep every
    degree at 2).  t = n-2 gives n(n-1)/2 (only the complete graph has
    no partitioning set at all).  Intermediate t is answered by
    exhaustive search over graphs, feasible up to
    GRAPH_SEARCH_NODE_LIMIT nodes.
    """
    if n < 3:
        raise ValueError(f"need at least 3 players, got {n}")
    if not 0 <= t <= n - 2:
        raise ValueError(f"t must be in [0, n-2], got {t}")
    if t == 0:
        return n
    if t == n - 2:
        return n * (n - 1) // 2
    if n > GRAPH_SEARCH_NODE_LIMIT:
        raise ValueError(
            f"exhaustive graph search supports n <= {GRAPH_SEARCH_NODE_LIMIT}; "
            "closed forms exist only for t=0 and t=n-2"
        )
    pairs = list(combinations(range(n), 2))
    # tolerance >= t forces vertex connectivity >= t+1, hence min degree
    # >= t+1 and at least ceil(n*(t+1)/2) edges.
    start = max(n, (n * (t + 1) + 1) // 2)
    for m in range(start, len(pairs) + 1):
        for combo in combinations(pairs, m):
            g = KeySharingGraph.from_edges(n, combo)
            if tolerance(g) >= t:
                return m
    raise AssertionError("complete graph satisfies every t <= n-2")


def to_adjacency_json(g: KeySharingGraph) -> dict:
    return {
        "num_nodes": g.num_nodes,
        "adjacency": {
            str(v): sorted(g.neighbors(v)) for v in range(g.num_nodes)
        },
    }


def from_adjacency_json(obj: dict) -> KeySharingGraph:
    if not isinstance(obj, dict) or not {"num_nodes", "adjacency"} <= obj.keys():
        raise ValueError("adjacency JSON needs 'num_nodes' and 'adjacency'")
    n = int(obj["num_nodes"])
    edges = set()
    for v_str, neighbors in obj["adjacency"].items():
        v = int(v_str)
        for w in neighbors:
            edges.add((min(v, int(w)), max(v, int(w))))
    return KeySharingGraph.from_edges(n, edges)


def to_edge_list_text(g: KeySharingGraph) -> str:
    """One 'i j' pair per line, sorted; isolated nodes are not encoded."""
    return "".join(f"{i} {j}\n" for i, j in sorted(g.edges))


def from_edge_list_text(text: str, num_nodes: Optional[int] = None) -> KeySharingGraph:
    edges = set()
    highest = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'i j', got {raw!r}")
        i, j = int(parts[0]), int(parts[1])
        edges.add((min(i, j), max(i, j)))
        highest = max(highest, i, j)
    n = (highest + 1) if num_nodes is None else num_nodes
    return KeySharingGraph.from_edges(n, edges)


def load_graph(path: str, num_nodes: Optional[int] = None) -> KeySharingGraph:
    """Read a graph from an adjacency .json file or an edge-list text file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return from_adjacency_json(json.loads(text))
    return from_edge_list_text(text, num_nodes=num_nodes)
