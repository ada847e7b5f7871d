"""Key-sharing graph analysis for the classical XOR network.

Nodes are players; an edge means the two endpoints share a pairwise key
bit.  Colluding players hand the adversary their keys, which effectively
deletes them from the graph.  Sender anonymity survives a colluder set
only if the honest remainder stays connected, so the interesting graph
quantities are: which colluder sets partition the honest players, the
largest collusion size that no set achieves (the tolerance), the minimum
degree (a degree-1 node is read directly by its only neighbor), and the
minimum number of keys needed to reach a given tolerance, which has a
closed form for every number of players (`key_lower_bound`).
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

# The largest graph read from a file, checked while it is read: the
# keys (edges) and the nodes of the largest graph family the command
# line builds.  A run's record holds two ledger entries for each key.
MAX_KEYS = 100_000
MAX_NODES = MAX_KEYS + 1


class _GraphFields(NamedTuple):
    num_nodes: int
    edges: frozenset[tuple[int, int]]


class KeySharingGraph(_GraphFields):
    """Undirected simple graph with nodes 0..num_nodes-1.

    Edges are stored as a frozenset of (i, j) pairs with i < j.
    """

    __slots__ = ()

    def __new__(cls, num_nodes: int, edges: Iterable[tuple[int, int]]):
        edges = frozenset(edges)
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes}")
        for e in edges:
            i, j = e
            if not (0 <= i < j < num_nodes):
                raise ValueError(f"bad edge {e} for {num_nodes} nodes")
        return super().__new__(cls, num_nodes, edges)

    @classmethod
    def _make(cls, iterable):
        """Build through the checks above; `_replace` calls this too."""
        return cls(*iterable)

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


def components(g: KeySharingGraph, nodes: Optional[Iterable[int]] = None) -> list[list[int]]:
    """Connected components of the subgraph induced by `nodes` (default:
    all), each sorted, in order of their smallest node."""
    unseen = set(range(g.num_nodes)) if nodes is None else set(nodes)
    adjacency = {v: [] for v in unseen}
    for i, j in g.edges:
        if i in unseen and j in unseen:
            adjacency[i].append(j)
            adjacency[j].append(i)
    found = []
    for start in sorted(unseen):
        if start in unseen:
            component = [start]
            unseen.discard(start)
            for v in component:
                fresh = [w for w in adjacency[v] if w in unseen]
                unseen.difference_update(fresh)
                component.extend(fresh)
            found.append(sorted(component))
    return found


def is_connected(g: KeySharingGraph, nodes: Optional[Iterable[int]] = None) -> bool:
    """Connectivity of the subgraph induced by `nodes` (default: all).

    Zero or one nodes count as connected.
    """
    return len(components(g, nodes)) <= 1


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


def _adjacency(g: KeySharingGraph) -> list[list[int]]:
    """Each node's neighbors, sorted, from one pass over the edges."""
    adjacency: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    for neighbors in adjacency:
        neighbors.sort()
    return adjacency


def min_degree(g: KeySharingGraph) -> MinDegreeReport:
    """Smallest node degree; a node of degree < 2 leaks to its neighbor."""
    smallest = min(map(len, _adjacency(g)))
    return MinDegreeReport(smallest, smallest >= 2)


def vertex_connectivity(g: KeySharingGraph) -> int:
    """Minimum number of node removals that disconnect the graph.

    n-1 for the complete graph, 0 for a disconnected one.  By Menger's
    theorem this is the fewest internally disjoint paths between two
    non-adjacent nodes, counted as a unit-capacity max flow on the split
    graph: node v is the arc 2v -> 2v+1, edge {u, w} the arcs 2u+1 -> 2w
    and 2w+1 -> 2u.  The bound starts at the minimum degree (the
    neighbors of a minimum-degree node are a cut) and only shrinks.
    Even's rule (Even & Tarjan, "Network flow and testing graph
    connectivity", SIAM J. Comput. 4(4), 1975) limits the sources: while
    the bound exceeds the connectivity k, a minimum cut misses one of
    v_0..v_k, and the first one it misses is cut off from a later node.
    """
    n = g.num_nodes
    adjacency = [set() for _ in range(n)]
    residual = {(2 * v, 2 * v + 1): 1 for v in range(n)}
    for i, j in g.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
        residual[2 * i + 1, 2 * j] = residual[2 * j + 1, 2 * i] = 1
    arcs = [[] for _ in range(2 * n)]
    for a, b in list(residual):
        residual[b, a] = 0
        arcs[a].append(b)
        arcs[b].append(a)
    bound = min(len(neighbors) for neighbors in adjacency)
    source = 0
    while source < bound:
        for target in range(source + 1, n):
            if target in adjacency[source]:
                continue
            # each common neighbor is a path of its own
            if len(adjacency[source] & adjacency[target]) < bound:
                bound = _max_flow(arcs, dict(residual), 2 * source + 1, 2 * target, bound)
        source += 1
    return bound


def _max_flow(arcs: list[list[int]], residual: dict, source: int, sink: int, cap: int) -> int:
    """Flow from source to sink by BFS augmenting paths, counted up to cap.

    `arcs[a]` lists the nodes joined to a by an arc either way, and
    `residual` maps each arc to its remaining capacity; it is used up.
    """
    for flow in range(cap):
        parent = {source: source}
        frontier = deque(parent)
        while frontier and sink not in parent:
            a = frontier.popleft()
            for b in arcs[a]:
                if residual[a, b] and b not in parent:
                    parent[b] = a
                    frontier.append(b)
        if sink not in parent:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            residual[a, b] -= 1
            residual[b, a] += 1
            b = a
    return cap


def tolerance(g: KeySharingGraph) -> int:
    """Largest t such that no colluder set of size <= t partitions g.

    A minimum partitioning set is a minimum vertex cut, so this is the
    vertex connectivity minus one: -1 for a disconnected graph (the empty
    set already partitions it) and n-2 for the complete graph, the only
    graph with no partitioning set at all.
    """
    return vertex_connectivity(g) - 1


def key_lower_bound(n: int, t: int) -> int:
    """Minimum number of pairwise keys for n players tolerating t colluders.

    Requirements on the key graph: minimum degree 2 and tolerance >= t,
    that is vertex connectivity k = t+1.  A k-connected graph has
    minimum degree k, so at least ceil(kn/2) edges, and Harary's graphs
    reach that count for every k < n (Harary, "The maximum connectivity
    of a graph", PNAS 48, 1962).  The degree-2 floor makes it n for
    t = 0, where a cycle is optimal.
    """
    if n < 3:
        raise ValueError(f"need at least 3 players, got {n}")
    if not 0 <= t <= n - 2:
        raise ValueError(f"t must be in [0, n-2], got {t}")
    return max(n, (n * (t + 1) + 1) // 2)


def to_adjacency_json(g: KeySharingGraph) -> dict:
    return {
        "num_nodes": g.num_nodes,
        "adjacency": {
            str(v): neighbors for v, neighbors in enumerate(_adjacency(g))
        },
    }


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def from_adjacency_json(obj: dict) -> KeySharingGraph:
    """Graph from {"num_nodes": n, "adjacency": {"v": [w, ...], ...}}.

    Any other shape raises ValueError: a missing key, an adjacency that
    is not an object, a neighbor list that is not a list, or a node count
    or neighbor that is not an integer.  So does a graph of more than
    MAX_NODES nodes or MAX_KEYS keys, before its edges are all read.
    """
    if not isinstance(obj, dict) or not {"num_nodes", "adjacency"} <= obj.keys():
        raise ValueError("adjacency JSON needs 'num_nodes' and 'adjacency'")
    n = _json_int(obj["num_nodes"], "num_nodes")
    if n > MAX_NODES:
        raise ValueError(f"num_nodes {n}: at most {MAX_NODES} nodes are supported")
    adjacency = obj["adjacency"]
    if not isinstance(adjacency, dict):
        raise ValueError(f"'adjacency' must be an object, got {adjacency!r}")
    edges = set()
    for v_str, neighbors in adjacency.items():
        v = int(v_str)
        if not isinstance(neighbors, list):
            raise ValueError(f"neighbors of node {v_str} must be a list, got {neighbors!r}")
        for w in neighbors:
            w = _json_int(w, f"neighbor of node {v_str}")
            edges.add((min(v, w), max(v, w)))
            if len(edges) > MAX_KEYS:
                raise ValueError(
                    f"node {v_str}: over {MAX_KEYS} keys; at most {MAX_KEYS} are supported"
                )
    return KeySharingGraph.from_edges(n, edges)


def from_edge_list_text(text: str) -> KeySharingGraph:
    """Graph from lines 'i j', one edge each; '#' starts a comment line.

    The nodes are 0 to the highest one named.  A node past MAX_NODES - 1
    or a key past MAX_KEYS raises ValueError at the line that names it.
    """
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
        highest = max(highest, i, j)
        if highest >= MAX_NODES:
            raise ValueError(
                f"line {line_no}: node {highest}; at most {MAX_NODES} nodes are supported"
            )
        edges.add((min(i, j), max(i, j)))
        if len(edges) > MAX_KEYS:
            raise ValueError(
                f"line {line_no}: over {MAX_KEYS} keys; at most {MAX_KEYS} are supported"
            )
    return KeySharingGraph.from_edges(highest + 1, edges)


def load_graph(path: str) -> KeySharingGraph:
    """Read a graph from an adjacency .json file or an edge-list text file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return from_adjacency_json(json.loads(text))
    return from_edge_list_text(text)
