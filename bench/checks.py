"""Output checks for the benchmark, computed apart from anonsim.

Every check returns None when the output is right and a one-line reason
when it is not.  The expected values come from independent computations
(the 2-adic valuation, a breadth-first search of the honest subgraph,
networkx connectivity) or from properties the protocols must have (the
XOR of an anonymous broadcast is the sent bit, teleportation has
fidelity 1).  Nothing here compares against a stored copy of earlier
output.
"""

from __future__ import annotations

from fractions import Fraction

FIDELITY_ATOL = 1e-9


def two_adic_valuation(m: int) -> int:
    """Largest j with 2^j dividing m, for m >= 1."""
    if m < 1:
        raise ValueError(f"valuation needs m >= 1, got {m}")
    j = 0
    while m % 2 == 0:
        m //= 2
        j += 1
    return j


def expected_first_odd_round(k: int):
    """Round where collision detection with k wishers first sees odd parity.

    k = 1 never sees one (None); k = 0 starts at phase -pi, odd at round 0;
    k >= 2 is odd first at round v2(k - 1).
    """
    if k == 1:
        return None
    if k == 0:
        return 0
    return two_adic_valuation(k - 1)


def smallest_component(num_nodes: int, edges, removed) -> int:
    """Size of the smallest connected component left after removing nodes."""
    removed = set(removed)
    adjacency = {v: set() for v in range(num_nodes) if v not in removed}
    for i, j in edges:
        if i in adjacency and j in adjacency:
            adjacency[i].add(j)
            adjacency[j].add(i)
    unseen = set(adjacency)
    smallest = num_nodes
    while unseen:
        start = unseen.pop()
        queue = [start]
        size = 1
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if w in unseen:
                    unseen.discard(w)
                    queue.append(w)
                    size += 1
        smallest = min(smallest, size)
    return smallest


def nx_graph(num_nodes: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(num_nodes))
    g.add_edges_from(edges)
    return g


def expected_tolerance(num_nodes: int, edges) -> int:
    """min(node connectivity - 1, n - 2), from networkx directly."""
    import networkx as nx

    return min(nx.node_connectivity(nx_graph(num_nodes, edges)) - 1, num_nodes - 2)


def expected_min_degree(num_nodes: int, edges) -> int:
    return min(d for _, d in nx_graph(num_nodes, edges).degree())


def xor_bits(entries) -> int:
    """XOR of the bit strings of one broadcast round."""
    total = 0
    for entry in entries:
        for ch in entry["bits"]:
            total ^= int(ch)
    return total


# ---- exact and sampled verdicts -------------------------------------------


def check_exact_ghz(verdict, n: int, t: int):
    want = Fraction(1, n - t)
    if verdict.posterior_max != want:
        return f"posterior_max {verdict.posterior_max} != 1/(n-t) = {want}"
    if verdict.verdict is not True:
        return "exact GHZ verdict is not PASS"
    return None


def check_exact_dcnet(verdict, num_nodes: int, edges, colluders, d: int, hijack: bool):
    """Posterior of the exact XOR-network verdict, from the graph alone.

    d = 0 hides the sender from every adversary (baseline).  With d = 1 a
    full hijack traces the sender (posterior 1), and plain collusion
    narrows the sender to its component of the honest subgraph, so the
    best posterior is 1 over the smallest component.
    """
    baseline = Fraction(1, num_nodes - len(colluders))
    if d == 0:
        want = baseline
    elif hijack:
        want = Fraction(1)
    else:
        want = Fraction(1, smallest_component(num_nodes, edges, colluders))
    if verdict.posterior_max != want:
        return f"posterior_max {verdict.posterior_max} != {want}"
    if verdict.verdict != (want == baseline):
        return f"verdict {verdict.verdict} disagrees with posterior {want}"
    return None


def check_sampled(verdict, expect_pass: bool):
    if expect_pass:
        if verdict.verdict is not True:
            return f"sampled verdict FAIL (max_tv {verdict.max_tv})"
        return None
    if verdict.verdict is not False:
        return "sampled verdict PASS where the sender is traceable"
    if verdict.posterior_max != 1.0:
        return f"posterior_max {verdict.posterior_max} != 1"
    return None


# ---- CLI records -----------------------------------------------------------


def check_anon_record(record: dict, d: int):
    if record["verdicts"].get("decoded") != d:
        return f"decoded {record['verdicts'].get('decoded')} != d = {d}"
    if xor_bits(record["rounds"][0]) != d:
        return "XOR of the broadcast bits != d"
    return None


def check_parity_record(record: dict, flippers):
    want = len(set(flippers)) % 2
    if record["verdicts"].get("parity") != want:
        return f"parity {record['verdicts'].get('parity')} != {want}"
    if xor_bits(record["rounds"][0]) != want:
        return "XOR of the broadcast bits != |flippers| mod 2"
    return None


def check_fidelity(value: float):
    if abs(value - 1.0) > FIDELITY_ATOL:
        return f"fidelity {value!r} is not 1 within {FIDELITY_ATOL}"
    return None


def check_ae_record(record: dict):
    if record["verdicts"].get("phase_numerator") != 0:
        return "residual pair phase is not 0"
    return check_fidelity(record["verdicts"]["fidelity_with_epr"])


def check_anonq_record(record: dict):
    return check_fidelity(record["verdicts"]["fidelity"])


def check_collision(k: int, first_odd_round, verdict: str):
    want = expected_first_odd_round(k)
    if first_odd_round != want:
        return f"k={k}: first odd round {first_odd_round} != {want}"
    if (verdict == "exactly_one") != (k == 1):
        return f"k={k}: verdict {verdict}"
    return None


def check_dcnet_record(record: dict, sender: int, d: int):
    if record["verdicts"].get("decoded") != d:
        return "decoded bit != d"
    if xor_bits(record["rounds"][0]) != d:
        return "XOR of the announcements != d"
    if d == 1 and record["verdicts"].get("traced") != sender:
        return f"trace attack named {record['verdicts'].get('traced')}, sender {sender}"
    return None


def check_keygraph_report(report: dict, num_nodes: int, edges):
    want = expected_tolerance(num_nodes, edges)
    if report["tolerance"] != want:
        return f"tolerance {report['tolerance']} != {want}"
    if report["min_degree"] != expected_min_degree(num_nodes, edges):
        return "min_degree disagrees with networkx"
    return None


def check_verdict_report(report: dict, n: int, t: int):
    if report["posterior_max"] != float(Fraction(1, n - t)):
        return f"posterior_max {report['posterior_max']} != 1/(n-t)"
    if report["verdict"] is not True:
        return "exact verdict report is not PASS"
    return None


def check_replay(first: bytes, again: bytes):
    if first != again:
        return "re-running with the same seed changed the output bytes"
    return None
