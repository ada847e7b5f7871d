"""Adversary views, exact distributions, and anonymity verdicts."""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from anonsim.anonymity import (
    DEFAULT_SAMPLED_TRIALS,
    PROTOCOLS,
    AdversaryView,
    Roles,
    _bayes_posterior_max,
    _broadcast_outcomes,
    _broadcast_round,
    _cast,
    _exact_view_dists,
    _redact,
    adversary_view,
    anonymity_verdict,
    traceless_verdict,
)
from anonsim.keygraph import KeySharingGraph, is_connected, tolerance
from anonsim.protocols import anon_send, dcnet_send, trace_attack, xor_pass
from anonsim.rng import RngStream
from anonsim.sampling import SAMPLERS, _row_codes, view_counts


def tv_distance(p, q):
    """Oracle: total variation distance between two distributions given as maps."""
    keys = set(p) | set(q)
    return sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / 2


class _KeyBits:
    """Stands in for an RngStream: hands out chosen key bits in turn."""

    def __init__(self, bits):
        self._bits = iter(bits)

    def bit(self) -> int:
        return next(self._bits)


def _keyed_runs(graph: KeySharingGraph, sender: int, d: int):
    """dcnet_send under every key assignment, keys in sorted-edge order."""
    edges = len(graph.edges)
    for mask in range(1 << edges):
        yield dcnet_send(graph, sender, d, _KeyBits((mask >> i) & 1 for i in range(edges)))


def _announcements(run) -> list[int]:
    return [int(e.bits) for e in run.transcript.rounds[0]]


def _dcnet_outcomes(r: Roles):
    """Oracle: every one of the 2^|E| key assignments of one XOR-network
    round, as (broadcast rounds, each player's draws, probability)."""
    n = r.n
    edges = sorted(r.graph.edges)
    table = [((p, "0"), (p, "1")) for p in range(n)]
    prob = Fraction(1, 1 << len(edges))
    for key_bits in itertools.product((0, 1), repeat=len(edges)):
        announced, incident = xor_pass(n, edges, key_bits)
        announced[r.sender] ^= r.d
        yield (tuple(table[p][b] for p, b in enumerate(announced)),), incident, prob


def _round_list(protocol: str):
    """A GHZ protocol's exact model in PROTOCOLS: roles -> one run's list
    of independent broadcast rounds."""
    _, rounds = PROTOCOLS[protocol].exact.args
    return rounds


def _ghz_outcomes(protocol: str):
    rounds = _round_list(protocol)
    return lambda r: _broadcast_outcomes(r.n, rounds(r))


OUTCOMES = {
    "anon": _ghz_outcomes("anon"),
    "ae": _ghz_outcomes("ae"),
    "anonq": _ghz_outcomes("anonq"),
    "dcnet": _dcnet_outcomes,
}


def _connected_graphs(n: int):
    """Every connected labelled graph on n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = KeySharingGraph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            yield g


# -------------------------------------------------------------------- dcnet


def test_dcnet_decodes_exhaustively():
    for n in (3, 4, 5):
        graph = KeySharingGraph.complete(n)
        for sender in range(n):
            for d in (0, 1):
                for run in _keyed_runs(graph, sender, d):
                    assert run.output == d
                    assert len(_announcements(run)) == n


def test_dcnet_cycle_graph_also_decodes():
    graph = KeySharingGraph.cycle(5)
    rng = RngStream(3)
    for _ in range(50):
        assert dcnet_send(graph, 2, 1, rng).output == 1


def test_dcnet_record_ledger_holds_incident_keys():
    graph = KeySharingGraph.complete(3)
    # keys (0,1)=1, (0,2)=0, (1,2)=1 in sorted-edge order
    decoded, transcript, ledger = dcnet_send(graph, 0, 1, _KeyBits((1, 0, 1)))
    assert decoded == 1
    assert [e.player for e in transcript.rounds[0]] == [0, 1, 2]
    assert ledger.values(0) == (1, 0)  # keys (0,1) then (0,2)
    assert ledger.values(1) == (1, 1)
    assert ledger.values(2) == (0, 1)
    names = [name for name, _ in ledger.entries(0)]
    assert names == ["key:0-1", "key:0-2"]


def test_dcnet_instance_validation():
    graph = KeySharingGraph.complete(3)
    disconnected = KeySharingGraph.from_edges(4, [(0, 1), (2, 3)])
    rng = RngStream(0)
    for bad in ((graph, 5, 1), (graph, 0, 2), (disconnected, 0, 1)):
        with pytest.raises(ValueError):
            dcnet_send(*bad, rng)


def test_trace_attack_identifies_sender_of_one_exhaustively():
    for n in (3, 4):
        graph = KeySharingGraph.complete(n)
        for sender in range(n):
            for run in _keyed_runs(graph, sender, 1):
                assert trace_attack(run, 1) == sender
            for run in _keyed_runs(graph, sender, 0):
                assert trace_attack(run, 0) is None


def test_trace_attack_validates_announcement_length():
    # the announcements come from the run's own transcript, so only the
    # data bit is left to check
    run = dcnet_send(KeySharingGraph.complete(3), 0, 1, RngStream(0))
    with pytest.raises(ValueError):
        trace_attack(run, 2)


def _closed_form_and_oracle(graph, colluders, d, hijack):
    n = graph.num_nodes
    candidates = [p for p in range(n) if p not in colluders]
    watchers = tuple(range(n)) if hijack else tuple(colluders)
    cast = _cast(n, candidates, "sender", d, graph)
    oracle = _bayes_posterior_max(_exact_view_dists(_dcnet_outcomes, cast, watchers))
    return PROTOCOLS["dcnet"].exact(cast, watchers), oracle


def test_dcnet_closed_form_matches_enumeration():
    checked = 0
    for n in (2, 3, 4):
        for graph in _connected_graphs(n):
            for t in range(n - 1):
                for colluders in itertools.combinations(range(n), t):
                    for d, hijack in itertools.product((0, 1), (False, True)):
                        closed, oracle = _closed_form_and_oracle(graph, colluders, d, hijack)
                        assert closed == oracle, (sorted(graph.edges), colluders, d, hijack)
                        checked += 1
    assert checked == 1740


def test_dcnet_closed_form_matches_enumeration_on_random_graphs():
    gen = np.random.default_rng(9)
    for _ in range(12):
        n = int(gen.integers(5, 7))
        # a random tree keeps the graph connected, four more edges shape it
        tree = [(int(gen.integers(0, v)), v) for v in range(1, n)]
        pairs = list(itertools.combinations(range(n), 2))
        extra = [pairs[i] for i in gen.choice(len(pairs), size=4, replace=False)]
        graph = KeySharingGraph.from_edges(n, tree + extra)
        t = int(gen.integers(0, n - 1))
        colluders = tuple(sorted(int(p) for p in gen.choice(n, size=t, replace=False)))
        for d, hijack in itertools.product((0, 1), (False, True)):
            closed, oracle = _closed_form_and_oracle(graph, colluders, d, hijack)
            assert closed == oracle, (sorted(graph.edges), colluders, d, hijack)


def test_dcnet_exact_verdict_passes_iff_t_within_tolerance():
    # every t-set of colluders leaves the sender at the baseline exactly
    # when no t-set partitions the honest players
    for n in (3, 4, 5):
        for graph in _connected_graphs(n):
            tol = tolerance(graph)
            for t in range(n - 1):
                passes = all(
                    anonymity_verdict("dcnet", n, colluders=colluders, graph=graph).verdict
                    for colluders in itertools.combinations(range(n), t)
                )
                assert passes == (t <= tol), (sorted(graph.edges), t)


# ------------------------------------------------------ exact distributions


def test_anon_distribution_support_and_mass():
    for n in (3, 4, 5):
        for d in (0, 1):
            dist = _broadcast_round(n, 0, d)
            assert len(dist) == 1 << (n - 1)
            assert sum(dist.values()) == 1
            assert all(sum(bits) % 2 == d for bits in dist)
            assert set(dist.values()) == {Fraction(1, 1 << (n - 1))}


def test_round_lists_are_candidate_invariant():
    # whoever takes the target role, one run's rounds, and with them
    # everyone's draws, have the same distribution
    for protocol in ("anon", "ae", "anonq"):
        rounds = _round_list(protocol)
        for n, target, d in itertools.product((3, 4, 6), ("sender", "receiver"), (0, 1)):
            lists = [rounds(roles) for roles in _cast(n, range(n), target, d, None).values()]
            assert all(rl == lists[0] for rl in lists), (protocol, n, target, d)


def test_ae_distribution_uniform_and_pair_invariant():
    n = 5
    rounds = _round_list("ae")
    reference = None
    for sender, receiver in itertools.permutations(range(n), 2):
        (dist,) = rounds(Roles(n, sender, receiver, 1, None))
        assert len(dist) == 1 << n
        assert sum(dist.values()) == 1
        assert set(dist.values()) == {Fraction(1, 1 << n)}
        if reference is None:
            reference = dist
        assert dist == reference


def test_exact_distribution_rejects_large_groups():
    for protocol in ("anon", "ae"):
        with pytest.raises(ValueError, match="sampled"):
            anonymity_verdict(protocol, 13)
    # the limits are tested before any round is built
    for protocol in ("anon", "ae", "anonq"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="sampled"):
            anonymity_verdict(protocol, 24)
        assert time.perf_counter() - start < 1.0, protocol


def test_verdict_rejects_non_bit_data():
    graph = KeySharingGraph.complete(4)
    for protocol, mode, d in itertools.product(
        ("anon", "ae", "anonq", "dcnet"), ("exact", "sampled"), (-1, 2, 7)
    ):
        with pytest.raises(ValueError, match="data bit must be 0 or 1"):
            anonymity_verdict(
                protocol, 4, d=d, mode=mode, trials=10, rng=RngStream(0),
                graph=graph if protocol == "dcnet" else None,
            )


def test_tv_distance_basics():
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert tv_distance(p, p) == 0
    q = {"c": Fraction(1, 2), "d": Fraction(1, 2)}
    assert tv_distance(p, q) == 1
    r = {"a": Fraction(1, 2), "c": Fraction(1, 2)}
    assert tv_distance(p, r) == Fraction(1, 2)


# ----------------------------------------------------------- adversary view


def test_adversary_view_redacts_names_and_roles():
    rng = RngStream(19)
    _, transcript, ledger = anon_send(5, 2, 1, rng)
    view = adversary_view(transcript, ledger, (0, 4))
    text = json.dumps(view.to_json())
    for word in ("role", "coin", "decoy", "measurement", "data"):
        assert word not in text
    assert view.corrupted == (0, 4)
    assert [p for p, _ in view.randomness] == [0, 4]


def test_adversary_view_hijack_watches_everyone():
    rng = RngStream(19)
    _, transcript, ledger = anon_send(4, 1, 0, rng)
    view = adversary_view(transcript, ledger, (2,), hijacked_all=True)
    assert [p for p, _ in view.randomness] == [0, 1, 2, 3]
    assert view.hijacked_all
    # the watched values are exactly the broadcast bits for this protocol
    bits = {p: int(b) for p, b in view.messages[0]}
    for p, values in view.randomness:
        assert values == (bits[p],)


def test_adversary_view_rejects_oversized_coalitions():
    rng = RngStream(19)
    _, transcript, ledger = anon_send(4, 1, 0, rng)
    with pytest.raises(ValueError):
        adversary_view(transcript, ledger, (0, 1, 2))
    with pytest.raises(ValueError):
        adversary_view(transcript, ledger, (9,))


def test_adversary_view_key_is_hashable_and_stable():
    rng = RngStream(19)
    _, transcript, ledger = anon_send(4, 1, 0, rng)
    v1 = adversary_view(transcript, ledger, (0,))
    v2 = adversary_view(transcript, ledger, (0,))
    assert v1.key() == v2.key()
    assert {v1.key(): 1}[v2.key()] == 1


# ----------------------------------------------------------------- verdicts


def test_anon_exact_verdict_plain_collusion():
    v = anonymity_verdict("anon", 5, t=0)
    assert v.verdict
    assert v.posterior_max == Fraction(1, 5)
    assert v.baseline == Fraction(1, 5)
    v = anonymity_verdict("anon", 5, t=3)
    assert v.verdict
    assert v.posterior_max == Fraction(1, 2)


def test_anon_exact_verdict_survives_full_hijack():
    for n in (3, 4, 5):
        v = traceless_verdict("anon", n)
        assert v.verdict
        assert v.hijacked_all
        assert v.posterior_max == Fraction(1, n)


def test_ae_exact_verdict_both_targets():
    for target in ("sender", "receiver"):
        v = anonymity_verdict("ae", 5, target=target, t=2)
        assert v.verdict
        assert v.posterior_max == Fraction(1, 3)
        v = traceless_verdict("ae", 4, target=target)
        assert v.verdict
        assert v.posterior_max == Fraction(1, 4)


def test_anonq_exact_verdict_traceless():
    v = traceless_verdict("anonq", 4)
    assert v.verdict
    assert v.posterior_max == Fraction(1, 4)
    assert v.protocol == "anonq"


def test_anonq_enum_limit():
    with pytest.raises(ValueError, match="sampled"):
        anonymity_verdict("anonq", 7)


def test_dcnet_plain_collusion_free_is_anonymous():
    # without hijacked randomness the announcements alone hide the sender
    for graph in (KeySharingGraph.complete(4), KeySharingGraph.cycle(5)):
        v = anonymity_verdict(
            "dcnet", graph.num_nodes, t=0, graph=graph, mode="exact"
        )
        assert v.verdict
        assert v.posterior_max == Fraction(1, graph.num_nodes)


def test_dcnet_full_hijack_traces_the_sender():
    # complete:20 has 190 keys, far past enumerating key assignments
    for n in (4, 20):
        v = traceless_verdict("dcnet", n, graph=KeySharingGraph.complete(n))
        assert not v.verdict
        assert v.posterior_max == Fraction(1)


def test_dcnet_star_center_colluder_traces_the_sender():
    graph = KeySharingGraph.star(5)
    v = anonymity_verdict("dcnet", 5, colluders=(0,), graph=graph)
    assert not v.verdict
    assert v.posterior_max == Fraction(1)


def test_dcnet_leaf_colluder_on_complete_graph_learns_nothing():
    graph = KeySharingGraph.complete(5)
    v = anonymity_verdict("dcnet", 5, colluders=(4,), graph=graph)
    assert v.verdict
    assert v.posterior_max == Fraction(1, 4)


def test_ghz_vs_dcnet_contrast_under_hijack():
    # the headline comparison: same adversary, opposite verdicts
    graph = KeySharingGraph.complete(4)
    assert traceless_verdict("anon", 4).verdict
    assert not traceless_verdict("dcnet", 4, graph=graph).verdict


def test_sampled_anon_passes_default_tolerance():
    rng = RngStream(20_000, 7)
    v = anonymity_verdict("anon", 4, mode="sampled", trials=3000, rng=rng)
    assert v.mode == "sampled"
    assert v.verdict
    assert v.max_tv is not None and v.max_tv <= 0.05
    assert v.trials == 3000
    assert v.seed == 20_000


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("tolerance", [float("nan"), -0.01, float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(mode, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        anonymity_verdict(
            "anon", 4, mode=mode, trials=10, rng=RngStream(1), tolerance=tolerance
        )


def test_sampled_dcnet_star_fails():
    rng = RngStream(21, 0)
    graph = KeySharingGraph.star(4)
    v = anonymity_verdict(
        "dcnet", 4, colluders=(0,), graph=graph, mode="sampled",
        trials=400, rng=rng,
    )
    assert not v.verdict
    assert v.max_tv is not None and v.max_tv > 0.5


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_verdict_needs_positive_trials(trials):
    graph = KeySharingGraph.star(4)
    with pytest.raises(ValueError, match="trial"):
        traceless_verdict(
            "dcnet", 4, graph=graph, mode="sampled", trials=trials, rng=RngStream(0)
        )


def test_verdict_argument_errors():
    graph = KeySharingGraph.complete(4)
    with pytest.raises(ValueError):
        anonymity_verdict("nope", 4)
    with pytest.raises(ValueError):
        anonymity_verdict("dcnet", 4, target="receiver", graph=graph)
    with pytest.raises(ValueError):
        anonymity_verdict("dcnet", 4)
    with pytest.raises(ValueError):
        anonymity_verdict("dcnet", 5, graph=graph)
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, t=3)
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, t=2, colluders=(1,))
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, colluders=(7,))
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, mode="sampled")
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, mode="guess")
    with pytest.raises(ValueError):
        anonymity_verdict("anon", 4, target="decoder")
    # exact verdicts refuse the groups that the runs refuse
    for protocol, target in itertools.product(("anon", "ae", "anonq"), ("sender", "receiver")):
        with pytest.raises(ValueError, match="at least 3 players"):
            anonymity_verdict(protocol, 2, target=target)


def test_verdict_json_round_trips_through_floats():
    v = anonymity_verdict("anon", 5, t=1)
    payload = v.to_json()
    assert payload["posterior_max"] == 0.25
    assert payload["baseline"] == 0.25
    assert payload["verdict"] is True
    assert payload["max_tv"] is None
    json.dumps(payload)  # must be serializable as-is


def _flat(view: tuple) -> tuple[int, ...]:
    """A redacted view as a sampler row: every broadcast bit round by
    round, then each watcher's draws."""
    messages, randomness = view
    return tuple(int(bits) for rnd in messages for _, bits in rnd) + tuple(
        value for _, values in randomness for value in values
    )


@pytest.mark.parametrize(
    "protocol, n, graph",
    [("anon", 4, None), ("ae", 4, None), ("anonq", 3, None),
     ("dcnet", 4, KeySharingGraph.cycle(4))],
)
def test_sampled_views_lie_in_the_exact_support(protocol, n, graph):
    # exact outcomes, real runs and sampler rows all come from one layout
    spec = PROTOCOLS[protocol]
    roles = Roles(n, 1, 2, 1, graph)
    everyone = tuple(range(n))
    exact = {
        _redact(rounds, draws.__getitem__, everyone): prob
        for rounds, draws, prob in OUTCOMES[protocol](roles)
    }
    assert sum(exact.values()) == 1
    rng = RngStream(5)
    for _ in range(40):
        _, transcript, ledger = spec.run(roles, rng)
        view = adversary_view(transcript, ledger, (), hijacked_all=True)
        assert view.key() in exact
    exact_rows = {_flat(view) for view in exact}
    rows = SAMPLERS[protocol](roles, everyone, 200, rng)
    assert rows.dtype == np.uint8
    assert rows.shape == (200, len(next(iter(exact_rows))))
    assert {tuple(row) for row in rows.tolist()} <= exact_rows


def _per_trial_views(spec, cast, watchers, trials, rng) -> dict[int, list]:
    """The reference for batched sampling: run and redact one trial at a
    time, each candidate's trials in turn on one stream."""
    views = {}
    for cand, roles in cast.items():
        views[cand] = []
        for _ in range(trials):
            _, transcript, ledger = spec.run(roles, rng)
            views[cand].append(_redact(transcript.rounds, ledger.values, watchers))
    return views


@pytest.mark.parametrize(
    "protocol, n, target, graph",
    [
        ("anon", 4, "sender", None),
        ("anon", 5, "receiver", None),
        ("ae", 4, "sender", None),
        ("ae", 4, "receiver", None),
        ("anonq", 3, "sender", None),
        ("anonq", 4, "receiver", None),
        ("dcnet", 4, "sender", KeySharingGraph.cycle(4)),
        ("dcnet", 5, "sender", KeySharingGraph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])),
        # hijacked rows are 10 bits wide, more than one byte
        ("ae", 5, "sender", None),
        # hijacked rows are 8 + 56 = 64 bits wide, more than one int64
        # code holds, so the codes are ranked before the last bit
        ("dcnet", 8, "sender", KeySharingGraph.complete(8)),
    ],
)
@pytest.mark.parametrize("hijack", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_count_matrix_matches_per_trial_runs(protocol, n, target, graph, hijack, seed):
    spec = PROTOCOLS[protocol]
    trials = 40
    colluders = () if hijack else (seed % n,)
    candidates = [p for p in range(n) if p not in colluders]
    watchers = tuple(range(n)) if hijack else colluders
    cast = _cast(n, candidates, target, seed % 2, graph)

    views = _per_trial_views(spec, cast, watchers, trials, RngStream(seed, 77))
    rng = RngStream(seed, 77)
    for cand, roles in cast.items():
        rows = SAMPLERS[protocol](roles, watchers, trials, rng)
        assert [tuple(row) for row in rows.tolist()] == [_flat(v) for v in views[cand]]

    # view for view: column j counts the j-th distinct view in row order
    tallies = {cand: Counter(views[cand]) for cand in cast}
    distinct = sorted({v for vs in views.values() for v in vs}, key=_flat)
    assert len({_flat(v) for v in distinct}) == len(distinct)
    counts = view_counts(protocol, cast, watchers, trials, RngStream(seed, 77))
    assert counts.tolist() == [[tallies[c][v] for v in distinct] for c in cast]

    # and the verdict reports what the per-trial frequencies give
    verdict = anonymity_verdict(
        protocol, n, target=target, colluders=colluders, d=seed % 2, graph=graph,
        mode="sampled", trials=trials, rng=RngStream(seed, 77),
        hijack_all_randomness=hijack,
    )
    dists = {
        c: {v: Fraction(k, trials) for v, k in tallies[c].items()} for c in cast
    }
    max_tv = max(tv_distance(dists[a], dists[b]) for a, b in itertools.combinations(cast, 2))
    assert verdict.max_tv == float(max_tv)
    assert verdict.posterior_max == float(_bayes_posterior_max(dists))


def _packed_row_unique(rows: np.ndarray):
    """Oracle: the distinct rows and each row's index among them, from
    each row packed to bytes and sorted as one opaque item."""
    packed = np.packbits(np.ascontiguousarray(rows), axis=1)
    return np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))), return_inverse=True
    )


@pytest.mark.parametrize("width", [1, 8, 62, 63, 64, 65, 200])
def test_row_codes_order_views_as_packed_rows_do(width):
    gen = np.random.default_rng(width)
    # random rows, and rows that differ from one base row in a few bits
    # only, so long shared prefixes reach every ranking step
    base = gen.integers(0, 2, size=width, dtype=np.uint8)
    flips = (gen.random((20, width)) < 4 / width).astype(np.uint8)
    distinct = np.vstack([gen.integers(0, 2, size=(20, width), dtype=np.uint8), base ^ flips])
    rows = distinct[gen.integers(0, len(distinct), size=400)]
    views, inverse = _packed_row_unique(rows)
    codes, code_inverse = np.unique(_row_codes(rows), return_inverse=True)
    assert len(codes) == len(views)
    assert code_inverse.reshape(-1).tolist() == inverse.reshape(-1).tolist()


def test_sampled_anonq_n4_runs_default_trials_quickly():
    # still a FAIL (plug-in TV bias) until calibrated verdicts land; the
    # batched sampler only has to make it cheap
    start = time.perf_counter()
    verdict = traceless_verdict("anonq", 4, mode="sampled", rng=RngStream(0))
    elapsed = time.perf_counter() - start
    assert verdict.trials == DEFAULT_SAMPLED_TRIALS
    assert elapsed < 2.0


def test_adversary_view_dataclass_is_frozen():
    view = AdversaryView((0,), False, (), ())
    with pytest.raises(Exception):
        view.corrupted = (1,)
