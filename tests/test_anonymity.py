"""Adversary views, exact distributions, and anonymity verdicts."""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import pytest

from anonsim import anonymity
from anonsim.anonymity import (
    DEFAULT_SAMPLED_TRIALS,
    PROTOCOLS,
    Roles,
    _bayes_posterior_max,
    _cast,
    _parity_round,
    anonymity_verdict,
    traceless_verdict,
)
from anonsim.keygraph import KeySharingGraph, is_connected, tolerance
from anonsim.protocols import (
    ae_establish, anon_send, anonq_send, dcnet_send, trace_attack, xor_pass,
)
from anonsim.qsim import GhzPhaseState
from anonsim.rng import BLOCK_TRIALS, RngStream
from anonsim.sampling import SAMPLERS, _row_codes, view_counts

from dense_oracle import apply_hadamard_all, to_dense


# the view of a qubit transfer does not depend on the qubit sent
_ANONQ_QUBIT = (0.6, 0.8)

# protocol name -> run(roles, rng), the run whose views each verdict judges
RUNS = {
    "anon": lambda r, rng: anon_send(r.n, r.sender, r.d, rng),
    "ae": lambda r, rng: ae_establish(r.n, r.sender, r.receiver, rng),
    "anonq": lambda r, rng: anonq_send(r.n, r.sender, r.receiver, _ANONQ_QUBIT, rng),
    "dcnet": lambda r, rng: dcnet_send(r.graph, r.sender, r.d, rng),
}


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
    return [bit for _, bit in run.rounds[0]]


def _drawn_bits(run) -> Callable[[int], tuple[int, ...]]:
    """Player p -> the bits p drew in `run`, without their names."""
    return lambda p: tuple(bit for _, bit in run.ledger.get(p, ()))


def _redact(
    rounds: Iterable[Iterable[tuple[int, int]]],
    draws: Callable[[int], Iterable[int]],
    watchers: Sequence[int],
) -> tuple:
    """Oracle: the adversary's full view, (messages, randomness) of one run.

    `rounds` holds the broadcast rounds as (player, bit) pairs and
    `draws(p)` the values player p drew.  Every message is kept; draws
    are kept for the watched players only, without their names.
    """
    return (
        tuple(map(tuple, rounds)),
        tuple([(p, tuple(draws(p))) for p in watchers]),
    )


def _broadcast_outcomes(
    n: int, round_dists: Sequence[Mapping[tuple[int, ...], Fraction]]
) -> Iterator[tuple]:
    """Outcomes of independent GHZ broadcast rounds, one map per round.

    In these protocols a player's recorded draw in a round is the bit
    they broadcast, so a player's draws are their column of the rounds.
    """
    table = [((p, 0), (p, 1)) for p in range(n)]
    rounds = [
        [
            (tuple(table[p][b] for p, b in enumerate(bits)), bits, prob)
            for bits, prob in dist.items()
        ]
        for dist in round_dists
    ]
    for combo in itertools.product(*rounds):
        messages, bits, probs = zip(*combo)
        yield messages, tuple(zip(*bits)), reduce(mul, probs)


def _exact_view_dists(
    outcomes: Callable[[Roles], Iterator[tuple]],
    cast: Mapping[int, Roles],
    watchers: Sequence[int],
) -> dict[int, dict]:
    """Oracle: each candidate's exact distribution of redacted views."""
    dists: dict[int, dict] = {}
    for cand, roles in cast.items():
        dist: dict = {}
        for rounds, draws, prob in outcomes(roles):
            key = _redact(rounds, draws.__getitem__, watchers)
            if key in dist:
                dist[key] += prob
            else:
                dist[key] = prob
        dists[cand] = dist
    return dists


def _dcnet_outcomes(r: Roles):
    """Oracle: every one of the 2^|E| key assignments of one XOR-network
    round, as (broadcast rounds, each player's draws, probability)."""
    n = r.n
    edges = sorted(r.graph.edges)
    table = [((p, 0), (p, 1)) for p in range(n)]
    prob = Fraction(1, 1 << len(edges))
    for key_bits in itertools.product((0, 1), repeat=len(edges)):
        announced, incident = xor_pass(n, edges, key_bits)
        announced[r.sender] ^= r.d
        yield (tuple(table[p][b] for p, b in enumerate(announced)),), incident, prob


def _round_list(protocol: str):
    """A GHZ protocol's exact model in PROTOCOLS: roles -> one run's list
    of independent broadcast rounds, each as its odd-parity probability."""
    (odds,) = PROTOCOLS[protocol].exact.args
    return odds


def _ghz_outcomes(protocol: str):
    odds = _round_list(protocol)
    return lambda r: _broadcast_outcomes(r.n, [_parity_round(r.n, p) for p in odds(r)])


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
    run = dcnet_send(graph, 0, 1, _KeyBits((1, 0, 1)))
    assert run.output == 1
    assert [p for p, _ in run.rounds[0]] == [0, 1, 2]
    draws = _drawn_bits(run)
    assert draws(0) == (1, 0)  # keys (0,1) then (0,2)
    assert draws(1) == (1, 1)
    assert draws(2) == (0, 1)
    names = [name for name, _ in run.ledger[0]]
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
    rounds = _round_list("anon")
    for n in (3, 4, 5):
        for d in (0, 1):
            (odd,) = rounds(Roles(n, 0, 1, d, None))
            dist = _parity_round(n, odd)
            assert len(dist) == 1 << (n - 1)
            assert sum(dist.values()) == 1
            assert all(sum(bits) % 2 == d for bits in dist)
            assert set(dist.values()) == {Fraction(1, 1 << (n - 1))}


def test_parity_rounds_match_the_dense_circuit():
    # phase 0, pi and pi/2 leave the parity odd with probability 0, 1, 1/2
    for n in range(3, 7):
        for odd, phase in ((0, (0, 0)), (1, (1, 0)), (Fraction(1, 2), (1, 1))):
            probs = apply_hadamard_all(to_dense(GhzPhaseState(n, *phase))).probabilities()
            # player p's bit is bit p of the amplitude index
            circuit = {
                tuple((index >> p) & 1 for p in range(n)): prob
                for index, prob in enumerate(probs)
            }
            model = _parity_round(n, odd)
            assert set(model) <= set(circuit)
            for bits, prob in circuit.items():
                assert abs(float(model.get(bits, 0)) - prob) <= 1e-12, (n, odd, bits)
    # anon's one round is odd exactly when it sends a 1, whoever sends
    odds = _round_list("anon")
    for n in range(3, 7):
        for sender, d in itertools.product(range(n), (0, 1)):
            assert odds(Roles(n, sender, (sender + 1) % n, d, None)) == [d]


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
        (odd,) = rounds(Roles(n, sender, receiver, 1, None))
        dist = _parity_round(n, odd)
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


def test_verdict_rejects_negative_t():
    graph = KeySharingGraph.complete(4)
    for protocol, mode, colluders in itertools.product(
        ("anon", "ae", "anonq", "dcnet"), ("exact", "sampled"), (None, (3,))
    ):
        with pytest.raises(ValueError, match="t must be nonnegative, got t=-1"):
            anonymity_verdict(
                protocol, 4, t=-1, colluders=colluders, mode=mode, trials=10,
                rng=RngStream(0), graph=graph if protocol == "dcnet" else None,
            )


def test_dcnet_verdict_needs_three_players():
    # the report schema, like the GHZ verdicts, takes n >= 3
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="need at least 3 players, got 2"):
            anonymity_verdict(
                "dcnet", 2, mode=mode, trials=10, rng=RngStream(0),
                graph=KeySharingGraph.complete(2),
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
    # every ledger names its draws, and the roles are the secrets
    for protocol, graph in (
        ("anon", None), ("ae", None), ("anonq", None),
        ("dcnet", KeySharingGraph.complete(5)),
    ):
        roles = Roles(5, 2, 3, 1, graph)
        run = RUNS[protocol](roles, RngStream(19))
        view = _redact(run.rounds, _drawn_bits(run), (0, 4))
        text = json.dumps(view)
        for word in ("role", "coin", "decoy", "measurement", "key", "data", "sender"):
            assert word not in text, protocol
        messages, randomness = view
        assert [p for p, _ in randomness] == [0, 4]
        assert len(messages) == len(run.rounds)


def test_adversary_view_hijack_watches_everyone():
    rng = RngStream(19)
    run = anon_send(4, 1, 0, rng)
    messages, randomness = _redact(run.rounds, _drawn_bits(run), range(4))
    assert [p for p, _ in randomness] == [0, 1, 2, 3]
    # the watched values are exactly the broadcast bits for this protocol
    bits = dict(messages[0])
    for p, values in randomness:
        assert values == (bits[p],)


@pytest.mark.parametrize("protocol", ["anon", "ae", "anonq"])
def test_ghz_draws_are_the_broadcast_bits(protocol):
    # both verdict engines read a GHZ view off the broadcasts alone, so
    # a GHZ protocol that records a draw it does not broadcast fails here
    run_protocol = RUNS[protocol]
    for n, seed in itertools.product((3, 4, 6), range(3)):
        for sender, receiver in itertools.permutations(range(n), 2):
            roles = Roles(n, sender, receiver, seed % 2, None)
            run = run_protocol(roles, RngStream(seed))
            assert set(run.ledger) <= set(range(n))
            draws = _drawn_bits(run)
            for p in range(n):
                column = tuple(bit for rnd in run.rounds for q, bit in rnd if q == p)
                assert draws(p) == column, (n, seed, sender, receiver, p)


def _ghz_enumeration_cases():
    """(protocol, n, target, d) of the exact-versus-oracle comparison:
    anon and ae at n 3-5 and anonq at n 3 with every target and data
    bit, and anonq at n = 4, a tenth of a second a candidate, with one."""
    for n, d in itertools.product((3, 4, 5), (0, 1)):
        yield "anon", n, "sender", d
        yield "ae", n, "sender", d
        yield "ae", n, "receiver", d
    for target, d in itertools.product(("sender", "receiver"), (0, 1)):
        yield "anonq", 3, target, d
    yield "anonq", 4, "receiver", 1


def _per_candidate_enumerated(odds, cast, watchers) -> Fraction:
    """Oracle: the exact GHZ engine with one joint table per candidate,
    each the product of that candidate's `_parity_round` maps."""
    n = next(iter(cast.values())).n
    dists = {}
    for cand, roles in cast.items():
        rounds = [_parity_round(n, odd).items() for odd in odds(roles)]
        dists[cand] = {
            bits: reduce(mul, probs)
            for bits, probs in (zip(*combo) for combo in itertools.product(*rounds))
        }
    return _bayes_posterior_max(dists)


def test_ghz_exact_matches_the_redacted_enumeration():
    # the oracle keys each view on the broadcasts and the watchers' draws
    # as `_redact` builds them; the engine keys it on the broadcasts alone
    checked = 0
    for protocol, n, target, d in _ghz_enumeration_cases():
        for t in range(n - 1):
            # the default colluders, the t highest, and the t lowest, who
            # include every other candidate's partner
            for colluders in sorted({tuple(range(n - t, n)), tuple(range(t))}):
                candidates = [p for p in range(n) if p not in colluders]
                cast = _cast(n, candidates, target, d, None)
                for watchers in (colluders, tuple(range(n))):
                    oracle = _bayes_posterior_max(
                        _exact_view_dists(OUTCOMES[protocol], cast, watchers)
                    )
                    exact = PROTOCOLS[protocol].exact(cast, watchers)
                    assert exact == oracle, (protocol, n, target, d, colluders, watchers)
                    # the engine shares one table among the candidates
                    # with equal round lists; the Fraction is the same
                    per_candidate = _per_candidate_enumerated(
                        _round_list(protocol), cast, watchers
                    )
                    assert type(exact) is Fraction and exact == per_candidate
                    checked += 1
    assert checked == 214


@pytest.mark.parametrize("protocol, n", [("ae", 8), ("anon", 8), ("anonq", 4)])
def test_a_verdict_builds_one_joint_table(monkeypatch, protocol, n):
    # every candidate's round list is the same, so all n candidates share
    # one table of views where each once had its own
    seen = []
    judge = anonymity._bayes_posterior_max
    monkeypatch.setattr(
        anonymity, "_bayes_posterior_max", lambda dists: seen.append(dists) or judge(dists)
    )
    assert traceless_verdict(protocol, n).verdict
    (dists,) = seen
    assert len(dists) == n
    assert len({id(table) for table in dists.values()}) == 1


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


@pytest.mark.parametrize("tolerance", [0.0, 1.0])
def test_exact_mode_refuses_a_tolerance(tolerance):
    # an exact verdict is posterior_max == baseline: a tolerance of 1 once
    # passed the XOR network's traced sender at posterior_max 1
    graph = KeySharingGraph.complete(4)
    with pytest.raises(ValueError, match="sampled mode only"):
        traceless_verdict("dcnet", 4, graph=graph, tolerance=tolerance)
    assert not traceless_verdict("dcnet", 4, graph=graph).verdict


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
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="trial"):
            traceless_verdict(
                "dcnet", 4, graph=graph, mode=mode, trials=trials, rng=RngStream(0)
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
    # anon_send has no receiver, so a receiver verdict would pass vacuously
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="no receiver"):
            anonymity_verdict(
                "anon", 4, target="receiver", mode=mode, trials=10, rng=RngStream(0)
            )
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


def _flat(protocol: str, view: tuple) -> tuple[int, ...]:
    """A redacted view as a sampler row: every broadcast bit round by
    round, then, for the XOR network, each watcher's draws.  A GHZ
    watcher's draws are their column of the rounds, so a GHZ row is the
    broadcasts alone."""
    messages, randomness = view
    if protocol != "dcnet":
        randomness = ()
    return tuple(bit for rnd in messages for _, bit in rnd) + tuple(
        value for _, values in randomness for value in values
    )


@pytest.mark.parametrize(
    "protocol, n, graph",
    [("anon", 4, None), ("ae", 4, None), ("anonq", 3, None),
     ("dcnet", 4, KeySharingGraph.cycle(4))],
)
def test_sampled_views_lie_in_the_exact_support(protocol, n, graph):
    # exact outcomes, real runs and sampler rows all come from one layout
    run_protocol = RUNS[protocol]
    roles = Roles(n, 1, 2, 1, graph)
    everyone = tuple(range(n))
    exact = {
        _redact(rounds, draws.__getitem__, everyone): prob
        for rounds, draws, prob in OUTCOMES[protocol](roles)
    }
    assert sum(exact.values()) == 1
    rng = RngStream(5)
    for _ in range(40):
        run = run_protocol(roles, rng)
        assert _redact(run.rounds, _drawn_bits(run), everyone) in exact
    exact_rows = {_flat(protocol, view) for view in exact}
    rows = SAMPLERS[protocol](roles, everyone, 200, rng)
    assert rows.dtype == np.uint8
    assert rows.shape == (200, len(next(iter(exact_rows))))
    assert {tuple(row) for row in rows.tolist()} <= exact_rows


def _per_trial_views(run_protocol, cast, watchers, trials, rng) -> dict[int, list]:
    """The reference for batched sampling: run and redact one trial at a
    time, each candidate's trials in turn on one stream."""
    views = {}
    for cand, roles in cast.items():
        views[cand] = []
        for _ in range(trials):
            run = run_protocol(roles, rng)
            views[cand].append(_redact(run.rounds, _drawn_bits(run), watchers))
    return views


@pytest.mark.parametrize(
    "protocol, n, target, graph",
    [
        ("anon", 4, "sender", None),
        ("anon", 5, "sender", None),
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
    _assert_count_matrix_matches_per_trial_runs(protocol, n, target, graph, hijack, seed, 40)


def test_count_matrix_matches_per_trial_runs_across_a_block_boundary():
    # anon n=4 draws 3 bits a run: the first candidate's odd trial count
    # leaves half a word buffered, so the second candidate's blocks start,
    # and cross the block boundary, with a half buffered (colluder 3, d 1)
    _assert_count_matrix_matches_per_trial_runs(
        "anon", 4, "sender", None, False, 3, BLOCK_TRIALS + 3
    )


def _assert_count_matrix_matches_per_trial_runs(
    protocol, n, target, graph, hijack, seed, trials
):
    colluders = () if hijack else (seed % n,)
    candidates = [p for p in range(n) if p not in colluders]
    watchers = tuple(range(n)) if hijack else colluders
    cast = _cast(n, candidates, target, seed % 2, graph)

    views = _per_trial_views(RUNS[protocol], cast, watchers, trials, RngStream(seed, 77))
    rng = RngStream(seed, 77)
    for cand, roles in cast.items():
        rows = SAMPLERS[protocol](roles, watchers, trials, rng)
        assert [tuple(row) for row in rows.tolist()] == [
            _flat(protocol, v) for v in views[cand]
        ]

    # view for view: column j counts the j-th distinct view in row order
    tallies = {cand: Counter(views[cand]) for cand in cast}
    distinct = sorted(
        {v for vs in views.values() for v in vs}, key=lambda v: _flat(protocol, v)
    )
    assert len({_flat(protocol, v) for v in distinct}) == len(distinct)
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
