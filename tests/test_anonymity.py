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
    _cast,
    _redact,
    adversary_view,
    anonymity_verdict,
    exact_transcript_distribution,
    tv_distance,
    trace_attack,
    traceless_verdict,
)
from anonsim.keygraph import KeySharingGraph
from anonsim.protocols import anon_send, dcnet_announce, dcnet_send
from anonsim.rng import RngStream
from anonsim.sampling import SAMPLERS, view_counts


def _keys_for(graph: KeySharingGraph, mask: int) -> dict:
    edges = sorted(graph.edges)
    return {e: (mask >> i) & 1 for i, e in enumerate(edges)}


def _announcements(run) -> list[int]:
    return [int(e.bits) for e in run.transcript.rounds[0]]


# -------------------------------------------------------------------- dcnet


def test_dcnet_decodes_exhaustively():
    for n in (3, 4, 5):
        graph = KeySharingGraph.complete(n)
        edges = sorted(graph.edges)
        for mask in range(1 << len(edges)):
            keys = _keys_for(graph, mask)
            for sender in range(n):
                for d in (0, 1):
                    run = dcnet_announce(graph, keys, sender, d)
                    assert run.output == d
                    assert len(_announcements(run)) == n


def test_dcnet_cycle_graph_also_decodes():
    graph = KeySharingGraph.cycle(5)
    rng = RngStream(3)
    for _ in range(50):
        assert dcnet_send(graph, 2, 1, rng).output == 1


def test_dcnet_record_ledger_holds_incident_keys():
    graph = KeySharingGraph.complete(3)
    keys = {(0, 1): 1, (0, 2): 0, (1, 2): 1}
    decoded, transcript, ledger = dcnet_announce(graph, keys, 0, 1)
    assert decoded == 1
    assert [e.player for e in transcript.rounds[0]] == [0, 1, 2]
    assert ledger.values(0) == (1, 0)  # keys (0,1) then (0,2)
    assert ledger.values(1) == (1, 1)
    assert ledger.values(2) == (0, 1)
    names = [name for name, _ in ledger.entries(0)]
    assert names == ["key:0-1", "key:0-2"]


def test_dcnet_instance_validation():
    graph = KeySharingGraph.complete(3)
    good = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    with pytest.raises(ValueError):
        dcnet_announce(graph, {(0, 1): 0}, 0, 1)
    with pytest.raises(ValueError):
        dcnet_announce(graph, {**good, (0, 1): 2}, 0, 1)
    with pytest.raises(ValueError):
        dcnet_announce(graph, good, 5, 1)
    with pytest.raises(ValueError):
        dcnet_announce(graph, good, 0, 2)
    disconnected = KeySharingGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        dcnet_announce(disconnected, {(0, 1): 0, (2, 3): 0}, 0, 1)
    rng = RngStream(0)
    for bad in ((graph, 5, 1), (graph, 0, 2), (disconnected, 0, 1)):
        with pytest.raises(ValueError):
            dcnet_send(*bad, rng)


def test_trace_attack_identifies_sender_of_one_exhaustively():
    for n in (3, 4):
        graph = KeySharingGraph.complete(n)
        edges = sorted(graph.edges)
        for mask in range(1 << len(edges)):
            keys = _keys_for(graph, mask)
            for sender in range(n):
                ann = _announcements(dcnet_announce(graph, keys, sender, 1))
                assert trace_attack(graph, keys, ann, 1) == sender
                ann0 = _announcements(dcnet_announce(graph, keys, sender, 0))
                assert trace_attack(graph, keys, ann0, 0) is None


def test_trace_attack_validates_announcement_length():
    graph = KeySharingGraph.complete(3)
    keys = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    with pytest.raises(ValueError):
        trace_attack(graph, keys, (0, 1), 1)
    with pytest.raises(ValueError):
        trace_attack(graph, keys, (0, 1, 0), 2)


# ------------------------------------------------------ exact distributions


def test_anon_distribution_support_and_mass():
    for n in (3, 4, 5):
        for d in (0, 1):
            dist = exact_transcript_distribution("anon", n, sender=0, d=d)
            assert len(dist) == 1 << (n - 1)
            assert sum(dist.values()) == 1
            assert all(sum(bits) % 2 == d for bits in dist)
            assert set(dist.values()) == {Fraction(1, 1 << (n - 1))}


def test_anon_distribution_is_sender_invariant():
    for n in (3, 4, 6):
        for d in (0, 1):
            dists = [
                exact_transcript_distribution("anon", n, sender=s, d=d)
                for s in range(n)
            ]
            assert all(dist == dists[0] for dist in dists)


def test_ae_distribution_uniform_and_pair_invariant():
    n = 5
    reference = None
    for sender, receiver in itertools.permutations(range(n), 2):
        dist = exact_transcript_distribution(
            "ae", n, sender=sender, receiver=receiver
        )
        assert len(dist) == 1 << n
        assert sum(dist.values()) == 1
        assert set(dist.values()) == {Fraction(1, 1 << n)}
        if reference is None:
            reference = dist
        assert dist == reference


def test_exact_distribution_rejects_large_groups():
    with pytest.raises(ValueError, match="sampled"):
        exact_transcript_distribution("anon", 13, sender=0, d=1)


def test_exact_distribution_argument_errors():
    with pytest.raises(ValueError):
        exact_transcript_distribution("anon", 4, d=1)
    with pytest.raises(ValueError):
        exact_transcript_distribution("anon", 4, sender=0, d=7)
    with pytest.raises(ValueError):
        exact_transcript_distribution("ae", 4, sender=1, receiver=1)
    with pytest.raises(ValueError):
        exact_transcript_distribution("nope", 4, sender=0)


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
    graph = KeySharingGraph.complete(4)
    v = traceless_verdict("dcnet", 4, graph=graph)
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
        for rounds, draws, prob in spec.outcomes(roles)
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
        # hijacked rows are 10 bits wide, more than one packed byte
        ("ae", 5, "sender", None),
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
