"""Adversary models and anonymity measurements.

The measurement model: an adversary sees the broadcast transcript C and,
depending on its power, the recorded random draws of t corrupted players
(plain collusion) or of every player (full randomness hijack).  A
protocol keeps the target role anonymous when the Bayes-optimal
posterior over candidate players, given that view, stays at the uniform
baseline 1/(n - t).

The classical comparison point is a pairwise-key XOR network (dining
cryptographers, `protocols.dcnet_send`).  There the announcements are
deterministic functions of the keys, so a full-randomness adversary
replays every player's expected announcement both as a non-sender and
as a sender and identifies the sender of a 1 exactly.  The GHZ
protocols do not have that failure mode: their transcript distributions
are identical for every candidate.

Every protocol the verdicts judge is registered in PROTOCOLS with its
run function and its exact outcome enumeration, and in
`sampling.SAMPLERS` with its batched sampler.  Exact mode enumerates
view distributions with rational arithmetic and builds views through
the one redaction, `_redact`; it never loads numpy.  Sampled mode draws
all of one candidate's trials at once: the sampler lays each trial's
view out as one row of bits, a one-to-one image of the redacted view,
from `RngStream.draw_blocks`, which replays the draws of running the
protocol trial after trial.  The rows of all candidates become one
candidates x views count matrix, compared by total variation distance.
Seeded sampled reports are therefore byte-identical to those of running
and redacting every trial, and memory is bounded per block of trials
plus one byte per view bit of each trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .keygraph import KeySharingGraph, is_connected
from .protocols import (
    RandomnessLedger,
    Run,
    Transcript,
    _validate_bit,
    _validate_group,
    _validate_players,
    ae_establish,
    anon_send,
    anonq_send,
    dcnet_send,
    xor_pass,
)
from .qsim import apply_phase_flip, make_ghz
from .rng import RngStream

ENUM_PLAYER_LIMIT = 12
ANONQ_ENUM_PLAYER_LIMIT = 6
DCNET_EDGE_LIMIT = 16

DEFAULT_SAMPLED_TRIALS = 10_000
DEFAULT_TV_TOLERANCE = 0.05


@dataclass(frozen=True)
class AdversaryView:
    """What an adversary gets to see of one run.

    `messages` mirrors the transcript rounds; `randomness` lists, for
    each watched player, the raw values of their recorded draws.  Names,
    roles and data items never appear here: views are built by redaction
    from full run records.
    """

    corrupted: tuple[int, ...]
    hijacked_all: bool
    messages: tuple[tuple[tuple[int, str], ...], ...]
    randomness: tuple[tuple[int, tuple[int, ...]], ...]

    def key(self) -> tuple:
        return (self.messages, self.randomness)

    def to_json(self) -> dict:
        return {
            "corrupted": list(self.corrupted),
            "hijacked_all": self.hijacked_all,
            "messages": [
                [{"player": p, "bits": bits} for p, bits in rnd]
                for rnd in self.messages
            ],
            "randomness": {
                str(p): list(values) for p, values in self.randomness
            },
        }


def _redact(
    rounds: Iterable[Iterable[tuple[int, str]]],
    draws: Callable[[int], Iterable[int]],
    watchers: Sequence[int],
) -> tuple:
    """The one place a view is built: (messages, randomness) of one run.

    `rounds` holds the broadcast rounds as (player, bits) pairs and
    `draws(p)` the values player p drew.  Every message is kept; draws
    are kept for the watched players only, without their names.
    """
    return (
        tuple(map(tuple, rounds)),
        tuple([(p, tuple(draws(p))) for p in watchers]),
    )


def adversary_view(
    transcript: Transcript,
    ledger: RandomnessLedger,
    corrupted: Iterable[int],
    *,
    hijacked_all: bool = False,
) -> AdversaryView:
    """Redact a run record down to what the adversary observes."""
    corrupted = tuple(sorted(set(corrupted)))
    n = transcript.n
    _validate_players(n, "corrupted player", corrupted)
    if len(corrupted) > n - 2:
        raise ValueError(
            f"at most n-2={n - 2} corrupted players are modeled, got {len(corrupted)}"
        )
    watchers = tuple(range(n)) if hijacked_all else corrupted
    messages, randomness = _redact(transcript.rounds, ledger.values, watchers)
    return AdversaryView(corrupted, hijacked_all, messages, randomness)


def trace_attack(
    graph: KeySharingGraph,
    keys: Mapping[tuple[int, int], int],
    announcements: Sequence[int],
    d: int,
) -> Optional[int]:
    """Identify the sender from hijacked randomness, when possible.

    For each player, replay their announcement both ways: as a
    non-sender (XOR of their incident keys) and as the sender (the same
    XOR plus d).  A player whose observed announcement matches only the
    sender replay is identified.  For d = 0 the two replays coincide and
    nobody is distinguishable.  Returns the identified player or None.
    """
    _validate_bit(d)
    n = graph.num_nodes
    if len(announcements) != n:
        raise ValueError(f"expected {n} announcements, got {len(announcements)}")
    edges = sorted(graph.edges)
    non_sender, _ = xor_pass(n, edges, [keys[e] for e in edges])
    matches = [
        p
        for p in range(n)
        if announcements[p] == non_sender[p] ^ d and announcements[p] != non_sender[p]
    ]
    if len(matches) == 1:
        return matches[0]
    return None


def _anon_round(n, sender, receiver, d) -> dict[tuple[int, ...], Fraction]:
    if sender is None or not 0 <= sender < n:
        raise ValueError("anon distribution needs a sender in range")
    _validate_bit(d)
    state = make_ghz(n)
    if d == 1:
        state = apply_phase_flip(state, sender)
    target_parity = 1 if state.is_phase_pi() else 0
    prob = Fraction(1, 1 << (n - 1))
    return {
        bits: prob
        for bits in product((0, 1), repeat=n)
        if (sum(bits) & 1) == target_parity
    }


def _ae_round(n, sender, receiver, d) -> dict[tuple[int, ...], Fraction]:
    if sender is None or receiver is None or sender == receiver:
        raise ValueError("ae distribution needs distinct sender and receiver")
    _validate_players(n, "player", (sender, receiver))
    prob = Fraction(1, 1 << n)
    return {bits: prob for bits in product((0, 1), repeat=n)}


_ROUNDS = {"anon": _anon_round, "ae": _ae_round}


def exact_transcript_distribution(
    protocol: str,
    n: int,
    *,
    sender: Optional[int] = None,
    receiver: Optional[int] = None,
    d: int = 0,
) -> dict[tuple[int, ...], Fraction]:
    """Exact broadcast distribution of one run, keyed by per-player bits.

    For the anonymous bit broadcast the support is the outcome strings
    whose parity equals d, each with probability 1/2^(n-1).  The parity
    is derived through the protocol semantics, by applying the sender's
    flip to a GHZ state, so the sender index genuinely drops out.  For
    the entanglement protocol the result is asserted, not derived: every
    per-player assignment of one bit gets probability 1/2^n, because the
    measurement outcomes, the sender's coin and the receiver's decoy are
    all uniform and independent.

    Each player also holds exactly the bit they broadcast as their only
    recorded draw, so this map doubles as the joint distribution of
    (transcript, all randomness).
    """
    if protocol not in _ROUNDS:
        raise ValueError(f"unknown protocol for exact enumeration: {protocol!r}")
    if n > ENUM_PLAYER_LIMIT:
        raise ValueError(
            f"exact enumeration supports n <= {ENUM_PLAYER_LIMIT}; "
            "use sampled mode for larger groups"
        )
    return _ROUNDS[protocol](n, sender, receiver, d)


def _broadcast_outcomes(
    n: int, round_dists: Sequence[Mapping[tuple[int, ...], Fraction]]
) -> Iterator[tuple]:
    """Outcomes of independent GHZ broadcast rounds, one map per round.

    In these protocols a player's recorded draw in a round is the bit
    they broadcast, so a player's draws are their column of the rounds.
    """
    table = [((p, "0"), (p, "1")) for p in range(n)]
    rounds = [
        [
            (tuple(table[p][b] for p, b in enumerate(bits)), bits, prob)
            for bits, prob in dist.items()
        ]
        for dist in round_dists
    ]
    for combo in product(*rounds):
        messages, bits, probs = zip(*combo)
        yield messages, tuple(zip(*bits)), reduce(mul, probs)


class Roles(NamedTuple):
    """Who does what in one verdict run; each protocol uses what it needs."""

    n: int
    sender: int
    receiver: int
    d: int
    graph: Optional[KeySharingGraph]


def _anon_outcomes(r: Roles) -> Iterator[tuple]:
    _validate_group(r.n)
    return _broadcast_outcomes(
        r.n, [exact_transcript_distribution("anon", r.n, sender=r.sender, d=r.d)]
    )


def _ae_outcomes(r: Roles) -> Iterator[tuple]:
    _validate_group(r.n)
    dist = exact_transcript_distribution("ae", r.n, sender=r.sender, receiver=r.receiver)
    return _broadcast_outcomes(r.n, [dist])


def _anonq_outcomes(r: Roles) -> Iterator[tuple]:
    n = r.n
    _validate_group(n)
    if n > ANONQ_ENUM_PLAYER_LIMIT:
        raise ValueError(
            f"exact enumeration of the qubit protocol supports "
            f"n <= {ANONQ_ENUM_PLAYER_LIMIT}; use sampled mode"
        )
    pair = exact_transcript_distribution("ae", n, sender=r.sender, receiver=r.receiver)
    # The Bell outcomes m0 and m1 are independent uniform bits, each sent
    # by one anonymous broadcast.
    half = Fraction(1, 2)
    announce = {
        bits: half * prob
        for m in (0, 1)
        for bits, prob in exact_transcript_distribution(
            "anon", n, sender=r.sender, d=m
        ).items()
    }
    return _broadcast_outcomes(n, [pair, announce, announce])


def _dcnet_outcomes(r: Roles) -> Iterator[tuple]:
    n = r.n
    edges = sorted(r.graph.edges)
    if len(edges) > DCNET_EDGE_LIMIT:
        raise ValueError(
            f"exact enumeration supports at most {DCNET_EDGE_LIMIT} edges; "
            "use sampled mode"
        )
    table = [((p, "0"), (p, "1")) for p in range(n)]
    prob = Fraction(1, 1 << len(edges))
    for key_bits in product((0, 1), repeat=len(edges)):
        announced, incident = xor_pass(n, edges, key_bits)
        announced[r.sender] ^= r.d
        yield (tuple(table[p][b] for p, b in enumerate(announced)),), incident, prob


class ProtocolSpec(NamedTuple):
    """How the verdicts run and enumerate one protocol.

    `run(roles, rng)` returns a Run.  `outcomes(roles)` yields every
    outcome of one run as (broadcast rounds of (player, bits) pairs, each
    player's draws, probability).  The protocol's batched sampler is
    `sampling.SAMPLERS[name]`.
    """

    run: Callable[[Roles, RngStream], Run]
    outcomes: Callable[[Roles], Iterator[tuple]]


# the view of a qubit transfer does not depend on the qubit sent
_ANONQ_QUBIT = (0.6, 0.8)

PROTOCOLS: dict[str, ProtocolSpec] = {
    "anon": ProtocolSpec(
        lambda r, rng: anon_send(r.n, r.sender, r.d, rng), _anon_outcomes
    ),
    "ae": ProtocolSpec(
        lambda r, rng: ae_establish(r.n, r.sender, r.receiver, rng), _ae_outcomes
    ),
    "anonq": ProtocolSpec(
        lambda r, rng: anonq_send(r.n, r.sender, r.receiver, _ANONQ_QUBIT, rng),
        _anonq_outcomes,
    ),
    "dcnet": ProtocolSpec(
        lambda r, rng: dcnet_send(r.graph, r.sender, r.d, rng), _dcnet_outcomes
    ),
}


def tv_distance(p: Mapping, q: Mapping):
    """Total variation distance between two distributions given as maps."""
    keys = set(p) | set(q)
    total = sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys)
    return total / 2


@dataclass(frozen=True)
class AnonymityVerdict:
    """Outcome of one anonymity measurement.

    `posterior_max` is the largest posterior the Bayes-optimal adversary
    assigns to any candidate on any view of nonzero probability;
    `baseline` is the uniform prior 1/(n - t).  Exact mode reports both
    as rationals and the verdict is exact equality; sampled mode reports
    floats and the verdict is max_tv <= tolerance.
    """

    protocol: str
    n: int
    t: int
    target: str
    mode: str
    posterior_max: Fraction | float
    baseline: Fraction | float
    verdict: bool
    hijacked_all: bool = False
    trials: Optional[int] = None
    seed: Optional[int] = None
    max_tv: Optional[float] = None

    def to_json(self) -> dict:
        payload = asdict(self)
        for name in ("posterior_max", "baseline", "max_tv"):
            if payload[name] is not None:
                payload[name] = float(payload[name])
        return payload


def _bayes_posterior_max(dists: Mapping[int, Mapping]) -> Fraction:
    """Max over views of the max posterior, uniform prior over candidates."""
    best = Fraction(0)
    for view in set().union(*dists.values()):
        weights = [dist.get(view, 0) for dist in dists.values()]
        best = max(best, max(weights) / sum(weights))
    return best


def _exact_view_dists(
    spec: ProtocolSpec, cast: Mapping[int, Roles], watchers: Sequence[int]
) -> dict[int, dict]:
    dists: dict[int, dict] = {}
    for cand, roles in cast.items():
        dist: dict = {}
        for rounds, draws, prob in spec.outcomes(roles):
            key = _redact(rounds, draws.__getitem__, watchers)
            if key in dist:
                dist[key] += prob
            else:
                dist[key] = prob
        dists[cand] = dist
    return dists


def _cast(
    n: int,
    candidates: Sequence[int],
    target: str,
    d: int,
    graph: Optional[KeySharingGraph],
) -> dict[int, Roles]:
    """Each candidate's roles: the candidate takes the target role, the
    lowest other player the other one."""
    cast = {}
    for cand in candidates:
        partner = next(p for p in range(n) if p != cand)
        pair = (cand, partner) if target == "sender" else (partner, cand)
        cast[cand] = Roles(n, *pair, d, graph)
    return cast


def anonymity_verdict(
    protocol: str,
    n: int,
    *,
    target: str = "sender",
    t: int = 0,
    colluders: Optional[Iterable[int]] = None,
    d: int = 1,
    graph: Optional[KeySharingGraph] = None,
    mode: str = "exact",
    trials: int = DEFAULT_SAMPLED_TRIALS,
    tolerance: Optional[float] = None,
    rng: Optional[RngStream] = None,
    hijack_all_randomness: bool = False,
) -> AnonymityVerdict:
    """Measure how well the target role stays hidden from t colluders.

    Builds, for every candidate player in the target role, the
    distribution of the adversary's view, and reports the Bayes-optimal
    posterior maximum against the uniform baseline 1/(n - t).

    Exact mode enumerates views with rational arithmetic; the verdict is
    posterior_max == baseline (or within `tolerance` if one is given).
    Sampled mode estimates each candidate's view distribution from
    `trials` runs (at least one) and passes iff the largest pairwise
    total variation distance is at most `tolerance` (default 0.05); it
    needs an RngStream.

    `colluders` picks the corrupted set explicitly (default: the t
    highest-index players).  With `hijack_all_randomness` the adversary
    additionally reads every player's recorded draws, the strongest
    model this package checks.
    """
    spec = PROTOCOLS.get(protocol)
    if spec is None:
        raise ValueError(f"unknown protocol: {protocol!r}")
    if target not in ("sender", "receiver"):
        raise ValueError(f"target must be 'sender' or 'receiver', got {target!r}")
    if protocol == "dcnet":
        if target != "sender":
            raise ValueError("the XOR network models sender anonymity only")
        if graph is None:
            raise ValueError("dcnet verdict needs a key-sharing graph")
        if graph.num_nodes != n:
            raise ValueError(
                f"graph has {graph.num_nodes} nodes but n={n} was requested"
            )
        if not is_connected(graph):
            raise ValueError("key-sharing graph must be connected")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if colluders is None:
        colluder_set = frozenset(range(n - t, n))
    else:
        colluder_set = frozenset(colluders)
        if t and len(colluder_set) != t:
            raise ValueError(
                f"asked for t={t} colluders but got {len(colluder_set)}"
            )
        t = len(colluder_set)
    if t > n - 2:
        raise ValueError(f"at most n-2={n - 2} colluders are modeled, got t={t}")
    _validate_players(n, "colluder", colluder_set)

    candidates = tuple(sorted(set(range(n)) - colluder_set))
    watchers = tuple(range(n)) if hijack_all_randomness else tuple(sorted(colluder_set))
    baseline = Fraction(1, len(candidates))
    cast = _cast(n, candidates, target, d, graph)

    extra = {}
    if mode == "exact":
        dists = _exact_view_dists(spec, cast, watchers)
        posterior_max = _bayes_posterior_max(dists)
        if tolerance is None:
            verdict = posterior_max == baseline
        else:
            verdict = abs(float(posterior_max) - float(baseline)) <= tolerance
    else:
        if trials <= 0:
            raise ValueError(f"sampled mode needs trials >= 1, got {trials}")
        if rng is None:
            raise ValueError("sampled mode needs an RngStream")
        from .sampling import view_counts

        counts = view_counts(protocol, cast, watchers, trials, rng)
        # the exact rationals of the per-view frequencies c / trials: the
        # largest sum of |c_a - c_b| / (2 trials) over candidate pairs, and
        # the largest max_c / sum_c over views, a correctly rounded division
        spread = max(int(abs(a - b).sum()) for a, b in combinations(counts, 2))
        max_tv = Fraction(spread, 2 * trials)
        posterior_max = float((counts.max(axis=0) / counts.sum(axis=0)).max())
        tol = DEFAULT_TV_TOLERANCE if tolerance is None else tolerance
        verdict = float(max_tv) <= tol
        extra = dict(trials=trials, seed=rng.seed, max_tv=float(max_tv))
    return AnonymityVerdict(
        protocol, n, t, target, mode, posterior_max, baseline, verdict,
        hijacked_all=hijack_all_randomness, **extra,
    )


def traceless_verdict(
    protocol: str,
    n: int,
    **kwargs,
) -> AnonymityVerdict:
    """anonymity_verdict under the full randomness hijack.

    The adversary reads every player's recorded draws in addition to the
    transcript.  This is the model under which the XOR network's sender
    of a 1 is traced with certainty while the GHZ protocols keep the
    posterior at baseline.
    """
    kwargs["hijack_all_randomness"] = True
    return anonymity_verdict(protocol, n, **kwargs)
