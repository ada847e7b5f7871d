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
as a sender and identifies the sender of a 1 exactly
(`protocols.trace_attack`, which runs without this module).  The GHZ
protocols do not have that failure mode: their transcript distributions
are identical for every candidate.

Every protocol the verdicts judge is registered in PROTOCOLS with its
run function, its exact posterior and its input check, and in
`sampling.SAMPLERS` with its batched sampler.  Exact mode is rational
arithmetic and never loads numpy.  Each GHZ protocol lists its rounds
there: one run's independent broadcast rounds, each a map from
per-player bits to a probability, which is also the distribution of
everyone's recorded draws.  Exact mode enumerates their joint outcomes
into view distributions, built through the one redaction, `_redact`.
For the XOR network it is the closed form of Chaum's argument: with d = 1
the adversary learns which block of players it cannot split holds the
sender, and nothing more; the tests check it against enumerating every
key assignment.

Sampled mode, the package's one user of numpy, draws all of one
candidate's trials at once: the sampler lays each trial's view out as
one row of bits, a one-to-one image of the redacted view, from
`RngStream.draw_blocks`, which replays the draws of running the
protocol trial after trial.  The rows of all candidates become one
candidates x views count matrix, compared by total variation distance.
Seeded sampled reports are therefore byte-identical to those of running
and redacting every trial, and memory is bounded per block of trials
plus one byte per view bit per trial, plus one 8-byte code per trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .keygraph import KeySharingGraph, components, is_connected
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
)
from .qsim import apply_phase_flip, make_ghz
from .rng import RngStream

ENUM_PLAYER_LIMIT = 12
ANONQ_ENUM_PLAYER_LIMIT = 6

DEFAULT_SAMPLED_TRIALS = 10_000
DEFAULT_TV_TOLERANCE = 0.05


class AdversaryView(NamedTuple):
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


def _broadcast_round(n: int, sender: int, d: int) -> dict[tuple[int, ...], Fraction]:
    """One anonymous broadcast of d, keyed by per-player bits.

    The support is the outcome strings whose parity equals d, each with
    probability 1/2^(n-1).  The parity is derived through the protocol
    semantics, by applying the sender's flip to a GHZ state, so the
    sender index genuinely drops out.
    """
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


def _uniform_round(n: int) -> dict[tuple[int, ...], Fraction]:
    """The entanglement protocol's round, keyed by per-player bits.

    Asserted, not derived: every assignment gets probability 1/2^n,
    because the measurement outcomes, the sender's coin and the
    receiver's decoy are all uniform and independent.
    """
    prob = Fraction(1, 1 << n)
    return {bits: prob for bits in product((0, 1), repeat=n)}


def _announce_round(n: int, sender: int) -> dict[tuple[int, ...], Fraction]:
    """One anonymous broadcast of a uniform bit: the half-and-half mix of
    broadcasting 0 and 1.  The qubit transfer announces each of its Bell
    outcomes, independent uniform bits, this way."""
    half = Fraction(1, 2)
    return {
        bits: half * prob
        for m in (0, 1)
        for bits, prob in _broadcast_round(n, sender, m).items()
    }


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


def _dcnet_check(n: int, target: str, graph: Optional[KeySharingGraph]) -> None:
    if target != "sender":
        raise ValueError("the XOR network models sender anonymity only")
    if graph is None:
        raise ValueError("dcnet verdict needs a key-sharing graph")
    if graph.num_nodes != n:
        raise ValueError(f"graph has {graph.num_nodes} nodes but n={n} was requested")
    if not is_connected(graph):
        raise ValueError("key-sharing graph must be connected")


def _ghz_check(n: int, target: str, graph: Optional[KeySharingGraph]) -> None:
    _validate_group(n)
    if graph is not None:
        raise ValueError("a key-sharing graph applies to the dcnet protocol only")


def _dcnet_exact(cast: Mapping[int, Roles], watchers: Sequence[int]) -> Fraction:
    """The XOR network's exact posterior in closed form (Chaum, J.
    Cryptology 1(1), 1988).

    A watched player's keys are known, so their announcement shows
    whether they sent.  A component of the unwatched players shows only
    its announcements' parity, d if it holds the sender: its unknown
    keys make every pattern of that parity equally likely.  So for d = 1
    the posterior is one over the fewest candidates in such a block; for
    d = 0 it is the baseline.
    """
    roles = next(iter(cast.values()))
    if roles.d == 0:
        return Fraction(1, len(cast))
    unwatched = set(range(roles.n)) - set(watchers)
    blocks = components(roles.graph, unwatched) + [[p] for p in watchers]
    sizes = [len(cast.keys() & set(block)) for block in blocks]
    return Fraction(1, min(size for size in sizes if size))


class ProtocolSpec(NamedTuple):
    """How the verdicts run and judge one protocol.

    `run(roles, rng)` returns a Run.  `exact(cast, watchers)` is the
    Bayes-optimal posterior maximum when each candidate of `cast` takes
    the target role and the adversary sees every broadcast and the
    draws of the watched players.  `check(n, target, graph)` raises
    ValueError on inputs the protocol cannot judge, before either mode
    runs.  A GHZ protocol's `exact` is `_enumerated` over its round
    list.  The protocol's batched sampler is `sampling.SAMPLERS[name]`.
    """

    run: Callable[[Roles, RngStream], Run]
    exact: Callable[[Mapping[int, Roles], Sequence[int]], Fraction]
    check: Callable[[int, str, Optional[KeySharingGraph]], None]


def _enumerated(
    limit: int,
    rounds: Callable[[Roles], list[Mapping[tuple[int, ...], Fraction]]],
    cast: Mapping[int, Roles],
    watchers: Sequence[int],
) -> Fraction:
    """`exact` of a GHZ protocol from its model: `rounds(roles)` lists
    one run's independent broadcast rounds, each a map from per-player
    bits to a probability.  Groups of more than `limit` players are
    refused before any round is built."""
    n = next(iter(cast.values())).n
    if n > limit:
        raise ValueError(
            f"exact enumeration supports n <= {limit} for this protocol; "
            "use sampled mode for larger groups"
        )
    return _bayes_posterior_max(_exact_view_dists(
        lambda roles: _broadcast_outcomes(n, rounds(roles)), cast, watchers
    ))


# the view of a qubit transfer does not depend on the qubit sent
_ANONQ_QUBIT = (0.6, 0.8)

PROTOCOLS: dict[str, ProtocolSpec] = {
    "anon": ProtocolSpec(
        lambda r, rng: anon_send(r.n, r.sender, r.d, rng),
        partial(
            _enumerated, ENUM_PLAYER_LIMIT,
            lambda r: [_broadcast_round(r.n, r.sender, r.d)],
        ),
        _ghz_check,
    ),
    "ae": ProtocolSpec(
        lambda r, rng: ae_establish(r.n, r.sender, r.receiver, rng),
        partial(_enumerated, ENUM_PLAYER_LIMIT, lambda r: [_uniform_round(r.n)]),
        _ghz_check,
    ),
    "anonq": ProtocolSpec(
        lambda r, rng: anonq_send(r.n, r.sender, r.receiver, _ANONQ_QUBIT, rng),
        partial(
            _enumerated, ANONQ_ENUM_PLAYER_LIMIT,
            lambda r: [
                _uniform_round(r.n),
                _announce_round(r.n, r.sender),
                _announce_round(r.n, r.sender),
            ],
        ),
        _ghz_check,
    ),
    "dcnet": ProtocolSpec(
        lambda r, rng: dcnet_send(r.graph, r.sender, r.d, rng),
        _dcnet_exact,
        _dcnet_check,
    ),
}


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
    outcomes: Callable[[Roles], Iterator[tuple]],
    cast: Mapping[int, Roles],
    watchers: Sequence[int],
) -> dict[int, dict]:
    """Each candidate's exact distribution of redacted views."""
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

    Exact mode computes the posterior with rational arithmetic through
    the protocol's `exact`; the verdict is posterior_max == baseline (or
    within `tolerance` if one is given).
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
    spec.check(n, target, graph)
    _validate_bit(d)
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
        posterior_max = spec.exact(cast, watchers)
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
