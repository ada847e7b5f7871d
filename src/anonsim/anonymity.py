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
exact posterior and its input check, and in `sampling.SAMPLERS` with
its batched sampler.  No verdict runs a protocol, so this module does
not import `protocols`.  Exact mode is rational arithmetic and never
loads numpy.  Each GHZ protocol lists its rounds
there, one run's independent broadcast rounds, each as the probability
that its outcome parity is odd: the outcome strings are uniform within
each parity class, and only the parity can carry the secret.  In these
protocols a player's recorded draw in a round is the bit they
broadcast, so a GHZ view is the broadcast bits alone, whoever is
watched.  Exact mode expands each round into its map from per-player
bits to a probability (`_parity_round`) and enumerates the rounds'
joint outcomes into a distribution of views, built once for each
distinct round list and shared by every candidate with that list.
For the XOR network it is the closed form of Chaum's argument: with d = 1
the adversary learns which block of players it cannot split holds the
sender, and nothing more; the tests check it against enumerating every
key assignment.

Sampled mode, the package's one user of numpy, counts each candidate's
views over seeded trials drawn in batches (`sampling`: every draw a
protocol makes is a bit, and `RngStream.bit_rows` replays them row by
row), and compares the candidates by total variation distance.  Seeded
sampled reports are byte-identical to those of running every trial and
reading its view.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from operator import mul
from typing import (
    TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence,
)

from .qsim import _validate_bit, _validate_group, _validate_players, apply_rz, make_ghz
from .rng import RngStream

if TYPE_CHECKING:
    from .keygraph import KeySharingGraph

DEFAULT_SAMPLED_TRIALS = 10_000
DEFAULT_TV_TOLERANCE = 0.05
# The most bytes sampled mode may lay out, counted before anything is
# drawn: each trial's view takes a byte per bit and about 64 more to
# code, sort and count it, and the candidates x distinct views count
# matrix takes 8 bytes a cell.
MAX_SAMPLED_BYTES = 1 << 28


def _parity_round(n: int, odd: Fraction) -> dict[tuple[int, ...], Fraction]:
    """One GHZ round keyed by per-player bits, from P(odd parity).

    After the Hadamards the outcome strings are uniform within each
    parity class (see `qsim`): the first n - 1 bits are free and the
    last one sets the parity, so each of a class's 2^(n-1) strings gets
    the class's probability over 2^(n-1).  A class of probability 0 is
    left out.
    """
    size = 1 << (n - 1)
    dist = {}
    for parity, mass in enumerate((1 - odd, odd)):
        if mass:
            weight = Fraction(mass, size)
            for lead in product((0, 1), repeat=n - 1):
                dist[lead + ((sum(lead) + parity) & 1,)] = weight
    return dist


class Roles(NamedTuple):
    """Who does what in one verdict run; each protocol uses what it needs."""

    n: int
    sender: int
    receiver: int
    d: int
    graph: Optional[KeySharingGraph]


def _dcnet_check(n: int, target: str, graph: Optional[KeySharingGraph]) -> None:
    from .keygraph import is_connected

    _validate_group(n)
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


def _anon_check(n: int, target: str, graph: Optional[KeySharingGraph]) -> None:
    _ghz_check(n, target, graph)
    if target != "sender":
        raise ValueError("anon_send has no receiver: it models sender anonymity only")


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
    from .keygraph import components

    roles = next(iter(cast.values()))
    if roles.d == 0:
        return Fraction(1, len(cast))
    unwatched = set(range(roles.n)) - set(watchers)
    blocks = components(roles.graph, unwatched) + [[p] for p in watchers]
    sizes = [len(cast.keys() & set(block)) for block in blocks]
    return Fraction(1, min(size for size in sizes if size))


class ProtocolSpec(NamedTuple):
    """How the verdicts judge one protocol, without running it.

    `exact(cast, watchers)` is the Bayes-optimal posterior maximum when
    each candidate of `cast` takes the target role and the adversary
    sees every broadcast and the draws of the watched players.
    `check(n, target, graph)` raises ValueError on inputs the protocol
    cannot judge, before either mode runs.  A GHZ protocol's `exact` is `_enumerated` over its round
    list, one odd-parity probability per round: anon's is 0 or 1, from
    the sender's flip of a fresh GHZ state; every round of ae and anonq
    is uniform bits, 1/2.  Each draw a GHZ run records is a bit it
    broadcasts, so its views are its round bit strings, whoever is
    watched.  `view_bits(n, graph)` is the widest view of one run, in
    bits, that sampled mode lays out.  `exact_limit` is the largest
    group `exact` enumerates, None for no limit.  The protocol's batched
    sampler is `sampling.SAMPLERS[name]`.
    """

    exact: Callable[[Mapping[int, Roles], Sequence[int]], Fraction]
    check: Callable[[int, str, Optional[KeySharingGraph]], None]
    view_bits: Callable[[int, Optional[KeySharingGraph]], int]
    exact_limit: Optional[int] = None


def _enumerated(
    odds: Callable[[Roles], list[Fraction]],
    cast: Mapping[int, Roles],
    watchers: Sequence[int],
) -> Fraction:
    """`exact` of a GHZ protocol from its model: `odds(roles)` lists one
    run's independent broadcast rounds, each as the probability that its
    outcome parity is odd.  A view is one run's round bit strings.

    The joint distribution of views is built once for each distinct
    round list and shared by every candidate with that list.
    """
    n = next(iter(cast.values())).n
    # `watchers` adds nothing: every recorded draw is a broadcast bit
    tables: dict[tuple, dict] = {}
    dists = {}
    for cand, roles in cast.items():
        key = tuple(odds(roles))
        if key not in tables:
            rounds = [_parity_round(n, odd).items() for odd in key]
            tables[key] = {
                bits: reduce(mul, probs)
                for bits, probs in (zip(*combo) for combo in product(*rounds))
            }
        dists[cand] = tables[key]
    return _bayes_posterior_max(dists)


# a round of uniform bits: the entanglement round's measurements, coin
# and decoy, and each anonymous announcement of a uniform Bell outcome
_HALF = Fraction(1, 2)

PROTOCOLS: dict[str, ProtocolSpec] = {
    "anon": ProtocolSpec(
        partial(
            _enumerated,
            # the sender's flip, a Z rotation by d * pi, of a fresh GHZ state
            lambda r: [int(apply_rz(make_ghz(r.n), r.sender, r.d, 0).is_phase_pi())],
        ),
        _anon_check,
        lambda n, graph: n,
        exact_limit=12,
    ),
    "ae": ProtocolSpec(
        partial(_enumerated, lambda r: [_HALF]),
        _ghz_check,
        lambda n, graph: n,
        exact_limit=12,
    ),
    "anonq": ProtocolSpec(
        partial(_enumerated, lambda r: [_HALF] * 3),
        _ghz_check,
        lambda n, graph: 3 * n,
        exact_limit=6,
    ),
    "dcnet": ProtocolSpec(
        _dcnet_exact,
        _dcnet_check,
        # the announcements, then every watcher's keys: each key twice
        lambda n, graph: n + 2 * len(graph.edges),
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
    the protocol's `exact`; the verdict is posterior_max == baseline, and
    a `tolerance` is refused.
    Sampled mode estimates each candidate's view distribution from
    `trials` runs (at least one, checked in either mode) and passes iff the largest pairwise
    total variation distance is at most `tolerance` (default 0.05); it
    needs an RngStream, and refuses a verdict whose views and counts
    would take more than MAX_SAMPLED_BYTES before it builds anything.

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
    if t < 0:
        raise ValueError(f"t must be nonnegative, got t={t}")
    spec.check(n, target, graph)
    _validate_bit(d)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if trials <= 0:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    if tolerance is not None and mode == "exact":
        raise ValueError("tolerance applies to sampled mode only; exact mode tests equality")
    # refused before any work that grows with n
    if mode == "exact" and spec.exact_limit is not None and n > spec.exact_limit:
        raise ValueError(
            f"exact enumeration supports n <= {spec.exact_limit} for this protocol; "
            "use sampled mode for larger groups"
        )
    if colluders is not None:
        colluder_set = frozenset(colluders)
        if t and len(colluder_set) != t:
            raise ValueError(
                f"asked for t={t} colluders but got {len(colluder_set)}"
            )
        t = len(colluder_set)
    if t > n - 2:
        raise ValueError(f"at most n-2={n - 2} colluders are modeled, got t={t}")
    if mode == "sampled":
        bits, rows = spec.view_bits(n, graph), (n - t) * trials
        size = rows * (bits + 64) + 8 * (n - t) * min(rows, 1 << min(bits, 62))
        if size > MAX_SAMPLED_BYTES:
            raise ValueError(
                f"sampled mode lays out at most {MAX_SAMPLED_BYTES} bytes of views "
                f"and counts, and this verdict needs {size}; use fewer trials"
            )
    if colluders is None:
        colluder_set = frozenset(range(n - t, n))
    _validate_players(n, "colluder", colluder_set)

    candidates = tuple(sorted(set(range(n)) - colluder_set))
    watchers = tuple(range(n)) if hijack_all_randomness else tuple(sorted(colluder_set))
    baseline = Fraction(1, len(candidates))
    cast = _cast(n, candidates, target, d, graph)

    extra = {}
    if mode == "exact":
        posterior_max = spec.exact(cast, watchers)
        verdict = posterior_max == baseline
    else:
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
