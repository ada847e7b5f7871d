"""Anonymous-transmission protocols over shared GHZ states.

Implements the classical-bit broadcast (anon_send), anonymous
entanglement between a hidden sender and receiver (ae_establish), qubit
transfer by teleportation over that entanglement (anonq_send), the
classical pairwise-key XOR network they are compared against
(dcnet_send), the rotation-based collision detection used to test for
exactly one willing sender, and the scheduling and key-exchange
constructions layered on top.

Every run returns a Run: its output value, a Transcript of what was
broadcast and a RandomnessLedger of the random values each player drew.
Data items and role assignments are deliberately kept out of ledgers:
they are the secrets whose leakage the analysis layer checks for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from .keygraph import KeySharingGraph, is_connected
from .qsim import (
    DenseState,
    GhzPhaseState,
    apply_phase_flip,
    apply_rz,
    bell_measure,
    dense_apply_gate,
    hadamard_measure_all,
    hadamard_measure_subset,
    make_ghz,
    tensor,
)
from .rng import RngStream


class BroadcastEntry(NamedTuple):
    """One broadcast message: who sent it and its bits as 0/1 text."""

    player: int
    bits: str


class Transcript:
    """Ordered broadcast rounds of one protocol run.

    Each round is the list of BroadcastEntry values actually sent, in
    player order.  `aborted` is set when some player failed to broadcast;
    partial rounds are preserved.
    """

    def __init__(self, protocol: str, n: int) -> None:
        self.protocol = protocol
        self.n = n
        self.rounds: list[list[BroadcastEntry]] = []
        self.aborted = False

    def add_round(self, entries: Sequence[BroadcastEntry]) -> None:
        self.rounds.append(list(entries))

    def extend(self, other: "Transcript") -> None:
        self.rounds.extend([list(r) for r in other.rounds])
        self.aborted = self.aborted or other.aborted

    def round_parity(self, index: int) -> int:
        return sum(int(e.bits, 2) for e in self.rounds[index]) & 1

    def to_json(self) -> dict:
        return {
            "rounds": [
                [{"player": e.player, "bits": e.bits} for e in rnd]
                for rnd in self.rounds
            ],
            "aborted": self.aborted,
        }


class RandomnessLedger:
    """Append-only record of the random values each player drew.

    Entries are (name, value) pairs; names label the draw for human
    readers and are stripped when adversary views are built.  Data items
    and roles are never recorded here.
    """

    def __init__(
        self,
        names: Optional[dict[int, list[str]]] = None,
        values: Optional[dict[int, list[int]]] = None,
    ) -> None:
        """Start empty, or take over each player's draw names and int values."""
        self._names = {} if names is None else names
        self._values = {} if values is None else values

    def record(self, player: int, name: str, value: int) -> None:
        self._names.setdefault(player, []).append(name)
        self._values.setdefault(player, []).append(int(value))

    def entries(self, player: int) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self._names.get(player, ()), self._values.get(player, ())))

    def players(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def values(self, player: int) -> tuple[int, ...]:
        return tuple(self._values.get(player, ()))

    def extend(self, other: "RandomnessLedger") -> None:
        for player in other.players():
            for name, value in other.entries(player):
                self.record(player, name, value)

    def to_json(self) -> dict:
        return {
            str(p): [{"name": name, "value": value} for name, value in self.entries(p)]
            for p in self.players()
        }


class Run(NamedTuple):
    """What one protocol run yields: its output, broadcasts and draws.

    `output` is the protocol's result (decoded bit, parity, EPR pair or
    received qubit), None when the run aborted.
    """

    output: Any
    transcript: Transcript
    ledger: RandomnessLedger


def _validate_group(n: int, minimum: int = 3) -> None:
    if n < minimum:
        raise ValueError(f"need at least {minimum} players, got {n}")


def _validate_bit(d: int) -> int:
    if d not in (0, 1):
        raise ValueError(f"data bit must be 0 or 1, got {d!r}")
    return d


def _validate_players(n: int, label: str, players: Iterable[int]) -> set[int]:
    """The players as a set, each checked to be in range(n)."""
    found = set(players)
    for p in found:
        if not 0 <= p < n:
            raise ValueError(f"{label} {p} out of range for n={n}")
    return found


def _broadcast_draws(
    protocol: str, n: int, names: Sequence[str], bits: Sequence[int], withheld: set[int]
) -> tuple[Transcript, RandomnessLedger]:
    """One broadcast round in which each player's one draw is their message.

    Player p records the draw bits[p] under names[p] and broadcasts it,
    unless p withholds; any withholding marks the transcript aborted.
    """
    transcript = Transcript(protocol, n)
    sent = [BroadcastEntry(p, str(bit)) for p, bit in enumerate(bits)]
    transcript.add_round([entry for entry in sent if entry.player not in withheld])
    transcript.aborted = bool(withheld)
    ledger = RandomnessLedger(
        {p: [name] for p, name in enumerate(names)},
        {p: [bit] for p, bit in enumerate(bits)},
    )
    return transcript, ledger


def _flip_and_broadcast(
    n: int, flippers: Sequence[int], withheld: set[int], rng: RngStream
) -> Run:
    """One anonymous broadcast round over a fresh GHZ state.

    Every player in `flippers` phase-flips their share, everyone applies
    a Hadamard, measures and broadcasts the outcome bit.  The output is
    the parity of the round, or None if anyone withheld.
    """
    state = make_ghz(n)
    for p in flippers:
        state = apply_phase_flip(state, p)
    record = hadamard_measure_all(state, rng)
    names = ["measurement"] * n
    transcript, ledger = _broadcast_draws("anon", n, names, record.outcomes, withheld)
    output = None if withheld else transcript.round_parity(0)
    return Run(output, transcript, ledger)


def anon_send(
    n: int,
    sender: int,
    d: int,
    rng: RngStream,
    *,
    withholders: Iterable[int] = (),
    disruptors: Iterable[int] = (),
) -> Run:
    """Anonymously broadcast one classical bit over a fresh GHZ state.

    The sender phase-flips their share iff d = 1, everyone applies a
    Hadamard and measures, and each player broadcasts their outcome bit.
    The parity of the broadcast round is the decoded bit; the outcome
    string itself carries no information about who flipped.

    `withholders` simulate players that refuse to broadcast: the run is
    marked aborted and decoded is None.  `disruptors` apply an extra
    phase flip each (a known active attack: every extra flip toggles the
    decoded bit).
    """
    _validate_group(n)
    _validate_bit(d)
    _validate_players(n, "sender", (sender,))
    withheld = _validate_players(n, "withholding player", withholders)
    flippers = sorted(_validate_players(n, "disruptor", disruptors))
    if d == 1:
        flippers.insert(0, sender)
    return _flip_and_broadcast(n, flippers, withheld, rng)


def anon_multiparty_parity(n: int, flippers: Iterable[int], rng: RngStream) -> Run:
    """Broadcast round in which every player in `flippers` phase-flips.

    Decodes to the parity of |flippers|: simultaneous senders collide
    into a parity, they do not queue.
    """
    _validate_group(n)
    flip_set = _validate_players(n, "flipper", flippers)
    return _flip_and_broadcast(n, sorted(flip_set), set(), rng)


def ae_establish(
    n: int,
    sender: int,
    receiver: int,
    rng: RngStream,
    *,
    withholders: Iterable[int] = (),
) -> Run:
    """Distill a shared EPR pair between sender and receiver.

    Everyone except the pair Hadamard-measures their share and
    broadcasts the outcome; the sender broadcasts a random bit b and
    phase-flips iff b = 1; the receiver broadcasts a random decoy bit
    b' (never used, it only makes the receiver's traffic look like the
    sender's) and phase-flips iff b xor (parity of the measurement
    broadcasts) = 1.  The two flips cancel the measurement back-action
    exactly, so the residual pair is (|00> + |11>)/sqrt(2) with phase
    numerator exactly 0.

    The output is the pair as a GhzPhaseState, None on abort.
    """
    _validate_group(n)
    _validate_players(n, "sender", (sender,))
    _validate_players(n, "receiver", (receiver,))
    if sender == receiver:
        raise ValueError("sender and receiver must differ")
    withheld = _validate_players(n, "withholding player", withholders)

    state = make_ghz(n)
    measured = tuple(p for p in range(n) if p not in (sender, receiver))
    record, residual = hadamard_measure_subset(state, measured, rng)
    b = rng.bit()
    b_prime = rng.bit()

    pair = residual.state
    if b == 1:
        pair = apply_phase_flip(pair, 0)
    if (b ^ record.parity) == 1:
        pair = apply_phase_flip(pair, 1)

    draws = {p: ("measurement", bit) for p, bit in zip(measured, record.outcomes)}
    draws[sender] = ("coin", b)
    draws[receiver] = ("decoy", b_prime)
    names, bits = zip(*(draws[p] for p in range(n)))
    transcript, ledger = _broadcast_draws("ae", n, names, bits, withheld)
    return Run(None if withheld else pair, transcript, ledger)


def anonq_send(
    n: int,
    sender: int,
    receiver: int,
    qubit: Sequence[complex],
    rng: RngStream,
    *,
    withholders: Iterable[int] = (),
) -> Run:
    """Teleport an arbitrary qubit from a hidden sender to a hidden receiver.

    First establishes an anonymous EPR pair, then the sender Bell-measures
    the input qubit against their half and announces the two outcome bits
    with two anonymous broadcasts.  The receiver applies Z^m0 then X^m1.
    The output is the received amplitudes, None if any stage aborted.
    """
    import numpy as np

    from .qsim import PAULI_X, PAULI_Z

    amps = np.asarray(qubit, dtype=complex).reshape(-1)
    if amps.size != 2:
        raise ValueError("qubit must be a pair of amplitudes")
    if abs(float(np.linalg.norm(amps)) - 1.0) > 1e-9:
        raise ValueError("qubit amplitudes must be normalized")

    pair, transcript, ledger = ae_establish(
        n, sender, receiver, rng, withholders=withholders
    )
    transcript.protocol = "anonq"
    if pair is None:
        return Run(None, transcript, ledger)

    # Qubit 0: input.  Qubit 1: sender's pair half.  Qubit 2: receiver's.
    combined = tensor(DenseState(1, amps), pair.to_dense())
    m0, m1, post = bell_measure(combined, 0, 1, rng)

    decoded0, t0, l0 = anon_send(n, sender, m0, rng)
    decoded1, t1, l1 = anon_send(n, sender, m1, rng)
    transcript.extend(t0)
    transcript.extend(t1)
    ledger.extend(l0)
    ledger.extend(l1)

    corrected = post
    if decoded0 == 1:
        corrected = dense_apply_gate(corrected, PAULI_Z, (2,))
    if decoded1 == 1:
        corrected = dense_apply_gate(corrected, PAULI_X, (2,))
    base = m0 | (m1 << 1)
    received = np.array(
        [corrected.amplitudes[base], corrected.amplitudes[base | 4]], dtype=complex
    )
    return Run(received, transcript, ledger)


def xor_pass(
    n: int, edges: Sequence[tuple[int, int]], key_bits: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """One pass over the edges of a pairwise-key XOR network.

    `key_bits[i]` is the key shared across `edges[i]`.  Returns, for each
    player, the XOR of their incident key bits (their announcement as a
    non-sender) and the list of those key bits in edge order.
    """
    parity = [0] * n
    incident: list[list[int]] = [[] for _ in range(n)]
    for (i, j), k in zip(edges, key_bits):
        parity[i] ^= k
        parity[j] ^= k
        incident[i].append(k)
        incident[j].append(k)
    return parity, incident


@lru_cache(maxsize=128)
def _xor_network(
    graph: KeySharingGraph,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[str, ...], ...]]:
    """Sorted edges of a connected key-sharing graph, and each player's
    incident key names (`key:i-j`) in that order."""
    if not is_connected(graph):
        raise ValueError("key-sharing graph must be connected")
    edges = tuple(sorted(graph.edges))
    names: list[list[str]] = [[] for _ in range(graph.num_nodes)]
    for i, j in edges:
        name = f"key:{i}-{j}"
        names[i].append(name)
        names[j].append(name)
    return edges, tuple(map(tuple, names))


def _xor_round(
    graph: KeySharingGraph, sender: int, d: int, key_bits: Sequence[int]
) -> Run:
    n = graph.num_nodes
    _validate_players(n, "sender", (sender,))
    _validate_bit(d)
    edges, names = _xor_network(graph)
    announced, incident = xor_pass(n, edges, key_bits)
    announced[sender] ^= d
    transcript = Transcript("dcnet", n)
    transcript.add_round([BroadcastEntry(p, str(bit)) for p, bit in enumerate(announced)])
    ledger = RandomnessLedger(
        dict(enumerate(map(list, names))), dict(enumerate(incident))
    )
    return Run(sum(announced) & 1, transcript, ledger)


def dcnet_send(graph: KeySharingGraph, sender: int, d: int, rng: RngStream) -> Run:
    """One round of the pairwise-key XOR network (dining cryptographers).

    Draws one key bit per edge, in sorted-edge order, then announces as
    dcnet_announce does with those keys.
    """
    edges, _ = _xor_network(graph)
    return _xor_round(graph, sender, d, [rng.bit() for _ in edges])


def dcnet_announce(
    graph: KeySharingGraph, keys: Mapping[tuple[int, int], int], sender: int, d: int
) -> Run:
    """Announce one bit per player under the given edge keys.

    Each announcement is the XOR of the player's incident key bits, plus
    the data bit for the sender.  Every key enters exactly two
    announcements, so the output, the XOR of all announcements, is d.
    Each player's ledger holds their incident key bits in sorted-edge
    order, named `key:i-j`; the sender's data bit is not a ledger entry.
    """
    edges, _ = _xor_network(graph)
    if set(keys) != graph.edges:
        raise ValueError("keys must cover exactly the graph's edges")
    for e, bit in keys.items():
        if bit not in (0, 1):
            raise ValueError(f"key bit for edge {e} must be 0 or 1")
    return _xor_round(graph, sender, d, [int(keys[e]) for e in edges])


def prepare_rotated_states(n: int) -> list[GhzPhaseState]:
    """Designated preparation for collision detection.

    State j of the ceil(log2 n)+1 states carries phase -pi/2^j (so state
    0 carries phase pi).  All states share the denominator exponent
    J = ceil(log2 n), large enough for every rotation used later.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    big_j = (n - 1).bit_length()  # ceil(log2 n)
    states = []
    for j in range(big_j + 1):
        state = make_ghz(n).with_denom_exp(big_j)
        states.append(apply_rz(state, 0, -1, j))
    return states


def decompose_k(k: int) -> tuple[int, int]:
    """Unique (j, m) with k = 2^j * m + 1 and m odd, for k >= 2.

    j is the round in which collision detection deterministically sees
    an odd parity when k players wish to send.
    """
    if k < 2:
        raise ValueError(f"decomposition needs k >= 2, got {k}")
    r = k - 1
    j = (r & -r).bit_length() - 1
    return j, r >> j


class CollisionOutcome(enum.Enum):
    EXACTLY_ONE = "exactly_one"
    NOT_EXACTLY_ONE = "not_exactly_one"


@dataclass(frozen=True)
class CollisionVerdict:
    """Result of one collision-detection run.

    `parities` holds the broadcast parity of each executed round; the
    run stops at the first odd round.  The verdict is EXACTLY_ONE iff
    every executed round had even parity.
    """

    parities: tuple[int, ...]
    verdict: CollisionOutcome
    first_odd_round: Optional[int]

    @property
    def rounds_used(self) -> int:
        return len(self.parities)

    def to_json(self) -> dict:
        return {
            "parities": list(self.parities),
            "verdict": self.verdict.value,
            "first_odd_round": self.first_odd_round,
        }


def collision_detect(
    n: int, wishers: Iterable[int], rng: RngStream
) -> CollisionVerdict:
    """Test anonymously whether exactly one player wishes to send.

    Round j starts from the prepared state with phase -pi/2^j; each of
    the k wishers applies a rotation of +pi/2^j, leaving phase
    (k-1)*pi/2^j.  Everyone Hadamard-measures and broadcasts.  With
    k = 2^j*m + 1 (m odd) the parity is deterministically even before
    round j and odd at round j; with k = 1 every round is even; with
    k = 0 round 0 sees phase -pi and is odd.  The run ends at the first
    odd round.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    wish_set = _validate_players(n, "wisher", wishers)

    parities = []
    first_odd = None
    for j, state in enumerate(prepare_rotated_states(n)):
        for w in sorted(wish_set):
            state = apply_rz(state, w, 1, j)
        record = hadamard_measure_all(state, rng)
        parities.append(record.parity)
        if record.parity == 1:
            first_odd = j
            break
    verdict = (
        CollisionOutcome.EXACTLY_ONE
        if first_odd is None
        else CollisionOutcome.NOT_EXACTLY_ONE
    )
    return CollisionVerdict(tuple(parities), verdict, first_odd)


@dataclass(frozen=True)
class AlohaSchedule:
    """Outcome of slotted-retransmission scheduling over collision detection."""

    rounds: tuple[frozenset[int], ...]
    transmitted: dict[int, int]
    completed: bool
    backoff_draws: dict[int, tuple[int, ...]]


def aloha_schedule(
    n: int,
    wishers: Iterable[int],
    max_backoff: int,
    rng: RngStream,
    *,
    round_cap: int = 1000,
) -> AlohaSchedule:
    """Schedule contending senders with random backoff after collisions.

    Every wisher first attempts in round 1.  A round with exactly one
    attempting wisher (verified by collision_detect) lets that wisher
    transmit; on a collision each attempting wisher redraws a uniform
    backoff in [1, max_backoff] and retries that many rounds later.
    Rounds where nobody attempts are recorded as empty sets.  Gives up
    (completed=False) past `round_cap` rounds.
    """
    if max_backoff < 1:
        raise ValueError(f"max_backoff must be >= 1, got {max_backoff}")
    pending = _validate_players(n, "wisher", wishers)
    next_attempt = {w: 1 for w in pending}
    rounds: list[frozenset[int]] = []
    transmitted: dict[int, int] = {}
    draws: dict[int, list[int]] = {w: [] for w in pending}
    r = 1
    while pending and r <= round_cap:
        active = frozenset(w for w in pending if next_attempt[w] == r)
        rounds.append(active)
        if active:
            verdict = collision_detect(n, active, rng)
            if verdict.verdict is CollisionOutcome.EXACTLY_ONE:
                winner = next(iter(active))
                transmitted[winner] = r
                pending.discard(winner)
            else:
                for w in sorted(active):
                    delay = rng.integer(1, max_backoff)
                    draws[w].append(delay)
                    next_attempt[w] = r + delay
        r += 1
    return AlohaSchedule(
        tuple(rounds),
        transmitted,
        completed=not pending,
        backoff_draws={w: tuple(v) for w, v in draws.items()},
    )


def elect_sender_receiver(
    n: int,
    sender_wishers: Iterable[int],
    receiver_wishers: Iterable[int],
    rng: RngStream,
) -> Optional[tuple[int, int]]:
    """Run collision detection for each role; elect only on a clean pair.

    Returns (sender, receiver) when each role has exactly one wisher and
    they are distinct players, otherwise None.
    """
    senders = set(sender_wishers)
    receivers = set(receiver_wishers)
    v_s = collision_detect(n, senders, rng)
    v_r = collision_detect(n, receivers, rng)
    if v_s.verdict is not CollisionOutcome.EXACTLY_ONE:
        return None
    if v_r.verdict is not CollisionOutcome.EXACTLY_ONE:
        return None
    s = next(iter(senders))
    r = next(iter(receivers))
    if s == r:
        return None
    return s, r


def anonymous_key_exchange(
    n: int,
    node_i: int,
    node_j: int,
    key_len: int,
    rng: RngStream,
    *,
    bits_i: Optional[Sequence[int]] = None,
    bits_j: Optional[Sequence[int]] = None,
) -> tuple[list[int], list[int], Transcript]:
    """Grow a shared key between two nodes out of anonymous broadcasts.

    For each of `key_len` indices both nodes announce one private random
    bit through anon_send.  Indices where the announced bits are equal
    are discarded; where they differ, the key bit is the value node_i
    announced (node_j knows which announcement was not their own, so
    both reconstruct the same bit while outsiders cannot attribute
    either announcement).  Expect about half the indices to survive.

    `bits_i`/`bits_j` override the private bit draws, for tests.
    """
    _validate_group(n)
    if node_i == node_j:
        raise ValueError("key exchange needs two distinct nodes")
    _validate_players(n, "node", (node_i, node_j))
    if key_len < 0:
        raise ValueError(f"key_len must be nonnegative, got {key_len}")
    if bits_i is not None and len(bits_i) != key_len:
        raise ValueError("bits_i must have length key_len")
    if bits_j is not None and len(bits_j) != key_len:
        raise ValueError("bits_j must have length key_len")

    transcript = Transcript("anon", n)
    key_i: list[int] = []
    key_j: list[int] = []
    for idx in range(key_len):
        bi = _validate_bit(bits_i[idx]) if bits_i is not None else rng.bit()
        bj = _validate_bit(bits_j[idx]) if bits_j is not None else rng.bit()
        announced_i, t_i, _ = anon_send(n, node_i, bi, rng)
        announced_j, t_j, _ = anon_send(n, node_j, bj, rng)
        transcript.extend(t_i)
        transcript.extend(t_j)
        if announced_i != announced_j:
            key_i.append(announced_i)
            key_j.append(announced_i)
    return key_i, key_j, transcript
