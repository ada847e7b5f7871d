"""Anonymous-transmission protocols over shared GHZ states.

Implements the classical-bit broadcast (anon_send), anonymous
entanglement between a hidden sender and receiver (ae_establish), qubit
transfer by teleportation over that entanglement (anonq_send), the
classical pairwise-key XOR network they are compared against
(dcnet_send), the rotation-based collision detection used to test for
exactly one willing sender, and the anonymous key exchange built from
anonymous broadcasts.

Every run returns a Run: its output value, a Transcript of what was
broadcast and a RandomnessLedger of the random values each player drew.
Data items and role assignments are deliberately kept out of ledgers:
they are the secrets whose leakage the analysis layer checks for.
"""

from __future__ import annotations

import cmath
import enum
import math
from functools import lru_cache, reduce
from operator import xor
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .keygraph import KeySharingGraph, is_connected
from .qsim import (
    GhzPhaseState,
    apply_phase_flip,
    apply_rz,
    hadamard_measure_all,
    hadamard_measure_subset,
    make_ghz,
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

    def __init__(self, n: int) -> None:
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
    n: int, names: Sequence[str], bits: Sequence[int], withheld: set[int]
) -> tuple[Transcript, RandomnessLedger]:
    """One broadcast round in which each player's one draw is their message.

    Player p records the draw bits[p] under names[p] and broadcasts it,
    unless p withholds; any withholding marks the transcript aborted.
    """
    transcript = Transcript(n)
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
    transcript, ledger = _broadcast_draws(n, names, record.outcomes, withheld)
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
    transcript, ledger = _broadcast_draws(n, names, bits, withheld)
    return Run(None if withheld else pair, transcript, ledger)


def _check_qubit(qubit: Sequence[complex]) -> tuple[complex, complex]:
    """The qubit's two amplitudes, checked to be finite and normalized."""
    amps = tuple(map(complex, qubit))
    if len(amps) != 2:
        raise ValueError(f"expected 2 amplitudes, got {len(amps)}")
    if not all(map(cmath.isfinite, amps)):
        raise ValueError(f"qubit amplitudes must be finite, got {amps}")
    norm = math.hypot(*map(abs, amps))
    if not abs(norm - 1) <= 1e-9:
        raise ValueError(f"state is not normalized (norm {norm!r})")
    return amps


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
    m0 (phase) and m1 (bit flip) with two anonymous broadcasts.  The
    receiver applies Z^m0 then X^m1.  The output is the received
    amplitudes, None if any stage aborted.

    The pair ae_establish leaves is exactly (|00> + |11>)/sqrt(2), so the
    four Bell outcomes are equally likely whatever the qubit, and after
    the corrections the receiver holds the sent qubit exactly (Bennett et
    al., PRL 70, 1895, 1993).  So the Bell measurement is one uniform
    draw u with 2*m0 + m1 = floor(4u), and the received amplitudes are
    the sent ones.
    """
    sent = _check_qubit(qubit)
    pair, transcript, ledger = ae_establish(
        n, sender, receiver, rng, withholders=withholders
    )
    if pair is None:
        return Run(None, transcript, ledger)

    outcome = int(4 * rng.uniform())
    for bit in (outcome >> 1, outcome & 1):
        _, t, l = anon_send(n, sender, bit, rng)
        transcript.extend(t)
        ledger.extend(l)
    return Run(sent, transcript, ledger)


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


def dcnet_send(graph: KeySharingGraph, sender: int, d: int, rng: RngStream) -> Run:
    """One round of the pairwise-key XOR network (dining cryptographers).

    Draws one key bit per edge, in sorted-edge order.  Each player
    announces the XOR of their incident key bits, plus the data bit for
    the sender.  Every key enters exactly two announcements, so the
    output, the XOR of all announcements, is d.  Each player's ledger
    holds their incident key bits in sorted-edge order, named `key:i-j`;
    the sender's data bit is not a ledger entry.
    """
    edges, names = _xor_network(graph)
    n = graph.num_nodes
    _validate_players(n, "sender", (sender,))
    _validate_bit(d)
    announced, incident = xor_pass(n, edges, [rng.bit() for _ in edges])
    announced[sender] ^= d
    transcript = Transcript(n)
    transcript.add_round([BroadcastEntry(p, str(bit)) for p, bit in enumerate(announced)])
    ledger = RandomnessLedger(
        dict(enumerate(map(list, names))), dict(enumerate(incident))
    )
    return Run(sum(announced) & 1, transcript, ledger)


def trace_attack(run: Run, d: int) -> Optional[int]:
    """Identify the sender of an XOR-network run from hijacked randomness.

    Each player's ledger holds their incident key bits, so their
    announcement as a non-sender is the XOR of their ledger values, and
    as the sender that XOR plus d.  A player whose announcement in the
    transcript matches only the sender replay is identified.  For d = 0
    the two replays coincide and nobody is distinguishable.  Returns the
    identified player or None.
    """
    _validate_bit(d)
    # the sender replay, non-sender ^ d, differs from it only for d = 1
    matches = [
        e.player for e in run.transcript.rounds[0]
        if d and int(e.bits) != reduce(xor, run.ledger.values(e.player), 0)
    ]
    return matches[0] if len(matches) == 1 else None


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


class CollisionVerdict(NamedTuple):
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

    Slot choice after Alpern & Schneider, "Key exchange using 'keyless
    cryptography'", IPL 16 (1983).  Each of `key_len` indices has two
    anon_multiparty_parity slots, and each node flips in the one slot it
    picks at random.  Parities (1, 1) mean the nodes picked different
    slots: the index is kept and its key bit is node_i's slot, which
    node_j knows as the slot it did not pick.  Parities (0, 0) mean they
    picked the same slot, and the index is discarded.  Either way the
    transcript shows only whether the index was kept, never the key bit.
    Expect about half the indices to survive.

    `bits_i`/`bits_j` override the slot choices, for tests.
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

    transcript = Transcript(n)
    key_i: list[int] = []
    key_j: list[int] = []
    for idx in range(key_len):
        slot_i = _validate_bit(bits_i[idx]) if bits_i is not None else rng.bit()
        slot_j = _validate_bit(bits_j[idx]) if bits_j is not None else rng.bit()
        parities = []
        for slot in (0, 1):
            flippers = [p for p, s in ((node_i, slot_i), (node_j, slot_j)) if s == slot]
            parity, slot_transcript, _ = anon_multiparty_parity(n, flippers, rng)
            transcript.extend(slot_transcript)
            parities.append(parity)
        if parities == [1, 1]:
            key_i.append(slot_i)
            key_j.append(1 - slot_j)
    return key_i, key_j, transcript
