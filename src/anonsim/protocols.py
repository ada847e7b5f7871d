"""Anonymous-transmission protocols over shared GHZ states.

Implements the classical-bit broadcast (anon_send), anonymous
entanglement between a hidden sender and receiver (ae_establish), qubit
transfer by teleportation over that entanglement (anonq_send), the
classical pairwise-key XOR network they are compared against
(dcnet_send), the rotation-based collision detection used to test for
exactly one willing sender, and the anonymous key exchange built from
anonymous broadcasts.

Every protocol returns a Run: its output value, the broadcast rounds
as (player, bit) pairs, a ledger of the named bits each player drew,
and whether the run aborted.  Data items, role assignments and
key-exchange slot choices are deliberately kept out of ledgers: they
are the secrets whose leakage the analysis layer checks for.  Turning
a Run into a record is `serialize.run_record`'s job alone.
"""

from __future__ import annotations

import cmath
import enum
import math
from functools import lru_cache, reduce
from operator import xor
from typing import TYPE_CHECKING, Any, Collection, Iterable, NamedTuple, Optional, Sequence

from .qsim import (
    GhzPhaseState,
    _validate_bit,
    _validate_group,
    _validate_players,
    apply_phase_flip,
    apply_rz,
    hadamard_measure_all,
    hadamard_measure_subset,
    make_ghz,
)
from .rng import RngStream

if TYPE_CHECKING:
    from .keygraph import KeySharingGraph


class Run(NamedTuple):
    """What one protocol run yields: its output, broadcasts and draws.

    `output` is the protocol's result (decoded bit, parity, EPR pair,
    received qubit, collision verdict or key pair), None when the run
    aborted.  `rounds` holds each broadcast round's (player, bit) pairs
    actually sent, in player order; partial rounds are kept.  `ledger`
    maps each player to their (name, bit) draws in draw order; the names
    label the draws for human readers.  `aborted` is set when some
    player failed to broadcast.
    """

    output: Any
    rounds: list[list[tuple[int, int]]]
    ledger: dict[int, list[tuple[str, int]]]
    aborted: bool


def _broadcast_draws(
    output: Any, names: Sequence[str], bits: Sequence[int], withheld: Collection[int]
) -> Run:
    """One broadcast round in which each player's one draw is their message.

    Player p records the draw bits[p] under names[p] and broadcasts it,
    unless p withholds; any withholding aborts the run, whose output is
    then None.
    """
    return Run(
        None if withheld else output,
        [[(p, bit) for p, bit in enumerate(bits) if p not in withheld]],
        {p: [draw] for p, draw in enumerate(zip(names, bits))},
        bool(withheld),
    )


def _join(output: Any, runs: Iterable[Run]) -> Run:
    """One run made of `runs` in turn: their rounds, and each player's
    draws in order, aborted if any of them was."""
    rounds: list[list[tuple[int, int]]] = []
    ledger: dict[int, list[tuple[str, int]]] = {}
    aborted = False
    for run in runs:
        rounds += run.rounds
        for p, draws in run.ledger.items():
            ledger.setdefault(p, []).extend(draws)
        aborted = aborted or run.aborted
    return Run(output, rounds, ledger, aborted)


def _broadcast_round(
    state: GhzPhaseState, rng: RngStream, withheld: Collection[int] = ()
) -> Run:
    """One anonymous broadcast round over a GHZ state at phase 0 or pi.

    Everyone applies a Hadamard to their share, measures and broadcasts
    the outcome bit.  The output is the parity of the round, or None if
    anyone withheld.
    """
    outcomes = hadamard_measure_all(state, rng)
    names = ["measurement"] * state.num_qubits
    return _broadcast_draws(sum(outcomes) & 1, names, outcomes, withheld)


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
    return _broadcast_round(reduce(apply_phase_flip, flippers, make_ghz(n)), rng, withheld)


def anon_multiparty_parity(n: int, flippers: Iterable[int], rng: RngStream) -> Run:
    """Broadcast round in which every player in `flippers` phase-flips.

    Decodes to the parity of |flippers|: simultaneous senders collide
    into a parity, they do not queue.
    """
    _validate_group(n)
    flip_set = _validate_players(n, "flipper", flippers)
    return _broadcast_round(reduce(apply_phase_flip, sorted(flip_set), make_ghz(n)), rng)


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
    outcomes, pair = hadamard_measure_subset(state, measured, rng)
    b = rng.bit()
    b_prime = rng.bit()

    if b == 1:
        pair = apply_phase_flip(pair, 0)
    if (b ^ sum(outcomes)) & 1:
        pair = apply_phase_flip(pair, 1)

    draws = {p: ("measurement", bit) for p, bit in zip(measured, outcomes)}
    draws[sender] = ("coin", b)
    draws[receiver] = ("decoy", b_prime)
    names, bits = zip(*(draws[p] for p in range(n)))
    return _broadcast_draws(pair, names, bits, withheld)


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
) -> Run:
    """Teleport an arbitrary qubit from a hidden sender to a hidden receiver.

    First establishes an anonymous EPR pair, then the sender Bell-measures
    the input qubit against their half and announces the two outcome bits
    m0 (phase) and m1 (bit flip) with two anonymous broadcasts.  The
    receiver applies Z^m0 then X^m1.  The output is the received
    amplitudes.

    The pair ae_establish leaves is exactly (|00> + |11>)/sqrt(2), so the
    four Bell outcomes are equally likely whatever the qubit, and after
    the corrections the receiver holds the sent qubit exactly (Bennett et
    al., PRL 70, 1895, 1993).  So the Bell measurement is two uniform
    bits m0, m1, and the received amplitudes are the sent ones.
    """
    sent = _check_qubit(qubit)
    runs = [ae_establish(n, sender, receiver, rng)]
    runs += [anon_send(n, sender, bit, rng) for bit in rng.bits(2)]
    return _join(sent, runs)


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
    from .keygraph import is_connected

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
    ledger = {p: list(zip(names[p], incident[p])) for p in range(n)}
    return Run(sum(announced) & 1, [list(enumerate(announced))], ledger, False)


def trace_attack(run: Run, d: int) -> Optional[int]:
    """Identify the sender of an XOR-network run from hijacked randomness.

    Each player's ledger holds their incident key bits, so their
    announcement as a non-sender is the XOR of their ledger values, and
    as the sender that XOR plus d.  A player whose broadcast announcement
    matches only the sender replay is identified.  For d = 0
    the two replays coincide and nobody is distinguishable.  Returns the
    identified player or None.
    """
    _validate_bit(d)
    # the sender replay, non-sender ^ d, differs from it only for d = 1
    matches = [
        p for p, bit in run.rounds[0]
        if d and bit != reduce(xor, (key for _, key in run.ledger[p]), 0)
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


def collision_detect(n: int, wishers: Iterable[int], rng: RngStream) -> Run:
    """Test anonymously whether exactly one player wishes to send.

    Round j starts from the prepared state with phase -pi/2^j; each of
    the k wishers applies a rotation of +pi/2^j, leaving phase
    (k-1)*pi/2^j.  Everyone Hadamard-measures and broadcasts, as in
    anon_send, and records the measured bit.  With k = 2^j*m + 1 (m odd)
    the parity is deterministically even before round j and odd at
    round j; with k = 1 every round is even; with k = 0 round 0 sees
    phase -pi and is odd.  The run ends at the first odd round.

    The output is a CollisionVerdict; the run's rounds are every
    executed round.
    """
    if n < 2:
        raise ValueError(f"need at least 2 players, got {n}")
    wish_set = sorted(_validate_players(n, "wisher", wishers))

    runs = []
    for j, state in enumerate(prepare_rotated_states(n)):
        for w in wish_set:
            state = apply_rz(state, w, 1, j)
        runs.append(_broadcast_round(state, rng))
        if runs[-1].output:
            break
    parities = tuple(run.output for run in runs)
    first_odd = len(parities) - 1 if parities[-1] else None
    verdict = (
        CollisionOutcome.EXACTLY_ONE
        if first_odd is None
        else CollisionOutcome.NOT_EXACTLY_ONE
    )
    return _join(CollisionVerdict(parities, verdict, first_odd), runs)


def anonymous_key_exchange(
    n: int,
    node_i: int,
    node_j: int,
    key_len: int,
    rng: RngStream,
    *,
    bits_i: Optional[Sequence[int]] = None,
    bits_j: Optional[Sequence[int]] = None,
) -> Run:
    """Grow a shared key between two nodes out of anonymous broadcasts.

    Slot choice after Alpern & Schneider, "Key exchange using 'keyless
    cryptography'", IPL 16 (1983).  Each of `key_len` indices has two
    anon_multiparty_parity slots, and each node flips in the one slot it
    picks at random.  Parities (1, 1) mean the nodes picked different
    slots: the index is kept and its key bit is node_i's slot, which
    node_j knows as the slot it did not pick.  Parities (0, 0) mean they
    picked the same slot, and the index is discarded.  Either way the
    broadcasts show only whether the index was kept, never the key bit.
    Expect about half the indices to survive.

    The output is the pair (key_i, key_j); the rounds and ledger hold
    every slot's broadcasts and measured bits.  The slot choices
    are the key, so they stay out of the ledger.

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

    runs: list[Run] = []
    key_i: list[int] = []
    key_j: list[int] = []
    for idx in range(key_len):
        slot_i = _validate_bit(bits_i[idx]) if bits_i is not None else rng.bit()
        slot_j = _validate_bit(bits_j[idx]) if bits_j is not None else rng.bit()
        for slot in (0, 1):
            flippers = [p for p, s in ((node_i, slot_i), (node_j, slot_j)) if s == slot]
            runs.append(anon_multiparty_parity(n, flippers, rng))
        if runs[-2].output == runs[-1].output == 1:
            key_i.append(slot_i)
            key_j.append(1 - slot_j)
    return _join((key_i, key_j), runs)
