"""Protocol rounds: broadcast semantics, ledgers, and fault paths."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from anonsim.protocols import (
    CollisionOutcome,
    ae_establish,
    anon_multiparty_parity,
    anon_send,
    anonq_send,
    anonymous_key_exchange,
    collision_detect,
    decompose_k,
    prepare_rotated_states,
)
from anonsim.rng import RngStream

from dense_oracle import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DenseState,
    bell_measure,
    dense_apply_gate,
    fidelity,
    ghz_dense,
    tensor,
    to_dense,
)


# ------------------------------------------------------------- player setup


def test_runs_reject_bad_role_ids():
    rng = RngStream(0)
    with pytest.raises(ValueError, match="sender 3 out of range"):
        anon_send(3, 3, 1, rng)
    with pytest.raises(ValueError, match="sender 3 out of range"):
        ae_establish(3, 3, 1, rng)
    with pytest.raises(ValueError, match="receiver 3 out of range"):
        ae_establish(3, 1, 3, rng)
    with pytest.raises(ValueError, match="must differ"):
        ae_establish(3, 1, 1, rng)
    with pytest.raises(ValueError, match="withholding player 4 out of range"):
        anon_send(3, 0, 1, rng, withholders=(4,))


# ---------------------------------------------------------------------- anon


def test_anon_decodes_exhaustively():
    rng = RngStream(11)
    for n in range(3, 7):
        for sender in range(n):
            for d in (0, 1):
                decoded, transcript, ledger = anon_send(n, sender, d, rng)
                assert decoded == d
                assert transcript.round_parity(0) == d
                assert not transcript.aborted
                assert len(transcript.rounds[0]) == n
                assert ledger.players() == tuple(range(n))


def test_anon_round_entries_sorted_by_player():
    rng = RngStream(2)
    _, transcript, _ = anon_send(5, 2, 1, rng)
    players = [e.player for e in transcript.rounds[0]]
    assert players == sorted(players)


def test_anon_disruptors_toggle_parity():
    rng = RngStream(13)
    for num_disruptors in range(4):
        disruptors = tuple(range(num_disruptors))
        decoded, _, _ = anon_send(6, 5, 1, rng, disruptors=disruptors)
        assert decoded == 1 ^ (num_disruptors % 2)


def test_anon_withholding_aborts():
    rng = RngStream(17)
    decoded, transcript, ledger = anon_send(5, 0, 1, rng, withholders=(3,))
    assert decoded is None
    assert transcript.aborted
    assert len(transcript.rounds[0]) == 4
    assert 3 not in {e.player for e in transcript.rounds[0]}
    # the measurement still happened locally
    assert 3 in ledger.players()


def test_anon_broadcast_uniform_within_parity_class():
    # d = 1: every odd-parity string should be roughly equally likely
    rng = RngStream(23)
    n = 4
    trials = 100_000
    counts = {}
    for _ in range(trials):
        decoded, transcript, _ = anon_send(n, 1, 1, rng)
        assert decoded == 1
        bits = tuple(int(e.bits) for e in transcript.rounds[0])
        counts[bits] = counts.get(bits, 0) + 1
    assert len(counts) == 1 << (n - 1)
    expected = trials / (1 << (n - 1))
    sigma = (trials * (1 / 8) * (7 / 8)) ** 0.5
    for c in counts.values():
        assert abs(c - expected) < 4 * sigma


def test_anon_multiparty_parity_exhaustive():
    rng = RngStream(29)
    n = 5
    for r in range(n + 1):
        for flippers in itertools.combinations(range(n), r):
            parity, transcript, _ = anon_multiparty_parity(n, flippers, rng)
            assert parity == r % 2
            assert transcript.round_parity(0) == r % 2


def test_anon_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        anon_send(2, 0, 1, rng)
    with pytest.raises(ValueError):
        anon_send(4, 4, 1, rng)
    with pytest.raises(ValueError):
        anon_send(4, 0, 2, rng)


# ----------------------------------------------------------------------- ae


def test_ae_every_pair_lands_on_phase_zero():
    rng = RngStream(31)
    for n in range(3, 7):
        for sender, receiver in itertools.permutations(range(n), 2):
            pair, transcript, ledger = ae_establish(n, sender, receiver, rng)
            assert pair is not None
            assert pair.num_qubits == 2
            assert pair.phase_numerator == 0
            assert len(transcript.rounds) == 1
            assert len(transcript.rounds[0]) == n
            names = {
                p: [name for name, _ in ledger.entries(p)] for p in range(n)
            }
            assert names[sender] == ["coin"]
            assert names[receiver] == ["decoy"]
            for p in range(n):
                if p not in (sender, receiver):
                    assert names[p] == ["measurement"]


def test_ae_residual_matches_dense_replay():
    """Oracle: replay the announced bits as projections on the dense state."""
    rng = RngStream(37)
    n = 5
    for _ in range(50):
        sender, receiver = 1, 4
        pair, transcript, ledger = ae_establish(n, sender, receiver, rng)
        entries = {e.player: int(e.bits) for e in transcript.rounds[0]}
        coin = ledger.entries(sender)[0][1]
        assert entries[sender] == coin

        state = ghz_dense(n)
        measured = [p for p in range(n) if p not in (sender, receiver)]
        for q in measured:
            state = dense_apply_gate(state, HADAMARD, (q,))
        amps = np.zeros(4, dtype=complex)
        for idx, amp in enumerate(state.amplitudes):
            if all((idx >> q) & 1 == entries[q] for q in measured):
                sub = ((idx >> sender) & 1) | (((idx >> receiver) & 1) << 1)
                amps[sub] += amp
        amps /= np.linalg.norm(amps)
        residual = DenseState(2, amps)
        if coin:
            residual = dense_apply_gate(residual, PAULI_Z, (0,))
        parity = sum(entries[q] for q in measured) % 2
        if coin ^ parity:
            residual = dense_apply_gate(residual, PAULI_Z, (1,))
        assert fidelity(residual, ghz_dense(2)) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(to_dense(pair), ghz_dense(2)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_ae_decoy_takes_both_values_without_affecting_the_pair():
    pairs = set()
    decoys = set()
    for seed in range(40):
        rng = RngStream(seed)
        pair, _, ledger = ae_establish(4, 0, 3, rng)
        decoys.add(ledger.entries(3)[0][1])
        pairs.add(pair)
    assert decoys == {0, 1}
    assert len(pairs) == 1


def test_ae_withholding_aborts():
    rng = RngStream(41)
    pair, transcript, _ = ae_establish(5, 0, 1, rng, withholders=(2,))
    assert pair is None
    assert transcript.aborted
    assert len(transcript.rounds[0]) == 4


def test_ae_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        ae_establish(2, 0, 1, rng)
    with pytest.raises(ValueError):
        ae_establish(4, 2, 2, rng)


# -------------------------------------------------------------------- anonq


def test_anonq_delivers_arbitrary_qubit():
    rng = RngStream(43)
    gen = np.random.default_rng(12)
    for n in (3, 4, 6):
        for _ in range(20):
            raw = gen.normal(size=2) + 1j * gen.normal(size=2)
            raw /= np.linalg.norm(raw)
            received, transcript, _ = anonq_send(n, 0, n - 1, tuple(raw), rng)
            assert received is not None
            assert not transcript.aborted
            assert abs(np.vdot(raw, received)) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )


def test_anonq_transcript_has_three_rounds():
    rng = RngStream(47)
    _, transcript, _ = anonq_send(4, 1, 3, (1.0, 0.0), rng)
    assert len(transcript.rounds) == 3
    assert all(len(r) == 4 for r in transcript.rounds)
    assert not transcript.aborted


def test_anonq_every_player_logs_three_values():
    # whatever the roles, each ledger column has the same depth
    rng = RngStream(53)
    for n in (3, 5):
        for sender in range(n):
            for receiver in range(n):
                if receiver == sender:
                    continue
                _, _, ledger = anonq_send(n, sender, receiver, (0.6, 0.8j), rng)
                assert {len(ledger.entries(p)) for p in range(n)} == {3}


def test_anonq_all_four_correction_branches_occur():
    rng = RngStream(61)
    seen = set()
    for _ in range(80):
        received, transcript, _ = anonq_send(3, 0, 2, (0.6, 0.8), rng)
        m0 = transcript.round_parity(1)
        m1 = transcript.round_parity(2)
        seen.add((m0, m1))
        assert abs(np.vdot([0.6, 0.8], received)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_anonq_rejects_unnormalized_input():
    rng = RngStream(67)
    with pytest.raises(ValueError, match="not normalized"):
        anonq_send(3, 0, 1, (0.5, 0.5), rng)
    with pytest.raises(ValueError, match="not normalized"):
        anonq_send(3, 0, 1, (1e200, 0.0), rng)
    with pytest.raises(ValueError, match="expected 2 amplitudes, got 3"):
        anonq_send(3, 0, 1, (1.0, 0.0, 0.0), rng)
    # the qubit is checked before any draw
    assert rng.uniform() == RngStream(67).uniform()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "qubit",
    [(float("nan"), 0.0), (1.0, complex(0, float("nan"))), (float("inf"), 0.0),
     (0.6, complex(0, -float("inf"))), (float("nan"), float("inf"))],
)
def test_anonq_rejects_non_finite_input(qubit):
    rng = RngStream(67)
    with pytest.raises(ValueError, match="must be finite"):
        anonq_send(3, 0, 1, qubit, rng)
    assert rng.uniform() == RngStream(67).uniform()


def _dense_anonq_send(n, sender, receiver, qubit, rng):
    """The teleportation circuit on the dense oracle, drawing from `rng`
    what anonq_send draws: ae_establish's pair, a Bell measurement of
    the qubit against the sender's half, the two anonymous broadcasts of
    its outcome (m0, m1), then Z^m0 and X^m1 on the receiver's half.
    Returns (m0, m1), the receiver's amplitudes, transcript and ledger."""
    pair, transcript, ledger = ae_establish(n, sender, receiver, rng)
    # qubit 0: input, qubit 1: sender's half, qubit 2: receiver's half
    m0, m1, post = bell_measure(tensor(DenseState(1, qubit), to_dense(pair)), 0, 1, rng)
    for bit in (m0, m1):
        _, t, l = anon_send(n, sender, bit, rng)
        transcript.extend(t)
        ledger.extend(l)
    if transcript.round_parity(1):
        post = dense_apply_gate(post, PAULI_Z, (2,))
    if transcript.round_parity(2):
        post = dense_apply_gate(post, PAULI_X, (2,))
    base = m0 | (m1 << 1)
    return (m0, m1), post.amplitudes[[base, base | 4]], transcript, ledger


@pytest.mark.parametrize("n", [3, 4, 6])
def test_anonq_matches_dense_teleport_oracle(n):
    gen = np.random.default_rng(100 + n)
    fixed = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (-0.8j, 0.6)]
    outcomes = set()
    for seed in range(200):
        if seed < len(fixed):
            qubit = fixed[seed]
        else:
            raw = gen.normal(size=2) + 1j * gen.normal(size=2)
            qubit = tuple(raw / np.linalg.norm(raw))
        sender, receiver = (int(p) for p in gen.choice(n, 2, replace=False))
        received, transcript, ledger = anonq_send(
            n, sender, receiver, qubit, RngStream(seed, n)
        )
        bell, expected, oracle_transcript, oracle_ledger = _dense_anonq_send(
            n, sender, receiver, qubit, RngStream(seed, n)
        )
        outcomes.add(bell)
        assert transcript.to_json() == oracle_transcript.to_json()
        assert ledger.to_json() == oracle_ledger.to_json()
        assert abs(np.vdot(expected, received)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert outcomes == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_anonq_withholding_aborts():
    rng = RngStream(71)
    received, transcript, _ = anonq_send(4, 0, 3, (1.0, 0.0), rng, withholders=(1,))
    assert received is None
    assert transcript.aborted


# ---------------------------------------------------------------- collision


def test_prepare_rotated_states_shapes():
    for n in (2, 3, 5, 8, 9):
        states = prepare_rotated_states(n)
        j_max = (n - 1).bit_length()
        assert len(states) == j_max + 1
        for j, s in enumerate(states):
            assert s.num_qubits == n
            assert s.phase_denom_exp == j_max
            # phase -pi/2^j, stored mod 2 pi
            assert s.phase_fraction == Fraction(-1, 1 << j) % 2


def test_prepare_rotated_states_example():
    states = prepare_rotated_states(5)
    assert states[1].phase_denom_exp == 3
    assert states[1].phase_numerator == 12  # 3/2 of pi at denominator 2^3


def test_decompose_k_properties():
    for k in range(2, 2000):
        j, m = decompose_k(k)
        assert m % 2 == 1
        assert (1 << j) * m + 1 == k
    with pytest.raises(ValueError):
        decompose_k(1)


def test_collision_detect_full_grid():
    rng = RngStream(73)
    for n in range(2, 11):
        for k in range(n + 1):
            for wishers in itertools.islice(
                itertools.combinations(range(n), k), 6
            ):
                verdict = collision_detect(n, wishers, rng)
                if k == 1:
                    assert verdict.verdict is CollisionOutcome.EXACTLY_ONE
                    assert verdict.first_odd_round is None
                    assert all(p == 0 for p in verdict.parities)
                elif k == 0:
                    assert verdict.verdict is CollisionOutcome.NOT_EXACTLY_ONE
                    assert verdict.first_odd_round == 0
                else:
                    j, _ = decompose_k(k)
                    assert verdict.verdict is CollisionOutcome.NOT_EXACTLY_ONE
                    assert verdict.first_odd_round == j
                    assert verdict.parities[j] == 1
                    assert all(p == 0 for p in verdict.parities[:j])


def test_collision_rounds_used():
    rng = RngStream(79)
    v = collision_detect(8, (0, 1), rng)  # k=2: odd at round 0
    assert v.rounds_used == 1
    v = collision_detect(8, (0, 1, 2, 3, 4), rng)  # k=5: odd at round 2
    assert v.rounds_used == 3
    v = collision_detect(8, (2,), rng)
    assert v.rounds_used == 4  # every round runs, all even


def test_collision_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        collision_detect(1, (), rng)
    with pytest.raises(ValueError):
        collision_detect(4, (4,), rng)


# ------------------------------------------------------------- key exchange


def test_key_exchange_forced_disagreement_keeps_every_bit():
    rng = RngStream(113)
    key_len = 16
    key_i, key_j, transcript = anonymous_key_exchange(
        6,
        1,
        4,
        key_len,
        rng,
        bits_i=(0,) * key_len,
        bits_j=(1,) * key_len,
    )
    assert key_i == key_j == [0] * key_len
    assert len(transcript.rounds) == 2 * key_len


def test_key_exchange_forced_agreement_yields_nothing():
    rng = RngStream(127)
    key_i, key_j, transcript = anonymous_key_exchange(
        5, 0, 2, 4, rng, bits_i=(1,) * 4, bits_j=(1,) * 4
    )
    assert key_i == []
    assert key_j == []
    assert len(transcript.rounds) == 8


def _slot_parities(transcript, key_len):
    return [
        (transcript.round_parity(2 * k), transcript.round_parity(2 * k + 1))
        for k in range(key_len)
    ]


def test_key_exchange_random_bits_agree():
    rng = RngStream(131)
    for _ in range(10):
        key_i, key_j, transcript = anonymous_key_exchange(4, 0, 3, 12, rng)
        assert key_i == key_j
        # every kept index shows (1, 1) and every discarded one (0, 0), so
        # the transcript tells which indices were kept and nothing more
        parities = _slot_parities(transcript, 12)
        assert set(parities) <= {(1, 1), (0, 0)}
        assert len(key_i) == parities.count((1, 1))


def test_key_exchange_transcript_hides_the_key():
    key_i, key_j, transcript = anonymous_key_exchange(6, 1, 4, 64, RngStream(3))
    assert key_i == key_j
    assert 0 < sum(key_i) < len(key_i)
    kept = [p for p in _slot_parities(transcript, 64) if p != (0, 0)]
    assert kept == [(1, 1)] * len(key_i)


def test_key_exchange_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 0, 4, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, -1, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, 4, rng, bits_i=(0, 1))
