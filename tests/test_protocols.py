"""Protocol rounds: broadcast semantics, ledgers, and fault paths."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from anonsim.protocols import (
    CollisionOutcome,
    aloha_schedule,
    ae_establish,
    anon_multiparty_parity,
    anon_send,
    anonq_send,
    anonymous_key_exchange,
    collision_detect,
    decompose_k,
    elect_sender_receiver,
    prepare_rotated_states,
)
from anonsim.qsim import (
    HADAMARD,
    PAULI_Z,
    DenseState,
    dense_apply_gate,
    fidelity,
    ghz_dense,
)
from anonsim.rng import RngStream


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
        assert fidelity(pair.to_dense(), ghz_dense(2)) == pytest.approx(
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
    with pytest.raises(ValueError):
        anonq_send(3, 0, 1, (0.5, 0.5), rng)
    with pytest.raises(ValueError):
        anonq_send(3, 0, 1, (1.0, 0.0, 0.0), rng)


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


# -------------------------------------------------------------------- aloha


def test_aloha_single_wisher_finishes_immediately():
    rng = RngStream(83)
    sched = aloha_schedule(6, (3,), 4, rng)
    assert sched.completed
    assert sched.transmitted == {3: 1}
    assert sched.rounds == (frozenset({3}),)


def test_aloha_no_wishers():
    rng = RngStream(89)
    sched = aloha_schedule(6, (), 4, rng)
    assert sched.completed
    assert sched.rounds == ()
    assert sched.transmitted == {}


def test_aloha_two_wishers_eventually_separate():
    rng = RngStream(97)
    sched = aloha_schedule(5, (1, 4), 8, rng)
    assert sched.completed
    assert sched.transmitted[1] != sched.transmitted[4]
    # round 1 is always a joint attempt
    assert sched.rounds[0] == frozenset({1, 4})


def test_aloha_unit_backoff_never_separates():
    # with max_backoff=1 both wishers redraw delay 1 and collide forever
    rng = RngStream(101)
    sched = aloha_schedule(4, (0, 1), 1, rng, round_cap=50)
    assert not sched.completed
    assert len(sched.rounds) == 50
    assert all(r == frozenset({0, 1}) for r in sched.rounds)


def test_aloha_three_wishers_always_complete():
    rng = RngStream(103)
    for _ in range(200):
        sched = aloha_schedule(6, (0, 1, 2), 4, rng, round_cap=500)
        assert sched.completed
        assert sorted(sched.transmitted) == [0, 1, 2]
        assert len(set(sched.transmitted.values())) == 3


def test_aloha_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        aloha_schedule(4, (0,), 0, rng)
    with pytest.raises(ValueError):
        aloha_schedule(4, (5,), 2, rng)


# ----------------------------------------------------------------- election


def test_elect_sender_receiver_happy_path():
    rng = RngStream(107)
    assert elect_sender_receiver(5, (2,), (4,), rng) == (2, 4)


def test_elect_sender_receiver_failures():
    rng = RngStream(109)
    assert elect_sender_receiver(5, (1, 2), (4,), rng) is None
    assert elect_sender_receiver(5, (1,), (), rng) is None
    assert elect_sender_receiver(5, (3,), (3,), rng) is None


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


def test_key_exchange_random_bits_agree():
    rng = RngStream(131)
    for _ in range(10):
        key_i, key_j, transcript = anonymous_key_exchange(4, 0, 3, 12, rng)
        assert key_i == key_j
        kept = sum(
            1
            for k in range(12)
            if transcript.round_parity(2 * k) != transcript.round_parity(2 * k + 1)
        )
        assert len(key_i) == kept
        # each surviving bit is the first announcement of its index pair
        survivors = [
            transcript.round_parity(2 * k)
            for k in range(12)
            if transcript.round_parity(2 * k) != transcript.round_parity(2 * k + 1)
        ]
        assert key_i == survivors


def test_key_exchange_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 0, 4, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, -1, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, 4, rng, bits_i=(0, 1))
