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
    bell_basis,
    dense_apply_gate,
    dense_collapse,
    fidelity,
    ghz_dense,
    outcome_probabilities,
    tensor,
    to_dense,
)


def _columns(run, n):
    """Each player's broadcast bits over the rounds, in round order."""
    return [
        tuple(bit for rnd in run.rounds for q, bit in rnd if q == p)
        for p in range(n)
    ]


def _parity(rnd):
    """The parity of one broadcast round's bits."""
    return sum(bit for _, bit in rnd) & 1


def _values(run, p):
    """Player p's drawn bits, in draw order."""
    return tuple(bit for _, bit in run.ledger[p])


def _names(run, p):
    """The names of player p's draws, in draw order."""
    return [name for name, _ in run.ledger[p]]


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
                run = anon_send(n, sender, d, rng)
                assert run.output == d
                assert _parity(run.rounds[0]) == d
                assert not run.aborted
                assert len(run.rounds[0]) == n
                assert sorted(run.ledger) == list(range(n))


def test_anon_round_entries_sorted_by_player():
    rng = RngStream(2)
    players = [p for p, _ in anon_send(5, 2, 1, rng).rounds[0]]
    assert players == sorted(players)


def test_anon_disruptors_toggle_parity():
    rng = RngStream(13)
    for num_disruptors in range(4):
        disruptors = tuple(range(num_disruptors))
        decoded = anon_send(6, 5, 1, rng, disruptors=disruptors).output
        assert decoded == 1 ^ (num_disruptors % 2)


def test_anon_withholding_aborts():
    rng = RngStream(17)
    run = anon_send(5, 0, 1, rng, withholders=(3,))
    assert run.output is None
    assert run.aborted
    assert len(run.rounds[0]) == 4
    assert 3 not in {p for p, _ in run.rounds[0]}
    # the measurement still happened locally
    assert 3 in run.ledger


def test_anon_broadcast_uniform_within_parity_class():
    # d = 1: every odd-parity string should be roughly equally likely
    rng = RngStream(23)
    n = 4
    trials = 100_000
    counts = {}
    for _ in range(trials):
        run = anon_send(n, 1, 1, rng)
        assert run.output == 1
        bits = tuple(bit for _, bit in run.rounds[0])
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
            run = anon_multiparty_parity(n, flippers, rng)
            assert run.output == r % 2
            assert _parity(run.rounds[0]) == r % 2


def test_broadcast_rounds_draw_only_their_free_bits():
    # each round of phase 0 or pi draws n - 1 bits and nothing else: no
    # uniform, since the phase fixes the parity
    for seed, n in itertools.product(range(4), (3, 5, 8)):
        rng, fresh = RngStream(seed, n), RngStream(seed, n)
        rounds = len(anon_send(n, 1, seed % 2, rng).rounds)
        rounds += len(anon_multiparty_parity(n, (0, 2), rng).rounds)
        for k in range(n + 1):
            rounds += collision_detect(n, range(k), rng).output.rounds_used
        for _ in range(rounds):
            fresh.bits(n - 1)
        assert (rng.bit(), rng.uniform(), rng.bits(5)) == (
            fresh.bit(), fresh.uniform(), fresh.bits(5)
        ), (seed, n)


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
            run = ae_establish(n, sender, receiver, rng)
            pair = run.output
            assert pair is not None
            assert pair.num_qubits == 2
            assert pair.phase_numerator == 0
            assert len(run.rounds) == 1
            assert len(run.rounds[0]) == n
            names = {p: _names(run, p) for p in range(n)}
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
        run = ae_establish(n, sender, receiver, rng)
        pair = run.output
        entries = dict(run.rounds[0])
        coin = run.ledger[sender][0][1]
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
        run = ae_establish(4, 0, 3, rng)
        decoys.add(run.ledger[3][0][1])
        pairs.add(run.output)
    assert decoys == {0, 1}
    assert len(pairs) == 1


def test_ae_withholding_aborts():
    rng = RngStream(41)
    run = ae_establish(5, 0, 1, rng, withholders=(2,))
    assert run.output is None
    assert run.aborted
    assert len(run.rounds[0]) == 4


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
            run = anonq_send(n, 0, n - 1, tuple(raw), rng)
            received = run.output
            assert received is not None
            assert not run.aborted
            assert abs(np.vdot(raw, received)) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )


def test_anonq_transcript_has_three_rounds():
    rng = RngStream(47)
    run = anonq_send(4, 1, 3, (1.0, 0.0), rng)
    assert len(run.rounds) == 3
    assert all(len(r) == 4 for r in run.rounds)
    assert not run.aborted


def test_anonq_every_player_logs_three_values():
    # whatever the roles, each ledger column has the same depth
    rng = RngStream(53)
    for n in (3, 5):
        for sender in range(n):
            for receiver in range(n):
                if receiver == sender:
                    continue
                run = anonq_send(n, sender, receiver, (0.6, 0.8j), rng)
                assert {len(run.ledger[p]) for p in range(n)} == {3}


def test_anonq_all_four_correction_branches_occur():
    rng = RngStream(61)
    seen = set()
    for _ in range(80):
        run = anonq_send(3, 0, 2, (0.6, 0.8), rng)
        m0 = _parity(run.rounds[1])
        m1 = _parity(run.rounds[2])
        seen.add((m0, m1))
        assert abs(np.vdot([0.6, 0.8], run.output)) ** 2 == pytest.approx(
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
    The four outcomes are first checked to be equally likely on the
    dense state, so the outcome is two uniform bits.
    Returns (m0, m1), the receiver's amplitudes, the broadcast rounds and
    each player's draws."""
    pair = ae_establish(n, sender, receiver, rng)
    rounds, ledger = list(pair.rounds), {p: list(draws) for p, draws in pair.ledger.items()}
    # qubit 0: input, qubit 1: sender's half, qubit 2: receiver's half
    basis = bell_basis(tensor(DenseState(1, qubit), to_dense(pair.output)), 0, 1)
    # P(m0, m1) at index 2*m0 + m1
    assert np.abs(outcome_probabilities(basis, (0, 1)) - 0.25).max() <= 1e-12
    m0, m1 = rng.bits(2)
    post = dense_collapse(basis, (0, 1), (m0, m1))
    for bit in (m0, m1):
        announce = anon_send(n, sender, bit, rng)
        rounds += announce.rounds
        for p, draws in announce.ledger.items():
            ledger[p] += draws
    if _parity(rounds[1]):
        post = dense_apply_gate(post, PAULI_Z, (2,))
    if _parity(rounds[2]):
        post = dense_apply_gate(post, PAULI_X, (2,))
    base = m0 | (m1 << 1)
    return (m0, m1), post.amplitudes[[base, base | 4]], rounds, ledger


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
        run = anonq_send(n, sender, receiver, qubit, RngStream(seed, n))
        bell, expected, oracle_rounds, oracle_ledger = _dense_anonq_send(
            n, sender, receiver, qubit, RngStream(seed, n)
        )
        outcomes.add(bell)
        assert run.rounds == oracle_rounds
        assert run.ledger == oracle_ledger
        assert not run.aborted
        assert abs(np.vdot(expected, run.output)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert outcomes == {(0, 0), (0, 1), (1, 0), (1, 1)}


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
            assert Fraction(s.phase_numerator, 1 << j_max) == Fraction(-1, 1 << j) % 2


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
                verdict = collision_detect(n, wishers, rng).output
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
    v = collision_detect(8, (0, 1), rng).output  # k=2: odd at round 0
    assert v.rounds_used == 1
    v = collision_detect(8, (0, 1, 2, 3, 4), rng).output  # k=5: odd at round 2
    assert v.rounds_used == 3
    v = collision_detect(8, (2,), rng).output
    assert v.rounds_used == 4  # every round runs, all even


def test_collision_run_records_its_rounds():
    # each executed round is broadcast, and each player's measured bits
    # are their ledger, as in anon_send
    rng = RngStream(83)
    for n in range(2, 11):
        for k in range(n + 1):
            run = collision_detect(n, range(n - k, n), rng)
            verdict = run.output
            assert len(run.rounds) == verdict.rounds_used
            assert all(len(rnd) == n for rnd in run.rounds)
            assert not run.aborted
            assert tuple(map(_parity, run.rounds)) == verdict.parities
            assert [_values(run, p) for p in range(n)] == _columns(run, n)
            assert {name for p in range(n) for name in _names(run, p)} == {"measurement"}


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
    run = anonymous_key_exchange(
        6,
        1,
        4,
        key_len,
        rng,
        bits_i=(0,) * key_len,
        bits_j=(1,) * key_len,
    )
    key_i, key_j = run.output
    assert key_i == key_j == [0] * key_len
    assert len(run.rounds) == 2 * key_len


def test_key_exchange_forced_agreement_yields_nothing():
    rng = RngStream(127)
    run = anonymous_key_exchange(5, 0, 2, 4, rng, bits_i=(1,) * 4, bits_j=(1,) * 4)
    key_i, key_j = run.output
    assert key_i == []
    assert key_j == []
    assert len(run.rounds) == 8


def _slot_parities(run, key_len):
    return [
        (_parity(run.rounds[2 * k]), _parity(run.rounds[2 * k + 1]))
        for k in range(key_len)
    ]


def test_key_exchange_random_bits_agree():
    rng = RngStream(131)
    for _ in range(10):
        run = anonymous_key_exchange(4, 0, 3, 12, rng)
        key_i, key_j = run.output
        assert key_i == key_j
        # every kept index shows (1, 1) and every discarded one (0, 0), so
        # the broadcasts tell which indices were kept and nothing more
        parities = _slot_parities(run, 12)
        assert set(parities) <= {(1, 1), (0, 0)}
        assert len(key_i) == parities.count((1, 1))


def test_key_exchange_transcript_hides_the_key():
    run = anonymous_key_exchange(6, 1, 4, 64, RngStream(3))
    key_i, key_j = run.output
    assert key_i == key_j
    assert 0 < sum(key_i) < len(key_i)
    kept = [p for p in _slot_parities(run, 64) if p != (0, 0)]
    assert kept == [(1, 1)] * len(key_i)


def test_key_exchange_ledger_is_its_broadcasts():
    # every slot's measured bits are kept; the slot choices, which are the
    # key, are not
    for n, key_len in ((3, 5), (6, 9)):
        run = anonymous_key_exchange(n, 0, n - 1, key_len, RngStream(n))
        assert len(run.rounds) == 2 * key_len
        assert [_values(run, p) for p in range(n)] == _columns(run, n)
        assert all(len(_values(run, p)) == 2 * key_len for p in range(n))


def test_key_exchange_rejects_bad_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 0, 4, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, -1, rng)
    with pytest.raises(ValueError):
        anonymous_key_exchange(3, 0, 1, 4, rng, bits_i=(0, 1))
