"""Core state backends: exact phase tracking vs the dense oracle."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsim.protocols import ae_establish
from anonsim.qsim import (
    GhzPhaseState,
    apply_phase_flip,
    apply_rz,
    epr_fidelity,
    hadamard_measure_all,
    hadamard_measure_subset,
    make_ghz,
)
from anonsim.rng import RngStream

from dense_oracle import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DenseState,
    apply_hadamard_all,
    bell_measure,
    dense_apply_gate,
    dense_measure,
    fidelity,
    from_dense,
    ghz_dense,
    outcome_distribution,
    rz_gate,
    tensor,
    to_dense,
)


def _phase_state(n: int, numerator: int, denom_exp: int) -> GhzPhaseState:
    return GhzPhaseState(n, numerator, denom_exp)


def _phase(state: GhzPhaseState) -> Fraction:
    """Relative phase in units of pi, exact, in [0, 2)."""
    return Fraction(state.phase_numerator, 1 << state.phase_denom_exp)


def _dense_with_rotations(n, ops):
    """Oracle: build the same state with plain matrix arithmetic."""
    state = ghz_dense(n)
    for kind, player, numerator, denom_exp in ops:
        if kind == "flip":
            state = dense_apply_gate(state, PAULI_Z, (player,))
        else:
            state = dense_apply_gate(state, rz_gate(numerator, denom_exp), (player,))
    return state


# ---------------------------------------------------------------- phase state


def test_make_ghz_has_zero_phase():
    s = make_ghz(4)
    assert (s.num_qubits, s.phase_numerator, s.phase_denom_exp) == (4, 0, 0)
    assert s.is_phase_zero()


def test_phase_flip_adds_pi_exactly():
    s = apply_phase_flip(make_ghz(3), 1)
    assert s.phase_numerator == 1 and s.phase_denom_exp == 0
    assert s.is_phase_pi()
    assert apply_phase_flip(s, 2).is_phase_zero()


def test_rz_rescales_and_accumulates():
    # phase -pi/2 plus three quarter turns lands on pi
    s = apply_rz(make_ghz(3), 0, -1, 1)
    assert _phase(s) == Fraction(3, 2)
    for _ in range(3):
        s = apply_rz(s, 2, 1, 1)
    assert s.is_phase_pi()


def test_rz_odd_multiple_of_pi_is_pi():
    for m in (1, 3, 5, 7):
        s = apply_rz(make_ghz(2), 0, m, 0)
        assert s.is_phase_pi()


def test_flip_location_invariance():
    for n in (2, 3, 5, 8):
        states = {apply_phase_flip(make_ghz(n), p) for p in range(n)}
        assert len(states) == 1


def test_player_out_of_range_rejected():
    with pytest.raises(ValueError):
        apply_phase_flip(make_ghz(3), 3)
    with pytest.raises(ValueError):
        apply_rz(make_ghz(3), -1, 1, 0)


def test_tiny_states_rejected():
    with pytest.raises(ValueError):
        GhzPhaseState(1, 0, 0)
    with pytest.raises(ValueError):
        GhzPhaseState._make((1, 0, 0))


def test_replace_reduces_the_numerator():
    s = make_ghz(2)._replace(phase_numerator=5)
    assert s.phase_numerator == 1
    assert s == GhzPhaseState(2, 5, 0)


@given(st.integers(min_value=0, max_value=6))
def test_full_turn_of_rz_is_identity(denom_exp):
    s = GhzPhaseState(3, 1, denom_exp)
    out = s
    for _ in range(1 << (denom_exp + 1)):
        out = apply_rz(out, 0, 1, denom_exp)
    assert out == s


@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=6,
    ),
)
def test_rz_additivity_matches_fraction_arithmetic(n, rotations):
    s = make_ghz(n)
    expected = Fraction(0)
    for numerator, denom_exp in rotations:
        s = apply_rz(s, numerator % n, numerator, denom_exp)
        expected += Fraction(numerator, 1 << denom_exp)
    assert _phase(s) == expected % 2


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=31),
)
def test_dense_round_trip_is_identity(n, denom_exp, numerator):
    s = GhzPhaseState(n, numerator, denom_exp)
    back = from_dense(to_dense(s), denom_exp)
    assert back == s


def test_from_dense_rejects_off_manifold_states():
    flat = DenseState(2, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValueError):
        from_dense(flat)


# -------------------------------------------------------- measurement law


def test_outcome_distribution_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        numerator = int(rng.integers(0, 32))
        denom_exp = int(rng.integers(0, 5))
        s = GhzPhaseState(n, numerator, denom_exp)
        dense = apply_hadamard_all(to_dense(s))
        np.testing.assert_allclose(
            outcome_distribution(s), dense.probabilities(), atol=1e-10
        )


@pytest.mark.parametrize("numerator, denom_exp", [(1, 1), (3, 1), (1, 3)])
def test_hadamard_measure_all_refuses_an_uncertain_parity(numerator, denom_exp):
    # no protocol measures every qubit away from phase 0 or pi, so that
    # law lives only in the dense oracle's outcome_distribution
    rng = RngStream(99)
    with pytest.raises(ValueError, match="phase 0 or pi"):
        hadamard_measure_all(GhzPhaseState(4, numerator, denom_exp), rng)
    assert rng.bits(20) == RngStream(99).bits(20)  # nothing was drawn


def test_hadamard_measure_all_deterministic_parities():
    rng = RngStream(5)
    for _ in range(200):
        assert sum(hadamard_measure_all(make_ghz(4), rng)) % 2 == 0
        flipped = apply_phase_flip(make_ghz(4), 2)
        assert sum(hadamard_measure_all(flipped, rng)) % 2 == 1
        # phase pi at a finer denominator is the same state
        assert sum(hadamard_measure_all(flipped.with_denom_exp(3), rng)) % 2 == 1


def test_hadamard_measure_all_uniform_within_parity_class():
    s = apply_phase_flip(make_ghz(3), 0)
    rng = RngStream(123)
    counts = {}
    trials = 40000
    for _ in range(trials):
        outcomes = hadamard_measure_all(s, rng)
        counts[outcomes] = counts.get(outcomes, 0) + 1
    assert set(sum(k) % 2 for k in counts) == {1}
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / trials - 0.25) < 0.02


def _dense_subset_residual(n, numerator, denom_exp, measured, outcome):
    """Oracle: project the measured qubits after their Hadamards."""
    state = to_dense(GhzPhaseState(n, numerator, denom_exp))
    for q in measured:
        state = dense_apply_gate(state, HADAMARD, (q,))
    keep = [q for q in range(n) if q not in measured]
    amps = np.zeros(4, dtype=complex)
    for idx, amp in enumerate(state.amplitudes):
        if all((idx >> q) & 1 == bit for q, bit in zip(measured, outcome)):
            sub = ((idx >> keep[0]) & 1) | (((idx >> keep[1]) & 1) << 1)
            amps[sub] += amp
    norm = np.linalg.norm(amps)
    assert norm > 1e-12
    return amps / norm, float(norm**2)


def test_subset_measurement_matches_dense_oracle():
    # every outcome is equally likely and leaves the predicted pair state
    n = 5
    for numerator, denom_exp in [(0, 0), (1, 0), (3, 2)]:
        for x in range(1 << (n - 2)):
            outcome = tuple((x >> i) & 1 for i in range(n - 2))
            measured = (0, 2, 4)
            amps, prob = _dense_subset_residual(
                n, numerator, denom_exp, measured, outcome
            )
            assert prob == pytest.approx(1.0 / (1 << (n - 2)), abs=1e-12)
            expected = to_dense(GhzPhaseState(
                2,
                numerator + (sum(outcome) % 2) * (1 << denom_exp),
                denom_exp,
            ))
            overlap = abs(np.vdot(expected.amplitudes, amps)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_subset_measurement_residual_phase():
    rng = RngStream(7)
    for _ in range(300):
        outcomes, residual = hadamard_measure_subset(make_ghz(6), (0, 1, 2, 3), rng)
        assert residual.num_qubits == 2
        assert _phase(residual) == Fraction(sum(outcomes) % 2)


def test_subset_measurement_validates_arguments():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        hadamard_measure_subset(make_ghz(4), (0,), rng)
    with pytest.raises(ValueError):
        hadamard_measure_subset(make_ghz(4), (0, 9), rng)


# ----------------------------------------------------------------- dense ops


def test_dense_limit_enforced():
    with pytest.raises(ValueError):
        DenseState(15)
    assert DenseState(15, None, limit=15).num_qubits == 15


def test_dense_requires_normalized_amplitudes():
    with pytest.raises(ValueError):
        DenseState(1, [1.0, 1.0])


def test_dense_gate_rejects_non_unitary():
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError):
        dense_apply_gate(DenseState(1), bad, (0,))


def test_dense_gate_norm_preserved():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = DenseState(3, amps)
    for gate, targets in [(HADAMARD, (1,)), (PAULI_X, (0,)), (CNOT, (0, 2))]:
        state = dense_apply_gate(state, gate, targets)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_cnot_convention():
    # control is targets[1]; |q1 q0> = |10> means qubit 1 set
    state = DenseState(2, [0, 0, 1, 0])  # index 2: qubit1=1, qubit0=0
    out = dense_apply_gate(state, CNOT, (0, 1))
    assert np.argmax(np.abs(out.amplitudes)) == 3
    # with control clear nothing happens
    state = DenseState(2, [0, 1, 0, 0])
    out = dense_apply_gate(state, CNOT, (0, 1))
    assert np.argmax(np.abs(out.amplitudes)) == 1


def test_dense_measure_collapses_and_renormalizes():
    rng = RngStream(3)
    state = ghz_dense(3)
    outcomes, post = dense_measure(state, (0, 1, 2), rng)
    assert set(outcomes) in ({0}, {1})
    assert post.norm() == pytest.approx(1.0, abs=1e-12)
    again, _ = dense_measure(post, (0, 1, 2), rng)
    assert again == outcomes


def test_ghz_phase_to_dense_matches_direct_construction():
    s = GhzPhaseState(3, 3, 1)
    dense = to_dense(s)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1 / math.sqrt(2)
    expected[7] = cmath.exp(1j * 3 * math.pi / 2) / math.sqrt(2)
    np.testing.assert_allclose(dense.amplitudes, expected, atol=1e-15)


# -------------------------------------------------------------- Bell basis


def _bell_vector(m0: int, m1: int) -> np.ndarray:
    amps = np.zeros(4, dtype=complex)
    if m1 == 0:
        amps[0] = 1 / math.sqrt(2)
        amps[3] = (1 - 2 * m0) / math.sqrt(2)
    else:
        amps[1] = 1 / math.sqrt(2)
        amps[2] = (1 - 2 * m0) / math.sqrt(2)
    return amps


def test_bell_measure_identifies_each_bell_state():
    rng = RngStream(1)
    for m0 in (0, 1):
        for m1 in (0, 1):
            state = DenseState(2, _bell_vector(m0, m1))
            got0, got1, _ = bell_measure(state, 0, 1, rng)
            assert (got0, got1) == (m0, m1)


def test_bell_measure_outcomes_uniform_on_product_input():
    rng = RngStream(42)
    qubit = DenseState(1, [0.6, 0.8])
    counts = {}
    trials = 8000
    for _ in range(trials):
        combined = tensor(qubit, ghz_dense(2))
        m0, m1, _ = bell_measure(combined, 0, 1, rng)
        counts[(m0, m1)] = counts.get((m0, m1), 0) + 1
    assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for c in counts.values():
        assert abs(c / trials - 0.25) < 0.02


def test_teleportation_identity_all_branches():
    rng = RngStream(77)
    gen = np.random.default_rng(8)
    seen = set()
    for _ in range(60):
        raw = gen.normal(size=2) + 1j * gen.normal(size=2)
        raw /= np.linalg.norm(raw)
        combined = tensor(DenseState(1, raw), ghz_dense(2))
        m0, m1, post = bell_measure(combined, 0, 1, rng)
        seen.add((m0, m1))
        if m0:
            post = dense_apply_gate(post, PAULI_Z, (2,))
        if m1:
            post = dense_apply_gate(post, PAULI_X, (2,))
        base = m0 | (m1 << 1)
        received = np.array(
            [post.amplitudes[base], post.amplitudes[base | 4]]
        )
        assert abs(np.vdot(raw, received)) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_bell_measure_rejects_identical_qubits():
    with pytest.raises(ValueError):
        bell_measure(ghz_dense(2), 1, 1, RngStream(0))


# --------------------------------------------------- backend equivalence


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_backend_equivalence_random_sequences(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["flip", "rz"]),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=-4, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=6,
        )
    )
    phase = make_ghz(n)
    for kind, player, numerator, denom_exp in ops:
        if kind == "flip":
            phase = apply_phase_flip(phase, player)
        else:
            phase = apply_rz(phase, player, numerator, denom_exp)
    dense = apply_hadamard_all(
        _dense_with_rotations(
            n,
            [
                (kind, player, numerator, denom_exp)
                for kind, player, numerator, denom_exp in ops
            ],
        )
    )
    np.testing.assert_allclose(
        outcome_distribution(phase), dense.probabilities(), atol=1e-10
    )


def test_rng_stream_reproducible():
    a = RngStream(31337, 5)
    b = RngStream(31337, 5)
    assert [a.bit() for _ in range(64)] == [b.bit() for _ in range(64)]
    assert a.uniform() == b.uniform()
    assert a.integer(1, 10) == b.integer(1, 10)


def test_rng_streams_differ_across_ids():
    a = RngStream(31337, 0)
    b = RngStream(31337, 1)
    assert [a.bit() for _ in range(64)] != [b.bit() for _ in range(64)]


def test_fidelity_of_equal_states_is_one():
    assert fidelity(ghz_dense(2), ghz_dense(2)) == pytest.approx(1.0, abs=1e-15)


def test_epr_fidelity_matches_dense_oracle():
    epr = ghz_dense(2)
    # phase 0, the only pair ae_establish leaves: the same float
    for seed in range(5):
        pair = ae_establish(5, 1, 3, RngStream(seed)).output
        assert epr_fidelity(pair) == fidelity(to_dense(pair), epr)
    # every phase k/2^J with J <= 8: the dense inner product may add in
    # another order, so the two agree to within an ulp or so
    for denom_exp in range(9):
        for k in range(2 << denom_exp):
            pair = GhzPhaseState(2, k, denom_exp)
            assert abs(epr_fidelity(pair) - fidelity(to_dense(pair), epr)) <= 2.3e-16


def test_epr_fidelity_needs_a_pair():
    with pytest.raises(ValueError, match="needs 2 qubits"):
        epr_fidelity(make_ghz(3))
