"""Exact simulation of GHZ-manifold quantum states.

The protocols in this package only ever manipulate states of the form

    (|0...0> + exp(i*phi)|1...1>) / sqrt(2)

where phi stays a dyadic multiple of pi.  GhzPhaseState tracks that one
relative phase with exact integer arithmetic, so protocol correctness
claims are checked without floating point, and this module never loads
numpy.  Its dense state-vector oracle lives in the tests
(`tests/dense_oracle.py`).

Conventions
-----------
* Qubit index 0 is the least significant bit of an amplitude index.
* Global phase is discarded everywhere; a single-qubit rotation about Z
  acts as diag(1, exp(i*theta)).
* After a Hadamard on every qubit of a GHZ-manifold state, the outcome
  string x has probability (1 + (-1)^|x| * cos(phi)) / 2^n, so the
  parity of x is odd with probability (1 - cos(phi)) / 2 and outcomes
  are uniform within each parity class.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .rng import RngStream

if TYPE_CHECKING:
    from fractions import Fraction

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class _GhzPhaseFields(NamedTuple):
    num_qubits: int
    phase_numerator: int = 0
    phase_denom_exp: int = 0


class GhzPhaseState(_GhzPhaseFields):
    """GHZ-manifold state (|0..0> + exp(i*pi*k/2^J)|1..1>)/sqrt(2).

    `phase_numerator` is k, reduced mod 2^(J+1); `phase_denom_exp` is J.
    All phase arithmetic is exact.  Instances are immutable; operations
    return new states.
    """

    __slots__ = ()

    def __new__(cls, num_qubits: int, phase_numerator: int = 0, phase_denom_exp: int = 0):
        if num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {num_qubits}")
        if phase_denom_exp < 0:
            raise ValueError(f"phase_denom_exp must be nonnegative, got {phase_denom_exp}")
        modulus = 2 << phase_denom_exp
        return super().__new__(cls, num_qubits, phase_numerator % modulus, phase_denom_exp)

    @classmethod
    def _make(cls, iterable):
        """Build through the checks above; `_replace` calls this too."""
        return cls(*iterable)

    @property
    def phase_fraction(self) -> Fraction:
        """Relative phase in units of pi, exact, in [0, 2)."""
        from fractions import Fraction

        return Fraction(self.phase_numerator, 1 << self.phase_denom_exp)

    @property
    def phase_radians(self) -> float:
        return math.pi * self.phase_numerator / (1 << self.phase_denom_exp)

    def is_phase_zero(self) -> bool:
        return self.phase_numerator == 0

    def is_phase_pi(self) -> bool:
        return self.phase_numerator == (1 << self.phase_denom_exp)

    def with_denom_exp(self, denom_exp: int) -> "GhzPhaseState":
        """Rescale the representation to denominator exponent >= current."""
        if denom_exp < self.phase_denom_exp:
            raise ValueError(
                f"cannot coarsen denom_exp {self.phase_denom_exp} to {denom_exp}"
            )
        shift = denom_exp - self.phase_denom_exp
        return GhzPhaseState(self.num_qubits, self.phase_numerator << shift, denom_exp)


def make_ghz(num_qubits: int) -> GhzPhaseState:
    """Fresh shared GHZ state with phase 0."""
    return GhzPhaseState(num_qubits, 0, 0)


def _check_player(state: GhzPhaseState, player: int) -> None:
    if not 0 <= player < state.num_qubits:
        raise ValueError(
            f"player {player} out of range for {state.num_qubits} qubits"
        )


def apply_phase_flip(state: GhzPhaseState, player: int) -> GhzPhaseState:
    """Pauli-Z by one player: adds exactly pi to the relative phase.

    Which player acts does not change the resulting representation; the
    index is validated only.
    """
    return apply_rz(state, player, 1, 0)


def apply_rz(
    state: GhzPhaseState, player: int, numerator: int, denom_exp: int
) -> GhzPhaseState:
    """Rotation diag(1, exp(i*pi*numerator/2^denom_exp)) by one player.

    The representation is rescaled upward first if the rotation is finer
    than the state's current denominator.  Exact in integer arithmetic.
    """
    _check_player(state, player)
    if denom_exp < 0:
        raise ValueError(f"denom_exp must be nonnegative, got {denom_exp}")
    work = state
    if denom_exp > work.phase_denom_exp:
        work = work.with_denom_exp(denom_exp)
    bump = numerator << (work.phase_denom_exp - denom_exp)
    return GhzPhaseState(
        work.num_qubits, work.phase_numerator + bump, work.phase_denom_exp
    )


def epr_fidelity(pair: GhzPhaseState) -> float:
    """|<EPR|pair>|^2 of a two-qubit state, EPR = (|00> + |11>)/sqrt(2).

    The float operations of the dense oracle's `fidelity` (in the
    tests) on the two nonzero amplitudes, conj(h)*h + conj(h*exp(i*phi))*h
    with h = 1/sqrt(2), so phase 0 gives the same float as the oracle.
    """
    if pair.num_qubits != 2:
        raise ValueError(f"EPR fidelity needs 2 qubits, got {pair.num_qubits}")
    h = _SQRT_HALF
    return abs(h * h + (h * cmath.exp(1j * pair.phase_radians)).conjugate() * h) ** 2


class MeasurementRecord(NamedTuple):
    """Computational-basis outcomes for a set of measured qubits."""

    outcomes: tuple[int, ...]

    @property
    def hamming_weight(self) -> int:
        return sum(self.outcomes)

    @property
    def parity(self) -> int:
        return self.hamming_weight & 1


class ResidualPair(NamedTuple):
    """Two-qubit GHZ-manifold state left behind by a partial measurement."""

    state: GhzPhaseState
    holders: tuple[int, int]


def parity_odd_probability(state: GhzPhaseState) -> float:
    """P(odd outcome parity) after a Hadamard on every qubit.

    Exactly 0.0 for phase 0 and exactly 1.0 for phase pi; otherwise
    (1 - cos(phi)) / 2 in floating point.
    """
    if state.is_phase_zero():
        return 0.0
    if state.is_phase_pi():
        return 1.0
    return (1.0 - math.cos(state.phase_radians)) / 2.0


def hadamard_measure_all(state: GhzPhaseState, rng: RngStream) -> MeasurementRecord:
    """Hadamard on every qubit, then measure all in the computational basis.

    Sampling is two-stage: the outcome parity is Bernoulli with
    parity_odd_probability(state), then the string is uniform within the
    sampled parity class.  Cost is O(n) per call.
    """
    n = state.num_qubits
    want_odd = rng.uniform() < parity_odd_probability(state)
    lead = rng.bits(n - 1)
    last = (sum(lead) + (1 if want_odd else 0)) & 1
    return MeasurementRecord(lead + (last,))


def hadamard_measure_subset(
    state: GhzPhaseState, measured: tuple[int, ...] | list[int], rng: RngStream
) -> tuple[MeasurementRecord, ResidualPair]:
    """Hadamard-and-measure all but two qubits of a GHZ-manifold state.

    Outcomes on the measured qubits are uniform.  The two remaining
    qubits are left in (|00> + exp(i*(phi + |x|*pi))|11>)/sqrt(2) where
    |x| is the Hamming weight of the outcome string.  The record's
    outcomes are ordered by measured qubit index.
    """
    n = state.num_qubits
    measured = tuple(sorted(measured))
    if len(set(measured)) != len(measured):
        raise ValueError("measured qubits must be distinct")
    if len(measured) != n - 2:
        raise ValueError(
            f"expected {n - 2} measured qubits for n={n}, got {len(measured)}"
        )
    for q in measured:
        _check_player(state, q)
    outcomes = rng.bits(n - 2)
    record = MeasurementRecord(outcomes)
    holders = tuple(q for q in range(n) if q not in measured)
    bump = record.parity << state.phase_denom_exp
    residual = GhzPhaseState(
        2, state.phase_numerator + bump, state.phase_denom_exp
    )
    return record, ResidualPair(residual, (holders[0], holders[1]))
