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
* After a Hadamard on every qubit of a GHZ-manifold state at phase 0
  or pi, the parity of the outcome string is certain (even at 0, odd at
  pi) and the strings are uniform within that parity class.  That is
  the only measurement the protocols make; the law at any other phase
  is the dense oracle's `outcome_distribution`.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple

from .rng import RngStream

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


# Input checks of the protocols and of the verdicts that judge them.


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


def hadamard_measure_all(state: GhzPhaseState, rng: RngStream) -> tuple[int, ...]:
    """Hadamard on every qubit, then measure all in the computational basis.

    The phase must be 0 or pi, which fixes the outcome parity: only the
    first n - 1 bits are drawn, and the last one sets that parity.
    Returns the outcomes in qubit order.
    """
    if not (state.is_phase_zero() or state.is_phase_pi()):
        raise ValueError(f"measuring all needs phase 0 or pi, got {state.phase_radians:g}")
    lead = rng.bits(state.num_qubits - 1)
    return lead + ((sum(lead) + state.is_phase_pi()) & 1,)


def hadamard_measure_subset(
    state: GhzPhaseState, measured: tuple[int, ...] | list[int], rng: RngStream
) -> tuple[tuple[int, ...], GhzPhaseState]:
    """Hadamard-and-measure all but two qubits of a GHZ-manifold state.

    Outcomes on the measured qubits are uniform.  The two remaining
    qubits are left in (|00> + exp(i*(phi + |x|*pi))|11>)/sqrt(2) where
    |x| is the Hamming weight of the outcome string.  Returns the
    outcomes, ordered by measured qubit index, and that two-qubit
    residual state.
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
    bump = (sum(outcomes) & 1) << state.phase_denom_exp
    residual = GhzPhaseState(
        2, state.phase_numerator + bump, state.phase_denom_exp
    )
    return outcomes, residual
