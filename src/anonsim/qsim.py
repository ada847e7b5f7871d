"""Exact simulation of GHZ-manifold quantum states.

The protocols in this package only ever manipulate states of the form

    (|0...0> + exp(i*phi)|1...1>) / sqrt(2)

where phi stays a dyadic multiple of pi.  GhzPhaseState tracks that one
relative phase with exact integer arithmetic, so protocol correctness
claims are checked without floating point.  DenseState is a conventional
state-vector backend used as an independent oracle on small systems and
for the teleportation step, which leaves the GHZ manifold.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rng import RngStream

DENSE_QUBIT_LIMIT = 14

_SQRT_HALF = 1.0 / math.sqrt(2.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis index for a two-qubit gate is bit(targets[0]) + 2*bit(targets[1]),
# so this matrix flips targets[0] when targets[1] is set.
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)


def rz_gate(numerator: int, denom_exp: int) -> np.ndarray:
    """diag(1, exp(i*pi*numerator/2^denom_exp)), global phase dropped."""
    if denom_exp < 0:
        raise ValueError(f"denom_exp must be nonnegative, got {denom_exp}")
    theta = math.pi * numerator / (1 << denom_exp)
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * theta)]], dtype=complex)


@dataclass(frozen=True)
class GhzPhaseState:
    """GHZ-manifold state (|0..0> + exp(i*pi*k/2^J)|1..1>)/sqrt(2).

    `phase_numerator` is k, reduced mod 2^(J+1); `phase_denom_exp` is J.
    All phase arithmetic is exact.  Instances are immutable; operations
    return new states.
    """

    num_qubits: int
    phase_numerator: int = 0
    phase_denom_exp: int = 0

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.num_qubits}")
        if self.phase_denom_exp < 0:
            raise ValueError(
                f"phase_denom_exp must be nonnegative, got {self.phase_denom_exp}"
            )
        modulus = 1 << (self.phase_denom_exp + 1)
        object.__setattr__(self, "phase_numerator", self.phase_numerator % modulus)

    @property
    def phase_fraction(self) -> Fraction:
        """Relative phase in units of pi, exact, in [0, 2)."""
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

    def reduced(self) -> "GhzPhaseState":
        """Canonical form: smallest denominator exponent for this phase."""
        k, j = self.phase_numerator, self.phase_denom_exp
        while j > 0 and k % 2 == 0:
            k //= 2
            j -= 1
        return GhzPhaseState(self.num_qubits, k, j)

    def same_phase(self, other: "GhzPhaseState") -> bool:
        return (
            self.num_qubits == other.num_qubits
            and self.phase_fraction % 2 == other.phase_fraction % 2
        )

    def to_dense(self) -> "DenseState":
        """Amplitude-vector form of this state."""
        amps = np.zeros(1 << self.num_qubits, dtype=complex)
        amps[0] = _SQRT_HALF
        amps[-1] = _SQRT_HALF * cmath.exp(1j * self.phase_radians)
        return DenseState(self.num_qubits, amps)

    @classmethod
    def from_dense(
        cls, dense: "DenseState", phase_denom_exp: int = 0, atol: float = 1e-9
    ) -> "GhzPhaseState":
        """Recover the phase representation from a dense GHZ-manifold state.

        Raises ValueError if the amplitudes do not lie on the manifold
        (within atol) or if the relative phase is not representable with
        the requested denominator exponent.
        """
        n = dense.num_qubits
        amps = dense.amplitudes
        interior = amps[1:-1]
        if interior.size and np.max(np.abs(interior)) > atol:
            raise ValueError("state has support outside |0..0> and |1..1>")
        if abs(abs(amps[0]) - _SQRT_HALF) > atol or abs(abs(amps[-1]) - _SQRT_HALF) > atol:
            raise ValueError("endpoint amplitudes are not 1/sqrt(2) in magnitude")
        phi = cmath.phase(amps[-1] / amps[0])
        scaled = phi / math.pi * (1 << phase_denom_exp)
        k = round(scaled)
        if abs(scaled - k) > 1e-6:
            raise ValueError(
                f"phase {phi!r} is not pi*k/2^{phase_denom_exp} for integer k"
            )
        return cls(n, k % (1 << (phase_denom_exp + 1)), phase_denom_exp)


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


@dataclass(frozen=True)
class MeasurementRecord:
    """Computational-basis outcomes for a set of measured qubits."""

    outcomes: tuple[int, ...]

    @property
    def hamming_weight(self) -> int:
        return sum(self.outcomes)

    @property
    def parity(self) -> int:
        return self.hamming_weight & 1


@dataclass(frozen=True)
class ResidualPair:
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


@lru_cache(maxsize=None)
def _parity_table(num_qubits: int) -> np.ndarray:
    table = np.zeros(1 << num_qubits, dtype=np.float64)
    for x in range(1 << num_qubits):
        table[x] = bin(x).count("1") & 1
    return table


def outcome_distribution(state: GhzPhaseState) -> np.ndarray:
    """Exact outcome distribution after a Hadamard on every qubit.

    Entry x is (1 + (-1)^|x| * cos(phi)) / 2^n.
    """
    n = state.num_qubits
    if n > 20:
        raise ValueError(f"distribution over 2^{n} outcomes is too large")
    cosphi = math.cos(state.phase_radians)
    if state.is_phase_zero():
        cosphi = 1.0
    elif state.is_phase_pi():
        cosphi = -1.0
    signs = 1.0 - 2.0 * _parity_table(n)
    return (1.0 + signs * cosphi) / (1 << n)


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


class DenseState:
    """Full amplitude-vector state on up to `limit` qubits.

    Used as the oracle backend: slower but assumption-free.  Instances
    are treated as immutable; operations return new states.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(
        self,
        num_qubits: int,
        amplitudes: np.ndarray | list[complex] | None = None,
        *,
        limit: int = DENSE_QUBIT_LIMIT,
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least 1 qubit, got {num_qubits}")
        if num_qubits > limit:
            raise ValueError(
                f"{num_qubits} qubits exceeds dense backend limit {limit}"
            )
        if amplitudes is None:
            amps = np.zeros(1 << num_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
            if amps.size != 1 << num_qubits:
                raise ValueError(
                    f"expected {1 << num_qubits} amplitudes, got {amps.size}"
                )
            norm = float(np.linalg.norm(amps))
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"state is not normalized (norm {norm!r})")
        self.num_qubits = num_qubits
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def ghz_dense(num_qubits: int, *, limit: int = DENSE_QUBIT_LIMIT) -> DenseState:
    """Dense GHZ state with phase 0."""
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = _SQRT_HALF
    amps[-1] = _SQRT_HALF
    return DenseState(num_qubits, amps, limit=limit)


def tensor(low: DenseState, high: DenseState) -> DenseState:
    """Combined state with `low`'s qubits as the low bit positions."""
    n = low.num_qubits + high.num_qubits
    amps = np.kron(high.amplitudes, low.amplitudes)
    return DenseState(n, amps, limit=max(n, DENSE_QUBIT_LIMIT))


def fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|^2."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity needs equal qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    dim = matrix.shape[0]
    return bool(
        np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=atol)
    )


def dense_apply_gate(
    state: DenseState, gate: np.ndarray, targets: tuple[int, ...] | list[int]
) -> DenseState:
    """Apply a 1- or 2-qubit unitary to the given target qubits.

    For a two-qubit gate the matrix basis index is
    bit(targets[0]) + 2*bit(targets[1]).
    """
    gate = np.asarray(gate, dtype=complex)
    targets = tuple(targets)
    k = len(targets)
    if gate.shape != (1 << k, 1 << k) or k not in (1, 2):
        raise ValueError(f"gate shape {gate.shape} does not fit {k} targets")
    if len(set(targets)) != k:
        raise ValueError("target qubits must be distinct")
    n = state.num_qubits
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"target {q} out of range for {n} qubits")
    if not _is_unitary(gate):
        raise ValueError("gate is not unitary within 1e-10")
    psi = state.amplitudes.reshape((2,) * n)
    # Axis for qubit q is n-1-q (C order puts the most significant bit first).
    axes = [n - 1 - q for q in targets]
    g = gate.reshape((2,) * (2 * k))
    col_axes = [2 * k - 1 - i for i in range(k)]
    out = np.tensordot(g, psi, axes=(col_axes, axes))
    # tensordot leaves gate row axes (r_{k-1}..r_0) in front; put them back.
    dest = [n - 1 - targets[k - 1 - j] for j in range(k)]
    out = np.moveaxis(out, list(range(k)), dest)
    new = DenseState.__new__(DenseState)
    new.num_qubits = n
    new.amplitudes = np.ascontiguousarray(out.reshape(-1))
    return new


def apply_hadamard_all(state: DenseState) -> DenseState:
    out = state
    for q in range(state.num_qubits):
        out = dense_apply_gate(out, HADAMARD, (q,))
    return out


def _measurement_cdf(
    state: DenseState, qubits: tuple[int, ...]
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """The state with the measured axes moved to the front, those axes,
    the joint outcome probabilities and their cumulative sums."""
    k = len(qubits)
    if len(set(qubits)) != k or k == 0:
        raise ValueError("measured qubits must be distinct and nonempty")
    n = state.num_qubits
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    psi = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    psi_t = np.moveaxis(psi, axes, list(range(k)))
    probs = (np.abs(psi_t) ** 2).reshape(1 << k, -1).sum(axis=1)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return psi_t, axes, probs, cum


def dense_measure(
    state: DenseState, qubits: tuple[int, ...] | list[int], rng: RngStream
) -> tuple[tuple[int, ...], DenseState]:
    """Measure the given qubits in the computational basis.

    Returns outcomes aligned with the `qubits` argument and the
    renormalized post-measurement state (measured qubits collapsed).
    One uniform draw u decides the joint outcome: its index is where u
    falls in the cumulative outcome probabilities (searchsorted, side
    "right"), and bit i of the index from the top is qubits[i]'s outcome.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    n = state.num_qubits
    psi_t, axes, probs, cum = _measurement_cdf(state, qubits)
    idx = int(np.searchsorted(cum, rng.uniform(), side="right"))
    outcomes = tuple((idx >> (k - 1 - i)) & 1 for i in range(k))
    sel = psi_t[tuple(outcomes)]
    p = probs[idx]
    if p <= 0.0:
        raise RuntimeError("sampled a zero-probability branch")
    collapsed = np.zeros_like(psi_t)
    collapsed[tuple(outcomes)] = sel / math.sqrt(p)
    collapsed = np.moveaxis(collapsed, list(range(k)), axes)
    new = DenseState.__new__(DenseState)
    new.num_qubits = n
    new.amplitudes = np.ascontiguousarray(collapsed.reshape(-1))
    return outcomes, new


def bell_measure(
    state: DenseState, qubit_a: int, qubit_b: int, rng: RngStream
) -> tuple[int, int, DenseState]:
    """Projective Bell-basis measurement of (qubit_a, qubit_b).

    Returns (m0, m1, post_state) where m0 is the phase bit and m1 the
    bit-flip bit: outcome (0,0) is (|00>+|11>)/sqrt(2), (1,0) is
    (|00>-|11>)/sqrt(2), (0,1) is (|01>+|10>)/sqrt(2) and (1,1) is
    (|01>-|10>)/sqrt(2).  The receiver's correction for teleportation is
    Z^m0 then X^m1.  In the returned state the measured pair is left
    collapsed to |m0>,|m1> after the basis-change circuit.
    """
    (m0, m1), post = dense_measure(
        _bell_basis(state, qubit_a, qubit_b), (qubit_a, qubit_b), rng
    )
    return m0, m1, post


def bell_outcome_cdf(state: DenseState, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Cumulative probabilities of bell_measure's outcomes 2*m0 + m1.

    bell_measure(state, qubit_a, qubit_b, rng) returns the outcome
    searchsorted(cdf, u, side="right") for its one uniform draw u; these
    are the same floats.
    """
    basis = _bell_basis(state, qubit_a, qubit_b)
    return _measurement_cdf(basis, (qubit_a, qubit_b))[3]


def _bell_basis(state: DenseState, qubit_a: int, qubit_b: int) -> DenseState:
    """Rotate the Bell basis of (qubit_a, qubit_b) onto the computational one."""
    if qubit_a == qubit_b:
        raise ValueError("Bell measurement needs two distinct qubits")
    work = dense_apply_gate(state, CNOT, (qubit_b, qubit_a))
    return dense_apply_gate(work, HADAMARD, (qubit_a,))
