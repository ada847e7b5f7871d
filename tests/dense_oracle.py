"""Dense state-vector backend: the tests' oracle for `anonsim`.

DenseState is a conventional amplitude-vector simulator, used as an
independent check of `qsim` on small systems and of the closed-form
teleportation step of `protocols.anonq_send`, whose circuit (Bell
measurement, then Z^m0 X^m1 on the receiver's half) leaves the GHZ
manifold.  The package itself tracks GHZ-manifold states exactly and
never needs amplitude vectors.

Conventions follow `qsim`: qubit index 0 is the least significant bit of
an amplitude index, and global phase is discarded.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from anonsim.qsim import _SQRT_HALF, GhzPhaseState
from anonsim.rng import RngStream

DENSE_QUBIT_LIMIT = 14

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
        return abs(self.amplitudes) ** 2


def to_dense(state: GhzPhaseState) -> DenseState:
    """Amplitude-vector form of a GHZ-manifold state."""
    amps = np.zeros(1 << state.num_qubits, dtype=complex)
    amps[0] = _SQRT_HALF
    amps[-1] = _SQRT_HALF * cmath.exp(1j * state.phase_radians)
    return DenseState(state.num_qubits, amps)


def from_dense(
    dense: DenseState, phase_denom_exp: int = 0, atol: float = 1e-9
) -> GhzPhaseState:
    """Recover the phase representation from a dense GHZ-manifold state.

    Raises ValueError if the amplitudes do not lie on the manifold
    (within atol) or if the relative phase is not representable with
    the requested denominator exponent.
    """
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
    return GhzPhaseState(dense.num_qubits, k, phase_denom_exp)


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


def _bell_basis(state: DenseState, qubit_a: int, qubit_b: int) -> DenseState:
    """Rotate the Bell basis of (qubit_a, qubit_b) onto the computational one."""
    if qubit_a == qubit_b:
        raise ValueError("Bell measurement needs two distinct qubits")
    work = dense_apply_gate(state, CNOT, (qubit_b, qubit_a))
    return dense_apply_gate(work, HADAMARD, (qubit_a,))
