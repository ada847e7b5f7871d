"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from anonsim.anonymity import _broadcast_round, traceless_verdict
from anonsim.keygraph import (
    KeySharingGraph,
    is_partitioning_set,
    key_lower_bound,
    min_degree,
    tolerance,
)
from anonsim.protocols import (
    CollisionOutcome,
    ae_establish,
    anon_multiparty_parity,
    anon_send,
    anonq_send,
    collision_detect,
    dcnet_send,
    decompose_k,
    trace_attack,
)
from anonsim.qsim import apply_phase_flip, apply_rz, make_ghz
from anonsim.rng import RngStream, derive_stream_id

from dense_oracle import (
    PAULI_Z,
    apply_hadamard_all,
    dense_apply_gate,
    fidelity,
    ghz_dense,
    outcome_distribution,
    rz_gate,
    to_dense,
)

SEED = 2026


class _KeyBits:
    """Stands in for an RngStream: hands out chosen key bits in turn."""

    def __init__(self, bits):
        self._bits = iter(bits)

    def bit(self) -> int:
        return next(self._bits)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _stream(*coords) -> RngStream:
    return RngStream(SEED, derive_stream_id(SEED, *coords))


def test_01_anon_broadcast_correctness():
    with criterion(1, "anonymous bit broadcast"):
        started = time.perf_counter()
        for n in range(3, 11):
            for sender in range(n):
                for d in (0, 1):
                    rng = _stream("anon", n, sender, d)
                    for _ in range(1000):
                        decoded, transcript, _ = anon_send(n, sender, d, rng)
                        assert not transcript.aborted
                        assert decoded == d
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_parity_semantics():
    with criterion(2, "multiparty parity"):
        n = 5
        for r in range(n + 1):
            for flippers in itertools.combinations(range(n), r):
                rng = _stream("parity", flippers)
                for _ in range(25):
                    parity, _, _ = anon_multiparty_parity(n, flippers, rng)
                    assert parity == r % 2


def test_03_entanglement_protocol_correctness():
    with criterion(3, "anonymous entanglement"):
        epr = ghz_dense(2)
        for n in range(3, 9):
            pairs = list(itertools.permutations(range(n), 2))
            rng = _stream("ae", n)
            runs_per_pair = -(-1000 // len(pairs))  # at least 1000 total
            for sender, receiver in pairs:
                for _ in range(runs_per_pair):
                    pair, transcript, _ = ae_establish(n, sender, receiver, rng)
                    assert not transcript.aborted
                    assert pair.phase_numerator == 0
                    assert fidelity(to_dense(pair), epr) >= 1.0 - 1e-12


def test_04_qubit_transfer_fidelity():
    with criterion(4, "anonymous qubit transfer"):
        gen = np.random.default_rng(SEED)
        for n in (3, 5, 8):
            rng = _stream("anonq", n)
            branches = set()
            for _ in range(100):
                raw = gen.normal(size=2) + 1j * gen.normal(size=2)
                raw /= np.linalg.norm(raw)
                sender = int(gen.integers(0, n))
                receiver = int((sender + 1 + gen.integers(0, n - 1)) % n)
                received, transcript, _ = anonq_send(
                    n, sender, receiver, tuple(raw), rng
                )
                assert received is not None
                assert abs(np.vdot(raw, received)) ** 2 >= 1.0 - 1e-12
                branches.add(
                    (transcript.round_parity(1), transcript.round_parity(2))
                )
            assert branches == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_05_collision_detection_grid():
    with criterion(5, "collision detection"):
        for n in range(2, 17):
            round_limit = (n - 1).bit_length() + 1
            for k in range(n + 1):
                rng = _stream("collision", n, k)
                verdict = collision_detect(n, range(k), rng)
                assert verdict.rounds_used <= round_limit
                assert (verdict.verdict is CollisionOutcome.EXACTLY_ONE) == (
                    k == 1
                )
                if k >= 2:
                    assert verdict.first_odd_round == decompose_k(k)[0]
                elif k == 0:
                    assert verdict.first_odd_round == 0


def test_06_broadcast_is_traceless():
    with criterion(6, "traceless broadcast"):
        for n in range(3, 9):
            for d in (0, 1):
                maps = [_broadcast_round(n, s, d) for s in range(n)]
                assert all(m == maps[0] for m in maps)
        for n in range(3, 9):
            for t in (0, n - 2):
                v = traceless_verdict("anon", n, t=t)
                assert v.verdict
                assert v.posterior_max == Fraction(1, n - t)


def test_07_xor_network_trace_attack():
    with criterion(7, "randomness hijack traces the XOR network"):
        for n in (3, 4, 5):
            graph = KeySharingGraph.complete(n)
            edges = len(graph.edges)
            for mask in range(1 << edges):
                for sender in range(n):
                    for d, traced in ((1, sender), (0, None)):
                        keys = _KeyBits((mask >> i) & 1 for i in range(edges))
                        run = dcnet_send(graph, sender, d, keys)
                        assert trace_attack(run, d) == traced


def test_08_key_graph_bounds():
    with criterion(8, "key-sharing graph analysis"):
        assert is_partitioning_set(KeySharingGraph.star(5), (0,)) is True
        for colluders in itertools.combinations(range(5), 3):
            assert is_partitioning_set(KeySharingGraph.complete(5), colluders) is False
        assert is_partitioning_set(KeySharingGraph.path(3), (1,)) is True

        assert min_degree(KeySharingGraph.cycle(6)) == (2, True)
        assert min_degree(KeySharingGraph.path(4)) == (1, False)
        assert min_degree(KeySharingGraph.complete(4)) == (3, True)

        assert tolerance(KeySharingGraph.cycle(6)) == 1
        assert tolerance(KeySharingGraph.complete(6)) == 4
        assert tolerance(KeySharingGraph.star(5)) == 0
        for n in range(2, 11):
            assert tolerance(KeySharingGraph.complete(n)) == n - 2
        for n in range(3, 11):
            assert key_lower_bound(n, 0) == n
            assert key_lower_bound(n, n - 2) == n * (n - 1) // 2


def test_09_backend_equivalence():
    with criterion(9, "exact phase backend matches dense oracle"):
        gen = np.random.default_rng(SEED)
        for _ in range(1000):
            n = int(gen.integers(2, 11))
            phase = make_ghz(n)
            dense = ghz_dense(n)
            for _ in range(int(gen.integers(0, 9))):
                player = int(gen.integers(0, n))
                if gen.integers(0, 2):
                    phase = apply_phase_flip(phase, player)
                    dense = dense_apply_gate(dense, PAULI_Z, (player,))
                else:
                    numerator = int(gen.integers(-4, 5))
                    denom_exp = int(gen.integers(0, 5))
                    phase = apply_rz(phase, player, numerator, denom_exp)
                    dense = dense_apply_gate(
                        dense, rz_gate(numerator, denom_exp), (player,)
                    )
            predicted = outcome_distribution(phase)
            observed = apply_hadamard_all(dense).probabilities()
            assert float(np.max(np.abs(predicted - observed))) <= 1e-10


def test_10_collusion_leaves_candidates_even():
    with criterion(10, "collusion of n-2 players"):
        for n in (4, 6):
            # the two honest candidates: players 0 and 1 stay honest
            d = 1
            dist_a = _broadcast_round(n, 0, d)
            dist_b = _broadcast_round(n, 1, d)
            views = set(dist_a) | set(dist_b)
            for view in views:
                pa = dist_a.get(view, Fraction(0))
                pb = dist_b.get(view, Fraction(0))
                total = pa + pb
                assert total > 0
                assert pa / total == Fraction(1, 2)
                assert pb / total == Fraction(1, 2)
            v = traceless_verdict("anon", n, t=n - 2)
            assert v.posterior_max == Fraction(1, 2)
            assert v.baseline == Fraction(1, 2)
            assert v.verdict
