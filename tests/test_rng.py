"""The block replay of scalar draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsim import rng as rng_module
from anonsim.rng import RngStream

patterns = st.text(alphabet="UB", max_size=9)


def _scalar_draws(stream: RngStream, pattern: str, trials: int):
    """The reference: one scalar call per letter, trial after trial."""
    uniforms, bits = [], []
    for _ in range(trials):
        uniforms.append([])
        bits.append([])
        for letter in pattern:
            if letter == "U":
                uniforms[-1].append(stream.uniform())
            else:
                bits[-1].append(stream.bit())
    return uniforms, bits


def _block_draws(stream: RngStream, pattern: str, trials: int):
    blocks = list(stream.draw_blocks(pattern, trials))
    shape_u = (trials, pattern.count("U"))
    shape_b = (trials, pattern.count("B"))
    if not blocks:
        return np.empty(shape_u), np.empty(shape_b, dtype=np.uint8)
    uniforms = np.concatenate([u for u, _ in blocks])
    bits = np.concatenate([b for _, b in blocks])
    assert uniforms.shape == shape_u and uniforms.dtype == np.float64
    assert bits.shape == shape_b and bits.dtype == np.uint8
    return uniforms, bits


def _lead_in(stream: RngStream, lead_bits: int, lead_uniform: bool) -> None:
    # an odd number of bit() calls leaves half a word buffered
    for _ in range(lead_bits):
        stream.bit()
    if lead_uniform:
        stream.uniform()


def _assert_block_replays_scalar(seed, stream_id, pattern, trials, lead_bits, lead_uniform):
    scalar = RngStream(seed, stream_id)
    block = RngStream(seed, stream_id)
    _lead_in(scalar, lead_bits, lead_uniform)
    _lead_in(block, lead_bits, lead_uniform)
    want_u, want_b = _scalar_draws(scalar, pattern, trials)
    got_u, got_b = _block_draws(block, pattern, trials)
    assert got_u.tolist() == np.reshape(want_u, got_u.shape).tolist()
    assert got_b.tolist() == np.reshape(want_b, got_b.shape).tolist()
    # the stream is left where the scalar calls leave it
    for _ in range(3):
        assert block.bit() == scalar.bit()
        assert block.uniform() == scalar.uniform()
    assert block.bits(5) == scalar.bits(5)
    assert block.integer(0, 9) == scalar.integer(0, 9)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    pattern=patterns,
    trials=st.integers(0, 40),
    lead_bits=st.integers(0, 3),
    lead_uniform=st.booleans(),
)
def test_block_draws_replay_scalar_calls(
    seed, stream_id, pattern, trials, lead_bits, lead_uniform
):
    _assert_block_replays_scalar(seed, stream_id, pattern, trials, lead_bits, lead_uniform)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    pattern=patterns,
    trials=st.integers(1, 30),
    block=st.integers(1, 7),
    lead_bits=st.integers(0, 3),
)
def test_partial_last_block_replays_scalar_calls(seed, pattern, trials, block, lead_bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK_TRIALS", block)
        _assert_block_replays_scalar(seed, 0, pattern, trials, lead_bits, False)


def test_blocks_hold_at_most_the_block_constant(monkeypatch):
    monkeypatch.setattr(rng_module, "BLOCK_TRIALS", 4)
    sizes = [len(b) for _, b in RngStream(1).draw_blocks("UBB", 10)]
    assert sizes == [4, 4, 2]


def test_block_draws_reject_bad_arguments():
    stream = RngStream(0)
    with pytest.raises(ValueError, match="pattern"):
        list(stream.draw_blocks("UBX", 3))
    with pytest.raises(ValueError, match="nonnegative"):
        list(stream.draw_blocks("U", -1))
