"""Scalar draws against numpy's generator, and their block replay."""

from __future__ import annotations

import re

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


# ---- the scalar draws against numpy's generator ----------------------------

words = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**32),
    st.integers(0, 2**64 - 1),
)
# (1, 6) and (0, 2**31) reject some 32-bit draws, (0, 2**40) draws 64-bit
# words, and (0, 2**32 - 1) and the full int64 range take a raw draw
ranges = st.sampled_from(
    [(0, 1), (1, 6), (-3, 3), (0, 2**31), (0, 2**32 - 2), (0, 2**32 - 1),
     (0, 2**40), (5, 5), (0, 2**63 - 1), (-(2**63), 2**63 - 1)]
)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("bit")),
        st.tuples(st.just("bits"), st.integers(0, 7)),
        st.tuples(st.just("uniform")),
        st.tuples(st.just("integer"), ranges),
    ),
    max_size=30,
)


def _call(stream: RngStream, call):
    if call[0] == "bits":
        return stream.bits(call[1])
    if call[0] == "integer":
        return stream.integer(*call[1])
    return getattr(stream, call[0])()


def _numpy_call(gen: np.random.Generator, call):
    if call[0] == "bit":
        return int(gen.integers(0, 2))
    if call[0] == "bits":
        return tuple(int(b) for b in gen.integers(0, 2, size=call[1]))
    if call[0] == "integer":
        low, high = call[1]
        return int(gen.integers(low, high + 1))
    return float(gen.random())


@settings(max_examples=200, deadline=None)
@given(seed=words, stream_id=words, calls=calls, pattern=patterns,
       trials=st.integers(0, 12))
def test_draws_match_numpy_default_rng(seed, stream_id, calls, pattern, trials):
    stream = RngStream(seed, stream_id)
    gen = np.random.default_rng((seed, stream_id))
    for call in calls:
        assert _call(stream, call) == _numpy_call(gen, call), call
    # the block replay after those draws, against the same calls on numpy
    got_u, got_b = _block_draws(stream, pattern, trials)
    for trial in range(trials):
        want_u, want_b = [], []
        for letter in pattern:
            if letter == "U":
                want_u.append(float(gen.random()))
            else:
                want_b.append(int(gen.integers(0, 2)))
        assert got_u[trial].tolist() == want_u
        assert got_b[trial].tolist() == want_b
    # raw words next: the full int64 range adds 2**63 to one raw word
    raw = gen.bit_generator.random_raw(3).tolist()
    assert [stream.integer(-(2**63), 2**63 - 1) + 2**63 for _ in range(3)] == raw
    # and a buffered half, if any, is the same
    assert stream.bits(3) == _numpy_call(gen, ("bits", 3))


def test_integer_bounds_errors_match_numpy():
    gen = np.random.default_rng(0)
    for low, high in ((0, 2**63), (-(2**63) - 1, 0)):
        with pytest.raises(ValueError) as want:
            gen.integers(low, high + 1)
        with pytest.raises(ValueError) as got:
            RngStream(0).integer(low, high)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="empty range"):
        RngStream(0).integer(3, 2)


@pytest.mark.parametrize(
    "seed, stream_id, named",
    [(2**64, 0, "seed"), (-1, 0, "seed"), (0, 2**64, "stream id"), (5, -1, "stream id")],
)
def test_out_of_range_addresses_are_rejected(seed, stream_id, named):
    value = seed if named == "seed" else stream_id
    with pytest.raises(ValueError, match=re.escape(f"{named} must be in [0, 2**64), got {value}")):
        RngStream(seed, stream_id)


def test_edge_addresses_are_accepted():
    top = 2**64 - 1
    assert RngStream(top, top).bits(4) == tuple(
        int(b) for b in np.random.default_rng((top, top)).integers(0, 2, size=4)
    )
