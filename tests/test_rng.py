"""Scalar draws against numpy's generator, and their row replay."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsim import rng as rng_module
from anonsim.rng import BLOCK_TRIALS, RngStream

widths = st.integers(0, 9)


def _row_draws(stream: RngStream, width: int, trials: int) -> np.ndarray:
    blocks = list(stream.bit_rows(width, trials))
    if not blocks:
        return np.empty((trials, width), dtype=np.uint8)
    rows = np.concatenate(blocks)
    assert rows.shape == (trials, width) and rows.dtype == np.uint8
    return rows


def _assert_rows_replay_scalar(seed, stream_id, width, trials, lead_bits):
    scalar = RngStream(seed, stream_id)
    rows = RngStream(seed, stream_id)
    # an odd number of bit() calls leaves half a word buffered
    for _ in range(lead_bits):
        assert rows.bit() == scalar.bit()
    want = [scalar.bits(width) for _ in range(trials)]
    assert _row_draws(rows, width, trials).tolist() == [list(bits) for bits in want]
    # the stream is left where the scalar calls leave it
    for _ in range(3):
        assert rows.bit() == scalar.bit()
        assert rows.uniform() == scalar.uniform()
    assert rows.bits(5) == scalar.bits(5)
    assert rows.integer(0, 9) == scalar.integer(0, 9)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    width=widths,
    trials=st.integers(0, 40),
    lead_bits=st.integers(0, 3),
)
def test_block_draws_replay_scalar_calls(seed, stream_id, width, trials, lead_bits):
    _assert_rows_replay_scalar(seed, stream_id, width, trials, lead_bits)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    width=widths,
    trials=st.integers(1, 30),
    block=st.integers(1, 7),
    lead_bits=st.integers(0, 3),
)
def test_partial_last_block_replays_scalar_calls(seed, width, trials, block, lead_bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK_TRIALS", block)
        _assert_rows_replay_scalar(seed, 0, width, trials, lead_bits)


@pytest.mark.parametrize(
    "width",
    [
        pytest.param(3, id="anon4"),
        pytest.param(7, id="anon8"),
        pytest.param(3, id="ae3"),
        pytest.param(6, id="dcnet-complete4"),
        pytest.param(12, id="anonq4"),
    ],
)
@pytest.mark.parametrize(
    "trials", [BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 3]
)
@pytest.mark.parametrize("lead_bits", [0, 1])
def test_blocks_of_the_real_size_replay_scalar_calls(width, trials, lead_bits):
    # the samplers' own widths, next to and across block boundaries
    _assert_rows_replay_scalar(7, 3, width, trials, lead_bits)


def test_blocks_hold_at_most_the_block_constant(monkeypatch):
    monkeypatch.setattr(rng_module, "BLOCK_TRIALS", 4)
    assert [b.shape for b in RngStream(1).bit_rows(3, 10)] == [(4, 3), (4, 3), (2, 3)]


@pytest.mark.parametrize("lead_bits", [0, 1])
def test_rows_of_width_zero_draw_nothing(lead_bits):
    stream, fresh = RngStream(2), RngStream(2)
    for _ in range(lead_bits):
        stream.bit(), fresh.bit()
    assert [b.shape for b in stream.bit_rows(0, BLOCK_TRIALS + 1)] == [(BLOCK_TRIALS, 0), (1, 0)]
    assert stream.bits(9) == fresh.bits(9)


def test_block_draws_reject_bad_arguments():
    stream = RngStream(0)
    with pytest.raises(ValueError, match="nonnegative"):
        list(stream.bit_rows(-1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        list(stream.bit_rows(3, -1))
    # nothing was drawn
    assert stream.bits(4) == RngStream(0).bits(4)


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
@given(seed=words, stream_id=words, calls=calls, width=widths, trials=st.integers(0, 12))
def test_draws_match_numpy_default_rng(seed, stream_id, calls, width, trials):
    stream = RngStream(seed, stream_id)
    gen = np.random.default_rng((seed, stream_id))
    for call in calls:
        assert _call(stream, call) == _numpy_call(gen, call), call
    # the row replay after those draws, against numpy's bounded bits
    want = gen.integers(0, 2, size=(trials, width))
    assert _row_draws(stream, width, trials).tolist() == want.tolist()
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
