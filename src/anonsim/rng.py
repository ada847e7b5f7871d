"""Deterministic, stream-addressed randomness for protocol runs.

Every randomized operation in this package draws from an RngStream.  A
stream is fully determined by the pair (seed, stream_id), so any run can
be replayed bit for bit, and sweep cells get independent streams by
hashing their cell coordinates into a stream id.

`RngStream.draw_blocks` replays many repetitions of a fixed pattern of
uniform()/bit() calls from one read of the raw 64-bit words, so batched
sampled verdicts see exactly the values, and leave the stream in exactly
the state, of the scalar calls.  It draws at most BLOCK_TRIALS
repetitions at a time, so its memory is bounded whatever the count.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Repetitions of a draw pattern replayed per read of the raw generator.
BLOCK_TRIALS = 4096


def derive_stream_id(seed: int, *coords) -> int:
    """Hash (seed, coords) to a 64-bit stream id.

    Stable across platforms and processes (unlike the builtin hash).
    Coordinates may be ints or strings; they are folded in via repr.
    """
    payload = repr((int(seed),) + tuple(coords)).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    Two streams built from the same pair produce the same draw sequence
    on every platform.  Draws mutate internal state; replay a run by
    rebuilding the stream, never by sharing one across runs that need
    independence.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng(
            (self.seed & _MASK64, self.stream_id & _MASK64)
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def bit(self) -> int:
        """One uniform bit."""
        return int(self._gen.integers(0, 2))

    def bits(self, count: int) -> tuple[int, ...]:
        """Tuple of `count` independent uniform bits."""
        if count < 0:
            raise ValueError(f"bit count must be nonnegative, got {count}")
        if count == 0:
            return ()
        return tuple(int(b) for b in self._gen.integers(0, 2, size=count))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._gen.integers(low, high + 1))

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._gen.random())

    def draw_blocks(
        self, pattern: str, trials: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Replay `trials` repetitions of a draw pattern, a block at a time.

        `pattern` has one letter per draw of one repetition: `U` for
        uniform(), `B` for bit().  Yields, for each block of at most
        BLOCK_TRIALS repetitions, a float64 array of the U values and a
        uint8 array of the B values, one row per repetition and one
        column per letter in pattern order.  The values, and the state
        the stream is left in, are those of making the same scalar calls
        in the same order.

        This follows numpy's PCG64 Generator: random() is
        (w >> 11) * 2**-53 of one 64-bit word w, and integers(0, 2) is the
        top bit of one 32-bit half (Lemire's bounded method, which never
        rejects for a range of 2).  Halves come from the generator's
        has_uint32/uinteger buffer when it holds one, else from a fresh
        word, low half first with the high half buffered; random() leaves
        the buffer alone.
        """
        if trials < 0:
            raise ValueError(f"trial count must be nonnegative, got {trials}")
        if set(pattern) - {"U", "B"}:
            raise ValueError(f"draw pattern takes only 'U' and 'B', got {pattern!r}")
        is_u = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8) == ord("U")
        bitgen = self._gen.bit_generator
        for start in range(0, trials, BLOCK_TRIALS):
            count = min(BLOCK_TRIALS, trials - start)
            state = bitgen.state
            buffered = state["has_uint32"]
            flat_u = np.tile(is_u, count)
            b_at = np.flatnonzero(~flat_u)
            # Every U reads a fresh word, and so does every other B past a
            # buffered half: the B that takes a word's low half.
            takes_word = flat_u.copy()
            takes_word[b_at[buffered::2]] = True
            word_of = np.cumsum(takes_word) - 1
            words = bitgen.random_raw(int(takes_word.sum()))
            uniforms = (words[word_of[flat_u]] >> np.uint64(11)) * 2.0**-53
            paired = words[word_of[b_at[buffered::2]]]
            halves = np.empty(buffered + 2 * len(paired), dtype=np.uint64)
            halves[:buffered] = state["uinteger"]
            halves[buffered::2] = paired & np.uint64(0xFFFFFFFF)
            halves[buffered + 1 :: 2] = paired >> np.uint64(32)
            bits = (halves[: len(b_at)] >> np.uint64(31)).astype(np.uint8)
            left = len(halves) - len(b_at)
            state = bitgen.state
            state["has_uint32"] = left
            if left:
                state["uinteger"] = int(halves[-1])
            bitgen.state = state
            yield uniforms.reshape(count, -1), bits.reshape(count, -1)

    def spawn(self, *coords) -> "RngStream":
        """Child stream with an id derived from this stream's address."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, *coords))
