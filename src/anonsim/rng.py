"""Deterministic, stream-addressed randomness for protocol runs.

Every randomized operation in this package draws from an RngStream.  A
stream is fully determined by the pair (seed, stream_id), both in
[0, 2**64), so any run can be replayed bit for bit, and sweep cells get
independent streams by hashing their cell coordinates into a stream id.

The generator is numpy's PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905) ported to Python integers, so that the
phase-manifold protocols run without loading numpy.  Every draw is
bit-identical to `numpy.random.default_rng((seed, stream_id))`; the
port mirrors these numpy internals:

* `SeedSequence((seed, stream_id)).generate_state(4, uint64)`: each
  value split into little-endian 32-bit words, the words hashed into a
  pool of four, and the pool hashed out again (`hashmix`, `mix`).
* PCG64's seeding (`pcg_setseq_128_srandom_r`), its 128-bit LCG step
  and its XSL-RR output function (`pcg64_random_r`).
* `next_uint32`: a 64-bit word gives its low half and buffers its high
  half (`has_uint32`, `uinteger`) for the next 32-bit draw.
* `Generator.random()`: (w >> 11) * 2**-53 of one 64-bit word, leaving
  the 32-bit buffer alone.
* `Generator.integers(low, high + 1)`: Lemire's bounded integers on
  32-bit draws for ranges below 2**32 - 1, one raw 32-bit draw for a
  range of exactly 2**32, Lemire on 64-bit words above that; so bit()
  is the top bit of one 32-bit draw.

`RngStream.draw_blocks` replays many repetitions of a fixed pattern of
uniform()/bit() calls from one read of numpy's raw 64-bit words, so
batched sampled verdicts see exactly the values, and leave the stream in
exactly the state, of the scalar calls.  It is the only code here that
loads numpy.  It draws at most BLOCK_TRIALS repetitions at a time, so
its memory is bounded whatever the count.
"""

from __future__ import annotations

from typing import Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# SeedSequence's hash constants and pool size
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# Repetitions of a draw pattern replayed per read of the raw generator.
BLOCK_TRIALS = 4096


def derive_stream_id(seed: int, *coords) -> int:
    """Hash (seed, coords) to a 64-bit stream id.

    Stable across platforms and processes (unlike the builtin hash).
    Coordinates may be ints or strings; they are folded in via repr.
    """
    import hashlib

    payload = repr((int(seed),) + tuple(coords)).encode("ascii")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def check_word(value: int, what: str) -> int:
    """`value` as an int, or ValueError naming it if it is outside [0, 2**64)."""
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{what} must be in [0, 2**64), got {value}")
    return value


def _seed_words(seed: int, stream_id: int) -> list[int]:
    """SeedSequence((seed, stream_id)).generate_state(4, np.uint64)."""
    entropy = []
    for value in (seed, stream_id):
        entropy.append(value & _MASK32)
        if value >> 32:
            entropy.append(value >> 32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    # Two 64-bit values are at most four words, so all of the entropy
    # fits the pool and none is left to mix in afterwards.
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    Two streams built from the same pair produce the same draw sequence
    on every platform.  Draws mutate internal state; replay a run by
    rebuilding the stream, never by sharing one across runs that need
    independence.
    """

    __slots__ = ("seed", "stream_id", "_state", "_inc", "_has_half", "_half", "_bitgen")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = check_word(seed, "seed")
        self.stream_id = check_word(stream_id, "stream id")
        s_high, s_low, i_high, i_low = _seed_words(self.seed, self.stream_id)
        self._inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = (self._inc + (s_high << 64 | s_low)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        self._has_half = False
        self._half = 0
        # draw_blocks' numpy bit generator, made on its first call; it
        # holds no state between reads
        self._bitgen = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def _next64(self) -> int:
        """One 64-bit word: an LCG step, then XSL-RR of the new state."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._next64()
        self._half = word >> 32
        self._has_half = True
        return word & _MASK32

    def bit(self) -> int:
        """One uniform bit."""
        return self._next32() >> 31

    def bits(self, count: int) -> tuple[int, ...]:
        """Tuple of `count` independent uniform bits."""
        if count < 0:
            raise ValueError(f"bit count must be nonnegative, got {count}")
        out = []
        if count and self._has_half:
            self._has_half = False
            out.append(self._half >> 31)
            count -= 1
        # two bits a word, low half first
        for _ in range(count >> 1):
            word = self._next64()
            out.append((word >> 31) & 1)
            out.append(word >> 63)
        if count & 1:
            word = self._next64()
            out.append((word >> 31) & 1)
            self._half = word >> 32
            self._has_half = True
        return tuple(out)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high] of int64."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        span = high - low
        if span == 0:
            return low
        if span == _MASK32:
            return low + self._next32()
        if span == _MASK64:
            return low + self._next64()
        # Lemire: the high part of draw * bound, rejecting the draws whose
        # low part falls below 2**bits mod bound.
        bound = span + 1
        if span < _MASK32:
            draw, bits = self._next32, 32
        else:
            draw, bits = self._next64, 64
        scaled = draw() * bound
        if (scaled & ((1 << bits) - 1)) < bound:
            threshold = (1 << bits) % bound
            while (scaled & ((1 << bits) - 1)) < threshold:
                scaled = draw() * bound
        return low + (scaled >> bits)

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._next64() >> 11) * 2.0**-53

    def draw_blocks(self, pattern: str, trials: int) -> Iterator[tuple]:
        """Replay `trials` repetitions of a draw pattern, a block at a time.

        `pattern` has one letter per draw of one repetition: `U` for
        uniform(), `B` for bit().  Yields, for each block of at most
        BLOCK_TRIALS repetitions, a float64 array of the U values and a
        uint8 array of the B values, one row per repetition and one
        column per letter in pattern order.  The values, and the state
        the stream is left in, are those of making the same scalar calls
        in the same order.

        Each block loads this stream's state into a numpy PCG64 bit
        generator, reads its raw 64-bit words, and writes the state
        back.  Every U takes one word.  B takes the buffered half when
        there is one, else a fresh word's low half, buffering its high
        half; bit() is the top bit of a half.
        """
        import numpy as np

        if trials < 0:
            raise ValueError(f"trial count must be nonnegative, got {trials}")
        if set(pattern) - {"U", "B"}:
            raise ValueError(f"draw pattern takes only 'U' and 'B', got {pattern!r}")
        is_u = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8) == ord("U")
        if self._bitgen is None:
            self._bitgen = np.random.PCG64(0)
        bitgen = self._bitgen
        for start in range(0, trials, BLOCK_TRIALS):
            count = min(BLOCK_TRIALS, trials - start)
            buffered = int(self._has_half)
            flat_u = np.tile(is_u, count)
            b_at = np.flatnonzero(~flat_u)
            # Every U reads a fresh word, and so does every other B past a
            # buffered half: the B that takes a word's low half.
            takes_word = flat_u.copy()
            takes_word[b_at[buffered::2]] = True
            word_of = np.cumsum(takes_word) - 1
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            words = bitgen.random_raw(int(takes_word.sum()))
            self._state = bitgen.state["state"]["state"]
            uniforms = (words[word_of[flat_u]] >> np.uint64(11)) * 2.0**-53
            paired = words[word_of[b_at[buffered::2]]]
            halves = np.empty(buffered + 2 * len(paired), dtype=np.uint64)
            halves[:buffered] = self._half
            halves[buffered::2] = paired & np.uint64(_MASK32)
            halves[buffered + 1 :: 2] = paired >> np.uint64(32)
            bits = (halves[: len(b_at)] >> np.uint64(31)).astype(np.uint8)
            self._has_half = len(halves) > len(b_at)
            if self._has_half:
                self._half = int(halves[-1])
            yield uniforms.reshape(count, -1), bits.reshape(count, -1)

    def spawn(self, *coords) -> "RngStream":
        """Child stream with an id derived from this stream's address."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, *coords))
