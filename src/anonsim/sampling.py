"""Batched samplers for sampled anonymity verdicts.

A sampler draws all of one candidate's trials at once: every draw a
protocol makes is a bit, so `RngStream.bit_rows` replays one run's
bits per row, trial after trial, and the sampler lays each row out as
the trial's view.  A GHZ view is the run's broadcast bits, since each
draw a GHZ protocol records is a bit it broadcasts; an XOR-network view
adds the watched players' keys.  `view_counts` turns the rows of all candidates into
one candidates x views count matrix; apart from the blocks of draws,
memory is one byte per view bit per trial, plus one 8-byte code per
trial.  This module and `RngStream.bit_rows` are the package's
only numpy code; no run command and no exact verdict imports them.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .anonymity import Roles
from .protocols import xor_pass
from .rng import RngStream

# The samplers below turn blocks of bits from RngStream.bit_rows into
# view rows.  Each width is the number of bits one run draws, in the
# order the run function draws them.


def _sample_rows(
    rng: RngStream,
    width: int,
    trials: int,
    rows: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """`rows(bits)` of every block of `trials` runs, stacked."""
    return np.concatenate([rows(b) for b in rng.bit_rows(width, trials)])


def _parity_round(lead: np.ndarray, parity) -> np.ndarray:
    """hadamard_measure_all's outcomes: the lead bits, then the last bit
    that gives the round its parity."""
    last = np.bitwise_xor.reduce(lead, axis=1) ^ parity
    return np.column_stack([lead, last])


def _ae_columns(r: Roles) -> np.ndarray:
    """Player order of ae_establish's draws: the measured players' bits,
    then the sender's coin, then the receiver's decoy."""
    measured = [p for p in range(r.n) if p not in (r.sender, r.receiver)]
    return np.argsort(measured + [r.sender, r.receiver])


def _anon_sample(
    r: Roles, watchers: Sequence[int], trials: int, rng: RngStream
) -> np.ndarray:
    return _sample_rows(rng, r.n - 1, trials, lambda b: _parity_round(b, r.d))


def _ae_sample(
    r: Roles, watchers: Sequence[int], trials: int, rng: RngStream
) -> np.ndarray:
    columns = _ae_columns(r)
    return _sample_rows(rng, r.n, trials, lambda b: b[:, columns])


def _anonq_sample(
    r: Roles, watchers: Sequence[int], trials: int, rng: RngStream
) -> np.ndarray:
    n = r.n
    columns = _ae_columns(r)

    def rows(b: np.ndarray) -> np.ndarray:
        # ae_establish's n bits, anonq_send's Bell outcome m0, m1, then
        # the n - 1 free bits of each of their two broadcasts
        m0 = _parity_round(b[:, n + 2 : 2 * n + 1], b[:, n])
        m1 = _parity_round(b[:, 2 * n + 1 :], b[:, n + 1])
        return np.column_stack([b[:, columns], m0, m1])

    return _sample_rows(rng, 3 * n, trials, rows)


def _dcnet_sample(
    r: Roles, watchers: Sequence[int], trials: int, rng: RngStream
) -> np.ndarray:
    edges = sorted(r.graph.edges)

    def rows(b: np.ndarray) -> np.ndarray:
        announced, incident = xor_pass(r.n, edges, b.T)
        announced[r.sender] = announced[r.sender] ^ r.d
        return np.column_stack(announced + [k for p in watchers for k in incident[p]])

    return _sample_rows(rng, len(edges), trials, rows)


# One sampler per protocol of anonymity.PROTOCOLS.  `SAMPLERS[protocol](roles,
# watchers, trials, rng)` draws from `rng` exactly what `trials` calls of
# the protocol's run would and returns a trials x width uint8 matrix: row
# i is run i's view, that is every broadcast bit round by round, then,
# for the XOR network, each watcher's keys.  The GHZ samplers ignore
# `watchers`: a watcher's draws are their column of the rounds.  The roles
# are checked once, by `anonymity.anonymity_verdict`, before any sampler runs.
SAMPLERS: dict[str, Callable[[Roles, Sequence[int], int, RngStream], np.ndarray]] = {
    "anon": _anon_sample,
    "ae": _ae_sample,
    "anonq": _anonq_sample,
    "dcnet": _dcnet_sample,
}


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of bits, in the rows' lexicographic order: the
    row read as a binary number, one column at a time.  Before a bit
    that could overflow, the codes so far are replaced by their ranks
    among the distinct ones, which keeps their order."""
    codes = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code is below it
    for column in rows.T:
        if bound > 2**62:
            ranks, codes = np.unique(codes, return_inverse=True)
            bound = len(ranks)
        codes <<= 1
        codes |= column
        bound <<= 1
    return codes


def view_counts(
    protocol: str,
    cast: Mapping[int, Roles],
    watchers: Sequence[int],
    trials: int,
    rng: RngStream,
) -> np.ndarray:
    """Candidates x views matrix: how often each candidate's `trials` runs
    showed each view.  Candidates are sampled in turn from `rng`; the
    columns are the distinct view rows in lexicographic order."""
    sample = SAMPLERS[protocol]
    rows = np.concatenate([sample(roles, watchers, trials, rng) for roles in cast.values()])
    views, inverse = np.unique(_row_codes(rows), return_inverse=True)
    cells = len(cast) * len(views)
    cell = np.repeat(np.arange(0, cells, len(views)), trials) + inverse.reshape(-1)
    return np.bincount(cell, minlength=cells).reshape(len(cast), len(views))
