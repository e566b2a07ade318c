"""Counter-based random streams: the one place a seed becomes draws.

Trial ``i`` of a seeded run depends only on ``(seed, i)``: draw ``d`` of
trial ``i`` is word ``d mod 4`` of numpy's Philox4x64-10 block at counter
``(i + 1, d div 4, 0, 0)`` under the key
``SeedSequence(seed).generate_state(2, uint64)``, handed out as its top 53
bits, the integer word ``k = raw >> 11``.  The uniform ``k * 2**-53`` is
exactly the double ``Generator.random`` makes of it, so a test ``u >= p`` is
the integer compare ``k >= ceil(p * 2**53)`` (see :func:`thresholds`), and a
sampler forms ``u`` only where it needs its value.  Draw 0 picks the trial's
symbol; a sampler reads draws 1, 2, ... in order.  No generator is set up
per trial, so memory stays flat in the trial count and the numbers do not
depend on how trials are grouped.

numpy's Philox adds one to counter word 0 before it computes each block,
so one call on a generator whose counter starts at ``(i0, j, 0, 0)``
returns block ``j`` of the consecutive trials ``i0, i0 + 1, ...``.
"""

from __future__ import annotations

import math
from itertools import count
from typing import NamedTuple

import numpy as np

# numpy 2.x loads numpy.random lazily, on first use.  Load it with the
# package instead, so that its ~12 ms is not paid inside the first seeded run.
import numpy.random  # noqa: F401

# Draws fetched per chunk (256 kB of uint64 words): both samplers hold one block of four
# draws per trial, so a chunk is 8,192 trials.  With its per-step arrays and click records
# the telegraph sampler peaks near four times that (0.96 MB at 1.3 clicks per trial).
CHUNK_UNIFORMS = 1 << 15

# A draw's word k is the uniform k * UNIT.
UNIT = 2.0**-53


def seed_words(seed: int, n: int) -> np.ndarray:
    """The first ``n`` uint64 words of ``SeedSequence(seed)``'s state: two key
    the run's Philox, and a sweep's rows take one each as their own seeds."""
    return np.random.SeedSequence(seed).generate_state(n, np.uint64)


class McEstimate(NamedTuple):
    """The answer of a seeded run: a frequency and its binomial standard error."""

    estimate: float
    stderr: float


def binomial(hits: int, trials: int) -> McEstimate:
    """The frequency of ``hits`` in ``trials`` and its binomial standard error."""
    p = hits / trials
    return McEstimate(p, math.sqrt(p * (1.0 - p) / trials))


def null_z(estimate: float, p: float, trials: int) -> float:
    """The distance of ``estimate`` from ``p`` in binomial standard errors at ``p``:
    the z of the hypothesis that ``p`` is the success probability, not the sample's
    own stderr.  A ``p`` rounded just past 0 or 1 counts as that end, where an equal
    estimate gives 0 and any other inf."""
    diff = abs(estimate - p)
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return diff / se if se > 0.0 else (math.inf if diff else 0.0)


def thresholds(p: np.ndarray) -> np.ndarray:
    """The uint64 words ``ceil(p * 2**53)`` at which draws reach the probabilities
    ``p`` in [0, 1]: ``k * 2**-53 >= p`` exactly when ``k >= ceil(p * 2**53)``,
    since ``p * 2**53`` is exact; ``p = 1`` gives ``2**53``, which no word reaches.
    Scales and rounds the float64 array ``p`` in place."""
    p *= 2.0**53
    return np.ceil(p, out=p).astype(np.uint64)


class TrialStreams:
    """The 53-bit draws of every trial of one seeded run."""

    def __init__(self, seed: int) -> None:
        self._bits = np.random.Philox(key=seed_words(seed, 2))
        # A fresh generator's state (empty output buffer); each fetch restores it with
        # a new counter, which costs about a quarter of building a new Philox.
        self._state = self._bits.state

    def block(self, i0: int, j: int, m: int) -> np.ndarray:
        """Draws ``4j .. 4j+3`` of trials ``i0 .. i0+m-1`` as uint64 words below
        ``2**53``, shape ``(m, 4)``."""
        self._state["state"]["counter"][:] = (i0, j, 0, 0)
        self._bits.state = self._state
        k = self._bits.random_raw(4 * m)
        k >>= 11  # in place: a shifted copy would double the block
        return k.reshape(m, 4)

    def _chunks(self, trials: int, q0: float):
        rows, draws = max(1, CHUNK_UNIFORMS // 4), None
        for i0 in range(0, trials, rows):
            if draws is not None:  # the last chunk's block goes before this one's comes
                draws.close()
            draws = self._draws(i0, min(rows, trials - i0), q0)
            yield i0, next(draws), draws

    def _draws(self, i0: int, m: int, q0: float):
        # The symbols of trials i0 .. i0+m-1, then their draw columns 1, 2, ...;
        # block j replaces block j - 1 when draw 4j is first read.
        k = self.block(i0, 0, m)
        yield (k[:, 0] >= thresholds(np.array(q0, float))).astype(np.intp)
        yield from k.T[1:]
        for j in count(1):
            k = self.block(i0, j, m)
            yield from k.T


def trial_chunks(seed: int, trials: int, q0: float):
    """Trials ``0 .. trials-1`` of a seeded run, in order, in chunks of as many
    trials (at least one) as fit in :data:`CHUNK_UNIFORMS` draws: ``(i0, a,
    draws)`` per chunk of trials ``i0, i0 + 1, ...``.  ``a`` is each trial's
    symbol, 1 where its draw 0 reaches ``q0``; ``next(draws)`` is the column of
    its next draw 1, 2, ... as 53-bit words, and only the current block of four
    draws per trial is held.  ``trials`` and ``seed`` are checked at the call."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return TrialStreams(seed)._chunks(trials, q0)
