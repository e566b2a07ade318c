"""Counter-based uniform streams shared by the Monte Carlo samplers.

Trial ``i`` of a seeded run depends only on ``(seed, i)``: draw ``d`` of
trial ``i`` is word ``d mod 4`` of numpy's Philox4x64-10 block at counter
``(i + 1, d div 4, 0, 0)`` under the key
``SeedSequence(seed).generate_state(2, uint64)``, mapped to [0, 1) exactly
as ``Generator.random`` maps it (top 53 bits times 2**-53).  No generator
is set up per trial, so memory stays flat in the trial count and the
numbers do not depend on how trials are grouped.

numpy's Philox adds one to counter word 0 before it computes each block,
so one call on a generator whose counter starts at ``(i0, j, 0, 0)``
returns block ``j`` of the consecutive trials ``i0, i0 + 1, ...``.  A chunk
of trials is therefore one such column fetch per four draws.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# numpy 2.x loads numpy.random lazily, on first use.  Load it with the
# package instead, so that its ~12 ms is not paid inside the first seeded run.
import numpy.random  # noqa: F401

# Uniforms fetched per chunk (256 kB of doubles): both samplers hold one
# block of four draws per trial, so a chunk is 8,192 trials.  The telegraph
# sampler's per-step arrays cover only its live trials; with its click
# records a chunk peaks near four times its uniforms (0.96 MB at 1.3 clicks
# per trial), so the budget bounds its peak memory near 1 MB.
CHUNK_UNIFORMS = 1 << 15


class TrialStreams:
    """Uniform draws of every trial of one seeded run."""

    def __init__(self, seed: int) -> None:
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self._bits = np.random.Philox(key=key)
        self._random = np.random.Generator(self._bits).random
        # A fresh generator's state (empty output buffer); each fetch
        # restores it with a new counter, which costs about a quarter of
        # building a new Philox.
        self._state = self._bits.state

    def block(self, i0: int, j: int, m: int) -> np.ndarray:
        """Draws ``4j .. 4j+3`` of trials ``i0 .. i0+m-1``, shape ``(m, 4)``."""
        self._state["state"]["counter"][:] = (i0, j, 0, 0)
        self._bits.state = self._state
        return self._random(4 * m).reshape(m, 4)

    def chunks(self, trials: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(i0, block(i0, 0, m))`` for chunks of ``m`` trials covering
        ``0 .. trials-1`` in order, as many (at least one) as fit in
        :data:`CHUNK_UNIFORMS` uniforms; later draws come from :meth:`block`.
        """
        rows = max(1, CHUNK_UNIFORMS // 4)
        for i0 in range(0, trials, rows):
            yield i0, self.block(i0, 0, min(rows, trials - i0))
