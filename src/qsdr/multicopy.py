"""Adaptive local measurement of n identical qubit copies.

The strategy measures one copy at a time with the angles of
:func:`qsdr.statemath.angle_schedule`, flipping the angle whenever the
provisional decision flips, and its final provisional bit matches the
collective (entangled) optimum: the n-copy Helstrom bound.  This module
provides

* exact evaluation of the strategy's success probability by a two-state
  recursion over the provisional bit (the independent check against the
  closed form),
* a seeded Monte Carlo simulation of the same strategy,
* the explicit product measurement vectors, whose Gram matrix is the
  identity on the n-qubit space,
* the one-step posterior recursion that links copy k to copy k+1.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from ._record import Record
from ._streams import TrialStreams
from .statemath import AngleSchedule, Priors, angle_schedule, helstrom_bound

__all__ = [
    "MAX_VECTOR_COPIES",
    "OutcomeSequence",
    "ProductVector",
    "McEstimate",
    "local_outcome_probs",
    "exact_adaptive_pc",
    "simulate_adaptive",
    "measurement_vectors",
    "posterior_update",
]

# measurement_vectors lists all 2**n sequences; this cap keeps the list (and
# the kron products) at desk scale.
MAX_VECTOR_COPIES = 10


class OutcomeSequence(Record):
    """Ordered provisional decisions z_1 .. z_n of one adaptive run, ``bits``."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        if len(bits) == 0:
            raise ValueError("outcome sequence must contain at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"outcome bits must be 0 or 1, got {bits}")
        self._set(bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def final(self) -> int:
        """The decision the receiver reports: the last provisional bit."""
        return self.bits[-1]


class ProductVector(Record):
    """One product measurement vector of the adaptive strategy.

    ``angles[k]`` is the effective detector angle used at copy k+1 along
    this branch of the outcome tree: ``phi_k`` after a previous outcome 0,
    ``pi/2 - phi_k`` after a 1 (the previous outcome for the first copy is
    the start bit).  The copy-k factor is the basis vector the outcome
    ``bits[k]`` projects onto:

        outcome 0 -> (cos a, sin a)
        outcome 1 -> (sin a, -cos a)
    """

    __slots__ = ("outcome", "angles")

    def __init__(self, outcome: OutcomeSequence, angles: tuple[float, ...]) -> None:
        if len(angles) != len(outcome):
            raise ValueError("one angle per measured copy required")
        self._set(outcome, angles)

    @property
    def factors(self) -> np.ndarray:
        """(n, 2) array of unit factor vectors."""
        out = np.empty((len(self.angles), 2))
        for k, (a, z) in enumerate(zip(self.angles, self.outcome.bits)):
            c, s = math.cos(a), math.sin(a)
            out[k] = (c, s) if z == 0 else (s, -c)
        return out

    def assemble(self) -> np.ndarray:
        """Full 2**n component vector (kron product of the factors)."""
        return reduce(np.kron, self.factors)


class McEstimate(NamedTuple):
    estimate: float
    stderr: float


def local_outcome_probs(a: int, theta: float, phi: float) -> tuple[float, float]:
    """Outcome distribution of one rotated two-outcome measurement.

    For the qubit pair ``cos(theta)|x> +- sin(theta)|y>`` measured in the
    basis ``{(cos phi, sin phi), (sin phi, -cos phi)}``:

        a = 0:  (cos^2(theta - phi), sin^2(theta - phi))
        a = 1:  (cos^2(theta + phi), sin^2(theta + phi))

    Returns ``(P[z=0], P[z=1])`` given the true state ``a``.
    """
    if a not in (0, 1):
        raise ValueError(f"hypothesis label must be 0 or 1, got {a}")
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
    if not 0.0 <= phi <= math.pi / 2 + 1e-12:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    delta = theta - phi if a == 0 else theta + phi
    p0 = math.cos(delta) ** 2
    return (p0, 1.0 - p0)


def _outcome0_table(priors: Priors, theta: float, n: int) -> list[list[tuple[float, ...]]]:
    # table[a][k - 1][z] = P[outcome 0 at copy k | symbol a, previous bit z].
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    schedule = angle_schedule(priors, theta, n)
    return [
        [
            tuple(
                local_outcome_probs(a, theta, schedule.effective_angle(k, z))[0]
                for z in (0, 1)
            )
            for k in range(1, n + 1)
        ]
        for a in (0, 1)
    ]


def exact_adaptive_pc(priors: Priors, theta: float, n: int) -> float:
    """Exact success probability of the adaptive strategy.

    Each copy only updates the two-valued provisional bit, so the
    probability of every (bit, symbol) pair after copy k follows from the
    pair after copy k-1 through the local outcome probabilities and the
    angle flip rule of :class:`qsdr.statemath.AngleSchedule`; the final
    bit is credited when it equals the true hypothesis.  Cost is O(n).
    This deliberately retraces the strategy itself rather than the closed
    form, so agreement with :func:`qsdr.statemath.multicopy_bound` is a
    genuine two-route check.
    """
    table = _outcome0_table(priors, theta, n)
    total = 0.0
    for a, qa in ((0, priors.q0), (1, priors.q1)):
        # w[z]: probability that the provisional bit is z, given symbol a.
        w = [0.0, 0.0]
        w[priors.start_bit] = 1.0
        for p0 in table[a]:
            zero = w[0] * p0[0] + w[1] * p0[1]
            w = [zero, w[0] + w[1] - zero]
        total += qa * w[a]
    return float(total)


def simulate_adaptive(
    priors: Priors, theta: float, n: int, trials: int, seed: int
) -> McEstimate:
    """Monte Carlo run of the adaptive strategy.

    Each trial draws the true hypothesis from the priors, then measures the
    n copies in sequence, updating the provisional bit after each outcome.
    Returns the frequency of correct final decisions and its binomial
    standard error.

    Trial i reads the counter-based uniforms of ``(seed, i)`` (see
    :mod:`qsdr._streams`): draw 0 picks the symbol, draw k the outcome of
    copy k.  All trials of a chunk advance together, one array step per
    copy, so the estimate is reproducible bit for bit however the trials
    are chunked, and memory does not grow with ``trials``.
    """
    # p0[k, 2*a + z] = P[outcome 0 at copy k+1 | symbol a, previous bit z].
    p0 = np.array(_outcome0_table(priors, theta, n)).transpose(1, 0, 2).reshape(n, 4)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    hits = 0
    streams = TrialStreams(seed)
    # Only the current Philox block of each trial is held, so a chunk's
    # memory does not grow with n either.
    for i0, u in streams.chunks(trials):
        a = (u[:, 0] >= priors.q0).astype(np.intp)
        z = priors.start_bit  # then each copy's outcome, a boolean column
        for d in range(1, n + 1):
            j, w = divmod(d, 4)
            if w == 0:
                u = streams.block(i0, j, len(a))
            z = u[:, w] >= p0[d - 1, 2 * a + z]
        hits += int(np.count_nonzero(z == a))
    p = hits / trials
    return McEstimate(p, math.sqrt(p * (1.0 - p) / trials))


def measurement_vectors(priors: Priors, theta: float, n: int) -> list[ProductVector]:
    """All 2**n product vectors realized by the adaptive strategy.

    The strategy, unrolled over every possible outcome sequence, is a
    single product measurement on the n copies; each sequence contributes
    one vector.  Their Gram matrix is the identity: at the first copy where
    two sequences part ways they share the detector angle and pick
    orthogonal basis vectors.
    """
    if not 1 <= n <= MAX_VECTOR_COPIES:
        raise ValueError(f"copy count must lie in 1..{MAX_VECTOR_COPIES}, got {n}")
    schedule = angle_schedule(priors, theta, n)
    vectors = []
    for bits in itertools.product((0, 1), repeat=n):
        prev = priors.start_bit
        angles = []
        for k, z in enumerate(bits, start=1):
            angles.append(schedule.effective_angle(k, prev))
            prev = z
        vectors.append(ProductVector(OutcomeSequence(bits), tuple(angles)))
    return vectors


def posterior_update(pc_prev: float, chi: float) -> float:
    """Success probability after measuring one more copy.

    If the strategy is correct with probability ``pc_prev`` after some
    copies, one further optimally measured copy of overlap ``chi`` lifts it
    to::

        (1 + sqrt(1 - 4*pc_prev*(1 - pc_prev)*chi**2)) / 2

    Iterating from ``max(q0, q1)`` reproduces
    :func:`qsdr.statemath.multicopy_bound` copy by copy.  The fixed point
    at ``pc_prev = 1`` is absorbing.  Requires ``pc_prev >= 1/2``: the
    recursion treats the running decision as the likelier one.
    """
    if not 0.5 <= pc_prev <= 1.0:
        raise ValueError(f"pc_prev must lie in [1/2, 1], got {pc_prev}")
    # One-step Helstrom bound with effective priors (pc_prev, 1 - pc_prev).
    return helstrom_bound(Priors(pc_prev), chi)
