"""Adaptive local measurement of n identical qubit copies.

The strategy measures one copy at a time with the angles of
:func:`qsdr.statemath.angle_schedule`, flipping the angle whenever the
provisional decision flips, and its final provisional bit matches the
collective (entangled) optimum: the n-copy Helstrom bound.  The strategy's
truth table, the detector angle of each copy after each provisional bit,
is one ``(n, 2)`` array, and every route below reads it; the exact
evaluation and the simulation both read one ``(n, 4)`` table of outcome
probabilities formed from it.  This module provides

* exact evaluation of the strategy's success probability by a two-state
  recursion over the provisional bit (the independent check against the
  closed form),
* a seeded Monte Carlo simulation of the same strategy,
* the explicit product measurement vectors, the rows of one ``(2**n, 2**n)``
  array whose Gram matrix is the identity on the n-qubit space,
* the one-step posterior recursion that links copy k to copy k+1.
"""

from __future__ import annotations

import math

import numpy as np

from ._streams import McEstimate, binomial, thresholds, trial_chunks
from .statemath import Priors, angle_schedule, helstrom_bound

__all__ = [
    "MAX_VECTOR_COPIES",
    "exact_adaptive_pc",
    "simulate_adaptive",
    "measurement_vectors",
    "posterior_update",
]

# measurement_vectors holds all 2**n vectors of 2**n components; this cap
# keeps the array (4**n doubles) at desk scale.
MAX_VECTOR_COPIES = 10


def _effective_angles(priors: Priors, theta: float, n: int) -> np.ndarray:
    """The strategy's truth table of detector angles, ``phi[k - 1, z]``.

    Copy k's detector sits at ``phi_k`` of :func:`qsdr.statemath.angle_schedule`
    while the provisional bit z is 0 and at ``pi/2 - phi_k`` while it is 1;
    before copy 1 the provisional bit is ``Priors.start_bit``.
    """
    phis = angle_schedule(priors, theta, n)
    return np.stack((phis, math.pi / 2 - phis), axis=1)


def _outcome0_table(priors: Priors, theta: float, n: int) -> np.ndarray:
    # table[k - 1, 2*a + z] = P[outcome 0 at copy k | symbol a, previous bit z].  The
    # states cos(theta)|x> +- sin(theta)|y> meet the detector basis
    # {(cos phi, sin phi), (sin phi, -cos phi)} at angle theta -+ phi.  Formed in
    # one array: the angle table and the result are all that is held.
    phi = _effective_angles(priors, theta, n)
    table = np.empty((n, 4))
    np.subtract(theta, phi, out=table[:, :2])
    np.add(theta, phi, out=table[:, 2:])
    np.cos(table, out=table)
    return np.square(table, out=table)


def exact_adaptive_pc(priors: Priors, theta: float, n: int) -> float:
    """Exact success probability of the adaptive strategy.

    Each copy only updates the two-valued provisional bit, so the
    probability of every (bit, symbol) pair after copy k follows from the
    pair after copy k-1 through the local outcome probabilities at the
    detector angle that bit selects; the final bit is credited when it
    equals the true hypothesis.  Cost is O(n).  This deliberately retraces
    the strategy itself rather than the closed form, so agreement with
    :func:`qsdr.statemath.multicopy_bound` is a genuine two-route check.
    """
    table = _outcome0_table(priors, theta, n)
    total = 0.0
    for a, qa in ((0, priors.q0), (1, priors.q1)):
        # w[z]: probability that the provisional bit is z, given symbol a.
        w = [0.0, 0.0]
        w[priors.start_bit] = 1.0
        # A slice of floats at a time: lists of the whole table take several times its memory.
        for k in range(0, n, 4096):
            for p0 in table[k:k + 4096, 2 * a:2 * a + 2].tolist():
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

    The trials and their draws are those of :func:`qsdr._streams.trial_chunks`:
    draw k is the outcome of copy k, one array step per copy for a chunk's
    trials, so memory does not grow with ``trials``.  Each step compares the
    draws' 53-bit words with the uint64 thresholds of the outcome table (see
    :func:`qsdr._streams.thresholds`), which gives exactly the outcomes of
    comparing the uniforms with the probabilities.  Memory grows with ``n``
    by the table and its thresholds, 64 bytes per copy while they are formed.
    """
    table = thresholds(_outcome0_table(priors, theta, n))
    hits = 0
    for _, a, draws in trial_chunks(seed, trials, priors.q0):
        a2 = 2 * a
        z = priors.start_bit  # then each copy's outcome, a boolean column
        for row in table:
            z = next(draws) >= row.take(a2 + z)
        hits += int(np.count_nonzero(z == a))
    return binomial(hits, trials)


def measurement_vectors(priors: Priors, theta: float, n: int) -> np.ndarray:
    """The 2**n product vectors realized by the adaptive strategy, as rows.

    The strategy, unrolled over every possible outcome sequence, is a
    single product measurement on the n copies; each sequence contributes
    one vector.  Row ``j``'s outcome bits are the binary digits of ``j``,
    the first copy's most significant, so its decision is ``j & 1``.  Copy
    k's factor is ``(cos a, sin a)`` for outcome 0 and ``(sin a, -cos a)``
    for outcome 1, at the angle ``a`` the previous bit selects.  The rows
    are orthonormal: at the first copy where two sequences part ways they
    share the detector angle and pick orthogonal basis vectors.
    """
    if not 1 <= n <= MAX_VECTOR_COPIES:
        raise ValueError(f"copy count must lie in 1..{MAX_VECTOR_COPIES}, got {n}")
    phi = _effective_angles(priors, theta, n)
    c, s = np.cos(phi), np.sin(phi)
    # factors[k - 1, z, b]: copy k's basis vector for outcome b after bit z.
    factors = np.stack((np.stack((c, s), axis=-1), np.stack((s, -c), axis=-1)), axis=2)
    vectors = np.ones((1, 1))
    prev = [priors.start_bit]
    for f in factors:
        vectors = np.einsum("rd,rbe->rbde", vectors, f[prev]).reshape(2 * len(vectors), -1)
        prev = np.arange(len(vectors)) & 1
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
