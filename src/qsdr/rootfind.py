"""Bracketed root finding and the optimal receiver displacements.

Generic utilities (Brent's root finder, in plain Python so that no scipy
is imported, and a golden-section maximizer) plus the two displacement
optimizations, each a single bracketed solve of its stationarity equation:

* ``optimal_beta_ik``: displacement of the optimized Kennedy receiver,
  stationary point of :func:`qsdr.statemath.improved_kennedy_pc`.  Its
  residual is strictly monotone and has an analytic bracket, so the root is
  the global maximum for every ``gamma > 0``.
* ``optimal_beta_sd``: envelope magnitude of the simplified Dolinar
  receiver, stationary point of :func:`qsdr.statemath.simplified_dolinar_pc`.
  A stationarity equation alone cannot tell the global maximum from any
  other critical point, so the bracket is taken around the maximum of a
  coarse grid; global optimality is certified against that finite grid,
  not proved.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .statemath import Priors, improved_kennedy_pc
from .statemath import simplified_dolinar_pc  # not called here; perfbench/spans.py counts it

__all__ = [
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "golden_max",
    "optimal_beta_ik",
    "ik_displacement_residual",
    "optimal_beta_sd",
    "sd_displacement_residual",
]


# Brent stops at x within (_TOL_FLOOR + _RTOL*|x|)/2.  The absolute floor is
# below the float spacing of any nonzero root the optimizers solve for, so
# four machine epsilons decide; it only keeps the tolerance positive at 0.
_TOL_FLOOR = 1e-300
_RTOL = 4.0 * math.ulp(1.0)
# Iterations before giving up; both optimizers need fewer than 100.
_MAX_ITER = 200


class BracketError(ValueError):
    """No sign change over the searched interval."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi] by Brent's method.

    Each step is an inverse quadratic or secant step when that lands well
    inside the bracket and a bisection otherwise (Brent 1973, ch. 4, with
    the step rule and tolerances of ``scipy.optimize``'s Brent solver at
    ``xtol=1e-300``), so the result lies within ``4*eps*|root|`` of a sign
    change of ``f`` and never leaves [lo, hi].  An end where ``f`` is
    exactly zero is returned as it is.  ``f`` must be finite on [lo, hi].

    Raises :class:`BracketError` when ``f`` has the same sign at both ends
    and :class:`ConvergenceError` after :data:`_MAX_ITER` steps.
    """
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    # cur: best iterate; blk: the other end of the bracket; pre: last iterate.
    x_pre, x_cur = lo, hi
    f_pre, f_cur = f(lo), f(hi)
    if f_pre == 0.0:
        return lo
    if f_cur == 0.0:
        return hi
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise BracketError(
            f"f has no sign change on [{lo}, {hi}]: f(lo)={f_pre!r}, f(hi)={f_cur!r}"
        )
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ITER):
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_TOL_FLOOR + _RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = math.inf  # fails the step test below: bisect
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                num, den = -f_cur * (x_cur - x_pre), f_cur - f_pre
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                num = -f_cur * (f_blk * d_blk - f_pre * d_pre)
                den = d_blk * d_pre * (f_blk - f_pre)
            # C divides an underflowed 0 into inf or nan, which the step test
            # rejects; Python would raise instead.
            if den != 0.0:
                s_try = num / den
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ConvergenceError(
        f"no convergence within {_MAX_ITER} iterations on [{lo}, {hi}]; "
        f"last iterate {x_cur!r}"
    )


def golden_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Abscissa of a maximum of ``f`` on [lo, hi] by golden-section search,
    to within 1e-10.

    Assumes ``f`` is unimodal on the interval; on a multimodal stretch the
    result is only guaranteed to be a local maximum.
    """
    if not lo < hi:
        raise ValueError(f"golden_max requires lo < hi, got [{lo}, {hi}]")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= 1e-10:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _log_odds(priors: Priors) -> float:
    # ln(q0/q1); the ratio overflows when q1 is subnormal, the difference does not.
    ratio = priors.q0 / priors.q1
    return math.log(ratio) if math.isfinite(ratio) else math.log(priors.q0) - math.log(priors.q1)


def _ik_log_residual(log_odds: float, gamma: float, u: float) -> float:
    # ln(q0/q1) - ln((beta+gamma)/(beta-gamma)) + 4*beta*gamma at beta - gamma = e**u.
    e = math.exp(u)
    return log_odds + u - math.log(2.0 * gamma + e) + 4.0 * gamma * (gamma + e)


def ik_displacement_residual(priors: Priors, gamma: float, beta: float) -> float:
    """Stationarity residual of the optimized Kennedy displacement.

    ``ln(q0/q1) - ln((beta + gamma)/(beta - gamma)) + 4*beta*gamma``: zero
    exactly at the first-order condition of
    :func:`qsdr.statemath.improved_kennedy_pc` on ``beta > gamma``, negative
    below its root and positive above it.  Requires ``q1 > 0``.
    """
    if beta <= gamma:
        raise ValueError(f"residual defined for beta > gamma, got beta={beta}")
    return _ik_log_residual(_log_odds(priors), gamma, math.log(beta - gamma))


def optimal_beta_ik(priors: Priors, gamma: float) -> float:
    """Displacement maximizing the optimized Kennedy receiver.

    The success probability is strictly increasing up to ``gamma``, and on
    ``beta > gamma`` the stationarity residual, written in ``u = ln(beta -
    gamma)``, is strictly increasing (its derivative is ``2*gamma/(2*gamma +
    e**u) + 4*gamma*e**u > 0``), so its unique root is the global maximum.
    The residual is negative at ``u = ln(2*gamma) - ln(q0/q1) - 4*gamma**2 -
    1`` and positive at ``u = -ln(gamma)``, which brackets the root for every
    ``gamma > 0``; solving in ``u`` keeps the excess ``beta - gamma`` exact
    when it falls below the spacing of floats near ``gamma``.  With ``q1 =
    0`` the success probability is ``exp(-(beta - gamma)**2)`` and the
    optimum is ``gamma`` itself.  Requires ``q0 >= q1``; for the opposite
    ordering swap the hypothesis labels (``priors.swapped()``) and negate
    the displacement.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_ik requires q0 >= q1; swap the labels first")
    if priors.q1 == 0.0:
        return gamma
    log_odds = _log_odds(priors)

    def resid(u: float) -> float:
        return _ik_log_residual(log_odds, gamma, u)

    lo = math.log(2.0 * gamma) - log_odds - 4.0 * gamma * gamma - 1.0
    u = solve_bracketed(resid, lo, -math.log(gamma))
    beta = gamma + math.exp(u)
    # The displaced receiver must beat plain nulling, else the solve went wrong.
    if improved_kennedy_pc(priors, gamma, beta) < improved_kennedy_pc(
        priors, gamma, gamma
    ) - 1e-12:
        raise ConvergenceError(
            f"stationary point {beta} does not improve on the Kennedy point {gamma}"
        )
    return beta


def sd_displacement_residual(priors: Priors, psi: float, T: float, beta: float) -> float:
    """Stationarity residual of the simplified Dolinar envelope magnitude.

    With ``s = psi**2 + beta**2``, zero exactly when::

        beta*T*s*((2*q0 - 1)*s - 2*psi*beta) * exp(-s*T)
            = psi*(psi**2 - beta**2) * sinh(s*T)

    the first-order condition of
    :func:`qsdr.statemath.simplified_dolinar_pc` in ``beta``.  Both sides
    are multiplied through by ``exp(-s*T)`` so that large ``beta`` cannot
    overflow ``sinh``; the roots and signs are unchanged.
    """
    s = psi * psi + beta * beta
    st = s * T
    lhs = beta * T * s * ((2.0 * priors.q0 - 1.0) * s - 2.0 * psi * beta) * math.exp(
        -2.0 * st
    )
    rhs = psi * (psi * psi - beta * beta) * 0.5 * -math.expm1(-2.0 * st)
    return lhs - rhs


def optimal_beta_sd(priors: Priors, psi: float, T: float) -> float:
    """Envelope magnitude maximizing the simplified Dolinar receiver.

    ``P_c`` depends only on ``gamma = psi*sqrt(T)`` and ``b = beta*sqrt(T)``,
    so the solve runs in those units and returns ``b/sqrt(T)``.  The gain
    over guessing, ``P_c - q0 = (gamma*b/s - q0 + 1/2) * (1 - exp(-2*s))``
    with ``s = gamma**2 + b**2``, has both factors smaller below the Kennedy
    point ``b = gamma`` than at it.  One array call scans the gain, which
    keeps its digits where ``P_c`` rounds to ``q0``, on a 2001-point log grid
    from ``gamma`` to ``10*gamma + 5``; Brent's method polishes the root of
    the stationarity equation between the neighbours of the grid maximum,
    and the result is checked against that maximum.  Requires ``psi > 0``,
    ``T > 0`` and ``q0 >= q1``.
    """
    if psi <= 0.0:
        raise ValueError(f"psi must be > 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_sd requires q0 >= q1; swap the labels first")
    root_t = math.sqrt(T)
    gamma, c = psi * root_t, priors.q0 - 0.5

    def gain(b):
        s = gamma * gamma + b * b
        return (gamma * b / s - c) * -np.expm1(-2.0 * s)

    grid = gamma * np.exp(np.linspace(0.0, math.log(10.0 + 5.0 / gamma), 2001))
    gains = gain(grid)
    i = min(max(int(np.argmax(gains)), 1), len(grid) - 2)
    # The residual at (gamma/2**k, T = 4**k, b/2**k) is 2**(-3k) times the
    # one at (gamma, 1, b), exactly, so Brent takes the same steps; on weak
    # signals k near log2 of the bracket keeps its products from underflowing.
    k = min(math.frexp(grid[i + 1])[1], 0)
    scaled = (priors, math.ldexp(gamma, -k), math.ldexp(1.0, 2 * k))
    # The residual is negative before a maximum and positive after it.
    lo, hi = math.ldexp(grid[i - 1], -k), math.ldexp(grid[i + 1], -k)
    b = math.ldexp(solve_bracketed(lambda x: sd_displacement_residual(*scaled, x), lo, hi), k)
    # A gain is uncertain by a few eps * (1 - exp(-2*s)); allow 1e4 times that.
    if gain(b) < gains.max() - 1e-12 * -math.expm1(-2.0 * (gamma * gamma + b * b)):
        raise ConvergenceError(f"polished root {b / root_t} lost probability "
                               "against the grid maximum")
    return b / root_t
