"""Bracketed root finding and the optimal receiver displacements.

Generic utilities (a safeguarded bracketed solver and a golden-section
maximizer) plus the two displacement optimizations, each a single
bracketed solve of its stationarity equation:

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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .statemath import Priors, improved_kennedy_pc, simplified_dolinar_pc

__all__ = [
    "Bracket",
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "golden_max",
    "optimal_beta_ik",
    "ik_displacement_residual",
    "optimal_beta_sd",
    "sd_displacement_residual",
]


# An absolute root tolerance below the float spacing of any root the
# optimizers solve for, so that Brent's method stops at its relative floor
# of four machine epsilons instead.
_TOL_FLOOR = 1e-300


class BracketError(ValueError):
    """No sign change over the searched interval."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with the function values at its ends."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def has_sign_change(self) -> bool:
        return self.f_lo == 0.0 or self.f_hi == 0.0 or (self.f_lo < 0.0) != (self.f_hi < 0.0)

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, f(lo), f(hi))


def solve_bracketed(
    f: Callable[[float], float],
    bracket: Bracket,
    tol_x: float = 1e-12,
    tol_f: float = 1e-10,
    max_iter: int = 100,
) -> float:
    """Root of ``f`` inside ``bracket`` via Brent's method.

    Convergence is declared when the bracket width shrinks below ``tol_x``
    or ``|f(root)| <= tol_f``; the returned point never leaves the original
    bracket (bisection fallback guarantees progress even when the
    interpolating step misbehaves).

    Raises :class:`BracketError` when the bracket carries no sign change and
    :class:`ConvergenceError` when ``max_iter`` iterations do not suffice.
    """
    if not bracket.has_sign_change:
        raise BracketError(
            f"f has no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f(lo)={bracket.f_lo!r}, f(hi)={bracket.f_hi!r}"
        )
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    try:
        root, info = brentq(
            f,
            bracket.lo,
            bracket.hi,
            xtol=tol_x,
            maxiter=max_iter,
            full_output=True,
            disp=False,
        )
    except ValueError as exc:  # pragma: no cover - sign change checked above
        raise BracketError(str(exc)) from exc
    if not info.converged and abs(f(root)) > tol_f:
        raise ConvergenceError(
            f"no convergence within {max_iter} iterations on "
            f"[{bracket.lo}, {bracket.hi}]; last iterate {root!r}"
        )
    # Brent never steps outside the bracket; clamp to be explicit about it.
    return min(max(root, bracket.lo), bracket.hi)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol_x: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Abscissa of a maximum of ``f`` on [lo, hi] by golden-section search.

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
    for _ in range(max_iter):
        if b - a <= tol_x:
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
    return _ik_log_residual(
        math.log(priors.q0 / priors.q1), gamma, math.log(beta - gamma)
    )


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
    log_odds = math.log(priors.q0 / priors.q1)

    def resid(u: float) -> float:
        return _ik_log_residual(log_odds, gamma, u)

    lo = math.log(2.0 * gamma) - log_odds - 4.0 * gamma * gamma - 1.0
    bracket = Bracket.from_function(resid, lo, -math.log(gamma))
    u = solve_bracketed(resid, bracket, tol_x=_TOL_FLOOR, tol_f=1e-12, max_iter=200)
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
    rhs = psi * (psi * psi - beta * beta) * 0.5 * (1.0 - math.exp(-2.0 * st))
    return lhs - rhs


def optimal_beta_sd(priors: Priors, psi: float, T: float) -> float:
    """Envelope magnitude maximizing the simplified Dolinar receiver.

    Evaluates the closed-form success probability on a 2001-point grid in
    one array call, then polishes the root of the stationarity equation
    between the neighbours of the grid maximum with Brent's method.  The
    result is checked afterwards against the grid maximum and against
    ``beta = psi`` (which reproduces the Kennedy receiver).  Requires
    ``psi > 0``, ``T > 0`` and ``q0 >= q1``.

    The grid spans ``(0, 10*psi + 5/sqrt(T)]``: for strong signals the
    optimum hugs ``psi``, while for weak ones it settles near an absolute
    scale ~``0.8/sqrt(T)``, so a purely multiplicative cap would miss it.
    """
    if psi <= 0.0:
        raise ValueError(f"psi must be > 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_sd requires q0 >= q1; swap the labels first")

    def resid(b: float) -> float:
        return sd_displacement_residual(priors, psi, T, b)

    hi = 10.0 * psi + 5.0 / math.sqrt(T)
    grid = np.linspace(hi * 1e-6, hi, 2001)
    i = int(np.argmax(simplified_dolinar_pc(priors, psi, grid, T)))
    i = min(max(i, 1), len(grid) - 2)
    b_star = float(grid[i])
    # The residual is negative before a maximum and positive after it.
    bracket = Bracket.from_function(resid, float(grid[i - 1]), float(grid[i + 1]))
    beta = solve_bracketed(resid, bracket, tol_x=_TOL_FLOOR, tol_f=1e-13, max_iter=200)
    pc = simplified_dolinar_pc(priors, psi, beta, T)
    if pc < simplified_dolinar_pc(priors, psi, b_star, T) - 1e-12:
        raise ConvergenceError(
            f"polished root {beta} lost probability against grid maximum {b_star}"
        )
    if pc < simplified_dolinar_pc(priors, psi, psi, T) - 1e-12:
        raise ConvergenceError(
            f"stationary point {beta} does not improve on the Kennedy point {psi}"
        )
    return beta
