"""Bracketed root finding and the optimal receiver displacements.

Generic utilities (a safeguarded bracketed solver and a golden-section
maximizer) plus the two displacement optimizations built on them:

* ``optimal_beta_ik``: displacement of the optimized Kennedy receiver,
  stationary point of :func:`qsdr.statemath.improved_kennedy_pc`,
* ``optimal_beta_sd``: envelope magnitude of the simplified Dolinar
  receiver, stationary point of :func:`qsdr.statemath.simplified_dolinar_pc`.

Both solvers locate the global maximum on a coarse grid first and only then
polish the matching root of the stationarity equation, because a
stationarity equation alone cannot distinguish the global maximum from any
other critical point.  Global optimality is therefore certified against a
finite grid, not proved.
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


def _expand_to_sign_change(
    f: Callable[[float], float],
    lo: float,
    hi0: float,
    anchor: float,
    cap: float,
) -> Bracket:
    """Grow [lo, hi] by doubling hi's offset from ``anchor`` until f flips sign."""
    f_lo = f(lo)
    hi = hi0
    while True:
        f_hi = f(hi)
        b = Bracket(lo, hi, f_lo, f_hi)
        if b.has_sign_change:
            return b
        if hi >= cap:
            raise BracketError(
                f"no sign change found while expanding [{lo}, {hi}] (cap {cap})"
            )
        hi = min(anchor + 2.0 * (hi - anchor), cap)


def ik_displacement_residual(priors: Priors, gamma: float, beta: float) -> float:
    """Stationarity residual of the optimized Kennedy displacement.

    Zero exactly when ``q0/q1 = (beta + gamma)/(beta - gamma) *
    exp(-4*beta*gamma)``, the first-order condition of
    :func:`qsdr.statemath.improved_kennedy_pc` on ``beta > gamma``.
    """
    if beta <= gamma:
        raise ValueError(f"residual defined for beta > gamma, got beta={beta}")
    return priors.q0 / priors.q1 - (beta + gamma) / (beta - gamma) * math.exp(
        -4.0 * beta * gamma
    )


def optimal_beta_ik(priors: Priors, gamma: float) -> float:
    """Displacement maximizing the optimized Kennedy receiver.

    Solves the stationarity condition on ``beta > gamma`` (the success
    probability is strictly increasing up to ``gamma``, and the residual is
    strictly monotone beyond it, so the unique root is the global maximum).
    Requires ``q0 >= q1``; for the opposite ordering swap the hypothesis
    labels (``priors.swapped()``) and negate the displacement.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_ik requires q0 >= q1; swap the labels first")

    def resid(b: float) -> float:
        return ik_displacement_residual(priors, gamma, b)

    lo = gamma * (1.0 + 1e-9)
    bracket = _expand_to_sign_change(resid, lo, gamma + 1.0, gamma, gamma + 1e3)
    beta = solve_bracketed(resid, bracket, tol_x=1e-14, tol_f=1e-12, max_iter=200)
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
    are multiplied through by ``exp(-s*T)`` so that wide search brackets
    cannot overflow ``sinh``; the roots and signs are unchanged.
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

    Scans a coarse grid for the global maximum of the closed-form success
    probability, then polishes the matching root of the stationarity
    equation with Brent's method.  ``beta = psi`` (which reproduces the
    Kennedy receiver) is kept as an explicit candidate floor.  Requires
    ``psi > 0``, ``T > 0`` and ``q0 >= q1``.

    The search interval is ``(0, 10*psi + 5/sqrt(T)]``: for strong signals
    the optimum hugs ``psi``, while for weak ones it settles near an
    absolute scale ~``0.8/sqrt(T)``, so a purely multiplicative cap would
    miss it.
    """
    if psi <= 0.0:
        raise ValueError(f"psi must be > 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_sd requires q0 >= q1; swap the labels first")

    def pc(b: float) -> float:
        return simplified_dolinar_pc(priors, psi, b, T)

    def resid(b: float) -> float:
        return sd_displacement_residual(priors, psi, T, b)

    hi = 10.0 * psi + 5.0 / math.sqrt(T)
    grid = np.linspace(hi * 1e-6, hi, 2001)
    values = [pc(b) for b in grid]
    i = int(np.argmax(values))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    b_star = golden_max(pc, a, b, tol_x=1e-12)

    # Polish on the stationarity equation; the residual changes sign across
    # a maximum (negative before, positive after).
    delta = max(1e-8 * hi, 1e-12)
    lo_p, hi_p = b_star - delta, b_star + delta
    for _ in range(80):
        if lo_p > 0.0 and (resid(lo_p) < 0.0) != (resid(hi_p) < 0.0):
            break
        delta *= 2.0
        lo_p, hi_p = max(b_star - delta, grid[0] * 0.5), b_star + delta
    bracket = Bracket.from_function(resid, lo_p, hi_p)
    beta = solve_bracketed(resid, bracket, tol_x=1e-14, tol_f=1e-13, max_iter=200)
    if pc(beta) < pc(b_star) - 1e-12:
        raise ConvergenceError(
            f"polished root {beta} lost probability against grid maximum {b_star}"
        )
    if pc(beta) < pc(psi) - 1e-12:
        raise ConvergenceError(
            f"stationary point {beta} does not improve on the Kennedy point {psi}"
        )
    return beta
