"""Oracles of qsdr's closed forms, for the tests alone.

``evolve_pc_general`` integrates the success-probability ODE with scipy's
RK45 over two opaque callables, a route independent of ``qsdr.dolinar``'s
segment walk.  ``verify_control_identity`` is the residual of the algebraic
identity that certifies the optimal law.  qsdr itself runs on numpy alone.
"""

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from qsdr.dolinar import (
    EvolveResult,
    SingularControlError,
    _initial_errors,
    _rate_scale,
    _result,
    _sample_times,
)
from qsdr.statemath import Priors, _margin_sq


class IntegrationError(RuntimeError):
    """ODE solver failed to reach the horizon."""


def evolve_pc_general(
    priors: Priors,
    psi: float,
    u0: Callable[[float], float],
    u1: Callable[[float], float],
    T: float,
    tol: float = 1e-10,
    sample_times=None,
) -> EvolveResult:
    """RK45 evolution of any law, without the symmetry ``u1 = -u0``.

    The two conditionals then see different displaced fields:

        p0' = mu - (lam + mu) * p0,   lam = (psi - u0)**2,  mu = (psi - u1)**2
        p1' = mu~ - (lam~ + mu~) * p1, lam~ = (psi + u1)**2, mu~ = (psi + u0)**2

    (rates of the incoming field ``-psi`` written with signs absorbed).  One
    adaptive solve for ``e = 1 - p`` over [0, T], at local tolerance ``tol``
    and sampled through dense output, with ``evolve_pc``'s validation.
    """
    times = _sample_times(psi, T, sample_times)

    def rhs(t: float, e: np.ndarray):
        a0, a1 = u0(t), u1(t)
        lam, mu, lam_m, mu_m = (psi - a0) ** 2, (psi - a1) ** 2, (psi + a1) ** 2, (psi + a0) ** 2
        return (lam - (lam + mu) * e[0], lam_m - (lam_m + mu_m) * e[1])

    sol = solve_ivp(
        rhs, (0.0, T), _initial_errors(priors), method="RK45",
        rtol=max(tol, 1e-13), atol=max(tol * 1e-2, 1e-14), dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(f"integration stalled at t={float(sol.t[-1])!r}: {sol.message}")
    return _result(priors, T, times, sol.sol(np.append(times, T)))


def rk45(priors: Priors, psi: float, law, T: float, sample_times=None) -> EvolveResult:
    """The RK45 oracle of ``evolve_pc``: the symmetric law ``law`` as two
    opaque callables, at local tolerance 1e-12."""
    return evolve_pc_general(
        priors, psi, law.u0, lambda t: -law.u0(t), T, tol=1e-12, sample_times=sample_times
    )


def verify_control_identity(priors: Priors, psi: float, t_grid: np.ndarray) -> float:
    """Largest residual of the optimal-control consistency identity.

    Substituting the optimal law into the success-probability ODE must
    reproduce the derivative of the running Helstrom bound:

        psi**2 * (1 - R**2) / R
            = psi**2 + u**2 + 2*psi*u - (psi**2 + u**2) * (1 + R)

    with ``u = psi / R``.  The identity is algebraic, so the residual on
    any grid avoiding ``R = 0`` is pure floating-point noise; a large value
    means the law and the ODE no longer describe the same receiver.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("t_grid must be non-empty")
    if t.min() < 0.0:
        raise ValueError("t_grid must be non-negative")
    r_sq = _margin_sq(priors, -np.expm1(-_rate_scale(psi) * t))
    if np.any(r_sq <= 0.0):
        raise SingularControlError("t_grid touches a point where R(t) = 0")
    R = np.sqrt(r_sq)
    u = psi / R
    lhs = psi * psi * (1.0 - r_sq) / R
    rhs = psi * psi + u * u + 2.0 * psi * u - (psi * psi + u * u) * (1.0 + R)
    return float(np.max(np.abs(lhs - rhs)))
