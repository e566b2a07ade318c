"""Oracles of qsdr's closed forms, for the tests alone.

``evolve_pc_general`` integrates the success-probability ODE with scipy's
RK45 over two opaque callables, a route independent of ``qsdr.dolinar``'s
segment walk.  ``verify_control_identity`` is the residual of the algebraic
identity that certifies the optimal law.  qsdr itself runs on numpy alone.
"""

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from qsdr.dolinar import EvolveResult, PcState, SingularControlError, _initial_errors, _rate_scale
from qsdr.statemath import Priors, _margin_sq


class IntegrationError(RuntimeError):
    """ODE solver failed to reach the horizon."""


def evolve_pc_general(
    priors: Priors,
    gamma_sq: float,
    u0: Callable[[float], float],
    u1: Callable[[float], float],
    tol: float = 1e-10,
    sample_times=None,
) -> EvolveResult:
    """RK45 evolution of any law over the unit pulse of mean photon number
    ``gamma_sq``, without the symmetry ``u1 = -u0``.

    With ``psi = sqrt(gamma_sq)`` the two conditionals see different displaced fields:

        p0' = mu - (lam + mu) * p0,   lam = (psi - u0)**2,  mu = (psi - u1)**2
        p1' = mu~ - (lam~ + mu~) * p1, lam~ = (psi + u1)**2, mu~ = (psi + u0)**2

    (rates of the incoming field ``-psi`` written with signs absorbed).  One
    adaptive solve for ``e = 1 - p`` over [0, 1], at local tolerance ``tol``
    and sampled through dense output, validated as ``evolve_pc`` validates.
    """
    if gamma_sq < 0.0:
        raise ValueError(f"gamma_sq must be >= 0, got {gamma_sq}")
    times = np.linspace(0.0, 1.0, 201) if sample_times is None else np.asarray(sample_times, float)
    if times.size and not (times.min() >= 0.0 and times.max() <= 1.0):
        raise ValueError("sample times must lie within [0, 1]")
    psi = np.sqrt(gamma_sq)

    def rhs(t: float, e: np.ndarray):
        a0, a1 = u0(t), u1(t)
        lam, mu, lam_m, mu_m = (psi - a0) ** 2, (psi - a1) ** 2, (psi + a1) ** 2, (psi + a0) ** 2
        return (lam - (lam + mu) * e[0], lam_m - (lam_m + mu_m) * e[1])

    sol = solve_ivp(
        rhs, (0.0, 1.0), _initial_errors(priors), method="RK45",
        rtol=max(tol, 1e-13), atol=max(tol * 1e-2, 1e-14), dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(f"integration stalled at t={float(sol.t[-1])!r}: {sol.message}")
    e = sol.sol(np.append(times, 1.0))  # then the errors at the end of the pulse
    p0s, p1s = 1.0 - e[:, :-1]
    final = PcState(float(e[0, -1]), float(e[1, -1]), 1.0)
    return EvolveResult(final, times, p0s, p1s, priors.q0 * p0s + priors.q1 * p1s)


def rk45(priors: Priors, gamma_sq: float, law, sample_times=None) -> EvolveResult:
    """The RK45 oracle of ``evolve_pc``: the symmetric law ``law`` as two
    opaque callables, at local tolerance 1e-12."""
    return evolve_pc_general(
        priors, gamma_sq, law.u0, lambda t: -law.u0(t), tol=1e-12, sample_times=sample_times
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
