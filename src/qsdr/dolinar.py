"""Continuous photon-counting feedback receiver for BPSK signals.

The receiver mixes the incoming field (amplitude ``+psi`` or ``-psi``) with
a local field ``-u_z(t)`` chosen by the running provisional decision
``z(t)``, and toggles ``z`` at every photon click.  With the symmetric
choice ``u_1 = -u_0``, the photon rate is ``lam(t) = (psi - u0(t))**2``
while ``z`` agrees with the true symbol and ``mu(t) = (psi + u0(t))**2``
while it disagrees, and the success probability obeys

    dP_c/dt = mu(t) - (lam(t) + mu(t)) * P_c(t),     P_c(0) = max(q0, q1).

Choosing ``u0(t) = psi / R(t)`` with ``R(t) = sqrt(1 - 4*q0*q1*
exp(-4*psi**2*t))`` rides the instantaneous two-state Helstrom bound at
every time, so the receiver is optimal at every horizon, not only at T.
For equal priors that law diverges at t = 0; the divergence is integrable
in effect but must be handled explicitly (cap or floor, below).

This module provides the feedback law, ODE evolution of the correct-
decision probability (also in the general asymmetric form), a seeded
telegraph Monte Carlo of the click process, the closed-form piecewise-
constant (segmented) approximation, and a residual check of the algebraic
identity that certifies the optimal law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from ._streams import TrialStreams
from .statemath import Priors, coherent_overlap, helstrom_bound

__all__ = [
    "SingularControlError",
    "IntegrationError",
    "MajorantError",
    "RatePair",
    "ControlLaw",
    "PcState",
    "EvolveResult",
    "TelegraphTrajectory",
    "TelegraphResult",
    "feedback_amplitude",
    "rates",
    "helstrom_trajectory",
    "evolve_pc",
    "evolve_pc_general",
    "segmented_pc",
    "simulate_telegraph",
    "verify_control_identity",
]


class SingularControlError(ValueError):
    """Optimal feedback queried where it diverges (equal priors at t = 0)."""


class IntegrationError(RuntimeError):
    """ODE solver failed to reach the horizon."""


class MajorantError(RuntimeError):
    """Thinning majorant exceeded even after sub-slicing the interval."""


class RatePair(NamedTuple):
    """Photon rates of the matched (lam) and mismatched (mu) branch."""

    lam: float
    mu: float


def feedback_amplitude(priors: Priors, psi: float, t: float) -> float:
    """Optimal feedback magnitude ``psi / R(t)`` at time ``t``.

    ``R(t) = sqrt(1 - 4*q0*q1*exp(-4*psi**2*t))`` is the running Helstrom
    margin; the law starts at ``psi / |q0 - q1|`` and decreases toward
    ``psi``.  For equal priors ``R(0) = 0`` and the law diverges; querying
    that point raises :class:`SingularControlError` (use a cap or a time
    floor, see :meth:`ControlLaw.dolinar_optimal`).
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    radicand = 1.0 - 4.0 * priors.q0 * priors.q1 * math.exp(-4.0 * psi * psi * t)
    if radicand <= 0.0:
        raise SingularControlError(
            f"optimal feedback diverges at t={t} for q0={priors.q0}"
        )
    return psi / math.sqrt(radicand)


def rates(psi: float, u: float) -> RatePair:
    """Click rates of the displaced field: ``((psi - u)**2, (psi + u)**2)``."""
    d = psi - u
    s = psi + u
    return RatePair(d * d, s * s)


def helstrom_trajectory(priors: Priors, psi: float, t: float) -> float:
    """Instantaneous two-state Helstrom bound of the partly observed pulse.

    The first ``t`` seconds of the pulse are coherent states of overlap
    ``exp(-2*psi**2*t)``, so this is ``(1 + sqrt(1 - 4*q0*q1*exp(-4*psi**2*t)))
    / 2``: the best possible success probability at time ``t``.  The
    optimally controlled receiver's P_c(t) rides this curve exactly.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return helstrom_bound(priors, coherent_overlap(psi * psi * t))


@dataclass(frozen=True)
class ControlLaw:
    """Feedback envelope ``u0(t)`` with the symmetric flip ``u1 = -u0``.

    Built through the factory classmethods; ``kind`` records which one.
    ``breakpoints`` lists interior times where ``u0`` may jump; between
    consecutive breakpoints (and between clicks) every built-in law gives
    monotone click rates, which the telegraph sampler's thinning majorant
    relies on.  Custom evaluators must preserve that property or accept
    sub-sliced sampling.
    """

    kind: str
    evaluator: Callable[[float], float] = field(repr=False)
    breakpoints: tuple[float, ...] = ()
    t_floor: float | None = None
    u_max: float | None = None

    def u0(self, t: float) -> float:
        return self.evaluator(t)

    def u1(self, t: float) -> float:
        return -self.evaluator(t)

    @classmethod
    def dolinar_optimal(
        cls,
        priors: Priors,
        psi: float,
        *,
        t_floor: float | None = None,
        u_max: float | None = None,
    ) -> "ControlLaw":
        """Exact optimal law, optionally regularized near t = 0.

        ``t_floor`` freezes the law below that time at its ``t_floor``
        value; ``u_max`` clamps the magnitude.  Either one tames the equal-
        priors divergence; with neither, evaluation at the singular point
        raises :class:`SingularControlError`.
        """
        if t_floor is not None and t_floor < 0.0:
            raise ValueError(f"t_floor must be >= 0, got {t_floor}")
        if u_max is not None and u_max <= 0.0:
            raise ValueError(f"u_max must be > 0, got {u_max}")

        def ev(t: float) -> float:
            tt = t if t_floor is None else max(t, t_floor)
            try:
                u = feedback_amplitude(priors, psi, tt)
            except SingularControlError:
                if u_max is None:
                    raise
                return u_max
            return u if u_max is None else min(u, u_max)

        kind = "dolinar_optimal" if u_max is None else "capped_dolinar"
        return cls(kind, ev, (), t_floor, u_max)

    @classmethod
    def capped_dolinar(
        cls, priors: Priors, psi: float, u_max: float, *, t_floor: float | None = None
    ) -> "ControlLaw":
        """Optimal law clamped to ``|u| <= u_max``."""
        return cls.dolinar_optimal(priors, psi, t_floor=t_floor, u_max=u_max)

    @classmethod
    def constant(cls, beta: float) -> "ControlLaw":
        """Constant envelope (the simplified receiver's law)."""
        return cls("constant", lambda t: beta)

    @classmethod
    def piecewise_constant(cls, values, T: float) -> "ControlLaw":
        """n equal slots over [0, T], slot i holding ``values[i]``.

        Slots are left-closed: the value at an interior breakpoint belongs
        to the slot that starts there.
        """
        vals = tuple(float(v) for v in values)
        if len(vals) == 0:
            raise ValueError("piecewise law needs at least one slot value")
        if T <= 0.0:
            raise ValueError(f"T must be > 0, got {T}")
        n = len(vals)
        h = T / n

        def ev(t: float) -> float:
            i = int(t / h)
            return vals[min(max(i, 0), n - 1)]

        bps = tuple(i * h for i in range(1, n))
        return cls("piecewise_constant", ev, bps)


@dataclass(frozen=True)
class PcState:
    """Conditional success probabilities at time ``t``.

    ``p0 = P[z(t) = 0 | symbol 0]`` and ``p1 = P[z(t) = 1 | symbol 1]``;
    the unconditional success probability is ``q0*p0 + q1*p1``.
    """

    p0: float
    p1: float
    t: float

    def __post_init__(self) -> None:
        for name, v in (("p0", self.p0), ("p1", self.p1)):
            if not -1e-8 <= v <= 1.0 + 1e-8:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.t < 0.0:
            raise ValueError(f"t must be >= 0, got {self.t}")

    def pc(self, priors: Priors) -> float:
        return priors.q0 * self.p0 + priors.q1 * self.p1


@dataclass
class EvolveResult:
    """ODE solution: final state plus a sampled trajectory."""

    final: PcState
    times: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    pc: np.ndarray


@dataclass(frozen=True)
class TelegraphTrajectory:
    """One simulated run: symbol, start bit, click times, final bit.

    The final bit is determined by click parity: each click toggles the
    provisional decision, so ``z_final = z0 XOR (number of clicks mod 2)``.
    """

    a: int
    z0: int
    click_times: tuple[float, ...]
    z_final: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.z0 not in (0, 1) or self.z_final not in (0, 1):
            raise ValueError("a, z0 and z_final must be bits")
        if any(t <= 0.0 for t in self.click_times):
            raise ValueError("click times must be positive")
        if any(
            b <= a for a, b in zip(self.click_times, self.click_times[1:])
        ):
            raise ValueError("click times must be strictly increasing")
        if self.z_final != self.z0 ^ (len(self.click_times) & 1):
            raise ValueError(
                f"z_final={self.z_final} inconsistent with z0={self.z0} "
                f"and {len(self.click_times)} clicks"
            )


class TelegraphResult(NamedTuple):
    estimate: float
    stderr: float
    trajectories: list[TelegraphTrajectory] | None


def _initial_conditionals(priors: Priors) -> tuple[float, float]:
    # Start bit fixes which conditional starts right: z0 = 0 means the
    # symbol-0 branch is already correct (p0 = 1) and symbol-1 is not.
    return (1.0, 0.0) if priors.start_bit == 0 else (0.0, 1.0)


def _evolve(
    priors: Priors,
    psi: float,
    rhs: Callable[[float, np.ndarray], tuple[float, float]],
    breakpoints: tuple[float, ...],
    T: float,
    tol: float,
    sample_times: np.ndarray | None,
) -> EvolveResult:
    # Shared by both ODE entry points: validation, one RK45 solve per
    # segment between breakpoints, dense-output sampling, result assembly.
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if sample_times is None:
        sample_times = np.linspace(0.0, T, 201)
    else:
        sample_times = np.asarray(sample_times, dtype=float)
        if sample_times.size and not (
            sample_times.min() >= 0.0 and sample_times.max() <= T
        ):
            raise ValueError("sample times must lie within [0, T]")
    rtol = max(tol, 1e-13)
    atol = max(tol * 1e-2, 1e-14)
    edges = [0.0, *sorted(b for b in breakpoints if 0.0 < b < T), T]
    y = np.asarray(_initial_conditionals(priors), dtype=float)
    samples = np.empty((2, sample_times.size))
    for a, b in zip(edges, edges[1:]):
        sol = solve_ivp(
            rhs, (a, b), y, method="RK45", rtol=rtol, atol=atol, dense_output=True
        )
        if not sol.success:
            raise IntegrationError(
                f"integration stalled at t={sol.t[-1]!r}: {sol.message}"
            )
        # Half-open ownership [a, b) per segment; the last segment takes b.
        mask = (sample_times >= a) & ((sample_times < b) | (b == T))
        if mask.any():
            samples[:, mask] = sol.sol(sample_times[mask])
        y = sol.y[:, -1]
    p0s, p1s = samples
    final = PcState(float(y[0]), float(y[1]), T)
    pc = priors.q0 * p0s + priors.q1 * p1s
    return EvolveResult(final, sample_times, p0s, p1s, pc)


def evolve_pc(
    priors: Priors,
    psi: float,
    control: ControlLaw,
    T: float,
    tol: float = 1e-10,
    sample_times: np.ndarray | None = None,
) -> EvolveResult:
    """Integrate the success probability ODE under a symmetric control law.

    Both conditionals obey ``p' = mu(t) - (lam(t) + mu(t)) * p``  with
    ``lam = (psi - u0)**2`` and ``mu = (psi + u0)**2``, starting from the
    start-bit initial condition.  ``tol`` is the local error tolerance of
    the adaptive integrator; the trajectory is sampled on ``sample_times``
    (default: 201 equally spaced points, all within [0, T]) through dense
    output.

    The control must be finite on [0, T]: for equal priors the exact
    optimal law must carry a cap or time floor, otherwise the first rate
    evaluation raises :class:`SingularControlError`.
    """

    def rhs(t: float, y: np.ndarray):
        u = control.u0(t)
        lam = (psi - u) ** 2
        mu = (psi + u) ** 2
        tot = lam + mu
        return (mu - tot * y[0], mu - tot * y[1])

    return _evolve(priors, psi, rhs, control.breakpoints, T, tol, sample_times)


def evolve_pc_general(
    priors: Priors,
    psi: float,
    u0: Callable[[float], float],
    u1: Callable[[float], float],
    T: float,
    tol: float = 1e-10,
    sample_times: np.ndarray | None = None,
) -> EvolveResult:
    """ODE evolution without the symmetry assumption ``u1 = -u0``.

    The two conditionals then see different displaced fields:

        p0' = mu - (lam + mu) * p0,   lam = (psi - u0)**2,  mu = (psi - u1)**2
        p1' = mu~ - (lam~ + mu~) * p1, lam~ = (psi + u1)**2, mu~ = (psi + u0)**2

    (rates of the incoming field ``-psi`` written with signs absorbed).
    With ``u1 = -u0`` this reduces to :func:`evolve_pc`; validation and
    sampling are the same.
    """

    def rhs(t: float, y: np.ndarray):
        a0 = u0(t)
        a1 = u1(t)
        lam = (psi - a0) ** 2
        mu = (psi - a1) ** 2
        lam_m = (psi + a1) ** 2
        mu_m = (psi + a0) ** 2
        return (mu - (lam + mu) * y[0], mu_m - (lam_m + mu_m) * y[1])

    return _evolve(priors, psi, rhs, (), T, tol, sample_times)


def segmented_pc(
    priors: Priors,
    psi: float,
    T: float,
    n: int,
    *,
    midpoint: bool = False,
) -> float:
    """Success probability with the optimal law frozen over n equal slots.

    Each slot holds the optimal feedback value sampled at the slot start
    (midpoint with ``midpoint=True``); within a slot the rates are constant
    and the linear ODE propagates in closed form, so no integrator error
    enters.  Converges to the optimal-receiver value as n grows.

    Slot-start sampling is floored at ``T * 1e-9`` so the equal-priors
    divergence at t = 0 turns into one large but finite first-slot value.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if n < 1:
        raise ValueError(f"slot count must be >= 1, got {n}")
    t_floor = T * 1e-9
    h = T / n
    p0, p1 = _initial_conditionals(priors)
    for i in range(n):
        ts = (i + 0.5) * h if midpoint else i * h
        u = feedback_amplitude(priors, psi, max(ts, t_floor))
        lam = (psi - u) ** 2
        mu = (psi + u) ** 2
        tot = lam + mu
        if tot > 0.0:
            p_inf = mu / tot
            decay = math.exp(-tot * h)
            p0 = p_inf + (p0 - p_inf) * decay
            p1 = p_inf + (p1 - p_inf) * decay
    return priors.q0 * p0 + priors.q1 * p1


# Uniforms fetched per telegraph trial in the chunk arrays.  A trial takes
# one plus two per thinning proposal: with the capped equal-priors law
# (u_max = 8, psi = 1, T = 1) about 54 on average, 132 at the 99th
# percentile and under 200 at most; the rare longer trials continue block
# by block.
_PREFETCH = 128


def _thin_window(uniforms, rate, t0: float, t1: float, majorant: float):
    """One thinning pass over [t0, t1); returns a click time or None.

    ``uniforms`` iterates over draws on [0, 1): each proposal takes one for
    its exponential gap (by inversion) and one for its acceptance.  A rate
    above the majorant at a proposal raises :class:`_MajorantViolation`
    (handled by the caller via sub-slicing).
    """
    t = t0
    while True:
        t -= math.log1p(-next(uniforms)) / majorant
        if t >= t1:
            return None
        r = rate(t)
        if r > majorant:
            raise _MajorantViolation(t, r, majorant)
        if next(uniforms) * majorant < r:
            return t


class _MajorantViolation(Exception):
    def __init__(self, t, r, m):
        self.t, self.r, self.m = t, r, m


def _next_click(uniforms, rate, t0: float, t_end: float):
    """First accepted click of the inhomogeneous process on (t0, t_end).

    The majorant over a window is 1.01 times the larger of the rate at the
    window's ends, valid whenever the rate is monotone there (true between
    breakpoints for every built-in law).  A violated majorant triggers
    halving of the window; persistent violations raise MajorantError.
    """
    t = t0
    w = t_end
    shrinks = 0
    while t < t_end:
        r_end = rate(math.nextafter(w, t))
        majorant = 1.01 * max(rate(t), r_end)
        if majorant <= 0.0:
            t, w = w, t_end
            continue
        try:
            click = _thin_window(uniforms, rate, t, w, majorant)
        except _MajorantViolation as v:
            shrinks += 1
            if shrinks > 64:
                raise MajorantError(
                    f"rate {v.r} exceeded majorant {v.m} at t={v.t} even after "
                    f"{shrinks} window halvings; rate not monotone?"
                ) from None
            w = t + 0.5 * (w - t)
            continue
        if click is not None:
            return click
        t, w = w, t_end
    return None


def _one_trajectory(uniforms, priors: Priors, psi: float, control: ControlLaw, T: float):
    # The trial's first uniform picks the symbol.
    a = 0 if next(uniforms) < priors.q0 else 1
    z = priors.start_bit
    clicks: list[float] = []
    bps = sorted(b for b in control.breakpoints if 0.0 < b < T)
    t = 0.0
    while t < T:
        j = bisect_right(bps, t)
        seg_end = bps[j] if j < len(bps) else T
        matched = z == a

        def rate(tt: float, _m: bool = matched) -> float:
            u = control.u0(tt)
            d = psi - u if _m else psi + u
            return d * d

        click = _next_click(uniforms, rate, t, seg_end)
        if click is None:
            t = seg_end
        else:
            clicks.append(click)
            z ^= 1
            t = click
    return a, clicks, z


def simulate_telegraph(
    priors: Priors,
    psi: float,
    control: ControlLaw,
    T: float,
    trials: int,
    seed: int,
    keep_trajectories: bool = False,
) -> TelegraphResult:
    """Monte Carlo of the click-driven telegraph process.

    Each trial draws the true symbol from the priors and samples the click
    process by thinning: the instantaneous rate is ``(psi - u0)**2`` while
    the provisional bit matches the symbol and ``(psi + u0)**2`` otherwise,
    and every click flips the bit.  Returns the frequency of trials ending
    with the bit on the true symbol, its binomial standard error, and (on
    request) the per-trial trajectories.

    Trial i reads the counter-based uniforms of ``(seed, i)`` (see
    :mod:`qsdr._streams`) in order: the symbol, then two per thinning
    proposal.  The first ``_PREFETCH`` of them come in chunk-wide arrays,
    later ones one Philox block at a time, so the result is independent of
    chunking, and memory does not grow with ``trials`` unless trajectories
    are kept.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    hits = 0
    trajectories: list[TelegraphTrajectory] | None = [] if keep_trajectories else None
    z0 = priors.start_bit
    streams = TrialStreams(seed)
    for i0, u in streams.chunks(trials, _PREFETCH):
        for i, row in enumerate(u, start=i0):
            draws = chain(row.tolist(), streams.tail(i, _PREFETCH))
            a, clicks, z_final = _one_trajectory(draws, priors, psi, control, T)
            hits += z_final == a
            if trajectories is not None:
                trajectories.append(
                    TelegraphTrajectory(a, z0, tuple(clicks), z_final)
                )
    p = hits / trials
    return TelegraphResult(p, math.sqrt(p * (1.0 - p) / trials), trajectories)


def verify_control_identity(
    priors: Priors, psi: float, t_grid: np.ndarray
) -> float:
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
    r_sq = 1.0 - 4.0 * priors.q0 * priors.q1 * np.exp(-4.0 * psi * psi * t)
    if np.any(r_sq <= 0.0):
        raise SingularControlError("t_grid touches a point where R(t) = 0")
    R = np.sqrt(r_sq)
    u = psi / R
    lhs = psi * psi * (1.0 - r_sq) / R
    rhs = psi * psi + u * u + 2.0 * psi * u - (psi * psi + u * u) * (1.0 + R)
    return float(np.max(np.abs(lhs - rhs)))
