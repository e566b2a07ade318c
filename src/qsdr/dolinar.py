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

This module provides the feedback law, closed-form evolution of the
correct-decision probability on the segments of a structured law, an RK45
integration of the general asymmetric form (for opaque laws, and as the
oracle of the closed forms), a seeded telegraph Monte Carlo of the click
process, the piecewise-constant (segmented) approximation, and a residual
check of the algebraic identity that certifies the optimal law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._streams import TrialStreams
from .statemath import Priors, coherent_overlap, helstrom_bound

__all__ = [
    "SingularControlError",
    "IntegrationError",
    "RatePair",
    "ControlLaw",
    "PcState",
    "EvolveResult",
    "Trajectories",
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

    Segment ``i`` of [0, inf) starts at ``starts[i]`` (``starts[0] == 0``).
    The first ``len(values)`` segments hold the constants ``values``; if
    ``optimal = (priors, psi)`` is set, a last segment follows on which
    ``u0 = feedback_amplitude(priors, psi, t)``.  A cap or time floor is a
    constant prefix slot.  On each segment the integrated click rate, which
    :func:`simulate_telegraph` inverts, and the success probability, which
    :func:`evolve_pc` propagates, are closed forms; the rates need not be
    monotone.  Built by the factories; ``kind`` names which one.
    """

    kind: str
    starts: tuple[float, ...]
    values: tuple[float, ...]
    optimal: tuple[Priors, float] | None = None

    def __post_init__(self) -> None:
        n, s = len(self.values) + (self.optimal is not None), self.starts
        if n == 0 or len(s) != n or s[0] != 0.0 or any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError(f"{n} segment(s) need as many starts rising from 0, got {s}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior segment edges, where ``u0`` may jump or kink."""
        return self.starts[1:]

    def u0(self, t: float) -> float:
        values = self.values
        if values:
            i = bisect_right(self.starts, t) - 1
            if i < len(values):
                return values[i] if i >= 0 else values[0]  # t < 0: first slot
        priors, psi = self.optimal
        return feedback_amplitude(priors, psi, t)

    def u1(self, t: float) -> float:
        return -self.u0(t)

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
        raises :class:`SingularControlError`.  The law ``psi / R(t)``
        decreases in t, so both become one constant slot that lasts until
        the floor ends or the law falls to the cap, whichever is later.
        """
        if t_floor is not None and t_floor < 0.0:
            raise ValueError(f"t_floor must be >= 0, got {t_floor}")
        if u_max is not None and u_max <= 0.0:
            raise ValueError(f"u_max must be > 0, got {u_max}")
        kind = "dolinar_optimal" if u_max is None else "capped_dolinar"
        switch = t_floor or 0.0
        try:
            value = feedback_amplitude(priors, psi, switch)
        except SingularControlError:
            # Only a cap regularizes; uncapped, the law raises where evaluated.
            value, switch = math.inf, 0.0
        if u_max is not None and value > u_max:
            # psi / R(t) >= psi, so a cap at or below psi holds for all t.
            if u_max <= psi or psi == 0.0:
                return cls(kind, (0.0,), (u_max,))
            # psi / R(t) = u_max where 4*q0*q1*exp(-k*t) = g, k = 4*psi**2.  An
            # underflowed k takes the limit 1/(4*u_max**2) of q0*q1 = 1/4; for
            # other priors u_max < 1e-154 then, and both times exceed 1e307.
            value, g, k = u_max, 1.0 - (psi / u_max) ** 2, 4.0 * psi * psi
            c_over_g = 4.0 * priors.q0 * priors.q1 / g
            switch = max(switch, math.log(c_over_g) / k if k else 0.25 / u_max / u_max)
        if switch <= 0.0:
            return cls(kind, (0.0,), (), (priors, psi))
        return cls(kind, (0.0, switch), (value,), (priors, psi))

    @classmethod
    def constant(cls, beta: float) -> "ControlLaw":
        """Constant envelope (the simplified receiver's law)."""
        return cls("constant", (0.0,), (beta,))

    @classmethod
    def piecewise_constant(cls, values, T: float) -> "ControlLaw":
        """n equal slots over [0, T], slot i holding ``values[i]``.

        Slots are left-closed: the value at an interior breakpoint belongs
        to the slot that starts there.  The last slot extends past T.
        """
        vals = tuple(float(v) for v in values)
        if len(vals) == 0:
            raise ValueError("piecewise law needs at least one slot value")
        if T <= 0.0:
            raise ValueError(f"T must be > 0, got {T}")
        h = T / len(vals)
        return cls("piecewise_constant", tuple(i * h for i in range(len(vals))), vals)


@dataclass(frozen=True)
class PcState:
    """Conditional error probabilities at time ``t``.

    ``e0 = P[z(t) = 1 | symbol 0]`` and ``e1 = P[z(t) = 0 | symbol 1]``;
    ``p0`` and ``p1`` are their complements.  ``pe`` mixes the errors
    themselves, so a small error probability keeps its digits.
    """

    e0: float
    e1: float
    t: float

    def __post_init__(self) -> None:
        for name, v in (("e0", self.e0), ("e1", self.e1)):
            if not -1e-8 <= v <= 1.0 + 1e-8:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.t < 0.0:
            raise ValueError(f"t must be >= 0, got {self.t}")

    @property
    def p0(self) -> float:
        return 1.0 - self.e0

    @property
    def p1(self) -> float:
        return 1.0 - self.e1

    def pe(self, priors: Priors) -> float:
        return priors.q0 * self.e0 + priors.q1 * self.e1

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


class Trajectories(NamedTuple):
    """Click records of all trials, one column each.

    Trial ``i`` drew the symbol ``a[i]``, started on ``Priors.start_bit``,
    clicked at ``times[offsets[i]:offsets[i + 1]]`` (strictly increasing,
    in (0, T]) and ended on ``z_final[i]``.  Each click toggles the
    provisional bit, so ``z_final = start_bit ^ (clicks & 1)``.
    """

    a: np.ndarray
    z_final: np.ndarray
    offsets: np.ndarray
    times: np.ndarray


class TelegraphResult(NamedTuple):
    estimate: float
    stderr: float
    trajectories: Trajectories | None


def _initial_errors(priors: Priors) -> tuple[float, float]:
    # Start bit fixes which conditional starts right: z0 = 0 means the
    # symbol-0 branch is already correct (e0 = 0) and symbol-1 is not.
    return (0.0, 1.0) if priors.start_bit == 0 else (1.0, 0.0)


def _sample_times(psi: float, T: float, sample_times) -> np.ndarray:
    # Validation shared by both evolution routes.
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if sample_times is None:
        return np.linspace(0.0, T, 201)
    times = np.asarray(sample_times, dtype=float)
    if times.size and not (times.min() >= 0.0 and times.max() <= T):
        raise ValueError("sample times must lie within [0, T]")
    return times


def _result(priors: Priors, T: float, times: np.ndarray, e: np.ndarray) -> EvolveResult:
    # e: conditional errors at each of the times, then at T.
    p0s, p1s = 1.0 - e[:, :-1]
    pc = priors.q0 * p0s + priors.q1 * p1s
    return EvolveResult(PcState(float(e[0, -1]), float(e[1, -1]), T), times, p0s, p1s, pc)


def evolve_pc(
    priors: Priors, psi: float, control: ControlLaw, T: float, sample_times=None
) -> EvolveResult:
    """Success probability under a symmetric control law, in closed form.

    Both conditionals obey ``p' = mu(t) - (lam(t) + mu(t)) * p``  with
    ``lam = (psi - u0)**2`` and ``mu = (psi + u0)**2``, starting from the
    start-bit initial condition.  The equation is linear, so each segment
    of the law (see :class:`ControlLaw`) maps the errors ``e = 1 - p`` in
    closed form, at T and at ``sample_times`` (default: 201 equally spaced
    points, all within [0, T]); nothing is integrated numerically.

    For equal priors the exact optimal law must carry a cap or time floor,
    otherwise :class:`SingularControlError` is raised.  An optimal-law
    segment must be built for this ``psi``; :func:`evolve_pc_general`
    integrates any other law.
    """
    times = _sample_times(psi, T, sample_times)
    e = _Segments(control, psi, T).errors(np.array(_initial_errors(priors)), times)
    return _result(priors, T, times, e)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call because no CLI
    path integrates; a module attribute so that tracers and tests can patch it."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


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
    and sampled through dense output, serves opaque callables and is the
    oracle of :func:`evolve_pc` (pass ``law.u0``, ``law.u1``).
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
        raise IntegrationError(f"integration stalled at t={sol.t[-1]!r}: {sol.message}")
    return _result(priors, T, times, sol.sol(np.append(times, T)))


def segmented_pc(priors: Priors, psi: float, T: float, n: int, *, midpoint: bool = False) -> float:
    """Success probability with the optimal law frozen over n equal slots.

    Each slot holds the optimal feedback value sampled at the slot start
    (midpoint with ``midpoint=True``); :func:`evolve_pc` propagates the
    resulting piecewise-constant law in closed form, so no integrator error
    enters.  Converges to the optimal-receiver value as n grows.

    Slot-start sampling is floored at ``T * 1e-9`` so the equal-priors
    divergence at t = 0 turns into one large but finite first-slot value.
    """
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if n < 1:
        raise ValueError(f"slot count must be >= 1, got {n}")
    h = T / n
    shift = 0.5 if midpoint else 0.0
    values = [feedback_amplitude(priors, psi, max((i + shift) * h, T * 1e-9)) for i in range(n)]
    law = ControlLaw.piecewise_constant(values, T)
    return evolve_pc(priors, psi, law, T, sample_times=()).final.pc(priors)


class _Segments:
    """One law's segments on [0, T] for a signal of amplitude ``psi``.

    ``edges`` are the law's starts below T, then T.  Constant segment ``i``
    has the click rates ``rate[0, i] = (psi - u0)**2`` (matched branch) and
    ``rate[1, i] = (psi + u0)**2`` (mismatched).  If ``curved = (ln c, k)``
    is set, the last segment follows ``u0 = psi/R`` with ``k = 4*psi**2``,
    ``c = 4*q0*q1`` and ``R = sqrt(1 - c*exp(-k*t))``; its table rates are
    0.  :func:`simulate_telegraph` and :func:`evolve_pc` both read it.

    ``lam[b, i]`` integrates branch ``b``'s rate from 0 to ``edges[i]``; on
    the optimal-law segment it grows as

        F_0 = ln(R)/2 - ln(1 + R),    F_1 = k*t + ln(R)/2 + ln(1 + R),

    which invert in closed form through ``sqrt(R)``.
    """

    def __init__(self, control: ControlLaw, psi: float, T: float) -> None:
        starts = [s for s in control.starts if s < T]
        values = list(control.values[: len(starts)])
        self.curved = None
        if len(starts) > len(values):  # the optimal-law segment starts before T
            priors, law_psi = control.optimal
            # Raises SingularControlError where the law diverges.
            values.append(feedback_amplitude(priors, law_psi, starts[-1]))
            c = 4.0 * priors.q0 * priors.q1
            if c > 0.0 and law_psi > 0.0:  # else u0 is constant there
                if law_psi != psi:
                    raise ValueError(
                        f"optimal law built for psi={law_psi}, not {psi}; "
                        "evolve_pc_general(..., law.u0, law.u1, ...) integrates it"
                    )
                self.curved = (math.log(c), 4.0 * psi * psi)
        self.edges = np.array([*starts, T])
        self.last = len(starts) - 1
        self.rate = np.array(rates(psi, np.array(values)))
        steps = self.rate * np.diff(self.edges)
        if self.curved:
            self.rate[:, -1] = 0.0
            self.f0 = self._f(self.edges[-2], np.array([0, 1]))
            steps[:, -1] = self._f(T, np.array([0, 1])) - self.f0
        self.lam = np.zeros((2, len(self.edges)))
        np.cumsum(steps, axis=1, out=self.lam[:, 1:])

    def _relax(self, i: int, e: np.ndarray, t):
        """Errors at ``t`` in segment ``i`` from ``e`` at its start ``a``.

        Both conditionals obey ``e' = lam - (lam + mu) * e``, so a constant
        segment relaxes toward ``lam / (lam + mu)``.  On the optimal-law
        segment ``F = exp(k*t) * R`` is an integrating factor, and ``lam*F =
        d/dt[-(1 - R) * exp(k*t) / 2]``.  With ``x = c*exp(-k*t) = 1 - R**2``
        and ``g = exp(-k*(t - a))`` that gives, free of cancellation,

            e_t*R_t = e_a*g*R_a + x_a*x_t*(1 - g) / (2*(R_a + R_t)*(1 + R_a)*(1 + R_t)).
        """
        a = self.edges[i]
        if self.curved and i == self.last:
            lnc, k = self.curved
            h = -k * (t - a)
            ra, rt = np.sqrt(-np.expm1(lnc - k * a)), np.sqrt(-np.expm1(lnc - k * t))
            gain = -0.5 * np.exp(2.0 * lnc - k * (a + t)) * np.expm1(h)
            return (e * np.exp(h) * ra + gain / ((ra + rt) * (1.0 + ra) * (1.0 + rt))) / rt
        lam, mu = self.rate[:, i]
        tot = lam + mu
        d = -tot * (t - a)
        return e * np.exp(d) - (lam / tot if tot else 0.0) * np.expm1(d)

    def errors(self, e: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Conditional errors at the times ``t`` (in [0, T]), then at T,
        from the errors ``e`` at time 0; shape ``(2, len(t) + 1)``."""
        t = np.append(t, self.edges[-1])
        seg = np.minimum(np.searchsorted(self.edges, t, "right") - 1, self.last)
        out = np.empty((2, t.size))
        for i in range(self.last + 1):
            on = seg == i
            if on.any():
                out[:, on] = self._relax(i, e[:, None], t[on])
            if i < self.last:
                e = self._relax(i, e, self.edges[i + 1])
        return out

    def _f(self, t: np.ndarray, b: np.ndarray) -> np.ndarray:
        lnc, k = self.curved
        r = np.sqrt(-np.expm1(lnc - k * t))
        return b * k * t + 0.5 * np.log(r) + (2 * b - 1) * np.log1p(r)

    def _f_inverse(self, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        lnc, k = self.curved
        t = np.empty_like(f)
        m = b == 0
        # Matched: e**F = x/(1 + x*x), x = sqrt(R); s = sqrt(1 - 4e**2F)
        # gives R = (1 - s)/(1 + s) and 1 - R*R = 4s/(1 + s)**2.
        s = np.sqrt(-np.expm1(2.0 * f[m] + 2.0 * math.log(2.0)))
        t[m] = (lnc - np.log(4.0 * s) + 2.0 * np.log1p(s)) / k
        # Mismatched: c * e**-F = w = (1 - x*x) / x.
        f1 = f[~m]
        w = np.exp(lnc - f1)
        x = 2.0 / (w + np.sqrt(w * w + 4.0))
        t[~m] = (f1 - np.log(x) - np.log1p(x * x)) / k
        return t

    def at(self, t: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integrated rate of branch ``b[r]`` from 0 to ``t[r]`` (in [0, T])."""
        i = np.minimum(np.searchsorted(self.edges, t, "right") - 1, self.last)
        y = self.lam[b, i] + self.rate[b, i] * (t - self.edges[i])
        if self.curved:
            on = i == self.last
            y[on] += self._f(t[on], b[on]) - self.f0[b[on]]
        return y

    def inverse(self, y: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Times at which ``at`` reaches ``y[r] < lam[b[r], -1]``."""
        i = np.where(
            b == 1,
            np.searchsorted(self.lam[1], y, "right"),
            np.searchsorted(self.lam[0], y, "right"),
        ) - 1
        dy = y - self.lam[b, i]
        # The optimal-law segment's table rate is 0; its times come below.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self.edges[i] + dy / self.rate[b, i]
        if self.curved:
            on = i == self.last
            t[on] = self._f_inverse(self.f0[b[on]] + dy[on], b[on])
        # The closed forms may round below their segment's start.
        return np.maximum(t, self.edges[i])


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

    Each trial draws the true symbol from the priors, then samples its
    clicks exactly by time rescaling.  The click rate is ``(psi - u0)**2``
    while the provisional bit matches the symbol and ``(psi + u0)**2``
    otherwise; each click flips the bit and comes where the integrated rate
    of the current branch has grown by an Exp(1) gap.  Those integrals are
    closed forms on each segment of the law (see :class:`ControlLaw`), so
    nothing is solved numerically; an optimal-law segment must be built for
    this ``psi``.  Returns the frequency of trials ending on the true
    symbol, its binomial standard error and, on request, the click records
    (:class:`Trajectories`).

    Trial i reads the counter-based uniforms of ``(seed, i)`` (see
    :mod:`qsdr._streams`): draw 0 picks the symbol, draw ``d >= 1`` is the
    d-th gap ``-log1p(-u)``, and the first gap reaching past T ends the
    trial.  A chunk's trials advance together, one array step per gap, so
    results do not depend on chunking, and memory does not grow with
    ``trials`` unless trajectories are kept.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    hazard = _Segments(control, psi, T)
    end = hazard.lam[:, -1]
    hits = 0
    symbols, finals, rows, taus = kept = ([], [], [], [])  # click records
    streams = TrialStreams(seed)
    for i0, u in streams.chunks(trials):
        n = len(u)
        a = (u[:, 0] >= priors.q0).astype(np.intp)
        z = np.full(n, priors.start_bit, dtype=np.intp)
        t = np.zeros(n)
        live = np.arange(n)
        d = 0
        while live.size:
            d += 1
            j, w = divmod(d, 4)
            if w == 0:
                u = streams.block(i0, j, n)
            b = z[live] ^ a[live]
            y = hazard.at(t[live], b) - np.log1p(-u[live, w])
            go = y < end[b]
            live = live[go]
            # Rounding may not move a click past T or back onto the last one.
            tau = np.minimum(
                np.maximum(hazard.inverse(y[go], b[go]), np.nextafter(t[live], T)), T
            )
            t[live] = tau
            z[live] ^= 1
            if keep_trajectories:
                rows.append(i0 + live)
                taus.append(tau)
        hits += int(np.count_nonzero(z == a))
        if keep_trajectories:
            symbols.append(a)
            finals.append(z)
    p = hits / trials
    trajectories = None
    if keep_trajectories:
        # Steps come in time order and chunks in trial order, so a stable
        # sort by trial keeps each trial's clicks in time order.
        a, z, trial, times = (np.concatenate(k) for k in kept)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(trial, minlength=trials))))
        trajectories = Trajectories(a, z, offsets, times[np.argsort(trial, kind="stable")])
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
