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
For exactly equal priors that law diverges at t = 0; the divergence is
integrable in effect but must be handled explicitly (cap or floor, below).

This module provides the feedback law, closed-form evolution of the
correct-decision probability across a structured law's segments (one
lane-wise walk, whose lanes are one law's sample times or a sweep's points),
a seeded telegraph Monte Carlo of the click process (streamed chunk by
chunk, or reduced to its estimate) and the piecewise-constant (segmented)
approximation.  Nothing is integrated numerically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from ._record import Record
from ._streams import UNIT, McEstimate, binomial, trial_chunks
from .statemath import Priors, _margin_sq, _out, _reject

__all__ = [
    "SingularControlError",
    "ControlLaw",
    "LawFamily",
    "PcState",
    "EvolveResult",
    "Trajectories",
    "feedback_amplitude",
    "rates",
    "helstrom_trajectory",
    "evolve_pc",
    "evolve_pe",
    "segmented_pc",
    "simulate_telegraph",
    "telegraph_chunks",
]


class SingularControlError(ValueError):
    """Optimal feedback queried where it diverges (equal priors at t = 0)."""


# The largest amplitude whose optimal-law rate scale k = 4*psi**2 is a float.
_PSI_MAX = math.sqrt(np.finfo(float).max / 4.0)


def _rate_scale(psi):
    """``k = 4*psi**2`` of the optimal law at amplitude ``psi`` (a float or an
    array), refusing an amplitude where it overflows."""
    _reject(psi > _PSI_MAX, psi, "4*psi**2 overflows: psi**2 (gamma_sq/T in a sweep) must be "
            "at most 4.494e+307, psi at most 6.704e+153")
    return 4.0 * psi * psi


def _law_margin_sq(priors: Priors, k, t):
    """``R(t)**2 = 1 - 4*q0*q1*exp(-k*t)`` of the optimal law, ``k = 4*psi**2``: the
    Helstrom margin of ``statemath._margin_sq``, so every route agrees bit for bit."""
    with np.errstate(over="ignore"):  # k*t = inf takes the margin's limit 1
        return _margin_sq(priors, -np.expm1(-k * t))


def _refuse_divergence(priors: Priors, r2, t) -> None:
    """Raise :class:`SingularControlError` at the first ``t`` whose ``R(t)**2 = r2`` is 0."""
    for t in np.broadcast_to(t, np.shape(r2))[r2 <= 0.0][:1]:
        raise SingularControlError(f"optimal feedback diverges at t={t} for q0={priors.q0}")


def feedback_amplitude(priors: Priors, psi: float, t: float) -> float:
    """Optimal feedback magnitude ``psi / R(t)`` at time ``t``.

    ``R(t) = sqrt(1 - 4*q0*q1*exp(-4*psi**2*t))`` is the running Helstrom margin; the law
    starts at ``psi / |q0 - q1|`` and falls toward ``psi``.  ``psi`` and ``t`` are floats or
    arrays, as in :mod:`qsdr.statemath`'s closed forms.  Only at exactly equal priors does it
    diverge, at t = 0 and where ``4*psi**2*t`` underflows: there it raises
    :class:`SingularControlError`, naming the first such ``t``.
    """
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(t < 0.0, t, "t must be >= 0")
    r2 = _law_margin_sq(priors, _rate_scale(psi), t)
    _refuse_divergence(priors, r2, t)
    return _out(psi / np.sqrt(r2))


def _log_c(priors: Priors) -> float:
    # ln c, c = 4*q0*q1, for the kernels that need it; -inf where a prior is 0.
    c = 4.0 * priors.q0 * priors.q1
    return math.log(c) if c else -math.inf


def rates(psi: float, u: float) -> tuple[float, float]:
    """Click rates ``(lam, mu)`` of the displaced field: ``((psi - u)**2, (psi + u)**2)``."""
    d = psi - u
    s = psi + u
    return d * d, s * s


def helstrom_trajectory(priors: Priors, psi: float, t: float) -> float:
    """Instantaneous two-state Helstrom bound of the partly observed pulse.

    The first ``t`` seconds of the pulse are coherent states of overlap
    ``exp(-2*psi**2*t)``, so this is ``(1 + R(t)) / 2`` with the law's own margin
    ``R(t)`` (:func:`feedback_amplitude`): the best possible success probability at
    time ``t``.  The optimally controlled receiver's P_c(t) rides this curve exactly.
    ``psi`` and ``t`` are floats or arrays, as in :func:`feedback_amplitude`.
    """
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(t < 0.0, t, "t must be >= 0")
    return _out(0.5 * (1.0 + np.sqrt(_law_margin_sq(priors, _rate_scale(psi), t))))


class ControlLaw(Record):
    """Feedback envelope ``u0(t)`` with the symmetric flip ``u1 = -u0``.

    Segment ``i`` of [0, inf) starts at ``starts[i]`` (``starts[0] == 0``).
    The first ``len(values)`` segments hold the constants ``values``; if
    ``optimal = (priors, psi)`` is set, a last segment follows on which
    ``u0 = feedback_amplitude(priors, psi, t)``.  A cap or time floor is a
    constant prefix slot.  On each segment the integrated click rate, which
    :func:`telegraph_chunks` inverts, and the success probability, which
    :func:`evolve_pc` propagates, are closed forms; the rates need not be
    monotone.  A law is its segments, so equal laws compare equal however
    they were built.
    """

    __slots__ = ("starts", "values", "optimal")

    def __init__(
        self,
        starts: tuple[float, ...],
        values: tuple[float, ...],
        optimal: tuple[Priors, float] | None = None,
    ) -> None:
        n, s = len(values) + (optimal is not None), starts
        if n == 0 or len(s) != n or s[0] != 0.0 or any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError(f"{n} segment(s) need as many starts rising from 0, got {s}")
        self._set(starts, values, optimal)

    def u0(self, t: float) -> float:
        values = self.values
        if values:
            i = bisect_right(self.starts, t) - 1
            if i < len(values):
                return values[i] if i >= 0 else values[0]  # t < 0: first slot
        priors, psi = self.optimal
        return feedback_amplitude(priors, psi, t)

    @classmethod
    def constant(cls, beta: float) -> "ControlLaw":
        """Constant envelope (the simplified receiver's law)."""
        return cls((0.0,), (beta,))

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
        return cls(tuple(i * h for i in range(len(vals))), vals)


class LawFamily(Record):
    """The law of every point of a sweep: the constant envelope ``beta`` if
    that is set, else the optimal law ``psi / R(t)``, capped at ``u_max``
    and frozen below ``t_floor`` where those are set.  A constant envelope
    takes neither, so ``beta`` with ``t_floor`` or ``u_max`` is refused.
    Either regularizer tames the equal-priors divergence at t = 0; with
    neither, evaluating or evolving the law there raises
    :class:`SingularControlError`.  :func:`evolve_pe` takes it whole, so no
    law is built per point; :meth:`law` builds the law of one point."""

    __slots__ = ("beta", "t_floor", "u_max")

    def __init__(
        self, beta: float | None = None, t_floor: float | None = None, u_max: float | None = None
    ) -> None:
        if beta is not None and (t_floor is not None or u_max is not None):
            raise ValueError("beta sets a constant law; it takes no t_floor or u_max")
        if t_floor is not None and t_floor < 0.0:
            raise ValueError(f"t_floor must be >= 0, got {t_floor}")
        if u_max is not None and u_max <= 0.0:
            raise ValueError(f"u_max must be > 0, got {u_max}")
        self._set(beta, t_floor, u_max)

    def law(self, priors: Priors, psi: float) -> ControlLaw:
        """The law of the point of amplitude ``psi``: its :meth:`slots` as
        segments."""
        (switch,), (value,) = (x.tolist() for x in self.slots(priors, np.array([psi], float)))
        if switch == math.inf:
            return ControlLaw((0.0,), (value,))
        if switch <= 0.0:
            return ControlLaw((0.0,), (), (priors, psi))
        return ControlLaw((0.0, switch), (value,), (priors, psi))

    def slots(self, priors: Priors, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The shape of each point's law, lane-wise: ``(switch, value)``.

        The law holds ``value[i]`` on ``[0, switch[i])`` and follows the
        optimal law ``psi[i] / R(t)`` from ``switch[i]`` on: ``switch`` 0
        means no constant slot, ``inf`` no optimal-law segment (a constant
        envelope, or a cap at or below ``psi``, which ``psi / R >= psi``
        meets everywhere).  Otherwise the slot is the law's value at the
        floor, or the cap, until the law falls to it at ``(ln c -
        log1p(-(psi/u_max)**2))/k`` (``c = 4*q0*q1``, ``k = 4*psi**2``),
        which keeps its digits however far the cap lies above ``psi``.
        Where the law diverges at the floor (exactly equal priors) only a
        cap regularizes; uncapped the slot is dropped and evolving the law
        raises :class:`SingularControlError`.  Only the lanes the cap bends compute a fall.
        """
        if self.beta is not None:
            return np.full(psi.shape, math.inf), np.full(psi.shape, float(self.beta))
        t0, u_max = self.t_floor or 0.0, self.u_max
        _reject(psi < 0.0, psi, "psi must be >= 0")
        k = _rate_scale(psi)
        r2 = _law_margin_sq(priors, k, t0)
        live = r2 > 0.0
        value = np.where(live, psi / np.sqrt(np.where(live, r2, 1.0)), math.inf)
        switch = np.where(live, t0, 0.0)
        if u_max is not None:
            over = value > u_max
            flat = over & ((u_max <= psi) | (psi == 0.0))
            switch[flat] = math.inf
            i = np.flatnonzero(over & ~flat)
            # An underflowed k takes the limit 1/(4*u_max**2) of q0*q1 = 1/4; for other priors
            # u_max < 1e-154 then, and both times exceed 1e307.  So does a law diverging at its
            # floor (q0 = q1) where (psi/u_max)**2 underflows; past 3.2e161 so does the limit.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                fall = (_log_c(priors) - np.log1p(-(psi[i] / u_max) ** 2)) / k[i]
            limit = (k[i] <= 0.0) | ~live[i] & (fall <= 0.0)
            fall[limit] = 0.25 / u_max / u_max
            _reject(limit & (fall <= 0.0), u_max, "a cap on a law diverging at t = 0 must be "
                    "at most 3.2e+161: the time it holds, 1/(4*u_max**2), underflows")
            switch[i] = np.maximum(switch[i], fall)
            value[over] = u_max
        return switch, value


class PcState(Record):
    """Conditional error probabilities at time ``t``.

    ``e0 = P[z(t) = 1 | symbol 0]`` and ``e1 = P[z(t) = 0 | symbol 1]``.
    ``pe`` mixes the errors themselves, so a small error probability keeps
    its digits; ``pc`` mixes their complements.
    """

    __slots__ = ("e0", "e1", "t")

    def __init__(self, e0: float, e1: float, t: float) -> None:
        for name, v in (("e0", e0), ("e1", e1)):
            if not -1e-8 <= v <= 1.0 + 1e-8:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if t < 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        self._set(e0, e1, t)

    def pe(self, priors: Priors) -> float:
        return priors.q0 * self.e0 + priors.q1 * self.e1

    def pc(self, priors: Priors) -> float:
        return priors.q0 * (1.0 - self.e0) + priors.q1 * (1.0 - self.e1)


class EvolveResult(Record):
    """ODE solution: the ``final`` state plus a trajectory sampled at
    ``times``, the conditional success probabilities ``p0``, ``p1`` and
    their mix ``pc``."""

    __slots__ = ("final", "times", "p0", "p1", "pc")

    def __init__(
        self, final: PcState, times: np.ndarray, p0: np.ndarray, p1: np.ndarray, pc: np.ndarray
    ) -> None:
        self._set(final, times, p0, p1, pc)

    def __eq__(self, other):
        # numpy's == is element-wise, so the arrays are compared whole.
        if other.__class__ is not self.__class__:
            return NotImplemented
        arrays = zip(self._values()[1:], other._values()[1:])
        return self.final == other.final and all(np.array_equal(a, b) for a, b in arrays)


class Trajectories(NamedTuple):
    """Click records of one chunk of a run's trials, one column each.

    Trial ``i`` drew the symbol ``a[i]``, started on ``Priors.start_bit``,
    clicked at ``times[offsets[i]:offsets[i + 1]]`` (strictly increasing,
    in (0, T]) and ended on ``z_final[i]``.  Each click toggles the
    provisional bit, so ``z_final = start_bit ^ (clicks & 1)``.
    """

    a: np.ndarray
    z_final: np.ndarray
    offsets: np.ndarray
    times: np.ndarray


def _initial_errors(priors: Priors) -> tuple[float, float]:
    # Start bit fixes which conditional starts right: z0 = 0 means the
    # symbol-0 branch is already correct (e0 = 0) and symbol-1 is not.
    return (0.0, 1.0) if priors.start_bit == 0 else (1.0, 0.0)


def _sample_times(psi: float, T: float, sample_times) -> np.ndarray:
    # The sample times of an evolution to T, validated with its psi and T.
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(T <= 0.0, T, "T must be > 0")
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
    points, all within [0, T]); nothing is integrated numerically.  A
    sample at ``t`` is the evolution to the horizon ``t``.

    For equal priors the exact optimal law must carry a cap or time floor,
    otherwise :class:`SingularControlError` is raised.  An optimal-law
    segment must be built for this ``psi``.
    """
    times = _sample_times(psi, T, sample_times)
    starts, values, curve = _segment_table(control, psi, T)
    return _result(priors, T, times, _walk(priors, psi, starts, values, curve, np.append(times, T)))


def evolve_pe(priors: Priors, psi, family: LawFamily, T: float) -> np.ndarray:
    """Error probability at T of each point of a sweep: amplitude ``psi[i]``
    under the law ``family.law(priors, psi[i])``.

    Lane ``i`` equals ``evolve_pc(priors, psi[i], family.law(priors,
    psi[i]), T, sample_times=()).final.pe(priors)`` bit for bit, but no law
    is built per point: each is at most one constant slot, then the optimal
    law (see :meth:`LawFamily.slots`), and all points cross their segments
    in one walk, as :func:`evolve_pc`'s samples do.  Where a prior is 0,
    ``R = 1`` exactly: the optimal law is the constant ``psi``.
    """
    psi = np.asarray(psi, dtype=float)
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(T <= 0.0, T, "T must be > 0")
    switch, value = family.slots(priors, psi)
    _reject(np.isinf(psi), psi, "psi**2 (gamma_sq/T in a sweep) must be at most 1.798e+308")
    e = _walk(priors, psi, (0.0, switch), (value,), priors, np.full(psi.shape, T, dtype=float))
    return priors.q0 * e[0] + priors.q1 * e[1]


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.  Nothing in qsdr
    calls it: it is kept only so that ``perfbench/spans.py`` installs its
    tracer, and goes when ROADMAP item 1 retires that hook."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def segmented_pc(priors: Priors, psi: float, T: float, n: int, *, midpoint: bool = False) -> float:
    """Success probability with the optimal law frozen over n equal slots.

    Each slot holds the optimal feedback value sampled at the slot start
    (midpoint with ``midpoint=True``); :func:`evolve_pc` propagates the
    resulting piecewise-constant law in closed form, so no integrator error
    enters.  Converges to the optimal-receiver value as n grows.

    Slot-start sampling is floored at ``T * 1e-9`` so the equal-priors
    divergence at t = 0 turns into one large but finite first-slot value.
    """
    _reject(T <= 0.0, T, "T must be > 0")
    _reject(n < 1, n, "slot count must be >= 1")
    t = (np.arange(n) + (0.5 if midpoint else 0.0)) * (T / n)
    values = feedback_amplitude(priors, psi, np.maximum(t, T * 1e-9))
    law = ControlLaw.piecewise_constant(values, T)
    return evolve_pc(priors, psi, law, T, sample_times=()).final.pc(priors)


def _segment_table(control: ControlLaw, psi: float, T: float):
    """A law's segments on [0, T] for a signal of amplitude ``psi``: their
    starts below T, the ``u0`` of each constant one and, if the last follows
    the optimal law's curve, that law's priors (else None)."""
    starts = [s for s in control.starts if s < T]
    values = list(control.values[: len(starts)])
    if len(starts) == len(values):
        return starts, values, None
    priors, law_psi = control.optimal
    if law_psi != psi:
        raise ValueError(
            f"optimal law built for psi={law_psi}, not {psi}; "
            "LawFamily(...).law(priors, psi) builds the law of this signal"
        )
    return starts, values, priors


def _curve(priors: Priors, psi, a):
    """``k = 4*psi**2`` of the optimal law of ``priors`` on segments starting
    at ``a``; the first start where ``R = 0``, so the law diverges, raises."""
    k = _rate_scale(psi)
    _refuse_divergence(priors, _law_margin_sq(priors, k, a), a)
    return k


def _walk(priors: Priors, psi, edges, values, curve: Priors | None, h: np.ndarray) -> np.ndarray:
    """Conditional errors at the horizons ``h``, shape ``(2, h.size)``, from
    the start-bit errors of ``priors``: lane ``i``'s law holds ``values[j]``
    on ``[edges[j], edges[j + 1])``, then from any further edge the optimal
    law ``psi/R`` of the priors ``curve`` (``psi``, edges, values: floats or
    lane arrays).  Each segment is cut at its lane's horizon, and one cut to
    nothing leaves the errors exactly as they are.  A diverging law raises
    :class:`SingularControlError`, errors out of [0, 1] :class:`PcState`'s."""
    e = np.repeat(np.array(_initial_errors(priors))[:, None], h.size, axis=1)
    edges = [np.minimum(x, h) for x in (*edges, math.inf)]
    # A rate times a time past the float range (gamma_sq from 4.5e307 on) is
    # inf, and the kernels' exponentials take their limits.
    with np.errstate(over="ignore"):
        for a, b, value in zip(edges, edges[1:], values):
            # A slot cut to nothing gets zero rates, so its value may be inf.
            # Where its rates pass the float range, psi and the value in units of their
            # hypot w, and the time in units of 1/w**2, give the same relaxation.
            on = b > a
            w = np.where(on & np.isinf(sum(rates(psi, value))), np.hypot(psi, value), 1.0)
            lam, mu = (np.where(on, r, 0.0) for r in rates(psi / w, value / w))
            e = _relax_constant(e, lam, mu, (b - a) * w * w)
        a, psi = np.broadcast_arrays(edges[len(values)], psi)
        tail = np.flatnonzero(a < h)
        if tail.size:
            k = _curve(curve, psi[tail], a[tail])
            on = psi[tail] > 0.0  # a law for psi = 0 is 0, and so are its rates
            i = tail[on]
            e[:, i] = _relax_optimal(e[:, i], curve, k[on], a[i], h[i])
    for i in np.flatnonzero(~((e >= -1e-8) & (e <= 1.0 + 1e-8)).all(axis=0))[:1]:
        PcState(float(e[0, i]), float(e[1, i]), float(h[i]))  # raises its range error
    return e


# The two segment kernels: errors ``e`` at a segment's start carried to its
# end.  Both conditionals obey ``e' = lam - (lam + mu) * e``.  All
# arguments broadcast, so one call serves many times or many laws.


def _relax_constant(e, lam, mu, dt):
    """Constant segment of length ``dt`` with rates ``lam``, ``mu``: relaxes
    toward ``lam / (lam + mu)``.  ``lam = mu = 0`` leaves ``e`` as it is, and
    so does a segment of length 0 (``e*1 - x*(-0.0) = e``)."""
    tot = lam + mu
    d = -tot * dt
    # tot = 0 only where lam = mu = 0; lam/1 is then the 0 the limit takes.
    return e * np.exp(d) - lam / np.where(tot != 0.0, tot, 1.0) * np.expm1(d)


def _relax_optimal(e, priors, k, a, t):
    """Optimal-law segment ``u0 = psi/R``, ``R = sqrt(1 - c*exp(-k*t))``, of
    ``priors`` (``c = 4*q0*q1``).

    ``F = exp(k*t) * R`` is an integrating factor, and ``lam*F =
    d/dt[-(1 - R) * exp(k*t) / 2]``.  With ``x = c*exp(-k*t) = 1 - R**2``
    and ``g = exp(-k*(t - a))`` that gives, free of cancellation,

        e_t*R_t = e_a*g*R_a + x_a*x_t*(1 - g) / (2*(R_a + R_t)*(1 + R_a)*(1 + R_t)).
    """
    h = -k * (t - a)
    ra, rt = (np.sqrt(_law_margin_sq(priors, k, s)) for s in (a, t))
    gain = -0.5 * np.exp(2.0 * _log_c(priors) - k * (a + t)) * np.expm1(h)
    return (e * np.exp(h) * ra + gain / ((ra + rt) * (1.0 + ra) * (1.0 + rt))) / rt


class _Segments:
    """The telegraph sampler's hazard: one law's segments on [0, T] for a
    signal of amplitude ``psi``, and their integrated click rates.

    ``edges`` are the law's starts below T, then T.  Constant segment ``i``
    has the click rates ``rate[0, i] = (psi - u0)**2`` (matched branch) and
    ``rate[1, i] = (psi + u0)**2`` (mismatched).  If ``curved = (priors, k)``
    is set, the last segment follows ``u0 = psi/R`` with ``k = 4*psi**2``,
    ``c = 4*q0*q1`` and ``R = sqrt(1 - c*exp(-k*t))``; its table rates are 0.

    ``lam[b, i]`` integrates branch ``b``'s rate from 0 to ``edges[i]``; on
    the optimal-law segment it grows as

        F_0 = ln(R)/2 - ln(1 + R),    F_1 = k*t + ln(R)/2 + ln(1 + R),

    which invert in closed form through ``sqrt(R)``; each method takes one branch ``b``.
    """

    def __init__(self, control: ControlLaw, psi: float, T: float) -> None:
        starts, values, curve = _segment_table(control, psi, T)
        self.edges = np.array([*starts, T])
        self.last = len(starts) - 1
        self.rate = np.zeros((2, len(starts)))
        with np.errstate(over="ignore"):
            self.rate[:, : len(values)] = rates(psi, np.array(values))
        _reject(np.isinf(self.rate[:, : len(values)]), values, "a click rate (psi +- u0)**2 past "
                "the float range cannot be sampled: psi + |u0| must be at most 1.341e+154")
        steps = self.rate * np.diff(self.edges)
        self.curved = None
        if curve is not None:
            self.curved = curve, _curve(curve, psi, starts[-1])
            self.f0 = self._f(self.edges[-2], np.array([0, 1]))
            steps[:, -1] = self._f(T, np.array([0, 1])) - self.f0
        self.lam = np.zeros((2, len(self.edges)))
        np.cumsum(steps, axis=1, out=self.lam[:, 1:])

    def _f(self, t: np.ndarray, b) -> np.ndarray:
        priors, k = self.curved
        # k*t past the float range (psi**2*T from 4.5e307 on) is inf: R = 1 and F_1 = inf.
        with np.errstate(over="ignore"):
            r = np.sqrt(_law_margin_sq(priors, k, t))
            return b * k * t + 0.5 * np.log(r) + (2 * b - 1) * np.log1p(r)

    def _f_inverse(self, f: np.ndarray, b: int) -> np.ndarray:
        priors, k = self.curved
        lnc, c = _log_c(priors), 4.0 * priors.q0 * priors.q1
        if b:  # Mismatched: c * e**-F = w = (1 - x*x) / x.
            w = np.exp(lnc - f)
            x = 2.0 / (w + np.sqrt(w * w + 4.0))
            kt = f - np.log(x) - np.log1p(x * x)
        else:
            # Matched: e**F = x/(1 + x*x), x = sqrt(R); s = sqrt(1 - 4e**2F)
            # gives x = 2e**F/(1 + s) and 1 - R*R = 4s/(1 + s)**2.
            s = np.sqrt(-np.expm1(2.0 * f + 2.0 * math.log(2.0)))
            x = 2.0 * np.exp(f) / (1.0 + s)
            # Where 4e**2F rounds to 1 (R = 1), s = 0 and kt = inf: a time past T, clamped to T.
            with np.errstate(divide="ignore"):
                kt = lnc - np.log(4.0 * s) + 2.0 * np.log1p(s)
        # Below R = x*x = 1/2 those differences of O(1) logs lose kt (to about eps), and ln c
        # loses (q0 - q1)**2 = 1 - c; the margin inverted, c*(1 - e**-kt) = R*R - R(0)**2, does not.
        small = x * x < 0.5
        kt[small] = -np.log1p((_margin_sq(priors, 0.0) - x[small] ** 4) / c)
        return kt / k

    def at(self, t: np.ndarray, b: int) -> np.ndarray:
        """Integrated rate of branch ``b`` from 0 to each ``t[r]`` (in [0, T])."""
        i = np.minimum(np.searchsorted(self.edges, t, "right") - 1, self.last)
        y = self.lam[b][i] + self.rate[b][i] * (t - self.edges[i])
        if self.curved:
            on = i == self.last
            y[on] += self._f(t[on], b) - self.f0[b]
        return y

    def inverse(self, y: np.ndarray, b: int) -> np.ndarray:
        """Times at which branch ``b``'s ``at`` reaches each ``y[r] < lam[b, -1]``."""
        i = np.searchsorted(self.lam[b], y, "right") - 1
        dy = y - self.lam[b][i]
        # The optimal-law segment's table rate is 0; its times come below.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self.edges[i] + dy / self.rate[b][i]
        if self.curved:
            on = i == self.last
            t[on] = self._f_inverse(self.f0[b] + dy[on], b)
        # The closed forms may round below their segment's start.
        return np.maximum(t, self.edges[i])


def telegraph_chunks(
    priors: Priors, psi: float, control: ControlLaw, T: float, trials: int, seed: int
) -> Iterator[tuple[int, Trajectories]]:
    """Monte Carlo of the click-driven telegraph process, one chunk at a time.

    Each trial draws the true symbol from the priors, then samples its
    clicks exactly by time rescaling.  The click rate is ``(psi - u0)**2``
    while the provisional bit matches the symbol and ``(psi + u0)**2``
    otherwise; each click flips the bit and comes where the integrated rate
    of the current branch has grown by an Exp(1) gap.  Those integrals are
    closed forms on each segment of the law (see :class:`ControlLaw`), so
    nothing is solved numerically; an optimal-law segment must be built for
    this ``psi``.

    The trials and their draws are those of :func:`qsdr._streams.trial_chunks`:
    draw ``d >= 1`` is the d-th gap ``-log1p(-u)``, with ``u = k * 2**-53`` formed
    from its 53-bit word ``k`` for live trials only, and the first gap reaching
    past T ends the trial.  A chunk's live trials step in two groups, one per
    branch; a click moves a group's survivors to the other.  A trial live at
    step ``s`` has clicked ``s`` times: that click fills slot ``offsets[trial] + s``.
    Yields ``(i0, records)`` per chunk of trials ``i0, i0 + 1, ...``, in order,
    ``records`` (see :class:`Trajectories`) indexing them from 0; nothing is
    kept across chunks.  The arguments are checked when the first chunk is requested.
    """
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(T <= 0.0, T, "T must be > 0")
    chunks = trial_chunks(seed, trials, priors.q0)
    hazard = _Segments(control, psi, T)
    for i0, a, draws in chunks:
        # Each branch's live trials (branch 1 while the bit is wrong) and their last clicks.
        live = [np.flatnonzero(a == priors.start_bit), np.flatnonzero(a != priors.start_bit)]
        t, clicks, steps, s = [np.zeros(x.size) for x in live], np.zeros(len(a), np.intp), [], 0
        while live[0].size or live[1].size:
            k = next(draws)
            for b in (0, 1):
                if live[b].size:
                    # at(0) = 0.0; the gaps -log1p(-u) of the live trials, -u = k * -2**-53.
                    y = (hazard.at(t[b], b) if s else 0.0) - np.log1p(k[live[b]] * -UNIT)
                    go = y < hazard.lam[b, -1]
                    clicks[live[b][~go]] = s
                    # Rounding may not move a click past T or back onto the last one.
                    tau = np.maximum(hazard.inverse(y[go], b), np.nextafter(t[b][go], T))
                    live[b], t[b] = live[b][go], np.minimum(tau, T)
                    steps.append((s, live[b], t[b]))
            live, t, s = live[::-1], t[::-1], s + 1  # a click flips each group's branch
        offsets = np.concatenate(([0], np.cumsum(clicks)))
        times = np.empty(offsets[-1])
        for s, trial, tau in steps:
            times[offsets[trial] + s] = tau
        yield i0, Trajectories(a, priors.start_bit ^ (clicks & 1), offsets, times)


def _hits(chunks: Iterable[tuple[int, Trajectories]]) -> int:
    # The trials of telegraph_chunks' chunks that end on their true symbol.
    return sum(int(np.count_nonzero(tr.z_final == tr.a)) for _, tr in chunks)


def simulate_telegraph(priors: Priors, psi: float, control: ControlLaw, T: float, trials: int,
                       seed: int) -> McEstimate:
    """Frequency of trials ending on the true symbol and its binomial standard
    error, counted chunk by chunk over :func:`telegraph_chunks`, so memory does
    not grow with ``trials``; iterate that generator for the click records.
    """
    return binomial(_hits(telegraph_chunks(priors, psi, control, T, trials, seed)), trials)
