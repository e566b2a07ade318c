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
an RK45 integration of the general asymmetric form (for opaque laws, and as
the oracle of the closed forms), a seeded telegraph Monte Carlo of the click
process (streamed chunk by chunk, or reduced to one result), the
piecewise-constant (segmented) approximation, and a residual check of the
algebraic identity that certifies the optimal law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from typing import Callable, NamedTuple

import numpy as np

from ._record import Record
from ._streams import TrialStreams
from .statemath import Priors, _margin_sq, _reject

__all__ = [
    "SingularControlError",
    "IntegrationError",
    "RatePair",
    "ControlLaw",
    "LawFamily",
    "PcState",
    "EvolveResult",
    "Trajectories",
    "TelegraphResult",
    "feedback_amplitude",
    "rates",
    "helstrom_trajectory",
    "evolve_pc",
    "evolve_pe",
    "evolve_pc_general",
    "segmented_pc",
    "simulate_telegraph",
    "telegraph_chunks",
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


# The largest amplitude whose optimal-law rate scale k = 4*psi**2 is a float.
_PSI_MAX = math.sqrt(np.finfo(float).max / 4.0)


def _rate_scale(psi):
    """``k = 4*psi**2`` of the optimal law at amplitude ``psi`` (a float or an
    array), refusing an amplitude where it overflows."""
    _reject(psi > _PSI_MAX, psi, "4*psi**2 overflows: psi**2 (gamma_sq/T in a sweep) must be "
            "at most 4.494e+307, psi at most 6.704e+153")
    return 4.0 * psi * psi


def feedback_amplitude(priors: Priors, psi: float, t: float) -> float:
    """Optimal feedback magnitude ``psi / R(t)`` at time ``t``.

    ``R(t) = sqrt(1 - 4*q0*q1*exp(-4*psi**2*t))`` is the running Helstrom margin (from
    ``statemath._margin_sq`` by numpy, so every route agrees bit for bit); the law starts at
    ``psi / |q0 - q1|`` and falls toward ``psi``.  Only at exactly equal priors does it diverge,
    at t = 0 and where ``4*psi**2*t`` underflows: there it raises :class:`SingularControlError`.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    r2 = _margin_sq(priors, -np.expm1(-_rate_scale(psi) * t))
    if r2 <= 0.0:
        raise SingularControlError(f"optimal feedback diverges at t={t} for q0={priors.q0}")
    return psi / math.sqrt(r2)


def _log_c(priors: Priors) -> float:
    # ln c, c = 4*q0*q1, for the kernels that need it; -inf where a prior is 0.
    c = 4.0 * priors.q0 * priors.q1
    return math.log(c) if c else -math.inf


def rates(psi: float, u: float) -> RatePair:
    """Click rates of the displaced field: ``((psi - u)**2, (psi + u)**2)``."""
    d = psi - u
    s = psi + u
    return RatePair(d * d, s * s)


def helstrom_trajectory(priors: Priors, psi: float, t: float) -> float:
    """Instantaneous two-state Helstrom bound of the partly observed pulse.

    The first ``t`` seconds of the pulse are coherent states of overlap
    ``exp(-2*psi**2*t)``, so this is ``(1 + R(t)) / 2`` with the law's own margin
    ``R(t)`` (:func:`feedback_amplitude`): the best possible success probability at
    time ``t``.  The optimally controlled receiver's P_c(t) rides this curve exactly.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return float(0.5 * (1.0 + np.sqrt(_margin_sq(priors, -np.expm1(-_rate_scale(psi) * t)))))


class ControlLaw(Record):
    """Feedback envelope ``u0(t)`` with the symmetric flip ``u1 = -u0``.

    Segment ``i`` of [0, inf) starts at ``starts[i]`` (``starts[0] == 0``).
    The first ``len(values)`` segments hold the constants ``values``; if
    ``optimal = (priors, psi)`` is set, a last segment follows on which
    ``u0 = feedback_amplitude(priors, psi, t)``.  A cap or time floor is a
    constant prefix slot.  On each segment the integrated click rate, which
    :func:`simulate_telegraph` inverts, and the success probability, which
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
        raises :class:`SingularControlError`.  Both become one constant
        slot; this is ``LawFamily(t_floor=t_floor, u_max=u_max).law(priors,
        psi)``.
        """
        return LawFamily(t_floor=t_floor, u_max=u_max).law(priors, psi)

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
    :func:`evolve_pe` takes it whole, so no law is built per point;
    :meth:`law` builds the law of one point."""

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
        with np.errstate(over="ignore"):  # k*t0 = inf takes the margin's limit 1
            r2 = _margin_sq(priors, -np.expm1(-k * t0))
        live = r2 > 0.0
        value = np.where(live, psi / np.sqrt(np.where(live, r2, 1.0)), math.inf)
        switch = np.where(live, t0, 0.0)
        if u_max is not None:
            over = value > u_max
            flat = over & ((u_max <= psi) | (psi == 0.0))
            switch[flat] = math.inf
            i = np.flatnonzero(over & ~flat)
            # An underflowed k takes the limit 1/(4*u_max**2) of q0*q1 = 1/4; for
            # other priors u_max < 1e-154 then, and both times exceed 1e307.
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                fall = (_log_c(priors) - np.log1p(-(psi[i] / u_max) ** 2)) / k[i]
            switch[i] = np.maximum(switch[i], np.where(k[i] > 0.0, fall, 0.25 / u_max / u_max))
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
    """Click records of a run's trials (or of one chunk of them), one
    column each.

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

    @classmethod
    def from_chunks(
        cls, chunks: Iterable[tuple[int, Trajectories]], keep_trajectories: bool = False
    ) -> "TelegraphResult":
        """Reduce the chunks of :func:`telegraph_chunks`: the frequency of
        trials ending on the true symbol, its binomial standard error and,
        on request, the chunks' records joined into one."""
        hits = trials = 0
        kept = []
        for _, tr in chunks:
            hits += int(np.count_nonzero(tr.z_final == tr.a))
            trials += len(tr.a)
            if keep_trajectories:
                kept.append(tr)
        p = hits / trials
        trajectories = None
        if keep_trajectories:
            a, z, offsets, times = zip(*kept)
            counts = np.concatenate([np.diff(o) for o in offsets])
            offsets = np.concatenate(([0], np.cumsum(counts)))
            trajectories = Trajectories(
                np.concatenate(a), np.concatenate(z), offsets, np.concatenate(times)
            )
        return cls(p, math.sqrt(p * (1.0 - p) / trials), trajectories)


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
    points, all within [0, T]); nothing is integrated numerically.  A
    sample at ``t`` is the evolution to the horizon ``t``.

    For equal priors the exact optimal law must carry a cap or time floor,
    otherwise :class:`SingularControlError` is raised.  An optimal-law
    segment must be built for this ``psi``; :func:`evolve_pc_general`
    integrates any other law.
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
    e = _walk(priors, psi, (0.0, switch), (value,), priors, np.full(psi.shape, T, dtype=float))
    return priors.q0 * e[0] + priors.q1 * e[1]


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
        raise IntegrationError(f"integration stalled at t={float(sol.t[-1])!r}: {sol.message}")
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
            "evolve_pc_general(..., law.u0, law.u1, ...) integrates it"
        )
    return starts, values, priors


def _curve(priors: Priors, psi, a):
    """``k = 4*psi**2`` of the optimal law of ``priors`` on segments starting
    at ``a``; the first start where ``R = 0``, so the law diverges, raises."""
    k = _rate_scale(psi)
    for t in np.asarray(a)[_margin_sq(priors, -np.expm1(-k * a)) <= 0.0][:1]:
        raise SingularControlError(f"optimal feedback diverges at t={t} for q0={priors.q0}")
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
            lam, mu = (np.where(b > a, r, 0.0) for r in rates(psi, value))
            e = _relax_constant(e, lam, mu, a, b)
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


# The two segment kernels: errors ``e`` at the segment's start ``a`` carried
# to ``t``.  Both conditionals obey ``e' = lam - (lam + mu) * e``.  All
# arguments broadcast, so one call serves many times or many laws.


def _relax_constant(e, lam, mu, a, t):
    """Constant segment with rates ``lam``, ``mu``: relaxes toward ``lam /
    (lam + mu)``.  ``lam = mu = 0`` leaves ``e`` as it is, and so does a
    segment of length 0 (``e*1 - x*(-0.0) = e``)."""
    tot = lam + mu
    d = -tot * (t - a)
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
    ra, rt = (np.sqrt(_margin_sq(priors, -np.expm1(-k * s))) for s in (a, t))
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

    which invert in closed form through ``sqrt(R)``.
    """

    def __init__(self, control: ControlLaw, psi: float, T: float) -> None:
        starts, values, curve = _segment_table(control, psi, T)
        self.edges = np.array([*starts, T])
        self.last = len(starts) - 1
        self.rate = np.zeros((2, len(starts)))
        self.rate[:, : len(values)] = rates(psi, np.array(values))
        steps = self.rate * np.diff(self.edges)
        self.curved = None
        if curve is not None:
            self.curved = curve, _curve(curve, psi, starts[-1])
            self.f0 = self._f(self.edges[-2], np.array([0, 1]))
            steps[:, -1] = self._f(T, np.array([0, 1])) - self.f0
        self.lam = np.zeros((2, len(self.edges)))
        np.cumsum(steps, axis=1, out=self.lam[:, 1:])

    def _f(self, t: np.ndarray, b: np.ndarray) -> np.ndarray:
        priors, k = self.curved
        r = np.sqrt(_margin_sq(priors, -np.expm1(-k * t)))
        return b * k * t + 0.5 * np.log(r) + (2 * b - 1) * np.log1p(r)

    def _f_inverse(self, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        priors, k = self.curved
        lnc, c = _log_c(priors), 4.0 * priors.q0 * priors.q1
        m, x, kt = b == 0, np.empty_like(f), np.empty_like(f)
        # Matched: e**F = x/(1 + x*x), x = sqrt(R); s = sqrt(1 - 4e**2F)
        # gives x = 2e**F/(1 + s) and 1 - R*R = 4s/(1 + s)**2.
        s = np.sqrt(-np.expm1(2.0 * f[m] + 2.0 * math.log(2.0)))
        x[m] = 2.0 * np.exp(f[m]) / (1.0 + s)
        # Where 4e**2F rounds to 1 (R = 1), s = 0 and kt = inf: a time past T, clamped to T.
        with np.errstate(divide="ignore"):
            kt[m] = lnc - np.log(4.0 * s) + 2.0 * np.log1p(s)
        # Mismatched: c * e**-F = w = (1 - x*x) / x.
        w = np.exp(lnc - f[~m])
        x1 = x[~m] = 2.0 / (w + np.sqrt(w * w + 4.0))
        kt[~m] = f[~m] - np.log(x1) - np.log1p(x1 * x1)
        # Below R = x*x = 1/2 those differences of O(1) logs lose kt (to about eps), and ln c
        # loses (q0 - q1)**2 = 1 - c; the margin inverted, c*(1 - e**-kt) = R*R - R(0)**2, does not.
        small = x * x < 0.5
        kt[small] = -np.log1p((_margin_sq(priors, 0.0) - x[small] ** 4) / c)
        return kt / k

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

    Trial i reads the counter-based uniforms of ``(seed, i)`` (see
    :mod:`qsdr._streams`): draw 0 picks the symbol, draw ``d >= 1`` is the
    d-th gap ``-log1p(-u)``, and the first gap reaching past T ends the
    trial.  A chunk's trials advance together, one array step per gap, so
    results do not depend on chunking.  Yields ``(i0, records)`` for each
    chunk of trials ``i0, i0 + 1, ...``, in order, where ``records`` (see
    :class:`Trajectories`) indexes the chunk's trials from 0.  Nothing is
    kept across chunks, so memory does not grow with ``trials``.  The
    arguments are checked when the first chunk is requested.
    """
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T <= 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    hazard = _Segments(control, psi, T)
    end = hazard.lam[:, -1]
    streams = TrialStreams(seed)
    for i0, u in streams.chunks(trials):
        n = len(u)
        a = (u[:, 0] >= priors.q0).astype(np.intp)
        # The live trials: their index, branch (1 while the bit is wrong) and last click.
        live, b, t = np.arange(n), a ^ priors.start_bit, np.zeros(n)
        rows, taus = [], []  # (trial, time) of each gap step's clicks
        d = 0
        while live.size:
            d += 1
            j, w = divmod(d, 4)
            if w == 0:
                u = streams.block(i0, j, n)
            y = hazard.at(t, b) - np.log1p(-u[live, w])
            go = y < end[b]
            live, b, y = live[go], b[go], y[go]
            # Rounding may not move a click past T or back onto the last one.
            t = np.minimum(np.maximum(hazard.inverse(y, b), np.nextafter(t[go], T)), T)
            b ^= 1
            rows.append(live)
            taus.append(t)
        # Steps come in time order, so a stable sort by trial keeps each
        # trial's clicks in time order.
        trial = np.concatenate(rows)
        clicks = np.bincount(trial, minlength=n)
        offsets = np.concatenate(([0], np.cumsum(clicks)))
        times = np.concatenate(taus)[np.argsort(trial, kind="stable")]
        yield i0, Trajectories(a, priors.start_bit ^ (clicks & 1), offsets, times)


def simulate_telegraph(
    priors: Priors,
    psi: float,
    control: ControlLaw,
    T: float,
    trials: int,
    seed: int,
    keep_trajectories: bool = False,
) -> TelegraphResult:
    """Frequency of trials ending on the true symbol, its binomial standard
    error and, on request, the click records of all trials: the reduction
    (:meth:`TelegraphResult.from_chunks`) of :func:`telegraph_chunks`.
    Memory does not grow with ``trials`` unless trajectories are kept;
    iterate :func:`telegraph_chunks` to handle the records chunk by chunk.
    """
    chunks = telegraph_chunks(priors, psi, control, T, trials, seed)
    return TelegraphResult.from_chunks(chunks, keep_trajectories)


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
    r_sq = _margin_sq(priors, -np.expm1(-_rate_scale(psi) * t))
    if np.any(r_sq <= 0.0):
        raise SingularControlError("t_grid touches a point where R(t) = 0")
    R = np.sqrt(r_sq)
    u = psi / R
    lhs = psi * psi * (1.0 - r_sq) / R
    rhs = psi * psi + u * u + 2.0 * psi * u - (psi * psi + u * u) * (1.0 + R)
    return float(np.max(np.abs(lhs - rhs)))
