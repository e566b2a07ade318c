"""Bracketed root finding and the optimal receiver displacements.

Generic utilities (Brent's root finder, lane-wise over arrays of brackets
in numpy so that no scipy is imported and one call solves a whole sweep,
and a golden-section maximizer that nothing in qsdr calls) plus the two
displacement optimizations, each a Brent solve of its stationarity residual
on an analytic bracket that provably holds the maximum, for a float or an
array of signals:

* ``optimal_beta_ik``: displacement of the optimized Kennedy receiver
  (:func:`qsdr.statemath.improved_kennedy_pc`), whose residual is strictly
  monotone, so its root is the global maximum for every ``gamma > 0``.
* ``optimal_beta_sd``: envelope magnitude of the simplified Dolinar receiver
  (:func:`qsdr.statemath.simplified_dolinar_pc`).  That the maximum is the
  only critical point in its bracket is checked at 50 digits by a property
  test, not proved.

Each is the one-problem case of :func:`solve_jointly`, which runs the
residuals of several problems (``beta_ik_problem``, ``beta_sd_problem``) as
the lanes of a single Brent solve: a sweep that wants both displacements
pays for one solver loop.  Lanes are independent, so every lane takes the
steps it takes alone.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .statemath import Priors, _out, _reject, improved_kennedy_error, kennedy_error, simplified_dolinar_error
from .statemath import improved_kennedy_pc  # not called here; perfbench/spans.py counts it
from .statemath import simplified_dolinar_pc  # not called here; perfbench/spans.py counts it

__all__ = [
    "BracketError",
    "ConvergenceError",
    "solve_bracketed",
    "golden_max",
    "Problem",
    "solve_jointly",
    "beta_ik_problem",
    "optimal_beta_ik",
    "ik_displacement_residual",
    "beta_sd_problem",
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


def _lane(mask: np.ndarray) -> tuple[int, str]:
    # Flat index of the first lane where mask holds, and its name for messages.
    i = int(np.flatnonzero(mask)[0])
    return i, f"lane {i}: " if mask.ndim else ""


def solve_bracketed(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Roots of ``f`` on the brackets [lo, hi] by Brent's method, lane-wise.

    ``lo`` and ``hi`` broadcast to one array of brackets, and ``f`` maps an
    array of abscissae of that shape to the residuals of each lane (lane
    ``i`` of the result may depend only on lane ``i`` of its argument).
    Each step is an inverse quadratic or secant step when that lands well
    inside the bracket and a bisection otherwise (Brent 1973, ch. 4, with
    the step rule and tolerances of ``scipy.optimize``'s Brent solver at
    ``xtol=1e-300``), so every lane takes the steps that solver takes on
    its own residual, and its root lies within ``4*eps*|root|`` of a sign
    change of ``f`` and never leaves [lo, hi].  A lane that has converged
    is frozen, so ``f`` is only ever evaluated inside each lane's bracket.
    An end where ``f`` is exactly zero is returned as it is.  ``f`` must be
    finite on [lo, hi].  Scalar ends give a float, arrays an array.

    Raises :class:`BracketError` when ``f`` has the same sign at both ends
    of a lane and :class:`ConvergenceError` when a lane is still open after
    :data:`_MAX_ITER` steps; the message names the first such lane.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    bad = ~(lo < hi)
    if bad.any():
        i, lane = _lane(bad)
        raise ValueError(f"{lane}bracket requires lo < hi, got [{lo.flat[i]}, {hi.flat[i]}]")
    # cur: best iterate; blk: the other end of the bracket; pre: last iterate.
    x_pre, x_cur = lo, hi
    f_pre, f_cur = np.asarray(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    root = np.where(f_pre == 0.0, lo, hi)
    live = (f_pre != 0.0) & (f_cur != 0.0)
    bad = live & ((f_pre < 0.0) == (f_cur < 0.0))
    if bad.any():
        i, lane = _lane(bad)
        raise BracketError(
            f"{lane}f has no sign change on [{lo.flat[i]}, {hi.flat[i]}]: "
            f"f(lo)={float(f_pre.flat[i])!r}, f(hi)={float(f_cur.flat[i])!r}"
        )
    x_blk = f_blk = s_pre = s_cur = np.zeros(lo.shape)
    # Finished lanes and the branches np.where discards may divide by zero.
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            # Finished lanes take no branch: every x of theirs stays put.
            flip = live & ((f_pre < 0.0) != (f_cur < 0.0))
            x_blk, f_blk = np.where(flip, x_pre, x_blk), np.where(flip, f_pre, f_blk)
            s_pre, s_cur = np.where(flip, x_cur - x_pre, s_pre), np.where(flip, x_cur - x_pre, s_cur)
            swap = live & (np.abs(f_blk) < np.abs(f_cur))
            x_pre, x_cur, x_blk = (
                np.where(swap, x_cur, x_pre), np.where(swap, x_blk, x_cur), np.where(swap, x_cur, x_blk)
            )
            f_pre, f_cur, f_blk = (
                np.where(swap, f_cur, f_pre), np.where(swap, f_blk, f_cur), np.where(swap, f_cur, f_blk)
            )
            delta = (_TOL_FLOOR + _RTOL * np.abs(x_cur)) / 2.0
            s_bis = (x_blk - x_cur) / 2.0
            done = live & ((f_cur == 0.0) | (np.abs(s_bis) < delta))
            root = np.where(done, x_cur, root)
            live = live & ~done
            if not live.any():
                return _out(root)
            # Secant where pre and blk coincide, else inverse quadratic.  C
            # divides an underflowed 0 into inf or nan, which the step test
            # below rejects, as it rejects a lane that does not interpolate.
            d_pre = (f_pre - f_cur) / (x_pre - x_cur)
            d_blk = (f_blk - f_cur) / (x_blk - x_cur)
            secant = x_pre == x_blk
            num = np.where(secant, -f_cur * (x_cur - x_pre), -f_cur * (f_blk * d_blk - f_pre * d_pre))
            den = np.where(secant, f_cur - f_pre, d_blk * d_pre * (f_blk - f_pre))
            interp = (np.abs(s_pre) > delta) & (np.abs(f_cur) < np.abs(f_pre))
            s_try = np.where(interp, num / den, np.inf)
            take = 2.0 * np.abs(s_try) < np.minimum(np.abs(s_pre), 3.0 * np.abs(s_bis) - delta)
            s_pre, s_cur = np.where(take, s_cur, s_bis), np.where(take, s_try, s_bis)
            x_pre, f_pre = x_cur, f_cur
            step = np.where(np.abs(s_cur) > delta, s_cur, np.copysign(delta, s_bis))
            x_cur = np.where(live, x_cur + step, x_cur)
            f_cur = np.asarray(f(x_cur), dtype=float)
    i, lane = _lane(live)
    raise ConvergenceError(
        f"{lane}no convergence within {_MAX_ITER} iterations on [{lo.flat[i]}, {hi.flat[i]}]; "
        f"last iterate {float(x_cur.flat[i])!r}"
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


class Problem(NamedTuple):
    """One optimizer's lane-wise solve: the residual ``f`` on the brackets
    ``[lo, hi]`` (arrays of one shape, no lanes at all where the answer
    needs no solve), and ``finish``, which maps the roots, in that shape,
    to the answer and checks it."""

    f: Callable[[np.ndarray], np.ndarray] | None
    lo: np.ndarray
    hi: np.ndarray
    finish: Callable[[np.ndarray], object]


def _answer(result) -> Problem:
    # A problem whose answer is known without a solve.
    none = np.empty(0)
    return Problem(None, none, none, lambda _: result)


def solve_jointly(*problems: Problem) -> list:
    """The answers of ``problems``, their residuals solved as the lanes of
    one :func:`solve_bracketed` call (none if no problem has a lane).  A
    lane depends only on its own residual, so each answer is the one its
    problem gets solved alone; an error names the lane in the joint solve."""
    cuts = np.cumsum([0] + [p.lo.size for p in problems]).tolist()
    lanes = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    roots = np.empty(0)
    if cuts[-1]:
        def f(x):
            return np.concatenate([np.ravel(p.f(x[s].reshape(p.lo.shape)))
                                   for p, s in zip(problems, lanes) if p.f is not None])

        lo = np.concatenate([np.ravel(p.lo) for p in problems])
        roots = solve_bracketed(f, lo, np.concatenate([np.ravel(p.hi) for p in problems]))
    return [p.finish(roots[s].reshape(p.lo.shape)) for p, s in zip(problems, lanes)]


def _no_worse_than_kennedy(priors: Priors, error, root, gamma) -> None:
    # An optimum that errs more often than the Kennedy point b = gamma, where both
    # receivers are the nulling one, means the solve went wrong.  A gamma**2 past the
    # float range gives the Kennedy error's limit 0.
    with np.errstate(over="ignore"):
        worse = np.asarray(error > kennedy_error(priors, gamma * gamma) + 1e-12)
    if worse.any():
        i, lane = _lane(worse)
        raise ConvergenceError(f"{lane}stationary point {root.flat[i]} does not improve "
                               f"on the Kennedy point {gamma.flat[i]}")


def _log_odds(priors: Priors) -> float:
    # ln(q0/q1) as log1p of the excess, which keeps its digits near q0 = 1/2; the
    # quotient overflows when q1 is subnormal, the difference of logs does not.
    excess = (priors.q0 - priors.q1) / priors.q1
    return math.log1p(excess) if math.isfinite(excess) else math.log(priors.q0) - math.log(priors.q1)


def _ik_log_residual(log_odds: float, gamma, u):
    # ln(q0/q1) - ln((beta+gamma)/(beta-gamma)) + 4*beta*gamma at beta - gamma = e**u.
    # u - ln(2*gamma + e**u) cancels where e**u >= 2*gamma: there it is taken as
    # -log1p(2*gamma/e**u), whose quotient is kept finite on the other lanes.
    e, g2 = np.exp(u), 2.0 * gamma
    near = log_odds - np.log1p(g2 / np.maximum(e, g2))
    head = np.where(e >= g2, near, log_odds + u - np.log(g2 + e))
    return head + 4.0 * gamma * (gamma + e)


def ik_displacement_residual(priors: Priors, gamma: float, beta: float) -> float:
    """Stationarity residual of the optimized Kennedy displacement.

    ``ln(q0/q1) - ln((beta + gamma)/(beta - gamma)) + 4*beta*gamma``: zero
    exactly at the first-order condition of
    :func:`qsdr.statemath.improved_kennedy_pc` on ``beta > gamma``, negative
    below its root and positive above it.  Requires ``q1 > 0``.
    """
    _reject(beta <= gamma, beta, "residual defined for beta > gamma")
    return _out(_ik_log_residual(_log_odds(priors), gamma, np.log(beta - gamma)))


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
    the displacement.  An array of ``gamma`` is one lane-wise solve.
    """
    return solve_jointly(beta_ik_problem(priors, gamma))[0]


def beta_ik_problem(priors: Priors, gamma) -> Problem:
    """:func:`optimal_beta_ik` as a :class:`Problem` for :func:`solve_jointly`."""
    gamma = np.asarray(gamma, dtype=float)
    _reject(gamma <= 0.0, gamma, "gamma must be > 0")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_ik requires q0 >= q1; swap the labels first")
    if priors.q1 == 0.0:
        return _answer(_out(gamma))
    log_odds = _log_odds(priors)
    # From gamma = 32 on the optimal excess e**u, below 2*gamma*exp(-4*gamma**2), underflows
    # whatever gamma is, so those lanes solve at 32, where 4*gamma**2 cannot overflow.
    g = np.minimum(gamma, 32.0)
    lo = np.log(2.0 * g) - log_odds - 4.0 * g * g - 1.0

    def finish(u):
        beta = gamma + np.exp(u)
        _no_worse_than_kennedy(priors, improved_kennedy_error(priors, gamma, beta), beta, gamma)
        return _out(beta)

    return Problem(lambda u: _ik_log_residual(log_odds, g, u), lo, -np.log(g), finish)


def sd_displacement_residual(priors: Priors, psi: float, T: float, beta: float) -> float:
    """Stationarity residual of the simplified Dolinar envelope magnitude.

    In the units ``gamma = psi*sqrt(T)``, ``b = beta*sqrt(T)`` and with ``s``,
    ``A``, ``B`` and ``c`` as in :func:`optimal_beta_sd`, it is ``-G'(b)``
    divided by the positive ``gamma*B/s``, so it has the sign of
    ``-dP_c/dbeta``: ``(b**2 - gamma**2)/s - 2*w*(b/gamma)*A`` with ``w =
    2*s/(exp(2*s) - 1)`` in ``(0, 1]``.  It is evaluated in the ratios ``g =
    gamma/sqrt(s)`` and ``u = b/sqrt(s)``, as ``(u - g)*(u + g)`` and ``A =
    g*u - c``, or ``q1 - (u - g)**2/2`` where ``g*u >= 1/4``, so that nothing
    cancels, overflows or underflows; at ``b = gamma`` it is exactly
    ``-2*w*q1``.  Requires ``psi > 0``.
    """
    root_t = np.sqrt(T)
    gamma, b = psi * root_t, beta * root_t
    h = np.hypot(gamma, b)  # sqrt(s), without squaring gamma or b
    g, u = gamma / h, b / h
    hx = np.minimum(h, 32.0)  # past 32, w is 0 (x*exp(-x) underflows) and 2*h*h may overflow
    x = 2.0 * hx * hx
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch where x = 0
        w = np.where(x > 0.0, x * np.exp(-x) / -np.expm1(-x), 1.0)
    gu = g * u
    a = np.where(gu < 0.25, gu - (priors.q0 - 0.5), priors.q1 - 0.5 * (u - g) ** 2)
    return _out((u - g) * (u + g) - 2.0 * w * (b / gamma) * a)


def optimal_beta_sd(priors: Priors, psi: float, T: float) -> float:
    """Envelope magnitude maximizing the simplified Dolinar receiver.

    ``P_c`` depends only on ``gamma = psi*sqrt(T)`` and ``b = beta*sqrt(T)``,
    so the solve runs in those units (``T = 1``) and returns ``b/sqrt(T)``.
    With ``s = gamma**2 + b**2`` and ``c = q0 - 1/2 >= 0``, the gain over
    guessing is ``G = P_c - q0 = A*B``, ``A = gamma*b/s - c``, ``B = 1 -
    exp(-2*s)``, so ``A' = gamma*(gamma**2 - b**2)/s**2`` and ``B' =
    4*b*exp(-2*s)``.  The maximum over ``b >= 0`` lies in ``[gamma, b_hi]``,
    ``b_hi = max(sqrt(3)*gamma, sqrt(2))``, where the residual (of the sign
    of ``-G'``) is negative at ``gamma`` and positive at ``b_hi``:

    * Below ``gamma`` both ``A`` and ``B`` increase, up to ``A = q1 >= 0``,
      so ``G(b) < G(gamma)``.  At ``gamma``, ``A' = 0`` and ``G' = A*B' =
      4*q1*gamma*exp(-4*gamma**2) > 0`` when ``q1 > 0``.
    * From ``b_hi`` on, ``b**2 >= 3*gamma**2`` gives ``|A'|*B >=
      gamma*B/(2*s)``, and ``s >= b**2 >= 2`` gives ``exp(2*s) - 1 > 8*b**2``,
      so ``gamma*B/(2*s) > (gamma*b/s)*B'``.  As ``A <= gamma*b/s``, ``G' =
      A*B' - |A'|*B < 0``: ``G`` strictly decreases.

    Once ``exp(-4*gamma**2)`` underflows (``gamma`` above about 13.6) the
    residual at ``gamma`` is zero and ``gamma`` is returned: the true excess,
    about ``8*q1*gamma**3*exp(-4*gamma**2)``, is far below one ulp.  With
    ``q1 = 0``, ``G = -(b - gamma)**2*B/(2*s)`` peaks at ``gamma``, which is
    returned.  Requires ``psi > 0``, ``T > 0`` and ``q0 >= q1``.  An array
    of ``psi`` is one lane-wise solve.
    """
    return solve_jointly(beta_sd_problem(priors, psi, T))[0]


def beta_sd_problem(priors: Priors, psi, T: float) -> Problem:
    """:func:`optimal_beta_sd` as a :class:`Problem` for :func:`solve_jointly`."""
    psi = np.asarray(psi, dtype=float)
    _reject(psi <= 0.0, psi, "psi must be > 0")
    _reject(T <= 0.0, T, "T must be > 0")
    if priors.q0 < priors.q1:
        raise ValueError("optimal_beta_sd requires q0 >= q1; swap the labels first")
    if priors.q1 == 0.0:
        return _answer(_out(psi))
    root_t = np.sqrt(T)
    gamma = psi * root_t
    hi = np.maximum(math.sqrt(3.0) * gamma, math.sqrt(2.0))

    def finish(b):
        _no_worse_than_kennedy(priors, simplified_dolinar_error(priors, gamma, b, 1.0), b, gamma)
        return _out(b / root_t)

    return Problem(lambda b: sd_displacement_residual(priors, gamma, 1.0, b), gamma, hi, finish)
