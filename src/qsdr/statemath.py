"""Closed-form bounds and detection probabilities for binary state discrimination.

Analytic backbone for the whole package: the Helstrom bound and its
multiple-copy form, the locally adaptive measurement angles that attain it,
and the photon-counting receiver family for binary coherent (BPSK) signals:
Kennedy, Kennedy with optimized displacement, and the constant-envelope
simplified Dolinar receiver.

Conventions
-----------
* ``Priors`` holds the source probabilities ``(q0, q1)`` of the two
  hypotheses, ``q0 + q1 = 1``.
* A pair of pure qubit states is parameterized by a half-angle ``theta``;
  the pair overlap is ``chi = cos(2*theta)``, so ``theta = pi/4`` means
  orthogonal states and ``theta -> 0`` identical ones.
* A BPSK source is parameterized by the envelope amplitude ``psi`` and the
  pulse duration ``T``; the mean photon number of a pulse is
  ``gamma_sq = psi**2 * T`` and the overlap of the two coherent states is
  ``exp(-2*gamma_sq)``.

All routines are pure functions, safe to call from any thread.  The
closed forms of the BPSK receivers and the bounds take a float or an array
for each signal argument (``gamma_sq``, ``gamma``, ``psi``, ``beta``,
``overlap``), broadcast them, and return a float for scalar arguments and
an array otherwise; one sweep is then one call.  ``Priors`` stays scalar.
:func:`angle_schedule` returns the n angles of the adaptive strategy as one
float64 array.
Probabilities returned are probabilities of a *correct* decision, except
the ``*_error`` functions: error probabilities in forms that keep their
digits where ``1 - P_c`` would cancel.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record

__all__ = [
    "Priors",
    "QubitPair",
    "helstrom_bound",
    "helstrom_error",
    "coherent_overlap",
    "multicopy_bound",
    "angle_schedule",
    "kennedy_pc",
    "kennedy_error",
    "improved_kennedy_pc",
    "improved_kennedy_error",
    "simplified_dolinar_pc",
    "simplified_dolinar_error",
]

# Slack for validating user-supplied probabilities and overlaps that were
# themselves computed in floating point.
_SUM_TOL = 1e-15
_RANGE_TOL = 1e-12


class Priors(Record):
    """Prior probabilities ``q0``, ``q1`` of the two hypotheses.

    ``Priors(q0)`` fills in ``q1 = 1 - q0``.  Passing both values checks
    that they sum to one within 1e-15.  Both are stored as floats.  The
    convention ``q0 >= q1`` used by some optimizers is not forced here; call
    :meth:`dominant` to obtain the relabeled pair when an operation requires it.
    """

    __slots__ = ("q0", "q1")

    def __init__(self, q0: float, q1: float | None = None) -> None:
        if not 0.0 <= q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {q0}")
        if q1 is None:
            q1 = 1.0 - q0
        elif abs(q0 + q1 - 1.0) > _SUM_TOL:
            raise ValueError(f"priors must sum to 1 within {_SUM_TOL}, got q0+q1={q0 + q1!r}")
        self._set(float(q0), float(q1))

    @property
    def max_prior(self) -> float:
        return max(self.q0, self.q1)

    @property
    def start_bit(self) -> int:
        """Initial provisional decision: guess the likelier hypothesis.

        0 when ``q0 >= 1/2``, else 1.  Every adaptive strategy in this
        package starts from this bit.
        """
        return 0 if self.q0 >= 0.5 else 1

    def swapped(self) -> "Priors":
        """Relabel the hypotheses (swap q0 and q1)."""
        return Priors(self.q1, self.q0)

    def dominant(self) -> "Priors":
        """Return an equivalent pair with ``q0 >= q1``."""
        return self if self.q0 >= self.q1 else self.swapped()


class QubitPair(Record):
    """Two equally shaped pure qubit states separated by half-angle ``theta``.

    The two states are ``cos(theta)|x> +- sin(theta)|y>`` in some orthonormal
    plane basis, so their inner product is ``chi = cos(2*theta) >= 0``.
    """

    __slots__ = ("theta",)

    def __init__(self, theta: float) -> None:
        if not 0.0 <= theta <= math.pi / 4 + _RANGE_TOL:
            raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
        self._set(theta)

    @property
    def chi(self) -> float:
        return math.cos(2.0 * self.theta)

    @classmethod
    def from_overlap(cls, chi: float) -> "QubitPair":
        """Build the pair with inner product ``chi`` in [0, 1]."""
        if not -_RANGE_TOL <= chi <= 1.0 + _RANGE_TOL:
            raise ValueError(f"overlap must lie in [0, 1], got {chi}")
        chi = min(max(chi, 0.0), 1.0)
        return cls(0.5 * math.acos(chi))


def _out(x):
    """A 0-d result as a float, an array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _reject(bad, x, what: str) -> None:
    """Raise ``ValueError`` naming the first value of ``x`` where ``bad`` holds."""
    bad = np.asarray(bad)
    if bad.any():
        raise ValueError(f"{what}, got {np.broadcast_to(x, bad.shape)[bad].flat[0]}")


def _clip_unit(x, name: str):
    # Accept tiny numerical excursions outside [0, 1], reject real ones.
    x = np.asarray(x, dtype=float)
    _reject(~((x >= -_RANGE_TOL) & (x <= 1.0 + _RANGE_TOL)), x, f"{name} must lie in [0, 1]")
    return _out(np.minimum(np.maximum(x, 0.0), 1.0))


def _margin_sq(priors: Priors, w):
    """The Helstrom margin ``R**2 = 1 - 4*q0*q1*overlap**2`` as ``(q0 - q1)**2 + 4*q0*q1*w``,
    two non-negative terms (a prior of 0 gives 1 exactly).  Every margin in the package is
    formed here; each caller forms ``w = 1 - overlap**2`` from its own exact input:
    ``(1 - x)*(1 + x)`` for an overlap ``x``, ``-expm1(-4*gamma_sq)`` for coherent states
    (``psi**2*t`` for the feedback law), ``-expm1(m*ln(chi))`` for ``chi**m``."""
    d = priors.q0 - priors.q1
    return d * d + 4.0 * priors.q0 * priors.q1 * w


def _helstrom_error(priors: Priors, x2, w):
    # c*x2 / (2*(1 + R)) for squared overlap x2 = 1 - w: the numerator stays a product.
    return _out(4.0 * priors.q0 * priors.q1 * x2 / (2.0 * (1.0 + np.sqrt(_margin_sq(priors, w)))))


def helstrom_bound(priors: Priors, overlap: float) -> float:
    """Best possible probability of correctly telling two pure states apart.

    For hypotheses with priors ``(q0, q1)`` and state inner product
    ``overlap`` in [0, 1]::

        P_c = (1 + sqrt(1 - 4*q0*q1*overlap**2)) / 2

    The radicand, :func:`_margin_sq`'s sum, is at least ``(q0 - q1)**2 >= 0``.  At
    ``overlap = 1`` the states carry no information and the bound collapses
    to guessing the likelier hypothesis, ``max(q0, q1)``; at ``overlap = 0``
    it reaches 1.
    """
    x = _clip_unit(overlap, "overlap")
    return _out(0.5 * (1.0 + np.sqrt(_margin_sq(priors, (1.0 - x) * (1.0 + x)))))


def helstrom_error(priors: Priors, overlap: float) -> float:
    """Least possible error probability ``c / (2*(1 + sqrt(1 - c)))``, with
    ``c = 4*q0*q1*overlap**2``: ``1 - helstrom_bound`` without the cancellation."""
    x = _clip_unit(overlap, "overlap")
    return _helstrom_error(priors, x * x, (1.0 - x) * (1.0 + x))


def coherent_overlap(gamma_sq: float) -> float:
    """Inner product ``exp(-2*gamma_sq)`` of the two BPSK coherent states."""
    _reject(gamma_sq < 0.0, gamma_sq, "gamma_sq must be >= 0")
    return _out(np.exp(-2.0 * gamma_sq))


def multicopy_bound(priors: Priors, chi: float, n: int) -> float:
    """Helstrom bound for ``n`` independent copies of a qubit pair.

    ``n`` copies of states with single-copy overlap ``chi`` form a pure pair
    with overlap ``chi**n``, so the bound is ``helstrom_bound(priors,
    chi**n)``; its margin takes ``1 - chi**(2*n)`` from ``chi`` itself, so it
    keeps its digits as ``chi`` nears 1.  ``n = 0`` yields the no-measurement
    guess ``max(q0, q1)``.  Non-decreasing in ``n`` and approaches 1 as ``n``
    grows when ``chi < 1``.
    """
    if n < 0:
        raise ValueError(f"copy count must be >= 0, got {n}")
    chi = _clip_unit(chi, "chi")
    # w = 1 - chi**(2*n): 1 at chi = 0, where ln 0 = -inf, and 0 at n = 0, where 0*ln 0 is nan.
    with np.errstate(divide="ignore"):
        w = -np.expm1(2.0 * n * np.log(chi)) if n else 0.0 * chi
    return _out(0.5 * (1.0 + np.sqrt(_margin_sq(priors, w))))


def angle_schedule(priors: Priors, theta: float, n: int) -> np.ndarray:
    """Measurement angles that let local adaptive measurements reach the bound,
    as one float64 array: ``phis[k - 1]`` is copy ``k``'s.

    At copy ``k`` (while the running provisional decision is 0) the detector
    is rotated to::

        phi_k = arctan2( tan(2*theta), sqrt(1 - 4*q0*q1*chi**(2*(k-1))) ) / 2

    with ``chi = cos(2*theta)``.  When the previous outcome is 1 the
    strategy uses ``pi/2 - phi_k`` instead, and before copy 1 the previous
    bit is ``Priors.start_bit``; ``qsdr.multicopy._effective_angles`` holds
    that truth table.  For equal priors the k = 1 margin vanishes and
    ``arctan2`` takes the limit ``phi_1 = pi/4``.

    The sequence decreases monotonically toward ``theta``, within (0, pi/4]:
    later copies ride on sharper posteriors and measure closer to the states
    themselves.
    """
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if not 0.0 < theta <= math.pi / 4 + _RANGE_TOL:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    # w = 1 - chi**(2*(k - 1)) of the copies before copy k; theta within the slack is pi/4.
    two_theta = 2.0 * min(theta, math.pi / 4)
    w = -np.expm1(2.0 * np.arange(n, dtype=float) * math.log(math.cos(two_theta)))
    return 0.5 * np.arctan2(math.tan(two_theta), np.sqrt(_margin_sq(priors, w)))


def kennedy_pc(priors: Priors, gamma_sq: float) -> float:
    """Success probability of the Kennedy nulling receiver.

    The signal is displaced so that hypothesis 0 maps to the vacuum, and a
    photon counter decides "1" iff at least one photon arrives::

        P_c = q0 + q1 * (1 - exp(-4*gamma_sq))

    Dark counts and sub-unit efficiency are not modelled.
    """
    return 1.0 - kennedy_error(priors, gamma_sq)


def kennedy_error(priors: Priors, gamma_sq: float) -> float:
    """Error probability ``q1 * exp(-4*gamma_sq)`` of the Kennedy receiver:
    ``1 - kennedy_pc`` without the cancellation (only hypothesis 1 is ever
    mistaken, when no photon arrives)."""
    _reject(gamma_sq < 0.0, gamma_sq, "gamma_sq must be >= 0")
    with np.errstate(over="ignore"):  # 4*gamma_sq = inf from 4.5e307 on: exp gives its limit 0
        return _out(priors.q1 * np.exp(-4.0 * gamma_sq))


def improved_kennedy_pc(priors: Priors, gamma: float, beta: float) -> float:
    """Kennedy receiver with a general displacement ``beta``.

    Instead of nulling hypothesis 0 exactly, displace both hypotheses by
    ``beta`` (in the same amplitude units as ``gamma``, i.e. photons**0.5)::

        P_c = q0 * exp(-(gamma - beta)**2) + q1 * (1 - exp(-(gamma + beta)**2))

    ``beta = gamma`` recovers :func:`kennedy_pc`; the optimum lies above
    ``gamma`` (see :func:`qsdr.rootfind.optimal_beta_ik`).  ``beta`` is an
    unrestricted real.
    """
    return 1.0 - improved_kennedy_error(priors, gamma, beta)


def improved_kennedy_error(priors: Priors, gamma: float, beta: float) -> float:
    """Error probability ``q0*(1 - exp(-(gamma - beta)**2)) + q1*exp(-(gamma +
    beta)**2)`` of the Kennedy receiver displaced by ``beta``:
    ``1 - improved_kennedy_pc`` without the cancellation."""
    _reject(gamma < 0.0, gamma, "gamma must be >= 0")
    d0, d1 = gamma - beta, gamma + beta
    with np.errstate(over="ignore"):  # a square past the float range takes its limit
        return _out(-priors.q0 * np.expm1(-d0 * d0) + priors.q1 * np.exp(-d1 * d1))


def simplified_dolinar_pc(priors: Priors, psi: float, beta: float, T: float) -> float:
    """Success probability of the constant-envelope feedback receiver.

    The receiver adds a local field of fixed magnitude ``beta`` whose sign
    flips at every photon click, starting aligned with the likelier
    hypothesis.  With ``s = psi**2 + beta**2``::

        P_c(T) = 1/2 + psi*beta/s + (q0 - 1/2 - psi*beta/s) * exp(-2*s*T)

    ``beta = psi`` reproduces :func:`kennedy_pc` at ``gamma_sq = psi**2*T``;
    ``T = 0`` returns ``q0`` (no light observed yet); ``psi = beta = 0``
    degenerates to ``q0``.
    """
    return 1.0 - simplified_dolinar_error(priors, psi, beta, T)


def simplified_dolinar_error(priors: Priors, psi: float, beta: float, T: float) -> float:
    """Error probability ``D*(1 - E) + q1*E`` of the constant-envelope
    feedback receiver, with ``s = psi**2 + beta**2``, ``D = (psi -
    beta)**2/(2*s)`` and ``E = exp(-2*s*T)``: ``1 - simplified_dolinar_pc``
    without the cancellation (``1/2 - psi*beta/s = D``)."""
    _reject(psi < 0.0, psi, "psi must be >= 0")
    _reject(T < 0.0, T, "T must be >= 0")
    # Where s or 2*s*T overflows, E is its limit 0.
    with np.errstate(over="ignore"):
        s = psi * psi + beta * beta
        # s = 0 only at psi = beta = 0, where the limit of D is 0.  Where 2*s is inf, D,
        # which depends on beta/psi alone, is formed from ratios to h = hypot(psi, beta),
        # whose squares sum to 1.
        big = np.isinf(2.0 * s)
        h = np.where(big, np.hypot(psi, beta), 1.0)
        d = (psi / h - beta / h) ** 2 / np.where(big, 2.0, np.where(s > 0.0, 2.0 * s, math.inf))
        # At T = 0 nothing is observed, so E = 1 even where s is inf.
        x = -2.0 * np.where(T > 0.0, s, 0.0) * T
        return _out(-d * np.expm1(x) + priors.q1 * np.exp(x))
