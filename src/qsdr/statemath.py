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

All routines are pure functions of plain floats, safe to call from any
thread.  Probabilities returned are probabilities of a *correct* decision,
except the ``*_error`` functions: error probabilities in forms that keep
their digits where ``1 - P_c`` would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Priors",
    "QubitPair",
    "CoherentBinary",
    "AngleSchedule",
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


@dataclass(frozen=True)
class Priors:
    """Prior probabilities of the two hypotheses.

    ``Priors(q0)`` fills in ``q1 = 1 - q0``.  Passing both values checks
    that they sum to one within 1e-15.  The convention ``q0 >= q1`` used by
    some optimizers is not forced here; call :meth:`dominant` to obtain the
    relabeled pair when an operation requires it.
    """

    q0: float
    q1: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {self.q0}")
        if self.q1 is None:
            object.__setattr__(self, "q1", 1.0 - self.q0)
        elif abs(self.q0 + self.q1 - 1.0) > _SUM_TOL:
            raise ValueError(
                f"priors must sum to 1 within {_SUM_TOL}, got q0+q1={self.q0 + self.q1!r}"
            )

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

    @property
    def is_symmetric(self) -> bool:
        return abs(self.q0 - self.q1) <= _SUM_TOL

    def swapped(self) -> "Priors":
        """Relabel the hypotheses (swap q0 and q1)."""
        return Priors(self.q1, self.q0)

    def dominant(self) -> "Priors":
        """Return an equivalent pair with ``q0 >= q1``."""
        return self if self.q0 >= self.q1 else self.swapped()


@dataclass(frozen=True)
class QubitPair:
    """Two equally shaped pure qubit states separated by half-angle ``theta``.

    The two states are ``cos(theta)|x> +- sin(theta)|y>`` in some orthonormal
    plane basis, so their inner product is ``chi = cos(2*theta) >= 0``.
    """

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 4 + _RANGE_TOL:
            raise ValueError(f"theta must lie in [0, pi/4], got {self.theta}")

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


@dataclass(frozen=True)
class CoherentBinary:
    """BPSK coherent source: amplitudes ``+-psi`` over a pulse of duration ``T``.

    ``gamma_sq = psi**2 * T`` is the mean photon number of one pulse and the
    only quantity the closed-form error rates depend on.
    """

    psi: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if self.psi < 0.0:
            raise ValueError(f"psi must be >= 0, got {self.psi}")
        if self.T <= 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")

    @property
    def gamma_sq(self) -> float:
        return self.psi * self.psi * self.T

    @property
    def gamma(self) -> float:
        return self.psi * math.sqrt(self.T)

    @classmethod
    def from_mean_photons(cls, gamma_sq: float, T: float = 1.0) -> "CoherentBinary":
        if gamma_sq < 0.0:
            raise ValueError(f"gamma_sq must be >= 0, got {gamma_sq}")
        if T <= 0.0:
            raise ValueError(f"T must be > 0, got {T}")
        return cls(math.sqrt(gamma_sq / T), T)


@dataclass(frozen=True)
class AngleSchedule:
    """Measurement angles ``phi_1 .. phi_n`` for the adaptive local strategy.

    ``angle(k)`` is the angle used at copy ``k`` (1-based) while the previous
    provisional decision is 0; ``flipped(k)`` is the angle ``pi/2 - phi_k``
    used when it is 1.  Truth table of the effective angle:

        previous bit 0  ->  phi_k
        previous bit 1  ->  pi/2 - phi_k

    where "previous bit" for k = 1 is ``Priors.start_bit``.
    """

    phis: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phis) == 0:
            raise ValueError("schedule must contain at least one angle")
        for p in self.phis:
            if not 0.0 < p < math.pi / 2:
                raise ValueError(f"angles must lie in (0, pi/2), got {p}")

    def __len__(self) -> int:
        return len(self.phis)

    def angle(self, k: int) -> float:
        """Angle for copy ``k`` (1-based) after a previous outcome 0."""
        if not 1 <= k <= len(self.phis):
            raise ValueError(f"copy index must lie in 1..{len(self.phis)}, got {k}")
        return self.phis[k - 1]

    def flipped(self, k: int) -> float:
        """Angle for copy ``k`` after a previous outcome 1."""
        return math.pi / 2 - self.angle(k)

    def effective_angle(self, k: int, prev_bit: int) -> float:
        if prev_bit not in (0, 1):
            raise ValueError(f"prev_bit must be 0 or 1, got {prev_bit}")
        return self.angle(k) if prev_bit == 0 else self.flipped(k)


def _clip_unit(x: float, name: str) -> float:
    # Accept tiny numerical excursions outside [0, 1], reject real ones.
    if not -_RANGE_TOL <= x <= 1.0 + _RANGE_TOL:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return min(max(x, 0.0), 1.0)


def helstrom_bound(priors: Priors, overlap: float) -> float:
    """Best possible probability of correctly telling two pure states apart.

    For hypotheses with priors ``(q0, q1)`` and state inner product
    ``overlap`` in [0, 1]::

        P_c = (1 + sqrt(1 - 4*q0*q1*overlap**2)) / 2

    The radicand is bounded below by ``(q0 - q1)**2 >= 0``.  At
    ``overlap = 1`` the states carry no information and the bound collapses
    to guessing the likelier hypothesis, ``max(q0, q1)``; at ``overlap = 0``
    it reaches 1.
    """
    x = _clip_unit(overlap, "overlap")
    radicand = 1.0 - 4.0 * priors.q0 * priors.q1 * x * x
    return 0.5 * (1.0 + math.sqrt(max(radicand, 0.0)))


def helstrom_error(priors: Priors, overlap: float) -> float:
    """Least possible error probability ``c / (2*(1 + sqrt(1 - c)))``, with
    ``c = 4*q0*q1*overlap**2``: ``1 - helstrom_bound`` without the cancellation."""
    x = _clip_unit(overlap, "overlap")
    c = 4.0 * priors.q0 * priors.q1 * x * x
    return c / (2.0 * (1.0 + math.sqrt(max(1.0 - c, 0.0))))


def coherent_overlap(gamma_sq: float) -> float:
    """Inner product ``exp(-2*gamma_sq)`` of the two BPSK coherent states."""
    if gamma_sq < 0.0:
        raise ValueError(f"gamma_sq must be >= 0, got {gamma_sq}")
    return math.exp(-2.0 * gamma_sq)


def multicopy_bound(priors: Priors, chi: float, n: int) -> float:
    """Helstrom bound for ``n`` independent copies of a qubit pair.

    ``n`` copies of states with single-copy overlap ``chi`` form a pure pair
    with overlap ``chi**n``, so the bound is ``helstrom_bound(priors,
    chi**n)``.  ``n = 0`` yields the no-measurement guess ``max(q0, q1)``.
    Non-decreasing in ``n`` and approaches 1 as ``n`` grows when
    ``chi < 1``.
    """
    if n < 0:
        raise ValueError(f"copy count must be >= 0, got {n}")
    chi = _clip_unit(chi, "chi")
    return helstrom_bound(priors, chi**n)


def angle_schedule(priors: Priors, theta: float, n: int) -> AngleSchedule:
    """Measurement angles that let local adaptive measurements reach the bound.

    At copy ``k`` (while the running provisional decision is 0) the detector
    is rotated to::

        phi_k = arctan( tan(2*theta) / sqrt(1 - 4*q0*q1*chi**(2*(k-1))) ) / 2

    with ``chi = cos(2*theta)``.  When the previous outcome is 1 the
    strategy uses ``pi/2 - phi_k`` instead (see :class:`AngleSchedule`).
    For equal priors the k = 1 radicand vanishes and the limit
    ``phi_1 = pi/4`` applies.

    The sequence decreases monotonically toward ``theta``: later copies ride
    on sharper posteriors and measure closer to the states themselves.
    """
    if n < 1:
        raise ValueError(f"schedule length must be >= 1, got {n}")
    if not 0.0 < theta <= math.pi / 4 + _RANGE_TOL:
        raise ValueError(f"theta must lie in (0, pi/4], got {theta}")
    tan2t = math.tan(2.0 * theta)
    chi = math.cos(2.0 * theta)
    four_q = 4.0 * priors.q0 * priors.q1
    phis = []
    for k in range(1, n + 1):
        radicand = 1.0 - four_q * chi ** (2 * (k - 1))
        if radicand <= 0.0:
            # Equal priors, first copy: measure halfway between the states.
            phis.append(math.pi / 4)
        else:
            phis.append(0.5 * math.atan(tan2t / math.sqrt(radicand)))
    return AngleSchedule(tuple(phis))


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
    if gamma_sq < 0.0:
        raise ValueError(f"gamma_sq must be >= 0, got {gamma_sq}")
    return priors.q1 * math.exp(-4.0 * gamma_sq)


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
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    d0, d1 = gamma - beta, gamma + beta
    return -priors.q0 * math.expm1(-d0 * d0) + priors.q1 * math.exp(-d1 * d1)


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
    if psi < 0.0:
        raise ValueError(f"psi must be >= 0, got {psi}")
    if T < 0.0:
        raise ValueError(f"T must be >= 0, got {T}")
    s = psi * psi + beta * beta
    d = (psi - beta) ** 2 / (2.0 * s) if s > 0.0 else 0.0
    return -d * math.expm1(-2.0 * s * T) + priors.q1 * math.exp(-2.0 * s * T)
