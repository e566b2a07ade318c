"""Closed-form layer: bounds, receiver probabilities, angle schedules.

Reference values marked "frozen" were computed independently at 40-digit
precision and pasted here as double literals.
"""

import math
import warnings
from types import SimpleNamespace

from hypothesis import given, settings
import mpmath
from mpmath import mpf
import numpy as np
import pytest

import qsdr.cli as cli
from qsdr import (
    Priors,
    QubitPair,
    angle_schedule,
    coherent_overlap,
    helstrom_bound,
    helstrom_error,
    helstrom_trajectory,
    ik_displacement_residual,
    improved_kennedy_error,
    improved_kennedy_pc,
    kennedy_error,
    kennedy_pc,
    multicopy_bound,
    optimal_beta_ik,
    optimal_beta_sd,
    sd_displacement_residual,
    simplified_dolinar_error,
    simplified_dolinar_pc,
)
from test_cli import edge_priors, log_uniform
from test_multicopy import COPY_GRID, hex_digest

OVERLAP_AT_02 = 0.6703200460356393        # exp(-0.4), frozen
HELSTROM_HALF_02 = 0.87103606155021455    # helstrom, q0=0.5, overlap exp(-0.4)
KENNEDY_HALF_02 = 0.7753355179413892      # kennedy, q0=0.5, gamma_sq=0.2
KENNEDY_07_02 = 0.86520131076483352
IK_EXAMPLE = 0.82147055579754036          # q0=0.5, gamma=0.447214, beta=0.6
MULTICOPY_06_08_2 = 0.8894817068874994    # q0=0.6, chi=0.8, n=2
PHI1_06_PI8 = 0.68670038347250793         # = atan(5)/2
EPS = math.ulp(1.0)


class TestPriors:
    def test_fills_complement(self):
        pr = Priors(0.3)
        assert pr.q1 == 0.7

    def test_explicit_pair_accepted(self):
        pr = Priors(0.25, 0.75)
        assert pr.q0 == 0.25 and pr.q1 == 0.75

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            Priors(0.5, 0.6)

    @pytest.mark.parametrize("q0", [-0.1, 1.1])
    def test_rejects_out_of_range(self, q0):
        with pytest.raises(ValueError):
            Priors(q0)

    def test_max_prior_and_start_bit(self):
        assert Priors(0.5).start_bit == 0
        assert Priors(0.49).start_bit == 1
        assert Priors(0.2).max_prior == 0.8

    def test_swapped_and_dominant(self):
        pr = Priors(0.3)
        assert pr.swapped().q0 == 0.7
        assert pr.dominant().q0 == 0.7
        assert Priors(0.7).dominant() is not None
        assert Priors(0.7).dominant().q0 == 0.7


class TestQubitPair:
    def test_chi_is_cos_of_double_angle(self):
        qp = QubitPair(0.3)
        assert qp.chi == pytest.approx(math.cos(0.6), abs=0)

    def test_limits(self):
        assert QubitPair(0.0).chi == 1.0
        assert QubitPair(math.pi / 4).chi == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("chi", np.linspace(0.0, 1.0, 11))
    def test_from_overlap_roundtrip(self, chi):
        assert QubitPair.from_overlap(chi).chi == pytest.approx(chi, abs=1e-15)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            QubitPair(-0.01)
        with pytest.raises(ValueError):
            QubitPair(math.pi / 4 + 1e-6)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            QubitPair.from_overlap(1.001)


class TestHelstromBound:
    def test_orthogonal_states(self):
        assert helstrom_bound(Priors(0.5), 0.0) == 1.0

    def test_identical_states(self):
        assert helstrom_bound(Priors(0.5), 1.0) == 0.5
        assert helstrom_bound(Priors(0.8), 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_frozen_value(self):
        assert helstrom_bound(Priors(0.5), OVERLAP_AT_02) == pytest.approx(
            HELSTROM_HALF_02, abs=1e-15
        )

    def test_never_below_blind_guess(self):
        for q0 in np.linspace(0.0, 1.0, 21):
            pr = Priors(float(q0))
            for x in np.linspace(0.0, 1.0, 21):
                assert helstrom_bound(pr, float(x)) >= pr.max_prior - 1e-15

    def test_monotone_in_overlap(self):
        xs = np.linspace(0.0, 1.0, 101)
        pcs = [helstrom_bound(Priors(0.6), float(x)) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(pcs, pcs[1:]))

    def test_balanced_priors_are_hardest(self):
        x = 0.7
        base = helstrom_bound(Priors(0.5), x)
        for q0 in (0.55, 0.6, 0.75, 0.9):
            assert helstrom_bound(Priors(q0), x) >= base

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            helstrom_bound(Priors(0.5), -0.001)
        with pytest.raises(ValueError):
            helstrom_bound(Priors(0.5), 1.001)
        # float slop just outside [0, 1] is clipped, not rejected
        assert helstrom_bound(Priors(0.5), 1.0 + 1e-13) == 0.5


class TestHelstromError:
    def test_complements_the_bound(self):
        for q0 in (0.5, 0.7, 0.99):
            for overlap in (0.0, 0.3, 0.67, 1.0):
                pe = helstrom_error(Priors(q0), overlap)
                assert pe + helstrom_bound(Priors(q0), overlap) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q0", [0.5, 0.7, 1.0 - 1e-6])
    @pytest.mark.parametrize("gamma_sq", [0.01, 1.0, 3.915, 15.3, 60.0])
    def test_keeps_its_digits_against_mpmath(self, q0, gamma_sq):
        # 1 - helstrom_bound rounds to 0 from gamma_sq ~ 9; this form does not.
        pr = Priors(q0)
        got = helstrom_error(pr, coherent_overlap(gamma_sq))
        with mpmath.workdps(150):  # the plain form, with digits to spare for 1 - sqrt
            c = 4 * mpmath.mpf(pr.q0) * mpmath.mpf(pr.q1) * mpmath.exp(-4 * mpmath.mpf(gamma_sq))
            want = (1 - mpmath.sqrt(1 - c)) / 2
            assert abs(got - want) <= 1e-14 * want

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            helstrom_error(Priors(0.5), 1.5)

    @pytest.mark.parametrize("q0", [0.5, 0.5 + 2.0**-30, 0.5 - 2.0**-52, 0.7, 1.0 - 1e-9])
    def test_keeps_its_digits_as_the_overlap_nears_one(self, q0):
        # The margin from 1 - overlap**2 = (1 - x)*(1 + x), not from 1 - c*x*x,
        # which lost the digits the states' difference leaves.
        pr = Priors(q0)
        for m in range(1, 53):
            x = 1.0 - 2.0**-m
            with mpmath.workdps(50):
                q0_, q1_, x_ = mpf(pr.q0), mpf(pr.q1), mpf(x)
                r = mpmath.sqrt((q0_ - q1_) ** 2 + 4 * q0_ * q1_ * (1 - x_) * (1 + x_))
                want = 4 * q0_ * q1_ * x_ * x_ / (2 * (1 + r))
            assert abs(helstrom_error(pr, x) - want) <= 1e-15 * want


class TestCoherentHelstromAgainstMpmath:
    """The fig1 ``helstrom`` column and :func:`helstrom_trajectory`, the
    references the other columns and the feedback law are judged by, form
    their margin from ``gamma_sq`` itself, so no overlap rounds it away."""

    @settings(max_examples=400, deadline=None)
    @given(edge_priors(), log_uniform(1e-300, 700.0))
    def test_within_1e_15_relative(self, priors, gamma_sq):
        with mpmath.workdps(50):
            q0, q1, g = mpf(priors.q0), mpf(priors.q1), mpf(gamma_sq)
            r = mpmath.sqrt((q0 - q1) ** 2 + 4 * q0 * q1 * -mpmath.expm1(-4 * g))
            pe, pc = 4 * q0 * q1 * mpmath.exp(-4 * g) / (2 * (1 + r)), (1 + r) / 2
        axis = SimpleNamespace(priors=priors, g=np.array([gamma_sq]))
        column = cli.SCHEMES["helstrom"]["pe"](axis)
        if pe == 0:
            assert column[0] == 0.0
        elif pe >= 2.0**-1022:  # a normal float
            assert abs(column[0] - pe) <= 1e-15 * pe
        assert abs(helstrom_trajectory(priors, 1.0, gamma_sq) - pc) <= 1e-15 * pc


class TestCoherentOverlap:
    def test_zero_photons(self):
        assert coherent_overlap(0.0) == 1.0

    def test_frozen_value(self):
        assert coherent_overlap(0.2) == pytest.approx(OVERLAP_AT_02, abs=1e-16)

    def test_monotone_decay(self):
        gs = np.linspace(0.0, 5.0, 60)
        vals = [coherent_overlap(float(g)) for g in gs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            coherent_overlap(-0.1)


class TestMulticopyBound:
    def test_zero_copies_is_blind_guess(self):
        # chi**0 = 1 feeds the single-state bound, so only ulp-level slop
        assert multicopy_bound(Priors(0.6), 0.5, 0) == pytest.approx(0.6, abs=1e-15)

    def test_frozen_value(self):
        assert multicopy_bound(Priors(0.6), 0.8, 2) == pytest.approx(
            MULTICOPY_06_08_2, abs=1e-15
        )

    def test_single_copy_example(self):
        assert multicopy_bound(Priors(0.5), 0.6, 1) == pytest.approx(0.9, abs=1e-15)

    def test_reduces_to_single_state_bound(self):
        for q0 in (0.5, 0.65, 0.9):
            pr = Priors(q0)
            for chi in (0.2, 0.55, 0.95):
                for n in range(0, 9):
                    assert multicopy_bound(pr, chi, n) == helstrom_bound(pr, chi**n)

    def test_monotone_in_copies(self):
        pr = Priors(0.7)
        vals = [multicopy_bound(pr, 0.85, n) for n in range(0, 25)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999

    def test_validation(self):
        with pytest.raises(ValueError):
            multicopy_bound(Priors(0.5), 1.2, 1)
        with pytest.raises(ValueError):
            multicopy_bound(Priors(0.5), 0.5, -1)


# sha256 (test_multicopy.hex_digest) of angle_schedule's angles over COPY_GRID, recorded
# when it returned them as a tuple of Python floats.
SCHEDULE_SHA256 = "af598d715024172f46959e514fdc25907dcb7062006366c8cf5e5eb61c5fccc2"


class TestAngleSchedule:
    def test_one_float64_array(self):
        phis = angle_schedule(Priors(0.6), 0.3, 5)
        assert type(phis) is np.ndarray and phis.dtype == np.float64 and phis.shape == (5,)

    def test_same_bits_as_the_former_tuple(self):
        rows = [angle_schedule(Priors(q0), theta, n).tolist() for q0, theta, n in COPY_GRID]
        assert hex_digest(rows) == SCHEDULE_SHA256

    def test_equal_priors_first_angle_is_diagonal(self):
        sched = angle_schedule(Priors(0.5), math.pi / 8, 3)
        assert len(sched) == 3
        assert sched[0] == math.pi / 4

    def test_frozen_first_angle(self):
        sched = angle_schedule(Priors(0.6), math.pi / 8, 1)
        assert sched[0] == pytest.approx(PHI1_06_PI8, abs=1e-15)
        assert sched[0] == pytest.approx(0.5 * math.atan(5.0), abs=1e-15)

    def test_decreases_toward_state_angle(self):
        theta = QubitPair.from_overlap(0.8).theta
        phis = angle_schedule(Priors(0.6), theta, 60).tolist()
        assert all(b <= a + 1e-15 for a, b in zip(phis, phis[1:]))
        assert all(p >= theta - 1e-12 for p in phis)
        assert phis[-1] == pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize("q0,theta", [(0.5, math.pi / 4), (0.7, math.pi / 4), (0.5, 1e-3),
                                          (0.6, math.pi / 4 + 1e-13)])
    def test_orthogonal_states_or_equal_priors_start_on_the_diagonal(self, q0, theta):
        # chi = cos(pi/2) and R = |q0 - q1| = 0 are arctan2's limits, reached with no
        # RuntimeWarning; theta within the slack above pi/4 is pi/4.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = angle_schedule(Priors(q0), theta, 5)
        assert sched[0] == math.pi / 4

    def test_validation(self):
        with pytest.raises(ValueError):
            angle_schedule(Priors(0.6), 0.0, 1)
        with pytest.raises(ValueError):
            angle_schedule(Priors(0.6), math.pi / 4 + 1e-6, 1)
        with pytest.raises(ValueError, match="^copy count must be >= 1, got 0$"):
            angle_schedule(Priors(0.6), 0.3, 0)


class TestKennedy:
    def test_no_signal(self):
        assert kennedy_pc(Priors(0.5), 0.0) == 0.5

    def test_frozen_values(self):
        assert kennedy_pc(Priors(0.5), 0.2) == pytest.approx(KENNEDY_HALF_02, abs=1e-15)
        assert kennedy_pc(Priors(0.7), 0.2) == pytest.approx(KENNEDY_07_02, abs=1e-15)

    def test_strong_signal_saturates(self):
        assert kennedy_pc(Priors(0.5), 30.0) == 1.0

    def test_monotone_in_photons(self):
        gs = np.linspace(0.0, 3.0, 40)
        vals = [kennedy_pc(Priors(0.4), float(g)) for g in gs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kennedy_pc(Priors(0.5), -0.2)


class TestKennedyError:
    def test_complements_the_success_probability(self):
        for q0 in (0.3, 0.5, 0.7):
            for gamma_sq in (0.0, 0.2, 1.0):
                pr = Priors(q0)
                pc = q0 + pr.q1 * (1.0 - math.exp(-4.0 * gamma_sq))
                assert kennedy_error(pr, gamma_sq) + pc == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q0", [0.0, 0.3, 0.5, 0.7, 1.0 - 1e-6, 1.0])
    @pytest.mark.parametrize("gamma_sq", [0.0, 0.01, 1.0, 3.915, 15.3, 60.0, 170.0, 177.0, 400.0])
    def test_keeps_its_digits_against_mpmath(self, q0, gamma_sq):
        # 1 - kennedy_pc rounds to 0 from gamma_sq ~ 9; this form does not.
        # Below the normal range no double is nearer than the subnormal spacing.
        pr = Priors(q0)
        got = kennedy_error(pr, gamma_sq)
        with mpmath.workdps(50):
            want = mpmath.mpf(pr.q1) * mpmath.exp(-4 * mpmath.mpf(gamma_sq))
            assert abs(got - want) <= max(1e-14 * want, 2.0**-1074)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kennedy_error(Priors(0.5), -0.2)


class TestImprovedKennedy:
    def test_nulling_displacement_recovers_kennedy(self):
        for q0 in (0.5, 0.65, 0.8):
            for g_sq in (0.05, 0.2, 1.0):
                g = math.sqrt(g_sq)
                assert improved_kennedy_pc(Priors(q0), g, g) == pytest.approx(
                    kennedy_pc(Priors(q0), g_sq), abs=1e-15
                )

    def test_frozen_value(self):
        assert improved_kennedy_pc(Priors(0.5), 0.447214, 0.6) == pytest.approx(
            IK_EXAMPLE, abs=1e-15
        )

    def test_degenerate_point(self):
        assert improved_kennedy_pc(Priors(0.5), 0.0, 0.0) == 0.5

    def test_never_beats_helstrom(self):
        # physical receiver, so the bound dominates at every displacement
        for q0 in (0.5, 0.7):
            pr = Priors(q0)
            for g_sq in (0.05, 0.2, 1.0):
                g = math.sqrt(g_sq)
                cap = helstrom_bound(pr, coherent_overlap(g_sq))
                for beta in np.linspace(-1.0, 3.0, 81):
                    assert improved_kennedy_pc(pr, g, float(beta)) <= cap + 1e-12

    def test_best_displacement_at_least_kennedy(self):
        pr = Priors(0.5)
        g = math.sqrt(0.2)
        grid = [improved_kennedy_pc(pr, g, float(b)) for b in np.linspace(0.0, 3.0, 301)]
        assert max(grid) >= kennedy_pc(pr, 0.2) - 1e-15

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            improved_kennedy_pc(Priors(0.5), -0.1, 0.5)


class TestImprovedKennedyError:
    def test_complements_the_success_probability(self):
        for q0 in (0.3, 0.5, 0.7):
            for g, beta in ((0.0, 0.0), (0.447214, 0.6), (1.0, 1.2), (1.0, -0.5)):
                pr = Priors(q0)
                pc = q0 * math.exp(-((g - beta) ** 2)) + pr.q1 * (1 - math.exp(-((g + beta) ** 2)))
                assert improved_kennedy_error(pr, g, beta) + pc == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.99, 1.0 - 1e-6])
    @pytest.mark.parametrize("gamma_sq", [1e-4, 0.01, 1.0, 3.915, 15.3, 60.0, 170.0, 400.0])
    def test_keeps_its_digits_against_mpmath(self, q0, gamma_sq):
        # 1 - improved_kennedy_pc rounds to 0 at the optimum from gamma_sq ~ 9.
        pr = Priors(q0)
        g = math.sqrt(gamma_sq)
        for beta in (0.0, 0.5 * g, g, optimal_beta_ik(pr, g), g + 0.1, 2.0 * g):
            got = improved_kennedy_error(pr, g, beta)
            with mpmath.workdps(50):
                q0m, q1m, gm, bm = map(mpmath.mpf, (pr.q0, pr.q1, g, beta))
                want = -q0m * mpmath.expm1(-((gm - bm) ** 2)) + q1m * mpmath.exp(-((gm + bm) ** 2))
            # exp(-x) magnifies the rounding of x = (gamma +- beta)**2 by x.
            tol = 4.0 * EPS * (1.0 + (g - beta) ** 2 + (g + beta) ** 2)
            assert abs(got - want) <= max(tol * want, 2.0**-1074), beta

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            improved_kennedy_error(Priors(0.5), -0.1, 0.5)


class TestSimplifiedDolinar:
    def test_matched_envelope_recovers_kennedy(self):
        # beta = psi kills the aligned click rate, exactly the nulling receiver
        for q0 in (0.5, 0.7):
            for psi in (0.5, 1.0):
                for T in (0.2, 1.0, 3.0):
                    got = simplified_dolinar_pc(Priors(q0), psi, psi, T)
                    want = kennedy_pc(Priors(q0), psi * psi * T)
                    assert got == pytest.approx(want, abs=1e-14)

    def test_frozen_value(self):
        assert simplified_dolinar_pc(Priors(0.5), 1.0, 1.0, 0.2) == pytest.approx(
            KENNEDY_HALF_02, abs=1e-15
        )

    def test_zero_horizon_returns_prior(self):
        for q0 in (0.3, 0.5, 0.7):
            assert simplified_dolinar_pc(Priors(q0), 1.0, 0.8, 0.0) == pytest.approx(
                q0, abs=1e-15
            )

    def test_zero_feedback_is_coin_flip(self):
        for T in (0.1, 1.0, 10.0):
            assert simplified_dolinar_pc(Priors(0.5), 1.0, 0.0, T) == 0.5

    def test_fully_degenerate(self):
        assert simplified_dolinar_pc(Priors(0.6), 0.0, 0.0, 1.0) == 0.6

    def test_never_beats_helstrom(self):
        for q0 in (0.5, 0.7):
            pr = Priors(q0)
            for T in (0.3, 1.0):
                cap = helstrom_bound(pr, coherent_overlap(T))  # psi = 1
                for beta in np.linspace(0.0, 4.0, 81):
                    assert simplified_dolinar_pc(pr, 1.0, float(beta), T) <= cap + 1e-12

    def test_best_envelope_at_least_kennedy(self):
        pr = Priors(0.5)
        grid = [
            simplified_dolinar_pc(pr, 1.0, float(b), 1.0)
            for b in np.linspace(0.0, 4.0, 401)
        ]
        assert max(grid) >= kennedy_pc(pr, 1.0) - 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            simplified_dolinar_pc(Priors(0.5), -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            simplified_dolinar_pc(Priors(0.5), 1.0, 0.5, -1.0)


class TestSimplifiedDolinarError:
    def test_complements_the_success_probability(self):
        for q0 in (0.3, 0.5, 0.7):
            for psi, beta, T in ((1.0, 1.0, 0.2), (1.0, 0.8, 0.0), (1.0, 0.0, 1.0),
                                 (0.5, 1.3, 3.0), (0.0, 0.0, 1.0), (0.0, 0.7, 1.0)):
                pr = Priors(q0)
                s = psi * psi + beta * beta
                drift = psi * beta / s if s > 0.0 else 0.0
                pc = 0.5 + drift + (q0 - 0.5 - drift) * math.exp(-2.0 * s * T)
                pe = simplified_dolinar_error(pr, psi, beta, T)
                assert pe + pc == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.99, 1.0 - 1e-6])
    @pytest.mark.parametrize("gamma_sq", [1e-4, 0.01, 1.0, 3.915, 15.3, 60.0, 170.0, 400.0])
    @pytest.mark.parametrize("T", [0.2, 1.0, 30.0])
    def test_keeps_its_digits_against_mpmath(self, q0, gamma_sq, T):
        # 1 - simplified_dolinar_pc rounds to 0 at the optimum from gamma_sq ~ 9.
        pr = Priors(q0)
        psi = math.sqrt(gamma_sq / T)
        for beta in (0.0, 0.5 * psi, psi, optimal_beta_sd(pr, psi, T), psi + 0.1, 2.0 * psi):
            got = simplified_dolinar_error(pr, psi, beta, T)
            with mpmath.workdps(50):
                q1m, pm, bm, tm = map(mpmath.mpf, (pr.q1, psi, beta, T))
                s = pm * pm + bm * bm
                e = mpmath.exp(-2 * s * tm)
                want = (pm - bm) ** 2 / (2 * s) * (1 - e) + q1m * e
            # exp(-x) magnifies the rounding of x = 2*s*T by x.
            tol = 8.0 * EPS * (1.0 + 2.0 * (psi * psi + beta * beta) * T)
            assert abs(got - want) <= max(tol * want, 2.0**-1074), beta

    def test_fully_degenerate(self):
        assert simplified_dolinar_error(Priors(0.6), 0.0, 0.0, 1.0) == 0.4

    def test_nothing_observed_at_t_zero_where_s_overflows(self):
        # At T = 0, E = 1 and the error is q1 even where psi**2 + beta**2 is inf.
        pr = Priors(0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simplified_dolinar_error(pr, 1e160, 0.1, 0.0) == pr.q1
            assert simplified_dolinar_error(pr, np.array([1e160, 1.0]), 0.1, 0.0).tolist() == [
                pr.q1, pr.q1]
            assert simplified_dolinar_pc(pr, 1e160, 0.1, 0.0) == pr.q0
            assert simplified_dolinar_pc(pr, np.array([1e160]), 0.1, 0.0).tolist() == [pr.q0]

    def test_validation(self):
        with pytest.raises(ValueError):
            simplified_dolinar_error(Priors(0.5), -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            simplified_dolinar_error(Priors(0.5), 1.0, 0.5, -1.0)


def test_errors_vanish_at_the_top_of_the_float_range():
    # Where 4*gamma_sq or 2*s*T overflows each error takes its limit 0, with no warning.
    pr, g = Priors(0.7), np.array([1e100, 6.7e153, 1.3e154])
    assert not kennedy_error(pr, g * g).any()
    assert not improved_kennedy_error(pr, g, g).any()
    assert not simplified_dolinar_error(pr, g, g, 1.0).any()
    # Off the optimum D = (psi - beta)**2/(2*s) remains, s = psi**2 + beta**2 = inf or not.
    assert simplified_dolinar_error(pr, 1.3e154, 0.5e154, 1.0) == pytest.approx(0.64 / 3.88)


class TestArrays:
    """Each closed form maps arrays lane by lane, and floats to floats."""

    G_SQ = np.geomspace(1e-6, 400.0, 97)
    PR = Priors(0.7)

    def _cases(self):
        g_sq, pr = self.G_SQ, self.PR
        g = np.sqrt(g_sq)
        beta = 1.3 * g + 0.1
        return {
            "coherent_overlap": (coherent_overlap, (g_sq,)),
            "helstrom_bound": (lambda x: helstrom_bound(pr, x), (np.exp(-2.0 * g_sq),)),
            "helstrom_error": (lambda x: helstrom_error(pr, x), (np.exp(-2.0 * g_sq),)),
            "kennedy_error": (lambda x: kennedy_error(pr, x), (g_sq,)),
            "improved_kennedy_error": (lambda a, b: improved_kennedy_error(pr, a, b), (g, beta)),
            "improved_kennedy_pc": (lambda a, b: improved_kennedy_pc(pr, a, b), (g, beta)),
            "simplified_dolinar_error": (
                lambda a, b: simplified_dolinar_error(pr, a, b, 0.7), (g, beta)),
            "ik_displacement_residual": (
                lambda a, b: ik_displacement_residual(pr, a, b), (g, beta)),
            "sd_displacement_residual": (
                lambda a, b: sd_displacement_residual(pr, a, 0.7, b), (g, beta)),
            "optimal_beta_ik": (lambda a: optimal_beta_ik(pr, a), (g,)),
            "optimal_beta_sd": (lambda a: optimal_beta_sd(pr, a, 0.7), (g,)),
        }

    @pytest.mark.parametrize("name", [
        "coherent_overlap", "helstrom_bound", "helstrom_error", "kennedy_error",
        "improved_kennedy_error", "improved_kennedy_pc", "simplified_dolinar_error",
        "ik_displacement_residual", "sd_displacement_residual", "optimal_beta_ik",
        "optimal_beta_sd",
    ])
    def test_lanes_equal_scalar_calls(self, name):
        fn, args = self._cases()[name]
        lanes = fn(*args)
        assert isinstance(lanes, np.ndarray) and lanes.shape == self.G_SQ.shape
        one = [fn(*(float(a[i]) for a in args)) for i in range(self.G_SQ.size)]
        assert all(type(v) is float for v in one)
        assert lanes.tolist() == one

    def test_validation_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"gamma_sq must be >= 0, got -2\.0"):
            coherent_overlap(np.array([1.0, -2.0, -3.0]))
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\], got 1\.5"):
            helstrom_error(Priors(0.5), np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\], got nan"):
            helstrom_error(Priors(0.5), math.nan)
        with pytest.raises(ValueError, match=r"psi must be > 0, got 0\.0"):
            optimal_beta_sd(Priors(0.5), np.array([1.0, 0.0]), 1.0)
