"""Closed-form layer: bounds, receiver probabilities, angle schedules.

Reference values marked "frozen" were computed independently at 40-digit
precision and pasted here as double literals.
"""

import math

import mpmath
import numpy as np
import pytest

from qsdr import (
    AngleSchedule,
    CoherentBinary,
    Priors,
    QubitPair,
    angle_schedule,
    coherent_overlap,
    helstrom_bound,
    helstrom_error,
    improved_kennedy_error,
    improved_kennedy_pc,
    kennedy_error,
    kennedy_pc,
    multicopy_bound,
    optimal_beta_ik,
    optimal_beta_sd,
    simplified_dolinar_error,
    simplified_dolinar_pc,
)

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

    def test_is_symmetric(self):
        assert Priors(0.5).is_symmetric
        assert not Priors(0.5000001).is_symmetric


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


class TestCoherentBinary:
    def test_mean_photons(self):
        src = CoherentBinary(2.0, 0.25)
        assert src.gamma_sq == 1.0
        assert src.gamma == 1.0

    def test_default_duration(self):
        assert CoherentBinary(1.0).T == 1.0

    def test_from_mean_photons_roundtrip(self):
        src = CoherentBinary.from_mean_photons(0.2, 2.0)
        assert src.gamma_sq == pytest.approx(0.2, rel=1e-15)
        assert src.T == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherentBinary(-1.0)
        with pytest.raises(ValueError):
            CoherentBinary(1.0, 0.0)
        with pytest.raises(ValueError):
            CoherentBinary.from_mean_photons(-0.1)


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


class TestAngleSchedule:
    def test_equal_priors_first_angle_is_diagonal(self):
        sched = angle_schedule(Priors(0.5), math.pi / 8, 3)
        assert sched.angle(1) == math.pi / 4

    def test_frozen_first_angle(self):
        sched = angle_schedule(Priors(0.6), math.pi / 8, 1)
        assert sched.angle(1) == pytest.approx(PHI1_06_PI8, abs=1e-15)
        assert sched.angle(1) == pytest.approx(0.5 * math.atan(5.0), abs=1e-15)

    def test_decreases_toward_state_angle(self):
        theta = QubitPair.from_overlap(0.8).theta
        sched = angle_schedule(Priors(0.6), theta, 60)
        phis = sched.phis
        assert all(b <= a + 1e-15 for a, b in zip(phis, phis[1:]))
        assert all(p >= theta - 1e-12 for p in phis)
        assert phis[-1] == pytest.approx(theta, abs=1e-9)

    def test_flip_rule(self):
        sched = angle_schedule(Priors(0.6), 0.3, 2)
        assert sched.flipped(2) == pytest.approx(math.pi / 2 - sched.angle(2), abs=0)
        assert sched.effective_angle(2, 0) == sched.angle(2)
        assert sched.effective_angle(2, 1) == sched.flipped(2)
        with pytest.raises(ValueError):
            sched.effective_angle(1, 2)

    def test_index_bounds(self):
        sched = angle_schedule(Priors(0.6), 0.3, 2)
        assert len(sched) == 2
        with pytest.raises(ValueError):
            sched.angle(0)
        with pytest.raises(ValueError):
            sched.angle(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            angle_schedule(Priors(0.6), 0.0, 1)
        with pytest.raises(ValueError):
            angle_schedule(Priors(0.6), math.pi / 4 + 1e-6, 1)
        with pytest.raises(ValueError):
            angle_schedule(Priors(0.6), 0.3, 0)
        with pytest.raises(ValueError):
            AngleSchedule((0.3, math.pi / 2))
        with pytest.raises(ValueError):
            AngleSchedule(())


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

    def test_validation(self):
        with pytest.raises(ValueError):
            simplified_dolinar_error(Priors(0.5), -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            simplified_dolinar_error(Priors(0.5), 1.0, 0.5, -1.0)
