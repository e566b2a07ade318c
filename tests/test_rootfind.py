"""Bracketed solving and the two displacement optimizations."""

import contextlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mpf
import numpy as np
import pytest
from scipy.optimize import brentq

from qsdr import rootfind
from qsdr import (
    BracketError,
    ConvergenceError,
    Priors,
    beta_ik_problem,
    beta_sd_problem,
    coherent_overlap,
    golden_max,
    helstrom_bound,
    ik_displacement_residual,
    improved_kennedy_pc,
    kennedy_pc,
    optimal_beta_ik,
    optimal_beta_sd,
    sd_displacement_residual,
    simplified_dolinar_pc,
    solve_bracketed,
    solve_jointly,
)

SQRT2 = 1.4142135623730951

# Frozen reference values, computed independently at high precision.
BETA_IK_5 = 0.7578455044770917       # q0=0.5, gamma=sqrt(0.2)
IK_AT_OPT_5 = 0.83697728635008978
BETA_IK_7 = 0.6005751067217067       # q0=0.7, gamma=sqrt(0.2)
IK_AT_OPT_7 = 0.8836531357323097
BETA_SD_5 = 1.0664130847409659       # q0=0.5, psi=1, T=1
SD_AT_OPT_5 = 0.99202280772623988
BETA_SD_7 = 1.0417084362468743       # q0=0.7, psi=1, T=1
SD_AT_OPT_7 = 0.99495507865023162


def brentq_oracle(f, lo, hi):
    """scipy's Brent at the tolerances :func:`solve_bracketed` ports."""
    return brentq(f, lo, hi, xtol=1e-300, maxiter=200)


def lane_residual(f, lo, hi, i):
    """Lane ``i`` of the lane-wise residual ``f`` on the brackets [lo, hi],
    as a function of one float; the other lanes sit at their lower ends."""
    x = np.array(np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))[0])

    def fi(v):
        x.flat[i] = v
        return float(np.asarray(f(x)).flat[i])

    return fi


def assert_lanes_match_scipy(f, lo, hi, root):
    """Each lane of ``root`` equals scipy's Brent on that lane's own residual."""
    los, his = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    for i in range(los.size):
        want = brentq_oracle(lane_residual(f, los, his, i), los.flat[i], his.flat[i])
        assert np.asarray(root).flat[i] == want, (i, los.flat[i], his.flat[i])


@contextlib.contextmanager
def solves_checked_against_scipy():
    """Within it, every lane of every solve of the optimizers asserts that
    its root equals scipy's on that lane's own residual, bit for bit;
    yields the list of (lane-wise) roots found."""
    port = rootfind.solve_bracketed
    roots = []

    def checked(f, lo, hi):
        root = port(f, lo, hi)
        assert_lanes_match_scipy(f, lo, hi, root)
        roots.append(root)
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "solve_bracketed", checked)
        yield roots


class TestSolveBracketed:
    def test_sqrt_two(self):
        root = solve_bracketed(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(SQRT2, abs=1e-15)
        assert 1.0 <= root <= 2.0

    def test_linear(self):
        assert solve_bracketed(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "f,lo,hi",
        [
            (lambda x: x * x - 2.0, 1.0, 2.0),
            (lambda x: x**3 - 5.0, 1.0, 2.0),
            (lambda x: math.tanh(x) - 0.3, -3.0, 3.0),
            (lambda x: x - 1.0, 1.0, 2.0),  # exact zero at lo
            (lambda x: x - 1.0, 0.0, 1.0),  # exact zero at hi
            (lambda x: x, -1.0, 2.0),  # root at 0: only the absolute floor stops it
            # Underflowing slopes make an interpolation denominator exactly 0.
            (lambda x: math.exp(x) - 1e-200, -1000.0, 1.0),
        ],
        ids=["sqrt2", "cubic", "tanh", "zero_at_lo", "zero_at_hi", "root_at_0",
             "zero_denominator"],
    )
    def test_matches_scipy_bitwise(self, f, lo, hi):
        assert solve_bracketed(f, lo, hi) == brentq_oracle(f, lo, hi)

    def test_exact_zero_at_endpoint(self):
        f = lambda x: x - 1.0
        assert solve_bracketed(f, 1.0, 2.0) == 1.0
        assert solve_bracketed(f, 0.0, 1.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            solve_bracketed(lambda x: x * x, 1.0, 2.0)
        with pytest.raises(BracketError):
            solve_bracketed(lambda x: -x * x - 1.0, -1.0, 1.0)

    def test_rejects_unordered_ends(self):
        with pytest.raises(ValueError):
            solve_bracketed(lambda x: x, 1.0, -1.0)
        with pytest.raises(ValueError):
            solve_bracketed(lambda x: x, 1.0, 1.0)

    def test_iteration_budget(self, monkeypatch):
        f = lambda x: x**3 - 5.0
        monkeypatch.setattr(rootfind, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            solve_bracketed(f, 1.0, 2.0)

    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.9, 1.0 - 1e-6])
    def test_optimizers_match_scipy_on_the_sweep_axis(self, q0):
        # fig1/fig3's log axis, one solve per optimizer.
        pr = Priors(q0)
        g = np.sqrt(np.geomspace(0.01, 4.0, 300))
        with solves_checked_against_scipy() as roots:
            optimal_beta_ik(pr, g)
            optimal_beta_sd(pr, g)
        assert [np.shape(r) for r in roots] == [(300,), (300,)]

    @pytest.mark.parametrize("q0", [0.5, 0.6, 0.8, 0.99, 1.0 - 1e-9])
    def test_sd_lanes_match_scipy_from_weak_to_strong(self, q0):
        # 400 lanes from 1e-6 to 40 photons: some stop at an end, the rest
        # after different numbers of steps, while finished lanes stay frozen.
        with solves_checked_against_scipy() as roots:
            optimal_beta_sd(Priors(q0), np.sqrt(np.geomspace(1e-6, 40.0, 400)))
        assert np.shape(roots[0]) == (400,)

    def test_lanes_match_scipy_bitwise(self):
        c = np.array([2.0, 5.0, 0.3, 1e-200, 1.0, 7.0])
        lo = np.array([1.0, 1.0, -3.0, -1000.0, 1.0, 0.0])
        hi = np.array([2.0, 2.0, 3.0, 1.0, 2.0, 7.0])
        kind = np.array([0, 1, 2, 3, 4, 4])  # 4: exact zeros at lo, then at hi

        def f(x):
            return np.select(
                [kind == 0, kind == 1, kind == 2, kind == 3],
                [x * x - c, x**3 - c, np.tanh(x) - c, np.exp(x) - c],
                x - c,
            )

        root = solve_bracketed(f, lo, hi)
        assert isinstance(root, np.ndarray) and root.shape == (6,)
        assert root[4] == 1.0 and root[5] == 7.0
        assert_lanes_match_scipy(f, lo, hi, root)

    def test_residual_is_only_evaluated_inside_each_bracket(self):
        lo, hi = np.array([0.0, 1.0, 10.0]), np.array([1.0, 3.0, 20.0])
        seen = []

        def f(x):
            seen.append(x.copy())
            return x * x - np.array([0.5, 1.0, 150.0])  # lane 1: exact zero at lo

        root = solve_bracketed(f, lo, hi)
        assert root[1] == 1.0
        seen = np.array(seen)
        assert np.all((lo <= seen) & (seen <= hi))
        # Lane 1 is finished from the start and stays at its upper end.
        assert np.all(seen[1:, 1] == 3.0)

    def test_scalar_ends_give_a_float_and_broadcast_ends_an_array(self):
        assert isinstance(solve_bracketed(lambda x: x * x - 2.0, 1.0, 2.0), float)
        roots = solve_bracketed(lambda x: x * x - np.array([2.0, 3.0]), 1.0, np.array([2.0, 2.0]))
        assert roots.tolist() == [
            solve_bracketed(lambda x: x * x - 2.0, 1.0, 2.0),
            solve_bracketed(lambda x: x * x - 3.0, 1.0, 2.0),
        ]

    def test_errors_name_the_first_lane_at_fault(self, monkeypatch):
        f = lambda x: x * x - np.array([2.0, 9.0, 16.0])
        with pytest.raises(BracketError, match=r"^lane 1: .*\[1\.0, 2\.0\]"):
            solve_bracketed(f, 1.0, np.array([2.0, 2.0, 2.0]))
        with pytest.raises(ValueError, match=r"^lane 2: bracket requires lo < hi"):
            solve_bracketed(f, 1.0, np.array([2.0, 4.0, 1.0]))
        monkeypatch.setattr(rootfind, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match=r"^lane 0: "):
            solve_bracketed(f, 1.0, np.array([2.0, 4.0, 5.0]))


class TestSolveJointly:
    """Several optimizers in one lane-wise solve answer as each alone."""

    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.999999, 1.0])
    def test_joint_answers_equal_the_single_ones_in_one_solve(self, q0, monkeypatch):
        pr = Priors(q0)
        gamma = np.sqrt(np.geomspace(1e-6, 40.0, 200))
        alone = [optimal_beta_ik(pr, gamma), optimal_beta_sd(pr, gamma)]
        solve, lanes = rootfind.solve_bracketed, []

        def counted(f, lo, hi):
            lanes.append(np.shape(lo))
            return solve(f, lo, hi)

        monkeypatch.setattr(rootfind, "solve_bracketed", counted)
        joint = solve_jointly(beta_ik_problem(pr, gamma), beta_sd_problem(pr, gamma))
        assert [x.tolist() for x in joint] == [x.tolist() for x in alone]
        # With q1 = 0 both answers are known without a solve.
        assert lanes == ([] if q0 == 1.0 else [(400,)])

    def test_scalars_and_no_problems(self):
        pr = Priors(0.7)
        ik, sd = solve_jointly(beta_ik_problem(pr, 0.5), beta_sd_problem(pr, 0.5))
        assert type(ik) is float and ik == optimal_beta_ik(pr, 0.5)
        assert type(sd) is float and sd == optimal_beta_sd(pr, 0.5)
        assert solve_jointly() == []

    def test_each_half_keeps_its_checks(self, monkeypatch):
        with pytest.raises(ValueError, match="gamma must be > 0"):
            beta_ik_problem(Priors(0.7), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="requires q0 >= q1"):
            beta_sd_problem(Priors(0.3), 1.0)
        # A root worse than the Kennedy point fails either half, naming its lane.
        monkeypatch.setattr(rootfind, "solve_bracketed", lambda f, lo, hi: lo + 10.0)
        pr = Priors(0.7)
        for problem in (beta_sd_problem(pr, 1.0), beta_ik_problem(pr, 1.0)):
            with pytest.raises(ConvergenceError, match="^stationary point .* does not improve "
                                                       "on the Kennedy point 1.0$"):
                solve_jointly(problem)
        psi = np.array([0.5, 1.0])
        for problem in (beta_sd_problem(pr, psi), beta_ik_problem(pr, psi)):
            with pytest.raises(ConvergenceError, match="^lane 0: .* Kennedy point 0.5$"):
                solve_jointly(problem)


class TestGoldenMax:
    def test_parabola(self):
        x = golden_max(lambda x: -((x - 1.3) ** 2), 0.0, 2.0)
        assert x == pytest.approx(1.3, abs=1e-8)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_max(lambda x: -x * x, 1.0, 1.0)


class TestIkResidual:
    def test_sign_structure(self):
        pr = Priors(0.5)
        g = math.sqrt(0.2)
        assert ik_displacement_residual(pr, g, g * (1.0 + 1e-9)) < 0.0
        assert ik_displacement_residual(pr, g, 2.0) > 0.0

    def test_zero_at_frozen_optimum(self):
        assert abs(ik_displacement_residual(Priors(0.5), math.sqrt(0.2), BETA_IK_5)) < 1e-12

    def test_log_odds_against_mpmath(self):
        # log1p((q0 - q1)/q1) keeps the digits near q0 = 1/2 that log(q0/q1) lost
        # to the rounded ratio: 3.7e-9 relative at q0 = 1/2 + 2**-30.  Where q1 is
        # subnormal the quotient overflows, and ln q0 - ln q1 is taken instead.
        priors = [Priors(0.5 + s * 2.0**-k) for k in range(2, 55) for s in (1, -1)]
        for pr in [*priors, Priors(5e-324).dominant()]:
            with mpmath.workdps(50):
                want = mpmath.log(mpf(pr.q0) / mpf(pr.q1))
            assert abs(rootfind._log_odds(pr) - want) <= 2 * 2.0**-52 * abs(want), pr.q0

    def test_requires_beta_beyond_gamma(self):
        with pytest.raises(ValueError):
            ik_displacement_residual(Priors(0.5), 0.5, 0.5)
        with pytest.raises(ValueError):
            ik_displacement_residual(Priors(0.5), 0.5, 0.4)


class TestOptimalBetaIk:
    def test_frozen_values(self):
        g = math.sqrt(0.2)
        assert optimal_beta_ik(Priors(0.5), g) == pytest.approx(BETA_IK_5, abs=1e-10)
        assert optimal_beta_ik(Priors(0.7), g) == pytest.approx(BETA_IK_7, abs=1e-10)

    def test_probability_at_frozen_optimum(self):
        g = math.sqrt(0.2)
        b5 = optimal_beta_ik(Priors(0.5), g)
        assert improved_kennedy_pc(Priors(0.5), g, b5) == pytest.approx(
            IK_AT_OPT_5, abs=1e-12
        )
        b7 = optimal_beta_ik(Priors(0.7), g)
        assert improved_kennedy_pc(Priors(0.7), g, b7) == pytest.approx(
            IK_AT_OPT_7, abs=1e-12
        )

    @pytest.mark.parametrize("q0", [0.5, 0.6, 0.8])
    @pytest.mark.parametrize("g_sq", [0.05, 0.2, 1.0])
    def test_stationary_and_above_nulling(self, q0, g_sq):
        pr = Priors(q0)
        g = math.sqrt(g_sq)
        beta = optimal_beta_ik(pr, g)
        assert beta > g
        assert abs(ik_displacement_residual(pr, g, beta)) < 1e-10
        assert improved_kennedy_pc(pr, g, beta) > kennedy_pc(pr, g_sq)

    def test_matches_grid_argmax(self):
        pr = Priors(0.5)
        g = math.sqrt(0.2)
        beta = optimal_beta_ik(pr, g)
        grid = np.linspace(g * (1.0 + 1e-9), g + 2.0, 10001)
        vals = np.array([improved_kennedy_pc(pr, g, float(b)) for b in grid])
        spacing = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(vals))] - beta) <= spacing

    def test_finite_difference_stationarity(self):
        pr = Priors(0.7)
        g = math.sqrt(0.2)
        beta = optimal_beta_ik(pr, g)
        h = 1e-6
        deriv = (
            improved_kennedy_pc(pr, g, beta + h) - improved_kennedy_pc(pr, g, beta - h)
        ) / (2.0 * h)
        assert abs(deriv) < 1e-6

    def test_displacement_excess_shrinks_with_signal(self):
        pr = Priors(0.5)
        weak = optimal_beta_ik(pr, math.sqrt(0.2)) - math.sqrt(0.2)
        strong = optimal_beta_ik(pr, math.sqrt(2.0)) - math.sqrt(2.0)
        assert 0.0 < strong < weak

    def test_certain_prior_keeps_the_nulling_point(self):
        # q1 = 0: P_c = exp(-(beta - gamma)**2), largest at beta = gamma.
        for g in (1e-3, 0.5, 20.0):
            assert optimal_beta_ik(Priors(1.0), g) == g

    @pytest.mark.parametrize("g_sq", [1.0, 5.5, 10.0])
    def test_subnormal_minority_prior_keeps_the_nulling_point(self, g_sq):
        # q0/q1 overflows; ln q0 - ln q1 = 744.4 does not, and the excess
        # beta - gamma ~ exp(-744) vanishes next to gamma.
        pr = Priors(5e-324).dominant()
        assert pr.q1 == 5e-324 and math.isinf(pr.q0 / pr.q1)
        g = math.sqrt(g_sq)
        assert optimal_beta_ik(pr, g) == g
        assert ik_displacement_residual(pr, g, 2.0 * g) == pytest.approx(
            -math.log(5e-324) - math.log(3.0) + 8.0 * g_sq, rel=1e-12
        )

    @pytest.mark.parametrize("q0", [0.5, 0.7, 1.0 - 1e-6])
    def test_excess_below_float_spacing_returns_gamma(self, q0):
        # beta - gamma ~ 2*gamma*(q1/q0)*exp(-4*gamma**2) vanishes next to gamma, up to
        # gamma_sq = 1.7e308, where 4*gamma**2 overflows, with no warning.
        g = np.array([20.0, 31.0, 33.0, 1e100, 6.7e153, 1.3e154])
        assert np.array_equal(optimal_beta_ik(Priors(q0), g), g)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_beta_ik(Priors(0.5), 0.0)
        with pytest.raises(ValueError):
            optimal_beta_ik(Priors(0.3), 0.5)


class TestOptimalBetaSd:
    def test_frozen_values(self):
        assert optimal_beta_sd(Priors(0.5), 1.0) == pytest.approx(
            BETA_SD_5, abs=1e-10
        )
        assert optimal_beta_sd(Priors(0.7), 1.0) == pytest.approx(
            BETA_SD_7, abs=1e-10
        )

    def test_probability_at_frozen_optimum(self):
        b5 = optimal_beta_sd(Priors(0.5), 1.0)
        assert simplified_dolinar_pc(Priors(0.5), 1.0, b5) == pytest.approx(
            SD_AT_OPT_5, abs=1e-12
        )
        b7 = optimal_beta_sd(Priors(0.7), 1.0)
        assert simplified_dolinar_pc(Priors(0.7), 1.0, b7) == pytest.approx(
            SD_AT_OPT_7, abs=1e-12
        )

    def test_exceeds_matched_envelope_even_when_balanced(self):
        # the optimum sits strictly above b = gamma even at equal priors
        beta = optimal_beta_sd(Priors(0.5), 1.0)
        assert beta > 1.0

    @pytest.mark.parametrize("q0", [0.5, 0.7])
    @pytest.mark.parametrize("psi,T", [(1.0, 1.0), (math.sqrt(0.2), 1.0), (1.0, 0.3)])
    def test_stationary_and_above_kennedy(self, q0, psi, T):
        pr, g = Priors(q0), psi * math.sqrt(T)
        b = optimal_beta_sd(pr, g)
        assert abs(sd_displacement_residual(pr, g, b)) < 1e-10
        assert simplified_dolinar_pc(pr, g, b) > kennedy_pc(pr, psi * psi * T)

    def test_matches_grid_argmax(self):
        pr = Priors(0.5)
        beta = optimal_beta_sd(pr, 1.0)
        grid = np.linspace(1e-4, 15.0, 10001)
        vals = np.array([simplified_dolinar_pc(pr, 1.0, float(b)) for b in grid])
        spacing = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(vals))] - beta) <= spacing

    def test_finite_difference_stationarity(self):
        pr = Priors(0.7)
        beta = optimal_beta_sd(pr, 1.0)
        h = 1e-6
        deriv = (
            simplified_dolinar_pc(pr, 1.0, beta + h)
            - simplified_dolinar_pc(pr, 1.0, beta - h)
        ) / (2.0 * h)
        assert abs(deriv) < 1e-6

    @pytest.mark.parametrize("q0", [0.5, 0.7, 1.0 - 1e-6])
    def test_top_of_the_float_range_returns_gamma(self, q0):
        # Up to gamma_sq = 1.7e308, where 8*gamma**2 at the bracket's end overflows.
        g = np.array([31.0, 33.0, 1e100, 6.7e153, 1.3e154])
        assert np.array_equal(optimal_beta_sd(Priors(q0), g), g)

    def test_envelope_excess_shrinks_with_horizon(self):
        pr = Priors(0.5)
        # psi = 1 over T = 1 and T = 4: gamma = 1 and 2, the envelope amplitude b/sqrt(T).
        short = abs(optimal_beta_sd(pr, 1.0) - 1.0)
        long = abs(optimal_beta_sd(pr, 2.0) / 2.0 - 1.0)
        assert long < short

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_beta_sd(Priors(0.5), 0.0)
        with pytest.raises(ValueError):
            optimal_beta_sd(Priors(0.3), 1.0)


class TestStationarityMatchesIndependentMaximum:
    """Re-express each success probability from scratch and locate its
    maximum by brute force; the solver's stationary point must agree."""

    def test_improved_kennedy(self):
        q0 = 0.65
        g = 0.6
        betas = np.arange(g + 1e-4, g + 2.0, 1e-5)
        pc = q0 * np.exp(-((g - betas) ** 2)) + (1.0 - q0) * (
            1.0 - np.exp(-((g + betas) ** 2))
        )
        b_grid = betas[int(np.argmax(pc))]
        assert abs(b_grid - optimal_beta_ik(Priors(q0), g)) < 2e-5

    def test_simplified_dolinar(self):
        q0, psi, T = 0.6, 1.0, 1.0
        betas = np.arange(1e-4, 4.0, 1e-5)
        s = psi * psi + betas * betas
        pc = 0.5 + psi * betas / s + (q0 - 0.5 - psi * betas / s) * np.exp(-2.0 * s * T)
        b_grid = betas[int(np.argmax(pc))]
        assert abs(b_grid - optimal_beta_sd(Priors(q0), psi * math.sqrt(T)) / math.sqrt(T)) < 2e-5


class TestWeakSignalGapShape:
    """How the optimized-displacement receiver trails the quantum bound as the
    signal weakens.  The absolute error gap is not monotone across these
    photon numbers (it peaks in between), but the gap relative to the bound's
    own error does shrink steadily, and the absolute gap shrinks on the weak
    tail."""

    @staticmethod
    def _gaps(g_sq: float) -> tuple[float, float]:
        pr = Priors(0.5)
        g = math.sqrt(g_sq)
        pe_h = 1.0 - helstrom_bound(pr, coherent_overlap(g_sq))
        beta = optimal_beta_ik(pr, g)
        pe_ik = 1.0 - improved_kennedy_pc(pr, g, beta)
        return pe_ik - pe_h, (pe_ik - pe_h) / pe_h

    def test_relative_gap_decreases_into_weak_signal(self):
        (abs1, rel1), (abs01, rel01), (abs001, rel001) = (
            self._gaps(1.0),
            self._gaps(0.1),
            self._gaps(0.01),
        )
        assert rel1 > rel01 > rel001
        assert rel1 == pytest.approx(0.8610107468, rel=1e-8)
        assert rel01 == pytest.approx(0.1554745199, rel=1e-8)
        assert rel001 == pytest.approx(0.03441736038, rel=1e-8)
        # absolute gap: peaks between 1.0 and 0.01, shrinking on the weak tail
        assert abs01 > abs001
        assert abs1 < abs01


def _ik_root_mp(q0: float, gamma: float):
    """Optimal Kennedy displacement at 50 digits: root of the log residual in
    ``u = ln(beta - gamma)`` on its analytic bracket."""
    with mpmath.workdps(50):
        g = mpf(gamma)
        log_odds = mpmath.log(mpf(q0) / mpf(1.0 - q0))  # the float q1 Priors holds

        def resid(u):
            e = mpmath.exp(u)
            return log_odds + u - mpmath.log(2 * g + e) + 4 * g * (g + e)

        lo = mpmath.log(2 * g) - log_odds - 4 * g * g - 1
        u = mpmath.findroot(resid, (lo, -mpmath.log(g)), solver="anderson")
        return g + mpmath.exp(u)


def _sd_max_mp(q0: float, psi: float, T: float, n: int = 48):
    """Global maximizer in ``beta`` of the simplified Dolinar ``P_c`` at 50
    digits, and the number of sign changes of its stationarity residual on
    an ``n``-point geometric grid over ``[gamma, max(sqrt(3)*gamma, sqrt(2))]``,
    the bracket that :func:`optimal_beta_sd` proves holds the maximum.  Each
    sign change is solved for, and the root of largest ``P_c`` is returned."""
    with mpmath.workdps(50):
        q0 = mpf(q0)
        c, g = q0 - mpf(0.5), mpf(psi) * mpmath.sqrt(mpf(T))

        def resid(b):
            s = g * g + b * b
            return (b * b - g * g) / s - 4 * b * (b - c * s / g) / mpmath.expm1(2 * s)

        def pc(b):
            s = g * g + b * b
            return 0.5 + g * b / s + (q0 - 0.5 - g * b / s) * mpmath.exp(-2 * s)

        hi = max(mpmath.sqrt(3) * g, mpmath.sqrt(2))
        grid = [g * (hi / g) ** (mpf(k) / n) for k in range(n + 1)]
        signs = [resid(b) > 0 for b in grid]
        assert not signs[0] and signs[-1]
        cells = [k for k in range(n) if signs[k] != signs[k + 1]]
        roots = [mpmath.findroot(resid, (grid[k], grid[k + 1]), solver="anderson") for k in cells]
        return max(roots, key=pc) / mpmath.sqrt(mpf(T)), len(cells)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestOptimizersAgainstMpmath:
    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6])
    def test_improved_kennedy(self, q0):
        # Near q0 = 1/2 and below gamma**2 ~ 1e-10 the root's excess e**u = beta - gamma
        # is far above gamma, where u - ln(2*gamma + e**u) cancels.
        for g_sq in np.geomspace(1e-20, 400.0, 91):
            g = math.sqrt(float(g_sq))
            want = _ik_root_mp(q0, g)
            assert abs(mpf(optimal_beta_ik(Priors(q0), g)) - want) <= mpf(1e-14) * want

    @pytest.mark.parametrize("q0", [0.5, 0.7, 0.9, 1.0 - 1e-6])
    @pytest.mark.parametrize("T", [0.2, 1.0, 4.0])
    def test_simplified_dolinar(self, q0, T):
        for g_sq in np.geomspace(1e-3, 100.0, 20):
            psi, rt = math.sqrt(float(g_sq) / T), math.sqrt(T)
            want, _ = _sd_max_mp(q0, psi, T)
            assert abs(mpf(optimal_beta_sd(Priors(q0), psi * rt) / rt) - want) <= mpf(1e-14) * want

    @pytest.mark.parametrize("gamma", [1e-200, 1e-150, 13.0, 13.6, 14.0, 20.0, 40.0])
    @pytest.mark.parametrize("T", [1e-12, 1.0, 1e12])
    def test_simplified_dolinar_at_a_near_certain_prior(self, gamma, T):
        # At 1e-200, 2*s underflows to 0 near gamma and w takes its limit 1;
        # past gamma ~ 13.6 the residual at gamma rounds to 0 and gamma is
        # returned, within an ulp of the optimum.
        rt = math.sqrt(T)
        psi = gamma / rt
        want, _ = _sd_max_mp(1.0 - 1e-9, psi, T)
        got = optimal_beta_sd(Priors(1.0 - 1e-9), psi * rt) / rt
        assert abs(mpf(got) - want) <= mpf(1e-14) * want


@settings(max_examples=100, deadline=None)
@given(
    q0=st.floats(0.5, 1.0, exclude_max=True),
    gamma_sq=log_uniform(1e-300, 400.0),
    T=log_uniform(1e-12, 1e12),
)
def test_sd_bracket_holds_the_one_maximum_over_the_domain(q0, gamma_sq, T):
    pr = Priors(q0)
    psi = math.sqrt(gamma_sq / T)
    gamma = psi * math.sqrt(T)  # photon-number units
    hi = max(math.sqrt(3.0) * gamma, math.sqrt(2.0))
    assert sd_displacement_residual(pr, gamma, gamma) <= 0.0
    assert sd_displacement_residual(pr, gamma, hi) > 0.0
    want, sign_changes = _sd_max_mp(q0, psi, T)
    assert sign_changes == 1
    assert abs(mpf(optimal_beta_sd(pr, gamma) / math.sqrt(T)) - want) <= mpf(1e-14) * want


@settings(max_examples=200, deadline=None)
@given(
    q0=st.floats(0.5, 1.0),
    gamma_sq=st.lists(st.floats(1e-6, 500.0), min_size=1, max_size=8),
    T=st.floats(0.03, 30.0),
)
def test_optimizers_return_and_beat_kennedy_over_the_domain(q0, gamma_sq, T):
    # One lane-wise solve per optimizer; each lane also matches scipy's
    # Brent on its own residual bit for bit.
    pr = Priors(q0)
    g = np.sqrt(gamma_sq)
    g_sd = np.sqrt(np.array(gamma_sq) / T) * math.sqrt(T)  # psi*sqrt(T)
    with solves_checked_against_scipy():
        beta_ik = optimal_beta_ik(pr, g)
        beta_sd = optimal_beta_sd(pr, g_sd)
    assert np.all(improved_kennedy_pc(pr, g, beta_ik) >= improved_kennedy_pc(pr, g, g) - 1e-12)
    assert np.all(
        simplified_dolinar_pc(pr, g_sd, beta_sd) >= simplified_dolinar_pc(pr, g_sd, g_sd) - 1e-12
    )
