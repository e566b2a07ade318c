"""Continuous feedback receiver: control laws, ODE, telegraph sampling."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mpf
from scipy.integrate import quad

from qsdr import (
    ControlLaw,
    EvolveResult,
    LawFamily,
    McEstimate,
    PcState,
    Priors,
    SingularControlError,
    coherent_overlap,
    evolve_pc,
    evolve_pe,
    feedback_amplitude,
    helstrom_bound,
    helstrom_error,
    helstrom_trajectory,
    kennedy_pc,
    rates,
    segmented_pc,
    simplified_dolinar_pc,
    simulate_telegraph,
    telegraph_chunks,
)
import qsdr.dolinar as dolinar_mod
from qsdr.dolinar import _Segments
from qsdr.statemath import _margin_sq
import oracles
from oracles import IntegrationError, evolve_pc_general, rk45, verify_control_identity
from test_cli import log_uniform
from test_multicopy import hex_digest
from test_streams import one_chunk, same_records, trial_slice

HEL_TRAJ_711 = 0.99613880702215365   # frozen: q0=0.7, psi=1, t=1
HELSTROM_HALF_02 = 0.87103606155021455

# sha256 (test_multicopy.hex_digest) of feedback_amplitude and helstrom_trajectory, one
# scalar call per point of LAW_GRID, recorded when both took only a float t.
LAW_GRID = [(q0, psi) for q0 in (0.0, 0.3, 0.5, 0.5 + 2**-30, 0.7, 1.0) for psi in (1e-3, 0.8, 3.0)]
LAW_TIMES = np.geomspace(1e-9, 20.0, 31).tolist()
LAW_SHA256 = "b394666feffa667f996611b6f6b6a5ce3ddd43b3fd22760036b1ab72fc528e4d"

# Frozen slot-count convergence study: q0=0.7, psi=1, T=1, deviation of the
# segmented receiver from the continuous optimum.
SEG_DEV = {
    1: 0.15131129123685349,
    10: 3.9623055757115396e-04,
    100: 2.8671353052809172e-06,
    1000: 2.7214267378352391e-08,
}


class TestFeedbackAmplitude:
    def test_initial_value_from_prior_margin(self):
        # psi / |q0 - q1| at t = 0
        assert feedback_amplitude(Priors(0.7), 1.0, 0.0) == pytest.approx(2.5, abs=1e-12)

    def test_balanced_priors_diverge_at_start(self):
        with pytest.raises(SingularControlError,
                           match=r"^optimal feedback diverges at t=0\.0 for q0=0\.5$"):
            feedback_amplitude(Priors(0.5), 1.0, 0.0)

    def test_values_keep_their_bits(self):
        rows = []
        for q0, psi in LAW_GRID:
            rows.append([feedback_amplitude(Priors(q0), psi, t) for t in LAW_TIMES])
            rows.append([helstrom_trajectory(Priors(q0), psi, t) for t in LAW_TIMES])
        assert hex_digest(rows) == LAW_SHA256

    @pytest.mark.parametrize("q0", [0.0, 0.3, 0.5, 0.5 + 2**-30, 0.7, 1.0])
    def test_array_call_is_the_scalar_calls(self, q0):
        # Lane by lane and bit for bit, also where k*t passes the float range (the margin
        # takes its limit 1 without a warning); psi and t broadcast.
        pr = Priors(q0)
        # Equal priors diverge where 4*psi**2*t underflows (the next test).
        psi = [1e-3, 0.8, 3.0, 6.7e153] if q0 == 0.5 else [1e-160, 1e-3, 0.8, 3.0, 6.7e153]
        t = np.geomspace(1e-300, 1e308, 61)
        for f in (feedback_amplitude, helstrom_trajectory):
            got = f(pr, np.array(psi)[:, None], t)
            want = [[f(pr, p, x) for x in t.tolist()] for p in psi]
            assert got.shape == (len(psi), 61)
            assert [[x.hex() for x in row] for row in got.tolist()] == \
                [[x.hex() for x in row] for row in want]
            assert f(pr, np.array(psi), 2.0).tolist() == [f(pr, p, 2.0) for p in psi]

    def test_diverging_lane_names_the_first_t(self):
        # Equal priors diverge at t = 0 and wherever 4*psi**2*t underflows: at psi = 1e-160
        # below t of about 6e-5, so the second lane is the first to diverge.
        pr, t = Priors(0.5), np.array([1e300, 1e-5, 0.0, 1e-10])
        with pytest.raises(SingularControlError,
                           match=r"^optimal feedback diverges at t=1e-05 for q0=0\.5$"):
            feedback_amplitude(pr, 1e-160, t)
        with pytest.raises(SingularControlError, match=r"at t=0\.0 for q0=0\.5$"):
            feedback_amplitude(pr, np.array([1.0, 2.0]), np.array([[0.5], [0.0]]))
        # The bound does not diverge: it is the blind guess 1/2 on those lanes.
        assert helstrom_trajectory(pr, 1e-160, t).tolist()[1:] == [0.5, 0.5, 0.5]

    def test_decreases_toward_signal_amplitude(self):
        ts = np.linspace(0.0, 6.0, 40)
        us = [feedback_amplitude(Priors(0.7), 1.0, float(t)) for t in ts]
        assert all(b < a for a, b in zip(us, us[1:]))
        assert us[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(u > 1.0 for u in us)

    def test_validation(self):
        with pytest.raises(ValueError):
            feedback_amplitude(Priors(0.7), -1.0, 0.5)
        with pytest.raises(ValueError):
            feedback_amplitude(Priors(0.7), 1.0, -0.5)
        # Past 6.7e153, 4*psi**2 overflows.
        with pytest.raises(ValueError, match=r"4\*psi\*\*2 overflows.*got 1e\+154$"):
            feedback_amplitude(Priors(0.7), 1e154, 0.0)
        assert feedback_amplitude(Priors(0.7), 6.7e153, 0.0) == pytest.approx(6.7e153 / 0.4)


class TestRates:
    def test_matched_field_is_dark(self):
        assert rates(1.0, 1.0) == (0.0, 4.0)

    def test_no_feedback(self):
        assert rates(1.0, 0.0) == (1.0, 1.0)

    def test_plain_pair(self):
        assert type(rates(2.0, 0.5)) is tuple and rates(2.0, 0.5) == (2.25, 6.25)


class TestHelstromTrajectory:
    def test_frozen_value(self):
        assert helstrom_trajectory(Priors(0.7), 1.0, 1.0) == pytest.approx(
            HEL_TRAJ_711, abs=1e-15
        )

    def test_start_is_blind_guess(self):
        assert helstrom_trajectory(Priors(0.7), 1.0, 0.0) == pytest.approx(0.7, abs=1e-15)
        assert helstrom_trajectory(Priors(0.5), 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_static_bound_at_partial_overlap(self):
        # observing t seconds leaves overlap exp(-2 psi^2 t)
        for q0 in (0.5, 0.7):
            for t in np.linspace(0.0, 2.0, 21):
                want = helstrom_bound(Priors(q0), math.exp(-2.0 * float(t)))
                got = helstrom_trajectory(Priors(q0), 1.0, float(t))
                assert got == pytest.approx(want, abs=1e-14)

    def test_example_value(self):
        assert helstrom_trajectory(Priors(0.5), 1.0, 0.2) == pytest.approx(
            HELSTROM_HALF_02, abs=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            helstrom_trajectory(Priors(0.5), -1.0, 0.5)
        with pytest.raises(ValueError):
            helstrom_trajectory(Priors(0.5), 1.0, -0.1)


class TestControlLaw:
    def test_constant(self):
        law = ControlLaw.constant(0.8)
        assert law == ControlLaw((0.0,), (0.8,)) == LawFamily(beta=0.8).law(Priors(0.5), 3.0)
        assert law.u0(0.0) == 0.8 and law.u0(5.0) == 0.8
        assert law.starts[1:] == ()

    def test_piecewise_slots_are_left_closed(self):
        law = ControlLaw.piecewise_constant([2.0, 3.0], 1.0)
        assert law.starts[1:] == (0.5,)
        assert law.u0(0.0) == 2.0
        assert law.u0(0.49) == 2.0
        assert law.u0(0.5) == 3.0
        assert law.u0(1.0) == 3.0  # clamped into the last slot

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            ControlLaw.piecewise_constant([], 1.0)
        with pytest.raises(ValueError):
            ControlLaw.piecewise_constant([1.0], 0.0)

    def test_optimal_law_unequal_priors(self):
        law = LawFamily().law(Priors(0.7), 1.0)
        assert law == ControlLaw((0.0,), (), (Priors(0.7), 1.0))
        assert law.u0(0.0) == pytest.approx(2.5, abs=1e-12)

    def test_optimal_law_balanced_priors_needs_regularization(self):
        law = LawFamily().law(Priors(0.5), 1.0)
        with pytest.raises(SingularControlError):
            law.u0(0.0)

    def test_time_floor(self):
        law = LawFamily(t_floor=1e-6).law(Priors(0.5), 1.0)
        frozen = feedback_amplitude(Priors(0.5), 1.0, 1e-6)
        assert law.u0(0.0) == frozen
        assert law.u0(1e-7) == frozen
        assert law.u0(2e-6) == feedback_amplitude(Priors(0.5), 1.0, 2e-6)

    def test_cap(self):
        law = LawFamily(u_max=10.0).law(Priors(0.5), 1.0)
        assert law.values == (10.0,) and law.optimal == (Priors(0.5), 1.0)
        assert law.u0(0.0) == 10.0
        law7 = LawFamily(u_max=2.0).law(Priors(0.7), 1.0)
        assert law7.u0(0.0) == 2.0  # clamps the 2.5 start value
        assert law7.u0(3.0) == feedback_amplitude(Priors(0.7), 1.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LawFamily(t_floor=-1.0).law(Priors(0.5), 1.0)
        with pytest.raises(ValueError):
            LawFamily(u_max=0.0).law(Priors(0.5), 1.0)
        with pytest.raises(ValueError):
            LawFamily(u_max=2.0).law(Priors(0.5), -1.0)

    def test_cap_and_floor_are_a_constant_prefix_slot(self):
        pr = Priors(0.5)
        capped = LawFamily(u_max=8.0).law(pr, 1.0)
        (t_cap,) = capped.starts[1:]
        assert capped.values == (8.0,) and capped.optimal == (pr, 1.0)
        assert feedback_amplitude(pr, 1.0, t_cap) == pytest.approx(8.0, rel=1e-12)
        assert LawFamily(t_floor=0.05).law(pr, 1.0).starts[1:] == (0.05,)
        # The cap outlasts a short floor, so one slot covers both.
        both = LawFamily(u_max=4.0, t_floor=0.01).law(pr, 1.0)
        assert both.values == (4.0,) and both.starts[1] > 0.01
        assert LawFamily().law(Priors(0.7), 1.0).starts[1:] == ()
        # u_max below psi binds everywhere: a constant law throughout.
        assert LawFamily(u_max=2.0).law(Priors(0.7), 3.0) == ControlLaw.constant(2.0)

    @pytest.mark.parametrize(
        "q0,psi,t_floor,u_max",
        [(0.5, 1.0, None, 8.0), (0.5, 1.0, 0.05, None), (0.5, 1.0, 0.01, 4.0),
         (0.7, 1.0, 0.3, 2.2), (0.7, 3.0, None, 2.0), (0.5, 0.0, 0.1, 3.0)],
    )
    def test_u0_is_the_clamped_floored_law(self, q0, psi, t_floor, u_max):
        pr = Priors(q0)
        law = LawFamily(t_floor=t_floor, u_max=u_max).law(pr, psi)

        def want(t):
            try:
                u = feedback_amplitude(pr, psi, max(t, t_floor or 0.0))
            except SingularControlError:
                return u_max
            return u if u_max is None else min(u, u_max)

        for t in np.linspace(0.0, 1.0, 101):
            assert law.u0(float(t)) == pytest.approx(want(float(t)), rel=1e-12)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ControlLaw((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            ControlLaw((0.5,), (1.0,))
        with pytest.raises(ValueError):
            ControlLaw((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            ControlLaw((0.0,), ())


class TestStateTypes:
    def test_pc_state_mixes_conditionals(self):
        st = PcState(0.1, 0.3, 1.0)  # conditional errors
        assert st.pc(Priors(0.7)) == pytest.approx(0.7 * 0.9 + 0.3 * 0.7, abs=1e-15)
        assert st.pe(Priors(0.7)) == pytest.approx(0.7 * 0.1 + 0.3 * 0.3, abs=1e-15)

    def test_evolve_result_is_immutable(self):
        res = evolve_pc(Priors(0.7), 1.0, ControlLaw.constant(0.8), 1.0, sample_times=(0.5,))
        with pytest.raises(AttributeError):
            res.final = res.final

    def test_pc_state_validation(self):
        with pytest.raises(ValueError):
            PcState(1.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            PcState(0.5, -0.5, 1.0)
        with pytest.raises(ValueError):
            PcState(0.5, 0.5, -1.0)

class TestEvolvePc:
    def test_constant_law_matches_closed_form(self):
        law = ControlLaw.constant(0.6)
        for q0 in (0.5, 0.7):
            pr = Priors(q0)
            want = simplified_dolinar_pc(pr, 1.0, 0.6, 1.0)
            for res in (evolve_pc(pr, 1.0, law, 1.0), rk45(pr, 1.0, law, 1.0)):
                assert res.final.pc(pr) == pytest.approx(want, abs=1e-10)

    def test_optimal_law_rides_the_bound(self):
        pr = Priors(0.7)
        law = LawFamily().law(pr, 1.0)
        times = np.linspace(0.0, 1.0, 52)
        for res in (evolve_pc(pr, 1.0, law, 1.0, times), rk45(pr, 1.0, law, 1.0, times)):
            for t, pc in zip(res.times[1:-1], res.pc[1:-1]):
                assert abs(pc - helstrom_trajectory(pr, 1.0, float(t))) < 1e-6
            assert res.final.pc(pr) == pytest.approx(HEL_TRAJ_711, abs=1e-8)

    def test_zero_control_learns_nothing_at_equal_priors(self):
        pr = Priors(0.5)
        res = evolve_pc(pr, 1.0, ControlLaw.constant(0.0), 1.0)
        assert np.max(np.abs(res.pc - 0.5)) < 1e-9

    def test_returns_requested_samples(self):
        times = np.array([0.0, 0.25, 1.0])
        res = evolve_pc(Priors(0.7), 1.0, ControlLaw.constant(0.5), 1.0, sample_times=times)
        assert isinstance(res, EvolveResult)
        assert np.array_equal(res.times, times)
        assert res.pc.shape == (3,)
        assert res.pc[-1] == pytest.approx(res.final.pc(Priors(0.7)), abs=1e-12)

    def test_rejects_samples_outside_horizon(self):
        with pytest.raises(ValueError):
            evolve_pc(
                Priors(0.7),
                1.0,
                ControlLaw.constant(0.5),
                1.0,
                sample_times=np.array([0.0, 1.5]),
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve_pc(Priors(0.7), -1.0, ControlLaw.constant(0.5), 1.0)
        with pytest.raises(ValueError):
            evolve_pc(Priors(0.7), 1.0, ControlLaw.constant(0.5), 0.0)

    def test_uncapped_balanced_law_is_rejected_at_start(self):
        pr = Priors(0.5)
        law = LawFamily().law(pr, 1.0)
        with pytest.raises(SingularControlError):
            evolve_pc(pr, 1.0, law, 1.0)

    def test_optimal_segment_must_match_the_signal(self):
        # The closed form and the sampler need the signal's psi; RK45 integrates the mismatch.
        pr = Priors(0.7)
        message = (r"^optimal law built for psi=1\.0, not 2\.0; LawFamily\(\.\.\.\)\.law\(priors, "
                   r"psi\) builds the law of this signal$")
        for law in (LawFamily().law(pr, 1.0), LawFamily(u_max=2.0).law(pr, 1.0)):
            with pytest.raises(ValueError, match=message):
                evolve_pc(pr, 2.0, law, 1.0)
            chunks = telegraph_chunks(pr, 2.0, law, 1.0, 10, seed=0)  # checked at the first chunk
            with pytest.raises(ValueError, match=message):
                next(chunks)
            assert 0.5 < rk45(pr, 2.0, law, 1.0).final.pc(pr) < 1.0
        # Before the optimal segment starts the law is a constant slot, fit for any signal.
        (switch,) = law.starts[1:]
        got = evolve_pc(pr, 2.0, law, 0.5 * switch).final.pc(pr)
        assert got == pytest.approx(rk45(pr, 2.0, law, 0.5 * switch).final.pc(pr), abs=1e-12)

    @pytest.mark.parametrize(
        "q0,law",
        [
            (0.5, {"u_max": 3.0}),
            (0.7, {"t_floor": 0.05}),
            (0.6, {"t_floor": 0.3, "u_max": 2.0}),
            (0.7, {"beta": 1.2}),
            (1.0, {"t_floor": 0.2}),  # q1 = 0: the optimal segment is a constant
            (0.7, ControlLaw.piecewise_constant([2.0, 0.5, 1.5, 1.0], 0.8)),
        ],
        ids=["capped", "floored", "capped_and_floored", "constant", "q1_zero", "four_slots"],
    )
    def test_each_sample_is_the_evolution_to_its_time(self, q0, law):
        # Bit for bit, at the law's own edges too.
        pr, T = Priors(q0), 1.0
        if isinstance(law, dict):
            law = LawFamily(**law).law(pr, 1.0)
        times = np.union1d(np.linspace(0.0, T, 41)[1:], [s for s in law.starts if 0.0 < s < T])
        res = evolve_pc(pr, 1.0, law, T, times)
        for t, p0, p1 in zip(times.tolist(), res.p0.tolist(), res.p1.tolist()):
            final = evolve_pc(pr, 1.0, law, t, sample_times=()).final
            assert (p0, p1) == (1.0 - final.e0, 1.0 - final.e1), t

    def test_never_integrates_numerically(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(dolinar_mod, "solve_ivp", refuse)
        pr = Priors(0.5)
        law = LawFamily(u_max=8.0, t_floor=0.01).law(pr, 1.0)
        assert evolve_pc(pr, 1.0, law, 1.0).final.pc(pr) > 0.99
        assert segmented_pc(pr, 1.0, 1.0, 10) > 0.99


def reference_pe(priors, psi, law, T):
    """Error probability at T by the integrating factor, with mpmath at 50 digits.

    Both conditionals obey ``e' = lam - (lam + mu) * e``, so with ``Lambda`` the
    integral of ``lam + mu`` from 0, ``pe(T) = exp(-Lambda(T)) * (pe(0) +
    integral of lam * exp(Lambda) over [0, T])``.  The integral is taken by
    ``mpmath.quad`` segment by segment, each integrand scaled to order one
    (quad's tolerance is absolute).  ``Lambda`` is linear on a constant slot;
    on the optimal-law segment it is ``ln(exp(k*t) * R)``, which
    ``test_integrating_factor`` checks against quad.
    """
    with mpmath.workdps(50):
        psi, T = mpf(psi), mpf(T)
        edges = [mpf(s) for s in law.starts if s < T] + [T]
        slots = len(law.values)
        if law.optimal is not None:
            opt, law_psi = law.optimal
            c, k, law_psi = 4 * mpf(opt.q0) * mpf(opt.q1), 4 * mpf(law_psi) ** 2, mpf(law_psi)

        def x(t):
            return c * mpmath.exp(-k * t)

        def integrand(i, b):
            # lam(s) * exp(Lambda(s) - Lambda(b)) on segment i, ending at b.
            if i < slots:
                u = mpf(law.values[i])
                return lambda s: (psi - u) ** 2 * mpmath.exp(2 * (psi**2 + u**2) * (s - b))
            xb, rb = x(b), mpmath.sqrt(1 - x(b))

            def f(s):
                xs = x(s)
                r = mpmath.sqrt(1 - xs)
                # psi - law_psi/R, free of cancellation as R -> 1.
                d = psi - law_psi + law_psi * xs / ((1 + r) * r)
                return d * d * (xb / xs) * (r / rb)

            return f

        def growth(i, a, b):  # Lambda(b) - Lambda(a) on segment i
            if i < slots:
                return 2 * (psi**2 + mpf(law.values[i]) ** 2) * (b - a)
            return k * (b - a) + mpmath.log((1 - x(b)) / (1 - x(a))) / 2

        gained, decay = mpf(0), mpf(1)
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            f = integrand(i, b)
            scale = max(f(a), f(b)) or 1
            g = mpmath.exp(-growth(i, a, b))
            gained = gained * g + scale * mpmath.quad(lambda s: f(s) / scale, [a, b])
            decay *= g
        q0, q1 = mpf(priors.q0), mpf(priors.q1)
        e0, e1 = (0, 1) if priors.start_bit == 0 else (1, 0)
        return (q0 * e0 + q1 * e1) * decay + (q0 + q1) * gained


def floored_reference_pe(psi, law, T):
    """:func:`reference_pe` at equal priors for a floor so short that
    ``1 - exp(-k*t)`` rounds to 0 at 50 digits: ``R**2 = -expm1(-k*t)``.

    Both conditionals then obey one equation, so ``pe`` starts at 1/2, the
    floor's slot relaxes it in closed form, and on the optimal-law segment
    ``exp(Lambda) = exp(k*t) * R`` weights the quadrature, which is cut on a
    geometric grid so that it resolves the ``1/sqrt(t)`` rise after the floor.
    """
    with mpmath.workdps(50):
        p, u, a, T = mpf(psi), mpf(law.values[0]), mpf(law.starts[1]), mpf(T)
        k = 4 * p * p
        R = lambda t: mpmath.sqrt(-mpmath.expm1(-k * t))
        s = 2 * (p * p + u * u)
        pe_a = mpmath.exp(-s * a) / 2 - (p - u) ** 2 / s * mpmath.expm1(-s * a)
        f = lambda t: p * p * (R(t) - 1) ** 2 / (R(t) * R(T)) * mpmath.exp(-k * (T - t))
        cuts = [a, *(mpf(10) ** -e for e in range(290, 0, -10)), T]
        return pe_a * mpmath.exp(-k * (T - a)) * R(a) / R(T) + mpmath.quad(f, cuts)


def oracle_laws():
    for q0 in (0.3, 0.5, 0.7, 0.99):
        for psi in (0.3, 1.0, 3.0, 5.0):
            for T in (0.5, 1.0, 3.0):
                pr = Priors(q0)
                laws = {
                    "constant": ControlLaw.constant(1.0),
                    "cap": LawFamily(u_max=2.0 * psi).law(pr, psi),
                    "floor": LawFamily(t_floor=0.05).law(pr, psi),
                    "cap_floor": LawFamily(u_max=3.0 * psi, t_floor=0.02).law(pr, psi),
                    "exact": LawFamily().law(pr, psi),
                    "ten_slots": ControlLaw.piecewise_constant(
                        [feedback_amplitude(pr, psi, (0.1 * i or 0.02) * T) for i in range(10)], T
                    ),
                }
                if q0 == 0.5:
                    del laws["exact"]  # singular at t = 0
                for name, law in laws.items():
                    yield pytest.param(pr, psi, law, T, id=f"q0={q0}-psi={psi}-T={T}-{name}")


def law_shape(family: LawFamily, law: ControlLaw, T: float) -> str:
    """Which of the shapes of ``family``'s laws ``law`` has."""
    if family.beta is not None:
        return "constant"
    if law.optimal is None:
        return "cap at or below psi"
    if len(law.starts) == 1:
        return "uncapped"
    if family.u_max is None:
        return "time floor"
    return "switch inside T" if law.starts[1] < T else "switch past T"


class TestEvolvePe:
    """The batched evolution of a sweep equals evolve_pc point by point."""

    # Sweeps whose points together cross every law shape; psi spans 1e-3 to 5.5.
    SWEEPS = [
        (0.7, 1.0, {}),
        (0.7, 1.0, {"u_max": 1.5}),
        (0.5, 0.3, {"u_max": 1.5}),
        (0.2, 3.0, {"u_max": 1.2}),
        (0.5, 1.0, {"t_floor": 0.01}),
        (0.6, 1.0, {"t_floor": 0.5, "u_max": 2.0}),
        (1.0, 1.0, {"t_floor": 0.2}),  # q1 = 0: the optimal segment is a constant
        (0.7, 1.0, {"beta": 1.2}),
    ]

    def test_equals_evolve_pc_bit_for_bit_over_every_law_shape(self):
        shapes = set()
        for q0, T, kw in self.SWEEPS:
            pr = Priors(q0)
            psi = np.sqrt(np.geomspace(1e-6, 30.0, 300) / T)
            family = LawFamily(**kw)
            laws = [family.law(pr, p) for p in psi.tolist()]
            want = [evolve_pc(pr, p, law, T, sample_times=()).final.pe(pr)
                    for p, law in zip(psi.tolist(), laws)]
            got = evolve_pe(pr, psi, family, T)
            assert got.tolist() == want, (q0, T, kw)
            shapes.update(law_shape(family, law, T) for law in laws)
        assert shapes == {"uncapped", "switch inside T", "switch past T",
                          "cap at or below psi", "time floor", "constant"}

    def test_law_family_never_builds_a_law_per_point(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point law")

        for name in ("feedback_amplitude", "_segment_table"):
            monkeypatch.setattr(dolinar_mod, name, refuse)
        monkeypatch.setattr(LawFamily, "law", refuse)
        psi = np.sqrt(np.geomspace(1e-6, 30.0, 50))
        for q0, T, kw in self.SWEEPS:
            assert evolve_pe(Priors(q0), psi, LawFamily(**kw), T).shape == (50,)

    def test_uncapped_balanced_law_is_singular(self):
        pr = Priors(0.5)
        psi = np.array([0.5, 1.0])
        with pytest.raises(SingularControlError):  # a floor of 0 is no floor
            evolve_pe(pr, psi, LawFamily(t_floor=0.0), 1.0)
        # A floor of 1e-300 regularizes: R**2 is 4*psi**2*1e-300 > 0 there.
        family = LawFamily(t_floor=1e-300)
        pe = evolve_pe(pr, psi, family, 1.0)
        helstrom = np.array([helstrom_error(pr, coherent_overlap(p * p)) for p in psi.tolist()])
        assert np.all((pe >= helstrom * (1.0 - 1e-12)) & (pe <= 0.5))
        want = floored_reference_pe(1.0, family.law(pr, 1.0), 1.0)
        assert abs(pe[1] - want) <= 1e-12 * want

    def test_weak_capped_signal_matches_mpmath(self):
        # (psi/u_max)**2 = 1e-18 lies below the float spacing of 1: the cap's
        # switch is 1/4 only if the margin keeps its digits.
        pr, family = Priors(0.5), LawFamily(u_max=1.0)
        law = family.law(pr, 1e-9)
        assert law.starts[1] == pytest.approx(0.25, rel=1e-15)
        (got,) = evolve_pe(pr, np.array([1e-9]), family, 1.0)
        want = reference_pe(pr, 1e-9, law, 1.0)
        assert abs(got - want) <= 1e-12 * want

    def test_validation(self):
        family = LawFamily(beta=0.5)
        with pytest.raises(ValueError, match="psi"):
            evolve_pe(Priors(0.7), np.array([-1.0]), family, 1.0)
        with pytest.raises(ValueError, match="T"):
            evolve_pe(Priors(0.7), np.array([1.0]), family, 0.0)
        # The optimal law's k = 4*psi**2 overflows on the second lane.
        with pytest.raises(ValueError, match=r"must be at most 4\.494e\+307.*got 1e\+154$"):
            evolve_pe(Priors(0.7), np.array([1.0, 1e154, 2e154]), LawFamily(), 1e-300)

    def test_an_error_out_of_range_is_refused(self, monkeypatch):
        # The range check of PcState, on the first point whose errors leave [0, 1].
        monkeypatch.setattr(dolinar_mod, "_relax_constant", lambda e, *args: e + 2.0)
        with pytest.raises(ValueError, match=r"^e0 must lie in \[0, 1\], got 2\.0$"):
            evolve_pe(Priors(0.7), np.array([0.5, 1.0]), LawFamily(beta=0.5), 1.0)


class TestLawFamily:
    """One description of a law: a constant envelope, or the optimal law
    with its cap and floor."""

    @pytest.mark.parametrize("kw", [{"beta": 1.2, "u_max": 2.0}, {"beta": 1.2, "t_floor": 0.1},
                                    {"beta": 0.0, "t_floor": 0.0, "u_max": 8.0}])
    def test_beta_with_cap_or_floor_is_refused(self, kw):
        with pytest.raises(ValueError, match="^beta sets a constant law; it takes no t_floor"):
            LawFamily(**kw)

    @pytest.mark.parametrize("kw,message", [({"t_floor": -1.0}, "t_floor must be >= 0"),
                                            ({"u_max": 0.0}, "u_max must be > 0")])
    def test_bad_cap_or_floor_is_refused_when_built(self, kw, message):
        with pytest.raises(ValueError, match=message):
            LawFamily(**kw)


def dyadic_q0(bits: int):
    """Priors ``n / 2**bits``, often equal ones; with ``bits <=
    26``, ``4*q0*q1`` is exact, so the margin is a function of exact inputs."""
    return (st.just(0.5) | st.integers(0, 2**bits).map(lambda n: n / 2**bits)).map(Priors)


def near_half():
    """Priors ``1/2 + 2**-k``, k = 2..52: ``4*q0*q1`` rounds to 1 from k = 27 on."""
    return st.integers(2, 52).map(lambda k: Priors(0.5 + 2.0**-k))


def ulps(got: float, want) -> float:
    """Relative error of ``got`` in units of ``2**-52``: ulps as at the bottom
    of ``want``'s binade, so that a bound summed from rounding errors holds
    anywhere in the binade."""
    return float(abs(mpf(got) - want) / abs(want) * 2**52)


@st.composite
def capped_weak_and_strong(draw):
    """A capped law whose cap binds at t = 0: ``psi``, ``u_max >= 2*psi`` and
    priors so near 1/2 that ``-ln c`` is at most a sixteenth of ``-log1p(-x**2)``,
    ``x = psi/u_max``.  The switch time is then well conditioned in its inputs,
    however small ``x`` is, and its roundings (``x``, ``x**2``, ``log1p``,
    ``ln c``, the difference, ``k`` and the quotient) sum to under 4 units."""
    psi = draw(log_uniform(1e-150, 1e3))
    u_max = psi * draw(log_uniform(2.0, 1e150))
    m = draw(st.integers(0, min(2**23, int(psi / u_max * 2**23))))
    return Priors(0.5 - m / 2**26), psi, u_max


class TestMarginAgainstMpmath:
    """The optimal law, its evolution and the cap's switch time keep their
    digits at weak signals, where ``1 - c*exp(-k*t)`` and ``log(c/g)`` lose
    them, and at priors so near 1/2 that ``4*q0*q1`` rounds to 1.  These
    anchors are independent of :func:`helstrom_trajectory`, which forms its
    margin as the law does."""

    @settings(max_examples=300, deadline=None)
    @given(dyadic_q0(26) | near_half(), log_uniform(1e-150, 1e3),
           st.just(0.0) | log_uniform(1e-6, 1e6))
    def test_feedback_amplitude_within_4_ulp(self, priors, psi, t):
        if priors.q0 == priors.q1 and t == 0.0:
            return  # the law diverges there (TestFeedbackAmplitude)
        with mpmath.workdps(50):
            # 1 - c*exp(-k*t), its terms apart: 50 digits do not hold 1 - 1e-300.
            c = 4 * mpf(priors.q0) * mpf(priors.q1)
            want = psi / mpmath.sqrt(1 - c - c * mpmath.expm1(-4 * mpf(psi) ** 2 * t))
            assert ulps(feedback_amplitude(priors, psi, t), want) <= 4.0

    @settings(max_examples=300, deadline=None)
    @given(near_half(), st.lists(log_uniform(1e-20, 150.0), min_size=1, max_size=8))
    def test_uncapped_evolve_pe_rides_the_bound(self, priors, gamma_sqs):
        # The error at T = 1 is the Helstrom error at gamma_sq = psi**2.  The exponents,
        # of size k*T = 4*psi**2, carry roundings that exp turns into relative errors:
        # up to 2*k*T ulps (3.5*psi**2 seen, 6.9e-14 near gamma_sq = 130), and a few more.
        psi = np.sqrt(gamma_sqs)
        pe = evolve_pe(priors, psi, LawFamily(), 1.0)
        for got, p in zip(pe.tolist(), psi.tolist()):
            with mpmath.workdps(50):
                q0, q1, g = mpf(priors.q0), mpf(priors.q1), mpf(p) ** 2
                r = mpmath.sqrt((q0 - q1) ** 2 + 4 * q0 * q1 * -mpmath.expm1(-4 * g))
                want = 4 * q0 * q1 * mpmath.exp(-4 * g) / (2 * (1 + r))
            assert ulps(got, want) <= 16.0 + 8.0 * p * p

    @settings(max_examples=300, deadline=None)
    @given(capped_weak_and_strong())
    def test_switch_time_within_4_ulp(self, case):
        priors, psi, u_max = case
        (switch,), (value,) = LawFamily(u_max=u_max).slots(priors, np.array([psi]))
        assert value == u_max
        with mpmath.workdps(50):
            c, x = 4 * mpf(priors.q0) * mpf(priors.q1), mpf(psi) / mpf(u_max)
            want = (mpmath.log(c) - mpmath.log1p(-x * x)) / (4 * mpf(psi) ** 2)
            assert ulps(switch, want) <= 4.0


class TestClosedFormAgainstMpmath:
    @pytest.mark.parametrize("priors,psi,law,T", list(oracle_laws()))
    def test_error_probability(self, priors, psi, law, T):
        got = evolve_pc(priors, psi, law, T, sample_times=()).final.pe(priors)
        want = reference_pe(priors, psi, law, T)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.99])
    @pytest.mark.parametrize("psi", [0.3, 1.0, 5.0])
    def test_integrating_factor(self, q0, psi):
        # d/dt ln(exp(k*t) * R) = lam + mu under u0 = psi/R, checked by quadrature.
        with mpmath.workdps(50):
            c, k, psi = 4 * mpf(q0) * (1 - mpf(q0)), 4 * mpf(psi) ** 2, mpf(psi)
            R = lambda t: mpmath.sqrt(1 - c * mpmath.exp(-k * t))
            a, b = mpf("0.01"), mpf(1)
            total = mpmath.quad(lambda t: 2 * psi**2 * (1 + 1 / R(t) ** 2), [a, b])
            assert abs(total - (k * (b - a) + mpmath.log(R(b) / R(a)))) < mpf(10) ** -40


class TestEvolvePcGeneral:
    def test_reduces_to_symmetric_form(self):
        pr = Priors(0.7)
        times = np.linspace(0.0, 1.0, 11)
        sym = evolve_pc(pr, 1.0, ControlLaw.constant(0.8), 1.0, sample_times=times)
        gen = evolve_pc_general(
            pr, 1.0, lambda t: 0.8, lambda t: -0.8, 1.0, tol=1e-12, sample_times=times
        )
        assert gen.final.pc(pr) == pytest.approx(sym.final.pc(pr), abs=1e-12)
        assert np.max(np.abs(gen.pc - sym.pc)) < 1e-12

    def test_rejects_sample_times_outside_horizon(self):
        # Dense output would silently extrapolate past T.
        for times in ([0.5, 1.0, 3.0], [-0.1, 0.5]):
            with pytest.raises(ValueError, match="within"):
                evolve_pc_general(
                    Priors(0.7), 1.0, lambda t: 0.8, lambda t: -0.8, 1.0,
                    sample_times=times,
                )

    def test_a_stalled_integration_raises(self, monkeypatch):
        stalled = SimpleNamespace(success=False, t=np.array([0.0, 0.25]), message="step too small")
        monkeypatch.setattr(oracles, "solve_ivp", lambda *args, **kwargs: stalled)
        with pytest.raises(IntegrationError, match=r"^integration stalled at t=0\.25: step too small$"):
            evolve_pc_general(Priors(0.7), 1.0, lambda t: 0.8, lambda t: -0.8, 1.0)


class TestSegmentedPc:
    def test_single_slot_equals_constant_law(self):
        pr = Priors(0.7)
        u = feedback_amplitude(pr, 1.0, 1e-9)
        res = rk45(pr, 1.0, ControlLaw.constant(u), 1.0)
        assert segmented_pc(pr, 1.0, 1.0, 1) == pytest.approx(
            res.final.pc(pr), abs=1e-10
        )

    def test_matches_piecewise_ode(self):
        pr = Priors(0.7)
        n, T = 4, 1.0
        h = T / n
        vals = [feedback_amplitude(pr, 1.0, max(i * h, T * 1e-9)) for i in range(n)]
        law = ControlLaw.piecewise_constant(vals, T)
        res = rk45(pr, 1.0, law, T)
        assert segmented_pc(pr, 1.0, T, n) == pytest.approx(
            res.final.pc(pr), abs=1e-9
        )

    def test_frozen_convergence_study(self):
        pr = Priors(0.7)
        hel = helstrom_trajectory(pr, 1.0, 1.0)
        devs = {n: hel - segmented_pc(pr, 1.0, 1.0, n) for n in SEG_DEV}
        for n, frozen in SEG_DEV.items():
            assert abs(devs[n] - frozen) < 1e-12
        ordered = [devs[n] for n in sorted(devs)]
        assert all(b < a for a, b in zip(ordered, ordered[1:]))

    def test_midpoint_sampling_is_more_accurate(self):
        pr = Priors(0.7)
        hel = helstrom_trajectory(pr, 1.0, 1.0)
        for n in (1, 10, 100):
            dev_start = hel - segmented_pc(pr, 1.0, 1.0, n)
            dev_mid = hel - segmented_pc(pr, 1.0, 1.0, n, midpoint=True)
            assert 0.0 < dev_mid < dev_start

    def test_balanced_priors_survive_the_floor(self):
        # slot-start sampling at t=0 would diverge; the floor keeps it finite
        pc = segmented_pc(Priors(0.5), 1.0, 1.0, 100)
        assert 0.5 < pc < helstrom_trajectory(Priors(0.5), 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            segmented_pc(Priors(0.7), 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            segmented_pc(Priors(0.7), 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            segmented_pc(Priors(0.7), -1.0, 1.0, 1)


class TestCappedConvergence:
    def test_tighter_caps_approach_the_bound(self):
        pr = Priors(0.5)
        hel = helstrom_trajectory(pr, 1.0, 1.0)
        finals = []
        for u_max in (5.0, 20.0, 100.0):
            law = LawFamily(u_max=u_max).law(pr, 1.0)
            finals.append(evolve_pc(pr, 1.0, law, 1.0).final.pc(pr))
        assert all(b >= a for a, b in zip(finals, finals[1:]))
        gaps = [hel - f for f in finals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(f <= hel + 1e-9 for f in finals)


class TestSimulateTelegraph:
    def test_same_seed_reproduces_everything(self):
        pr = Priors(0.7)
        law = LawFamily().law(pr, 1.0)
        a = simulate_telegraph(pr, 1.0, law, 1.0, 200, seed=5)
        assert simulate_telegraph(pr, 1.0, law, 1.0, 200, seed=5) == a
        assert same_records(one_chunk(pr, 1.0, law, 1.0, 200, seed=5),
                            one_chunk(pr, 1.0, law, 1.0, 200, seed=5))

    @pytest.mark.parametrize("law", [
        ControlLaw.constant(-1e160),
        # Constant slots before an optimal-law segment, one of them past the float range.
        ControlLaw((0.0, 0.5, 0.8), (1.0, 1e160), (Priors(0.7), 1.0)),
    ])
    def test_rates_past_the_float_range_are_refused(self, law):
        # The analytic evolution relaxes such a slot at once; the sampler cannot draw it.
        with pytest.raises(ValueError, match=r"must be at most 1.341e\+154, got -?1e\+160$"):
            simulate_telegraph(Priors(0.7), 1.0, law, 1.0, 10, seed=1)
        assert 0.0 <= evolve_pc(Priors(0.7), 1.0, law, 1.0, sample_times=()).final.e0 <= 1.0

    def test_trials_are_independent_of_batch_size(self):
        pr = Priors(0.7)
        law = ControlLaw.constant(1.0)
        small = one_chunk(pr, 1.0, law, 1.0, 4, seed=9)
        large = one_chunk(pr, 1.0, law, 1.0, 9, seed=9)
        assert same_records(trial_slice(large, 0, 4), small)

    def test_trajectory_bookkeeping(self):
        pr = Priors(0.7)
        law = ControlLaw.constant(1.0)
        tr = one_chunk(pr, 1.0, law, 1.0, 50, seed=3)
        counts = np.diff(tr.offsets)
        assert len(tr.a) == len(tr.z_final) == len(counts) == 50
        assert tr.offsets[0] == 0 and tr.offsets[-1] == len(tr.times)
        assert np.array_equal(tr.z_final, pr.start_bit ^ (counts & 1))
        assert np.all((0.0 < tr.times) & (tr.times <= 1.0))
        estimate = simulate_telegraph(pr, 1.0, law, 1.0, 50, seed=3).estimate
        assert estimate == np.count_nonzero(tr.z_final == tr.a) / 50

    def test_answer_is_a_binomial_estimate(self):
        res = simulate_telegraph(Priors(0.7), 1.0, ControlLaw.constant(1.0), 1.0, 5, seed=1)
        assert type(res) is McEstimate
        assert res.stderr == pytest.approx(
            math.sqrt(res.estimate * (1.0 - res.estimate) / 5), abs=1e-15
        )

    def test_capped_law_agrees_with_ode(self):
        pr = Priors(0.5)
        law = LawFamily(u_max=10.0).law(pr, 1.0)
        res = simulate_telegraph(pr, 1.0, law, 1.0, 4000, seed=17)
        want = rk45(pr, 1.0, law, 1.0).final.pc(pr)
        assert abs(res.estimate - want) < 4.0 * max(res.stderr, 1e-12)

    def test_matched_envelope_agrees_with_nulling_form(self):
        pr = Priors(0.5)
        res = simulate_telegraph(pr, 1.0, ControlLaw.constant(1.0), 1.0, 4000, seed=23)
        want = kennedy_pc(pr, 1.0)
        assert abs(res.estimate - want) < 4.0 * max(res.stderr, 1e-12)

    def test_zero_control_is_a_coin_flip(self):
        pr = Priors(0.5)
        res = simulate_telegraph(pr, 1.0, ControlLaw.constant(0.0), 1.0, 2000, seed=29)
        assert abs(res.estimate - 0.5) < 4.0 * res.stderr

    @pytest.mark.parametrize(
        "law,seed",
        [
            (LawFamily(t_floor=0.02).law(Priors(0.5), 1.0), 41),
            (LawFamily(u_max=6.0, t_floor=0.05).law(Priors(0.5), 1.0), 43),
            (ControlLaw.piecewise_constant(
                [feedback_amplitude(Priors(0.5), 1.0, max(0.1 * i, 0.02)) for i in range(10)],
                1.0,
            ), 47),
        ],
        ids=["floored", "capped_and_floored", "ten_slots"],
    )
    def test_regularized_and_slotted_laws_agree_with_ode(self, law, seed):
        pr = Priors(0.5)
        res = simulate_telegraph(pr, 1.0, law, 1.0, 4000, seed=seed)
        want = rk45(pr, 1.0, law, 1.0).final.pc(pr)
        assert abs(res.estimate - want) < 4.0 * max(res.stderr, 1e-12)

    def test_uncapped_balanced_law_is_singular(self):
        # The CLI maps this to exit 4 (test_cli.py::TestExitCodes).
        pr = Priors(0.5)
        with pytest.raises(SingularControlError):
            simulate_telegraph(pr, 1.0, LawFamily().law(pr, 1.0), 1.0, 10, seed=0)

    def test_law_is_never_evaluated_per_trial(self, monkeypatch):
        pr = Priors(0.5)
        law = LawFamily(u_max=8.0).law(pr, 1.0)

        def refuse(self, t):
            raise AssertionError("sampler evaluated the law")

        monkeypatch.setattr(ControlLaw, "u0", refuse)
        assert len(one_chunk(pr, 1.0, law, 1.0, 500, seed=3).times) > 0

    def test_optimal_segment_must_match_the_signal(self):
        law = LawFamily().law(Priors(0.7), 1.0)
        with pytest.raises(ValueError, match="psi"):
            simulate_telegraph(Priors(0.7), 2.0, law, 1.0, 5, seed=0)

    def test_validation(self):
        law = ControlLaw.constant(1.0)
        with pytest.raises(ValueError):
            simulate_telegraph(Priors(0.7), 1.0, law, 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            simulate_telegraph(Priors(0.7), 1.0, law, 0.0, 5, seed=0)
        with pytest.raises(ValueError):
            simulate_telegraph(Priors(0.7), -1.0, law, 1.0, 5, seed=0)


class TestControlIdentity:
    @pytest.mark.parametrize("q0", [0.5, 0.7])
    def test_noise_level_residual(self, q0):
        grid = np.linspace(0.01, 2.0, 100)
        assert verify_control_identity(Priors(q0), 1.0, grid) < 1e-10

    def test_singular_grid_rejected(self):
        with pytest.raises(SingularControlError):
            verify_control_identity(Priors(0.5), 1.0, np.array([0.0, 0.5]))

    def test_zero_signal(self):
        assert verify_control_identity(Priors(0.7), 0.0, np.array([0.5])) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_control_identity(Priors(0.7), 1.0, np.array([]))
        with pytest.raises(ValueError):
            verify_control_identity(Priors(0.7), 1.0, np.array([-0.1, 0.5]))


def integrated_rate(law, psi, branch, t0, t1):
    """Integral of the branch's click rate through the scalar ``u0``, by quad.

    The interval is split at the law's edges and on a geometric grid, so
    quad also resolves the sharp rise near t = 0 of nearly equal priors.
    """
    sign = -1.0 if branch == 0 else 1.0
    cuts = [*law.starts[1:], *(10.0**-k for k in range(1, 16))]
    grid = [t0, *sorted(c for c in cuts if t0 < c < t1), t1]
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        total += quad(lambda t: (psi + sign * law.u0(t)) ** 2, a, b,
                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total


def regularized_laws():
    for q0 in (0.5, 0.7, 0.9, 1.0):
        for psi in (0.0, 0.3, 1.0, 3.0):
            kws = [{"u_max": 8.0}, {"t_floor": 0.05}, {"u_max": 4.0, "t_floor": 0.01}]
            if psi > 0.0:
                kws.append({"u_max": 0.5 * psi})  # below psi: constant throughout
            if q0 != 0.5:
                kws.append({})
            for kw in kws:
                name = ",".join(f"{k}={v}" for k, v in kw.items()) or "exact"
                yield pytest.param(q0, psi, kw, id=f"q0={q0}-psi={psi}-{name}")


class TestHazard:
    """The sampler's closed-form integrated rates and their inverses."""

    @pytest.mark.parametrize("q0,psi,kw", list(regularized_laws()))
    def test_matches_quad_and_inverts(self, q0, psi, kw):
        pr, T = Priors(q0), 1.0
        law = LawFamily(**kw).law(pr, psi)
        if psi == 0.0 and q0 == 0.5 and "u_max" not in kw:
            # Singular everywhere: no floor helps without a signal.
            with pytest.raises(SingularControlError):
                _Segments(law, psi, T)
            return
        hazard = _Segments(law, psi, T)
        ts = np.linspace(0.0, T, 11)
        for b in (0, 1):
            lam = hazard.at(ts, b)
            want = [integrated_rate(law, psi, b, 0.0, float(t)) for t in ts]
            assert lam == pytest.approx(want, rel=1e-11, abs=1e-13)
            assert lam[-1] == hazard.lam[b, -1]
            if lam[-1] == 0.0:
                continue  # the branch never clicks
            # Lambda -> t -> Lambda over the reachable range.
            ys = lam[-1] * np.linspace(0.0, 1.0, 11)[:-1]
            back = hazard.at(hazard.inverse(ys, b), b)
            assert back == pytest.approx(ys, rel=1e-12, abs=1e-13)
            # t -> Lambda -> t wherever the branch clicks at all.
            sign = -1.0 if b == 0 else 1.0
            for t, y in zip(ts[:-1], lam[:-1]):
                rate = (psi + sign * law.u0(float(t))) ** 2
                if rate > 1e-6:
                    t_back = hazard.inverse(np.array([y]), b)[0]
                    assert abs(t_back - t) * rate <= 1e-12 * max(1.0, y)

    def test_matched_inverse_at_its_limit_is_past_any_horizon(self):
        # F_0 = -ln 2 is R = 1, which the law reaches only as t -> inf: that is the
        # time, and it comes without a RuntimeWarning (the test config makes one fail).
        segment = SimpleNamespace(curved=(Priors(0.7), 4.0))  # c = 0.84
        f = np.array([-math.log(2.0)])
        assert _Segments._f_inverse(segment, f, 0).tolist() == [math.inf]

    @pytest.mark.parametrize("k", [27, 30, 40, 52])
    def test_inverse_keeps_early_times_where_4_q0_q1_rounds_to_1(self, k):
        # ln c = 0 there, and an inverse that read it alone put a click at 1e-16 back
        # at 1.09e-16 (q0 = 0.500000003).  The bound is the one of the mpmath test below.
        priors = Priors(0.5 + 2.0**-k)
        segment = SimpleNamespace(curved=(priors, 4.0))  # psi = 1
        t = np.geomspace(1e-20, 1.0, 41)
        r = np.sqrt(_margin_sq(priors, -np.expm1(-4.0 * t)))
        for b in (0, 1):
            f = _Segments._f(segment, t, b)
            back = _Segments._f_inverse(segment, f, b)
            rate = (1.0 + (2 * b - 1) / r) ** 2
            assert np.all(np.abs(back - t) * rate <= 8 * 2.0**-52 * np.maximum(1.0, np.abs(f)))

    @settings(max_examples=300, deadline=None)
    @given(dyadic_q0(26).filter(lambda p: 0.0 < p.q0 < 1.0), log_uniform(1e-150, 1e3),
           log_uniform(1e-300, 30.0), st.integers(0, 1))
    def test_optimal_segment_inverse_against_mpmath(self, priors, psi, kt, b):
        # The time at which branch b's F reaches a float f, against its 50-digit
        # inverse at that same f.  An error dt moves F by rate*dt, and f itself is
        # only known to eps*|f|: the inverse may lose no more than a few of those,
        # where R is small (weak signals, early times) as where it nears 1.
        lnc, k = math.log(4.0 * priors.q0 * priors.q1), 4.0 * psi * psi
        segment = SimpleNamespace(curved=(priors, k))
        t = np.array([kt / k])
        if not _margin_sq(priors, -math.expm1(-kt)) > 0.0:
            return  # the margin is 0 there: no click time to invert
        f = _Segments._f(segment, t, b)
        (got,) = _Segments._f_inverse(segment, f, b)
        with mpmath.workdps(50):
            e, w = mpmath.exp(mpf(f[0])), mpmath.exp(mpf(lnc) - mpf(f[0]))
            if b == 0 and 4 * e * e >= 1:
                return  # F rounded onto its limit -ln 2 (R = 1): no time reaches it
            # x = sqrt(R) from f in closed form, derived as in the sampler.
            x = 2 * e / (1 + mpmath.sqrt(1 - 4 * e * e)) if b == 0 else (
                2 / (w + mpmath.sqrt(w * w + 4)))
            want = (mpf(lnc) - mpmath.log1p(-x**4)) / mpf(k)  # R = x**2, 1 - R*R = c*exp(-k*t)
            r = mpmath.sqrt(-mpmath.expm1(mpf(lnc) - mpf(k) * want))
            rate = (psi + (2 * b - 1) * psi / r) ** 2
            assert abs(got - want) * rate <= 8 * 2.0**-52 * max(1.0, abs(f[0]))


@st.composite
def telegraph_laws(draw):
    """(law, psi, T) across the documented domain: exact, capped, floored, slotted."""
    psi = draw(st.floats(0.0, 3.0))
    T = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))
        return ControlLaw.piecewise_constant(values, draw(st.floats(0.05, 2.0))), psi, T
    q0 = draw(st.floats(0.0, 1.0))
    u_max = draw(st.none() | st.floats(0.05, 30.0))
    t_floor = draw(st.none() | st.just(0.0) | st.floats(1e-4, 0.5))
    return LawFamily(t_floor=t_floor, u_max=u_max).law(Priors(q0), psi), psi, T


@settings(max_examples=60, deadline=None)
@given(law=telegraph_laws(), cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_structured_hazard_agrees_with_the_scalar_law(law, cut, seed):
    law, psi, T = law
    try:
        hazard = _Segments(law, psi, T)
    except SingularControlError:
        with pytest.raises(SingularControlError):
            law.u0(0.0)
        return
    t0, t1 = cut * T / 2.0, T
    for b in (0, 1):
        got = np.diff(hazard.at(np.array([t0, t1]), b))[0]
        want = integrated_rate(law, psi, b, t0, t1)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11)
    tr = one_chunk(Priors(0.5), psi, law, T, 20, seed)
    assert np.all((0.0 < tr.times) & (tr.times <= T))
    for lo, hi in zip(tr.offsets[:-1], tr.offsets[1:]):
        assert np.all(np.diff(tr.times[lo:hi]) > 0.0)
