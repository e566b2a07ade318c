"""Finite-copy adaptive measurement: exact evaluation, sampling, geometry."""

import itertools
import math

import numpy as np
import pytest

from qsdr import (
    OutcomeSequence,
    Priors,
    ProductVector,
    QubitPair,
    angle_schedule,
    exact_adaptive_pc,
    helstrom_bound,
    local_outcome_probs,
    measurement_vectors,
    multicopy_bound,
    posterior_update,
    simulate_adaptive,
)

MULTICOPY_06_08_2 = 0.8894817068874994   # frozen: q0=0.6, chi=0.8, n=2
COS2_PI8 = 0.85355339059327373           # frozen: cos^2(pi/8)


def _enum_reference(priors: Priors, theta: float, n: int) -> float:
    """Slow branch-by-branch average, deliberately unlike the library's path."""
    sched = angle_schedule(priors, theta, n)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        for a in (0, 1):
            p_branch = priors.q0 if a == 0 else priors.q1
            prev = 0
            for k, b in enumerate(bits, start=1):
                phi = sched.effective_angle(k, prev)
                p0, p1 = local_outcome_probs(a, theta, phi)
                p_branch *= p0 if b == 0 else p1
                prev = b
            if bits[-1] == a:
                total += p_branch
    return total


class TestLocalOutcomeProbs:
    def test_aligned_detector_is_deterministic(self):
        # a=0 hits delta = 0 exactly; a=1 leaves cos(pi/2)^2 ~ 1e-33 of slop
        assert local_outcome_probs(0, math.pi / 4, math.pi / 4) == (1.0, 0.0)
        p0, p1 = local_outcome_probs(1, math.pi / 4, math.pi / 4)
        assert p0 == pytest.approx(0.0, abs=1e-30)
        assert p1 == pytest.approx(1.0, abs=1e-30)

    def test_frozen_value(self):
        p0, _ = local_outcome_probs(0, 0.0, math.pi / 8)
        assert p0 == pytest.approx(COS2_PI8, abs=1e-15)

    def test_rows_normalized(self):
        for theta in np.linspace(0.0, math.pi / 4, 7):
            for phi in np.linspace(0.0, math.pi / 2, 9):
                for a in (0, 1):
                    p0, p1 = local_outcome_probs(a, float(theta), float(phi))
                    assert p0 + p1 == pytest.approx(1.0, abs=1e-14)
                    assert -1e-15 <= p0 <= 1.0 + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            local_outcome_probs(2, 0.1, 0.1)
        with pytest.raises(ValueError):
            local_outcome_probs(0, -0.1, 0.1)
        with pytest.raises(ValueError):
            local_outcome_probs(0, 0.1, math.pi / 2 + 1e-6)


class TestExactAdaptivePc:
    def test_frozen_value(self):
        theta = QubitPair.from_overlap(0.8).theta
        assert exact_adaptive_pc(Priors(0.6), theta, 2) == pytest.approx(
            MULTICOPY_06_08_2, abs=1e-14
        )

    def test_matches_independent_enumeration(self):
        theta = QubitPair.from_overlap(0.8).theta
        got = exact_adaptive_pc(Priors(0.6), theta, 2)
        assert got == pytest.approx(_enum_reference(Priors(0.6), theta, 2), abs=1e-13)
        theta3 = QubitPair.from_overlap(0.45).theta
        got3 = exact_adaptive_pc(Priors(0.7), theta3, 3)
        assert got3 == pytest.approx(_enum_reference(Priors(0.7), theta3, 3), abs=1e-13)
        theta10 = QubitPair.from_overlap(0.9).theta
        got10 = exact_adaptive_pc(Priors(0.65), theta10, 10)
        assert got10 == pytest.approx(_enum_reference(Priors(0.65), theta10, 10), abs=1e-13)

    @pytest.mark.parametrize("q0", [0.5, 0.75])
    @pytest.mark.parametrize("chi", [0.3, 0.8])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_reaches_collective_bound(self, q0, chi, n):
        pr = Priors(q0)
        theta = QubitPair.from_overlap(chi).theta
        assert exact_adaptive_pc(pr, theta, n) == pytest.approx(
            multicopy_bound(pr, chi, n), abs=1e-12
        )

    def test_minority_prior_mirrors(self):
        theta = QubitPair.from_overlap(0.8).theta
        assert exact_adaptive_pc(Priors(0.3), theta, 2) == pytest.approx(
            multicopy_bound(Priors(0.3), 0.8, 2), abs=1e-12
        )

    def test_near_identical_states(self):
        # chi -> 1: measurements carry almost no information, guess the prior
        assert exact_adaptive_pc(Priors(0.7), 1e-9, 1) == pytest.approx(0.7, abs=1e-8)

    def test_copy_count_limits(self):
        with pytest.raises(ValueError):
            exact_adaptive_pc(Priors(0.6), 0.3, 0)
        # The recursion costs O(n), so many copies carry no cap.
        chi = QubitPair(0.3).chi
        for n in (25, 200):
            assert exact_adaptive_pc(Priors(0.6), 0.3, n) == pytest.approx(
                multicopy_bound(Priors(0.6), chi, n), abs=1e-12
            )


class TestSimulateAdaptive:
    def test_orthogonal_states_never_err(self):
        res = simulate_adaptive(Priors(0.5), math.pi / 4, 1, trials=500, seed=3)
        assert res.estimate == 1.0
        assert res.stderr == 0.0

    def test_same_seed_same_answer(self):
        a = simulate_adaptive(Priors(0.6), 0.3, 2, trials=1000, seed=42)
        b = simulate_adaptive(Priors(0.6), 0.3, 2, trials=1000, seed=42)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_trial_streams_are_independent_of_batch_size(self):
        # run k trials: outcome of trial i must not depend on how many follow
        hits = []
        for k in range(1, 7):
            res = simulate_adaptive(Priors(0.6), 0.3, 2, trials=k, seed=7)
            hits.append(round(res.estimate * k))
        diffs = [b - a for a, b in zip(hits, hits[1:])]
        assert all(d in (0, 1) for d in diffs)

    def test_agrees_with_exact_probability(self):
        pr = Priors(0.6)
        theta = QubitPair.from_overlap(0.8).theta
        res = simulate_adaptive(pr, theta, 2, trials=20000, seed=11)
        exact = exact_adaptive_pc(pr, theta, 2)
        assert abs(res.estimate - exact) < 4.0 * max(res.stderr, 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_adaptive(Priors(0.6), 0.3, 0, trials=10, seed=0)
        with pytest.raises(ValueError):
            simulate_adaptive(Priors(0.6), 0.3, 1, trials=0, seed=0)


class TestMeasurementVectors:
    @pytest.mark.parametrize("q0", [0.5, 0.65])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_orthonormal_family(self, q0, n):
        vecs = measurement_vectors(Priors(q0), 0.35, n)
        assert len(vecs) == 2**n
        mat = np.stack([v.assemble() for v in vecs])
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(2**n))) < 1e-12

    def test_unit_norms(self):
        for v in measurement_vectors(Priors(0.6), 0.3, 3):
            assert np.linalg.norm(v.assemble()) == pytest.approx(1.0, abs=1e-14)

    def test_single_copy_pair(self):
        v0, v1 = measurement_vectors(Priors(0.5), 0.3, 1)
        a0, a1 = v0.assemble(), v1.assemble()
        assert abs(a0 @ a1) < 1e-15
        assert v0.outcome.final == 0 and v1.outcome.final == 1

    def test_assemble_matches_plain_kron(self):
        vecs = measurement_vectors(Priors(0.6), 0.3, 3)
        v = vecs[5]
        out = np.array([1.0])
        for f in v.factors:
            out = np.kron(out, f)
        assert np.allclose(v.assemble(), out, atol=0.0)

    def test_copy_count_limit(self):
        with pytest.raises(ValueError):
            measurement_vectors(Priors(0.5), 0.3, 11)
        with pytest.raises(ValueError):
            measurement_vectors(Priors(0.5), 0.3, 0)


class TestOutcomeStructures:
    def test_outcome_sequence(self):
        seq = OutcomeSequence((0, 1, 1))
        assert seq.final == 1
        with pytest.raises(ValueError):
            OutcomeSequence(())
        with pytest.raises(ValueError):
            OutcomeSequence((0, 2))

    def test_product_vector_validation(self):
        vecs = measurement_vectors(Priors(0.5), 0.3, 2)
        assert isinstance(vecs[0], ProductVector)
        with pytest.raises(ValueError):
            ProductVector(OutcomeSequence((0, 1)), (0.1,))


class TestPosteriorUpdate:
    def test_single_step_example(self):
        assert posterior_update(0.5, 0.6) == pytest.approx(0.9, abs=1e-15)

    def test_certainty_is_absorbing(self):
        assert posterior_update(1.0, 0.7) == 1.0

    def test_uninformative_copy_is_fixed_point(self):
        for pc in (0.5, 0.7, 0.95):
            assert posterior_update(pc, 1.0) == pytest.approx(pc, abs=1e-15)

    def test_rejects_below_half(self):
        with pytest.raises(ValueError):
            posterior_update(0.49, 0.5)

    @pytest.mark.parametrize("q0", [0.5, 0.6, 0.75])
    @pytest.mark.parametrize("chi", [0.3, 0.8])
    def test_one_step_consistency(self, q0, chi):
        pr = Priors(q0)
        for k in range(1, 13):
            stepped = posterior_update(multicopy_bound(pr, chi, k - 1), chi)
            assert stepped == pytest.approx(multicopy_bound(pr, chi, k), abs=1e-13)

    def test_iteration_converges_to_certainty(self):
        pc = 0.5
        for _ in range(50):
            pc = posterior_update(pc, 0.8)
        assert pc == pytest.approx(multicopy_bound(Priors(0.5), 0.8, 50), abs=1e-12)
        assert pc > 1.0 - 1e-4
