"""Finite-copy adaptive measurement: exact evaluation, sampling, geometry."""

import hashlib
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qsdr import (
    Priors,
    QubitPair,
    angle_schedule,
    exact_adaptive_pc,
    measurement_vectors,
    multicopy_bound,
    posterior_update,
    simulate_adaptive,
)
from qsdr.multicopy import _outcome0_table

MULTICOPY_06_08_2 = 0.8894817068874994   # frozen: q0=0.6, chi=0.8, n=2
COS2_PI8 = 0.85355339059327373           # frozen: cos^2(pi/8)

# Priors x angles x copy counts over which the strategy's floats are pinned bit for bit:
# both ends of q0, equal priors, nearly identical and nearly orthogonal states, and a
# copy count past exact_adaptive_pc's 4096-row slices.
COPY_GRID = [(q0, theta, n) for q0 in (0.0, 0.3, 0.5, 0.7, 1.0)
             for theta in (1e-3, 0.2, 0.785) for n in (1, 3, 20, 4097)]
# sha256 over COPY_GRID of exact_adaptive_pc and simulate_adaptive(..., 300, 17)'s
# estimate and stderr, recorded before the outcome table took its (n, 4) layout.
ADAPTIVE_SHA256 = "79a6125dd69776505d4b05833cc6b30058ea7db0121f74f4a37ee171a93f5098"


def hex_digest(rows) -> str:
    """sha256 of rows of floats, each float written exactly (``float.hex``)."""
    text = "\n".join(",".join(float.hex(x) for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _enum_reference(priors: Priors, theta: float, n: int) -> float:
    """Slow branch-by-branch average, deliberately unlike the library's path.

    Only the schedule's angles come from the library; the flip rule and the
    outcome probabilities are written out here.
    """
    phis = angle_schedule(priors, theta, n).tolist()
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        for a, p_branch in ((0, priors.q0), (1, priors.q1)):
            prev = priors.start_bit
            for phi_k, b in zip(phis, bits):
                phi = phi_k if prev == 0 else math.pi / 2 - phi_k
                p0 = math.cos(theta - phi if a == 0 else theta + phi) ** 2
                p_branch *= p0 if b == 0 else 1.0 - p0
                prev = b
            if bits[-1] == a:
                total += p_branch
    return total


class TestOutcomeTable:
    def test_layout(self):
        # table[k - 1, 2*a + z]: one C-ordered row per copy, read as it is formed.
        table = _outcome0_table(Priors(0.6), 0.3, 4)
        assert table.shape == (4, 4) and table.dtype == np.float64
        assert table.flags.c_contiguous and table.base is None
        assert np.all((0.0 <= table) & (table <= 1.0))

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.7])
    def test_entries_are_the_detector_geometry(self, q0):
        # Symbol a meets copy k's detector, at phi_k or pi/2 - phi_k after bit z, at
        # angle theta -+ phi.
        pr, theta, n = Priors(q0), 0.3, 6
        phis = angle_schedule(pr, theta, n).tolist()
        table = _outcome0_table(pr, theta, n)
        for k, a, z in itertools.product(range(n), (0, 1), (0, 1)):
            phi = phis[k] if z == 0 else math.pi / 2 - phis[k]
            delta = theta - phi if a == 0 else theta + phi
            assert table[k, 2 * a + z] == pytest.approx(math.cos(delta) ** 2, abs=1e-15)

    def test_aligned_detector_is_deterministic(self):
        # phi_1 = theta = pi/4: a=0 hits delta = 0 exactly; a=1 leaves
        # cos(pi/2)^2 ~ 1e-33 of slop.  The flipped angle is pi/4 as well.
        table = _outcome0_table(Priors(0.5), math.pi / 4, 1)
        assert table[0, 0] == 1.0 and table[0, 1] == 1.0
        assert table[0, 2:] == pytest.approx([0.0, 0.0], abs=1e-30)

    def test_frozen_value(self):
        # Equal priors: phi_1 = pi/4, so symbol 0 meets the detector at -pi/8.
        table = _outcome0_table(Priors(0.5), math.pi / 8, 1)
        assert table[0, 0] == pytest.approx(COS2_PI8, abs=1e-15)
        assert table[0, 2] == pytest.approx(1.0 - COS2_PI8, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="copy count must be >= 1"):
            _outcome0_table(Priors(0.6), 0.3, 0)
        with pytest.raises(ValueError):
            _outcome0_table(Priors(0.6), -0.1, 1)
        with pytest.raises(ValueError):
            _outcome0_table(Priors(0.6), math.pi / 4 + 1e-6, 1)


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
        # q0 < 1/2: every branch starts from provisional bit 1.
        ref3 = _enum_reference(Priors(0.3), theta3, 3)
        assert exact_adaptive_pc(Priors(0.3), theta3, 3) == pytest.approx(ref3, abs=1e-13)
        assert ref3 == pytest.approx(multicopy_bound(Priors(0.3), 0.45, 3), abs=1e-13)

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

    @pytest.mark.parametrize("n", [1, 4096, 4097, 10000])
    @pytest.mark.parametrize("q0", [0.3, 0.7])
    def test_slices_are_the_row_by_row_recursion(self, q0, n):
        # The same recursion straight from the array, one row at a time: taking the
        # table a slice at a time leaves every operand and every rounding as it is.
        pr = Priors(q0)
        table = _outcome0_table(pr, 0.2, n)
        total = 0.0
        for a, qa in ((0, pr.q0), (1, pr.q1)):
            w = [0.0, 0.0]
            w[pr.start_bit] = 1.0
            for k in range(n):
                zero = w[0] * float(table[k, 2 * a]) + w[1] * float(table[k, 2 * a + 1])
                w = [zero, w[0] + w[1] - zero]
            total += qa * w[a]
        assert exact_adaptive_pc(pr, 0.2, n) == total

    def test_memory_is_the_outcome_table(self):
        # The table takes about 49 bytes per copy while it is formed (the 16-byte angle
        # table beside the 32-byte result); nested lists of the whole table would take
        # about 290.
        n = 10**5
        tracemalloc.start()
        try:
            exact_adaptive_pc(Priors(0.7), 0.2, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * n


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

    def test_memory_is_the_outcome_table_and_its_thresholds(self):
        # The table (32 bytes per copy) and its uint64 thresholds (32 more), formed in place.
        n = 10**5
        tracemalloc.start()
        try:
            simulate_adaptive(Priors(0.7), 0.2, n, trials=3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * n

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_adaptive(Priors(0.6), 0.3, 0, trials=10, seed=0)
        with pytest.raises(ValueError):
            simulate_adaptive(Priors(0.6), 0.3, 1, trials=0, seed=0)


def test_exact_and_simulated_values_keep_their_bits():
    rows = []
    for q0, theta, n in COPY_GRID:
        mc = simulate_adaptive(Priors(q0), theta, n, 300, 17)
        rows.append((exact_adaptive_pc(Priors(q0), theta, n), mc.estimate, mc.stderr))
    assert hex_digest(rows) == ADAPTIVE_SHA256


class TestMeasurementVectors:
    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.65])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_orthonormal_family(self, q0, n):
        mat = measurement_vectors(Priors(q0), 0.35, n)
        assert mat.shape == (2**n, 2**n)
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(2**n))) < 1e-12

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("chi", [0.45, 0.8])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_vectors_realize_the_strategy(self, q0, chi, n):
        # Row j reports decision j & 1; the product measurement on
        # (cos theta, +-sin theta)^{(x) n} succeeds as often as the strategy.
        pr = Priors(q0)
        theta = QubitPair.from_overlap(chi).theta
        mat = measurement_vectors(pr, theta, n)
        decision = np.arange(2**n) & 1
        pc = 0.0
        for a, qa in ((0, pr.q0), (1, pr.q1)):
            state = reduce(np.kron, [np.array([math.cos(theta), (-1) ** a * math.sin(theta)])] * n)
            pc += qa * float(np.sum((mat @ state)[decision == a] ** 2))
        assert pc == pytest.approx(exact_adaptive_pc(pr, theta, n), abs=1e-12)

    def test_single_copy_pair(self):
        # Start bit 0: the detector sits at phi_1 = pi/4 for equal priors.
        v0, v1 = measurement_vectors(Priors(0.5), 0.3, 1)
        h = math.sqrt(0.5)
        assert v0 == pytest.approx([h, h], abs=1e-15)
        assert v1 == pytest.approx([h, -h], abs=1e-15)

    def test_rows_are_kron_products_of_the_branch(self):
        # Row 0b101 of 3 copies: outcomes 1, 0, 1 from start bit 0.
        pr, theta = Priors(0.6), 0.3
        phis = angle_schedule(pr, theta, 3).tolist()
        angles = (phis[0], math.pi / 2 - phis[1], phis[2])
        factors = [
            np.array([math.sin(x), -math.cos(x)]) if b else np.array([math.cos(x), math.sin(x)])
            for x, b in zip(angles, (1, 0, 1))
        ]
        row = measurement_vectors(pr, theta, 3)[0b101]
        assert row == pytest.approx(reduce(np.kron, factors), abs=1e-15)

    def test_copy_count_limit(self):
        with pytest.raises(ValueError):
            measurement_vectors(Priors(0.5), 0.3, 11)
        with pytest.raises(ValueError):
            measurement_vectors(Priors(0.5), 0.3, 0)


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
