"""Counter-based trial streams: layout, boundaries, independence of chunking."""

import numpy as np
import pytest

import qsdr._streams as streams_mod
from qsdr import (
    ControlLaw,
    Priors,
    TelegraphTrajectory,
    feedback_amplitude,
    simulate_adaptive,
    simulate_telegraph,
)
from qsdr._streams import TrialStreams
from qsdr.dolinar import _Segments
from qsdr.multicopy import _outcome0_table

MASK64 = (1 << 64) - 1


def philox4x64_10(counter, key):
    """Reference Philox4x64-10 block (Salmon et al., SC'11), in plain Python."""
    c = list(counter)
    k = list(key)
    for r in range(10):
        if r:
            k = [(k[0] + 0x9E3779B97F4A7C15) & MASK64, (k[1] + 0xBB67AE8584CAA73B) & MASK64]
        p0 = 0xD2E7470EE14C6C93 * c[0]
        p1 = 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k[0], p1 & MASK64, (p0 >> 64) ^ c[3] ^ k[1], p0 & MASK64]
    return c


def reference_draw(seed, i, d):
    """Draw d of trial i: word d mod 4 at counter (i+1, d div 4), top 53 bits."""
    key = [int(w) for w in np.random.SeedSequence(seed).generate_state(2, np.uint64)]
    word = philox4x64_10([i + 1, d // 4, 0, 0], key)[d % 4]
    return (word >> 11) * 2.0**-53


def budget(rows):
    """The uniform budget that gives chunks of ``rows`` trials (None: the default)."""
    return streams_mod.CHUNK_UNIFORMS if rows is None else 4 * rows


def all_draws(seed, trials, draws):
    """Draws 0 .. draws-1 of trials 0 .. trials-1, one block of four at a time."""
    streams = TrialStreams(seed)
    blocks = [streams.block(0, j, trials) for j in range(-(-draws // 4))]
    return np.hstack(blocks)[:, :draws]


class TestLayout:
    def test_known_answers(self):
        seed = 20240917
        u = all_draws(seed, 3, 9)
        for i in range(3):
            for d in range(9):
                assert u[i, d] == reference_draw(seed, i, d)

    def test_chunk_and_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(5))
        seed = 3
        streams = TrialStreams(seed)
        chunks = list(streams.chunks(12))
        assert [i0 for i0, _ in chunks] == [0, 5, 10]
        assert [u.shape for _, u in chunks] == [(5, 4), (5, 4), (2, 4)]
        # Each chunk's first block, then later blocks walked as the samplers do.
        walked = [
            np.hstack([u, *(streams.block(i0, j, len(u)) for j in (1, 2))]) for i0, u in chunks
        ]
        u = np.vstack(walked)
        for i in (0, 4, 5, 9, 10, 11):  # both sides of each chunk edge
            for d in (0, 3, 4, 7, 8, 11):  # both sides of each block edge
                assert u[i, d] == reference_draw(seed, i, d)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", 1)  # at least one trial a chunk
        assert [len(u) for _, u in TrialStreams(seed).chunks(3)] == [1, 1, 1]

    def test_trial_depends_only_on_seed_and_index(self):
        a = all_draws(5, 2000, 6)
        b = all_draws(5, 1500, 6)
        assert np.array_equal(a[:1500], b)
        assert not np.array_equal(a, all_draws(6, 2000, 6))
        assert np.all((0.0 <= a) & (a < 1.0))


def loop_adaptive(priors, theta, n, trials, seed):
    """Scalar per-trial reference of simulate_adaptive on the same draws."""
    table = _outcome0_table(priors, theta, n)
    hits = 0
    for row in all_draws(seed, trials, n + 1).tolist():
        a = 0 if row[0] < priors.q0 else 1
        z = priors.start_bit
        for k, p0 in enumerate(table[a], start=1):
            z = 0 if row[k] < p0[z] else 1
        hits += z == a
    return hits


def loop_telegraph(priors, psi, law, T, trials, seed, draws=200):
    """Scalar per-trial replay of simulate_telegraph on the same draws.

    Draw 0 picks the symbol; draw d >= 1 is the d-th Exp(1) gap of the
    integrated rate of the current branch, and the first gap that reaches
    past T ends the trial.
    """
    hazard = _Segments(law, psi, T)
    out = []
    for row in all_draws(seed, trials, draws):
        a = 0 if row[0] < priors.q0 else 1
        z, t, clicks = priors.start_bit, 0.0, []
        for u in row[1:]:
            b = np.array([z ^ a])
            y = hazard.at(np.array([t]), b) - np.log1p(-u)
            if y[0] >= hazard.lam[b[0], -1]:
                break
            t = float(min(max(hazard.inverse(y, b)[0], np.nextafter(t, T)), T))
            clicks.append(t)
            z ^= 1
        else:
            raise AssertionError("replay needs more draws per trial")
        out.append(TelegraphTrajectory(a, priors.start_bit, tuple(clicks), z))
    return out


TELEGRAPH_LAWS = [
    pytest.param(0.5, ControlLaw.dolinar_optimal(Priors(0.5), 1.0, u_max=8.0), id="capped"),
    pytest.param(0.7, ControlLaw.dolinar_optimal(Priors(0.7), 1.0), id="exact"),
    pytest.param(0.3, ControlLaw.constant(-0.5), id="constant"),
    pytest.param(
        0.5,
        ControlLaw.piecewise_constant(
            [feedback_amplitude(Priors(0.5), 1.0, max(0.1 * i, 0.02)) for i in range(10)], 1.0
        ),
        id="ten_slots",
    ),
]


class TestSamplersUseTheLayout:
    @pytest.mark.parametrize("q0,theta,n", [(0.7, 0.2, 20), (0.3, 0.5, 3), (0.6, 0.3, 4), (0.5, 0.1, 1)])
    def test_adaptive_matches_scalar_loop(self, q0, theta, n):
        trials = 1500
        res = simulate_adaptive(Priors(q0), theta, n, trials, seed=4)
        assert res.estimate == loop_adaptive(Priors(q0), theta, n, trials, seed=4) / trials

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_adaptive_is_independent_of_chunking(self, rows, monkeypatch):
        want = simulate_adaptive(Priors(0.6), 0.3, 5, 1100, seed=8)
        # simulate_adaptive fetches the first block (four draws) per chunk.
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows))
        assert simulate_adaptive(Priors(0.6), 0.3, 5, 1100, seed=8) == want

    def test_many_copies_in_small_chunks(self, monkeypatch):
        # 200 copies: 51 blocks per trial, walked in chunks of 7 trials.
        want = simulate_adaptive(Priors(0.6), 0.1, 200, 50, seed=8)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(7))
        assert simulate_adaptive(Priors(0.6), 0.1, 200, 50, seed=8) == want

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_telegraph_is_independent_of_chunking(self, rows, monkeypatch):
        pr = Priors(0.5)
        law = ControlLaw.dolinar_optimal(pr, 1.0, u_max=8.0)
        want = simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6, keep_trajectories=True)
        # simulate_telegraph fetches one block (four draws) per trial at a time.
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows))
        got = simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6, keep_trajectories=True)
        assert got == want

    @pytest.mark.parametrize("q0,law", TELEGRAPH_LAWS)
    def test_telegraph_matches_scalar_replay(self, q0, law):
        pr = Priors(q0)
        res = simulate_telegraph(pr, 1.0, law, 1.0, 300, seed=12, keep_trajectories=True)
        replay = loop_telegraph(pr, 1.0, law, 1.0, 300, seed=12)
        assert res.trajectories == replay
        assert res.estimate == sum(tr.z_final == tr.a for tr in replay) / 300
        # Some trial crosses a block edge (its fourth gap).
        assert max(len(tr.click_times) for tr in replay) >= 3

    def test_telegraph_symbol_is_the_first_draw(self):
        pr = Priors(0.6)
        res = simulate_telegraph(
            pr, 1.0, ControlLaw.constant(1.0), 1.0, 300, seed=9, keep_trajectories=True
        )
        first = all_draws(9, 300, 1)[:, 0]
        assert [t.a for t in res.trajectories] == [0 if u < pr.q0 else 1 for u in first]
