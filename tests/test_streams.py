"""Counter-based trial streams: layout, boundaries, independence of chunking."""

import numpy as np
import pytest

import qsdr._streams as streams_mod
import qsdr.dolinar as dolinar_mod
from qsdr import ControlLaw, Priors, simulate_adaptive, simulate_telegraph
from qsdr._streams import TrialStreams
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


def budget(rows, draws):
    """The uniform budget that gives chunks of ``rows`` trials (None: the default)."""
    return streams_mod.CHUNK_UNIFORMS if rows is None else rows * 4 * -(-draws // 4)


def all_draws(seed, trials, draws):
    return np.vstack([u for _, u in TrialStreams(seed).chunks(trials, draws)])


class TestLayout:
    def test_known_answers(self):
        seed = 20240917
        u = all_draws(seed, 3, 9)
        for i in range(3):
            for d in range(9):
                assert u[i, d] == reference_draw(seed, i, d)

    def test_chunk_and_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", 5 * 12)  # 12 fetched per trial
        seed = 3
        chunks = list(TrialStreams(seed).chunks(12, 10))
        assert [i0 for i0, _ in chunks] == [0, 5, 10]
        assert [u.shape for _, u in chunks] == [(5, 10), (5, 10), (2, 10)]
        u = np.vstack([u for _, u in chunks])
        for i in (0, 4, 5, 9, 10, 11):  # both sides of each chunk edge
            for d in (0, 3, 4, 7, 8, 9):  # both sides of each block edge
                assert u[i, d] == reference_draw(seed, i, d)

    def test_wide_rows_shrink_the_chunk(self, monkeypatch):
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", 40)
        chunks = list(TrialStreams(3).chunks(8, 10))  # 12 uniforms fetched per trial
        assert [u.shape for _, u in chunks] == [(3, 10), (3, 10), (2, 10)]
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", 1)
        assert len(list(TrialStreams(3).chunks(8, 10))) == 8
        assert np.array_equal(np.vstack([u for _, u in chunks]), all_draws(3, 8, 10))

    @pytest.mark.parametrize("trial", [7, 2**40])
    @pytest.mark.parametrize("start", [0, 3, 4, 6, 10])
    def test_tail_continues_the_trial(self, start, trial):
        seed = 11
        tail = TrialStreams(seed).tail(trial, start)
        got = [next(tail) for _ in range(9)]
        assert got == [reference_draw(seed, trial, d) for d in range(start, start + 9)]

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
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows, 4))
        assert simulate_adaptive(Priors(0.6), 0.3, 5, 1100, seed=8) == want

    def test_many_copies_in_small_chunks(self, monkeypatch):
        # 200 copies: 51 blocks per trial, walked in chunks of 7 trials.
        want = simulate_adaptive(Priors(0.6), 0.1, 200, 50, seed=8)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(7, 4))
        assert simulate_adaptive(Priors(0.6), 0.1, 200, 50, seed=8) == want

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_telegraph_is_independent_of_chunking(self, rows, monkeypatch):
        pr = Priors(0.5)
        law = ControlLaw.dolinar_optimal(pr, 1.0, u_max=8.0)
        want = simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6, keep_trajectories=True)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows, dolinar_mod._PREFETCH))
        got = simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6, keep_trajectories=True)
        assert got == want

    @pytest.mark.parametrize("prefetch", [1, 2, 5])
    def test_telegraph_is_independent_of_prefetch_width(self, prefetch, monkeypatch):
        # Narrow rows push nearly every draw through the per-trial tail.
        pr = Priors(0.7)
        law = ControlLaw.dolinar_optimal(pr, 1.0)
        want = simulate_telegraph(pr, 1.0, law, 1.0, 30, seed=2, keep_trajectories=True)
        assert max(len(t.click_times) for t in want.trajectories) >= 1
        monkeypatch.setattr(dolinar_mod, "_PREFETCH", prefetch)
        got = simulate_telegraph(pr, 1.0, law, 1.0, 30, seed=2, keep_trajectories=True)
        assert got == want

    def test_telegraph_symbol_is_the_first_draw(self):
        pr = Priors(0.6)
        res = simulate_telegraph(
            pr, 1.0, ControlLaw.constant(1.0), 1.0, 300, seed=9, keep_trajectories=True
        )
        first = all_draws(9, 300, 1)[:, 0]
        assert [t.a for t in res.trajectories] == [0 if u < pr.q0 else 1 for u in first]
