"""Counter-based trial streams: layout, boundaries, independence of chunking."""

import math
import weakref

import numpy as np
import pytest

import qsdr
import qsdr._streams as streams_mod
from qsdr import (
    ControlLaw,
    McEstimate,
    Priors,
    Trajectories,
    binomial,
    feedback_amplitude,
    null_z,
    simulate_adaptive,
    simulate_telegraph,
    telegraph_chunks,
)
from qsdr._streams import TrialStreams, trial_chunks
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
        seed, q0 = 3, 0.5
        chunks = [(i0, a, [next(draws) for _ in range(11)])
                  for i0, a, draws in trial_chunks(seed, 12, q0)]
        assert [i0 for i0, _, _ in chunks] == [0, 5, 10]
        assert [len(a) for _, a, _ in chunks] == [5, 5, 2]
        symbols = np.concatenate([a for _, a, _ in chunks])
        # Column d - 1 of a chunk's draws is draw d of its trials.
        u = np.vstack([np.column_stack(columns) for _, _, columns in chunks])
        for i in (0, 4, 5, 9, 10, 11):  # both sides of each chunk edge
            assert symbols[i] == (reference_draw(seed, i, 0) >= q0)
            for d in (1, 3, 4, 7, 8, 11):  # both sides of each block edge
                assert u[i, d - 1] == reference_draw(seed, i, d)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", 1)  # at least one trial a chunk
        assert [len(a) for _, a, _ in trial_chunks(seed, 3, q0)] == [1, 1, 1]

    def test_reading_draw_four_releases_block_zero(self, monkeypatch):
        # Only the current block of each trial is held, so a chunk's memory
        # does not grow with the draws it reads.
        fetched = []
        block = TrialStreams.block

        def spy(self, i0, j, m):
            u = block(self, i0, j, m)
            fetched.append(weakref.ref(u))
            return u

        monkeypatch.setattr(TrialStreams, "block", spy)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(3))
        chunks = trial_chunks(7, 6, 0.5)
        _, _, draws = next(chunks)
        for _ in range(3):
            next(draws)
        assert len(fetched) == 1 and fetched[0]() is not None
        next(draws)  # draw 4: block 1 is fetched and block 0 let go
        assert len(fetched) == 2 and fetched[0]() is None and fetched[1]() is not None
        # The next chunk lets the last one's block go before it fetches its own,
        # though the caller still holds the last chunk's draws.
        next(chunks)
        assert len(fetched) == 3 and fetched[1]() is None and fetched[2]() is not None

    def test_zero_trials_are_refused_alike(self):
        message = "trials must be >= 1, got 0"
        with pytest.raises(ValueError, match=message):
            trial_chunks(1, 0, 0.5)
        with pytest.raises(ValueError, match=message):
            simulate_adaptive(Priors(0.6), 0.3, 4, 0, seed=1)
        with pytest.raises(ValueError, match=message):
            simulate_telegraph(Priors(0.6), 1.0, ControlLaw.constant(1.0), 1.0, 0, seed=1)

    def test_trial_depends_only_on_seed_and_index(self):
        a = all_draws(5, 2000, 6)
        b = all_draws(5, 1500, 6)
        assert np.array_equal(a[:1500], b)
        assert not np.array_equal(a, all_draws(6, 2000, 6))
        assert np.all((0.0 <= a) & (a < 1.0))


def loop_adaptive(priors, theta, n, trials, seed):
    """Scalar per-trial reference of simulate_adaptive on the same draws."""
    table = _outcome0_table(priors, theta, n).tolist()
    hits = 0
    for row in all_draws(seed, trials, n + 1).tolist():
        a = 0 if row[0] < priors.q0 else 1
        z = priors.start_bit
        for k, p0 in enumerate(table, start=1):
            z = 0 if row[k] < p0[2 * a + z] else 1
        hits += z == a
    return hits


def loop_telegraph(priors, psi, law, T, trials, seed, draws=200):
    """Scalar per-trial replay of telegraph_chunks on the same draws.

    Draw 0 picks the symbol; draw d >= 1 is the d-th Exp(1) gap of the
    integrated rate of the current branch, and the first gap that reaches
    past T ends the trial.  Returns the click records as arrays.
    """
    hazard = _Segments(law, psi, T)
    symbols, finals, offsets, times = [], [], [0], []
    for row in all_draws(seed, trials, draws):
        a = 0 if row[0] < priors.q0 else 1
        z, t = priors.start_bit, 0.0
        for u in row[1:]:
            b = z ^ a
            y = hazard.at(np.array([t]), b) - np.log1p(-u)
            if y[0] >= hazard.lam[b, -1]:
                break
            t = float(min(max(hazard.inverse(y, b)[0], np.nextafter(t, T)), T))
            times.append(t)
            z ^= 1
        else:
            raise AssertionError("replay needs more draws per trial")
        symbols.append(a)
        finals.append(z)
        offsets.append(len(times))
    return Trajectories(*map(np.array, (symbols, finals, offsets, times)))


def one_chunk(priors, psi, law, T, trials, seed):
    """The click records of a run short enough to be one chunk at the default size."""
    ((i0, tr),) = telegraph_chunks(priors, psi, law, T, trials, seed)
    assert i0 == 0 and len(tr.a) == trials
    return tr


def trial_slice(tr, i0, m):
    """Trials ``i0 .. i0+m-1`` of the records ``tr``, offsets counted from ``i0``."""
    lo, hi = tr.offsets[i0], tr.offsets[i0 + m]
    return Trajectories(
        tr.a[i0:i0 + m], tr.z_final[i0:i0 + m], tr.offsets[i0:i0 + m + 1] - lo, tr.times[lo:hi]
    )


def same_records(x, y):
    """Click records equal column by column, values and dtype kinds alike."""
    return all(
        np.array_equal(p, q) and p.dtype.kind == q.dtype.kind for p, q in zip(x, y, strict=True)
    )


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
        want = one_chunk(pr, 1.0, law, 1.0, 40, seed=6)
        estimate = simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6)
        # telegraph_chunks fetches one block (four draws) per trial at a time.
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows))
        chunks = list(telegraph_chunks(pr, 1.0, law, 1.0, 40, seed=6))
        assert [i0 for i0, _ in chunks] == list(range(0, 40, rows or 40))
        assert sum(len(tr.a) for _, tr in chunks) == 40
        for i0, tr in chunks:
            assert same_records(tr, trial_slice(want, i0, len(tr.a)))
        assert simulate_telegraph(pr, 1.0, law, 1.0, 40, seed=6) == estimate

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("q0,law", TELEGRAPH_LAWS)
    def test_telegraph_records_are_consistent(self, q0, law, rows, monkeypatch):
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows))
        pr = Priors(q0)
        chunks = list(telegraph_chunks(pr, 1.0, law, 1.0, 60, seed=2))
        assert sum(len(tr.a) for _, tr in chunks) == 60
        for _, tr in chunks:
            counts = np.diff(tr.offsets)
            assert tr.offsets[0] == 0 and tr.offsets[-1] == len(tr.times) and np.all(counts >= 0)
            assert len(tr.a) == len(tr.z_final) == len(counts)
            assert np.isin(tr.a, (0, 1)).all() and np.isin(tr.z_final, (0, 1)).all()
            assert np.all((0.0 < tr.times) & (tr.times <= 1.0))
            # Strictly increasing within a trial: only a trial's first click may drop.
            first = np.zeros(len(tr.times), dtype=bool)
            first[tr.offsets[:-1][counts > 0]] = True
            assert np.all(np.diff(tr.times)[~first[1:]] > 0.0)
            assert np.array_equal(tr.z_final, pr.start_bit ^ (counts & 1))

    @pytest.mark.parametrize("q0,law", TELEGRAPH_LAWS)
    def test_telegraph_matches_scalar_replay(self, q0, law):
        pr = Priors(q0)
        replay = loop_telegraph(pr, 1.0, law, 1.0, 300, seed=12)
        assert same_records(one_chunk(pr, 1.0, law, 1.0, 300, seed=12), replay)
        estimate = simulate_telegraph(pr, 1.0, law, 1.0, 300, seed=12).estimate
        assert estimate == np.count_nonzero(replay.z_final == replay.a) / 300
        # Some trial crosses a block edge (its fourth gap).
        assert np.diff(replay.offsets).max() >= 3

    def test_click_slots_under_uneven_groups(self, monkeypatch):
        # A trial live at gap step s has clicked s times, so its click goes to slot
        # offsets[trial] + s.  Here trials click 6.4 times on average and up to 16, so
        # their gaps run through blocks 1-4 (15 clicks read draw 16), and in 7-trial
        # chunks a chunk's two branch groups run dry at different steps.
        pr, law = Priors(0.6), ControlLaw.constant(3.0)
        replay = loop_telegraph(pr, 1.0, law, 1.0, 300, seed=12)
        clicks = np.diff(replay.offsets)
        assert clicks.max() >= 15 and clicks.mean() > 6.0
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(7))
        chunks = list(telegraph_chunks(pr, 1.0, law, 1.0, 300, seed=12))
        assert [i0 for i0, _ in chunks] == list(range(0, 300, 7))
        for i0, tr in chunks:
            assert same_records(tr, trial_slice(replay, i0, len(tr.a)))

    def test_telegraph_symbol_is_the_first_draw(self):
        pr = Priors(0.6)
        tr = one_chunk(pr, 1.0, ControlLaw.constant(1.0), 1.0, 300, seed=9)
        first = all_draws(9, 300, 1)[:, 0]
        assert tr.a.tolist() == [0 if u < pr.q0 else 1 for u in first]


class TestAnswerAndScore:
    def test_the_package_exports_the_streams_own(self):
        assert qsdr.binomial is streams_mod.binomial and qsdr.null_z is streams_mod.null_z
        assert {"McEstimate", "binomial", "null_z"} <= set(qsdr.__all__)

    def test_binomial_is_the_samplers_answer(self):
        pr = Priors(0.6)
        res = simulate_adaptive(pr, 0.3, 4, 1500, seed=4)
        assert type(res) is McEstimate
        assert res == binomial(loop_adaptive(pr, 0.3, 4, 1500, seed=4), 1500)
        law = ControlLaw.dolinar_optimal(pr, 1.0)
        tr = one_chunk(pr, 1.0, law, 1.0, 300, seed=12)
        hits = int(np.count_nonzero(tr.z_final == tr.a))
        res = simulate_telegraph(pr, 1.0, law, 1.0, 300, seed=12)
        assert type(res) is McEstimate and res == binomial(hits, 300)
        assert binomial(3, 4) == (0.75, math.sqrt(0.75 * 0.25 / 4))

    def test_null_z_divides_by_the_standard_error_at_p(self):
        # The sample's own standard error at 0.52 would give 4.0032.
        assert null_z(0.52, 0.5, 10_000) == pytest.approx(4.0, rel=1e-12)
        assert null_z(0.48, 0.5, 10_000) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_null_z_at_a_certain_p(self, p):
        assert null_z(p, p, 100) == 0.0
        assert null_z(abs(p - 0.01), p, 100) == math.inf
        assert null_z(math.nextafter(p, 0.5), p, 1) == math.inf

    @pytest.mark.parametrize("p", [-5e-324, 1.0 + 2.0**-52])
    def test_null_z_past_the_ends_counts_as_the_end(self, p):
        assert null_z(p, p, 10) == 0.0
        assert null_z(round(p), p, 10) == math.inf

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53])
    def test_null_z_without_a_difference_is_0(self, p):
        assert null_z(p, p, 7) == 0.0
