"""Acceptance gate: one check per shipped guarantee.

Each test prints a single ``acceptance NN [PASS|FAIL] <summary>`` line
before asserting, so ``pytest tests/test_acceptance.py -v -s`` doubles as a
human-readable report.  Tolerances and grids are part of the contract; do
not loosen them to make a failing check pass.
"""

import json
import math
import time

import numpy as np

from qsdr import (
    ControlLaw,
    LawFamily,
    Priors,
    QubitPair,
    coherent_overlap,
    exact_adaptive_pc,
    feedback_amplitude,
    helstrom_bound,
    helstrom_trajectory,
    improved_kennedy_pc,
    kennedy_pc,
    measurement_vectors,
    multicopy_bound,
    optimal_beta_ik,
    optimal_beta_sd,
    posterior_update,
    segmented_pc,
    sd_displacement_residual,
    ik_displacement_residual,
    simplified_dolinar_pc,
    simulate_telegraph,
)
from qsdr.cli import main
from oracles import rk45, verify_control_identity

SEG_DEV = {
    1: 0.15131129123685349,
    10: 3.9623055757115396e-04,
    100: 2.8671353052809172e-06,
    1000: 2.7214267378352391e-08,
}


def _check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} [{status}] {desc}{tail}")
    assert ok, f"acceptance {num:02d} failed: {desc}{tail}"


def test_01_adaptive_strategy_reaches_collective_bound():
    start = time.perf_counter()
    worst = 0.0
    for q0 in (0.5, 0.6, 0.75, 0.9):
        pr = Priors(q0)
        for chi in np.arange(0.1, 0.95, 0.1):
            theta = QubitPair.from_overlap(float(chi)).theta
            for n in range(1, 13):
                gap = abs(
                    exact_adaptive_pc(pr, theta, n) - multicopy_bound(pr, float(chi), n)
                )
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _check(
        1,
        "copy-by-copy strategy equals the collective bound to 1e-12",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_product_vectors_form_projective_measure():
    start = time.perf_counter()
    worst = 0.0
    for q0 in (0.5, 0.6, 0.75):
        for chi in (0.3, 0.8):
            theta = QubitPair.from_overlap(chi).theta
            for n in range(1, 7):
                mat = measurement_vectors(Priors(q0), theta, n)
                gram = mat @ mat.T
                worst = max(worst, float(np.max(np.abs(gram - np.eye(2**n)))))
    elapsed = time.perf_counter() - start
    _check(
        2,
        "measurement vectors have identity Gram matrix within 1e-12",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_03_posterior_recursion_reproduces_bound():
    worst = 0.0
    for q0 in (0.5, 0.6, 0.75, 0.9):
        pr = Priors(q0)
        for chi in np.arange(0.1, 0.95, 0.1):
            pc = pr.max_prior
            for n in range(1, 51):
                pc = posterior_update(pc, float(chi))
                worst = max(worst, abs(pc - multicopy_bound(pr, float(chi), n)))
    _check(
        3,
        "iterated single-copy posterior update equals the n-copy bound to 1e-12",
        worst <= 1e-12,
        f"worst gap {worst:.2e}",
    )


def test_04_feedback_receiver_attains_the_bound():
    start = time.perf_counter()
    pr = Priors(0.7)
    law = LawFamily().law(pr, 1.0)
    times = np.linspace(0.0, 1.0, 52)
    # RK45 on the law as opaque callables: a route independent of the closed form.
    res = rk45(pr, 1.0, law, sample_times=times)
    interior = max(
        abs(pc - helstrom_trajectory(pr, 1.0, float(t)))
        for t, pc in zip(times[1:-1], res.pc[1:-1])
    )
    final_err = abs(res.final.pc(pr) - 0.99614)
    elapsed = time.perf_counter() - start
    _check(
        4,
        "optimally controlled receiver rides the bound (50 interior times, final 0.99614)",
        interior <= 1e-6 and final_err <= 1e-5 and elapsed < 1.0,
        f"interior {interior:.2e}, final err {final_err:.2e}, {elapsed:.2f}s",
    )


def test_05_control_law_identity():
    grid = np.linspace(0.01, 2.0, 100)
    worst = max(
        verify_control_identity(Priors(0.5), 1.0, grid),
        verify_control_identity(Priors(0.7), 1.0, grid),
    )
    _check(
        5,
        "optimal-control consistency identity residual below 1e-10",
        worst < 1e-10,
        f"worst residual {worst:.2e}",
    )


def test_06_constant_control_closed_form():
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for _ in range(20):
        beta = float(rng.uniform(0.05, 3.0))
        T = float(rng.uniform(0.1, 2.0))
        q0 = float(rng.uniform(0.5, 0.95))
        pr = Priors(q0)
        # Amplitude 1 and envelope beta over T seconds, on the unit pulse.
        law = ControlLaw.constant(beta * math.sqrt(T))
        ode = rk45(pr, T, law).final.pc(pr)
        closed = simplified_dolinar_pc(pr, math.sqrt(T), beta * math.sqrt(T))
        worst = max(worst, abs(ode - closed))
    _check(
        6,
        "ODE under constant control matches the closed form to 1e-8 (20 random triples)",
        worst <= 1e-8,
        f"worst gap {worst:.2e}",
    )


def test_07_telegraph_monte_carlo_consistency():
    start = time.perf_counter()
    pr7 = Priors(0.7)
    law = LawFamily().law(pr7, 1.0)
    res_a = simulate_telegraph(pr7, 1.0, law, 100000, seed=1)
    dev_a = abs(res_a.estimate - 0.99614)
    ok_a = dev_a <= 3.0 * res_a.stderr and res_a.stderr < 5e-4

    pr5 = Priors(0.5)
    res_b = simulate_telegraph(pr5, 0.2, ControlLaw.constant(math.sqrt(0.2)), 100000, seed=2)
    dev_b = abs(res_b.estimate - 0.775336)
    ok_b = dev_b <= 3.0 * res_b.stderr
    elapsed = time.perf_counter() - start
    _check(
        7,
        "1e5-trial click simulations sit within 3 standard errors of theory",
        ok_a and ok_b and elapsed < 60.0,
        f"optimal law z={dev_a / res_a.stderr:.2f}, "
        f"constant law z={dev_b / res_b.stderr:.2f}, {elapsed:.1f}s",
    )


def test_08_optimal_displacements():
    ok = True
    details = []
    for q0 in (0.5, 0.7):
        pr = Priors(q0)
        # optimized fixed displacement
        g = math.sqrt(0.2)
        beta = optimal_beta_ik(pr, g)
        resid = abs(ik_displacement_residual(pr, g, beta))
        h = 1e-6
        fd = abs(
            improved_kennedy_pc(pr, g, beta + h) - improved_kennedy_pc(pr, g, beta - h)
        ) / (2.0 * h)
        grid = np.linspace(g * (1.0 + 1e-9), g + 2.0, 10001)
        vals = [improved_kennedy_pc(pr, g, float(b)) for b in grid]
        grid_err = abs(float(grid[int(np.argmax(vals))]) - beta)
        ok &= resid < 1e-10 and fd < 1e-6 and grid_err <= grid[1] - grid[0]
        details.append(f"ik(q0={q0}) resid {resid:.1e} fd {fd:.1e}")
        # optimized constant feedback envelope
        beta = optimal_beta_sd(pr, 1.0)
        resid = abs(sd_displacement_residual(pr, 1.0, beta))
        fd = abs(
            simplified_dolinar_pc(pr, 1.0, beta + h)
            - simplified_dolinar_pc(pr, 1.0, beta - h)
        ) / (2.0 * h)
        grid = np.linspace(1.5e-3, 15.0, 10001)
        vals = [simplified_dolinar_pc(pr, 1.0, float(b)) for b in grid]
        grid_err = abs(float(grid[int(np.argmax(vals))]) - beta)
        ok &= resid < 1e-10 and fd < 1e-6 and grid_err <= grid[1] - grid[0]
        details.append(f"sd(q0={q0}) resid {resid:.1e} fd {fd:.1e}")
    _check(
        8,
        "displacement optimizers: residual < 1e-10, stationarity < 1e-6, grid agreement",
        bool(ok),
        "; ".join(details),
    )


def test_09_receiver_ordering():
    pr = Priors(0.5)
    worst = 0.0
    for g_sq in np.geomspace(0.01, 2.0, 30):
        g_sq = float(g_sq)
        g = math.sqrt(g_sq)
        pe_h = 1.0 - helstrom_bound(pr, coherent_overlap(g_sq))
        pe_sd = 1.0 - simplified_dolinar_pc(pr, g, optimal_beta_sd(pr, g))
        pe_ik = 1.0 - improved_kennedy_pc(pr, g, optimal_beta_ik(pr, g))
        pe_k = 1.0 - kennedy_pc(pr, g_sq)
        worst = max(worst, pe_h - pe_sd, pe_sd - pe_ik, pe_ik - pe_k)
    _check(
        9,
        "error ordering bound <= optimized feedback <= optimized displacement <= nulling",
        worst <= 1e-9,
        f"worst inversion {worst:.2e}",
    )


def test_10_weak_signal_gap_strictly_decreasing():
    # The absolute gap vanishes at both ends (both errors -> 1/2 as gamma -> 0
    # and -> 0 as gamma -> inf), peaking near intensity 0.157; the grid lies on
    # the weak side of that peak.  For small gamma the displaced receiver has
    # P_c ~ 1/2 + 2*beta*gamma*exp(-beta**2), maximised at beta = 1/sqrt(2),
    # and the bound has pe_h ~ 1/2 - gamma, so gap/gamma -> 1 - sqrt(2/e).
    # The next-order terms are ~0.43*gamma**2 (slope) and ~0.24*gamma**2 (beta).
    pr = Priors(0.5)

    def gap_and_beta(g_sq):
        g = math.sqrt(g_sq)
        beta = optimal_beta_ik(pr, g)
        pe_h = 1.0 - helstrom_bound(pr, coherent_overlap(g_sq))
        pe_ik = 1.0 - improved_kennedy_pc(pr, g, beta)
        return pe_ik - pe_h, beta

    gaps = [gap_and_beta(g_sq)[0] for g_sq in (0.1, 0.01, 0.001)]
    g_sq_lim = 1e-6
    gap_lim, beta_lim = gap_and_beta(g_sq_lim)
    slope = gap_lim / math.sqrt(g_sq_lim)
    slope_err = abs(slope - (1.0 - math.sqrt(2.0 / math.e)))
    beta_err = abs(beta_lim - 1.0 / math.sqrt(2.0))
    _check(
        10,
        "optimized-displacement excess error shrinks monotonically into weak signal",
        gaps[0] > gaps[1] > gaps[2] and slope_err <= 1e-6 and beta_err <= 1e-6,
        "gaps at intensity 0.1, 0.01, 0.001: "
        + ", ".join(f"{gap:.6e}" for gap in gaps)
        + f"; gap/gamma at intensity 1e-6: {slope:.10f}"
        + f" (limit 1 - sqrt(2/e), off by {slope_err:.1e}; beta off 1/sqrt(2) by {beta_err:.1e})",
    )


def test_11_displacement_trend_with_signal_strength():
    pr = Priors(0.5)
    ik_excess = []
    sd_excess = []
    for g_sq in (0.05, 0.2, 1.0, 2.0):
        g = math.sqrt(g_sq)
        ik_excess.append(abs(optimal_beta_ik(pr, g) - g))
        sd_excess.append(abs(optimal_beta_sd(pr, g) - g))
    ok = all(b < a for a, b in zip(ik_excess, ik_excess[1:])) and all(
        b < a for a, b in zip(sd_excess, sd_excess[1:])
    )
    _check(
        11,
        "optimal displacement approaches exact nulling as the signal strengthens",
        ok,
        f"ik excess {ik_excess[0]:.3f}->{ik_excess[-1]:.3f}, "
        f"sd excess {sd_excess[0]:.3f}->{sd_excess[-1]:.3f}",
    )


def test_12_segmented_bridge():
    pr = Priors(0.7)
    hel = helstrom_trajectory(pr, 1.0, 1.0)
    devs = {n: hel - segmented_pc(pr, 1.0, n) for n in (1, 10, 100, 1000)}
    ordered = [devs[n] for n in (1, 10, 100, 1000)]
    pinned = max(abs(devs[n] - SEG_DEV[n]) for n in devs)
    ode_gap = 0.0
    for n in (1, 10, 100):
        h = 1.0 / n
        vals = [feedback_amplitude(pr, 1.0, max(i * h, 1e-9)) for i in range(n)]
        law = ControlLaw.piecewise_constant(vals)
        ode = rk45(pr, 1.0, law).final.pc(pr)
        ode_gap = max(ode_gap, abs(ode - segmented_pc(pr, 1.0, n)))
    ok = (
        all(b < a for a, b in zip(ordered, ordered[1:]))
        and pinned <= 1e-12
        and ode_gap <= 1e-9
    )
    _check(
        12,
        "slotted receiver converges to the continuous optimum, pinned to the ODE oracle",
        ok,
        f"deviations decrease, pin err {pinned:.1e}, ODE gap {ode_gap:.1e}",
    )


def test_13_byte_identical_reruns(tmp_path):
    specs = [
        (
            "sim.csv",
            [
                "simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                "--trials", "500", "--seed", "11",
            ],
        ),
        (
            "sim.json",
            [
                "simulate", "--scheme", "multicopy", "--q0", "0.6", "--chi", "0.8",
                "--copies", "3", "--trials", "500", "--seed", "11",
                "--format", "json",
            ],
        ),
        (
            "fig.csv",
            [
                "fig1", "--schemes", "helstrom,dolinar_mc", "--q0", "0.7",
                "--points", "3", "--trials", "150", "--seed", "7",
            ],
        ),
    ]
    ok = True
    for name, args in specs:
        a = tmp_path / f"a_{name}"
        b = tmp_path / f"b_{name}"
        ok &= main(args + ["-o", str(a)]) == 0
        ok &= main(args + ["-o", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
        if name.endswith(".json"):
            ok &= json.loads(a.read_text())["seed"] == 11
    _check(
        13,
        "seeded Monte Carlo commands re-run byte-identically",
        bool(ok),
    )
