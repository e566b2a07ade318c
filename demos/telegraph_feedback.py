"""Click-by-click feedback: the receiver that attains the quantum bound.

The exact feedback law keeps the running success probability on the
instantaneous two-state bound at every moment, not just at the horizon.
The script evolves the success probability under that law in closed form
(the ODE is linear), compares against the bound curve, then runs the
actual stochastic click process (an inhomogeneous telegraph process, each
click drawn exactly by inverting the law's closed-form integrated click
rate) and checks statistical agreement.  Equal priors make the law diverge
at t = 0; a cap on the feedback magnitude tames it, and tighter caps
approach the bound from below.
"""

import argparse
from collections import Counter

import numpy as np

from qsdr import (
    ControlLaw,
    Priors,
    binomial,
    evolve_pc,
    helstrom_trajectory,
    null_z,
    telegraph_chunks,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.7)
    ap.add_argument("--psi", type=float, default=1.0)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()

    pr = Priors(args.q0)
    law = ControlLaw.dolinar_optimal(pr, args.psi)
    times = np.linspace(0.0, args.T, 101)
    res = evolve_pc(pr, args.psi, law, args.T, sample_times=times)
    bound = helstrom_trajectory(pr, args.psi, times)
    print(f"closed form under the exact law: final P_c = {res.final.pc(pr):.10f}")
    print(f"instantaneous bound at T: {bound[-1]:.10f}")
    print(f"largest gap along the trajectory: {np.max(np.abs(res.pc - bound)):.2e}\n")

    # One pass over the click records, chunk by chunk: the trials that end on their
    # symbol and each trial's click count are all that is kept.
    hits, counts = 0, Counter()
    for _, tr in telegraph_chunks(pr, args.psi, law, args.T, args.trials, args.seed):
        hits += int(np.count_nonzero(tr.z_final == tr.a))
        counts.update(np.diff(tr.offsets).tolist())
    mc = binomial(hits, args.trials)
    z = null_z(mc.estimate, bound[-1], args.trials)
    print(f"telegraph Monte Carlo: {mc.estimate:.5f} +- {mc.stderr:.5f} (z = {z:.2f})")
    mean = sum(k * n for k, n in counts.items()) / args.trials
    print(f"mean clicks per trial: {mean:.3f}, max {max(counts)}")
    for k in range(min(max(counts) + 1, 5)):
        print(f"  {k} clicks: {counts[k] / args.trials:7.2%}")

    # Equal priors: uncapped feedback diverges at t = 0, so cap it.
    pr5 = Priors(0.5)
    hel = helstrom_trajectory(pr5, args.psi, args.T)
    print(f"\nequal priors, capped feedback (bound {hel:.10f}):")
    for u_max in (5.0, 20.0, 100.0):
        capped = ControlLaw.dolinar_optimal(pr5, args.psi, u_max=u_max)
        pc = evolve_pc(pr5, args.psi, capped, args.T).final.pc(pr5)
        print(f"  u_max = {u_max:5.0f}: P_c = {pc:.10f}  (gap {hel - pc:.2e})")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; text only")
            return
        plt.plot(times, bound, "k--", label="instantaneous bound")
        plt.plot(times, res.pc, label="exact law")
        plt.xlabel("time")
        plt.ylabel("success probability")
        plt.legend()
        plt.tight_layout()
        plt.show()


if __name__ == "__main__":
    main()
