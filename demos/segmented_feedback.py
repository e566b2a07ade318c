"""From discrete feedback slots to the continuous optimum.

Freeze the optimal feedback value over n equal time slots and propagate the
success probability in closed form slot by slot: no integrator, no
sampling.  As n grows the slotted receiver converges to the continuous
optimum, which bridges the discrete multicopy picture and the continuous
feedback receiver.  Midpoint sampling of each slot converges noticeably
faster than slot-start sampling.  The slotted law, handed to the RK45
integrator as an opaque function of time, cross-checks the closed form.
"""

import argparse

from qsdr import (
    ControlLaw,
    Priors,
    evolve_pc_general,
    feedback_amplitude,
    helstrom_trajectory,
    segmented_pc,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.7)
    ap.add_argument("--psi", type=float, default=1.0)
    ap.add_argument("--T", type=float, default=1.0)
    args = ap.parse_args()

    pr = Priors(args.q0)
    hel = helstrom_trajectory(pr, args.psi, args.T)
    print(f"continuous optimum at T = {args.T}: P_c = {hel:.12f}\n")

    print(f"{'slots':>6} {'slot-start P_c':>16} {'gap':>10} {'midpoint gap':>13}")
    for n in (1, 3, 10, 30, 100, 300, 1000):
        pc = segmented_pc(pr, args.psi, args.T, n)
        pc_mid = segmented_pc(pr, args.psi, args.T, n, midpoint=True)
        print(f"{n:6d} {pc:16.12f} {hel - pc:10.2e} {hel - pc_mid:13.2e}")

    # The same receiver as a piecewise-constant law, integrated numerically
    # (RK45) as an opaque function of time, lands on the same number.
    n = 10
    h = args.T / n
    floor = args.T * 1e-9
    vals = [feedback_amplitude(pr, args.psi, max(i * h, floor)) for i in range(n)]
    law = ControlLaw.piecewise_constant(vals, args.T)
    ode = evolve_pc_general(pr, args.psi, law.u0, law.u1, args.T, tol=1e-12).final.pc(pr)
    closed = segmented_pc(pr, args.psi, args.T, n)
    print(f"\ncross-check at n = {n}: closed form {closed:.12f}, RK45 {ode:.12f}")
    print(f"difference {abs(closed - ode):.2e}")


if __name__ == "__main__":
    main()
