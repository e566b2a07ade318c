"""From discrete feedback slots to the continuous optimum.

Freeze the optimal feedback value over n equal time slots and propagate the
success probability in closed form slot by slot: no integrator, no
sampling.  As n grows the slotted receiver converges to the continuous
optimum, which bridges the discrete multicopy picture and the continuous
feedback receiver.  Midpoint sampling of each slot converges noticeably
faster than slot-start sampling.  The continuous optimal law, evolved in
closed form the same way, lands on the instantaneous Helstrom bound that the
slotted receiver converges to.
"""

import argparse

from qsdr import (
    LawFamily,
    Priors,
    evolve_pc,
    helstrom_trajectory,
    segmented_pc,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.7)
    ap.add_argument("--psi", type=float, default=1.0)
    ap.add_argument("--T", type=float, default=1.0)
    args = ap.parse_args()

    # The library works on the unit pulse: amplitude psi over T seconds is the mean
    # photon number psi**2*T.  The bound takes the seconds themselves.
    pr, gamma_sq = Priors(args.q0), args.psi * args.psi * args.T
    hel = helstrom_trajectory(pr, args.psi, args.T)
    print(f"continuous optimum at T = {args.T}: P_c = {hel:.12f}\n")

    print(f"{'slots':>6} {'slot-start P_c':>16} {'gap':>10} {'midpoint gap':>13}")
    for n in (1, 3, 10, 30, 100, 300, 1000):
        pc = segmented_pc(pr, gamma_sq, n)
        pc_mid = segmented_pc(pr, gamma_sq, n, midpoint=True)
        print(f"{n:6d} {pc:16.12f} {hel - pc:10.2e} {hel - pc_mid:13.2e}")

    # The continuous law, floored like the slots at 1e-9 of the pulse so that
    # equal priors have a finite first value, evolved in closed form.
    law = LawFamily(t_floor=1e-9).law(pr, gamma_sq)
    pc = evolve_pc(pr, gamma_sq, law, sample_times=()).final.pc(pr)
    print(f"\ncontinuous law in closed form: P_c = {pc:.12f}")
    print(f"difference from the bound {abs(hel - pc):.2e}")

if __name__ == "__main__":
    main()
