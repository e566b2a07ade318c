"""How far the optimal displacement sits from exact nulling.

The nulling receiver displaces by exactly the signal amplitude.  Both
optimized receivers overshoot: the extra displacement buys a lower error
probability on weak signals and fades away as the signal strengthens.
This script tabulates the optimal intensity |beta|^2 against the nulling
reference and reports the overshoot trend.
"""

import argparse
import math

import numpy as np

from qsdr import Priors, optimal_beta_ik, optimal_beta_sd


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()

    # The optimizers need q0 >= q1; |beta|^2 does not depend on the labels.
    pr = Priors(args.q0).dominant()
    g_sqs = np.geomspace(0.05, 2.0, args.points)
    g = np.sqrt(g_sqs)
    ik_sq = optimal_beta_ik(pr, g) ** 2  # one solve over the whole axis
    sd_sq = optimal_beta_sd(pr, g) ** 2
    print(f"optimal displacement intensity at q0 = {args.q0} (in photons)")
    print(f"{'gamma_sq':>9} {'nulling':>10} {'opt displ':>10} {'feedback':>10}")
    for g_sq, ik, sd in zip(g_sqs, ik_sq, sd_sq):
        print(f"{g_sq:9.4f} {g_sq:10.5f} {ik:10.5f} {sd:10.5f}")

    weak = math.sqrt(ik_sq[0]) - math.sqrt(g_sqs[0])
    strong = math.sqrt(ik_sq[-1]) - math.sqrt(g_sqs[-1])
    print(f"\ndisplacement overshoot beta - gamma: {weak:.4f} (weak) -> {strong:.4f} (strong)")
    print("the optimum converges to plain nulling as the signal strengthens")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; table only")
            return
        plt.semilogx(g_sqs, g_sqs, "k--", label="nulling reference")
        plt.semilogx(g_sqs, ik_sq, label="optimized displacement")
        plt.semilogx(g_sqs, sd_sq, label="optimized feedback envelope")
        plt.xlabel("mean photon number")
        plt.ylabel("optimal |beta|^2")
        plt.legend()
        plt.tight_layout()
        plt.show()


if __name__ == "__main__":
    main()
