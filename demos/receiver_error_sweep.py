"""Error probability of each receiver across signal strengths.

Sweeps the mean photon number and tabulates the error probability of the
quantum bound, the nulling receiver, the optimized fixed displacement and
the optimized constant-envelope feedback receiver.  The ordering

    bound <= feedback <= optimized displacement <= nulling

holds at every point; the interesting part is how quickly each gap closes
as the signal strengthens.  Run with --plot for the classic log-log figure.
"""

import argparse

import numpy as np

from qsdr import (
    Priors,
    coherent_overlap,
    helstrom_error,
    improved_kennedy_error,
    kennedy_error,
    optimal_beta_ik,
    optimal_beta_sd,
    simplified_dolinar_error,
)


def sweep(q0: float, points: int) -> dict[str, np.ndarray]:
    # The optimizers need q0 >= q1; no column depends on the labels.
    pr = Priors(q0).dominant()
    # Every column is one call over the whole axis.
    g_sqs = np.geomspace(0.01, 2.0, points)
    g = np.sqrt(g_sqs)
    return {
        "gamma_sq": g_sqs,
        "helstrom": helstrom_error(pr, coherent_overlap(g_sqs)),
        "kennedy": kennedy_error(pr, g_sqs),
        "improved_kennedy": improved_kennedy_error(pr, g, optimal_beta_ik(pr, g)),
        "simplified_dolinar": simplified_dolinar_error(pr, g, optimal_beta_sd(pr, g)),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--plot", action="store_true", help="draw with matplotlib")
    args = ap.parse_args()

    data = sweep(args.q0, args.points)
    print(f"error probabilities at q0 = {args.q0}")
    print(f"{'gamma_sq':>9} {'bound':>11} {'feedback':>11} {'opt displ':>11} {'nulling':>11}")
    for i, g_sq in enumerate(data["gamma_sq"]):
        print(
            f"{g_sq:9.4f} {data['helstrom'][i]:11.5e} "
            f"{data['simplified_dolinar'][i]:11.5e} "
            f"{data['improved_kennedy'][i]:11.5e} {data['kennedy'][i]:11.5e}"
        )
    ratio = data["simplified_dolinar"][-1] / data["helstrom"][-1]
    print(f"\nat gamma_sq = 2 the feedback receiver errs {ratio:.3f}x the bound")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; table only")
            return
        labels = {
            "helstrom": "quantum bound",
            "simplified_dolinar": "optimized feedback",
            "improved_kennedy": "optimized displacement",
            "kennedy": "nulling",
        }
        for key, label in labels.items():
            plt.loglog(data["gamma_sq"], data[key], label=label)
        plt.xlabel("mean photon number")
        plt.ylabel("error probability")
        plt.legend()
        plt.tight_layout()
        plt.show()


if __name__ == "__main__":
    main()
