"""Measuring n identical qubit copies one at a time, optimally.

Local measurements with the right angle schedule match the collective
n-copy quantum bound exactly.  The script shows three independent routes to
the same number: the closed-form bound, an exact copy-by-copy recursion
over the strategy's provisional decision, and a seeded Monte Carlo run.  It then verifies that the
unrolled strategy is a genuine projective measure (identity Gram matrix)
and walks the copy-by-copy posterior recursion.
"""

import argparse

import numpy as np

from qsdr import (
    Priors,
    QubitPair,
    exact_adaptive_pc,
    measurement_vectors,
    multicopy_bound,
    null_z,
    posterior_update,
    simulate_adaptive,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q0", type=float, default=0.6)
    ap.add_argument("--chi", type=float, default=0.8, help="overlap of the two states")
    ap.add_argument("--copies", type=int, default=6)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    pr = Priors(args.q0)
    theta = QubitPair.from_overlap(args.chi).theta
    print(f"q0 = {args.q0}, overlap = {args.chi}, angle theta = {theta:.6f}\n")

    print(f"{'n':>3} {'bound':>16} {'strategy':>16} {'difference':>12}")
    for n in range(1, args.copies + 1):
        bound = multicopy_bound(pr, args.chi, n)
        exact = exact_adaptive_pc(pr, theta, n)
        print(f"{n:3d} {bound:16.12f} {exact:16.12f} {abs(bound - exact):12.2e}")

    n = args.copies
    res = simulate_adaptive(pr, theta, n, trials=args.trials, seed=args.seed)
    bound = multicopy_bound(pr, args.chi, n)
    z = null_z(res.estimate, bound, args.trials)
    print(
        f"\nMonte Carlo at n = {n}: {res.estimate:.5f} +- {res.stderr:.5f}"
        f"  (bound {bound:.5f}, z = {z:.2f})"
    )

    # The unrolled strategy is one product measurement on all n copies.
    mat = measurement_vectors(pr, theta, min(n, 8))
    gram_err = float(np.max(np.abs(mat @ mat.T - np.eye(len(mat)))))
    print(f"Gram matrix deviation from identity: {gram_err:.2e} ({len(mat)} vectors)")

    # Copy-by-copy: each further copy applies the one-step bound update.
    pc = pr.max_prior
    steps = [pc]
    for _ in range(n):
        pc = posterior_update(pc, args.chi)
        steps.append(pc)
    chain = " -> ".join(f"{p:.6f}" for p in steps)
    print(f"posterior recursion: {chain}")


if __name__ == "__main__":
    main()
