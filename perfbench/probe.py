"""Fixed calibration work that tracks the machine's momentary speed.

``run.py`` runs this script in a fresh interpreter before every timed
repetition and scales the repetition's import times, run time and rate by
the probe's wall time.  On a shared host the same code runs up to 1.8 times slower from one minute to
the next.  The probe has the same mix of work as the workloads: interpreter
start-up, importing numpy and scipy, interpreted float code, per-stream
random generator set-up and a small ODE solve.  It never touches qsdr, so a
change to qsdr cannot move it.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def golden_max(f, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def main() -> float:
    total = 0.0
    for k in range(3000):
        shift = 3e-4 * k
        total += golden_max(lambda x: math.exp(-((x - shift) ** 2)) * math.cos(x), -1.0, 2.0)
        total += brentq(lambda x: math.tanh(x) - shift, -3.0, 3.0)
    for child in np.random.SeedSequence(12345).spawn(12000):
        total += np.random.default_rng(child).random()
    sol = solve_ivp(lambda t, y: -y * math.cos(t), (0.0, 20.0), [1.0], rtol=1e-10, atol=1e-12)
    return total + float(sol.y[0, -1])


if __name__ == "__main__":
    main()
