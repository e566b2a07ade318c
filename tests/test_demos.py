"""Every demo script runs to completion on a small problem, with scipy
unimportable: qsdr and its demos run on numpy alone.  The children run with
``-W error`` and must write nothing to stderr, so a warning fails the demo."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# Monte Carlo demos get a small trial count; the others run as shipped.
SMALL = {
    "multicopy_adaptive.py": ["--trials", "500"],
    "telegraph_feedback.py": ["--trials", "500"],
}


# Blocks scipy, imports qsdr, then runs the script named by the first argument
# as __main__ with the rest as its arguments.
WITHOUT_SCIPY = (
    "import runpy, sys\n"
    "sys.modules['scipy'] = None\n"
    "import qsdr\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", WITHOUT_SCIPY, str(DEMOS / script),
         *SMALL.get(script, [])],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


# The demos' output at --T 2.5, as the release whose library took T wrote it.
DEMOS_AT_T = {
    "segmented_feedback.py": ([], """\
continuous optimum at T = 2.5: P_c = 0.999990465924

 slots   slot-start P_c        gap  midpoint gap
     1   0.844827592762   1.55e-01      5.72e-06
     3   0.999810706615   1.80e-04      2.67e-06
    10   0.999983163704   7.30e-06      5.81e-07
    30   0.999989813178   6.53e-07      9.82e-08
   100   0.999990418104   4.78e-08      1.02e-08
   300   0.999990461059   4.86e-09      1.16e-09
  1000   0.999990465501   4.23e-10      1.04e-10

continuous law in closed form: P_c = 0.999990465924
difference from the bound 1.11e-16
"""),
    "telegraph_feedback.py": (["--trials", "500"], """\
closed form under the exact law: final P_c = 0.9999904659
instantaneous bound at T: 0.9999904659
largest gap along the trajectory: 1.11e-16

telegraph Monte Carlo: 1.00000 +- 0.00000 (z = 0.07)
mean clicks per trial: 0.422, max 4
  0 clicks:  66.60%
  1 clicks:  25.60%
  2 clicks:   7.00%
  3 clicks:   0.60%
  4 clicks:   0.20%

equal priors, capped feedback (bound 0.9999886499):
  u_max =     5: P_c = 0.9999884531  (gap 1.97e-07)
  u_max =    20: P_c = 0.9999886378  (gap 1.21e-08)
  u_max =   100: P_c = 0.9999886494  (gap 4.84e-10)
"""),
}


@pytest.mark.parametrize("script", DEMOS_AT_T)
def test_demo_converts_seconds_at_its_boundary(script):
    argv, want = DEMOS_AT_T[script]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script), "--T", "2.5", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


@pytest.mark.parametrize("script,argv", [
    ("telegraph_feedback.py", ["--q0", "0.9", "--psi", "2.5", "--trials", "500"]),
    ("multicopy_adaptive.py", ["--chi", "0.3", "--trials", "500"]),
])
def test_demo_scores_z_under_the_null(script, argv):
    # Every trial of these runs ends right, so the sample's own standard error is 0;
    # the binomial one at the analytic value is not, and z stays small.
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script), *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "1.00000 +- 0.00000" in proc.stdout
    (z,) = re.findall(r"z = ([^)]*)\)", proc.stdout)
    assert math.isfinite(float(z)) and float(z) < 4.0
