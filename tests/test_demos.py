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
