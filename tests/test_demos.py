"""Every demo script runs to completion on a small problem."""

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


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *SMALL.get(script, [])],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
