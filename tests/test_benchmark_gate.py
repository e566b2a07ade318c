"""The benchmark's ``sweep`` workload passes the benchmark's own output checks.

``perfbench/run.py`` compares every analytic ``fig1``/``fig3`` cell with a
stored reference to 1e-9 and checks each error column against the quantum
bound.  Running the same argv and the same checks here makes a drift past
that gate fail the test suite, not only a benchmark run.  The module is
loaded from its file and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qsdr.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _benchmark(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file executes.
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_sweep_outputs_pass_the_benchmark_checks(name, tmp_path, monkeypatch):
    run = _benchmark(monkeypatch)
    (inv,) = [inv for inv in run.WORKLOADS["sweep"] if inv.name == name]
    out = tmp_path / f"{name}.csv"
    assert main(inv.full_argv(0, out)) == 0
    inv.check(out, 0)
