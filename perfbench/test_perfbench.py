"""Tests of the benchmark itself: checks, tracing counts, rusage, contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.fixture(scope="module")
def traced_layers(tmp_path_factory):
    """Per-layer metrics of two traced repetitions of each workload at one seed."""
    out = {}
    for workload in run.WORKLOADS:
        pair = []
        for attempt in range(2):
            workdir = tmp_path_factory.mktemp(f"{workload}{attempt}")
            calls = run.run_repetition(workload, 7, workdir, 0, trace=True)
            assert all(c.ok for c in calls), workload
            pair.append(run.repetition_layers(calls))
        out[workload] = pair
    return out


def test_counts_repeat_exactly_at_one_seed(traced_layers):
    for workload, (first, second) in traced_layers.items():
        for name in run.EXACT_COUNTS:
            assert first[name] == second[name], (workload, name)


def test_layers_bypassed_read_zero(traced_layers):
    for workload in ("telegraph", "multicopy"):
        layers = traced_layers[workload][0]
        for name, value in layers.items():
            if name.startswith("rootfind."):
                assert value == 0, (workload, name)
    sweep = traced_layers["sweep"][0]
    assert sweep["rng.streams"] == 0
    assert sweep["rootfind.pc_evals"] > 0 and sweep["dolinar.ode.nfev"] > 0
    assert traced_layers["telegraph"][0]["dolinar.law_evals_per_trial"] > 0
    assert traced_layers["multicopy"][0]["rng.streams"] > run.MULTICOPY_TRIALS


def test_sweep_checks_reject_a_perturbed_value(tmp_path):
    out = tmp_path / "fig1.csv"
    shutil.copy(run.REFERENCE / "fig1.csv", out)
    run.check_fig1(out, 0)
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-8)
    lines[5] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(run.CheckFailed):
        run.check_fig1(out, 0)


def test_simulate_check_rejects_large_z(tmp_path):
    out = tmp_path / "multicopy.csv"
    row = ["multicopy", "0.99", "0.0006", str(run.MULTICOPY_TRIALS), "3"]
    bound = json.loads((run.REFERENCE / "multicopy.json").read_text())["multicopy_bound"]
    for z, ok in (("3.9", True), ("4.1", False), ("inf", False)):
        out.write_text(",".join(run.SIM_HEADER) + "\n" + ",".join([*row, repr(bound), z]) + "\n")
        if ok:
            run.check_multicopy(out, 3)
        else:
            with pytest.raises(run.CheckFailed):
                run.check_multicopy(out, 3)


def test_peak_rss_is_each_childs_own(tmp_path):
    # A child's peak starts at the RSS it inherits from its parent before
    # exec, so the children are started from a small interpreter, as in a run.
    script = f"""
import json, sys
sys.path.insert(0, {str(run.BENCH)!r})
import run
big = [sys.executable, "-c", "b = bytearray(200_000_000); b[::4096] = b'x' * len(b[::4096])"]
small = [sys.executable, "-c", "pass"]
tmp = run.Path({str(tmp_path)!r})
peaks = [run.run_child(cmd, tmp / f"{{i}}.log")[2] for i, cmd in enumerate((big, small))]
print(json.dumps(peaks))
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    rss_big, rss_small = json.loads(out.stdout)
    assert rss_big > 190 and rss_small < rss_big / 2


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
