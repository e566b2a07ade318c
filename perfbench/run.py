"""qsdr benchmark: cold-start CLI sweeps and Monte Carlo runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each repetition of a workload runs its CLI
invocations one after another, each in a fresh interpreter
(``perfbench/child.py`` with ``PYTHONPATH=src``), so import cost is paid
exactly as a user pays it.  Repetitions continue until ``--seconds`` have
been measured.  Every output is checked; a non-zero exit or a failed check
counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics; a speed probe (``probe.py``)
runs before each repetition and scales its import times, run time and rate
to a reference machine speed.  ``--trace 1`` alternates untraced and traced repetitions
with ``-X importtime`` probes and reports the per-layer metrics (see
README.md).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

SWEEP_AXIS = ("--q0", "0.7", "--gamma-sq-min", "0.01", "--gamma-sq-max", "4")
FIG1_SCHEMES = "helstrom,kennedy,improved_kennedy,simplified_dolinar,dolinar_ode"
FIG1_POINTS = 100
FIG3_POINTS = 300
TELEGRAPH_TRIALS = 20_000
MULTICOPY_TRIALS = 20_000
SIM_HEADER = ["scheme", "estimate", "stderr", "trials", "seed", "analytic", "z_score"]
TRAJECTORY_HEADER = ["trial", "a", "z_final", "click_times"]
SWEEP_TOL = 1e-9
ODE_TOL = 1e-7
MULTICOPY_TOL = 1e-12
Z_LIMIT = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "items/s",
    "peak_rss_mb": "MB",
}
IMPORT_MODULES = ("qsdr", "qsdr.statemath", "qsdr.multicopy", "qsdr.rootfind", "qsdr.dolinar")
LAYER_UNITS = {
    **{f"import.{m}_s": "s" for m in IMPORT_MODULES},
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "statemath.calls": "count",
    "statemath.s": "s",
    "rootfind.optimal_beta_sd.calls": "count",
    "rootfind.optimal_beta_sd.s": "s",
    "rootfind.optimal_beta_ik.calls": "count",
    "rootfind.optimal_beta_ik.s": "s",
    "rootfind.solve_bracketed.calls": "count",
    "rootfind.golden_max.calls": "count",
    "rootfind.pc_evals": "count",
    "dolinar.evolve_pc.calls": "count",
    "dolinar.evolve_pc.s": "s",
    "dolinar.ode.nfev": "count",
    "dolinar.ode.segments": "count",
    "dolinar.simulate_telegraph.s": "s",
    "dolinar.trials": "count",
    "dolinar.clicks_per_trial": "clicks/trial",
    "dolinar.law_evals_per_trial": "evals/trial",
    "rng.streams": "count",
    "rng.setup_s": "s",
    "multicopy.exact_adaptive_pc.s": "s",
    "multicopy.simulate_adaptive.s": "s",
    "multicopy.trials": "count",
    "trace.overhead_s": "s",
}
# Per-layer metrics that must repeat exactly between runs at one seed.
EXACT_COUNTS = (
    "rootfind.pc_evals",
    "dolinar.ode.nfev",
    "rng.streams",
    "dolinar.law_evals_per_trial",
    "dolinar.clicks_per_trial",
)


# The reference machine speed: about the speed probe's median wall time on
# a 2-core Xeon (2.1 GHz) VM with Python 3.11, numpy 2.4 and scipy 1.17.
# setup_s, run_s and work_per_s are reported as if the probe had taken
# this long.
PROBE_REFERENCE_S = 1.05


class CheckFailed(Exception):
    """An invocation's output is not what the program promises."""


# ---------------------------------------------------------------- checks


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


def _expect_header(path: Path, header: list[str], expected: list[str]) -> None:
    if header != expected:
        raise CheckFailed(f"{path.name} header {header} != {expected}")


def _check_against_reference(out: Path, reference: Path) -> list[dict[str, float]]:
    ref_header, ref_rows = _read_csv(reference)
    header, rows = _read_csv(out)
    _expect_header(out, header, ref_header)
    if len(rows) != len(ref_rows):
        raise CheckFailed(f"{out.name} has {len(rows)} rows, reference {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, value, expected in zip(header, row, ref):
            if not abs(float(value) - float(expected)) <= SWEEP_TOL:
                raise CheckFailed(f"{out.name} row {i} {col}: {value} vs reference {expected}")
    return [{c: float(v) for c, v in zip(header, row)} for row in rows]


def check_fig1(out: Path, seed: int) -> None:
    for i, row in enumerate(_check_against_reference(out, REFERENCE / "fig1.csv")):
        helstrom = row["helstrom_pe"]
        for col, value in row.items():
            if col.endswith("_pe") and not helstrom <= value:
                raise CheckFailed(f"fig1 row {i}: {col} {value} below helstrom_pe {helstrom}")
        if not abs(row["dolinar_ode_pe"] - helstrom) <= ODE_TOL:
            raise CheckFailed(f"fig1 row {i}: dolinar_ode_pe strays from helstrom_pe")


def check_fig3(out: Path, seed: int) -> None:
    _check_against_reference(out, REFERENCE / "fig3.csv")


def _check_simulate(out: Path, scheme: str, trials: int, seed: int) -> dict[str, float]:
    header, rows = _read_csv(out)
    _expect_header(out, header, SIM_HEADER)
    if len(rows) != 1:
        raise CheckFailed(f"{out.name} has {len(rows)} rows, expected 1")
    row = dict(zip(header, rows[0]))
    if (row["scheme"], int(row["trials"]), int(row["seed"])) != (scheme, trials, seed):
        raise CheckFailed(f"{out.name} does not echo scheme/trials/seed: {row}")
    z = float(row["z_score"])
    if not abs(z) <= Z_LIMIT:
        raise CheckFailed(f"{out.name}: |z_score| = {z} exceeds {Z_LIMIT}")
    return {k: float(row[k]) for k in ("estimate", "stderr", "analytic")}


def check_telegraph(out: Path, seed: int) -> None:
    _check_simulate(out, "dolinar_mc", TELEGRAPH_TRIALS, seed)
    trajectories = out.with_suffix(".traj.csv")
    header, rows = _read_csv(trajectories)
    _expect_header(trajectories, header, TRAJECTORY_HEADER)
    if len(rows) != TELEGRAPH_TRIALS:
        raise CheckFailed(f"trajectory file has {len(rows)} records, expected {TELEGRAPH_TRIALS}")


def check_multicopy(out: Path, seed: int) -> None:
    row = _check_simulate(out, "multicopy", MULTICOPY_TRIALS, seed)
    bound = json.loads((REFERENCE / "multicopy.json").read_text())["multicopy_bound"]
    if not abs(row["analytic"] - bound) <= MULTICOPY_TOL:
        raise CheckFailed(f"multicopy analytic {row['analytic']} != multicopy_bound {bound}")


def clicks_in(trajectories: Path) -> tuple[int, int]:
    """(total clicks, trials) recorded in a CSV trajectory export."""
    _, rows = _read_csv(trajectories)
    clicks = sum(len(r[3].split(";")) if r[3] else 0 for r in rows)
    return clicks, len(rows)


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Invocation:
    """One qsdr CLI call; ``--seed`` and the output paths are appended."""

    name: str
    argv: tuple[str, ...]
    work: int  # sweep rows or Monte Carlo trials
    check: Callable[[Path, int], None]
    trajectories: bool = False

    def full_argv(self, seed: int, out: Path) -> list[str]:
        argv = [*self.argv, "--seed", str(seed), "-o", str(out)]
        if self.trajectories:
            argv += ["--trajectories", str(out.with_suffix(".traj.csv"))]
        return argv


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "sweep": (
        Invocation(
            "fig1",
            ("fig1", *SWEEP_AXIS, "--schemes", FIG1_SCHEMES, "--points", str(FIG1_POINTS)),
            FIG1_POINTS,
            check_fig1,
        ),
        Invocation(
            "fig3", ("fig3", *SWEEP_AXIS, "--points", str(FIG3_POINTS)), FIG3_POINTS, check_fig3
        ),
    ),
    "telegraph": (
        Invocation(
            "telegraph",
            ("simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
             "--trials", str(TELEGRAPH_TRIALS)),
            TELEGRAPH_TRIALS,
            check_telegraph,
            trajectories=True,
        ),
    ),
    "multicopy": (
        Invocation(
            "multicopy",
            ("simulate", "--scheme", "multicopy", "--q0", "0.7", "--theta", "0.2",
             "--copies", "20", "--trials", str(MULTICOPY_TRIALS)),
            MULTICOPY_TRIALS,
            check_multicopy,
        ),
    ),
}


# -------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QSDR_SEED", None)
    return env


@dataclass
class Call:
    """What one child invocation cost and whether its output held."""

    invocation: Invocation
    wall_s: float
    rss_mb: float
    ok: bool
    import_s: float | None = None
    main_s: float | None = None
    bytes_out: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``cmd`` to completion; (exit code, wall seconds, peak RSS in MB).

    The child is reaped with ``os.wait4`` so its rusage is its own, not the
    running maximum ``RUSAGE_CHILDREN`` keeps over every child so far.  A
    child's peak also covers the RSS it inherited from this process before
    exec, so this process stays small: it loads numpy only in traced runs,
    which report no RSS.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def invoke(inv: Invocation, seed: int, workdir: Path, ident: int, trace: bool) -> Call:
    out = workdir / f"{inv.name}.csv"
    result = workdir / f"{inv.name}.result.json"
    spans = workdir / f"{inv.name}.spans.npz"
    for stale in (out, result, spans, out.with_suffix(".traj.csv")):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result),
           str(spans) if trace else "-", str(ident), "--", *inv.full_argv(seed, out)]
    code, wall, rss = run_child(cmd, workdir / f"{inv.name}.stderr")
    call = Call(inv, wall, rss, ok=False)
    if code != 0 or not result.exists():
        print(f"perfbench: {inv.name} exited {code}, see {workdir / (inv.name + '.stderr')}",
              file=sys.stderr)
        return call
    timings = json.loads(result.read_text())
    call.import_s, call.main_s = timings["import_s"], timings["main_s"]
    try:
        inv.check(out, seed)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {inv.name} output check failed: {exc}", file=sys.stderr)
        return call
    call.ok = True
    written = (out, out.with_suffix(".traj.csv"))
    call.bytes_out = sum(p.stat().st_size for p in written if p.exists())
    if trace:
        call.layers = layers_of(spans, call)
    return call


def run_repetition(
    workload: str, seed: int, workdir: Path, first_id: int, trace: bool
) -> list[Call]:
    invocations = WORKLOADS[workload]
    return [invoke(inv, seed, workdir, first_id + k, trace) for k, inv in enumerate(invocations)]


def speed_probe(workdir: Path) -> float:
    """Wall seconds of one run of ``probe.py``, the machine-speed yardstick."""
    code, wall, _ = run_child([sys.executable, str(BENCH / "probe.py")], workdir / "probe.stderr")
    if code != 0:
        raise RuntimeError(f"speed probe exited {code}, see {workdir / 'probe.stderr'}")
    return wall


def importtime_probe() -> dict[str, float]:
    """Cumulative import seconds per qsdr module from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qsdr.cli"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
            found[f"import.{parts[2].strip()}_s"] = int(parts[1]) * 1e-6
    return found


# ------------------------------------------------------------ span layers


def layers_of(spans_path: Path, call: Call) -> dict[str, float]:
    """Per-layer counts and seconds of one traced invocation."""
    import numpy as np

    with np.load(spans_path) as data:
        meta = json.loads(str(data["meta"]))
        name_id, parent = data["name_id"], data["parent"]
        start, end = data["start"], data["end"]
    names = meta["names"]
    dur = end - start
    n = len(names)
    count_by = dict(zip(names, np.bincount(name_id, minlength=n).tolist()))
    secs_by = dict(zip(names, np.bincount(name_id, weights=dur, minlength=n).tolist()))

    layer = np.array([name.split(".", 1)[0] for name in names])[name_id]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    is_cli = layer == "cli"
    from_cli = has_parent & is_cli[np.where(has_parent, parent, 0)]
    is_statemath = (layer == "statemath") & from_cli

    # ControlLaw.u0 calls made by the telegraph sampler: no traced function
    # sits between simulate_telegraph and the sampler's rate evaluations.
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    in_sampler = int(((name_id == names.index("dolinar.ControlLaw.u0"))
                      & (parent_name == names.index("dolinar.simulate_telegraph"))).sum())

    counters = meta["counters"]
    out = {
        "cli.self_s": float((dur - child_time)[is_cli].sum()),
        "cli.bytes_out": call.bytes_out,
        "statemath.calls": int(is_statemath.sum()),
        "statemath.s": float(dur[is_statemath].sum()),
        "rootfind.solve_bracketed.calls": count_by["rootfind.solve_bracketed"],
        "rootfind.golden_max.calls": count_by["rootfind.golden_max"],
        "rootfind.pc_evals": counters["rootfind.pc_evals"],
        "dolinar.evolve_pc.calls": count_by["dolinar.evolve_pc"],
        "dolinar.evolve_pc.s": secs_by["dolinar.evolve_pc"],
        "dolinar.ode.nfev": counters["dolinar.ode.nfev"],
        "dolinar.ode.segments": count_by["dolinar.solve_ivp"],
        "dolinar.simulate_telegraph.s": secs_by["dolinar.simulate_telegraph"],
        "dolinar.trials": counters["dolinar.trials"],
        "dolinar.law_evals": in_sampler,
        "rng.streams": count_by["rng.default_rng"] + count_by["rng.spawn"],
        "rng.setup_s": secs_by["rng.default_rng"] + secs_by["rng.spawn"],
        "multicopy.exact_adaptive_pc.s": secs_by["multicopy.exact_adaptive_pc"],
        "multicopy.simulate_adaptive.s": secs_by["multicopy.simulate_adaptive"],
        "multicopy.trials": counters["multicopy.trials"],
    }
    for fn in ("optimal_beta_sd", "optimal_beta_ik"):
        out[f"rootfind.{fn}.calls"] = count_by[f"rootfind.{fn}"]
        out[f"rootfind.{fn}.s"] = secs_by[f"rootfind.{fn}"]
    traj = spans_path.parent / f"{call.invocation.name}.traj.csv"
    clicks, records = clicks_in(traj) if traj.exists() else (0, 0)
    out["dolinar.clicks"], out["dolinar.trajectories"] = clicks, records
    return out


def repetition_layers(calls: list[Call]) -> dict[str, float]:
    """Sum one traced repetition's invocations and form its ratios."""
    total: dict[str, float] = defaultdict(float)
    for call in calls:
        for key, value in call.layers.items():
            total[key] += value
    clicks, records = total.pop("dolinar.clicks", 0), total.pop("dolinar.trajectories", 0)
    evals, trials = total.pop("dolinar.law_evals", 0), total["dolinar.trials"]
    total["dolinar.clicks_per_trial"] = clicks / records if records else 0.0
    total["dolinar.law_evals_per_trial"] = evals / trials if trials else 0.0
    return dict(total)


# ---------------------------------------------------------------- metrics


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[list[Call]], probe_s: list[float]) -> dict[str, float]:
    """End-to-end metrics; times and rate scaled to the reference speed.

    A repetition's import times and wall time are divided, and its rate
    multiplied, by the wall time of the speed probe run just before it, then
    expressed at ``PROBE_REFERENCE_S``.  On a shared host this removes most
    of the minute-to-minute drift in machine speed.  ``peak_rss_mb`` is
    reported as measured.
    """
    def per_second(rep):
        busy = sum(c.main_s for c in rep if c.main_s is not None)
        return sum(c.invocation.work for c in rep if c.ok) / busy if busy else None

    walls = [sum(c.wall_s for c in rep) for rep in reps]
    rates = [per_second(rep) for rep in reps]
    imports = [(c.import_s, p) for rep, p in zip(reps, probe_s) for c in rep if c.import_s]
    print(f"perfbench: {len(reps)} repetitions; as measured: "
          f"setup_s {_median(i for i, _ in imports):.4f}, run_s {_median(walls):.4f}, "
          f"work_per_s {_median(rates):.6g}; speed probe {_median(probe_s):.4f} s",
          file=sys.stderr)
    ref = PROBE_REFERENCE_S
    return {
        "setup_s": _median(i * ref / p for i, p in imports),
        "run_s": _median(w * ref / p for w, p in zip(walls, probe_s)),
        "work_per_s": _median(r * p / ref for r, p in zip(rates, probe_s) if r),
        "peak_rss_mb": _median(max(c.rss_mb for c in rep) for rep in reps),
    }


def per_layer(traced: list[list[Call]], untraced: list[list[Call]],
              imports: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics, and the exact counts that did not repeat."""
    by_rep = [repetition_layers(rep) for rep in traced if all(c.ok for c in rep)]
    metrics = {name: _median(rep.get(name, 0.0) for rep in by_rep) for name in LAYER_UNITS}
    for name in LAYER_UNITS:
        if name.startswith("import."):
            metrics[name] = _median(p.get(name) for p in imports)
    metrics["trace.overhead_s"] = (
        _median(sum(c.wall_s for c in rep) for rep in traced)
        - _median(sum(c.wall_s for c in rep) for rep in untraced)
    )
    unsteady = [k for k in EXACT_COUNTS if len({rep.get(k) for rep in by_rep}) > 1]
    return metrics, unsteady


# ------------------------------------------------------------------ main


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Warm the bytecode and page caches once; users pay that at install.
    run_child([sys.executable, "-c", "import qsdr.cli"], workdir / "warmup.stderr")

    untraced: list[list[Call]] = []
    traced: list[list[Call]] = []
    imports: list[dict[str, float]] = []
    probe_s: list[float] = []
    ident = 0
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        if not trace:
            probe_s.append(speed_probe(workdir))
        untraced.append(run_repetition(workload, seed, workdir, ident, False))
        ident += len(WORKLOADS[workload])
        if trace:
            traced.append(run_repetition(workload, seed, workdir, ident, True))
            ident += len(WORKLOADS[workload])
            imports.append(importtime_probe())

    calls = [c for rep in untraced + traced for c in rep]
    failed = sum(not c.ok for c in calls)
    if trace:
        metrics, unsteady = per_layer(traced, untraced, imports)
        units = LAYER_UNITS
        if unsteady:
            print(f"perfbench: counts differ between repetitions: {unsteady}", file=sys.stderr)
    else:
        metrics, unsteady, units = end_to_end(untraced, probe_s), [], END_TO_END_UNITS
    return {
        "correct": failed == 0 and not unsteady,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "qsdr" / "cli.py", REFERENCE / "fig1.csv") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; "
              "run from a qsdr source checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
