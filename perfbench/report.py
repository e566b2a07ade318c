"""Run every qsdr benchmark workload and print each metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/report.py [--runs N] [--first-seed S] [--trace 0|1] [--json OUT]

Each run is one ``perfbench/run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...).  For every workload and metric the table gives the
median over runs, the quartiles and the spread (interquartile range over
median), next to the bound ``BENCHMARK.json`` fixes; ``fail_ratio`` is failed
invocations over invocations attempted.  ``--json`` also writes the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --workload {workload} --seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [
            run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        s = summary[workload] = summarize(results, bounds)
        print(f"{workload}: {s['runs']} run(s) of {spec['run_seconds']} s, correct={s['correct']}")
        print(f"  {'fail_ratio':32s} {s['fail_ratio']:12.6g} ratio"
              f"  ({s['failed']} of {s['attempted']} invocations)")
        for name, m in s["metrics"].items():
            bound = f"  bound {m['bound']:.2f}" if m["bound"] is not None else ""
            print(f"  {name:32s} {m['median']:12.6g} {m['unit']:12s}"
                  f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}{bound}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
