"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/spread.py --workloads gain-curve lottery audit --seeds 10

For every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Runs are sequential and use
``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` is given;
the summary is written to ``perfbench/out/<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds FIRST..FIRST+N-1 are run")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = elapsed
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "metrics": {
                name: dict(unit=runs[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in runs]))
                for name in names
            },
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound}" + (
                "  within a third" if s["spread"] < bound / 3 else
                "  within" if s["spread"] <= bound else "  OVER")
            print(f"  {name:44s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{verdict}",
                  flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
