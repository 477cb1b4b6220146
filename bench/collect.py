"""Run the benchmark over several seeds and summarise each metric's spread.

Usage:
    python3 bench/collect.py --workloads verify-small,analyze-generated \
        --seeds 1-10 [--trace 0|1] [--seconds S] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one after another, from
the repository root.  For each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
and whether the spread is below a third of the metric's bound in
BENCHMARK.json, within it, or over it.  ``--out`` writes every run
and the summary as JSON; an existing file keeps its other workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, git_sha
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    results["stamp"] = {"git_sha": git_sha(), "python": platform.python_version(), "seconds": seconds}
    key = "end_to_end" if args.trace == 0 else "per_layer"

    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            stamp = json.loads(next(line for line in lines if line.startswith("# {"))[2:])
            runs.append({"seed": seed, "stamp": stamp, **result})
            failures = [line for line in lines if line.startswith("FAILED")]
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", *failures, sep="\n  ")
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"], **summarise(values)}
            s, bound = summary[metric], bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = f"  bound {bound}: " + ("below a third" if s["spread"] < bound / 3 else "within" if s["spread"] <= bound else "OVER")
            print(f"  {metric:45s} {s['median']:.6g} {s['unit']}  [{s['q1']:.6g}, {s['q3']:.6g}]  spread {s['spread']:.4f}{verdict}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        results.setdefault(name, {})[key] = {
            "seeds": args.seeds,
            "failed_ratio": failed / attempted,
            "summary": summary,
            "runs": runs,
        }
        print(f"  failed_ratio {failed / attempted}")

    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
